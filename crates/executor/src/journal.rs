//! Always-on structured event journal (flight recorder).
//!
//! A process-global, bounded, lock-free ring of typed events: arbitration
//! winners, interval escapes, re-plans, degradation-ladder steps, shard
//! winner divergence, link faults, and admission refusals. Writers pay a `fetch_add` plus a handful of
//! relaxed stores — no locks, no allocation — so the journal can stay on
//! in production paths. When the ring wraps, the oldest events are
//! overwritten: the journal answers "what just happened", not "what ever
//! happened" (the metrics registry keeps the totals).
//!
//! Each slot is guarded by a seqlock-style version counter: the writer
//! bumps it to odd, stores the payload, bumps it to even. A reader that
//! observes an odd version, or a version that changed across its reads,
//! discards the slot as torn. Payloads are plain `u64`s, so a torn read
//! can produce garbage but never undefined behavior, and the version
//! check discards it anyway.
//!
//! Timestamps come from [`monotonic_ns`], the same process-wide monotonic
//! epoch the tracer stamps span start times with — so journal events and
//! trace spans order consistently against each other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Kind::{NonNeg, Nullable, OneOf};
use crate::json::{parse_json, At, JsonWriter};
use crate::json_block;

/// Capacity of the global ring, in events. Power of two so the slot
/// index is a mask.
pub const JOURNAL_CAPACITY: usize = 2048;

/// Sentinel for "no shard / no node" in an event's identity fields;
/// rendered as `null` in JSON.
pub const NO_ID: u64 = u64::MAX;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide monotonic epoch (established on
/// first use). Shared by the tracer and the journal so span start times
/// and event timestamps are directly comparable.
#[must_use]
pub fn monotonic_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The typed event vocabulary of the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A choose-plan arbitration picked a winner (`a` = winning
    /// alternative index or [`NO_ID`] when every attempt failed, `b` =
    /// fallbacks absorbed on the way).
    ArbitrationWinner,
    /// A runtime checkpoint observed a cardinality outside its interval
    /// (`a` = observed rows).
    IntervalEscape,
    /// Mid-query re-optimization adopted (or rejected) a new plan
    /// (`a` = 1 when adopted, 0 when kept).
    Replan,
    /// The degradation ladder stepped down (`a` = ladder rung or memory
    /// fraction context).
    DegradationStep,
    /// Shards disagreed on a choose node's winner (`node` = the choose
    /// node, `a` = number of distinct winners).
    ShardDivergence,
    /// A link dropped a frame (`shard` = sending node, `a` = receiving
    /// node, `b` = drops charged; retransmission may still succeed).
    LinkFault,
    /// Admission control refused or a query failed with a classified
    /// refusal (`a` = refusal class: 0 timeout, 1 grant-too-large,
    /// 2 link-fault exhaustion, 3 memory exhaustion).
    AdmissionRefusal,
}

/// The stable string label of each kind, in code order — what the JSON
/// dump writes and what its validator accepts.
const LABELS: [&str; 7] = [
    "arbitration_winner",
    "interval_escape",
    "replan",
    "degradation_step",
    "shard_divergence",
    "link_fault",
    "admission_refusal",
];

impl EventKind {
    /// Stable string label, used by the JSON dump and its validator.
    #[must_use]
    pub fn label(self) -> &'static str {
        LABELS[self as usize]
    }

    /// Every kind, in code order.
    #[must_use]
    pub fn all() -> &'static [EventKind] {
        &[
            EventKind::ArbitrationWinner,
            EventKind::IntervalEscape,
            EventKind::Replan,
            EventKind::DegradationStep,
            EventKind::ShardDivergence,
            EventKind::LinkFault,
            EventKind::AdmissionRefusal,
        ]
    }

    fn from_code(code: u64) -> Option<EventKind> {
        EventKind::all().get(usize::try_from(code).ok()?).copied()
    }
}

/// One recorded event, fully plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Global sequence number (monotonic across the process).
    pub seq: u64,
    /// Monotonic timestamp ([`monotonic_ns`] epoch).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Distributed trace id the event belongs to (0 = outside any trace).
    pub trace: u64,
    /// Shard (or node) identity, [`NO_ID`] when not applicable.
    pub shard: u64,
    /// Plan-node id, [`NO_ID`] when not applicable.
    pub node: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u64,
}

const FIELDS: usize = 8; // seq, ts, kind, trace, shard, node, a, b

struct Slot {
    version: AtomicU64,
    data: [AtomicU64; FIELDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            data: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bounded lock-free event ring. One global instance ([`journal`]);
/// separate instances exist only in tests.
pub struct Journal {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl Journal {
    /// A fresh ring of [`JOURNAL_CAPACITY`] slots.
    #[must_use]
    pub fn new() -> Journal {
        Journal {
            slots: (0..JOURNAL_CAPACITY).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Records one event. Lock-free; safe from any thread.
    pub fn record(&self, kind: EventKind, trace: u64, shard: u64, node: u64, a: u64, b: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let ts = monotonic_ns();
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        // Seqlock write: odd while in flight, even when stable. Two
        // writers lapping each other on the same slot can interleave, but
        // the version check below makes readers discard any such slot.
        slot.version.fetch_add(1, Ordering::AcqRel);
        let fields = [seq, ts, kind as u64, trace, shard, node, a, b];
        for (cell, value) in slot.data.iter().zip(fields) {
            cell.store(value, Ordering::Relaxed);
        }
        slot.version.fetch_add(1, Ordering::AcqRel);
    }

    /// The sequence number the *next* event will get. Take it before an
    /// operation, then pass it to [`Journal::events_since`] to see only
    /// the events the operation produced.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Total events ever recorded (recorded − capacity have been
    /// overwritten when this exceeds the capacity).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Stable snapshot of the ring, oldest surviving event first. Torn
    /// slots (mid-write, or lapped during the read) are skipped.
    #[must_use]
    pub fn snapshot(&self) -> Vec<JournalEvent> {
        let head = self.head.load(Ordering::Acquire);
        let mut events = Vec::with_capacity(self.slots.len().min(head as usize));
        for slot in self.slots.iter() {
            let before = slot.version.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let fields: [u64; FIELDS] =
                std::array::from_fn(|i| slot.data[i].load(Ordering::Relaxed));
            let after = slot.version.load(Ordering::Acquire);
            if after != before {
                continue;
            }
            let [seq, ts_ns, code, trace, shard, node, a, b] = fields;
            let Some(kind) = EventKind::from_code(code) else { continue };
            if seq < head {
                events.push(JournalEvent { seq, ts_ns, kind, trace, shard, node, a, b });
            }
        }
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Events with `seq >= cursor`, oldest first (events older than the
    /// ring's reach are gone).
    #[must_use]
    pub fn events_since(&self, cursor: u64) -> Vec<JournalEvent> {
        let mut events = self.snapshot();
        events.retain(|e| e.seq >= cursor);
        events
    }

    /// The journal as a schema-stable JSON document (see
    /// [`validate_journal_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let events = self.snapshot();
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("journal").obj(|w| {
                write_header(w, self);
                w.key("events").objs(&events, write_event);
            });
        });
        w.finish()
    }
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new()
    }
}

static GLOBAL: OnceLock<Journal> = OnceLock::new();

/// The process-global flight recorder. Always on; bounded; lock-free.
#[must_use]
pub fn journal() -> &'static Journal {
    GLOBAL.get_or_init(Journal::new)
}

/// An identity field of an event: [`NO_ID`] is written as `null`.
fn id(v: u64) -> Option<u64> {
    (v != NO_ID).then_some(v)
}

json_block! {
    HEADER, fn write_header(w, journal: &Journal) {
        "capacity": NonNeg => journal.slots.len(),
        "recorded": NonNeg => journal.recorded(),
    }
}
json_block! {
    EVENT, fn write_event(w, e: &JournalEvent) {
        "seq": NonNeg => e.seq,
        "ts_ns": NonNeg => e.ts_ns,
        "kind": OneOf(&LABELS) => e.kind.label(),
        "trace": NonNeg => e.trace,
        "shard": Nullable(&NonNeg) => id(e.shard),
        "node": Nullable(&NonNeg) => id(e.node),
        "a": Nullable(&NonNeg) => id(e.a),
        "b": Nullable(&NonNeg) => id(e.b),
    }
}

/// Validates a journal JSON document (as produced by [`Journal::to_json`]
/// and dumped by `--journal-json`) against the field lists it was written
/// from: one `journal` object with numeric `capacity`/`recorded` and an
/// `events` array whose entries carry a known `kind` label, non-negative
/// numbers, nullable `shard`/`node`/`a`/`b` — and strictly increasing
/// `seq`.
///
/// # Errors
/// The first violation found, with the path it was found at.
pub fn validate_journal_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let journal = At::root(&doc).obj("journal")?;
    journal.fields(HEADER)?;
    let mut last_seq = None; // below every `Some`: the first event passes
    for event in journal.arr("events")? {
        event.fields(EVENT)?;
        if event.num("seq") <= last_seq {
            return event.expected("seq", "a number greater than the previous event's");
        }
        last_seq = event.num("seq");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_in_order() {
        let j = Journal::new();
        let cursor = j.cursor();
        j.record(EventKind::ArbitrationWinner, 7, 0, 3, 1, 0);
        j.record(EventKind::LinkFault, 7, 1, NO_ID, 2, 1);
        let events = j.events_since(cursor);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::ArbitrationWinner);
        assert_eq!(events[0].trace, 7);
        assert_eq!(events[0].node, 3);
        assert_eq!(events[1].kind, EventKind::LinkFault);
        assert!(events[0].seq < events[1].seq);
        assert!(events[0].ts_ns <= events[1].ts_ns);
    }

    #[test]
    fn ring_bounds_and_overwrites() {
        let j = Journal::new();
        for i in 0..(JOURNAL_CAPACITY as u64 + 100) {
            j.record(EventKind::Replan, 1, NO_ID, NO_ID, i, 0);
        }
        let events = j.snapshot();
        assert!(events.len() <= JOURNAL_CAPACITY);
        assert_eq!(j.recorded(), JOURNAL_CAPACITY as u64 + 100);
        // The oldest surviving event is at least `overflow` deep.
        assert!(events.first().map_or(0, |e| e.seq) >= 100);
        // Strictly increasing seq.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn concurrent_writers_never_tear() {
        let j = std::sync::Arc::new(Journal::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let j = std::sync::Arc::clone(&j);
                scope.spawn(move || {
                    for i in 0..2000u64 {
                        j.record(EventKind::IntervalEscape, t, t, i, i, t);
                    }
                });
            }
        });
        let events = j.snapshot();
        assert!(!events.is_empty());
        // Every surviving event is internally consistent: the payload `a`
        // matches the node id it was written with.
        assert!(events.iter().all(|e| e.a == e.node));
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn json_dump_validates() {
        let j = Journal::new();
        j.record(EventKind::ShardDivergence, 9, NO_ID, 4, 2, 0);
        j.record(EventKind::AdmissionRefusal, 0, NO_ID, NO_ID, 0, 0);
        let json = j.to_json();
        validate_journal_json(&json).unwrap();
        // Tampered kind fails.
        let bad = json.replace("shard_divergence", "quantum_flux");
        assert!(validate_journal_json(&bad).is_err());
    }

    #[test]
    fn empty_journal_validates() {
        let j = Journal::new();
        validate_journal_json(&j.to_json()).unwrap();
    }
}
