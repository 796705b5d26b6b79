//! Always-on structured event journal (flight recorder).
//!
//! A process-global, bounded ring of typed events: arbitration winners,
//! interval escapes, re-plans, degradation-ladder steps, shard winner
//! divergence, link faults, and admission refusals. Each control-plane
//! fact is recorded once, by the code where it happens, whether or not
//! the query is traced. When the ring wraps, the oldest events are
//! overwritten: the journal answers "what just happened", not "what ever
//! happened" (the metrics registry keeps the totals).
//!
//! The ring sits behind one [`parking_lot::Mutex`]: a writer holds it
//! while it numbers, stamps and stores its event, a reader while it
//! copies events out. Events are written at control-plane frequency —
//! one per decision, never one per row — so the lock is uncontended in
//! practice, and a snapshot is always a gap-free run of sequence numbers
//! with every event whole.
//!
//! Timestamps come from [`monotonic_ns`], the same process-wide monotonic
//! epoch the tracer stamps span start times with — so journal events and
//! trace spans order consistently against each other.

use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

use crate::json::Kind::{NonNeg, Nullable, OneOf};
use crate::json::{parse_json, At, JsonWriter};
use crate::json_block;

/// Capacity of the global ring, in events: event `seq` is kept in slot
/// `seq % JOURNAL_CAPACITY` until a later one takes it.
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

/// The bounded event ring. One global instance ([`journal`]); separate
/// instances exist only in tests.
pub struct Journal {
    ring: Mutex<Ring>,
}

#[derive(Default)]
struct Ring {
    /// Event `seq` at index `seq % JOURNAL_CAPACITY`; grows to the
    /// capacity, then is overwritten in place.
    slots: Vec<JournalEvent>,
    /// Events ever recorded: the next event's `seq`.
    recorded: u64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &JOURNAL_CAPACITY)
            .field("recorded", &self.cursor())
            .finish()
    }
}

impl Journal {
    /// A fresh, empty ring of [`JOURNAL_CAPACITY`] events.
    #[must_use]
    pub fn new() -> Journal {
        Journal { ring: Mutex::default() }
    }

    /// Records one event and returns the sequence number it was given.
    /// Safe from any thread.
    pub fn record(
        &self,
        kind: EventKind,
        trace: u64,
        shard: u64,
        node: u64,
        a: u64,
        b: u64,
    ) -> u64 {
        let mut ring = self.ring.lock();
        let seq = ring.recorded;
        let event = JournalEvent { seq, ts_ns: monotonic_ns(), kind, trace, shard, node, a, b };
        match ring.slots.get_mut(seq as usize % JOURNAL_CAPACITY) {
            Some(slot) => *slot = event,
            None => ring.slots.push(event),
        }
        ring.recorded += 1;
        seq
    }

    /// The sequence number the *next* event will get — the number of
    /// events ever recorded. Take it before an operation, then pass it to
    /// [`Journal::events_since`] to see only the events the operation
    /// produced.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.ring.lock().recorded
    }

    /// The ring's events, oldest first: the last [`JOURNAL_CAPACITY`]
    /// recorded, or every one while fewer were.
    #[must_use]
    pub fn snapshot(&self) -> Vec<JournalEvent> {
        self.events_since(0)
    }

    /// Events with `seq >= cursor`, oldest first (events older than the
    /// ring's reach are gone).
    #[must_use]
    pub fn events_since(&self, cursor: u64) -> Vec<JournalEvent> {
        let ring = self.ring.lock();
        let first = cursor.max(ring.recorded.saturating_sub(JOURNAL_CAPACITY as u64));
        (first..ring.recorded).map(|seq| ring.slots[seq as usize % JOURNAL_CAPACITY]).collect()
    }

    /// The journal as a schema-stable JSON document (see
    /// [`validate_journal_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let events = self.snapshot();
        let recorded = events.last().map_or(0, |e| e.seq + 1);
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("journal").obj(|w| {
                write_header(w, recorded);
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

/// The process-global flight recorder. Always on; bounded.
#[must_use]
pub fn journal() -> &'static Journal {
    GLOBAL.get_or_init(Journal::new)
}

/// An identity field of an event: [`NO_ID`] is written as `null`.
fn id(v: u64) -> Option<u64> {
    (v != NO_ID).then_some(v)
}

json_block! {
    HEADER, fn write_header(w, recorded: u64) {
        "capacity": NonNeg => JOURNAL_CAPACITY,
        "recorded": NonNeg => recorded,
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
        assert_eq!(j.cursor(), JOURNAL_CAPACITY as u64 + 100);
        // The oldest surviving event is at least `overflow` deep.
        assert!(events.first().map_or(0, |e| e.seq) >= 100);
        // Strictly increasing seq.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    /// Eight writers record while a reader snapshots in a loop. Every
    /// snapshot is a gap-free run of `seq`, and each event in it carries
    /// the payload its writer recorded under that `seq`; once the writers
    /// stop, the snapshot is exactly the last `JOURNAL_CAPACITY` events.
    #[test]
    fn concurrent_snapshots_are_gap_free_and_whole() {
        const WRITERS: u64 = 8;
        const EACH: u64 = 1500;
        let j = Journal::new();
        let running = std::sync::atomic::AtomicU64::new(WRITERS);
        // What a writer records for its `i`-th event: the `seq` it was
        // given is looked up afterwards.
        let payload = |w: u64, i: u64| (w, i, w * EACH + i, !(w * EACH + i));
        let consistent = |e: &JournalEvent| payload(e.shard, e.node) == (e.shard, e.node, e.a, e.b);
        let (written, snapshots) = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (j, running) = (&j, &running);
                    scope.spawn(move || {
                        let seqs: Vec<(u64, u64)> = (0..EACH)
                            .map(|i| {
                                let (shard, node, a, b) = payload(w, i);
                                (j.record(EventKind::IntervalEscape, 1, shard, node, a, b), i)
                            })
                            .collect();
                        running.fetch_sub(1, std::sync::atomic::Ordering::Release);
                        (w, seqs)
                    })
                })
                .collect();
            // Each snapshot is checked for gaps and for events whose
            // fields disagree at once, and kept as `(seq, a)` pairs (`a`
            // names the writer and the event) for the check below.
            let mut snapshots: Vec<Vec<(u64, u64)>> = Vec::new();
            while running.load(std::sync::atomic::Ordering::Acquire) > 0 {
                let events = j.snapshot();
                assert!(events.len() <= JOURNAL_CAPACITY);
                assert!(events.windows(2).all(|p| p[1].seq == p[0].seq + 1), "a gap");
                assert!(events.iter().all(consistent), "an event whose fields disagree");
                if snapshots.len() < 512 {
                    snapshots.push(events.iter().map(|e| (e.seq, e.a)).collect());
                }
            }
            (writers.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>(), snapshots)
        });
        let mut by_seq = vec![u64::MAX; (WRITERS * EACH) as usize];
        for (w, seqs) in written {
            for (seq, i) in seqs {
                by_seq[seq as usize] = payload(w, i).2;
            }
        }
        for events in &snapshots {
            assert!(
                events.iter().all(|&(seq, a)| by_seq[seq as usize] == a),
                "an event that was not written under its seq"
            );
        }
        let last = j.snapshot();
        let seqs: Vec<u64> = last.iter().map(|e| e.seq).collect();
        let total = WRITERS * EACH;
        assert_eq!(seqs, (total - JOURNAL_CAPACITY as u64..total).collect::<Vec<_>>());
        assert!(last.iter().all(|e| by_seq[e.seq as usize] == e.a));
        assert!(last.windows(2).all(|p| p[0].ts_ns <= p[1].ts_ns), "stamped in seq order");
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
