//! Network-boundary exchange primitives: a columnar frame codec, a
//! simulated network with per-link pacing and credit-based backpressure,
//! and batched hash routing for repartitioning exchanges.
//!
//! The sharded service (crate `dqep-service`) moves [`RowBatch`]es
//! between shard replicas. Three concerns live here because they are
//! executor-level mechanics, not service policy:
//!
//! * **Frame codec** — [`encode_frame`] / [`decode_frame`] serialize a
//!   columnar batch into one length-stable, self-describing byte frame
//!   (single copy each way: column slices are appended to / read from the
//!   wire buffer directly, with no intermediate row materialization).
//!   Selection vectors travel with the batch, so a filtered batch
//!   round-trips bit-identically without being compacted first.
//! * **Simulated network** — [`SimNet`] hands out bounded point-to-point
//!   [`NetChannel`]s. Like `SimDisk`, the latency/bandwidth/jitter knobs
//!   sleep *outside* any lock so concurrent links overlap, every frame is
//!   byte-accounted, and a deterministic [`LinkFaultPlan`] can fail
//!   chosen transmissions. A failed transmission is retransmitted (and
//!   counted) up to a bound, so injected faults perturb timing and
//!   accounting but never results — the same contract storage faults
//!   have with choose-plan fallback.
//! * **Backpressure** — each channel holds at most `capacity` in-flight
//!   frames (its credits). A sender blocks when the receiver lags; the
//!   block time is returned so callers can feed a queue-wait histogram.
//! * **Routing** — [`shard_route`] computes each live row's destination
//!   shard by folding the key columns through the batched multiply-xor
//!   kernel ([`crate::fold_hash_column`]), bit-identical to the scalar
//!   join hash, so co-partitioning both join sides is guaranteed by
//!   construction.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::batch::{RowBatch, BATCH_CAPACITY};
use crate::error::ExecError;
use crate::hash_join::{fold_hash_column, mix, HASH_SEED};

/// Bytes of the frame header: width, row count, selection length, trace
/// id, parent span.
pub const FRAME_HEADER_BYTES: usize = 24;

/// Sentinel selection length meaning "dense batch, no selection vector".
const NO_SELECTION: u32 = u32::MAX;

/// Sentinel parent-span slot meaning "no span attached".
const NO_SPAN: u32 = u32::MAX;

/// Trace context carried in every frame header: which query timeline the
/// frame belongs to (`0` = untraced) and the sender-side network span it
/// is a child of, when the sender records spans. Receivers use it to link
/// their receive spans back to the remote sender.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameTrace {
    /// Trace id of the sending query; `0` means "no trace".
    pub trace_id: u64,
    /// The sender's network-send span, when one was recorded.
    pub span: Option<u64>,
}

/// The exact wire size of `batch` once encoded.
#[must_use]
pub fn frame_encoded_len(batch: &RowBatch) -> usize {
    FRAME_HEADER_BYTES
        + batch.width() * batch.rows() * 8
        + batch.selection().map_or(0, |s| s.len() * 4)
}

/// Serializes a columnar batch into one self-describing frame:
/// `[width:u32][rows:u32][sel_len:u32][trace_id:u64][parent_span:u32]`
/// followed by `[columns…][selection…]`, all little-endian. Columns are
/// written physical-row-complete (the selection vector, when present, is
/// carried verbatim), so decoding reproduces the batch exactly —
/// including which rows are live. No trace context is stamped; see
/// [`encode_frame_traced`].
///
/// Single copy: each column slice is appended to the wire buffer in one
/// pass; no row-wise gather happens.
#[must_use]
pub fn encode_frame(batch: &RowBatch) -> Vec<u8> {
    encode_frame_traced(batch, FrameTrace::default())
}

/// [`encode_frame`] with trace context stamped into the header, so the
/// receiving side can parent its receive span under the sender's network
/// span. Span ids above `u32::MAX - 1` degrade to "no span" on the wire.
#[must_use]
pub fn encode_frame_traced(batch: &RowBatch, trace: FrameTrace) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame_encoded_len(batch));
    let sel_len = batch.selection().map_or(NO_SELECTION, |sel| sel.len() as u32);
    write_header(&mut out, batch.width(), batch.rows(), sel_len, trace);
    for c in 0..batch.width() {
        for v in batch.column(c) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    if let Some(sel) = batch.selection() {
        for s in sel {
            out.extend_from_slice(&s.to_le_bytes());
        }
    }
    out
}

/// Encodes the live rows at positions `live` (indices into the batch's
/// live rows, i.e. into its selection vector when it has one) as one
/// **dense** frame: dead rows and the selection vector stay behind, so a
/// filtered batch costs exactly `header + live rows × width × 8` bytes on
/// the wire, and one large batch can be cut into several frames without
/// an intermediate copy. Decoding yields a selection-free batch.
///
/// # Panics
/// Panics when `live` reaches past [`RowBatch::len`].
#[must_use]
pub fn encode_frame_dense(
    batch: &RowBatch,
    live: std::ops::Range<usize>,
    trace: FrameTrace,
) -> Vec<u8> {
    let rows = live.len();
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + batch.width() * rows * 8);
    write_header(&mut out, batch.width(), rows, NO_SELECTION, trace);
    for c in 0..batch.width() {
        let col = batch.column(c);
        match batch.selection() {
            None => {
                for v in &col[live.clone()] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Some(sel) => {
                for &i in &sel[live.clone()] {
                    out.extend_from_slice(&col[i as usize].to_le_bytes());
                }
            }
        }
    }
    out
}

fn write_header(out: &mut Vec<u8>, width: usize, rows: usize, sel_len: u32, trace: FrameTrace) {
    out.extend_from_slice(&(width as u32).to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&sel_len.to_le_bytes());
    out.extend_from_slice(&trace.trace_id.to_le_bytes());
    let span = trace
        .span
        .and_then(|s| u32::try_from(s).ok())
        .filter(|&s| s != NO_SPAN)
        .unwrap_or(NO_SPAN);
    out.extend_from_slice(&span.to_le_bytes());
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Deserializes a frame produced by [`encode_frame`] back into a
/// [`RowBatch`], discarding the trace context. See
/// [`decode_frame_traced`].
///
/// # Errors
/// [`ExecError::Network`] when the frame is truncated, has trailing
/// bytes, or carries an out-of-range selection index.
pub fn decode_frame(bytes: &[u8]) -> Result<RowBatch, ExecError> {
    decode_frame_traced(bytes).map(|(batch, _)| batch)
}

/// Deserializes a frame back into a [`RowBatch`] plus the [`FrameTrace`]
/// stamped by the sender. Columns are filled straight from the wire
/// buffer (single copy); the selection vector, when present, is
/// validated against the physical row count.
///
/// # Errors
/// [`ExecError::Network`] when the frame is truncated, has trailing
/// bytes, or carries an out-of-range selection index.
pub fn decode_frame_traced(bytes: &[u8]) -> Result<(RowBatch, FrameTrace), ExecError> {
    let malformed = |what: &str| ExecError::Network(format!("malformed frame: {what}"));
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(malformed("truncated header"));
    }
    let width = read_u32(bytes, 0) as usize;
    let rows = read_u32(bytes, 4) as usize;
    let sel_len = read_u32(bytes, 8);
    let trace = FrameTrace {
        trace_id: read_u64(bytes, 12),
        span: match read_u32(bytes, 20) {
            NO_SPAN => None,
            s => Some(u64::from(s)),
        },
    };
    let col_bytes = width
        .checked_mul(rows)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(|| malformed("column extent overflow"))?;
    let sel_bytes = if sel_len == NO_SELECTION { 0 } else { sel_len as usize * 4 };
    if bytes.len() != FRAME_HEADER_BYTES + col_bytes + sel_bytes {
        return Err(malformed("length mismatch"));
    }
    let mut batch = RowBatch::with_capacity(width, rows);
    let mut at = FRAME_HEADER_BYTES;
    batch.extend_rows_with(rows, |cols| {
        for col in cols.iter_mut() {
            col.extend((0..rows).map(|i| {
                let mut b = [0u8; 8];
                b.copy_from_slice(&bytes[at + i * 8..at + i * 8 + 8]);
                i64::from_le_bytes(b)
            }));
            at += rows * 8;
        }
    });
    if sel_len != NO_SELECTION {
        let mut sel = Vec::with_capacity(sel_len as usize);
        for i in 0..sel_len as usize {
            let s = read_u32(bytes, at + i * 4);
            if s as usize >= rows {
                return Err(malformed("selection index out of range"));
            }
            sel.push(s);
        }
        batch.set_selection(sel);
    }
    Ok((batch, trace))
}

/// Pacing and determinism knobs of a simulated network — the network
/// sibling of `SimDisk`'s latency knob. All sleeps happen outside locks,
/// so concurrent links overlap in real time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetConfig {
    /// Fixed per-frame propagation latency, microseconds.
    pub latency_micros: u64,
    /// Link bandwidth in bytes per second; `0` means unpaced.
    pub bytes_per_second: u64,
    /// Deterministic per-frame jitter bound, microseconds: each
    /// transmission adds `hash(seed, link, ordinal) % (jitter + 1)`.
    pub jitter_micros: u64,
    /// Seed of the jitter hash.
    pub seed: u64,
}

impl NetConfig {
    /// The transmission delay of one `len`-byte frame on `link` for the
    /// `ordinal`-th send (deterministic in all arguments).
    #[must_use]
    pub fn frame_delay(&self, len: usize, link: u64, ordinal: u64) -> Duration {
        let mut micros = self.latency_micros;
        if let Some(tx) = (len as u64).saturating_mul(1_000_000).checked_div(self.bytes_per_second)
        {
            micros += tx;
        }
        if self.jitter_micros > 0 {
            let h = mix(self.seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ordinal);
            micros += h % (self.jitter_micros + 1);
        }
        Duration::from_micros(micros)
    }
}

/// Deterministic link-fault injection: the listed 1-based *fresh-frame*
/// ordinals of every channel fail their first transmission and are
/// retransmitted. Matching by per-channel ordinal keeps runs reproducible
/// however threads interleave — the same contract `FaultPlan` gives the
/// simulated disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFaultPlan {
    /// Per-channel fresh-frame ordinals (1-based) whose first
    /// transmission is dropped.
    pub fail_nth_frames: Vec<u64>,
    /// Retransmissions allowed per frame before the send fails for good.
    pub max_retransmits: u32,
}

impl Default for LinkFaultPlan {
    fn default() -> LinkFaultPlan {
        LinkFaultPlan::none()
    }
}

impl LinkFaultPlan {
    /// No injected faults; up to 4 retransmissions per frame.
    #[must_use]
    pub fn none() -> LinkFaultPlan {
        LinkFaultPlan { fail_nth_frames: Vec::new(), max_retransmits: 4 }
    }

    /// Parses a spec like `nth-frame=3,nth-frame=9,max-retransmit=2`.
    ///
    /// # Errors
    /// A description of the first unparseable clause.
    pub fn parse(spec: &str) -> Result<LinkFaultPlan, String> {
        let mut plan = LinkFaultPlan::none();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause `{clause}` is not KEY=VALUE"))?;
            match key.trim() {
                "nth-frame" => plan
                    .fail_nth_frames
                    .push(value.trim().parse().map_err(|e| format!("nth-frame: {e}"))?),
                "max-retransmit" => {
                    plan.max_retransmits =
                        value.trim().parse().map_err(|e| format!("max-retransmit: {e}"))?;
                }
                other => return Err(format!("unknown link-fault key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// How many transmissions of channel-ordinal `ordinal` are dropped.
    fn drops_for(&self, ordinal: u64) -> u32 {
        u32::try_from(self.fail_nth_frames.iter().filter(|&&n| n == ordinal).count())
            .unwrap_or(u32::MAX)
    }
}

/// Wire-traffic totals of a [`SimNet`], all monotone counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames delivered.
    pub frames: u64,
    /// Bytes put on the wire (retransmissions included).
    pub bytes: u64,
    /// Transmissions dropped by the fault plan and re-sent.
    pub retransmits: u64,
    /// Sends that blocked waiting for a credit.
    pub credit_stalls: u64,
    /// Total nanoseconds senders spent blocked on credits.
    pub credit_wait_ns: u64,
}

impl NetStats {
    /// The traffic accumulated since an `earlier` snapshot of the same
    /// network (field-wise saturating difference).
    #[must_use]
    pub fn since(&self, earlier: &NetStats) -> NetStats {
        NetStats {
            frames: self.frames.saturating_sub(earlier.frames),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            retransmits: self.retransmits.saturating_sub(earlier.retransmits),
            credit_stalls: self.credit_stalls.saturating_sub(earlier.credit_stalls),
            credit_wait_ns: self.credit_wait_ns.saturating_sub(earlier.credit_wait_ns),
        }
    }
}

#[derive(Debug, Default)]
struct NetCounters {
    frames: AtomicU64,
    bytes: AtomicU64,
    retransmits: AtomicU64,
    credit_stalls: AtomicU64,
    credit_wait_ns: AtomicU64,
}

impl NetCounters {
    fn snapshot(&self) -> NetStats {
        NetStats {
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            credit_stalls: self.credit_stalls.load(Ordering::Relaxed),
            credit_wait_ns: self.credit_wait_ns.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug)]
struct NetInner {
    config: NetConfig,
    faults: Mutex<LinkFaultPlan>,
    totals: NetCounters,
}

/// A simulated network: a factory of bounded point-to-point channels
/// sharing one pacing configuration, one fault plan, and one set of
/// byte/frame counters. Cloning is cheap (shared state).
#[derive(Debug, Clone)]
pub struct SimNet {
    inner: Arc<NetInner>,
}

impl SimNet {
    /// A network with the given pacing knobs and no injected faults.
    #[must_use]
    pub fn new(config: NetConfig) -> SimNet {
        SimNet {
            inner: Arc::new(NetInner {
                config,
                faults: Mutex::new(LinkFaultPlan::none()),
                totals: NetCounters::default(),
            }),
        }
    }

    /// Installs (replaces) the link fault plan.
    ///
    /// # Panics
    /// Panics if the fault-plan lock is poisoned.
    pub fn set_link_faults(&self, plan: LinkFaultPlan) {
        *self.inner.faults.lock().unwrap_or_else(PoisonError::into_inner) = plan;
    }

    /// Opens a bounded channel from node `from` to node `to` holding at
    /// most `capacity` in-flight frames (the sender's credits).
    ///
    /// # Panics
    /// Panics when `capacity` is zero (a zero-credit link can never
    /// deliver).
    #[must_use]
    pub fn channel(&self, from: usize, to: usize, capacity: usize) -> NetChannel {
        assert!(capacity > 0, "a channel needs at least one credit");
        NetChannel {
            net: self.clone(),
            link: (from as u64) << 32 | to as u64,
            capacity,
            ordinal: AtomicU64::new(0),
            state: Arc::new(ChanShared {
                state: Mutex::new(ChanState { queue: VecDeque::new(), closed: false }),
                space: Condvar::new(),
                data: Condvar::new(),
                counters: NetCounters::default(),
            }),
        }
    }

    /// A snapshot of the wire-traffic totals.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.inner.totals.snapshot()
    }
}

#[derive(Debug)]
struct ChanState {
    queue: VecDeque<Vec<u8>>,
    closed: bool,
}

#[derive(Debug)]
struct ChanShared {
    state: Mutex<ChanState>,
    space: Condvar,
    data: Condvar,
    // Per-link traffic counters, shared by all clones of the channel so
    // sender and receiver halves observe the same link totals.
    counters: NetCounters,
}

/// One bounded, paced, fault-injectable point-to-point frame channel.
/// The sender half and receiver half may live on different threads;
/// clone the channel to split it.
#[derive(Debug)]
pub struct NetChannel {
    net: SimNet,
    link: u64,
    capacity: usize,
    ordinal: AtomicU64,
    state: Arc<ChanShared>,
}

impl Clone for NetChannel {
    fn clone(&self) -> NetChannel {
        NetChannel {
            net: self.net.clone(),
            link: self.link,
            capacity: self.capacity,
            // The fresh-frame ordinal stays with the original sender
            // handle; receiver clones never send.
            ordinal: AtomicU64::new(0),
            state: Arc::clone(&self.state),
        }
    }
}

impl NetChannel {
    /// Transmits one frame: paces it (latency + bandwidth + jitter),
    /// retransmits around injected drops up to the fault plan's bound,
    /// then enqueues it, blocking while the receiver holds all credits.
    /// Returns how long the send was blocked on backpressure.
    ///
    /// # Errors
    /// [`ExecError::Network`] when the retransmission budget is exhausted
    /// or the receiver closed the channel.
    ///
    /// # Panics
    /// Panics if the channel lock is poisoned.
    pub fn send(&self, frame: Vec<u8>) -> Result<Duration, ExecError> {
        let ordinal = self.ordinal.fetch_add(1, Ordering::Relaxed) + 1;
        let (drops, budget) = {
            let faults = self.net.inner.faults.lock().unwrap_or_else(PoisonError::into_inner);
            (faults.drops_for(ordinal), faults.max_retransmits)
        };
        let config = self.net.inner.config;
        let totals = &self.net.inner.totals;
        let link = &self.state.counters;
        if drops > budget {
            // The dropped transmissions still hit the wire before the
            // sender gives up.
            let spent = u64::from(budget) + 1;
            totals.bytes.fetch_add(frame.len() as u64 * spent, Ordering::Relaxed);
            totals.retransmits.fetch_add(spent - 1, Ordering::Relaxed);
            link.bytes.fetch_add(frame.len() as u64 * spent, Ordering::Relaxed);
            link.retransmits.fetch_add(spent - 1, Ordering::Relaxed);
            crate::journal::journal().record(
                crate::journal::EventKind::LinkFault,
                0,
                u64::from(self.from_node()),
                u64::from(self.to_node()),
                u64::from(drops),
                crate::journal::NO_ID,
            );
            return Err(ExecError::Network(format!(
                "frame {ordinal} dropped {drops} time(s); retransmission budget {budget} exhausted"
            )));
        }
        for _ in 0..=drops {
            let delay = config.frame_delay(frame.len(), self.link, ordinal);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        totals.bytes.fetch_add(frame.len() as u64 * (u64::from(drops) + 1), Ordering::Relaxed);
        totals.retransmits.fetch_add(u64::from(drops), Ordering::Relaxed);
        link.bytes.fetch_add(frame.len() as u64 * (u64::from(drops) + 1), Ordering::Relaxed);
        link.retransmits.fetch_add(u64::from(drops), Ordering::Relaxed);
        if drops > 0 {
            crate::journal::journal().record(
                crate::journal::EventKind::LinkFault,
                0,
                u64::from(self.from_node()),
                u64::from(self.to_node()),
                u64::from(drops),
                ordinal,
            );
        }

        let mut state = self.state.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut waited = Duration::ZERO;
        if state.queue.len() >= self.capacity && !state.closed {
            // The stall counts when the wait begins, under the channel
            // lock: whoever sees it knows a sender is blocked until a
            // frame is taken off the queue.
            totals.credit_stalls.fetch_add(1, Ordering::Relaxed);
            link.credit_stalls.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            while state.queue.len() >= self.capacity && !state.closed {
                state = self.state.space.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            waited = start.elapsed();
            let waited_ns = u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
            totals.credit_wait_ns.fetch_add(waited_ns, Ordering::Relaxed);
            link.credit_wait_ns.fetch_add(waited_ns, Ordering::Relaxed);
        }
        if state.closed {
            return Err(ExecError::Network("receiver closed the channel".into()));
        }
        state.queue.push_back(frame);
        totals.frames.fetch_add(1, Ordering::Relaxed);
        link.frames.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.state.data.notify_one();
        Ok(waited)
    }

    /// A snapshot of this link's own traffic counters (shared by all
    /// clones of the channel).
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.state.counters.snapshot()
    }

    /// The sending node of this link.
    #[must_use]
    pub fn from_node(&self) -> u32 {
        (self.link >> 32) as u32
    }

    /// The receiving node of this link.
    #[must_use]
    pub fn to_node(&self) -> u32 {
        (self.link & 0xffff_ffff) as u32
    }

    /// Receives the next frame, blocking until one arrives; `None` once
    /// the channel is closed and drained.
    ///
    /// # Panics
    /// Panics if the channel lock is poisoned.
    #[must_use]
    pub fn recv(&self) -> Option<Vec<u8>> {
        let mut state = self.state.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(frame) = state.queue.pop_front() {
                drop(state);
                self.state.space.notify_one();
                return Some(frame);
            }
            if state.closed {
                return None;
            }
            state = self.state.data.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the channel: senders error, receivers drain then see `None`.
    ///
    /// # Panics
    /// Panics if the channel lock is poisoned.
    pub fn close(&self) {
        self.state.state.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.state.space.notify_all();
        self.state.data.notify_all();
    }
}

/// Credits (in-flight frames) for a channel whose sender expects
/// `estimated_rows` rows: enough frames to cover the estimate, clamped
/// to a small bounded window so a slow receiver throttles its senders.
/// `None` (unknown cardinality) gets the default window.
#[must_use]
pub fn credit_frames(estimated_rows: Option<u64>) -> usize {
    const MIN_CREDITS: usize = 2;
    const MAX_CREDITS: usize = 32;
    match estimated_rows {
        None => 8,
        Some(rows) => {
            (usize::try_from(rows.div_ceil(BATCH_CAPACITY as u64)).unwrap_or(MAX_CREDITS))
                .clamp(MIN_CREDITS, MAX_CREDITS)
        }
    }
}

/// A batch pre-sized for an expected row count: full [`BATCH_CAPACITY`]
/// when the estimate is unknown or large, tighter when the producer knows
/// it will emit less — the same pre-sizing [`crate::drain`] applies to
/// result buffers.
#[must_use]
pub fn presized_batch(width: usize, estimated_rows: Option<u64>) -> RowBatch {
    let cap = estimated_rows
        .map_or(BATCH_CAPACITY, |r| usize::try_from(r).unwrap_or(BATCH_CAPACITY))
        .clamp(1, BATCH_CAPACITY);
    RowBatch::with_capacity(width, cap)
}

/// Computes each **live** row's destination shard: the key columns are
/// folded through the batched multiply-xor kernel (seeded like the join
/// hash, so both join sides route identically), then reduced modulo
/// `shards` — for a power-of-two shard count as the mask `h & (shards -
/// 1)`, the same destination without a divide per row. Either way the
/// route reads the hash from bit 0 up, which is why the join's buckets
/// read it from the top ([`crate::hash_join`] module docs). `hashes` and
/// `dests` are scratch, cleared and refilled; on return `dests[i]` is the
/// shard of the `i`-th live row.
///
/// # Panics
/// Panics when `shards` is zero or a key column is out of range.
pub fn shard_route(
    batch: &RowBatch,
    key_cols: &[usize],
    shards: usize,
    hashes: &mut Vec<u64>,
    dests: &mut Vec<u32>,
) {
    assert!(shards > 0, "routing needs at least one shard");
    hashes.clear();
    match batch.selection() {
        None => {
            hashes.resize(batch.rows(), HASH_SEED);
            for &k in key_cols {
                fold_hash_column(hashes, batch.column(k));
            }
        }
        Some(sel) => {
            hashes.resize(sel.len(), HASH_SEED);
            let mut gathered: Vec<i64> = Vec::with_capacity(sel.len());
            for &k in key_cols {
                let col = batch.column(k);
                gathered.clear();
                gathered.extend(sel.iter().map(|&i| col[i as usize]));
                fold_hash_column(hashes, &gathered);
            }
        }
    }
    dests.clear();
    let shards = shards as u64;
    if shards.is_power_of_two() {
        dests.extend(hashes.iter().map(|&h| (h & (shards - 1)) as u32));
    } else {
        dests.extend(hashes.iter().map(|&h| (h % shards) as u32));
    }
}

/// Scatters the live rows of `batch` into one dense per-shard batch each,
/// routed by [`shard_route`] over `key_cols`. Output batches are appended
/// to, so callers can accumulate several input batches before flushing.
///
/// The live rows are grouped by destination once (a counting sort of
/// their physical indices, input order kept within each destination);
/// every output column then extends from its input column in one pass —
/// no row is ever assembled.
///
/// # Panics
/// Panics when `outs.len()` differs from the shard count implied by the
/// routing, or on width mismatch.
pub fn scatter_by_shard(
    batch: &RowBatch,
    key_cols: &[usize],
    outs: &mut [RowBatch],
    hashes: &mut Vec<u64>,
    dests: &mut Vec<u32>,
) {
    shard_route(batch, key_cols, outs.len(), hashes, dests);
    // `ends[t]` starts as destination t's first slot in `order` and, once
    // the indices are placed, is one past its last.
    let mut ends = vec![0usize; outs.len()];
    for &d in dests.iter() {
        ends[d as usize] += 1;
    }
    let mut at = 0;
    for end in &mut ends {
        at += std::mem::replace(end, at);
    }
    let mut order = vec![0u32; dests.len()];
    for (phys, &d) in batch.selected_indices().zip(dests.iter()) {
        let slot = &mut ends[d as usize];
        order[*slot] = phys as u32;
        *slot += 1;
    }
    let mut lo = 0;
    for (out, &hi) in outs.iter_mut().zip(&ends) {
        let picked = &order[lo..hi];
        lo = hi;
        if picked.is_empty() {
            continue;
        }
        assert_eq!(out.width(), batch.width(), "row width mismatch");
        out.extend_rows_with(picked.len(), |cols| {
            for (c, col) in cols.iter_mut().enumerate() {
                let src = batch.column(c);
                col.extend(picked.iter().map(|&i| src[i as usize]));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_join::hash_key;

    fn sample_batch(selection: bool) -> RowBatch {
        let mut b = RowBatch::with_capacity(3, 8);
        for i in 0..8i64 {
            b.push_row(&[i, i * 10 - 3, i64::from(i as i32).wrapping_mul(1 << 40)]);
        }
        if selection {
            b.set_selection(vec![0, 2, 3, 7]);
        }
        b
    }

    #[test]
    fn frame_roundtrip_is_byte_identical() {
        for selection in [false, true] {
            let batch = sample_batch(selection);
            let frame = encode_frame(&batch);
            assert_eq!(frame.len(), frame_encoded_len(&batch));
            let decoded = decode_frame(&frame).expect("valid frame");
            assert_eq!(decoded.width(), batch.width());
            assert_eq!(decoded.rows(), batch.rows());
            assert_eq!(decoded.selection(), batch.selection());
            for c in 0..batch.width() {
                assert_eq!(decoded.column(c), batch.column(c), "column {c}");
            }
            // Re-encoding the decoded batch reproduces the frame bytes.
            assert_eq!(encode_frame(&decoded), frame, "selection={selection}");
        }
    }

    #[test]
    fn trace_context_roundtrips() {
        let batch = sample_batch(true);
        for (trace_id, span) in [(0u64, None), (7, Some(3u64)), (u64::MAX, Some(0))] {
            let frame = encode_frame_traced(&batch, FrameTrace { trace_id, span });
            assert_eq!(frame.len(), frame_encoded_len(&batch));
            let (decoded, trace) = decode_frame_traced(&frame).expect("valid frame");
            assert_eq!(trace, FrameTrace { trace_id, span });
            assert_eq!(decoded.selection(), batch.selection());
        }
        // Untraced encoding carries the zero context.
        let (_, trace) = decode_frame_traced(&encode_frame(&batch)).expect("valid frame");
        assert_eq!(trace, FrameTrace::default());
        // Oversized span ids degrade to "no span" rather than aliasing.
        let frame =
            encode_frame_traced(&batch, FrameTrace { trace_id: 1, span: Some(u64::MAX) });
        let (_, trace) = decode_frame_traced(&frame).expect("valid frame");
        assert_eq!(trace.span, None);
    }

    #[test]
    fn per_link_stats_track_one_channel() {
        let net = SimNet::new(NetConfig::default());
        let a = net.channel(3, 1, 8);
        let b = net.channel(2, 1, 8);
        a.send(vec![1, 2]).expect("send");
        a.send(vec![3]).expect("send");
        b.send(vec![4]).expect("send");
        assert_eq!(a.from_node(), 3);
        assert_eq!(a.to_node(), 1);
        assert_eq!(a.stats().frames, 2);
        assert_eq!(a.stats().bytes, 3);
        assert_eq!(b.stats().frames, 1);
        assert_eq!(net.stats().frames, 3, "global totals still aggregate");
        // Receiver clones observe the same link counters.
        assert_eq!(a.clone().stats().frames, 2);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let batch = RowBatch::new(4);
        let decoded = decode_frame(&encode_frame(&batch)).expect("valid frame");
        assert_eq!(decoded.width(), 4);
        assert_eq!(decoded.rows(), 0);
        assert!(decoded.selection().is_none());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(decode_frame(&[1, 2, 3]).is_err(), "truncated header");
        let mut frame = encode_frame(&sample_batch(false));
        frame.push(0);
        assert!(decode_frame(&frame).is_err(), "trailing byte");
        // Out-of-range selection index.
        let mut b = sample_batch(false);
        b.set_selection(vec![7]);
        let mut frame = encode_frame(&b);
        let at = frame.len() - 4;
        frame[at..].copy_from_slice(&99u32.to_le_bytes());
        assert!(decode_frame(&frame).is_err(), "selection out of range");
    }

    #[test]
    fn channel_delivers_in_order_with_backpressure() {
        let net = SimNet::new(NetConfig::default());
        let tx = net.channel(0, 1, 2);
        let rx = tx.clone();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..20u8 {
                    tx.send(vec![i]).expect("send");
                }
                tx.close();
            });
            // Hold the receiver back until the sender is blocked: with 2
            // credits its third send finds the queue full, and the stall
            // is counted before it waits.
            while rx.stats().credit_stalls == 0 {
                std::thread::yield_now();
            }
            let got: Vec<u8> = std::iter::from_fn(|| rx.recv()).map(|f| f[0]).collect();
            assert_eq!(got, (0..20).collect::<Vec<u8>>());
        });
        let stats = net.stats();
        assert_eq!(stats.frames, 20);
        assert_eq!(stats.bytes, 20);
        assert!(stats.credit_stalls > 0, "{stats:?}");
    }

    #[test]
    fn link_faults_retransmit_then_exhaust() {
        let net = SimNet::new(NetConfig::default());
        net.set_link_faults(LinkFaultPlan {
            fail_nth_frames: vec![2],
            max_retransmits: 4,
        });
        let tx = net.channel(0, 1, 8);
        tx.send(vec![1]).expect("clean frame");
        tx.send(vec![2]).expect("retransmitted frame");
        assert_eq!(net.stats().retransmits, 1);
        assert_eq!(net.stats().frames, 2);
        assert_eq!(net.stats().bytes, 3, "dropped transmission is on the wire");

        // Same drop with a zero budget is terminal.
        let net = SimNet::new(NetConfig::default());
        net.set_link_faults(LinkFaultPlan {
            fail_nth_frames: vec![1],
            max_retransmits: 0,
        });
        let tx = net.channel(0, 1, 8);
        let err = tx.send(vec![9]).expect_err("budget exhausted");
        assert!(matches!(err, ExecError::Network(_)), "{err:?}");
        assert!(err.is_retryable(), "network faults are plan-local");
    }

    #[test]
    fn fault_plan_parses() {
        let plan = LinkFaultPlan::parse("nth-frame=3, nth-frame=9,max-retransmit=2").unwrap();
        assert_eq!(plan.fail_nth_frames, vec![3, 9]);
        assert_eq!(plan.max_retransmits, 2);
        assert!(LinkFaultPlan::parse("wat=1").is_err());
        assert!(LinkFaultPlan::parse("nth-frame").is_err());
    }

    #[test]
    fn pacing_is_deterministic() {
        let config = NetConfig {
            latency_micros: 100,
            bytes_per_second: 1_000_000,
            jitter_micros: 50,
            seed: 7,
        };
        let a = config.frame_delay(1000, 3, 5);
        assert_eq!(a, config.frame_delay(1000, 3, 5), "same inputs, same delay");
        // latency 100µs + 1000B at 1MB/s = 1000µs + jitter ∈ [0, 50].
        let micros = a.as_micros();
        assert!((1100..=1150).contains(&micros), "{micros}");
    }

    #[test]
    fn routing_matches_scalar_hash_and_co_partitions() {
        let batch = sample_batch(false);
        let (mut hashes, mut dests) = (Vec::new(), Vec::new());
        shard_route(&batch, &[1], 4, &mut hashes, &mut dests);
        assert_eq!(dests.len(), batch.rows());
        for i in 0..batch.rows() {
            // Bit-identical to the scalar join hash of the same key.
            let expect = hash_key(&[(1, 1)], &batch.row_vec(i), true);
            assert_eq!(hashes[i], expect, "row {i}");
            assert_eq!(dests[i], (expect % 4) as u32);
        }
    }

    #[test]
    fn routing_by_mask_is_routing_by_remainder() {
        // Random keys, negatives and the extremes included, dense and
        // under a selection vector: every shard count routes as
        // `hash % shards`, whether it takes the mask (1, 2, 4, 8) or the
        // divide (3, 5, 6).
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut batch = RowBatch::with_capacity(2, 2_003);
        for v in [0, -1, 1, i64::MIN, i64::MAX] {
            batch.push_row(&[v, v.wrapping_mul(-3)]);
        }
        for _ in 0..1_998 {
            state = mix(state.wrapping_add(HASH_SEED));
            batch.push_row(&[state as i64, ((state >> 7) as i64).wrapping_sub(1 << 50)]);
        }
        let mut filtered = batch.clone();
        filtered.set_selection((0..2_003u32).filter(|i| i % 7 != 2).collect());
        let (mut hashes, mut dests) = (Vec::new(), Vec::new());
        for shards in [1usize, 2, 3, 4, 5, 6, 8] {
            for (batch, key_cols) in [(&batch, &[0usize][..]), (&filtered, &[1, 0][..])] {
                shard_route(batch, key_cols, shards, &mut hashes, &mut dests);
                assert_eq!(dests.len(), batch.len());
                for (slot, phys) in batch.selected_indices().enumerate() {
                    let row = batch.row_vec(phys);
                    let keys: Vec<(usize, usize)> = key_cols.iter().map(|&k| (k, k)).collect();
                    let h = hash_key(&keys, &row, true);
                    assert_eq!(dests[slot], (h % shards as u64) as u32, "{shards} shards, row {phys}");
                }
            }
        }
    }

    /// The row-at-a-time scatter this module used to have: the reference
    /// the column-wise body must reproduce batch for batch.
    fn scatter_row_wise(batch: &RowBatch, key_cols: &[usize], outs: &mut [RowBatch]) {
        let (mut hashes, mut dests) = (Vec::new(), Vec::new());
        shard_route(batch, key_cols, outs.len(), &mut hashes, &mut dests);
        for (slot, phys) in batch.selected_indices().enumerate() {
            outs[dests[slot] as usize].push_row(&batch.row_vec(phys));
        }
    }

    #[test]
    fn scatter_matches_the_row_wise_reference() {
        let mut wide = RowBatch::with_capacity(3, 500);
        for i in 0..500i64 {
            wide.push_row(&[i * 31 % 97, i, -i]);
        }
        let mut filtered = wide.clone();
        filtered.set_selection((0..500u32).filter(|i| i % 3 != 1).collect());
        let mut none_live = wide.clone();
        none_live.set_selection(Vec::new());
        for shards in [1usize, 2, 3, 5] {
            let mut got: Vec<RowBatch> = (0..shards).map(|_| RowBatch::new(3)).collect();
            let mut want = got.clone();
            let (mut h, mut d) = (Vec::new(), Vec::new());
            // Outputs accumulate across calls, as in a repartition.
            for batch in [&sample_batch(false), &sample_batch(true), &wide, &filtered, &none_live] {
                scatter_by_shard(batch, &[0], &mut got, &mut h, &mut d);
                scatter_row_wise(batch, &[0], &mut want);
            }
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(g.selection().is_none(), "outputs are dense");
                assert_eq!(g.to_tuples(), w.to_tuples(), "{shards} shards, destination {t}");
            }
            let total: usize = got.iter().map(RowBatch::rows).sum();
            assert_eq!(total, 8 + 4 + 500 + 333, "only live rows are scattered");
        }
    }

    #[test]
    fn dense_frames_carry_live_rows_only() {
        for selection in [false, true] {
            let batch = sample_batch(selection);
            let live = batch.to_tuples();
            let trace = FrameTrace { trace_id: 9, span: Some(4) };
            let frame = encode_frame_dense(&batch, 0..live.len(), trace);
            assert_eq!(frame.len(), FRAME_HEADER_BYTES + live.len() * 3 * 8);
            let (decoded, got) = decode_frame_traced(&frame).expect("valid frame");
            assert_eq!(got, trace);
            assert!(decoded.selection().is_none());
            assert_eq!(decoded.to_tuples(), live, "selection={selection}");
            // A sub-range cuts the live rows, not the physical ones.
            let part = decode_frame(&encode_frame_dense(&batch, 1..3, trace)).expect("valid");
            assert_eq!(part.to_tuples(), live[1..3], "selection={selection}");
        }
    }

    #[test]
    fn credit_frames_clamp() {
        assert_eq!(credit_frames(None), 8);
        assert_eq!(credit_frames(Some(0)), 2);
        assert_eq!(credit_frames(Some(10_000)), 10);
        assert_eq!(credit_frames(Some(10_000_000)), 32);
    }

    #[test]
    fn presized_batch_clamps() {
        assert_eq!(presized_batch(2, None).width(), 2);
        let small = presized_batch(2, Some(10));
        assert_eq!(small.rows(), 0);
        let huge = presized_batch(2, Some(1 << 40));
        assert_eq!(huge.rows(), 0);
    }
}
