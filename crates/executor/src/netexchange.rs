//! Network-boundary exchange primitives: a columnar frame codec, a
//! simulated network of frame queues with deterministic link faults, and
//! batched hash routing for repartitioning exchanges.
//!
//! The sharded service (crate `dqep-service`) moves [`RowBatch`]es
//! between shard replicas. Three concerns live here because they are
//! executor-level mechanics, not service policy:
//!
//! * **Frame codec** — [`encode_frame_dense`] / [`decode_frame_traced`]
//!   serialize the live rows of a columnar batch into one self-describing
//!   byte frame and back (single copy each way: column values are appended
//!   to / read from the wire buffer directly, with no intermediate row
//!   materialization). Frames are dense — no selection vector travels — so
//!   a filtered batch costs only its live rows on the wire.
//! * **Simulated network** — [`SimNet`] hands out point-to-point
//!   [`NetChannel`]s under one [`NetConfig`]: its deterministic
//!   [`LinkFaultPlan`], which can fail chosen transmissions. A channel is
//!   a plain queue: a send enqueues, a receive takes the oldest frame or
//!   finds none, and neither waits, so one thread can take a query's
//!   sends and then its receives. Every frame is byte-accounted on the
//!   channel that carried it; the network keeps no totals of its own, so
//!   a query's traffic is the sum of its channels'. A failed transmission is retransmitted (and
//!   counted) up to a bound, so injected faults perturb accounting but
//!   never results — the same contract storage faults have with
//!   choose-plan fallback.
//! * **Routing** — [`shard_route`] computes each live row's destination
//!   shard by folding the key columns through the batched multiply-xor
//!   kernel ([`crate::fold_hash_column`]), bit-identical to the scalar
//!   join hash, so co-partitioning both join sides is guaranteed by
//!   construction.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::batch::{RowBatch, BATCH_CAPACITY};
use crate::error::ExecError;
use crate::hash_join::{fold_hash_column, HASH_SEED};

/// Bytes of the frame header: width, row count, selection length, trace
/// id, parent span.
pub const FRAME_HEADER_BYTES: usize = 24;

/// The selection-length slot of every frame: "dense batch, no selection
/// vector". A frame announcing any other length is malformed.
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

/// Serializes every live row of `batch` into one dense frame with no
/// trace context: [`encode_frame_dense`] over `0..batch.len()`.
#[must_use]
pub fn encode_frame(batch: &RowBatch) -> Vec<u8> {
    encode_frame_dense(batch, 0..batch.len(), FrameTrace::default())
}

/// Encodes the live rows at positions `live` (indices into the batch's
/// live rows, i.e. into its selection vector when it has one) as one
/// **dense** frame:
/// `[width:u32][rows:u32][sel_len:u32][trace_id:u64][parent_span:u32]`
/// followed by the columns, all little-endian, `sel_len` always "none".
/// Dead rows and the selection vector stay behind, so a filtered batch
/// costs exactly `header + live rows × width × 8` bytes on the wire, and
/// one large batch can be cut into several frames without an intermediate
/// copy. Decoding yields a selection-free batch. The trace context lets
/// the receiving side parent its receive span under the sender's network
/// span; span ids above `u32::MAX - 1` degrade to "no span" on the wire.
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
    write_header(&mut out, batch.width(), rows, trace);
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

fn write_header(out: &mut Vec<u8>, width: usize, rows: usize, trace: FrameTrace) {
    out.extend_from_slice(&(width as u32).to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&NO_SELECTION.to_le_bytes());
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

/// Deserializes a frame back into a [`RowBatch`], discarding the trace
/// context. See [`decode_frame_traced`].
///
/// # Errors
/// [`ExecError::Network`] when the frame is malformed.
pub fn decode_frame(bytes: &[u8]) -> Result<RowBatch, ExecError> {
    decode_frame_traced(bytes).map(|(batch, _)| batch)
}

/// Deserializes a dense frame back into a [`RowBatch`] plus the
/// [`FrameTrace`] stamped by the sender. Columns are filled straight from
/// the wire buffer (single copy).
///
/// A frame names at most one column per byte it carries, so what it makes
/// the decoder allocate is bounded by its length, whatever its header
/// says (only a zero-row frame, which no sender emits, can break the rule).
///
/// # Errors
/// [`ExecError::Network`] when the frame is truncated, has trailing
/// bytes, names more columns than it has bytes, or announces a selection
/// vector.
pub fn decode_frame_traced(bytes: &[u8]) -> Result<(RowBatch, FrameTrace), ExecError> {
    let malformed = |what: &str| ExecError::Network(format!("malformed frame: {what}"));
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(malformed("truncated header"));
    }
    let width = read_u32(bytes, 0) as usize;
    let rows = read_u32(bytes, 4) as usize;
    if width > bytes.len() {
        return Err(malformed("more columns than bytes"));
    }
    if read_u32(bytes, 8) != NO_SELECTION {
        return Err(malformed("selection vector announced"));
    }
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
    if bytes.len() != FRAME_HEADER_BYTES + col_bytes {
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
    Ok((batch, trace))
}

/// The trace id in a frame's header, or 0 when the frame is shorter than
/// a header.
fn frame_trace_id(frame: &[u8]) -> u64 {
    if frame.len() < FRAME_HEADER_BYTES {
        0
    } else {
        read_u64(frame, 12)
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

/// The one configuration of a simulated network: the link faults every
/// channel it opens is subject to. Fixed when the network is built, so a
/// send takes no lock but its own channel's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetConfig {
    /// Deterministic link faults, applied per channel by fresh-frame
    /// ordinal.
    pub link_faults: LinkFaultPlan,
}

/// Wire-traffic totals of one [`NetChannel`], all monotone counters.
/// Totals over several channels are their sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames delivered.
    pub frames: u64,
    /// Bytes put on the wire (retransmissions included).
    pub bytes: u64,
    /// Transmissions dropped by the fault plan and re-sent.
    pub retransmits: u64,
}

impl std::ops::AddAssign for NetStats {
    fn add_assign(&mut self, other: NetStats) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.retransmits += other.retransmits;
    }
}

impl std::iter::Sum for NetStats {
    fn sum<I: Iterator<Item = NetStats>>(iter: I) -> NetStats {
        iter.fold(NetStats::default(), |mut total, stats| {
            total += stats;
            total
        })
    }
}

/// A simulated network: a factory of point-to-point channels
/// sharing one [`NetConfig`]. It keeps no traffic counters of its own:
/// each channel counts what it carries. Cloning is cheap (shared state).
#[derive(Debug, Clone)]
pub struct SimNet {
    config: Arc<NetConfig>,
}

impl SimNet {
    /// A network whose channels all see `config`'s link faults.
    #[must_use]
    pub fn new(config: NetConfig) -> SimNet {
        SimNet { config: Arc::new(config) }
    }

    /// Opens a channel from node `from` to node `to`. It holds any number
    /// of frames; `capacity` only pre-sizes its queue (0: grow on demand).
    #[must_use]
    pub fn channel(&self, from: usize, to: usize, capacity: usize) -> NetChannel {
        NetChannel {
            net: self.clone(),
            from: from as u32,
            to: to as u32,
            state: Mutex::new(ChanState {
                queue: VecDeque::with_capacity(capacity),
                ordinal: 0,
                stats: NetStats::default(),
            }),
        }
    }
}

#[derive(Debug)]
struct ChanState {
    queue: VecDeque<Vec<u8>>,
    /// Fresh frames offered so far: the ordinal the fault plan matches.
    ordinal: u64,
    stats: NetStats,
}

/// One fault-injectable point-to-point frame queue. A send enqueues and a
/// receive takes the oldest frame; neither ever waits.
#[derive(Debug)]
pub struct NetChannel {
    net: SimNet,
    from: u32,
    to: u32,
    state: Mutex<ChanState>,
}

impl NetChannel {
    /// Transmits one frame: retransmits around injected drops up to the
    /// fault plan's bound, then enqueues it. A link fault is journaled
    /// under the trace id the frame's own header carries (0 for a frame
    /// shorter than a header).
    ///
    /// # Errors
    /// [`ExecError::Network`] when the retransmission budget is exhausted.
    pub fn send(&self, frame: Vec<u8>) -> Result<(), ExecError> {
        let mut state = self.state.lock();
        state.ordinal += 1;
        let ordinal = state.ordinal;
        let faults = &self.net.config.link_faults;
        let (drops, budget) = (faults.drops_for(ordinal), faults.max_retransmits);
        // Every transmission hits the wire, the dropped ones included,
        // also when the sender then gives up.
        let (retransmits, lost) = (drops.min(budget), drops > budget);
        state.stats.bytes += frame.len() as u64 * (u64::from(retransmits) + 1);
        state.stats.retransmits += u64::from(retransmits);
        if drops > 0 {
            crate::journal::journal().record(
                crate::journal::EventKind::LinkFault,
                frame_trace_id(&frame),
                u64::from(self.from),
                u64::from(self.to),
                u64::from(drops),
                if lost { crate::journal::NO_ID } else { ordinal },
            );
        }
        if lost {
            return Err(ExecError::Network(format!(
                "frame {ordinal} dropped {drops} time(s); retransmission budget {budget} exhausted"
            )));
        }
        state.queue.push_back(frame);
        state.stats.frames += 1;
        Ok(())
    }

    /// This link's own traffic counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.state.lock().stats
    }

    /// The sending node of this link.
    #[must_use]
    pub fn from_node(&self) -> u32 {
        self.from
    }

    /// The receiving node of this link.
    #[must_use]
    pub fn to_node(&self) -> u32 {
        self.to
    }

    /// Takes the oldest frame, or `None` at once when the link holds none.
    #[must_use]
    pub fn recv(&self) -> Option<Vec<u8>> {
        self.state.lock().queue.pop_front()
    }

    /// Does nothing: a link has no open or closed state, and a receive
    /// never waits for a frame. Kept because the benchmark's replay still
    /// calls it (ROADMAP item 4(c)).
    pub fn close(&self) {}
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
/// read it from the top (the `hash_join` module's docs). `hashes` and
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
    use crate::hash_join::{hash_key, mix};

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
            assert_eq!(frame.len(), FRAME_HEADER_BYTES + batch.width() * batch.len() * 8);
            let decoded = decode_frame(&frame).expect("valid frame");
            assert_eq!(decoded.width(), batch.width());
            assert!(decoded.selection().is_none(), "frames are dense");
            assert_eq!(decoded.to_tuples(), batch.to_tuples(), "selection={selection}");
            // Re-encoding the decoded batch reproduces the frame bytes.
            assert_eq!(encode_frame(&decoded), frame, "selection={selection}");
        }
        // A dense batch's frame: the header, then each column in turn.
        let batch = sample_batch(false);
        let mut expected = Vec::new();
        for word in [3u32, 8, u32::MAX] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        expected.extend_from_slice(&0u64.to_le_bytes());
        expected.extend_from_slice(&u32::MAX.to_le_bytes());
        for c in 0..batch.width() {
            batch.column(c).iter().for_each(|v| expected.extend_from_slice(&v.to_le_bytes()));
        }
        assert_eq!(encode_frame(&batch), expected);
    }

    #[test]
    fn trace_context_roundtrips() {
        let batch = sample_batch(true);
        let live = 0..batch.len();
        for (trace_id, span) in [(0u64, None), (7, Some(3u64)), (u64::MAX, Some(0))] {
            let frame = encode_frame_dense(&batch, live.clone(), FrameTrace { trace_id, span });
            let (decoded, trace) = decode_frame_traced(&frame).expect("valid frame");
            assert_eq!(trace, FrameTrace { trace_id, span });
            assert_eq!(decoded.to_tuples(), batch.to_tuples());
        }
        // Untraced encoding carries the zero context.
        let (_, trace) = decode_frame_traced(&encode_frame(&batch)).expect("valid frame");
        assert_eq!(trace, FrameTrace::default());
        // Oversized span ids degrade to "no span" rather than aliasing.
        let frame = encode_frame_dense(&batch, live, FrameTrace { trace_id: 1, span: Some(u64::MAX) });
        let (_, trace) = decode_frame_traced(&frame).expect("valid frame");
        assert_eq!(trace.span, None);
    }

    #[test]
    fn per_link_stats_track_one_channel() {
        let net = SimNet::new(NetConfig::default());
        let a = net.channel(3, 1, 0);
        let b = net.channel(2, 1, 0);
        a.send(vec![1, 2]).expect("send");
        a.send(vec![3]).expect("send");
        b.send(vec![4]).expect("send");
        assert_eq!(a.from_node(), 3);
        assert_eq!(a.to_node(), 1);
        assert_eq!(a.stats().frames, 2);
        assert_eq!(a.stats().bytes, 3);
        assert_eq!(b.stats().frames, 1);
        let total: NetStats = [a.stats(), b.stats()].into_iter().sum();
        assert_eq!((total.frames, total.bytes), (3, 4), "totals are the links' sum");
    }

    #[test]
    fn empty_batch_roundtrips() {
        let batch = RowBatch::new(4);
        let decoded = decode_frame(&encode_frame(&batch)).expect("valid frame");
        assert_eq!(decoded.width(), 4);
        assert_eq!(decoded.rows(), 0);
        assert!(decoded.selection().is_none());
    }

    /// A zero-row header naming `u32::MAX` columns passes the length
    /// check; it is refused before a column is allocated.
    #[test]
    fn a_zero_row_frame_cannot_name_more_columns_than_bytes() {
        let mut frame = encode_frame(&RowBatch::new(4));
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&frame).unwrap_err();
        assert!(err.to_string().contains("more columns than bytes"), "{err}");
        frame[0..4].copy_from_slice(&(FRAME_HEADER_BYTES as u32).to_le_bytes());
        assert_eq!(decode_frame(&frame).unwrap().width(), FRAME_HEADER_BYTES);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(decode_frame(&[1, 2, 3]).is_err(), "truncated header");
        let mut frame = encode_frame(&sample_batch(false));
        frame.push(0);
        assert!(decode_frame(&frame).is_err(), "trailing byte");
        // A header announcing a selection vector, with or without its
        // entries behind the columns.
        let mut frame = encode_frame(&sample_batch(false));
        frame[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(decode_frame(&frame).is_err(), "selection announced, none carried");
        frame.extend_from_slice(&7u32.to_le_bytes());
        let err = decode_frame(&frame).unwrap_err();
        assert!(
            matches!(&err, ExecError::Network(m) if m.contains("selection vector")),
            "{err:?}"
        );
    }

    /// A link is a queue and neither half waits, on one thread: a receive
    /// on an empty link returns `None` at once, 100 sends to a 1-capacity
    /// link that nobody reads are all accepted, and the frames come out
    /// in the order they went in.
    #[test]
    fn a_link_is_a_queue_neither_half_waits() {
        let link = SimNet::new(NetConfig::default()).channel(0, 1, 1);
        assert!(link.recv().is_none(), "nothing sent yet");
        for i in 0..100u8 {
            link.send(vec![i]).expect("every send is accepted");
        }
        assert_eq!((link.stats().frames, link.stats().bytes), (100, 100));
        let got: Vec<u8> = std::iter::from_fn(|| link.recv()).map(|f| f[0]).collect();
        assert_eq!(got, (0..100).collect::<Vec<u8>>(), "in order, none lost");
        assert!(link.recv().is_none(), "drained");
    }

    #[test]
    fn link_faults_retransmit_then_exhaust() {
        let net = SimNet::new(NetConfig {
            link_faults: LinkFaultPlan { fail_nth_frames: vec![2], max_retransmits: 4 },
        });
        let tx = net.channel(0, 1, 0);
        tx.send(vec![1]).expect("clean frame");
        tx.send(vec![2]).expect("retransmitted frame");
        assert_eq!(tx.stats().retransmits, 1);
        assert_eq!(tx.stats().frames, 2);
        assert_eq!(tx.stats().bytes, 3, "dropped transmission is on the wire");

        // Same drop with a zero budget is terminal.
        let net = SimNet::new(NetConfig {
            link_faults: LinkFaultPlan { fail_nth_frames: vec![1], max_retransmits: 0 },
        });
        let tx = net.channel(0, 1, 0);
        let err = tx.send(vec![9]).expect_err("budget exhausted");
        assert!(matches!(err, ExecError::Network(_)), "{err:?}");
        assert!(err.is_retryable(), "network faults are plan-local");
        let stats = tx.stats();
        assert_eq!((stats.frames, stats.bytes), (0, 1), "the lost frame was on the wire");
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
    fn presized_batch_clamps() {
        assert_eq!(presized_batch(2, None).width(), 2);
        let small = presized_batch(2, Some(10));
        assert_eq!(small.rows(), 0);
        let huge = presized_batch(2, Some(1 << 40));
        assert_eq!(huge.rows(), 0);
    }
}
