//! Access modules: the stored representation of query evaluation plans.
//!
//! Production systems with compile-time optimization store plans in
//! *access modules* read at start-up-time (System R's terminology, which
//! the paper adopts). A dynamic plan's module is larger than a static
//! plan's — the paper models activation I/O as
//! `nodes × 128 bytes / 2 MB/s` plus a fixed 0.1 s for catalog validation
//! and the initial seek — and this crate makes that concrete: a module is
//! the [`Plan`] table itself, written node by node in table order with
//! children as node ids, and it reports both its actual byte size and the
//! paper's modeled size. Decoding pushes the nodes back in the same order,
//! validating each one, so the table that comes out is the table that
//! went in.

use std::fmt;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dqep_algebra::{CompareOp, HostVar, JoinPred, PhysicalOp, Scalar, SelectPred};
use dqep_catalog::{AttrId, IndexId, RelationId, SystemConfig};
use dqep_cost::{Cost, PlanStats};
use dqep_interval::Interval;

use crate::plan::{NodeId, Plan};

/// Errors produced when decoding an access module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleError {
    /// The byte stream ended prematurely.
    Truncated,
    /// An unknown operator or scalar tag was encountered.
    BadTag(u8),
    /// A child reference pointed at a node not yet decoded.
    BadChildRef(u32),
    /// The module contained no nodes.
    Empty,
    /// A decoded numeric field was invalid (NaN bounds, inverted interval,
    /// a row width that is not a finite non-negative number).
    BadNumber,
    /// A node had a number of children its operator does not take (a
    /// choose-plan takes at least two).
    BadArity {
        /// Position of the node.
        node: u32,
        /// The child count it was stored with.
        children: usize,
    },
    /// A node is not reachable from the root (the last node).
    Unreachable(u32),
    /// Bytes were left over after the last node.
    TrailingBytes(usize),
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::Truncated => f.write_str("truncated access module"),
            ModuleError::BadTag(t) => write!(f, "unknown tag {t}"),
            ModuleError::BadChildRef(i) => write!(f, "forward child reference {i}"),
            ModuleError::Empty => f.write_str("empty access module"),
            ModuleError::BadNumber => f.write_str("invalid numeric field"),
            ModuleError::BadArity { node, children } => {
                write!(f, "node {node} stored with {children} children")
            }
            ModuleError::Unreachable(i) => write!(f, "node {i} is not reachable from the root"),
            ModuleError::TrailingBytes(n) => write!(f, "{n} bytes after the last node"),
        }
    }
}

impl std::error::Error for ModuleError {}

/// Size and activation-time statistics of an access module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleStats {
    /// Distinct operator nodes in the DAG (the paper's Figure 6 metric).
    pub nodes: usize,
    /// Actual serialized size in bytes.
    pub serialized_bytes: usize,
    /// Modeled size: `nodes × plan_node_bytes`.
    pub modeled_bytes: usize,
    /// Modeled I/O seconds to read the module (`modeled_bytes /
    /// module_read_bandwidth`).
    pub read_seconds: f64,
    /// Total modeled activation time: catalog validation + seek
    /// (`activation_base`) plus the module read.
    pub activation_seconds: f64,
}

/// A stored plan: the [`Plan`] table plus its byte format.
#[derive(Debug, Clone)]
pub struct AccessModule {
    plan: Arc<Plan>,
}

impl AccessModule {
    /// Wraps a plan in an access module.
    #[must_use]
    pub fn new(plan: Arc<Plan>) -> AccessModule {
        AccessModule { plan }
    }

    /// The plan.
    #[must_use]
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Size and activation statistics under `config`.
    #[must_use]
    pub fn stats(&self, config: &SystemConfig) -> ModuleStats {
        let nodes = self.plan.len();
        let serialized_bytes = self.serialize().len();
        let modeled_bytes = nodes * config.plan_node_bytes as usize;
        let read_seconds = config.module_read_time(nodes);
        ModuleStats {
            nodes,
            serialized_bytes,
            modeled_bytes,
            read_seconds,
            activation_seconds: config.activation_base + read_seconds,
        }
    }

    /// Serializes the table: nodes in table order, children as node ids —
    /// positions in the already-emitted prefix, so decoding is a single
    /// forward pass. Total cost and delivered order are derived, not
    /// stored.
    #[must_use]
    pub fn serialize(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.plan.len() * 96);
        buf.put_u32(self.plan.len() as u32);
        for (id, node) in self.plan.iter() {
            encode_op(&mut buf, &node.op, self.plan.join_preds(id));
            buf.put_f64(node.stats.card.lo());
            buf.put_f64(node.stats.card.hi());
            buf.put_f64(node.stats.row_bytes);
            encode_cost(&mut buf, node.self_cost);
            let children = self.plan.children(id);
            buf.put_u16(children.len() as u16);
            for c in children {
                buf.put_u32(c.0);
            }
        }
        buf.freeze()
    }

    /// Decodes a module previously produced by [`AccessModule::serialize`],
    /// adopting nothing it has not checked: every node has the child count
    /// its operator takes (a choose-plan at least two), children precede
    /// their parents, numbers are numbers, every node hangs off the root
    /// and the input ends with the last node. What decodes satisfies
    /// [`Plan::check_invariants`] and equals the plan that was encoded,
    /// ids included.
    pub fn deserialize(mut bytes: Bytes) -> Result<AccessModule, ModuleError> {
        let buf = &mut bytes;
        let count = get_u32(buf)? as usize;
        if count == 0 {
            return Err(ModuleError::Empty);
        }
        // Never trust the length prefix for preallocation: a corrupt or
        // hostile module could otherwise request a multi-gigabyte Vec
        // before the per-node decoding ever detects truncation.
        let mut plan = Plan::with_capacity(count.min(1024));
        let mut children: Vec<NodeId> = Vec::new();
        let mut preds: Vec<JoinPred> = Vec::new();
        for node in 0..count as u32 {
            let op = decode_op(buf, &mut preds)?;
            let card = decode_interval(buf)?;
            let row_bytes = get_f64(buf)?;
            if !(row_bytes.is_finite() && row_bytes >= 0.0) {
                return Err(ModuleError::BadNumber);
            }
            let self_cost = decode_cost(buf)?;
            let n_children = get_u16(buf)? as usize;
            if op.arity().map_or(n_children < 2, |arity| n_children != arity) {
                return Err(ModuleError::BadArity { node, children: n_children });
            }
            children.clear();
            for _ in 0..n_children {
                let ordinal = get_u32(buf)?;
                if ordinal >= node {
                    return Err(ModuleError::BadChildRef(ordinal));
                }
                children.push(NodeId(ordinal));
            }
            plan.push(op, &children, &preds, PlanStats::new(card, row_bytes), self_cost);
        }
        if buf.remaining() > 0 {
            return Err(ModuleError::TrailingBytes(buf.remaining()));
        }
        match plan.unreachable_node() {
            Some(id) => Err(ModuleError::Unreachable(id.0)),
            None => Ok(AccessModule { plan: Arc::new(plan) }),
        }
    }
}

// ---- encoding helpers -------------------------------------------------

const TAG_FILE_SCAN: u8 = 0;
const TAG_BTREE_SCAN: u8 = 1;
const TAG_FILTER: u8 = 2;
const TAG_FILTER_BTREE_SCAN: u8 = 3;
const TAG_HASH_JOIN: u8 = 4;
const TAG_MERGE_JOIN: u8 = 5;
const TAG_INDEX_JOIN: u8 = 6;
const TAG_SORT: u8 = 7;
const TAG_CHOOSE_PLAN: u8 = 8;

/// Writes an operator with its join predicates where the operator's own
/// fields always had them.
fn encode_op(buf: &mut BytesMut, op: &PhysicalOp, preds: &[JoinPred]) {
    match op {
        PhysicalOp::FileScan { relation } => {
            buf.put_u8(TAG_FILE_SCAN);
            buf.put_u32(relation.0);
        }
        PhysicalOp::BtreeScan {
            relation,
            index,
            key_attr,
        } => {
            buf.put_u8(TAG_BTREE_SCAN);
            buf.put_u32(relation.0);
            buf.put_u32(index.0);
            encode_attr(buf, *key_attr);
        }
        PhysicalOp::Filter { predicate } => {
            buf.put_u8(TAG_FILTER);
            encode_pred(buf, predicate);
        }
        PhysicalOp::FilterBtreeScan {
            relation,
            index,
            predicate,
        } => {
            buf.put_u8(TAG_FILTER_BTREE_SCAN);
            buf.put_u32(relation.0);
            buf.put_u32(index.0);
            encode_pred(buf, predicate);
        }
        PhysicalOp::HashJoin => {
            buf.put_u8(TAG_HASH_JOIN);
            encode_join_preds(buf, preds);
        }
        PhysicalOp::MergeJoin => {
            buf.put_u8(TAG_MERGE_JOIN);
            encode_join_preds(buf, preds);
        }
        PhysicalOp::IndexJoin {
            inner,
            index,
            residual,
        } => {
            buf.put_u8(TAG_INDEX_JOIN);
            encode_join_preds(buf, preds);
            buf.put_u32(inner.0);
            buf.put_u32(index.0);
            match residual {
                Some(p) => {
                    buf.put_u8(1);
                    encode_pred(buf, p);
                }
                None => buf.put_u8(0),
            }
        }
        PhysicalOp::Sort { attr } => {
            buf.put_u8(TAG_SORT);
            encode_attr(buf, *attr);
        }
        PhysicalOp::ChoosePlan => buf.put_u8(TAG_CHOOSE_PLAN),
    }
}

/// Reads an operator, its join predicates into `preds` (cleared first).
fn decode_op(buf: &mut Bytes, preds: &mut Vec<JoinPred>) -> Result<PhysicalOp, ModuleError> {
    preds.clear();
    let tag = get_u8(buf)?;
    Ok(match tag {
        TAG_FILE_SCAN => PhysicalOp::FileScan {
            relation: RelationId(get_u32(buf)?),
        },
        TAG_BTREE_SCAN => PhysicalOp::BtreeScan {
            relation: RelationId(get_u32(buf)?),
            index: IndexId(get_u32(buf)?),
            key_attr: decode_attr(buf)?,
        },
        TAG_FILTER => PhysicalOp::Filter {
            predicate: decode_pred(buf)?,
        },
        TAG_FILTER_BTREE_SCAN => PhysicalOp::FilterBtreeScan {
            relation: RelationId(get_u32(buf)?),
            index: IndexId(get_u32(buf)?),
            predicate: decode_pred(buf)?,
        },
        TAG_HASH_JOIN => {
            decode_join_preds(buf, preds)?;
            PhysicalOp::HashJoin
        }
        TAG_MERGE_JOIN => {
            decode_join_preds(buf, preds)?;
            PhysicalOp::MergeJoin
        }
        TAG_INDEX_JOIN => {
            decode_join_preds(buf, preds)?;
            let inner = RelationId(get_u32(buf)?);
            let index = IndexId(get_u32(buf)?);
            let residual = match get_u8(buf)? {
                0 => None,
                1 => Some(decode_pred(buf)?),
                t => return Err(ModuleError::BadTag(t)),
            };
            PhysicalOp::IndexJoin {
                inner,
                index,
                residual,
            }
        }
        TAG_SORT => PhysicalOp::Sort {
            attr: decode_attr(buf)?,
        },
        TAG_CHOOSE_PLAN => PhysicalOp::ChoosePlan,
        t => return Err(ModuleError::BadTag(t)),
    })
}

fn encode_attr(buf: &mut BytesMut, attr: AttrId) {
    buf.put_u32(attr.relation.0);
    buf.put_u32(attr.index);
}

fn decode_attr(buf: &mut Bytes) -> Result<AttrId, ModuleError> {
    Ok(AttrId {
        relation: RelationId(get_u32(buf)?),
        index: get_u32(buf)?,
    })
}

fn encode_pred(buf: &mut BytesMut, p: &SelectPred) {
    encode_attr(buf, p.attr);
    buf.put_u8(match p.op {
        CompareOp::Lt => 0,
        CompareOp::Le => 1,
        CompareOp::Eq => 2,
        CompareOp::Ge => 3,
        CompareOp::Gt => 4,
    });
    match p.rhs {
        Scalar::Const(v) => {
            buf.put_u8(0);
            buf.put_i64(v);
        }
        Scalar::Host(h) => {
            buf.put_u8(1);
            buf.put_u32(h.0);
        }
    }
}

fn decode_pred(buf: &mut Bytes) -> Result<SelectPred, ModuleError> {
    let attr = decode_attr(buf)?;
    let op = match get_u8(buf)? {
        0 => CompareOp::Lt,
        1 => CompareOp::Le,
        2 => CompareOp::Eq,
        3 => CompareOp::Ge,
        4 => CompareOp::Gt,
        t => return Err(ModuleError::BadTag(t)),
    };
    let rhs = match get_u8(buf)? {
        0 => Scalar::Const(get_i64(buf)?),
        1 => Scalar::Host(HostVar(get_u32(buf)?)),
        t => return Err(ModuleError::BadTag(t)),
    };
    Ok(SelectPred { attr, op, rhs })
}

fn encode_join_preds(buf: &mut BytesMut, ps: &[JoinPred]) {
    buf.put_u16(ps.len() as u16);
    for p in ps {
        encode_attr(buf, p.left);
        encode_attr(buf, p.right);
    }
}

fn decode_join_preds(buf: &mut Bytes, out: &mut Vec<JoinPred>) -> Result<(), ModuleError> {
    let n = get_u16(buf)? as usize;
    for _ in 0..n {
        let left = decode_attr(buf)?;
        let right = decode_attr(buf)?;
        out.push(JoinPred { left, right });
    }
    Ok(())
}

fn encode_cost(buf: &mut BytesMut, c: Cost) {
    buf.put_f64(c.cpu.lo());
    buf.put_f64(c.cpu.hi());
    buf.put_f64(c.io.lo());
    buf.put_f64(c.io.hi());
}

fn decode_cost(buf: &mut Bytes) -> Result<Cost, ModuleError> {
    let cpu = decode_interval(buf)?;
    let io = decode_interval(buf)?;
    Ok(Cost::new(cpu, io))
}

fn decode_interval(buf: &mut Bytes) -> Result<Interval, ModuleError> {
    let lo = get_f64(buf)?;
    let hi = get_f64(buf)?;
    Interval::try_new(lo, hi).map_err(|_| ModuleError::BadNumber)
}

/// Reads one `size`-byte field with `read`, or reports truncation.
fn get<T>(buf: &mut Bytes, size: usize, read: fn(&mut Bytes) -> T) -> Result<T, ModuleError> {
    (buf.remaining() >= size)
        .then(|| read(buf))
        .ok_or(ModuleError::Truncated)
}

fn get_u8(buf: &mut Bytes) -> Result<u8, ModuleError> {
    get(buf, 1, Bytes::get_u8)
}

fn get_u16(buf: &mut Bytes) -> Result<u16, ModuleError> {
    get(buf, 2, Bytes::get_u16)
}

fn get_u32(buf: &mut Bytes) -> Result<u32, ModuleError> {
    get(buf, 4, Bytes::get_u32)
}

fn get_i64(buf: &mut Bytes) -> Result<i64, ModuleError> {
    get(buf, 8, Bytes::get_i64)
}

fn get_f64(buf: &mut Bytes) -> Result<f64, ModuleError> {
    get(buf, 8, Bytes::get_f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag;

    fn sample_plan() -> Arc<Plan> {
        let mut p = Plan::new();
        let pred = SelectPred::unbound(
            AttrId {
                relation: RelationId(0),
                index: 0,
            },
            CompareOp::Lt,
            HostVar(0),
        );
        let scan = p.push(
            PhysicalOp::FileScan {
                relation: RelationId(0),
            },
            &[],
            &[],
            PlanStats::new(Interval::point(1000.0), 512.0),
            Cost::point(0.1, 0.25),
        );
        let filter = p.push(
            PhysicalOp::Filter { predicate: pred },
            &[scan],
            &[],
            PlanStats::new(Interval::new(0.0, 1000.0), 512.0),
            Cost::cpu_only(Interval::new(0.0, 0.1)),
        );
        let index = p.push(
            PhysicalOp::FilterBtreeScan {
                relation: RelationId(0),
                index: IndexId(0),
                predicate: pred,
            },
            &[],
            &[],
            PlanStats::new(Interval::new(0.0, 1000.0), 512.0),
            Cost::io_only(Interval::new(0.008, 4.1)),
        );
        p.choose_plan(&[filter, index], Cost::point(0.001, 0.0));
        Arc::new(p)
    }

    #[test]
    fn roundtrip_preserves_structure_and_costs() {
        let plan = sample_plan();
        let module = AccessModule::new(plan.clone());
        let bytes = module.serialize();
        let back = AccessModule::deserialize(bytes).unwrap();
        assert_eq!(back.plan(), &plan, "field for field, ids included");
        assert_eq!(
            back.plan().root_node().total_cost.total(),
            plan.root_node().total_cost.total()
        );
        back.plan().check_invariants().unwrap();
    }

    #[test]
    fn roundtrip_preserves_sharing() {
        // Two sorts sharing a scan: 4 DAG nodes, 5 tree nodes.
        let mut p = Plan::new();
        let shared = p.push(
            PhysicalOp::FileScan {
                relation: RelationId(1),
            },
            &[],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.0, 0.01),
        );
        let s1 = p.push(
            PhysicalOp::Sort {
                attr: AttrId { relation: RelationId(1), index: 0 },
            },
            &[shared],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.01, 0.0),
        );
        let s2 = p.push(
            PhysicalOp::Sort {
                attr: AttrId { relation: RelationId(1), index: 1 },
            },
            &[shared],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.02, 0.0),
        );
        p.choose_plan(&[s1, s2], Cost::ZERO);
        let back = AccessModule::deserialize(AccessModule::new(Arc::new(p)).serialize()).unwrap();
        let back = back.plan();
        assert_eq!(dag::node_count(back), 4);
        assert_eq!(dag::tree_node_count(back), 5.0);
        // The shared scan decodes to one node referenced twice.
        let alternatives = back.children(back.root());
        assert_eq!(back.children(alternatives[0]), back.children(alternatives[1]));
    }

    #[test]
    fn module_stats_use_paper_model() {
        let cfg = SystemConfig::paper_1994();
        let module = AccessModule::new(sample_plan());
        let stats = module.stats(&cfg);
        assert_eq!(stats.nodes, 4);
        assert_eq!(stats.modeled_bytes, 4 * 128);
        assert!((stats.read_seconds - 4.0 * 128.0 / 2.0e6).abs() < 1e-12);
        assert!((stats.activation_seconds - (0.1 + stats.read_seconds)).abs() < 1e-12);
        assert!(stats.serialized_bytes > 0);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            AccessModule::deserialize(Bytes::from_static(&[0, 0])),
            Err(ModuleError::Truncated)
        ));
        let empty = {
            let mut b = BytesMut::new();
            b.put_u32(0);
            b.freeze()
        };
        assert!(matches!(
            AccessModule::deserialize(empty),
            Err(ModuleError::Empty)
        ));
        let bad_tag = {
            let mut b = BytesMut::new();
            b.put_u32(1);
            b.put_u8(99);
            b.freeze()
        };
        assert!(matches!(
            AccessModule::deserialize(bad_tag),
            Err(ModuleError::BadTag(99))
        ));
    }

    #[test]
    fn decode_rejects_unreachable_nodes_and_forward_references() {
        let scan = |p: &mut Plan, rel| {
            p.push(
                PhysicalOp::FileScan { relation: RelationId(rel) },
                &[],
                &[],
                PlanStats::new(Interval::point(1.0), 8.0),
                Cost::ZERO,
            )
        };
        // Two scans, the first referenced by nobody.
        let mut orphaned = Plan::new();
        scan(&mut orphaned, 0);
        scan(&mut orphaned, 1);
        assert_eq!(
            AccessModule::deserialize(AccessModule::new(Arc::new(orphaned)).serialize())
                .unwrap_err(),
            ModuleError::Unreachable(0)
        );
        // A sort over a scan, its child ordinal (the last four bytes)
        // pointed at the sort itself.
        let mut p = Plan::new();
        let input = scan(&mut p, 0);
        p.push(
            PhysicalOp::Sort { attr: AttrId { relation: RelationId(0), index: 0 } },
            &[input],
            &[],
            PlanStats::new(Interval::point(1.0), 8.0),
            Cost::ZERO,
        );
        let image = AccessModule::new(Arc::new(p)).serialize();
        let mut forward = BytesMut::new();
        forward.extend_from_slice(&image[..image.len() - 4]);
        forward.put_u32(1);
        assert_eq!(
            AccessModule::deserialize(forward.freeze()).unwrap_err(),
            ModuleError::BadChildRef(1)
        );
    }
}
