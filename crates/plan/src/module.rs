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
    pub fn serialize(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.plan.len() * 96);
        put(&mut buf, (self.plan.len() as u32).to_be_bytes());
        for (id, node) in self.plan.iter() {
            encode_op(&mut buf, &node.op, self.plan.join_preds(id));
            put(&mut buf, node.stats.card.lo().to_be_bytes());
            put(&mut buf, node.stats.card.hi().to_be_bytes());
            put(&mut buf, node.stats.row_bytes.to_be_bytes());
            encode_cost(&mut buf, node.self_cost);
            let children = self.plan.children(id);
            put(&mut buf, (children.len() as u16).to_be_bytes());
            for c in children {
                put(&mut buf, c.0.to_be_bytes());
            }
        }
        buf
    }

    /// Decodes a module previously produced by [`AccessModule::serialize`],
    /// adopting nothing it has not checked: every node has the child count
    /// its operator takes (a choose-plan at least two), children precede
    /// their parents, numbers are numbers, every node hangs off the root
    /// and the input ends with the last node. What decodes satisfies
    /// [`Plan::check_invariants`] and equals the plan that was encoded,
    /// ids included.
    pub fn deserialize(bytes: Vec<u8>) -> Result<AccessModule, ModuleError> {
        let buf = &mut bytes.as_slice();
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
        if !buf.is_empty() {
            return Err(ModuleError::TrailingBytes(buf.len()));
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
fn encode_op(buf: &mut Vec<u8>, op: &PhysicalOp, preds: &[JoinPred]) {
    match op {
        PhysicalOp::FileScan { relation } => {
            buf.push(TAG_FILE_SCAN);
            put(buf, relation.0.to_be_bytes());
        }
        PhysicalOp::BtreeScan {
            relation,
            index,
            key_attr,
        } => {
            buf.push(TAG_BTREE_SCAN);
            put(buf, relation.0.to_be_bytes());
            put(buf, index.0.to_be_bytes());
            encode_attr(buf, *key_attr);
        }
        PhysicalOp::Filter { predicate } => {
            buf.push(TAG_FILTER);
            encode_pred(buf, predicate);
        }
        PhysicalOp::FilterBtreeScan {
            relation,
            index,
            predicate,
        } => {
            buf.push(TAG_FILTER_BTREE_SCAN);
            put(buf, relation.0.to_be_bytes());
            put(buf, index.0.to_be_bytes());
            encode_pred(buf, predicate);
        }
        PhysicalOp::HashJoin => {
            buf.push(TAG_HASH_JOIN);
            encode_join_preds(buf, preds);
        }
        PhysicalOp::MergeJoin => {
            buf.push(TAG_MERGE_JOIN);
            encode_join_preds(buf, preds);
        }
        PhysicalOp::IndexJoin {
            inner,
            index,
            residual,
        } => {
            buf.push(TAG_INDEX_JOIN);
            encode_join_preds(buf, preds);
            put(buf, inner.0.to_be_bytes());
            put(buf, index.0.to_be_bytes());
            match residual {
                Some(p) => {
                    buf.push(1);
                    encode_pred(buf, p);
                }
                None => buf.push(0),
            }
        }
        PhysicalOp::Sort { attr } => {
            buf.push(TAG_SORT);
            encode_attr(buf, *attr);
        }
        PhysicalOp::ChoosePlan => buf.push(TAG_CHOOSE_PLAN),
    }
}

/// Reads an operator, its join predicates into `preds` (cleared first).
fn decode_op(buf: &mut &[u8], preds: &mut Vec<JoinPred>) -> Result<PhysicalOp, ModuleError> {
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

fn encode_attr(buf: &mut Vec<u8>, attr: AttrId) {
    put(buf, attr.relation.0.to_be_bytes());
    put(buf, attr.index.to_be_bytes());
}

fn decode_attr(buf: &mut &[u8]) -> Result<AttrId, ModuleError> {
    Ok(AttrId {
        relation: RelationId(get_u32(buf)?),
        index: get_u32(buf)?,
    })
}

fn encode_pred(buf: &mut Vec<u8>, p: &SelectPred) {
    encode_attr(buf, p.attr);
    buf.push(match p.op {
        CompareOp::Lt => 0,
        CompareOp::Le => 1,
        CompareOp::Eq => 2,
        CompareOp::Ge => 3,
        CompareOp::Gt => 4,
    });
    match p.rhs {
        Scalar::Const(v) => {
            buf.push(0);
            put(buf, v.to_be_bytes());
        }
        Scalar::Host(h) => {
            buf.push(1);
            put(buf, h.0.to_be_bytes());
        }
    }
}

fn decode_pred(buf: &mut &[u8]) -> Result<SelectPred, ModuleError> {
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

fn encode_join_preds(buf: &mut Vec<u8>, ps: &[JoinPred]) {
    put(buf, (ps.len() as u16).to_be_bytes());
    for p in ps {
        encode_attr(buf, p.left);
        encode_attr(buf, p.right);
    }
}

fn decode_join_preds(buf: &mut &[u8], out: &mut Vec<JoinPred>) -> Result<(), ModuleError> {
    let n = get_u16(buf)? as usize;
    for _ in 0..n {
        let left = decode_attr(buf)?;
        let right = decode_attr(buf)?;
        out.push(JoinPred { left, right });
    }
    Ok(())
}

fn encode_cost(buf: &mut Vec<u8>, c: Cost) {
    put(buf, c.cpu.lo().to_be_bytes());
    put(buf, c.cpu.hi().to_be_bytes());
    put(buf, c.io.lo().to_be_bytes());
    put(buf, c.io.hi().to_be_bytes());
}

fn decode_cost(buf: &mut &[u8]) -> Result<Cost, ModuleError> {
    let cpu = decode_interval(buf)?;
    let io = decode_interval(buf)?;
    Ok(Cost::new(cpu, io))
}

fn decode_interval(buf: &mut &[u8]) -> Result<Interval, ModuleError> {
    let lo = get_f64(buf)?;
    let hi = get_f64(buf)?;
    Interval::try_new(lo, hi).map_err(|_| ModuleError::BadNumber)
}

/// Appends one big-endian field.
fn put<const N: usize>(buf: &mut Vec<u8>, bytes: [u8; N]) {
    buf.extend_from_slice(&bytes);
}

/// Consumes one `N`-byte field off the front of `buf`, or reports
/// truncation.
fn get<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], ModuleError> {
    let (field, rest) = buf.split_first_chunk::<N>().ok_or(ModuleError::Truncated)?;
    *buf = rest;
    Ok(*field)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, ModuleError> {
    get(buf).map(u8::from_be_bytes)
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, ModuleError> {
    get(buf).map(u16::from_be_bytes)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, ModuleError> {
    get(buf).map(u32::from_be_bytes)
}

fn get_i64(buf: &mut &[u8]) -> Result<i64, ModuleError> {
    get(buf).map(i64::from_be_bytes)
}

fn get_f64(buf: &mut &[u8]) -> Result<f64, ModuleError> {
    get(buf).map(f64::from_be_bytes)
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
        // Field for field, ids included: the derived `total_cost`, `exec`
        // and `order`, which are not encoded, come out as they went in.
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
            AccessModule::deserialize(vec![0, 0]),
            Err(ModuleError::Truncated)
        ));
        assert!(matches!(
            AccessModule::deserialize(0u32.to_be_bytes().to_vec()),
            Err(ModuleError::Empty)
        ));
        assert!(matches!(
            AccessModule::deserialize(vec![0, 0, 0, 1, 99]),
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
        let mut forward = image[..image.len() - 4].to_vec();
        forward.extend_from_slice(&1u32.to_be_bytes());
        assert_eq!(
            AccessModule::deserialize(forward).unwrap_err(),
            ModuleError::BadChildRef(1)
        );
    }
}
