//! Delta propagation: incremental (DBSP-style) maintenance of resolved
//! plans.
//!
//! A [`Delta`] is a pair of columnar [`RowBatch`]es — multiset inserts and
//! deletes. [`compile_delta_plan`] turns a **resolved** (choose-plan-free)
//! physical plan into a [`DeltaPipeline`] of delta-propagating operator
//! variants:
//!
//! * scans become per-relation delta **sources** (a filtered B-tree scan
//!   carries its predicate along),
//! * filters apply their predicate to inserts and deletes alike,
//! * joins retain **two-sided multiset state** keyed by the join keys and
//!   propagate `Δ(L ⋈ R) = ΔL ⋈ R_old + L_new ⋈ ΔR` (the second term
//!   runs against the already-updated left state, which folds the
//!   `ΔL ⋈ ΔR` cross term in),
//! * sort maintains an ordered multiset so an ordered snapshot of the
//!   view is available without re-sorting.
//!
//! Feeding a *full* delta (every stored row as an insert) through a fresh
//! pipeline materializes the view and seeds the retained state in one
//! pass; afterwards each committed write batch costs work proportional to
//! the delta, not the data. Retained-state growth is reserved against the
//! caller's [`ResourceGovernor`], so live views obey the same memory
//! discipline as blocking operators.

use std::collections::{BTreeMap, HashMap};

use dqep_algebra::PhysicalOp;
use dqep_catalog::{Catalog, RelationId};
use dqep_cost::Bindings;
use dqep_plan::{NodeId, Plan};

use crate::batch::RowBatch;
use crate::compile::{orient, resolve_pred};
use crate::error::ExecError;
use crate::filter::ResolvedPred;
use crate::governor::{ExecContext, ResourceGovernor};
use crate::tuple::{Tuple, TupleLayout};

/// A multiset change: rows added and rows removed, in columnar layout.
/// Duplicates are represented physically — a row inserted twice appears
/// twice in `inserts`.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Rows added.
    pub inserts: RowBatch,
    /// Rows removed.
    pub deletes: RowBatch,
}

impl Delta {
    /// An empty delta of `width`-attribute rows.
    #[must_use]
    pub fn new(width: usize) -> Delta {
        Delta {
            inserts: RowBatch::with_capacity(width, 0),
            deletes: RowBatch::with_capacity(width, 0),
        }
    }

    /// Whether the delta changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total changed rows (inserts plus deletes).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// Per-relation base-table deltas of one committed write batch.
pub type BaseDeltas = HashMap<RelationId, Delta>;

/// Retained join-side state: join key → (row → multiplicity). Counts are
/// strictly positive; rows vanish when their count reaches zero.
type JoinState = HashMap<Vec<i64>, HashMap<Tuple, i64>>;

/// One operator of the delta pipeline.
#[derive(Debug)]
enum DeltaNode {
    /// Base-table delta source, with the pushed-down scan predicate of a
    /// `Filter-B-tree-Scan` (or an index join's residual) when present.
    Source {
        relation: RelationId,
        filter: Option<ResolvedPred>,
        width: usize,
    },
    /// Predicate over both sides of the child delta.
    Filter {
        child: Box<DeltaNode>,
        pred: ResolvedPred,
    },
    /// Equi-join with retained two-sided state. Hash, merge, and index
    /// joins all propagate deltas identically — the algorithms differ
    /// only in how they compute the *initial* result, which the live view
    /// takes from the ordinary executor.
    Join {
        left: Box<DeltaNode>,
        right: Box<DeltaNode>,
        /// (left position, right position) per conjunct.
        keys: Vec<(usize, usize)>,
        left_state: JoinState,
        right_state: JoinState,
        left_width: usize,
        right_width: usize,
        /// Approximate retained bytes, maintained incrementally.
        bytes: u64,
    },
    /// Order maintenance: an ordered multiset of the child's rows keyed by
    /// the sort attribute. Deltas pass through unchanged; the ordered
    /// contents are served from [`DeltaPipeline::ordered_snapshot`].
    Sort {
        child: Box<DeltaNode>,
        key: usize,
        state: BTreeMap<(i64, Tuple), i64>,
        bytes: u64,
    },
}

/// A compiled delta-propagating pipeline for one resolved plan, with its
/// retained operator state.
#[derive(Debug)]
pub struct DeltaPipeline {
    root: DeltaNode,
    layout: TupleLayout,
    /// Bytes currently reserved with the governor for retained state.
    reserved: u64,
}

/// Compiles a **resolved** (choose-plan-free) physical plan into a delta
/// pipeline with empty retained state. Seed the state by applying a full
/// delta (all stored rows as inserts) — its output is the materialized
/// view.
///
/// # Errors
/// [`ExecError::UnresolvedChoosePlan`] on a choose-plan node; unbound
/// host variables and predicate mismatches from predicate resolution.
pub fn compile_delta_plan(
    plan: &Plan,
    catalog: &Catalog,
    bindings: &Bindings,
) -> Result<DeltaPipeline, ExecError> {
    let (root, layout) = build(plan, plan.root(), catalog, bindings)?;
    Ok(DeltaPipeline { root, layout, reserved: 0 })
}

fn build(
    plan: &Plan,
    id: NodeId,
    catalog: &Catalog,
    bindings: &Bindings,
) -> Result<(DeltaNode, TupleLayout), ExecError> {
    let build = |child: usize| build(plan, plan.children(id)[child], catalog, bindings);
    Ok(match &plan[id].op {
        PhysicalOp::FileScan { relation } | PhysicalOp::BtreeScan { relation, .. } => {
            let layout = TupleLayout::base(catalog, *relation);
            let width = layout.width();
            (DeltaNode::Source { relation: *relation, filter: None, width }, layout)
        }
        PhysicalOp::FilterBtreeScan { relation, predicate, .. } => {
            let layout = TupleLayout::base(catalog, *relation);
            let filter = Some(resolve_pred(predicate, &layout, bindings)?);
            let width = layout.width();
            (DeltaNode::Source { relation: *relation, filter, width }, layout)
        }
        PhysicalOp::Filter { predicate } => {
            let (child, layout) = build(0)?;
            let pred = resolve_pred(predicate, &layout, bindings)?;
            (DeltaNode::Filter { child: Box::new(child), pred }, layout)
        }
        PhysicalOp::HashJoin | PhysicalOp::MergeJoin => {
            join(build(0)?, build(1)?, plan.join_preds(id))?
        }
        PhysicalOp::IndexJoin { inner, residual, .. } => {
            let rl = TupleLayout::base(catalog, *inner);
            let filter = residual
                .as_ref()
                .map(|p| resolve_pred(p, &rl, bindings))
                .transpose()?;
            let right = DeltaNode::Source {
                relation: *inner,
                filter,
                width: rl.width(),
            };
            join(build(0)?, (right, rl), plan.join_preds(id))?
        }
        PhysicalOp::Sort { attr } => {
            let (child, layout) = build(0)?;
            let key = layout
                .position(*attr)
                .ok_or_else(|| ExecError::PredicateMismatch(format!("sort key {attr}")))?;
            (
                DeltaNode::Sort {
                    child: Box::new(child),
                    key,
                    state: BTreeMap::new(),
                    bytes: 0,
                },
                layout,
            )
        }
        PhysicalOp::ChoosePlan => return Err(ExecError::UnresolvedChoosePlan),
    })
}

/// A join of two delta inputs on `predicates`, with empty retained state.
fn join(
    (left, ll): (DeltaNode, TupleLayout),
    (right, rl): (DeltaNode, TupleLayout),
    predicates: &[dqep_algebra::JoinPred],
) -> Result<(DeltaNode, TupleLayout), ExecError> {
    let keys = predicates
        .iter()
        .map(|p| orient(p, &ll, &rl))
        .collect::<Result<Vec<_>, _>>()?;
    let node = DeltaNode::Join {
        left: Box::new(left),
        right: Box::new(right),
        keys,
        left_state: JoinState::new(),
        right_state: JoinState::new(),
        left_width: ll.width(),
        right_width: rl.width(),
        bytes: 0,
    };
    Ok((node, ll.concat(&rl)))
}

impl DeltaPipeline {
    /// The output row layout.
    #[must_use]
    pub fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    /// The distinct base relations this pipeline consumes deltas of.
    #[must_use]
    pub fn relations(&self) -> Vec<RelationId> {
        let mut out = Vec::new();
        collect_relations(&self.root, &mut out);
        out.dedup();
        out
    }

    /// Propagates one committed write batch through the pipeline,
    /// returning the output delta and updating retained state. Rows
    /// processed are charged to the context's CPU counters and checked
    /// against the governor (budgets, cancellation); retained-state
    /// growth is reserved against the governor's memory grant.
    ///
    /// # Errors
    /// [`ExecError::ResourceExhausted`] when a budget trips or state no
    /// longer fits the memory grant; [`ExecError::Cancelled`] under
    /// cooperative cancellation. Retained state stays consistent either
    /// way — only the reservation, not the propagation, can fail after
    /// state is touched.
    pub fn apply(&mut self, base: &BaseDeltas, ctx: &ExecContext) -> Result<Delta, ExecError> {
        let before = node_bytes(&self.root);
        let out = self.root.apply(base, ctx)?;
        let after = node_bytes(&self.root);
        if after > before {
            let grow = after - before;
            ctx.governor.try_reserve_memory(grow)?;
            self.reserved += grow;
        } else {
            let shrink = (before - after).min(self.reserved);
            ctx.governor.release_memory(shrink);
            self.reserved -= shrink;
        }
        ctx.governor.charge_rows(out.rows() as u64)?;
        Ok(out)
    }

    /// Rows retained across all join and sort states (a size probe for
    /// metrics and tests).
    #[must_use]
    pub fn state_bytes(&self) -> u64 {
        node_bytes(&self.root)
    }

    /// The view contents in sort order, when the pipeline's root
    /// maintains one (the plan ended in a `Sort`). `None` for unordered
    /// views — snapshot from the caller's own multiset instead.
    #[must_use]
    pub fn ordered_snapshot(&self) -> Option<Vec<Tuple>> {
        match &self.root {
            DeltaNode::Sort { state, .. } => {
                let mut out = Vec::new();
                for ((_, row), &count) in state {
                    for _ in 0..count {
                        out.push(row.clone());
                    }
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Releases the pipeline's retained-state memory reservation back to
    /// `governor`. Call before dropping a pipeline whose reservations were
    /// made through a long-lived context (a live view being rebuilt).
    pub fn release(&mut self, governor: &ResourceGovernor) {
        governor.release_memory(self.reserved);
        self.reserved = 0;
    }
}

fn collect_relations(node: &DeltaNode, out: &mut Vec<RelationId>) {
    match node {
        DeltaNode::Source { relation, .. } => out.push(*relation),
        DeltaNode::Filter { child, .. } | DeltaNode::Sort { child, .. } => {
            collect_relations(child, out);
        }
        DeltaNode::Join { left, right, .. } => {
            collect_relations(left, out);
            collect_relations(right, out);
        }
    }
}

fn node_bytes(node: &DeltaNode) -> u64 {
    match node {
        DeltaNode::Source { .. } => 0,
        DeltaNode::Filter { child, .. } => node_bytes(child),
        DeltaNode::Join { left, right, bytes, .. } => {
            bytes + node_bytes(left) + node_bytes(right)
        }
        DeltaNode::Sort { child, bytes, .. } => bytes + node_bytes(child),
    }
}

/// Copies `batch`'s live rows into `out`, keeping only those matching
/// `filter` when present.
fn copy_filtered(batch: &RowBatch, filter: Option<&ResolvedPred>, out: &mut RowBatch) {
    let mut row = Vec::with_capacity(batch.width());
    for i in batch.selected_indices() {
        row.clear();
        batch.gather_row_into(i, &mut row);
        if filter.is_none_or(|p| p.matches(&row)) {
            out.push_row(&row);
        }
    }
}

/// Applies `sign` multiplicity of `row` under `key` to a join side.
fn integrate(state: &mut JoinState, bytes: &mut u64, key: Vec<i64>, row: Tuple, sign: i64) {
    let row_bytes = ((key.len() + row.len() + 2) * 8) as u64;
    let rows = state.entry(key).or_default();
    let count = rows.entry(row).or_insert(0);
    *count += sign;
    if *count > 0 && sign > 0 {
        *bytes += row_bytes;
    } else if sign < 0 {
        *bytes = bytes.saturating_sub(row_bytes);
    }
    if *count <= 0 {
        // Remove dead rows so state size tracks live contents. The
        // re-lookup is on the same key the entry API just hashed.
        let dead = rows
            .iter()
            .find_map(|(r, &c)| (c <= 0).then(|| r.clone()));
        if let Some(r) = dead {
            rows.remove(&r);
        }
    }
}

impl DeltaNode {
    fn apply(&mut self, base: &BaseDeltas, ctx: &ExecContext) -> Result<Delta, ExecError> {
        match self {
            DeltaNode::Source { relation, filter, width } => {
                let mut out = Delta::new(*width);
                if let Some(d) = base.get(relation) {
                    ctx.governor.check_batch(d.rows() as u64)?;
                    ctx.counters.add_records(d.rows() as u64);
                    copy_filtered(&d.inserts, filter.as_ref(), &mut out.inserts);
                    copy_filtered(&d.deletes, filter.as_ref(), &mut out.deletes);
                }
                Ok(out)
            }
            DeltaNode::Filter { child, pred } => {
                let d = child.apply(base, ctx)?;
                ctx.counters.add_compares(d.rows() as u64);
                let mut out = Delta::new(d.inserts.width());
                copy_filtered(&d.inserts, Some(pred), &mut out.inserts);
                copy_filtered(&d.deletes, Some(pred), &mut out.deletes);
                Ok(out)
            }
            DeltaNode::Join {
                left,
                right,
                keys,
                left_state,
                right_state,
                left_width,
                right_width,
                bytes,
            } => {
                let dl = left.apply(base, ctx)?;
                let dr = right.apply(base, ctx)?;
                ctx.governor.check_batch((dl.rows() + dr.rows()) as u64)?;
                ctx.counters.add_hashes((dl.rows() + dr.rows()) as u64);
                let mut out = Delta::new(*left_width + *right_width);
                let lkeys: Vec<usize> = keys.iter().map(|&(l, _)| l).collect();
                let rkeys: Vec<usize> = keys.iter().map(|&(_, r)| r).collect();
                // ΔL ⋈ R_old.
                emit_joined(&dl.inserts, right_state, &lkeys, false, &mut out.inserts);
                emit_joined(&dl.deletes, right_state, &lkeys, false, &mut out.deletes);
                // L_new = L_old + ΔL.
                apply_side(left_state, bytes, &dl, &lkeys);
                // L_new ⋈ ΔR (folds the ΔL ⋈ ΔR cross term in).
                emit_joined(&dr.inserts, left_state, &rkeys, true, &mut out.inserts);
                emit_joined(&dr.deletes, left_state, &rkeys, true, &mut out.deletes);
                apply_side(right_state, bytes, &dr, &rkeys);
                Ok(out)
            }
            DeltaNode::Sort { child, key, state, bytes } => {
                let d = child.apply(base, ctx)?;
                ctx.counters.add_compares(d.rows() as u64);
                let mut row = Vec::new();
                for i in d.inserts.selected_indices() {
                    row.clear();
                    d.inserts.gather_row_into(i, &mut row);
                    let entry = (row[*key], row.clone());
                    *bytes += ((row.len() + 3) * 8) as u64;
                    *state.entry(entry).or_insert(0) += 1;
                }
                for i in d.deletes.selected_indices() {
                    row.clear();
                    d.deletes.gather_row_into(i, &mut row);
                    let entry = (row[*key], row.clone());
                    *bytes = bytes.saturating_sub(((row.len() + 3) * 8) as u64);
                    if let Some(count) = state.get_mut(&entry) {
                        *count -= 1;
                        if *count <= 0 {
                            state.remove(&entry);
                        }
                    }
                }
                Ok(d)
            }
        }
    }
}

/// Joins each live row of `rows` against the matching side state, pushing
/// the concatenated outputs (state row left or right depending on
/// `state_is_left`) once per multiplicity.
fn emit_joined(
    rows: &RowBatch,
    state: &JoinState,
    key_pos: &[usize],
    state_is_left: bool,
    out: &mut RowBatch,
) {
    let mut row = Vec::with_capacity(rows.width());
    let mut key = Vec::with_capacity(key_pos.len());
    for i in rows.selected_indices() {
        row.clear();
        rows.gather_row_into(i, &mut row);
        key.clear();
        key.extend(key_pos.iter().map(|&p| row[p]));
        if let Some(matches) = state.get(&key) {
            for (other, &count) in matches {
                for _ in 0..count {
                    if state_is_left {
                        out.push_concat(other, &row);
                    } else {
                        out.push_concat(&row, other);
                    }
                }
            }
        }
    }
}

/// Integrates a delta into one join side's retained state.
fn apply_side(state: &mut JoinState, bytes: &mut u64, d: &Delta, key_pos: &[usize]) {
    let mut row = Vec::new();
    for i in d.inserts.selected_indices() {
        row.clear();
        d.inserts.gather_row_into(i, &mut row);
        let key: Vec<i64> = key_pos.iter().map(|&p| row[p]).collect();
        integrate(state, bytes, key, row.clone(), 1);
    }
    for i in d.deletes.selected_indices() {
        row.clear();
        d.deletes.gather_row_into(i, &mut row);
        let key: Vec<i64> = key_pos.iter().map(|&p| row[p]).collect();
        integrate(state, bytes, key, row.clone(), -1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::drain;
    use crate::governor::{ExecContext, ResourceLimits};
    use std::sync::Arc;
    use crate::metrics::SharedCounters;
    use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, PhysProps, SelectPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;
    use dqep_cost::Environment;
    use dqep_plan::evaluate_startup;
    use dqep_storage::StoredDatabase;

    fn fixture() -> (Catalog, StoredDatabase) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 300, 512, |r| {
                r.attr("a", 300.0).attr("j", 40.0).btree("a", false)
            })
            .relation("s", 200, 512, |r| {
                r.attr("a", 200.0).attr("j", 40.0).btree("a", false)
            })
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&cat, 11);
        (cat, db)
    }

    /// Full-table deltas: every stored row as an insert.
    fn full_deltas(cat: &Catalog, db: &StoredDatabase, rels: &[RelationId]) -> BaseDeltas {
        let mut out = BaseDeltas::new();
        for &rel in rels {
            let table = db.table(rel);
            let width = cat.relation(rel).attributes.len();
            let delta = out.entry(rel).or_insert_with(|| Delta::new(width));
            for rec in table.heap.scan() {
                delta.inserts.push_row(&table.decode(&rec.unwrap()));
            }
        }
        out
    }

    fn join_plan(cat: &Catalog, env: &Environment) -> Arc<Plan> {
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let q = LogicalExpr::get(r.id)
            .select(SelectPred::unbound(
                r.attr_id("a").unwrap(),
                CompareOp::Lt,
                HostVar(0),
            ))
            .join(
                LogicalExpr::get(s.id),
                vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
            );
        Optimizer::new(cat, env).optimize(&q).unwrap().plan
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort_unstable();
        rows
    }

    fn executed_rows(
        plan: &Plan,
        db: &StoredDatabase,
        cat: &Catalog,
        bindings: &Bindings,
    ) -> Vec<Tuple> {
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op = crate::compile_plan(plan, db, cat, bindings, 1 << 22, &ctx).unwrap();
        drain(op.as_mut()).unwrap()
    }

    #[test]
    fn full_delta_materializes_the_view() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = join_plan(&cat, &env);
        let bindings = Bindings::new().with_value(HostVar(0), 120);
        let startup = evaluate_startup(&plan, &cat, &env, &bindings);

        let mut pipe = compile_delta_plan(&startup.resolved, &cat, &bindings).unwrap();
        let rels = pipe.relations();
        let ctx = ExecContext::new(SharedCounters::new());
        let out = pipe.apply(&full_deltas(&cat, &db, &rels), &ctx).unwrap();
        assert!(out.deletes.is_empty());

        let expected = executed_rows(&startup.resolved, &db, &cat, &bindings);
        assert_eq!(sorted(out.inserts.to_tuples()), sorted(expected));
        assert!(pipe.state_bytes() > 0, "join state retained");
    }

    #[test]
    fn incremental_matches_rerun_after_writes() {
        let (cat, mut db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = join_plan(&cat, &env);
        let bindings = Bindings::new().with_value(HostVar(0), 150);
        let startup = evaluate_startup(&plan, &cat, &env, &bindings);
        let mut pipe = compile_delta_plan(&startup.resolved, &cat, &bindings).unwrap();
        let rels = pipe.relations();
        let ctx = ExecContext::new(SharedCounters::new());

        // Materialize.
        let mut view: HashMap<Tuple, i64> = HashMap::new();
        let init = pipe.apply(&full_deltas(&cat, &db, &rels), &ctx).unwrap();
        for t in init.inserts.iter() {
            *view.entry(t).or_insert(0) += 1;
        }

        let r = cat.relation_by_name("r").unwrap().id;
        let s = cat.relation_by_name("s").unwrap().id;
        // A few commits of interleaved writes, including rows on both
        // sides of the filter and a delete of a just-inserted row.
        let commits: Vec<Vec<(RelationId, Vec<i64>, bool)>> = vec![
            vec![(r, vec![10, 7], true), (s, vec![50, 7], true)],
            vec![(r, vec![10, 7], false), (r, vec![250, 3], true)],
            vec![(s, vec![50, 7], true), (s, vec![50, 7], false)],
        ];
        for ops in commits {
            let mut base = BaseDeltas::new();
            for (rel, values, is_insert) in ops {
                if is_insert {
                    db.insert(&cat, rel, &values).unwrap();
                    base.entry(rel)
                        .or_insert_with(|| Delta::new(values.len()))
                        .inserts
                        .push_row(&values);
                } else {
                    assert!(db.delete(&cat, rel, &values).unwrap().is_some());
                    base.entry(rel)
                        .or_insert_with(|| Delta::new(values.len()))
                        .deletes
                        .push_row(&values);
                }
            }
            let out = pipe.apply(&base, &ctx).unwrap();
            for t in out.inserts.iter() {
                *view.entry(t).or_insert(0) += 1;
            }
            for t in out.deletes.iter() {
                let count = view.entry(t.clone()).or_insert(0);
                *count -= 1;
                if *count == 0 {
                    view.remove(&t);
                }
            }
            // Parity: the maintained multiset equals a fresh execution.
            let mut maintained = Vec::new();
            for (row, &count) in &view {
                assert!(count > 0, "no negative multiplicities");
                for _ in 0..count {
                    maintained.push(row.clone());
                }
            }
            let expected = executed_rows(&startup.resolved, &db, &cat, &bindings);
            assert_eq!(sorted(maintained), sorted(expected));
        }
    }

    #[test]
    fn sorted_view_maintains_order() {
        let (cat, mut db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let r = cat.relation_by_name("r").unwrap();
        // ORDER BY via required root properties (Sort enforcer or an
        // order-delivering access path — either maintains order here).
        let q = LogicalExpr::get(r.id).select(SelectPred::unbound(
            r.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ));
        let plan = Optimizer::new(&cat, &env)
            .optimize_with_props(&q, PhysProps::sorted(r.attr_id("j").unwrap()))
            .unwrap()
            .plan;
        let bindings = Bindings::new().with_value(HostVar(0), 100);
        let startup = evaluate_startup(&plan, &cat, &env, &bindings);
        let mut pipe = compile_delta_plan(&startup.resolved, &cat, &bindings).unwrap();
        let rels = pipe.relations();
        let ctx = ExecContext::new(SharedCounters::new());
        pipe.apply(&full_deltas(&cat, &db, &rels), &ctx).unwrap();

        db.insert(&cat, r.id, &[5, 0]).unwrap();
        let mut base = BaseDeltas::new();
        base.entry(r.id).or_insert_with(|| Delta::new(2)).inserts.push_row(&[5, 0]);
        pipe.apply(&base, &ctx).unwrap();

        let snapshot = pipe.ordered_snapshot().expect("sort root maintains order");
        assert!(snapshot.windows(2).all(|w| w[0][1] <= w[1][1]), "ordered by j");
        let expected = executed_rows(&startup.resolved, &db, &cat, &bindings);
        assert_eq!(snapshot.len(), expected.len());
        assert_eq!(sorted(snapshot), sorted(expected));
    }

    #[test]
    fn state_growth_is_governed() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = join_plan(&cat, &env);
        let bindings = Bindings::new().with_value(HostVar(0), 300);
        let startup = evaluate_startup(&plan, &cat, &env, &bindings);
        let mut pipe = compile_delta_plan(&startup.resolved, &cat, &bindings).unwrap();
        let rels = pipe.relations();
        let limits = ResourceLimits {
            memory_bytes: Some(4 * 1024),
            ..ResourceLimits::unlimited()
        };
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits);
        let err = pipe.apply(&full_deltas(&cat, &db, &rels), &ctx).unwrap_err();
        assert!(err.is_retryable(), "memory refusal is retryable: {err}");
        // Releasing returns the reservation.
        pipe.release(&ctx.governor);
        assert_eq!(ctx.governor.memory_used(), 0);
    }
}
