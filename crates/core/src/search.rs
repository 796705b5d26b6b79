//! The top-down, memoizing search engine with incomparable costs.
//!
//! `optimize_group(group, properties)` fills the group's frontier for
//! the requested physical properties by applying **implementation rules**
//! (File-Scan/B-tree-Scan for Get, Filter/Filter-B-tree-Scan for Select,
//! Hash-/Merge-/Index-Join for Join) and **enforcers** (Sort for order;
//! Choose-Plan materializes automatically whenever a frontier retains more
//! than one plan). Children are optimized recursively and memoized per
//! (group, properties) — the Volcano discipline, extended so that a group
//! optimization returns a *set* of incomparable plans instead of one.
//!
//! Parents reference a child group's **combined** plan — its single
//! frontier plan, or a choose-plan node over the frontier — which makes the
//! final plan a DAG with shared subexpressions and keeps both search effort
//! and plan size polynomial while the number of *contained* static plans
//! grows exponentially (paper Section 3, "Techniques to Reduce the Search
//! Effort").
//!
//! Every node the search builds is appended to one [`Plan`] table, its
//! arena; frontiers and parents hold node ids. What a frontier evicts
//! stays behind as garbage until [`Plan::finish`] compacts the table
//! around the root — keeping relative order, so the rank in which the
//! surviving nodes were created is their position in the finished plan.
//!
//! The explored memo is the search's input and does not change during it:
//! a join expression's predicates are a slice of it, read as often as the
//! search builds candidates. What the search adds per (group, properties)
//! pair — its frontier, open while the pair is optimized and a row of a
//! list once it is done — lives in the search's own
//! [`Frontiers`](crate::frontier::Frontiers).

use std::sync::Arc;
use std::time::Instant;

use dqep_algebra::{JoinPred, LogicalExpr, PhysProps, PhysicalOp, SelectPred, SortOrder};
use dqep_catalog::{AttrId, Catalog, IndexId, RelationId};
use dqep_cost::{Cost, CostModel, Environment, ParamSpace, PlanStats, PlanningMode};
use dqep_interval::Interval;
use dqep_plan::{NodeId, Plan};

use crate::context::QueryContext;
use crate::error::OptimizerError;
use crate::frontier::Frontiers;
use crate::memo::{GroupId, GroupKey, LogicalOp, Memo};
use crate::options::SearchOptions;
use crate::probe::ProbePoints;
use crate::rules;
use crate::stats::OptimizerStats;

/// The optimizer façade: one per (catalog, environment, options) triple.
///
/// The environment's [`PlanningMode`] selects the scenario: point mode
/// yields traditional single-plan optimization; interval mode yields
/// dynamic plans.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    env: &'a Environment,
    options: SearchOptions,
}

/// The product of an optimizer run.
#[derive(Debug)]
pub struct OptimizeResult {
    /// The optimized plan — static (point mode) or dynamic (interval mode
    /// with uncertainty).
    pub plan: Arc<Plan>,
    /// Search statistics.
    pub stats: OptimizerStats,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer with the paper's default options.
    #[must_use]
    pub fn new(catalog: &'a Catalog, env: &'a Environment) -> Optimizer<'a> {
        Optimizer::with_options(catalog, env, SearchOptions::paper())
    }

    /// Creates an optimizer with explicit options (ablations).
    #[must_use]
    pub fn with_options(
        catalog: &'a Catalog,
        env: &'a Environment,
        options: SearchOptions,
    ) -> Optimizer<'a> {
        Optimizer {
            catalog,
            env,
            options,
        }
    }

    /// Optimizes a query: validates it, seeds and explores the memo, runs
    /// the property-driven search, and returns the combined plan of the
    /// root group.
    pub fn optimize(&self, query: &LogicalExpr) -> Result<OptimizeResult, OptimizerError> {
        self.optimize_with_props(query, PhysProps::ANY)
    }

    /// The first phase alone: validates the query, seeds the memo from it
    /// and explores it to the transformation rules' fixpoint. Returns the
    /// memo and its root group — what [`OptimizerStats::explore_seconds`]
    /// times, exposed so the phase can be measured and inspected by itself.
    pub fn explore(&self, query: &LogicalExpr) -> Result<(Memo, GroupId), OptimizerError> {
        let (_, memo, root) = self.explored(query)?;
        Ok((memo, root))
    }

    fn explored(
        &self,
        query: &LogicalExpr,
    ) -> Result<(QueryContext, Memo, GroupId), OptimizerError> {
        let ctx = QueryContext::build(query, self.catalog)?;
        let mut memo = Memo::for_query(&ctx);
        let root = seed(&mut memo, query, &ctx);
        rules::explore(&mut memo, &ctx);
        Ok((ctx, memo, root))
    }

    /// Optimizes a query for required root physical properties — e.g.
    /// `PhysProps::sorted(attr)` for an `ORDER BY`. The order is produced
    /// by order-delivering access paths, merge joins, or Sort enforcers,
    /// whichever the (interval) costs favour; with incomparable costs the
    /// usual choose-plan alternatives arise, all delivering the order.
    pub fn optimize_with_props(
        &self,
        query: &LogicalExpr,
        props: PhysProps,
    ) -> Result<OptimizeResult, OptimizerError> {
        let start = Instant::now();
        let (ctx, memo, root) = self.explored(query)?;
        let explore_seconds = start.elapsed().as_secs_f64();

        let inputs = Inputs::new(ctx, memo, self.catalog, self.env, self.options);
        let memo = &inputs.memo;
        let reserve = match self.env.mode {
            PlanningMode::Interval => memo.expr_count() * ARENA_NODES_PER_TEN_EXPRESSIONS / 10,
            PlanningMode::Point => 0,
        };
        let mut search = Search {
            q: &inputs,
            group_stats: vec![None; memo.group_count()],
            frontiers: Frontiers::new(memo.group_count(), inputs.ctx.relations.len()),
            arena: Plan::with_capacity(reserve),
            preds: Vec::new(),
            alternatives: Vec::with_capacity(ALTERNATIVES),
            physical_considered: 0,
            pruned_by_bound: 0,
            pruned_by_probing: 0,
            probe: (self.options.probe_points > 0).then(|| {
                ProbePoints::standard(
                    self.options.probe_points,
                    ParamSpace::new(query, self.catalog),
                )
            }),
        };
        search.optimize_group(root, props)?;
        let combined = search
            .combined(root, props)
            .ok_or(OptimizerError::NoPlanFound)?;
        let plan_root = if self.options.dag_sharing {
            combined
        } else {
            // Sharing ablation: expand the DAG into the tree representation
            // the paper warns against. Exponential for complex dynamic
            // plans; intended for small queries.
            search.expand_tree(combined)
        };
        let finish_started = Instant::now();
        let plan = std::mem::take(&mut search.arena).finish(plan_root);
        let finish_seconds = finish_started.elapsed().as_secs_f64();

        let dag = dqep_plan::dag::summarize(&plan);
        let mut stats = OptimizerStats {
            groups: memo.group_count(),
            logical_exprs: memo.expr_count(),
            physical_considered: search.physical_considered,
            pruned_by_bound: search.pruned_by_bound,
            pruned_by_probing: search.pruned_by_probing,
            plan_nodes: dag.nodes,
            choose_plans: dag.choose_plans,
            contained_plans: dag.contained_plans,
            explore_seconds,
            finish_seconds,
            ..OptimizerStats::default()
        };
        for f in search.frontiers.finished() {
            stats.frontier_plans += f.len;
            stats.max_frontier = stats.max_frontier.max(f.len);
        }
        stats.optimization_seconds = start.elapsed().as_secs_f64();
        stats.search_seconds = stats.optimization_seconds - explore_seconds;
        Ok(OptimizeResult {
            plan: Arc::new(plan),
            stats,
        })
    }
}

/// Seeds the memo from the input expression: leaf groups for every
/// relation (selections normalized onto their relation — selections
/// commute with the equi-joins considered here) and one join expression
/// per join in the input.
fn seed(memo: &mut Memo, expr: &LogicalExpr, ctx: &QueryContext) -> GroupId {
    match expr {
        LogicalExpr::Get { relation } => leaf_group(memo, *relation, ctx),
        LogicalExpr::Select { input, .. } => seed(memo, input, ctx),
        LogicalExpr::Join { left, right, .. } => {
            let l = seed(memo, left, ctx);
            let r = seed(memo, right, ctx);
            let rels = memo.group(l).key.rels().union(memo.group(r).key.rels());
            let g = memo.group_for(GroupKey::Join(rels));
            memo.add_expr(g, LogicalOp::Join { left: l, right: r });
            g
        }
    }
}

fn leaf_group(memo: &mut Memo, rel: RelationId, ctx: &QueryContext) -> GroupId {
    let get = memo.group_for(GroupKey::Get(rel));
    memo.add_expr(get, LogicalOp::Get(rel));
    if ctx.selects_on(rel).is_empty() {
        get
    } else {
        let sel = memo.group_for(GroupKey::SelectedLeaf(rel));
        memo.add_expr(sel, LogicalOp::Select { relation: rel });
        sel
    }
}

/// Arena nodes a dynamic-plan search builds per ten logical expressions of
/// the explored memo, at most, on the chains of 4 to 10 relations the
/// benchmark optimizes (42, 38, 34 and 32 measured): the arena is reserved
/// once at this size instead of doubling its way there, so a finished plan
/// holds little spare capacity and needs no trimming (see `Plan::finish`).
/// A static-plan search builds about one node per expression, and grows.
const ARENA_NODES_PER_TEN_EXPRESSIONS: usize = 43;

/// Room reserved for a frontier's plans as the choose-plan over them is
/// built: the largest frontier of a 10-relation chain's dynamic-plan
/// search holds 38.
const ALTERNATIVES: usize = 64;

/// A selection predicate of the query with its selectivity under the
/// run's environment.
#[derive(Debug, Clone, Copy)]
struct Selection {
    pred: SelectPred,
    sel: Interval,
}

/// What a search run reads but never changes — the explored memo among it.
/// Held by shared reference so borrowed expressions, predicates and
/// statistics outlive the `&mut` calls that build plan nodes.
struct Inputs<'a> {
    ctx: QueryContext,
    memo: Memo,
    catalog: &'a Catalog,
    env: &'a Environment,
    model: CostModel<'a>,
    opts: SearchOptions,
    /// Drop a candidate whose cost is exactly *equal* to a retained plan's
    /// ("it would be acceptable to make an arbitrary decision", Section
    /// 3): in point mode, as traditional optimizers pick one; interval
    /// mode keeps both (the paper's conservative prototype).
    tie_break: bool,
    /// The query's selections, by relation, each selectivity evaluated
    /// once for the run.
    selections: Vec<Selection>,
    /// Per relation id up to the highest selected one, the range of
    /// `selections` that restricts it.
    selected: Vec<(u32, u32)>,
}

impl<'a> Inputs<'a> {
    fn new(
        ctx: QueryContext,
        memo: Memo,
        catalog: &'a Catalog,
        env: &'a Environment,
        opts: SearchOptions,
    ) -> Inputs<'a> {
        let model = CostModel::new(catalog, env);
        let selected_ids = ctx.selects.keys().next_back().map_or(0, |r| r.0 as usize + 1);
        let mut selected = vec![(0, 0); selected_ids];
        let mut selections = Vec::with_capacity(ctx.selects.values().map(Vec::len).sum());
        for (rel, preds) in &ctx.selects {
            let start = selections.len() as u32;
            selections.extend(preds.iter().map(|pred| Selection {
                pred: *pred,
                sel: model.selectivity().selection(pred, env),
            }));
            selected[rel.0 as usize] = (start, selections.len() as u32);
        }
        Inputs {
            ctx,
            memo,
            catalog,
            env,
            model,
            opts,
            tie_break: env.mode == PlanningMode::Point,
            selections,
            selected,
        }
    }

    /// The selections on one relation (empty slice if none).
    fn selections_on(&self, rel: RelationId) -> &[Selection] {
        let (start, end) = self.selected.get(rel.0 as usize).copied().unwrap_or_default();
        &self.selections[start as usize..end as usize]
    }

    /// A relation's cardinality after all its selections.
    fn selected_card(&self, rel: RelationId) -> Interval {
        let card = Interval::point(self.catalog.relation(rel).stats.cardinality as f64);
        self.selections_on(rel)
            .iter()
            .fold(card, |card, s| card * s.sel)
    }

    /// Ordered B-tree indexes of a relation as (index id, key attribute).
    fn indexes_of(&self, r: RelationId) -> impl Iterator<Item = (IndexId, AttrId)> + '_ {
        self.catalog
            .indexes_on(r)
            .filter(|(_, info)| info.delivers_order())
            .map(|(id, info)| (id, info.attr))
    }

    /// One Filter per selection in `preds` over a stream of `stats`:
    /// reports each level's predicate, output statistics and operator
    /// cost, bottom-up.
    fn filter_levels(
        &self,
        mut stats: PlanStats,
        preds: impl Iterator<Item = Selection>,
        mut level: impl FnMut(SelectPred, PlanStats, Cost),
    ) {
        for s in preds {
            let out = PlanStats::new(stats.card * s.sel, stats.row_bytes);
            let op = PhysicalOp::Filter { predicate: s.pred };
            level(s.pred, out, self.model.op_cost(&op, &[], &[stats], &out));
            stats = out;
        }
    }
}

struct Search<'a> {
    q: &'a Inputs<'a>,
    /// Every node built so far, kept or since evicted.
    arena: Plan,
    /// Scratch list of the join predicates of the node being built.
    preds: Vec<JoinPred>,
    /// Scratch list of a frontier's plans, for the choose-plan over them.
    alternatives: Vec<NodeId>,
    group_stats: Vec<Option<PlanStats>>,
    /// The frontiers being built — the (group, properties) pairs being
    /// optimized, innermost last — and the finished ones.
    frontiers: Frontiers,
    physical_considered: usize,
    pruned_by_bound: usize,
    pruned_by_probing: usize,
    probe: Option<ProbePoints>,
}

impl<'a> Search<'a> {
    /// Logical stream statistics of a group (cardinality interval and row
    /// width) — identical for all expressions of the group.
    fn stats_of(&mut self, gid: GroupId) -> PlanStats {
        if let Some(s) = self.group_stats[gid.index()] {
            return s;
        }
        let q = self.q;
        let s = match q.memo.group(gid).key {
            GroupKey::Get(r) => {
                let rel = q.catalog.relation(r);
                PlanStats::new(
                    Interval::point(rel.stats.cardinality as f64),
                    rel.stats.record_len as f64,
                )
            }
            GroupKey::SelectedLeaf(r) => PlanStats::new(
                q.selected_card(r),
                q.catalog.relation(r).stats.record_len as f64,
            ),
            GroupKey::Join(rels) => {
                let mut card = Interval::point(1.0);
                let mut row = 0.0;
                for r in rels.iter() {
                    card = card * q.selected_card(r);
                    row += q.catalog.relation(r).stats.record_len as f64;
                }
                let jsel = q.model.selectivity().join(q.ctx.preds_within(rels));
                PlanStats::new(card.scale(jsel), row)
            }
        };
        self.group_stats[gid.index()] = Some(s);
        s
    }

    /// The node parents use for (group, props): the frontier's single plan
    /// or its choose-plan. `None` if not yet optimized or empty.
    fn combined(&self, gid: GroupId, props: PhysProps) -> Option<NodeId> {
        self.frontiers.find(gid, props).map(|f| f.combined)
    }

    /// Optimizes (group, props), memoized: opens its frontier, fills it
    /// and closes it — on every path, so an error leaves no frontier open.
    fn optimize_group(&mut self, gid: GroupId, props: PhysProps) -> Result<(), OptimizerError> {
        if self.frontiers.find(gid, props).is_some() {
            return Ok(());
        }
        self.frontiers.open(gid, props);
        let combined = self.fill_frontier(gid, props).and_then(|()| self.combine());
        self.frontiers.close(combined.as_ref().ok().copied());
        combined.map(drop)
    }

    /// Offers the open frontier of (group, props) every candidate of the
    /// implementation rules and the enforcers, then applies probing and the
    /// frontier cap.
    fn fill_frontier(&mut self, gid: GroupId, props: PhysProps) -> Result<(), OptimizerError> {
        match self.q.memo.group(gid).key {
            GroupKey::Get(r) => self.impl_get(gid, r, props),
            GroupKey::SelectedLeaf(r) => self.impl_selected(r, props),
            GroupKey::Join(_) => self.impl_join(gid, props)?,
        }
        // Sort enforcer: any required order can be enforced over the
        // group's Any-plan.
        if let SortOrder::Asc(attr) = props.order {
            self.optimize_group(gid, PhysProps::ANY)?;
            if let Some(child) = self.combined(gid, PhysProps::ANY) {
                let stats = self.stats_of(gid);
                let op = PhysicalOp::Sort { attr };
                self.consider(
                    &[child],
                    [],
                    stats,
                    |model| model.op_cost(&op, &[], &[stats], &stats),
                    op,
                );
            }
        }

        if self.frontiers.len() > 1 {
            if let Some(probe) = self.probe.take() {
                let before = self.frontiers.len();
                let q = self.q;
                let arena = &self.arena;
                self.frontiers
                    .prune_with(|a, b| probe.dominates(arena, (a, b), q.catalog, q.env));
                self.pruned_by_probing += before - self.frontiers.len();
                self.probe = Some(probe);
            }
        }
        self.frontiers.enforce_cap(self.q.opts.max_frontier);
        Ok(())
    }

    /// The node parents of the open frontier will reference: its single
    /// plan, or a choose-plan over all of them.
    fn combine(&mut self) -> Result<NodeId, OptimizerError> {
        self.alternatives.clear();
        self.alternatives.extend(self.frontiers.plans());
        match self.alternatives[..] {
            [] => Err(OptimizerError::NoPlanFound),
            [only] => Ok(only),
            _ => {
                let cost = self.q.model.choose_plan_cost(self.alternatives.len());
                Ok(self.arena.choose_plan(&self.alternatives, cost))
            }
        }
    }

    /// Whether interval branch-and-bound rejects a cost lower bound: a
    /// candidate whose cost *lower* bound exceeds the open frontier's best
    /// *upper* bound is dominated (only the lower bound may be used —
    /// paper Section 5).
    fn bound_rejects(&mut self, lower: f64) -> bool {
        let rejected = self.q.opts.enable_pruning && lower > self.frontiers.best_upper();
        if rejected {
            self.pruned_by_bound += 1;
        }
        rejected
    }

    /// Whether the open frontier would keep a candidate of total cost
    /// `total`: always in exhaustive mode, otherwise when it passes the
    /// bound and the frontier's domination test.
    fn keeps(&mut self, total: Interval) -> bool {
        self.q.opts.exhaustive
            || (!self.bound_rejects(total.lo()) && self.frontiers.admits(total, self.q.tie_break))
    }

    /// Adds the built node of a candidate [`Search::keeps`] approved.
    fn keep(&mut self, node: NodeId) {
        let cost = self.arena[node].total_cost.total();
        if self.q.opts.exhaustive {
            self.frontiers.insert_unconditional(node, cost);
        } else {
            self.frontiers.push(node, cost);
        }
    }

    /// Costs a candidate over `children` for the open frontier and, if the
    /// frontier keeps it, builds its node. Everything is judged on costs
    /// computed from borrowed inputs: `self_cost` runs only once the
    /// children's lower bounds pass the bound, and `preds` — the
    /// candidate's join predicates — are read only once the candidate's own
    /// cost has passed the bound and the frontier's domination test, into
    /// the arena's predicate list.
    fn consider(
        &mut self,
        children: &[NodeId],
        preds: impl IntoIterator<Item = JoinPred>,
        out_stats: PlanStats,
        self_cost: impl FnOnce(&CostModel<'a>) -> Cost,
        op: PhysicalOp,
    ) {
        self.physical_considered += 1;
        if !self.q.opts.exhaustive {
            let child_lo: f64 = children
                .iter()
                .map(|c| self.arena[*c].total_cost.total().lo())
                .sum();
            if self.bound_rejects(child_lo) {
                return;
            }
        }
        let self_cost = self_cost(&self.q.model);
        let total = children
            .iter()
            .fold(self_cost, |acc, c| acc + self.arena[*c].total_cost);
        if !self.keeps(total.total()) {
            return;
        }
        self.preds.clear();
        self.preds.extend(preds);
        let node = self.arena.push(op, children, &self.preds, out_stats, self_cost);
        self.keep(node);
    }

    // ---- implementation rules -----------------------------------------

    fn impl_get(&mut self, gid: GroupId, r: RelationId, props: PhysProps) {
        let stats = self.stats_of(gid);
        let q = self.q;
        if props.order == SortOrder::None {
            let op = PhysicalOp::FileScan { relation: r };
            self.consider(
                &[],
                [],
                stats,
                |model| model.op_cost(&op, &[], &[], &stats),
                op,
            );
        }
        for (index, key_attr) in q.indexes_of(r) {
            if props.order == SortOrder::None || props.order == SortOrder::Asc(key_attr) {
                let op = PhysicalOp::BtreeScan {
                    relation: r,
                    index,
                    key_attr,
                };
                self.consider(
                    &[],
                    [],
                    stats,
                    |model| model.op_cost(&op, &[], &[], &stats),
                    op,
                );
            }
        }
    }

    fn impl_selected(&mut self, r: RelationId, props: PhysProps) {
        let q = self.q;
        let preds = q.selections_on(r);
        let get_gid = q.memo.find(GroupKey::Get(r)).expect("seeded");
        let get_stats = self.stats_of(get_gid);

        // 1. Filter chain over a plain retrieval with the same required
        //    order (Filter preserves its input's order).
        if self.optimize_group(get_gid, props).is_ok() {
            if let Some(base) = self.combined(get_gid, props) {
                self.consider_filter_chain(
                    self.arena[base].total_cost,
                    get_stats,
                    preds.iter().copied(),
                    |_| base,
                );
            }
        }

        // 2. Filter-B-tree-Scan per indexable predicate, remaining
        //    predicates as Filters above (order Asc(p.attr) preserved).
        let rel = q.catalog.relation(r);
        let rel_card = Interval::point(rel.stats.cardinality as f64);
        let row = rel.stats.record_len as f64;
        for (i, first) in preds.iter().enumerate() {
            let p = first.pred;
            let index = q
                .catalog
                .index_on_attr(p.attr)
                .filter(|(_, info)| info.supports_range() || p.op.is_equality());
            let Some((idx, _)) = index else { continue };
            if let SortOrder::Asc(a) = props.order {
                if a != p.attr {
                    continue;
                }
            }
            let first_stats = PlanStats::new(rel_card * first.sel, row);
            let op = PhysicalOp::FilterBtreeScan {
                relation: r,
                index: idx,
                predicate: p,
            };
            let cost = q.model.op_cost(&op, &[], &[], &first_stats);
            let rest = preds
                .iter()
                .enumerate()
                .filter(move |(j, _)| *j != i)
                .map(|(_, s)| *s);
            self.consider_filter_chain(cost, first_stats, rest, |arena| {
                arena.push(op, &[], &[], first_stats, cost)
            });
        }
    }

    /// Considers `base` wrapped in one Filter per selection of `preds`:
    /// the chain is costed level by level first, and built — `base`
    /// included — only if the frontier keeps it.
    fn consider_filter_chain(
        &mut self,
        base_total: Cost,
        base_stats: PlanStats,
        preds: impl Iterator<Item = Selection> + Clone,
        base: impl FnOnce(&mut Plan) -> NodeId,
    ) {
        self.physical_considered += 1;
        let q = self.q;
        let mut total = base_total;
        q.filter_levels(base_stats, preds.clone(), |_, _, cost| total = cost + total);
        if !self.keeps(total.total()) {
            return;
        }
        let mut node = base(&mut self.arena);
        q.filter_levels(base_stats, preds, |predicate, out, cost| {
            node = self
                .arena
                .push(PhysicalOp::Filter { predicate }, &[node], &[], out, cost);
        });
        self.keep(node);
    }

    fn impl_join(&mut self, gid: GroupId, props: PhysProps) -> Result<(), OptimizerError> {
        let q = self.q;
        let out_stats = self.stats_of(gid);

        // The memo is the search's input, borrowed apart from `self`: its
        // expressions and their predicates stay readable across the
        // recursion.
        for expr in q.memo.exprs(gid) {
            let LogicalOp::Join { left: l, right: r } = expr.op else {
                continue;
            };
            let lrels = q.memo.group(l).key.rels();
            let rrels = q.memo.group(r).key.rels();
            if !q.opts.bushy && rrels.len() > 1 {
                continue; // left-deep ablation
            }
            let preds = q.memo.join_preds(expr);
            let l_stats = self.stats_of(l);
            let r_stats = self.stats_of(r);

            // Hash join: build on left, probe with right; delivers no
            // order, so only useful under Any.
            if props.order == SortOrder::None {
                self.optimize_group(l, PhysProps::ANY)?;
                self.optimize_group(r, PhysProps::ANY)?;
                if let (Some(lc), Some(rc)) = (
                    self.child_plan(l, PhysProps::ANY),
                    self.child_plan(r, PhysProps::ANY),
                ) {
                    self.consider(
                        &[lc, rc],
                        preds.iter().copied(),
                        out_stats,
                        |model| model.hash_join_cost(&l_stats, &r_stats, &out_stats),
                        PhysicalOp::HashJoin,
                    );
                }
            }

            // Merge join on the first predicate: inputs sorted on the join
            // attributes; delivers the left attribute's order.
            if let Some(p0) = preds.first() {
                let delivered = SortOrder::Asc(p0.left);
                if props.order == SortOrder::None || props.order == delivered {
                    let lp = PhysProps::sorted(p0.left);
                    let rp = PhysProps::sorted(p0.right);
                    self.optimize_group(l, lp)?;
                    self.optimize_group(r, rp)?;
                    if let (Some(lc), Some(rc)) = (self.child_plan(l, lp), self.child_plan(r, rp))
                    {
                        self.consider(
                            &[lc, rc],
                            preds.iter().copied(),
                            out_stats,
                            |model| model.merge_join_cost(&l_stats, &r_stats, &out_stats),
                            PhysicalOp::MergeJoin,
                        );
                    }
                }
            }

            // Index join: inner must be a single relation with at most one
            // selection (applied as residual after the index fetch); the
            // outer's order is preserved.
            if rrels.len() != 1 {
                continue;
            }
            let inner = rrels.iter().next().expect("single");
            let inner_selects = q.ctx.selects_on(inner);
            if inner_selects.len() > 1 {
                continue;
            }
            let outer_props = match props.order {
                SortOrder::None => PhysProps::ANY,
                SortOrder::Asc(a) if lrels.contains(a.relation) => PhysProps::sorted(a),
                SortOrder::Asc(_) => continue,
            };
            for (pi, &p) in preds.iter().enumerate() {
                let Some((index, info)) = q.catalog.index_on_attr(p.right) else {
                    continue;
                };
                if !info.delivers_order() {
                    continue;
                }
                // The indexed predicate first, the others in query order.
                let ordered = std::iter::once(p).chain(
                    preds
                        .iter()
                        .enumerate()
                        .filter(move |(j, _)| *j != pi)
                        .map(|(_, other)| *other),
                );
                self.optimize_group(l, outer_props)?;
                if let Some(outer) = self.child_plan(l, outer_props) {
                    self.consider(
                        &[outer],
                        ordered.clone(),
                        out_stats,
                        |model| model.index_join_cost(&l_stats, inner, ordered, &out_stats),
                        PhysicalOp::IndexJoin {
                            inner,
                            index,
                            residual: inner_selects.first().copied(),
                        },
                    );
                }
            }
        }
        Ok(())
    }

    /// The child node a parent should reference: the shared combined node,
    /// or (sharing ablation) a private deep copy.
    fn child_plan(&mut self, gid: GroupId, props: PhysProps) -> Option<NodeId> {
        let combined = self.combined(gid, props)?;
        Some(if self.q.opts.dag_sharing {
            combined
        } else {
            self.expand_tree(combined)
        })
    }

    /// Expands a DAG into a tree with fresh node identities (sharing
    /// ablation).
    fn expand_tree(&mut self, id: NodeId) -> NodeId {
        let children = self.arena.children(id).to_vec();
        let children: Vec<NodeId> = children.into_iter().map(|c| self.expand_tree(c)).collect();
        let node = self.arena[id];
        let preds = self.arena.join_preds(id).to_vec();
        self.arena.push(node.op, &children, &preds, node.stats, node.self_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_algebra::{CompareOp, HostVar, JoinPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_cost::Bindings;
    use dqep_plan::evaluate_startup;

    /// Catalog with two relations connected by join attribute `j`, with
    /// unclustered B-trees on `a` (selection) and `j` (join).
    fn catalog2() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| {
                r.attr("a", 1000.0).attr("j", 500.0).btree("a", false).btree("j", false)
            })
            .relation("s", 800, 512, |r| {
                r.attr("a", 800.0).attr("j", 500.0).btree("a", false).btree("j", false)
            })
            .build()
            .unwrap()
    }

    fn query1(cat: &Catalog) -> LogicalExpr {
        let rel = cat.relation_by_name("r").unwrap();
        LogicalExpr::get(rel.id).select(SelectPred::unbound(
            rel.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ))
    }

    fn query2(cat: &Catalog) -> LogicalExpr {
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        LogicalExpr::get(r.id)
            .select(SelectPred::unbound(
                r.attr_id("a").unwrap(),
                CompareOp::Lt,
                HostVar(0),
            ))
            .join(
                LogicalExpr::get(s.id).select(SelectPred::unbound(
                    s.attr_id("a").unwrap(),
                    CompareOp::Lt,
                    HostVar(1),
                )),
                vec![JoinPred::new(
                    r.attr_id("j").unwrap(),
                    s.attr_id("j").unwrap(),
                )],
            )
    }

    #[test]
    fn static_optimization_yields_single_plan() {
        let cat = catalog2();
        let env = Environment::static_compile_time(&cat.config);
        let result = Optimizer::new(&cat, &env).optimize(&query1(&cat)).unwrap();
        assert!(!result.plan.is_dynamic(), "point costs are totally ordered");
        assert_eq!(result.stats.choose_plans, 0);
        assert_eq!(result.stats.contained_plans, 1.0);
        // At the expected selectivity of 0.05 the index plan wins (the
        // calibration the motivating example depends on).
        assert!(matches!(
            result.plan.root_node().op,
            PhysicalOp::FilterBtreeScan { .. }
        ));
    }

    #[test]
    fn dynamic_optimization_builds_figure1_plan() {
        let cat = catalog2();
        let env = Environment::dynamic_compile_time(&cat.config);
        let result = Optimizer::new(&cat, &env).optimize(&query1(&cat)).unwrap();
        assert!(result.plan.is_dynamic());
        assert!(result.plan.root_node().is_choose_plan());
        assert!(result.stats.contained_plans >= 2.0);
        // Figure 1: the alternatives are a file-scan plan and an index plan.
        let plan = &result.plan;
        let ops: Vec<&str> = plan
            .children(plan.root())
            .iter()
            .map(|c| plan[*c].op.name())
            .collect();
        assert!(ops.contains(&"Filter"), "file-scan alternative: {ops:?}");
        assert!(
            ops.contains(&"Filter-B-tree-Scan"),
            "index alternative: {ops:?}"
        );
    }

    #[test]
    fn dynamic_plan_adapts_at_startup() {
        let cat = catalog2();
        let env = Environment::dynamic_compile_time(&cat.config);
        let result = Optimizer::new(&cat, &env).optimize(&query1(&cat)).unwrap();

        let low = evaluate_startup(
            &result.plan,
            &cat,
            &env,
            &Bindings::new().with_value(HostVar(0), 5),
        );
        assert!(matches!(
            low.resolved.root_node().op,
            PhysicalOp::FilterBtreeScan { .. }
        ));

        let high = evaluate_startup(
            &result.plan,
            &cat,
            &env,
            &Bindings::new().with_value(HostVar(0), 950),
        );
        assert!(matches!(high.resolved.root_node().op, PhysicalOp::Filter { .. }));
        // At high selectivity the file scan is much cheaper than the
        // index scan would have been.
        assert!(high.predicted_run_seconds < low.predicted_run_seconds * 20.0);
    }

    #[test]
    fn two_way_join_considers_both_build_sides() {
        let cat = catalog2();
        let env = Environment::dynamic_compile_time(&cat.config);
        let result = Optimizer::new(&cat, &env).optimize(&query2(&cat)).unwrap();
        assert!(result.plan.is_dynamic());
        // The dynamic plan must contain hash joins with both build sides
        // (paper Figure 2): look for two HashJoin nodes whose child order
        // differs by relation set.
        let hash_joins = result
            .plan
            .iter()
            .filter(|(_, n)| matches!(n.op, PhysicalOp::HashJoin))
            .count();
        assert!(hash_joins >= 2, "expected both join orders, got {hash_joins}");
    }

    #[test]
    fn dynamic_plan_never_worse_than_static_at_any_binding() {
        // The core robustness guarantee: for every binding, the dynamic
        // plan's chosen cost <= the static plan's cost (paper: g_i = d_i
        // <= c_i).
        let cat = catalog2();
        let static_env = Environment::static_compile_time(&cat.config);
        let dynamic_env = Environment::dynamic_compile_time(&cat.config);
        let q = query2(&cat);
        let static_plan = Optimizer::new(&cat, &static_env).optimize(&q).unwrap().plan;
        let dynamic_plan = Optimizer::new(&cat, &dynamic_env).optimize(&q).unwrap().plan;

        for (v0, v1) in [(5i64, 5i64), (5, 700), (700, 5), (900, 900), (400, 100)] {
            let b = Bindings::new()
                .with_value(HostVar(0), v0)
                .with_value(HostVar(1), v1);
            let st = evaluate_startup(&static_plan, &cat, &static_env, &b);
            let dy = evaluate_startup(&dynamic_plan, &cat, &dynamic_env, &b);
            assert!(
                dy.predicted_run_seconds <= st.predicted_run_seconds + 1e-9,
                "binding ({v0},{v1}): dynamic {} > static {}",
                dy.predicted_run_seconds,
                st.predicted_run_seconds
            );
        }
    }

    #[test]
    fn dynamic_matches_runtime_optimization() {
        // Optimality guarantee: the plan chosen at start-up-time has the
        // same cost as the plan a run-time optimizer would produce
        // (paper: g_i = d_i).
        let cat = catalog2();
        let dynamic_env = Environment::dynamic_compile_time(&cat.config);
        let q = query2(&cat);
        let dynamic_plan = Optimizer::new(&cat, &dynamic_env).optimize(&q).unwrap().plan;

        for (v0, v1) in [(5i64, 5i64), (50, 700), (900, 30), (990, 990)] {
            let b = Bindings::new()
                .with_value(HostVar(0), v0)
                .with_value(HostVar(1), v1);
            let dy = evaluate_startup(&dynamic_plan, &cat, &dynamic_env, &b);

            // Run-time optimization: point mode with actual bindings.
            let rt_env = dynamic_env.bind(&b);
            let rt = Optimizer::new(&cat, &rt_env).optimize(&q).unwrap();
            let rt_cost = evaluate_startup(&rt.plan, &cat, &rt_env, &b).predicted_run_seconds;
            assert!(
                (dy.predicted_run_seconds - rt_cost).abs() < 1e-6,
                "binding ({v0},{v1}): dynamic chose {}, run-time opt found {rt_cost}",
                dy.predicted_run_seconds
            );
        }
    }

    #[test]
    fn plan_sizes_grow_with_uncertainty() {
        let cat = catalog2();
        let static_env = Environment::static_compile_time(&cat.config);
        let dyn_env = Environment::dynamic_compile_time(&cat.config);
        let dyn_mem_env = Environment::dynamic_uncertain_memory(&cat.config);
        let q = query2(&cat);
        let s = Optimizer::new(&cat, &static_env).optimize(&q).unwrap();
        let d = Optimizer::new(&cat, &dyn_env).optimize(&q).unwrap();
        let m = Optimizer::new(&cat, &dyn_mem_env).optimize(&q).unwrap();
        assert!(d.stats.plan_nodes > s.stats.plan_nodes);
        assert!(m.stats.plan_nodes >= d.stats.plan_nodes);
        assert!(d.stats.contained_plans > 1.0);
    }

    #[test]
    fn invariants_hold_on_optimized_plans() {
        let cat = catalog2();
        for env in [
            Environment::static_compile_time(&cat.config),
            Environment::dynamic_compile_time(&cat.config),
            Environment::dynamic_uncertain_memory(&cat.config),
        ] {
            for q in [query1(&cat), query2(&cat)] {
                let result = Optimizer::new(&cat, &env).optimize(&q).unwrap();
                result.plan.check_invariants().unwrap();
            }
        }
        // `search_golden`'s `dynamic k=10`: 1 123 nodes as a table,
        // 1.7 × 10¹⁰ as a tree — the check is a loop over the former.
        use dqep_catalog::{make_chain_catalog, SyntheticSpec, JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR};
        let cat = make_chain_catalog(&SyntheticSpec::paper(10, 7), SystemConfig::paper_1994());
        let rels = cat.relations();
        let selected = |i: usize| {
            let attr = rels[i].attr_id(dqep_catalog::SELECTION_ATTR).unwrap();
            LogicalExpr::get(rels[i].id).select(SelectPred::unbound(
                attr,
                CompareOp::Lt,
                HostVar(i as u32),
            ))
        };
        let chain = (1..rels.len()).fold(selected(0), |query, i| {
            let left = rels[i - 1].attr_id(JOIN_RIGHT_ATTR).unwrap();
            let right = rels[i].attr_id(JOIN_LEFT_ATTR).unwrap();
            query.join(selected(i), vec![JoinPred::new(left, right)])
        });
        let env = Environment::dynamic_compile_time(&cat.config);
        let result = Optimizer::new(&cat, &env).optimize(&chain).unwrap();
        assert_eq!(result.stats.plan_nodes, 1_123);
        result.plan.check_invariants().unwrap();
    }

    #[test]
    fn pruning_is_lossless() {
        let cat = catalog2();
        let env = Environment::dynamic_compile_time(&cat.config);
        let q = query2(&cat);
        let with = Optimizer::new(&cat, &env).optimize(&q).unwrap();
        let without = Optimizer::with_options(
            &cat,
            &env,
            SearchOptions {
                enable_pruning: false,
                ..SearchOptions::paper()
            },
        )
        .optimize(&q)
        .unwrap();
        // Same plan space retained: identical combined cost interval.
        assert_eq!(
            with.plan.root_node().total_cost.total(),
            without.plan.root_node().total_cost.total()
        );
        assert_eq!(with.stats.plan_nodes, without.stats.plan_nodes);
    }

    #[test]
    fn sharing_ablation_expands_plans() {
        let cat = catalog2();
        let env = Environment::dynamic_compile_time(&cat.config);
        let q = query2(&cat);
        let shared = Optimizer::new(&cat, &env).optimize(&q).unwrap();
        let unshared = Optimizer::with_options(
            &cat,
            &env,
            SearchOptions {
                dag_sharing: false,
                ..SearchOptions::paper()
            },
        )
        .optimize(&q)
        .unwrap();
        assert!(
            unshared.stats.plan_nodes > shared.stats.plan_nodes,
            "tree {} should exceed DAG {}",
            unshared.stats.plan_nodes,
            shared.stats.plan_nodes
        );
        // Semantics unchanged.
        assert_eq!(
            unshared.plan.root_node().total_cost.total(),
            shared.plan.root_node().total_cost.total()
        );
    }

    #[test]
    fn probing_prunes_pseudo_incomparable_plans() {
        let cat = catalog2();
        let env = Environment::dynamic_compile_time(&cat.config);
        let q = query2(&cat);
        let naive = Optimizer::new(&cat, &env).optimize(&q).unwrap();
        let probed = Optimizer::with_options(
            &cat,
            &env,
            SearchOptions {
                probe_points: 5,
                ..SearchOptions::paper()
            },
        )
        .optimize(&q)
        .unwrap();
        assert!(probed.stats.plan_nodes <= naive.stats.plan_nodes);
    }

    #[test]
    fn exhaustive_plan_contains_default_dynamic_plan() {
        // Section 3: the exhaustive plan includes absolutely all feasible
        // plans, so it is at least as large as the default dynamic plan
        // and makes identical start-up choices (same optimal costs).
        let cat = catalog2();
        let env = Environment::dynamic_compile_time(&cat.config);
        let q = query2(&cat);
        let default = Optimizer::new(&cat, &env).optimize(&q).unwrap();
        let exhaustive = Optimizer::with_options(
            &cat,
            &env,
            SearchOptions {
                exhaustive: true,
                ..SearchOptions::paper()
            },
        )
        .optimize(&q)
        .unwrap();
        assert!(exhaustive.stats.plan_nodes >= default.stats.plan_nodes);
        assert!(exhaustive.stats.contained_plans >= default.stats.contained_plans);
        for (v0, v1) in [(5i64, 5i64), (500, 100), (950, 900)] {
            let b = Bindings::new()
                .with_value(HostVar(0), v0)
                .with_value(HostVar(1), v1);
            let d = evaluate_startup(&default.plan, &cat, &env, &b).predicted_run_seconds;
            let e = evaluate_startup(&exhaustive.plan, &cat, &env, &b).predicted_run_seconds;
            assert!(
                (d - e).abs() < 1e-9,
                "binding ({v0},{v1}): default {d} vs exhaustive {e} — the                  default's pruning must be lossless"
            );
        }
    }

    #[test]
    fn unknown_relation_is_rejected() {
        let cat = catalog2();
        let env = Environment::static_compile_time(&cat.config);
        let bogus = LogicalExpr::get(RelationId(77));
        assert!(matches!(
            Optimizer::new(&cat, &env).optimize(&bogus),
            Err(OptimizerError::InvalidQuery(_))
        ));
    }
}
