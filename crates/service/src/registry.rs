//! The prepared-statement registry: parse/optimize once, execute many.
//!
//! This is the serving-layer realization of the paper's economics:
//! compile-time optimization of a dynamic plan is expensive and performed
//! **once**; each execution then pays only the cheap start-up decision.
//! The registry keys statements by normalized text, bounds its size with
//! LRU eviction, and owns the per-statement decision cache and
//! observed-cardinality feedback state.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dqep_plan::{NodeId, Observations, Plan};
use dqep_sql::Query;
use parking_lot::Mutex;

use crate::decision::{CachedDecision, RegionKey};

/// Normalizes statement text for registry keying: trims, collapses
/// whitespace runs to single spaces, and drops a trailing `;`. Identifier
/// case is preserved (the catalog is case-sensitive), so normalization
/// never changes what a statement means — only how it is keyed.
#[must_use]
pub fn normalize_sql(sql: &str) -> String {
    normalized(sql).into_owned()
}

/// [`normalize_sql`] that borrows a text already in normal form — single
/// blanks between tokens, none at either end, no trailing `;` — which is
/// what every programmatic caller sends on every request.
pub(crate) fn normalized(sql: &str) -> Cow<'_, str> {
    // A blank is out of place after another blank (the start counts as
    // one) or when it is not a plain space.
    let mut after_blank = true;
    let mut normal = true;
    for c in sql.chars() {
        let blank = c.is_whitespace();
        normal &= !blank || (c == ' ' && !after_blank);
        after_blank = blank;
    }
    if normal && !after_blank && !sql.ends_with(';') {
        return Cow::Borrowed(sql);
    }
    let mut out = String::with_capacity(sql.len());
    for token in sql.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(token);
    }
    while out.ends_with(';') {
        out.pop();
        while out.ends_with(' ') {
            out.pop();
        }
    }
    Cow::Owned(out)
}

/// A statement optimized once into a dynamic plan, plus its per-statement
/// run-time state: the bind-time decision cache and the cardinality
/// observations fed back from completed executions.
#[derive(Debug)]
pub struct PreparedStatement {
    /// Normalized statement text (the registry key).
    pub sql: String,
    /// The parsed query: host-variable names, predicates, order-by.
    pub query: Query,
    /// The compile-time dynamic plan (choose-plan nodes included).
    pub plan: Arc<Plan>,
    decisions: Mutex<HashMap<RegionKey, CachedDecision>>,
    observations: Mutex<Observations>,
    invalidations: AtomicU64,
}

impl PreparedStatement {
    /// Wraps a freshly optimized statement.
    #[must_use]
    pub fn new(sql: String, query: Query, plan: Arc<Plan>) -> PreparedStatement {
        PreparedStatement {
            sql,
            query,
            plan,
            decisions: Mutex::new(HashMap::new()),
            observations: Mutex::new(Observations::new()),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The cached decision for a binding region, if any.
    #[must_use]
    pub fn decision(&self, key: &RegionKey) -> Option<CachedDecision> {
        self.decisions.lock().get(key).cloned()
    }

    /// Memoizes the arbitration outcome for a binding region.
    pub fn store_decision(&self, key: RegionKey, decision: CachedDecision) {
        self.decisions.lock().insert(key, decision);
    }

    /// Drops one region's cached decision (e.g. after its resolved plan
    /// failed retryably and execution fell back to full arbitration).
    pub fn invalidate_decision(&self, key: &RegionKey) {
        self.decisions.lock().remove(key);
    }

    /// Number of cached decisions currently held.
    #[must_use]
    pub fn cached_decisions(&self) -> usize {
        self.decisions.lock().len()
    }

    /// Snapshot of the statement's cardinality observations, for
    /// `evaluate_startup_observed`.
    #[must_use]
    pub fn observations(&self) -> Observations {
        self.observations.lock().clone()
    }

    /// Pins an observed cardinality for a plan node and clears the
    /// decision cache (used by tests and external feedback sources; the
    /// service's own loop goes through [`PreparedStatement::record_feedback`]).
    pub fn observe(&self, node: NodeId, cardinality: f64) {
        self.observations.lock().insert(node, cardinality);
        self.decisions.lock().clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Feeds one execution's observed root cardinality back into the
    /// statement. If the observation leaves the current estimate interval
    /// — the compile-time interval, or a previously pinned observation —
    /// by more than a factor of `tolerance`, the observation is recorded
    /// (keyed by the dynamic plan root, so choose-plan equivalence-class
    /// expansion propagates it to every alternative), the decision cache
    /// is cleared, and later arbitrations re-optimize against the observed
    /// value. Returns whether an invalidation happened.
    pub fn record_feedback(&self, observed_rows: u64, tolerance: f64) -> bool {
        let tolerance = tolerance.max(1.0);
        let observed = (observed_rows as f64).max(1.0);
        let mut observations = self.observations.lock();
        let root = self.plan.root();
        let (lo, hi) = match observations.get(&root) {
            Some(&pinned) => {
                let p = pinned.max(1.0);
                (p / tolerance, p * tolerance)
            }
            None => {
                let card = self.plan[root].stats.card;
                (card.lo().max(1.0) / tolerance, card.hi().max(1.0) * tolerance)
            }
        };
        if observed >= lo && observed <= hi {
            return false;
        }
        observations.insert(root, observed_rows as f64);
        drop(observations);
        self.decisions.lock().clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// How many times feedback invalidated this statement's decisions.
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }
}

/// Registry hit/miss/eviction accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh parse + optimize.
    pub misses: u64,
    /// Statements evicted by the LRU policy.
    pub evictions: u64,
    /// Statements currently resident.
    pub resident: usize,
}

impl RegistryStats {
    /// Hits over all lookups, in `[0, 1]`; 1.0 for an untouched registry.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        crate::metrics::hit_rate(self.hits, self.misses)
    }
}

#[derive(Debug)]
struct Slot {
    stmt: Arc<PreparedStatement>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    map: HashMap<String, Slot>,
    tick: u64,
}

impl RegistryInner {
    /// Takes the least recently used statements out until at most
    /// `capacity` remain, and hands them over, least recently used first,
    /// for the caller to drop once it has released the lock: a victim's
    /// last reference frees its whole plan and decision cache, and no
    /// `get` should wait for that.
    fn evict_over(&mut self, capacity: usize) -> Vec<Arc<PreparedStatement>> {
        let mut victims = Vec::new();
        while self.map.len() > capacity {
            // O(n) victim scan: capacities are small (dozens) and inserts
            // are rare once the working set is resident. Ticks are unique,
            // so exactly the least recently used slot leaves.
            let Some(oldest) = self.map.values().map(|slot| slot.last_used).min() else {
                break;
            };
            self.map.retain(|_, slot| {
                let keep = slot.last_used != oldest;
                if !keep {
                    victims.push(Arc::clone(&slot.stmt));
                }
                keep
            });
        }
        victims
    }
}

/// A bounded, LRU-evicting map from normalized statement text to
/// [`PreparedStatement`]. Lookups bump recency; inserts past capacity
/// evict the least recently used entry.
#[derive(Debug)]
pub struct PreparedRegistry {
    inner: Mutex<RegistryInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PreparedRegistry {
    /// A registry holding at most `capacity` statements (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> PreparedRegistry {
        PreparedRegistry {
            inner: Mutex::new(RegistryInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a normalized statement, bumping its recency. Counts a hit
    /// or a miss.
    #[must_use]
    pub fn get(&self, normalized: &str) -> Option<Arc<PreparedStatement>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(normalized) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.stmt))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly prepared statement, evicting the LRU entry when
    /// over capacity. If another session inserted the same statement
    /// concurrently, the incumbent wins and is returned — callers always
    /// use the returned statement so feedback state is never split. An
    /// evicted statement is freed after the lock is released.
    pub fn insert(
        &self,
        normalized: String,
        stmt: Arc<PreparedStatement>,
    ) -> Arc<PreparedStatement> {
        let victims = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.map.get_mut(&normalized) {
                slot.last_used = tick;
                return Arc::clone(&slot.stmt);
            }
            inner.map.insert(
                normalized,
                Slot {
                    stmt: Arc::clone(&stmt),
                    last_used: tick,
                },
            );
            inner.evict_over(self.capacity)
        };
        self.evictions.fetch_add(victims.len() as u64, Ordering::Relaxed);
        drop(victims);
        stmt
    }

    /// Accounting snapshot.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: self.inner.lock().map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;
    use dqep_cost::Environment;
    use dqep_sql::parse_query;

    fn prepared(sql: &str) -> Arc<PreparedStatement> {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).btree("a", false))
            .build()
            .unwrap();
        let norm = normalize_sql(sql);
        let query = parse_query(&norm, &cat).unwrap();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&query.expr).unwrap().plan;
        Arc::new(PreparedStatement::new(norm, query, plan))
    }

    #[test]
    fn normalization_collapses_whitespace_only() {
        assert_eq!(
            normalize_sql("  SELECT *\n FROM  r\tWHERE r.a < :x ; "),
            "SELECT * FROM r WHERE r.a < :x"
        );
        // Identifier case is preserved.
        assert_eq!(normalize_sql("SELECT * FROM R1"), "SELECT * FROM R1");
    }

    #[test]
    fn every_spelling_keys_one_entry_and_a_normal_text_is_not_copied() {
        let normal = "SELECT * FROM r WHERE r.a < :x";
        assert!(matches!(normalized(normal), Cow::Borrowed(text) if std::ptr::eq(text, normal)));
        let reg = PreparedRegistry::new(4);
        let stmt = prepared(normal);
        reg.insert(stmt.sql.clone(), Arc::clone(&stmt));
        for spelling in [
            "SELECT\t* FROM r\tWHERE r.a < :x",
            "SELECT *\nFROM r\r\nWHERE r.a < :x\n",
            "  SELECT  *  FROM r   WHERE r.a <  :x",
            "SELECT * FROM r WHERE r.a < :x;",
            "SELECT * FROM r WHERE r.a < :x ;   ",
        ] {
            let key = normalized(spelling);
            assert!(matches!(key, Cow::Owned(_)), "{spelling:?} is not in normal form");
            let found = reg.get(&key).unwrap_or_else(|| panic!("{spelling:?} keyed {key:?}"));
            assert!(Arc::ptr_eq(&found, &stmt));
        }
        assert_eq!(reg.stats().resident, 1);
        // Blanks the ASCII rules would miss are blanks all the same.
        assert_eq!(normalized("SELECT\u{a0}*\u{2003}FROM r"), "SELECT * FROM r");
        assert_eq!(normalized(""), "");
        assert_eq!(normalized(" ; "), "");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let reg = PreparedRegistry::new(2);
        let a = prepared("SELECT * FROM r WHERE r.a < :x");
        let b = prepared("SELECT * FROM r WHERE r.a > :x");
        let c = prepared("SELECT * FROM r WHERE r.a = :x");
        reg.insert(a.sql.clone(), Arc::clone(&a));
        reg.insert(b.sql.clone(), Arc::clone(&b));
        // Touch `a`, making `b` the LRU victim.
        assert!(reg.get(&a.sql).is_some());
        reg.insert(c.sql.clone(), Arc::clone(&c));
        assert!(reg.get(&a.sql).is_some());
        assert!(reg.get(&b.sql).is_none(), "b was evicted");
        assert!(reg.get(&c.sql).is_some());
        let stats = reg.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident, 2);
    }

    #[test]
    fn victims_leave_the_locked_section_in_lru_order() {
        let stmts =
            ["<", ">", "=", "<="].map(|op| prepared(&format!("SELECT * FROM r WHERE r.a {op} :x")));
        let mut inner = RegistryInner::default();
        for (last_used, stmt) in [3, 1, 4, 2].into_iter().zip(&stmts) {
            inner.map.insert(stmt.sql.clone(), Slot { stmt: Arc::clone(stmt), last_used });
        }
        let victims = inner.evict_over(1);
        let lru_order = [&stmts[1], &stmts[3], &stmts[0]];
        assert_eq!(victims.len(), lru_order.len());
        for (victim, expected) in victims.iter().zip(lru_order) {
            assert!(Arc::ptr_eq(victim, expected), "{} out of LRU order", victim.sql);
        }
        assert!(inner.map.contains_key(&stmts[2].sql), "the most recently used stays");

        // Through `insert`: the registry held the last reference, and the
        // evicted statement is gone once `insert` has returned.
        let reg = PreparedRegistry::new(1);
        let [a, b, ..] = stmts;
        drop(victims);
        let evicted = Arc::downgrade(&a);
        reg.insert(a.sql.clone(), a);
        reg.insert(b.sql.clone(), b);
        assert!(evicted.upgrade().is_none());
        assert_eq!(reg.stats().evictions, 1);
    }

    #[test]
    fn racing_inserts_keep_the_incumbent() {
        let reg = PreparedRegistry::new(4);
        let first = prepared("SELECT * FROM r WHERE r.a < :x");
        let second = prepared("SELECT * FROM r WHERE r.a < :x");
        let kept = reg.insert(first.sql.clone(), Arc::clone(&first));
        assert!(Arc::ptr_eq(&kept, &first));
        let kept = reg.insert(second.sql.clone(), Arc::clone(&second));
        assert!(Arc::ptr_eq(&kept, &first), "incumbent wins the race");
    }

    #[test]
    fn feedback_outside_interval_invalidates_once() {
        let stmt = prepared("SELECT * FROM r WHERE r.a < :x");
        let hi = stmt.plan.root_node().stats.card.hi();
        // Observation far above the estimate interval: invalidates.
        let breach = (hi * 10.0) as u64;
        assert!(stmt.record_feedback(breach, 2.0));
        assert_eq!(stmt.invalidations(), 1);
        assert!(
            stmt.observations().contains_key(&stmt.plan.root()),
            "observation pinned at the plan root"
        );
        // The same observation again is now *inside* the pinned interval:
        // no repeated invalidation on a stable workload.
        assert!(!stmt.record_feedback(breach, 2.0));
        assert_eq!(stmt.invalidations(), 1);
    }

    #[test]
    fn feedback_inside_interval_is_accepted_silently() {
        let stmt = prepared("SELECT * FROM r WHERE r.a < :x");
        let inside = stmt.plan.root_node().stats.card.lo().max(1.0) as u64;
        assert!(!stmt.record_feedback(inside, 2.0));
        assert_eq!(stmt.invalidations(), 0);
        assert!(stmt.observations().is_empty());
    }
}
