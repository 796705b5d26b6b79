//! The prepared-statement registry: parse once, compile a dynamic plan at
//! most once, execute many.
//!
//! This is the serving-layer realization of the paper's economics (its
//! Figure 3): run-time optimization costs `a` a binding, a dynamic plan
//! `e ≈ 2.3 a` once and then only the cheap start-up decision. So a
//! statement's first binding is optimized at run time, and the statement
//! enters the registry holding that plan; its dynamic plan is compiled
//! once, in place, when a second binding (a re-optimizing run, a retry)
//! needs it — under the statement's own lock, so however many sessions
//! need it at once, one compiles and the others wait for its plan. The
//! registry never replaces a resident statement: it keys statements by
//! normalized text, bounds its size with LRU eviction, and owns the
//! per-statement decision cache. A memoized decision depends on its
//! statement and its exact binding alone, so nothing a completed
//! execution observes ever changes it.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dqep_plan::{Observations, Plan};
use dqep_sql::Query;
use parking_lot::Mutex;

use crate::decision::{BindingKey, CachedDecision};

/// Most decisions one statement memoizes. A key is one exact binding, so
/// a statement bound to ever new values would otherwise grow its map by
/// one resolved plan per request; a full map is cleared before the next
/// insert.
pub const DECISION_MEMO_CAPACITY: usize = 64;

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

/// A parsed statement, its plan, and its bind-time decision cache.
#[derive(Debug)]
pub struct PreparedStatement {
    /// Normalized statement text (the registry key).
    pub sql: String,
    /// The parsed query: host-variable names, predicates, order-by.
    pub query: Query,
    /// The plan the statement was entered with: its dynamic plan
    /// (choose-plan nodes included) for [`PreparedStatement::new`], or
    /// the plan run-time optimization chose at its first binding.
    pub plan: Arc<Plan>,
    /// The dynamic plan once there is one; see `dynamic_plan`.
    dynamic_plan: Mutex<Option<Arc<Plan>>>,
    decisions: Mutex<HashMap<BindingKey, CachedDecision>>,
}

impl PreparedStatement {
    /// Wraps a statement optimized into its dynamic plan.
    #[must_use]
    pub fn new(sql: String, query: Query, plan: Arc<Plan>) -> PreparedStatement {
        PreparedStatement {
            sql,
            query,
            dynamic_plan: Mutex::new(Some(Arc::clone(&plan))),
            plan,
            decisions: Mutex::new(HashMap::new()),
        }
    }

    /// A statement seen at one binding: `decision` is run-time
    /// optimization's plan there, which is also the statement's `plan`,
    /// memoized at `key`.
    pub(crate) fn at_binding(
        sql: String,
        query: Query,
        key: BindingKey,
        decision: CachedDecision,
    ) -> PreparedStatement {
        PreparedStatement {
            sql,
            query,
            plan: Arc::clone(&decision.resolved),
            dynamic_plan: Mutex::new(None),
            decisions: Mutex::new(HashMap::from([(key, decision)])),
        }
    }

    /// The statement's dynamic plan: the one it holds, or, the first time
    /// one is needed, `compile`'s — which the statement then keeps. The
    /// compile runs under the statement's lock, so a statement compiles
    /// at most once however many sessions need its plan at a time; one
    /// that fails leaves the statement without a plan, and the next need
    /// compiles again.
    pub(crate) fn dynamic_plan<E>(
        &self,
        compile: impl FnOnce(&Query) -> Result<Arc<Plan>, E>,
    ) -> Result<Arc<Plan>, E> {
        let mut slot = self.dynamic_plan.lock();
        if let Some(plan) = &*slot {
            return Ok(Arc::clone(plan));
        }
        let plan = compile(&self.query)?;
        *slot = Some(Arc::clone(&plan));
        Ok(plan)
    }

    /// The cached decision for a binding, if any.
    #[must_use]
    pub fn decision(&self, key: &BindingKey) -> Option<CachedDecision> {
        self.decisions.lock().get(key).cloned()
    }

    /// Memoizes the start-up decision made at a binding, clearing the
    /// memo first when it holds [`DECISION_MEMO_CAPACITY`] decisions.
    pub fn store_decision(&self, key: BindingKey, decision: CachedDecision) {
        let mut decisions = self.decisions.lock();
        if decisions.len() >= DECISION_MEMO_CAPACITY {
            decisions.clear();
        }
        decisions.insert(key, decision);
    }

    /// How many decisions the statement holds memoized.
    #[cfg(test)]
    pub(crate) fn decisions_memoized(&self) -> usize {
        self.decisions.lock().len()
    }

    // Compat shim for the frozen `benchmark/`: no observation is ever kept, so this is always empty; the next `[benchmark]` PR deletes it (ROADMAP).
    #[doc(hidden)]
    #[must_use]
    pub fn observations(&self) -> Observations {
        Observations::new()
    }

    // Compat shim for the frozen `benchmark/`: a decision depends on its binding alone, so nothing is recorded; the next `[benchmark]` PR deletes it (ROADMAP).
    #[doc(hidden)]
    pub fn record_feedback(&self, _observed_rows: u64, _tolerance: f64) -> bool {
        false
    }
}

/// Registry hit/miss/eviction accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found no statement: a fresh parse and optimization.
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
    /// use the returned statement so its decision memo is never split. An
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
    use crate::decision::region_key;
    use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;
    use dqep_cost::{Bindings, Environment};
    use dqep_sql::parse_query;

    fn catalog() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).btree("a", false))
            .build()
            .unwrap()
    }

    fn prepared(sql: &str) -> Arc<PreparedStatement> {
        let cat = catalog();
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
    fn a_statement_compiles_its_dynamic_plan_once_and_keeps_it() {
        let dynamic = prepared("SELECT * FROM r WHERE r.a < :x");
        let key = region_key(&dynamic.query, &catalog(), &Bindings::new(), 0, 64.0);
        let decision = CachedDecision {
            resolved: Arc::clone(&dynamic.plan),
            predicted_seconds: 1.0,
        };
        let stmt = PreparedStatement::at_binding(
            dynamic.sql.clone(),
            dynamic.query.clone(),
            key.clone(),
            decision,
        );
        let compiles = std::cell::Cell::new(0);
        let compile = |outcome: Result<Arc<Plan>, &'static str>| {
            let (compiles, own) = (&compiles, &stmt.query);
            move |query: &Query| {
                assert!(std::ptr::eq(query, own), "the statement's own query");
                compiles.set(compiles.get() + 1);
                outcome
            }
        };

        // A failed compile leaves the slot empty: the next need compiles.
        assert_eq!(stmt.dynamic_plan(compile(Err("refused"))).unwrap_err(), "refused");
        assert_eq!(compiles.get(), 1);
        let fresh = Arc::clone(&prepared(&dynamic.sql).plan);
        let first = stmt.dynamic_plan(compile(Ok(Arc::clone(&fresh)))).unwrap();
        assert!(Arc::ptr_eq(&first, &fresh));
        assert_eq!(compiles.get(), 2);
        // Later needs get the same plan and never call the compiler.
        for _ in 0..3 {
            let again = stmt.dynamic_plan(compile(Err("not called"))).unwrap();
            assert!(Arc::ptr_eq(&again, &first));
        }
        assert_eq!(compiles.get(), 2);
        assert!(stmt.decision(&key).is_some(), "the memo survives");
        assert!(Arc::ptr_eq(&stmt.plan, &dynamic.plan), "`plan` is what it entered with");

        // `new` seeds the slot with its plan: no need ever compiles.
        let seeded = dynamic.dynamic_plan(|_| Err::<Arc<Plan>, _>("not called")).unwrap();
        assert!(Arc::ptr_eq(&seeded, &dynamic.plan));
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
}
