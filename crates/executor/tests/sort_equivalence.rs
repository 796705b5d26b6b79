//! `SortExec` ≡ the stable sort of its input, against a reference that
//! shares nothing with it: `Vec::sort_by_key` over the live rows in
//! arrival order.
//!
//! Inputs carry heavily duplicated keys (so that the order among equal
//! keys is most of what is checked), dead rows behind selection vectors,
//! and batch boundaries that fall anywhere; one more case draws keys over
//! wide spans, up to the whole `i64` range, for the sort's and the merge's
//! wide paths. Grants make the input fit,
//! fill exactly one chunk, overflow it by one row, and spill 2–40 runs;
//! every case runs at DOP 1, 2 and 4 and is pulled through both `next`
//! and `next_batch`. Besides the rows, the simulated-CPU charges, the
//! governor's memory high-water, the row a memory limit refuses and the
//! temp pages left behind by a write fault are held to what the row-wise
//! sort this operator replaced did — written out here as formulas and a
//! model of its ingest loop, not taken from the operator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_executor::{
    ExecContext, ExecError, Operator, Resource, ResourceLimits, RowBatch, SharedCounters, SortExec,
    Tuple, TupleLayout, BATCH_CAPACITY,
};
use dqep_storage::{FaultPlan, SimDisk};
use proptest::prelude::*;

/// An input row: its values, and whether its batch's selection vector
/// keeps it.
type InputRow = (Tuple, bool);

/// A scripted input: hands out `rows` in batches that end after
/// `batch_rows[i]` physical rows or `max_rows` live ones, whichever comes
/// first, with a selection vector wherever a batch holds a dead row. It
/// counts the live rows it hands out — what a real input would have
/// produced and charged for.
struct Source {
    layout: TupleLayout,
    rows: Vec<InputRow>,
    batch_rows: Vec<usize>,
    at: usize,
    batches: usize,
    handed_out: Arc<AtomicU64>,
}

impl Operator for Source {
    fn open(&mut self) -> Result<(), ExecError> {
        self.at = 0;
        self.batches = 0;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        if self.at >= self.rows.len() {
            return Ok(None);
        }
        let physical = self.batch_rows[self.batches % self.batch_rows.len()].max(1);
        self.batches += 1;
        let mut batch = RowBatch::with_capacity(self.layout.width(), physical);
        let mut selection = Vec::new();
        while self.at < self.rows.len() && batch.rows() < physical && selection.len() < max_rows {
            let (row, live) = &self.rows[self.at];
            if *live {
                selection.push(batch.rows() as u32);
            }
            batch.push_row(row);
            self.at += 1;
        }
        self.handed_out.fetch_add(selection.len() as u64, Ordering::Relaxed);
        if selection.len() < batch.rows() {
            batch.set_selection(selection);
        }
        Ok(Some(batch))
    }

    fn close(&mut self) {}

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }
}

/// A one-relation catalog whose rows have `width` attributes and take
/// `row_bytes` bytes.
fn catalog(width: usize, row_bytes: usize) -> Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("t", 1, row_bytes as u32, |r| {
            (0..width).fold(r, |r, c| r.attr(&format!("c{c}"), 100.0))
        })
        .build()
        .expect("valid catalog")
}

struct Case {
    layout: TupleLayout,
    rows: Vec<InputRow>,
    batch_rows: Vec<usize>,
    key: usize,
}

impl Case {
    fn live(&self) -> Vec<Tuple> {
        self.rows.iter().filter(|(_, live)| *live).map(|(row, _)| row.clone()).collect()
    }

    /// The reference: the standard library's stable sort.
    fn expected(&self) -> Vec<Tuple> {
        let mut rows = self.live();
        rows.sort_by_key(|row| row[self.key]);
        rows
    }

    fn sort(
        &self,
        ctx: &ExecContext,
        disk: &SimDisk,
        budget_rows: usize,
    ) -> (SortExec<'_>, Arc<AtomicU64>) {
        let handed_out = Arc::new(AtomicU64::new(0));
        let source = Source {
            layout: self.layout.clone(),
            rows: self.rows.clone(),
            batch_rows: self.batch_rows.clone(),
            at: 0,
            batches: 0,
            handed_out: Arc::clone(&handed_out),
        };
        // A grant of `budget_rows` rows and a bit: the division rounds down.
        let budget_bytes = budget_rows * self.layout.row_bytes + self.layout.row_bytes / 2;
        let sort =
            SortExec::new(Box::new(source), self.key, ctx.clone(), disk.clone(), budget_bytes);
        (sort, handed_out)
    }
}

fn cases() -> impl Strategy<Value = Case> {
    let shape = (1usize..=4, 0usize..3, 1i64..=12, 0usize..=600);
    shape.prop_flat_map(|(width, pad, distinct_keys, n)| {
        let row = (0..distinct_keys, any::<i64>(), 0u8..10);
        let rows = proptest::collection::vec(row, n..=n);
        let batch_rows = proptest::collection::vec(1usize..=300, 1..6);
        (rows, batch_rows, 0..width).prop_map(move |(rows, batch_rows, key)| {
            let row_bytes = width * 8 + pad * 100;
            let layout = TupleLayout::base(&catalog(width, row_bytes), dqep_catalog::RelationId(0));
            let rows = rows
                .into_iter()
                .enumerate()
                .map(|(arrival, (k, noise, keep))| {
                    // Column `key` holds the key; the others tell equal
                    // keys apart: arrival number, then noise.
                    let mut row = vec![arrival as i64; width];
                    row[key] = k;
                    if width > 2 {
                        row[(key + 2) % width] = noise;
                    }
                    // About a fifth of the rows are dead.
                    (row, keep >= 2)
                })
                .collect();
            Case { layout, rows, batch_rows, key }
        })
    })
}

/// Inputs whose keys spread wide: over spans of 2^8, 2^20 and 2^40 values
/// around zero and over the whole `i64` range, with a few keys repeated.
/// The run sort takes one and three radix passes on the first two and its
/// comparison fallback on the others; the merge takes its wide heads on
/// the last. The other columns tell equal keys apart, as in [`cases`].
fn wide_cases() -> impl Strategy<Value = Case> {
    let shape = (1usize..=3, 0usize..4, 0usize..=600);
    shape.prop_flat_map(|(width, spread, n)| {
        let rows = proptest::collection::vec((any::<u64>(), 0u8..10), n..=n);
        let batch_rows = proptest::collection::vec(1usize..=300, 1..6);
        (rows, batch_rows, 0..width).prop_map(move |(rows, batch_rows, key)| {
            let span: [u64; 4] = [1 << 8, 1 << 20, 1 << 40, u64::MAX];
            let layout = TupleLayout::base(&catalog(width, width * 8), dqep_catalog::RelationId(0));
            let rows = rows
                .into_iter()
                .enumerate()
                .map(|(arrival, (draw, keep))| {
                    // One draw in eight repeats a key of its own.
                    let draw = if draw % 8 == 0 { draw % 5 } else { draw };
                    let k = match span[spread] {
                        u64::MAX => draw as i64,
                        span => (draw % span) as i64 - (span / 2) as i64,
                    };
                    let mut row = vec![arrival as i64; width];
                    row[key] = k;
                    (row, keep >= 2)
                })
                .collect();
            Case { layout, rows, batch_rows, key }
        })
    })
}

/// `ceil(n · log₂ n)` per chunk of a grant of `budget_rows` rows, plus
/// `ceil(n · log₂ k)` for merging `k > 1` runs: the cost model's charges.
fn expected_compares(n: usize, budget_rows: usize) -> u64 {
    let chunk = |c: usize| if c > 1 { (c as f64 * (c as f64).log2()).ceil() as u64 } else { 0 };
    if n <= budget_rows {
        return chunk(n);
    }
    let runs = n.div_ceil(budget_rows);
    let chunks = (n / budget_rows) as u64 * chunk(budget_rows) + chunk(n % budget_rows);
    chunks + (n as f64 * (runs as f64).log2()).ceil() as u64
}

/// Drains an opened sort with the given request sizes in turn.
fn drain(sort: &mut SortExec<'_>, requests: &[usize]) -> Vec<Tuple> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(batch) = sort.next_batch(requests[i % requests.len()]).expect("next_batch") {
        assert!(batch.selection().is_none(), "the sort emits dense batches");
        assert!(batch.rows() <= requests[i % requests.len()], "no more than asked for");
        out.extend(batch.iter());
        i += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn the_sort_is_the_stable_sort_with_the_row_sort_s_charges(
        case in cases(),
        runs in 2usize..=40,
        requests in proptest::collection::vec(1usize..=1500, 1..4),
    ) {
        let expected = case.expected();
        let n = expected.len();
        let row_bytes = case.layout.row_bytes;
        // Fits with room to spare, exactly one chunk, one chunk plus one
        // row, and `runs` runs.
        let mut grants = vec![n + 7, n.max(1), n.saturating_sub(1).max(1), n.div_ceil(runs).max(1)];
        grants.dedup();
        for budget_rows in grants {
            for dop in [1usize, 2, 4] {
                let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
                let disk = SimDisk::new();
                let (mut sort, handed_out) = case.sort(&ctx, &disk, budget_rows);
                sort.open().expect("open");
                prop_assert_eq!(sort.estimated_rows(), Some(n as u64));
                let got = drain(&mut sort, &requests);
                prop_assert!(
                    got == expected,
                    "not the stable sort at {budget_rows} rows a grant, dop {dop}"
                );
                let cpu = ctx.counters.snapshot();
                prop_assert_eq!(cpu.compares, expected_compares(n, budget_rows));
                prop_assert_eq!(cpu.records, n as u64);
                prop_assert_eq!(handed_out.load(Ordering::Relaxed), n as u64);
                // Never more than one grant resident (the bound has
                // a row of slack; the operator does not use it).
                let grant = (budget_rows.min(n) * row_bytes) as u64;
                prop_assert!(ctx.governor.memory_peak() <= grant + row_bytes as u64);
                // A spilling sort wrote every row once and read it
                // back once, a page at a time; a fitting one no I/O.
                let io = disk.stats();
                prop_assert_eq!(io.writes, io.seq_reads + io.random_reads);
                prop_assert_eq!(io.writes == 0, n <= budget_rows);
                sort.close();
                prop_assert_eq!(ctx.governor.memory_used(), 0);
                prop_assert_eq!(disk.temp_pages().live, 0, "runs are dropped with the merge");
            }
        }
    }

    #[test]
    fn wide_keys_sort_stably_at_every_grant_and_dop(case in wide_cases(), runs in 2usize..=40) {
        let expected = case.expected();
        let n = expected.len();
        for budget_rows in [n + 7, n.div_ceil(runs).max(1)] {
            for dop in [1usize, 2, 4] {
                let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
                let disk = SimDisk::new();
                let (mut sort, _) = case.sort(&ctx, &disk, budget_rows);
                sort.open().expect("open");
                let got = drain(&mut sort, &[BATCH_CAPACITY]);
                prop_assert!(
                    got == expected,
                    "not the stable sort at {budget_rows} rows a grant, dop {dop}"
                );
                prop_assert_eq!(ctx.counters.snapshot().compares, expected_compares(n, budget_rows));
                sort.close();
                prop_assert_eq!(disk.temp_pages().live, 0, "runs are dropped with the merge");
            }
        }
    }

    #[test]
    fn a_refused_row_surfaces_from_open_with_the_input_charged_as_before(
        case in cases(),
        refused in 0usize..600,
        dop in 1usize..=4,
    ) {
        let n = case.live().len();
        prop_assume!(n > 0);
        let refused = refused % n;
        let row_bytes = case.layout.row_bytes as u64;
        // Room for `refused` rows and a bit; the grant itself is larger,
        // so nothing spills before the refusal.
        let limit = refused as u64 * row_bytes + row_bytes / 3;
        let limits = ResourceLimits { memory_bytes: Some(limit), ..ResourceLimits::default() };
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits).with_dop(dop);
        let disk = SimDisk::new();
        let (mut sort, handed_out) = case.sort(&ctx, &disk, n + 1);
        let err = sort.open().expect_err("the limit covers fewer rows than arrive");
        prop_assert!(
            matches!(
                err,
                ExecError::ResourceExhausted(Resource::Memory { requested, limit: l })
                    if requested == row_bytes && l == limit
            ),
            "{err:?}"
        );
        // The row-wise ingest, modelled: each pull asks for one row more
        // than the limit still covers (at most a batch), every row is
        // reserved on its own, and the first refusal ends it.
        let (mut reserved, mut charged, mut at, mut batches) = (0u64, 0u64, 0usize, 0usize);
        'ingest: loop {
            let request = (((limit - reserved) / row_bytes) as usize + 1).min(BATCH_CAPACITY);
            let physical = case.batch_rows[batches % case.batch_rows.len()];
            batches += 1;
            let (mut taken, mut live) = (0, 0);
            while at < case.rows.len() && taken < physical && live < request {
                live += usize::from(case.rows[at].1);
                taken += 1;
                at += 1;
            }
            charged += live as u64;
            for _ in 0..live {
                if reserved + row_bytes > limit {
                    break 'ingest;
                }
                reserved += row_bytes;
            }
        }
        prop_assert_eq!(handed_out.load(Ordering::Relaxed), charged);
        prop_assert_eq!(ctx.governor.memory_used(), reserved, "held until close, as rows were");
        sort.close();
        prop_assert_eq!(ctx.governor.memory_used(), 0);
        prop_assert_eq!(disk.stats().total(), 0);
    }

    #[test]
    fn a_write_fault_mid_run_leaves_no_temp_page_behind(
        case in cases(),
        runs in 2usize..=12,
        fault in 0u64..10_000,
        dop in 1usize..=4,
    ) {
        let n = case.live().len();
        prop_assume!(n >= 2);
        let budget_rows = n.div_ceil(runs).max(1);
        prop_assume!(budget_rows < n);
        // Fault-free first, to learn how many writes there are to fail.
        let disk = SimDisk::new();
        let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
        let (mut sort, _) = case.sort(&ctx, &disk, budget_rows);
        sort.open().expect("open");
        sort.close();
        let writes = disk.stats().writes;
        prop_assert!(writes > 0 && disk.temp_pages().high_water > 0);

        let mut plan = FaultPlan::none();
        plan.fail_nth_writes = vec![1 + fault % writes];
        disk.set_fault_plan(plan);
        let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
        let (mut sort, _) = case.sort(&ctx, &disk, budget_rows);
        let err = sort.open().expect_err("one of the run writes fails");
        prop_assert!(matches!(&err, ExecError::Storage(e) if e.is_injected()), "{err:?}");
        prop_assert_eq!(disk.temp_pages().live, 0, "the failed open dropped its runs");
        prop_assert_eq!(disk.page_count(), 0);
        sort.close();
        prop_assert_eq!(ctx.governor.memory_used(), 0);
    }
}
