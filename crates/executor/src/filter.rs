//! The Filter operator and resolved predicates.
//!
//! The filter's kernels select without branches, a batch at a time (the
//! MonetDB/X100 selection primitive): one loop over a column, or over the
//! input's selection vector, writes every row's index to the next free
//! slot of the output selection vector and advances the slot by the
//! predicate's result. A row costs the same whether it passes or not, so
//! a selectivity near 50 % pays no misprediction a row.

use dqep_algebra::CompareOp;

use crate::batch::RowBatch;
use crate::error::ExecError;
use crate::governor::ExecContext;
use crate::tuple::TupleLayout;
use crate::{BoxedOperator, Operator};

/// A selection predicate with its attribute resolved to a tuple position
/// and its right-hand side resolved to a concrete value (host variables
/// are bound before compilation).
#[derive(Debug, Clone, Copy)]
pub struct ResolvedPred {
    /// Position of the restricted attribute within the input layout.
    pub pos: usize,
    /// Comparison operator.
    pub op: CompareOp,
    /// Bound comparison value.
    pub value: i64,
}

impl ResolvedPred {
    /// The inclusive key range this predicate selects — what a B-tree
    /// range probe descends with.
    #[must_use]
    pub fn key_range(&self) -> (Option<i64>, Option<i64>) {
        match self.op {
            CompareOp::Lt => (None, Some(self.value - 1)),
            CompareOp::Le => (None, Some(self.value)),
            CompareOp::Eq => (Some(self.value), Some(self.value)),
            CompareOp::Ge => (Some(self.value), None),
            CompareOp::Gt => (Some(self.value + 1), None),
        }
    }
}

/// The indices of the column values satisfying `op value`, in `sel` —
/// one tight pass over the whole column (no selection vector on the
/// input batch). Branch-free: every index is written to the next free
/// slot, and the slot advances by the comparison's result, so a row's
/// outcome is data, not a jump the branch predictor can miss. Dispatching
/// on the operator *outside* the loop keeps each body one comparison.
fn select_dense(op: CompareOp, col: &[i64], value: i64, sel: &mut Vec<u32>) {
    #[inline]
    fn scan(col: &[i64], sel: &mut Vec<u32>, keep: impl Fn(i64) -> bool) {
        sel.resize(col.len(), 0);
        let mut n = 0;
        for (i, &v) in col.iter().enumerate() {
            sel[n] = i as u32;
            n += usize::from(keep(v));
        }
        sel.truncate(n);
    }
    match op {
        CompareOp::Lt => scan(col, sel, |v| v < value),
        CompareOp::Le => scan(col, sel, |v| v <= value),
        CompareOp::Eq => scan(col, sel, |v| v == value),
        CompareOp::Ge => scan(col, sel, |v| v >= value),
        CompareOp::Gt => scan(col, sel, |v| v > value),
    }
}

/// The sparse counterpart of [`select_dense`]: evaluates only the rows in
/// `prev` (the input batch's selection vector), preserving order, the
/// same branch-free way.
fn select_sparse(op: CompareOp, col: &[i64], value: i64, prev: &[u32], sel: &mut Vec<u32>) {
    #[inline]
    fn scan(col: &[i64], prev: &[u32], sel: &mut Vec<u32>, keep: impl Fn(i64) -> bool) {
        sel.resize(prev.len(), 0);
        let mut n = 0;
        for &idx in prev {
            sel[n] = idx;
            n += usize::from(keep(col[idx as usize]));
        }
        sel.truncate(n);
    }
    match op {
        CompareOp::Lt => scan(col, prev, sel, |v| v < value),
        CompareOp::Le => scan(col, prev, sel, |v| v <= value),
        CompareOp::Eq => scan(col, prev, sel, |v| v == value),
        CompareOp::Ge => scan(col, prev, sel, |v| v >= value),
        CompareOp::Gt => scan(col, prev, sel, |v| v > value),
    }
}

/// The filter's kernel: the live rows of `batch` whose attribute `pos`
/// satisfies `op value`, as indices of physical rows in ascending order,
/// in `sel` (what was there is overwritten). The branch-free loop of the
/// module docs, over the column or over the batch's selection vector.
///
/// # Panics
/// Panics if `pos` is not an attribute of the batch.
pub fn select_rows(batch: &RowBatch, pos: usize, op: CompareOp, value: i64, sel: &mut Vec<u32>) {
    let col = batch.column(pos);
    match batch.selection() {
        None => select_dense(op, col, value, sel),
        Some(prev) => select_sparse(op, col, value, prev, sel),
    }
}

/// Predicate evaluation over any input (one comparison per input tuple).
pub struct FilterExec<'a> {
    input: BoxedOperator<'a>,
    pred: ResolvedPred,
    ctx: ExecContext,
}

impl<'a> FilterExec<'a> {
    /// Creates a filter over `input`.
    #[must_use]
    pub fn new(input: BoxedOperator<'a>, pred: ResolvedPred, ctx: ExecContext) -> Self {
        FilterExec { input, pred, ctx }
    }
}

impl Operator for FilterExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.input.open()
    }

    /// Evaluates the predicate over the restricted attribute's column
    /// into the batch's selection vector with [`select_rows`] — one
    /// branch-free comparison loop over a contiguous `&[i64]` slice (the
    /// X100-style kernel), qualifying rows are never copied, and the
    /// comparison/record counters are charged once per batch. Batches
    /// whose rows all fail are skipped internally so callers always make
    /// progress per call.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        loop {
            let Some(mut batch) = self.input.next_batch(max_rows)? else {
                return Ok(None);
            };
            let examined = batch.len() as u64;
            let mut sel: Vec<u32> = Vec::with_capacity(batch.len());
            select_rows(&batch, self.pred.pos, self.pred.op, self.pred.value, &mut sel);
            self.ctx.counters.add_compares(examined);
            if sel.is_empty() {
                continue;
            }
            self.ctx.counters.add_records(sel.len() as u64);
            batch.set_selection(sel);
            return Ok(Some(batch));
        }
    }

    fn close(&mut self) {
        self.input.close();
    }

    fn layout(&self) -> &TupleLayout {
        self.input.layout()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const OPS: [CompareOp; 5] =
        [CompareOp::Lt, CompareOp::Le, CompareOp::Eq, CompareOp::Ge, CompareOp::Gt];

    /// The scalar predicate, one row at a time: the reference.
    fn holds(op: CompareOp, v: i64, value: i64) -> bool {
        match op {
            CompareOp::Lt => v < value,
            CompareOp::Le => v <= value,
            CompareOp::Eq => v == value,
            CompareOp::Ge => v >= value,
            CompareOp::Gt => v > value,
        }
    }

    /// What the kernel for `prev` (dense when `None`) selects, written
    /// over stale contents, and what the scalar predicate selects.
    fn both(op: CompareOp, col: &[i64], value: i64, prev: Option<&[u32]>) -> (Vec<u32>, Vec<u32>) {
        let mut sel = vec![u32::MAX; 5];
        match prev {
            None => select_dense(op, col, value, &mut sel),
            Some(prev) => select_sparse(op, col, value, prev, &mut sel),
        }
        let rows: Vec<u32> = prev.map_or_else(|| (0..col.len() as u32).collect(), <[u32]>::to_vec);
        let want = rows.into_iter().filter(|&i| holds(op, col[i as usize], value)).collect();
        (sel, want)
    }

    #[test]
    fn empty_all_pass_and_none_pass_batches() {
        let col = [5i64; 9];
        let all: Vec<u32> = (0..9).collect();
        let odd: Vec<u32> = (1..9).step_by(2).collect();
        for op in OPS {
            for prev in [None, Some(&odd[..])] {
                let live = prev.map_or(all.clone(), <[u32]>::to_vec);
                assert_eq!(both(op, &[], 5, prev.map(|_| &[][..])).0, Vec::<u32>::new(), "{op:?}");
                // 5 passes `op` against one of 4, 5 and 6 and fails
                // against another.
                let (pass, fail) = match op {
                    CompareOp::Lt => (6, 5),
                    CompareOp::Le => (5, 4),
                    CompareOp::Eq => (5, 6),
                    CompareOp::Ge => (5, 6),
                    CompareOp::Gt => (4, 5),
                };
                assert_eq!(both(op, &col, pass, prev).0, live, "{op:?} {pass}: all pass");
                assert_eq!(both(op, &col, fail, prev).0, Vec::<u32>::new(), "{op:?} {fail}: none");
            }
        }
    }

    /// Bounds at and next to the ends of the domain, small ones, any.
    fn bound() -> impl Strategy<Value = i64> {
        prop_oneof![
            Just(i64::MIN),
            Just(i64::MIN + 1),
            Just(i64::MAX - 1),
            Just(i64::MAX),
            -3i64..3,
            any::<i64>()
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The branch-free kernels select exactly the rows the scalar
        /// predicate selects, in order, under every operator, dense and
        /// under a selection vector, with values at the ends of the domain
        /// and next to the bound.
        #[test]
        fn the_kernels_select_what_the_predicate_selects(
            value in bound(),
            values in proptest::collection::vec((0u8..4, -1i64..=1, any::<i64>()), 0..80),
            live in proptest::collection::vec(any::<bool>(), 80),
        ) {
            let col: Vec<i64> = values
                .iter()
                .map(|&(kind, step, any)| match kind {
                    0 => value.saturating_add(step),
                    1 => i64::MIN,
                    2 => i64::MAX,
                    _ => any,
                })
                .collect();
            let prev: Vec<u32> = (0..col.len() as u32).filter(|&i| live[i as usize]).collect();
            for op in OPS {
                let (got, want) = both(op, &col, value, None);
                prop_assert_eq!(got, want, "{:?} dense", op);
                let (got, want) = both(op, &col, value, Some(&prev));
                prop_assert_eq!(got, want, "{:?} under a selection", op);
            }
        }
    }

    #[test]
    fn key_ranges() {
        let p = |op| ResolvedPred { pos: 0, op, value: 10 };
        assert_eq!(p(CompareOp::Lt).key_range(), (None, Some(9)));
        assert_eq!(p(CompareOp::Le).key_range(), (None, Some(10)));
        assert_eq!(p(CompareOp::Eq).key_range(), (Some(10), Some(10)));
        assert_eq!(p(CompareOp::Ge).key_range(), (Some(10), None));
        assert_eq!(p(CompareOp::Gt).key_range(), (Some(11), None));
    }
}
