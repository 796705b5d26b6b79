//! The Filter operator and resolved predicates.

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

/// Writes the indices of the column values satisfying `op value` into
/// `sel` — one tight pass over the whole column (no selection vector on
/// the input batch). Dispatching on the operator *outside* the loop keeps
/// each loop body a single branch-free comparison the compiler can
/// auto-vectorize.
fn select_dense(op: CompareOp, col: &[i64], value: i64, sel: &mut Vec<u32>) {
    #[inline]
    fn scan(col: &[i64], sel: &mut Vec<u32>, keep: impl Fn(i64) -> bool) {
        for (i, &v) in col.iter().enumerate() {
            if keep(v) {
                sel.push(i as u32);
            }
        }
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
/// `prev` (the input batch's selection vector), preserving order.
fn select_sparse(op: CompareOp, col: &[i64], value: i64, prev: &[u32], sel: &mut Vec<u32>) {
    #[inline]
    fn scan(col: &[i64], prev: &[u32], sel: &mut Vec<u32>, keep: impl Fn(i64) -> bool) {
        for &idx in prev {
            if keep(col[idx as usize]) {
                sel.push(idx);
            }
        }
    }
    match op {
        CompareOp::Lt => scan(col, prev, sel, |v| v < value),
        CompareOp::Le => scan(col, prev, sel, |v| v <= value),
        CompareOp::Eq => scan(col, prev, sel, |v| v == value),
        CompareOp::Ge => scan(col, prev, sel, |v| v >= value),
        CompareOp::Gt => scan(col, prev, sel, |v| v > value),
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

    /// Evaluates the predicate over the restricted
    /// attribute's column into the batch's selection vector — one
    /// monomorphic comparison loop over a contiguous `&[i64]` slice (the
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
            let col = batch.column(self.pred.pos);
            let mut sel: Vec<u32> = Vec::with_capacity(batch.len());
            match batch.selection() {
                None => select_dense(self.pred.op, col, self.pred.value, &mut sel),
                Some(prev) => select_sparse(self.pred.op, col, self.pred.value, prev, &mut sel),
            }
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
