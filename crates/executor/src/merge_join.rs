//! Merge join over inputs sorted on the join attributes.

use std::cmp::Ordering;

use crate::batch::RowBatch;
use crate::error::ExecError;
use crate::governor::ExecContext;
use crate::tuple::TupleLayout;
use crate::{BoxedOperator, Operator};

/// One sorted input: the batch under the cursor and how many of its live
/// rows the join is past.
#[derive(Default)]
struct Side {
    batch: RowBatch,
    pos: usize,
    done: bool,
}

impl Side {
    /// The physical index of the row under the cursor, pulling the next
    /// batch from `op` when this one is used up; `None` at the end.
    fn head(&mut self, op: &mut dyn Operator, max_rows: usize) -> Result<Option<usize>, ExecError> {
        while self.pos >= self.batch.len() {
            if self.done {
                return Ok(None);
            }
            match op.next_batch(max_rows)? {
                Some(batch) => (self.batch, self.pos) = (batch, 0),
                None => self.done = true,
            }
        }
        Ok(Some(self.batch.physical(self.pos)))
    }
}

/// Merge join on a single sort key (its plan node's first join
/// predicate), with any further equi-join predicates applied as residual
/// checks. Inputs must be sorted ascending on their respective key
/// attributes — the optimizer guarantees this via required physical
/// properties (B-tree scans or Sort enforcers).
///
/// The join walks a left and a right batch by live position. The right
/// rows sharing the current key are kept as a dense [`RowBatch`] (a group
/// may span right batches, and is reused while the left key repeats);
/// output is gathered column-wise — the left row's values repeated, the
/// group's columns copied — and a request that fills mid-group resumes
/// there.
///
/// **Read-ahead.** The join ends when its *left* input does, and pulls
/// its inputs by batch like every operator: when it ends, its right input
/// has produced — fetched, compared, charged for — up to `max_rows - 1`
/// rows past the last one the join looked at. This is the only operator
/// that stops pulling an input early, so the only place that bound
/// matters; the cost model charges a merge join for both inputs whole, so
/// the overshoot cannot leave the plan's compile-time cost interval
/// (`tests/executor_validation.rs` pins this, with a sort and with a
/// B-tree scan on the right).
pub struct MergeJoinExec<'a> {
    left: BoxedOperator<'a>,
    right: BoxedOperator<'a>,
    left_key: usize,
    right_key: usize,
    /// Residual (left position, right position) equality checks.
    residual: Vec<(usize, usize)>,
    layout: TupleLayout,
    ctx: ExecContext,
    left_in: Side,
    right_in: Side,
    /// The right rows sharing one key, dense. Empty when the last key
    /// looked for had no match.
    group: RowBatch,
    /// Whether the left row under the cursor is being paired with the
    /// group, and the group row to go on from.
    pairing: bool,
    group_pos: usize,
    /// Group rows the current request takes; kept for its allocation.
    matched: Vec<u32>,
}

impl<'a> MergeJoinExec<'a> {
    /// Creates a merge join; `left_key`/`right_key` are positions of the
    /// sort attributes within each input's layout.
    #[must_use]
    pub fn new(
        left: BoxedOperator<'a>,
        right: BoxedOperator<'a>,
        left_key: usize,
        right_key: usize,
        residual: Vec<(usize, usize)>,
        ctx: ExecContext,
    ) -> Self {
        let layout = left.layout().concat(right.layout());
        let group = RowBatch::with_capacity(right.layout().width(), 0);
        MergeJoinExec {
            left,
            right,
            left_key,
            right_key,
            residual,
            layout,
            ctx,
            left_in: Side::default(),
            right_in: Side::default(),
            group,
            pairing: false,
            group_pos: 0,
            matched: Vec::new(),
        }
    }

    /// Loads the group of right rows with key == `key` (the right cursor
    /// is at or before that group), counting one compare per right row
    /// examined. The row that ends the search — the first one past the
    /// key — stays under the cursor and is examined again by the next
    /// search.
    fn load_right_group(
        &mut self,
        key: i64,
        max_rows: usize,
        compares: &mut u64,
    ) -> Result<(), ExecError> {
        self.group.clear();
        let side = &mut self.right_in;
        while let Some(row) = side.head(self.right.as_mut(), max_rows)? {
            *compares += 1;
            match side.batch.column(self.right_key)[row].cmp(&key) {
                Ordering::Less => {}
                Ordering::Equal => self.group.extend_from_live(&side.batch, side.pos..side.pos + 1),
                Ordering::Greater => break,
            }
            side.pos += 1;
        }
        Ok(())
    }

    /// Appends pairs of the left row under the cursor and group rows from
    /// `group_pos` on to `out`, as many as `max_rows` leaves room for.
    fn emit(&mut self, max_rows: usize, out: &mut RowBatch) {
        let l = self.left_in.batch.physical(self.left_in.pos);
        let (left, group) = (self.left_in.batch.columns(), self.group.columns());
        let room = max_rows - out.rows();
        self.matched.clear();
        while self.group_pos < self.group.rows() && self.matched.len() < room {
            let g = self.group_pos;
            self.group_pos += 1;
            if self.residual.iter().all(|&(lc, rc)| left[lc][l] == group[rc][g]) {
                self.matched.push(g as u32);
            }
        }
        let matched = &self.matched;
        out.extend_rows_with(matched.len(), |cols| {
            let (left_cols, right_cols) = cols.split_at_mut(left.len());
            for (col, from) in left_cols.iter_mut().zip(left) {
                col.resize(col.len() + matched.len(), from[l]);
            }
            for (col, from) in right_cols.iter_mut().zip(group) {
                col.extend(matched.iter().map(|&g| from[g as usize]));
            }
        });
    }

    /// Fills `out` up to `max_rows`, or as far as the left input goes.
    fn merge(
        &mut self,
        max_rows: usize,
        out: &mut RowBatch,
        compares: &mut u64,
    ) -> Result<(), ExecError> {
        loop {
            if self.pairing {
                self.emit(max_rows, out);
                if self.group_pos < self.group.rows() {
                    return Ok(());
                }
                self.pairing = false;
                self.left_in.pos += 1;
            }
            if out.rows() == max_rows {
                return Ok(());
            }
            let Some(row) = self.left_in.head(self.left.as_mut(), max_rows)? else {
                return Ok(());
            };
            let key = self.left_in.batch.column(self.left_key)[row];
            // Reuse the group if the key repeats; otherwise reload.
            let same_key = self.group.rows() > 0 && self.group.column(self.right_key)[0] == key;
            if !same_key {
                self.load_right_group(key, max_rows, compares)?;
            }
            self.group_pos = 0;
            self.pairing = true;
        }
    }
}

impl Operator for MergeJoinExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.left.open()?;
        self.right.open()?;
        self.left_in = Side::default();
        self.right_in = Side::default();
        self.group.clear();
        self.pairing = false;
        Ok(())
    }

    /// One record per joined row and one compare per right row examined,
    /// charged once per call — also for the work of a call that failed.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let mut out = RowBatch::with_capacity(self.layout.width(), 0);
        let mut compares = 0;
        let merged = self.merge(max_rows, &mut out, &mut compares);
        self.ctx.counters.add_compares(compares);
        self.ctx.counters.add_records(out.rows() as u64);
        merged?;
        self.ctx.governor.check_batch(out.rows() as u64)?;
        Ok((out.rows() > 0).then_some(out))
    }

    fn close(&mut self) {
        self.left.close();
        self.right.close();
        self.left_in = Side::default();
        self.right_in = Side::default();
        self.group.clear();
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }
}
