//! External merge sort.
//!
//! Run formation buffers up to `buffer_pages` worth of tuples, sorts them,
//! and spills each run to a scratch heap. Merging is fan-in limited to
//! `buffer_pages - 1` runs per pass, with intermediate passes writing new
//! runs — so the page traffic follows the classic
//! `2 · P · (1 + ⌈log_{B−1}(runs)⌉)` shape the cost model charges. Inputs
//! that fit in the buffer never spill. Sorted output is re-batched to
//! `batch_rows` tuples per `next_batch()` call.
//!
//! Runs are freed as soon as nothing reads them: an intermediate pass
//! drops its input runs, and the final merge's runs live beside its
//! [`Merge`] (a [`HeapScan`] does not keep its heap alive), so they
//! go when the operator does — finished, failed or killed. A spill that
//! fits the pool therefore never reaches the disk.

use std::cmp::Ordering;
use std::sync::Arc;

use evopt_common::{Batch, Result, Schema, Tuple, Value};
use evopt_storage::heap::HeapScan;
use evopt_storage::{HeapFile, USABLE_PAGE_BYTES};

use crate::executor::{invariant, BatchCursor, ExecEnv, Executor};

/// Sort keys: (column ordinal, ascending).
type Keys = Vec<(usize, bool)>;

/// Semantics audit: ORDER BY wants the **total order** (`Value::cmp` —
/// NULLs first, cross-class by rank), not three-valued `sql_cmp`. A
/// comparator returning "unknown" cannot sort; placing NULLs at a defined
/// end is exactly what SQL's NULL ordering rule asks for.
fn compare(a: &Tuple, b: &Tuple, keys: &Keys) -> Ordering {
    for &(col, asc) in keys {
        let (va, vb) = (
            a.value(col).unwrap_or(&Value::Null),
            b.value(col).unwrap_or(&Value::Null),
        );
        let ord = va.cmp(vb);
        let ord = if asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// External merge sort operator.
pub struct SortExec {
    input: Option<BatchCursor>,
    env: ExecEnv,
    keys: Keys,
    schema: Schema,
    /// In-memory result when the input fit in the buffer.
    memory: Option<std::vec::IntoIter<Tuple>>,
    /// Final merge otherwise, and the runs it reads: dropping them frees
    /// their pages.
    merge: Option<(Vec<HeapFile>, Merge)>,
}

/// A k-way merge of sorted runs, for an intermediate pass and the final
/// one alike. Each run's next row waits in `heads`; `order` is a binary
/// min-heap of run indices compared through the sort's keys, borrowed at
/// each call, with ties going to the earlier run, so the merge keeps the
/// input order of equal rows as the in-memory sort does.
struct Merge {
    scans: Vec<HeapScan>,
    heads: Vec<Option<Tuple>>,
    order: Vec<usize>,
}

impl Merge {
    fn new(runs: &[HeapFile], keys: &Keys) -> Result<Merge> {
        let mut scans: Vec<HeapScan> = runs.iter().map(|r| r.scan()).collect();
        let heads = scans
            .iter_mut()
            .map(|scan| Ok(scan.next().transpose()?.map(|(_, t)| t)))
            .collect::<Result<Vec<_>>>()?;
        let mut merge = Merge {
            scans,
            order: (0..heads.len()).filter(|&r| heads[r].is_some()).collect(),
            heads,
        };
        for at in (0..merge.order.len() / 2).rev() {
            merge.sift_down(at, keys);
        }
        Ok(merge)
    }

    /// Whether run `a`'s head comes before run `b`'s.
    fn before(&self, a: usize, b: usize, keys: &Keys) -> bool {
        match (&self.heads[a], &self.heads[b]) {
            (Some(x), Some(y)) => compare(x, y, keys).then(a.cmp(&b)).is_lt(),
            _ => false,
        }
    }

    fn sift_down(&mut self, mut at: usize, keys: &Keys) {
        loop {
            let (left, right) = (2 * at + 1, 2 * at + 2);
            let mut least = at;
            for child in [left, right] {
                if child < self.order.len()
                    && self.before(self.order[child], self.order[least], keys)
                {
                    least = child;
                }
            }
            if least == at {
                return;
            }
            self.order.swap(at, least);
            at = least;
        }
    }

    /// The least head of all runs, its place taken by the next row of its
    /// run.
    fn next(&mut self, keys: &Keys) -> Result<Option<Tuple>> {
        let Some(&run) = self.order.first() else {
            return Ok(None);
        };
        let next = self.scans[run].next().transpose()?.map(|(_, t)| t);
        let row = std::mem::replace(&mut self.heads[run], next);
        if self.heads[run].is_none() {
            self.order.swap_remove(0);
        }
        self.sift_down(0, keys);
        Ok(row)
    }
}

impl SortExec {
    pub fn new(input: Box<dyn Executor>, env: ExecEnv, keys: Keys) -> Self {
        let schema = input.schema().clone();
        SortExec {
            input: Some(BatchCursor::new(input)),
            env,
            keys,
            schema,
            memory: None,
            merge: None,
        }
    }

    fn budget(&self) -> usize {
        self.env.buffer_pages.max(3) * USABLE_PAGE_BYTES
    }

    fn fan_in(&self) -> usize {
        (self.env.buffer_pages.max(3) - 1).max(2)
    }

    fn prepare(&mut self) -> Result<()> {
        let mut input = invariant(self.input.take(), "sort prepared only once")?;
        let budget = self.budget();
        // Run formation.
        let mut runs: Vec<HeapFile> = Vec::new();
        let mut buffer: Vec<Tuple> = Vec::new();
        let mut bytes = 0usize;
        let mut exhausted = false;
        while !exhausted {
            match input.next_row()? {
                Some(t) => {
                    bytes += t.encoded_len();
                    buffer.push(t);
                }
                None => exhausted = true,
            }
            if bytes > budget || (exhausted && !runs.is_empty() && !buffer.is_empty()) {
                buffer.sort_by(|a, b| compare(a, b, &self.keys));
                let run = HeapFile::scratch(Arc::clone(self.env.catalog.pool()))?;
                for t in buffer.drain(..) {
                    run.insert(&t)?;
                }
                runs.push(run);
                bytes = 0;
            }
        }
        if runs.is_empty() {
            // Everything fit in memory.
            buffer.sort_by(|a, b| compare(a, b, &self.keys));
            self.memory = Some(buffer.into_iter());
            return Ok(());
        }
        self.env.record_spill();
        // Multi-pass merge down to <= fan_in runs.
        let fan_in = self.fan_in();
        while runs.len() > fan_in {
            let mut next_runs = Vec::new();
            for chunk in runs.chunks(fan_in) {
                let mut merge = Merge::new(chunk, &self.keys)?;
                let out = HeapFile::scratch(Arc::clone(self.env.catalog.pool()))?;
                while let Some(t) = merge.next(&self.keys)? {
                    out.insert(&t)?;
                }
                next_runs.push(out);
            }
            runs = next_runs;
        }
        let merge = Merge::new(&runs, &self.keys)?;
        self.merge = Some((runs, merge));
        Ok(())
    }
}

impl Executor for SortExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.memory.is_none() && self.merge.is_none() {
            self.prepare()?;
        }
        let batch_rows = self.env.batch_rows;
        if let Some(iter) = &mut self.memory {
            let rows: Vec<Tuple> = iter.by_ref().take(batch_rows).collect();
            if rows.is_empty() {
                return Ok(None);
            }
            return Ok(Some(Batch::new(self.schema.clone(), rows)));
        }
        let (_, merge) = invariant(self.merge.as_mut(), "merge prepared")?;
        let mut batch = Batch::with_capacity(self.schema.clone(), batch_rows);
        while batch.len() < batch_rows {
            let Some(t) = merge.next(&self.keys)? else {
                break;
            };
            batch.push(t);
        }
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }
}
