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
//! drops its input runs, and the final merge's runs live in its
//! [`MergeState`] (a [`HeapScan`] does not keep its heap alive), so they
//! go when the operator does — finished, failed or killed. A spill that
//! fits the pool therefore never reaches the disk.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use evopt_common::{Batch, Result, Schema, Tuple, Value};
use evopt_storage::heap::HeapScan;
use evopt_storage::HeapFile;

use crate::executor::{invariant, BatchCursor, ExecEnv, Executor};

const USABLE_PAGE_BYTES: usize = 4084;

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
    /// Final merge state otherwise.
    merge: Option<MergeState>,
}

struct MergeState {
    /// The runs `scans` read; dropping them frees their pages.
    _runs: Vec<HeapFile>,
    scans: Vec<HeapScan>,
    heap: BinaryHeap<HeapEntry>,
    keys: Keys,
}

/// Min-heap entry (reversed comparison).
struct HeapEntry {
    tuple: Tuple,
    run: usize,
    keys: Keys,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        compare(&self.tuple, &other.tuple, &self.keys) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest first.
        compare(&other.tuple, &self.tuple, &self.keys)
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
                next_runs.push(self.merge_runs(chunk)?);
            }
            runs = next_runs;
        }
        // Final streaming merge.
        let mut scans: Vec<HeapScan> = runs.iter().map(|r| r.scan()).collect();
        let mut heap = BinaryHeap::new();
        for (i, scan) in scans.iter_mut().enumerate() {
            if let Some(item) = scan.next().transpose()? {
                heap.push(HeapEntry {
                    tuple: item.1,
                    run: i,
                    keys: self.keys.clone(),
                });
            }
        }
        self.merge = Some(MergeState {
            _runs: runs,
            scans,
            heap,
            keys: self.keys.clone(),
        });
        Ok(())
    }

    /// Merge a chunk of sorted runs into one new run on disk.
    fn merge_runs(&self, runs: &[HeapFile]) -> Result<HeapFile> {
        let out = HeapFile::scratch(Arc::clone(self.env.catalog.pool()))?;
        let mut scans: Vec<HeapScan> = runs.iter().map(|r| r.scan()).collect();
        let mut heap = BinaryHeap::new();
        for (i, scan) in scans.iter_mut().enumerate() {
            if let Some(item) = scan.next().transpose()? {
                heap.push(HeapEntry {
                    tuple: item.1,
                    run: i,
                    keys: self.keys.clone(),
                });
            }
        }
        while let Some(entry) = heap.pop() {
            out.insert(&entry.tuple)?;
            if let Some(item) = scans[entry.run].next().transpose()? {
                heap.push(HeapEntry {
                    tuple: item.1,
                    run: entry.run,
                    keys: self.keys.clone(),
                });
            }
        }
        Ok(out)
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
        let state = invariant(self.merge.as_mut(), "merge state prepared")?;
        let mut batch = Batch::with_capacity(self.schema.clone(), batch_rows);
        while batch.len() < batch_rows {
            let Some(entry) = state.heap.pop() else { break };
            if let Some(item) = state.scans[entry.run].next().transpose()? {
                state.heap.push(HeapEntry {
                    tuple: item.1,
                    run: entry.run,
                    keys: state.keys.clone(),
                });
            }
            batch.push(entry.tuple);
        }
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }
}
