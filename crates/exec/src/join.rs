//! Join operators.
//!
//! Five physical joins, each with the I/O behaviour its cost formula
//! assumes:
//!
//! * [`NestedLoopJoinExec`] — re-opens the inner plan per outer row.
//! * [`BlockNestedLoopJoinExec`] — materialises the inner to a scratch
//!   heap once, then re-reads it once per outer *block*.
//! * [`IndexNestedLoopJoinExec`] — probes a B+-tree per outer row.
//! * [`SortMergeJoinExec`] — linear merge of two key-sorted inputs
//!   (duplicate groups handled; the optimizer inserts any needed sorts).
//! * [`HashJoinExec`] — in-memory build when the build side fits the
//!   configured buffer budget, Grace partitioning to scratch heaps when
//!   it doesn't (each partition pair freed once its probe finishes).
//!
//! All five consume and produce [`Batch`]es: inputs arrive through
//! [`BatchCursor`]s (one virtual call per input batch), matches accumulate
//! in a [`BatchBuilder`] and flush in capped batches, so a probe that fans
//! out to many matches still never emits an oversized batch.
//!
//! SQL join semantics: NULL keys never match.

use std::sync::Arc;

use evopt_catalog::TableInfo;
use evopt_common::{Batch, EvoptError, Expr, Result, Schema, Tuple, Value};
use evopt_storage::heap::HeapScan;
use evopt_storage::{HeapFile, USABLE_PAGE_BYTES};

use crate::executor::{invariant, BatchBuilder, BatchCursor, ExecEnv, Executor};
use crate::join_key::JoinKeyMap;

fn passes(residual: &Option<Expr>, t: &Tuple) -> Result<bool> {
    match residual {
        Some(p) => p.eval_predicate(t),
        None => Ok(true),
    }
}

// ---------------------------------------------------------------------------
// Tuple nested loops
// ---------------------------------------------------------------------------

/// Factory that (re-)instantiates a nested-loop join's inner plan. The
/// executor builder supplies one so instrumented runs can rebind every
/// re-open to the same metric slots.
pub type RightBuilder = Box<dyn Fn() -> Result<Box<dyn Executor>>>;

/// For each outer tuple, re-open and drain the inner plan batch by batch.
pub struct NestedLoopJoinExec {
    left: BatchCursor,
    right_builder: RightBuilder,
    predicate: Option<Expr>,
    schema: Schema,
    current_left: Option<Tuple>,
    right: Option<Box<dyn Executor>>,
    out: BatchBuilder,
}

impl NestedLoopJoinExec {
    pub fn new(
        left: Box<dyn Executor>,
        right_builder: RightBuilder,
        predicate: Option<Expr>,
        schema: Schema,
        batch_rows: usize,
    ) -> Self {
        NestedLoopJoinExec {
            left: BatchCursor::new(left),
            right_builder,
            predicate,
            out: BatchBuilder::new(schema.clone(), batch_rows),
            schema,
            current_left: None,
            right: None,
        }
    }
}

impl Executor for NestedLoopJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            if self.out.full() {
                return Ok(self.out.flush());
            }
            if self.current_left.is_none() {
                match self.left.next_row()? {
                    Some(t) => {
                        self.current_left = Some(t);
                        self.right = Some((self.right_builder)()?);
                    }
                    // Outer exhausted: drain whatever is buffered.
                    None => return Ok(self.out.flush()),
                }
            }
            let lt = invariant(
                self.current_left.as_ref(),
                "outer row set before inner drain",
            )?;
            let right = invariant(self.right.as_mut(), "inner opened with outer row")?;
            match right.next_batch()? {
                Some(rb) => {
                    for rt in rb.iter() {
                        let combined = lt.join(rt);
                        if passes(&self.predicate, &combined)? {
                            self.out.push(combined);
                        }
                    }
                }
                None => self.current_left = None,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Block nested loops
// ---------------------------------------------------------------------------

/// Materialise the inner once; stream the outer in blocks of
/// `(block_pages - 2)` pages; scan the inner once per block, joining each
/// inner row against the whole resident block.
pub struct BlockNestedLoopJoinExec {
    left: BatchCursor,
    right: Option<Box<dyn Executor>>,
    env: ExecEnv,
    predicate: Option<Expr>,
    block_bytes: usize,
    schema: Schema,
    temp: Option<HeapFile>,
    block: Vec<Tuple>,
    left_done: bool,
    inner_scan: Option<HeapScan>,
    out: BatchBuilder,
}

impl BlockNestedLoopJoinExec {
    pub fn new(
        left: Box<dyn Executor>,
        right: Box<dyn Executor>,
        env: ExecEnv,
        predicate: Option<Expr>,
        block_pages: usize,
        schema: Schema,
    ) -> Self {
        let block_bytes = block_pages.saturating_sub(2).max(1) * USABLE_PAGE_BYTES;
        BlockNestedLoopJoinExec {
            left: BatchCursor::new(left),
            right: Some(right),
            predicate,
            block_bytes,
            out: BatchBuilder::new(schema.clone(), env.batch_rows),
            env,
            schema,
            temp: None,
            block: Vec::new(),
            left_done: false,
            inner_scan: None,
        }
    }

    fn materialise_inner(&mut self) -> Result<()> {
        let heap = HeapFile::scratch(Arc::clone(self.env.catalog.pool()))?;
        let mut right = invariant(self.right.take(), "inner materialised only once")?;
        while let Some(batch) = right.next_batch()? {
            for t in batch.iter() {
                heap.insert(t)?;
            }
        }
        self.temp = Some(heap);
        Ok(())
    }

    fn load_block(&mut self) -> Result<bool> {
        self.block.clear();
        if self.left_done {
            return Ok(false);
        }
        let mut bytes = 0usize;
        while bytes < self.block_bytes {
            match self.left.next_row()? {
                Some(t) => {
                    bytes += t.encoded_len();
                    self.block.push(t);
                }
                None => {
                    self.left_done = true;
                    break;
                }
            }
        }
        Ok(!self.block.is_empty())
    }
}

impl Executor for BlockNestedLoopJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.temp.is_none() {
            self.materialise_inner()?;
            if !self.load_block()? {
                return Ok(None);
            }
            self.inner_scan = Some(invariant(self.temp.as_ref(), "inner heap built")?.scan());
        }
        loop {
            if self.out.full() {
                return Ok(self.out.flush());
            }
            let scan = invariant(self.inner_scan.as_mut(), "inner scan open")?;
            match scan.next().transpose()? {
                Some((_, rt)) => {
                    for lt in &self.block {
                        let combined = lt.join(&rt);
                        if passes(&self.predicate, &combined)? {
                            self.out.push(combined);
                        }
                    }
                }
                None => {
                    // Inner exhausted for this block: next block.
                    if !self.load_block()? {
                        return Ok(self.out.flush());
                    }
                    self.inner_scan =
                        Some(invariant(self.temp.as_ref(), "inner heap built")?.scan());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Index nested loops
// ---------------------------------------------------------------------------

/// Probe a B+-tree on the inner base table per outer row.
pub struct IndexNestedLoopJoinExec {
    outer: BatchCursor,
    inner: Arc<TableInfo>,
    index: Arc<evopt_catalog::IndexInfo>,
    outer_key: usize,
    residual: Option<Expr>,
    schema: Schema,
    out: BatchBuilder,
}

impl IndexNestedLoopJoinExec {
    pub fn new(
        outer: Box<dyn Executor>,
        env: &ExecEnv,
        inner_table: &str,
        index: &str,
        outer_key: usize,
        residual: Option<Expr>,
        schema: Schema,
    ) -> Result<Self> {
        let inner = env.catalog.table(inner_table)?;
        let index = inner
            .indexes()
            .iter()
            .find(|i| i.name == index)
            .cloned()
            .ok_or_else(|| {
                EvoptError::Execution(format!("unknown index '{index}' on '{inner_table}'"))
            })?;
        Ok(IndexNestedLoopJoinExec {
            outer: BatchCursor::new(outer),
            inner,
            index,
            outer_key,
            residual,
            out: BatchBuilder::new(schema.clone(), env.batch_rows),
            schema,
        })
    }
}

impl Executor for IndexNestedLoopJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            if self.out.full() {
                return Ok(self.out.flush());
            }
            let Some(lt) = self.outer.next_row()? else {
                return Ok(self.out.flush());
            };
            let key = lt.value(self.outer_key)?;
            if key.is_null() {
                continue;
            }
            for rid in self.index.btree.search_eq(key)? {
                let rt = self.inner.heap.get(rid)?.ok_or_else(|| {
                    EvoptError::Execution(format!("index points at deleted rid {rid}"))
                })?;
                // Re-keyed in its slot by an UPDATE beside this read (see
                // `IndexScanExec`): no longer a match.
                if rt.value(self.index.column)? != key {
                    continue;
                }
                let combined = lt.join(&rt);
                if passes(&self.residual, &combined)? {
                    self.out.push(combined);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sort-merge join
// ---------------------------------------------------------------------------

/// Linear merge of two inputs sorted ascending on their keys.
pub struct SortMergeJoinExec {
    left: BatchCursor,
    right: BatchCursor,
    left_key: usize,
    right_key: usize,
    residual: Option<Expr>,
    schema: Schema,
    group: Vec<Tuple>,
    group_key: Option<Value>,
    lookahead: Option<Tuple>,
    right_done: bool,
    out: BatchBuilder,
}

impl SortMergeJoinExec {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: Box<dyn Executor>,
        right: Box<dyn Executor>,
        left_key: usize,
        right_key: usize,
        residual: Option<Expr>,
        schema: Schema,
        batch_rows: usize,
    ) -> Self {
        SortMergeJoinExec {
            left: BatchCursor::new(left),
            right: BatchCursor::new(right),
            left_key,
            right_key,
            residual,
            out: BatchBuilder::new(schema.clone(), batch_rows),
            schema,
            group: Vec::new(),
            group_key: None,
            lookahead: None,
            right_done: false,
        }
    }

    /// Load the next duplicate group from the right input. Returns false
    /// when the right side is exhausted.
    fn advance_group(&mut self) -> Result<bool> {
        self.group.clear();
        self.group_key = None;
        // First tuple of the group (skipping NULL keys).
        let first = loop {
            let t = match self.lookahead.take() {
                Some(t) => Some(t),
                None => self.right.next_row()?,
            };
            match t {
                None => {
                    self.right_done = true;
                    return Ok(false);
                }
                Some(t) => {
                    if t.value(self.right_key)?.is_null() {
                        continue;
                    }
                    break t;
                }
            }
        };
        let key = first.value(self.right_key)?.clone();
        self.group.push(first);
        // Absorb duplicates.
        loop {
            match self.right.next_row()? {
                None => {
                    self.right_done = true;
                    break;
                }
                Some(t) => {
                    let k = t.value(self.right_key)?;
                    if k.is_null() {
                        continue;
                    }
                    // Key equality is SQL equality, not the derived `Eq`
                    // (whose `Null == Null` would be wrong for join keys).
                    // NULLs were skipped above, so both agree here — but
                    // routing through `sql_key_eq` keeps that a fact of
                    // the comparison, not of the surrounding control flow.
                    if k.sql_key_eq(&key) {
                        self.group.push(t);
                    } else {
                        self.lookahead = Some(t);
                        break;
                    }
                }
            }
        }
        self.group_key = Some(key);
        Ok(true)
    }
}

impl Executor for SortMergeJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            if self.out.full() {
                return Ok(self.out.flush());
            }
            let Some(lt) = self.left.next_row()? else {
                return Ok(self.out.flush());
            };
            let lkey = lt.value(self.left_key)?.clone();
            if lkey.is_null() {
                continue;
            }
            // Advance the right group until its key >= left key. Both keys
            // are non-null here, so `sql_cmp` always answers; a NULL would
            // have no defined merge position (which is why both sides skip
            // NULL keys before ever comparing).
            while self.group_key.as_ref().map_or(!self.right_done, |k| {
                k.sql_cmp(&lkey) == Some(std::cmp::Ordering::Less)
            }) {
                if !self.advance_group()? {
                    break;
                }
            }
            // Emit every match of this left row (the group stays resident
            // for following duplicates on the left). SQL key equality:
            // NULL never matches (see `Value::sql_key_eq`).
            if self.group_key.as_ref().is_some_and(|k| k.sql_key_eq(&lkey)) {
                for rt in &self.group {
                    let combined = lt.join(rt);
                    if passes(&self.residual, &combined)? {
                        self.out.push(combined);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hash join (in-memory or Grace)
// ---------------------------------------------------------------------------

/// Build rows plus their key index: the one structure both hash-join
/// states probe. The [`JoinKeyMap`] owns the NULL-never-matches rule.
struct BuildSide {
    rows: Vec<Tuple>,
    keys: JoinKeyMap,
}

impl BuildSide {
    fn new(rows: Vec<Tuple>, key: usize) -> Result<BuildSide> {
        let keys = JoinKeyMap::build(&rows, key)?;
        Ok(BuildSide { rows, keys })
    }

    /// Push `lt` joined with every build row its key `probe` matches.
    fn probe(
        &self,
        lt: &Tuple,
        probe: &Value,
        residual: &Option<Expr>,
        out: &mut BatchBuilder,
    ) -> Result<()> {
        for &ri in self.keys.lookup(probe) {
            let combined = lt.join(&self.rows[ri as usize]);
            if passes(residual, &combined)? {
                out.push(combined);
            }
        }
        Ok(())
    }
}

enum HashJoinState {
    /// Not started.
    Init,
    /// Build side fit in memory.
    InMemory(BuildSide),
    /// Grace: both sides partitioned to scratch heaps; joined per
    /// partition.
    Grace {
        /// (probe side, build side) partition pairs not yet joined.
        parts: std::vec::IntoIter<(HeapFile, HeapFile)>,
        build: BuildSide,
        /// The partition being probed: its probe-side heap, held while the
        /// scan reads it and freed when the scan ends.
        probe: Option<(HeapFile, HeapScan)>,
    },
}

/// Hash join: builds on the right input, probes with the left (probe order
/// — and therefore any left sort order — is preserved).
pub struct HashJoinExec {
    left: Option<Box<dyn Executor>>,
    right: Option<Box<dyn Executor>>,
    env: ExecEnv,
    left_key: usize,
    right_key: usize,
    residual: Option<Expr>,
    schema: Schema,
    state: HashJoinState,
    out: BatchBuilder,
}

impl HashJoinExec {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: Box<dyn Executor>,
        right: Box<dyn Executor>,
        env: ExecEnv,
        left_key: usize,
        right_key: usize,
        residual: Option<Expr>,
        schema: Schema,
    ) -> Self {
        HashJoinExec {
            left: Some(left),
            right: Some(right),
            left_key,
            right_key,
            residual,
            out: BatchBuilder::new(schema.clone(), env.batch_rows),
            env,
            schema,
            state: HashJoinState::Init,
        }
    }

    fn build(&mut self) -> Result<()> {
        let mut right = invariant(self.right.take(), "build side consumed only once")?;
        let mut build_rows: Vec<Tuple> = Vec::new();
        let mut bytes = 0usize;
        while let Some(batch) = right.next_batch()? {
            for t in batch.into_rows() {
                if t.value(self.right_key)?.is_null() {
                    continue;
                }
                bytes += t.encoded_len();
                build_rows.push(t);
            }
        }
        let budget = self.env.buffer_pages.max(3) * USABLE_PAGE_BYTES;
        if bytes <= budget {
            self.state = HashJoinState::InMemory(BuildSide::new(build_rows, self.right_key)?);
            return Ok(());
        }
        // Grace: partition both sides so each build partition fits.
        self.env.record_spill();
        let parts = (bytes / budget + 2).max(2);
        let pool = self.env.catalog.pool();
        let mk_parts = || -> Result<Vec<HeapFile>> {
            (0..parts)
                .map(|_| HeapFile::scratch(Arc::clone(pool)))
                .collect()
        };
        let right_parts = mk_parts()?;
        for t in build_rows {
            let k = t.value(self.right_key)?;
            right_parts[partition_of(k, parts)].insert(&t)?;
        }
        let left_parts = mk_parts()?;
        let mut left = invariant(self.left.take(), "probe side present for Grace split")?;
        while let Some(batch) = left.next_batch()? {
            for t in batch.iter() {
                let k = t.value(self.left_key)?;
                if k.is_null() {
                    continue;
                }
                left_parts[partition_of(k, parts)].insert(t)?;
            }
        }
        self.state = HashJoinState::Grace {
            parts: left_parts
                .into_iter()
                .zip(right_parts)
                .collect::<Vec<_>>()
                .into_iter(),
            build: BuildSide::new(Vec::new(), self.right_key)?,
            probe: None,
        };
        Ok(())
    }
}

fn partition_of(v: &Value, parts: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    (h.finish() as usize) % parts
}

impl Executor for HashJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if matches!(self.state, HashJoinState::Init) {
            self.build()?;
        }
        loop {
            if self.out.full() {
                return Ok(self.out.flush());
            }
            match &mut self.state {
                HashJoinState::Init => {
                    return Err(EvoptError::Internal("hash join probed before build".into()))
                }
                HashJoinState::InMemory(build) => {
                    let left = invariant(self.left.as_mut(), "in-memory join keeps probe side")?;
                    match left.next_batch()? {
                        Some(batch) => {
                            for lt in batch.rows() {
                                let k = lt.value(self.left_key)?;
                                build.probe(lt, k, &self.residual, &mut self.out)?;
                            }
                        }
                        None => return Ok(self.out.flush()),
                    }
                }
                HashJoinState::Grace {
                    parts,
                    build,
                    probe,
                } => {
                    if probe.is_none() {
                        let Some((left_part, right_part)) = parts.next() else {
                            return Ok(self.out.flush());
                        };
                        // Build this partition's index; its build-side heap is
                        // freed at the end of this block.
                        let rows = right_part
                            .scan()
                            .map(|item| item.map(|(_, t)| t))
                            .collect::<Result<Vec<Tuple>>>()?;
                        *build = BuildSide::new(rows, self.right_key)?;
                        let scan = left_part.scan();
                        *probe = Some((left_part, scan));
                    }
                    let (_, scan) = invariant(probe.as_mut(), "partition probe scan open")?;
                    match scan.next().transpose()? {
                        Some((_, lt)) => {
                            let k = lt.value(self.left_key)?;
                            build.probe(&lt, k, &self.residual, &mut self.out)?;
                        }
                        None => *probe = None,
                    }
                }
            }
        }
    }
}
