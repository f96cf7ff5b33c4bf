//! The [`Executor`] trait and the plan→executor builder.

use std::sync::Arc;
use std::time::Instant;

use evopt_catalog::Catalog;
use evopt_common::{Batch, Result, Schema, Tuple, DEFAULT_BATCH_ROWS};
use evopt_core::physical::{PhysOp, PhysicalPlan};
use evopt_obs::Counter;
use evopt_storage::Rid;

use crate::governor::{CancellationToken, GovernorConfig, QueryGovernor};
use crate::metrics::{InstrumentedExec, MetricsRegistry, QueryMetrics};
use crate::scan::{IndexScanExec, RidScan, SeqScanExec};

/// Execution environment shared by all operators of one query.
#[derive(Clone)]
pub struct ExecEnv {
    pub catalog: Arc<Catalog>,
    /// Buffer pages operators may assume for blocking/spilling decisions
    /// (mirrors the cost model's `buffer_pages`).
    pub buffer_pages: usize,
    /// Target rows per [`Batch`] produced by every operator. Always ≥ 1.
    pub batch_rows: usize,
    /// What this environment's drains did, counted as they run. The
    /// engine makes one environment per statement and adds its counts to
    /// the registries of the instance and the issuing session.
    pub counts: Arc<ExecCounts>,
}

/// The executor's own counts: the batches and rows root drains returned,
/// and the operators that spilled.
#[derive(Debug, Default)]
pub struct ExecCounts {
    pub batches: Counter,
    pub rows: Counter,
    pub spills: Counter,
}

impl ExecEnv {
    pub fn new(catalog: Arc<Catalog>, buffer_pages: usize) -> Self {
        ExecEnv {
            catalog,
            buffer_pages,
            batch_rows: DEFAULT_BATCH_ROWS,
            counts: Arc::default(),
        }
    }

    /// Override the batch capacity (clamped to ≥ 1 — a zero-row batch can
    /// never make progress).
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows.max(1);
        self
    }

    /// Record root-drain output volume.
    pub(crate) fn record_output(&self, batches: u64, rows: u64) {
        self.counts.batches.add(batches);
        self.counts.rows.add(rows);
    }

    /// Record one operator spilling to disk.
    pub(crate) fn record_spill(&self) {
        self.counts.spills.inc();
    }
}

/// Unwrap a state option an operator establishes by construction. A `None`
/// is an executor bug — surfaced as `EvoptError::Internal` instead of a
/// panic so a fault mid-query can never take the process down.
pub(crate) fn invariant<T>(opt: Option<T>, what: &str) -> Result<T> {
    opt.ok_or_else(|| {
        evopt_common::EvoptError::Internal(format!("executor state invariant violated: {what}"))
    })
}

/// A batch-at-a-time Volcano iterator: produces runs of tuples.
///
/// Contract: `next_batch` returns `Ok(Some(batch))` with a **non-empty**
/// batch of at most the environment's `batch_rows` rows, or `Ok(None)` once
/// exhausted (and on every call thereafter).
pub trait Executor {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// The next batch of rows, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<Batch>>;
}

/// Pull-side adapter: buffers the child's batches and serves rows one at a
/// time. Row-logic operators (merge join, sort run formation, aggregate
/// accumulation) consume through this so they pay one virtual
/// `next_batch()` per batch — the per-row step is a slice index, not a
/// dynamic dispatch.
pub struct BatchCursor {
    input: Box<dyn Executor>,
    batch: std::vec::IntoIter<Tuple>,
    done: bool,
}

impl BatchCursor {
    pub fn new(input: Box<dyn Executor>) -> BatchCursor {
        BatchCursor {
            input,
            batch: Vec::new().into_iter(),
            done: false,
        }
    }

    pub fn schema(&self) -> &Schema {
        self.input.schema()
    }

    /// The next row, refilling from the child when the buffered batch runs
    /// dry.
    pub fn next_row(&mut self) -> Result<Option<Tuple>> {
        loop {
            if let Some(t) = self.batch.next() {
                return Ok(Some(t));
            }
            if self.done {
                return Ok(None);
            }
            match self.input.next_batch()? {
                Some(b) => self.batch = b.into_rows().into_iter(),
                None => self.done = true,
            }
        }
    }
}

/// Output-side buffer: operators that generate rows incrementally (joins,
/// streaming aggregates) push here and flush batches of at most `target`
/// rows, so no emitted batch exceeds the configured capacity even when one
/// probe fans out to many matches.
pub(crate) struct BatchBuilder {
    schema: Schema,
    target: usize,
    rows: Vec<Tuple>,
}

impl BatchBuilder {
    pub(crate) fn new(schema: Schema, target: usize) -> BatchBuilder {
        BatchBuilder {
            schema,
            target: target.max(1),
            rows: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, row: Tuple) {
        self.rows.push(row);
    }

    /// Enough buffered rows to emit a full batch.
    pub(crate) fn full(&self) -> bool {
        self.rows.len() >= self.target
    }

    /// Up to `target` buffered rows as a batch; `None` when empty.
    pub(crate) fn flush(&mut self) -> Option<Batch> {
        if self.rows.is_empty() {
            return None;
        }
        let rows: Vec<Tuple> = if self.rows.len() > self.target {
            self.rows.drain(..self.target).collect()
        } else {
            std::mem::take(&mut self.rows)
        };
        Some(Batch::new(self.schema.clone(), rows))
    }
}

/// Instantiate the operator tree for `plan`.
pub fn build_executor(plan: &PhysicalPlan, env: &ExecEnv) -> Result<Box<dyn Executor>> {
    build_node(plan, env, None)
}

/// What a measured drain attaches to every operator it builds: one metric
/// slot per plan node, in [`PhysicalPlan::pre_order`], and the governor
/// when the run is governed.
#[derive(Clone)]
struct Meter {
    registry: MetricsRegistry,
    governor: Option<Arc<QueryGovernor>>,
}

/// Shared builder. When `meter` is set, `idx` is this node's pre-order
/// index in its registry; children are built at their own pre-order offsets
/// and every constructed operator is wrapped in an [`InstrumentedExec`]
/// holding its metric slot and the governor, so a cancel/timeout/budget
/// kill lands within one `next_batch()` call anywhere in the tree.
fn build_node(
    plan: &PhysicalPlan,
    env: &ExecEnv,
    meter: Option<(&Meter, usize)>,
) -> Result<Box<dyn Executor>> {
    // Build the `offset`-th pre-order successor of this node (1 = first
    // child; 1 + first_child.node_count() = second child).
    let child = |c: &PhysicalPlan, offset: usize| -> Result<Box<dyn Executor>> {
        build_node(c, env, meter.map(|(m, idx)| (m, idx + offset)))
    };
    let exec: Box<dyn Executor> = match &plan.op {
        PhysOp::SeqScan {
            table,
            cols,
            filter,
        } => Box::new(SeqScanExec::new(
            env,
            table,
            cols.as_deref().map(Vec::from),
            filter.clone(),
            plan.schema.clone(),
        )?),
        PhysOp::IndexScan {
            table,
            index,
            range,
            cols,
            residual,
            ..
        } => Box::new(IndexScanExec::new(
            env,
            table,
            index,
            range.clone(),
            cols.as_deref().map(Vec::from),
            residual.clone(),
            plan.schema.clone(),
        )?),
        PhysOp::Filter { input, predicate } => Box::new(crate::simple::FilterExec::new(
            child(input, 1)?,
            predicate.clone(),
        )),
        PhysOp::Project { input, exprs } => Box::new(crate::simple::ProjectExec::new(
            child(input, 1)?,
            exprs.clone(),
            plan.schema.clone(),
        )),
        PhysOp::Limit { input, limit } => {
            Box::new(crate::simple::LimitExec::new(child(input, 1)?, *limit))
        }
        PhysOp::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            // The inner side is re-instantiated once per outer row; hand the
            // executor a builder so each re-open is still instrumented (the
            // subtree's metric slots accumulate across re-opens).
            let left_exec = child(left, 1)?;
            let right_plan = (**right).clone();
            let right_env = env.clone();
            let right_meter = meter.map(|(m, idx)| (m.clone(), idx + 1 + left.node_count()));
            let right_builder = move || {
                build_node(
                    &right_plan,
                    &right_env,
                    right_meter.as_ref().map(|(m, idx)| (m, *idx)),
                )
            };
            Box::new(crate::join::NestedLoopJoinExec::new(
                left_exec,
                Box::new(right_builder),
                predicate.clone(),
                plan.schema.clone(),
                env.batch_rows,
            ))
        }
        PhysOp::BlockNestedLoopJoin {
            left,
            right,
            predicate,
            block_pages,
        } => Box::new(crate::join::BlockNestedLoopJoinExec::new(
            child(left, 1)?,
            child(right, 1 + left.node_count())?,
            env.clone(),
            predicate.clone(),
            *block_pages,
            plan.schema.clone(),
        )),
        PhysOp::IndexNestedLoopJoin {
            outer,
            inner_table,
            index,
            outer_key,
            residual,
        } => Box::new(crate::join::IndexNestedLoopJoinExec::new(
            child(outer, 1)?,
            env,
            inner_table,
            index,
            *outer_key,
            residual.clone(),
            plan.schema.clone(),
        )?),
        PhysOp::SortMergeJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => Box::new(crate::join::SortMergeJoinExec::new(
            child(left, 1)?,
            child(right, 1 + left.node_count())?,
            *left_key,
            *right_key,
            residual.clone(),
            plan.schema.clone(),
            env.batch_rows,
        )),
        PhysOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => Box::new(crate::join::HashJoinExec::new(
            child(left, 1)?,
            child(right, 1 + left.node_count())?,
            env.clone(),
            *left_key,
            *right_key,
            residual.clone(),
            plan.schema.clone(),
        )),
        PhysOp::Sort { input, keys } => Box::new(crate::sort::SortExec::new(
            child(input, 1)?,
            env.clone(),
            keys.clone(),
        )),
        PhysOp::HashAggregate {
            input,
            group_by,
            aggs,
        } => Box::new(crate::agg::HashAggregateExec::new(
            child(input, 1)?,
            group_by.clone(),
            aggs.clone(),
            plan.schema.clone(),
            env.batch_rows,
        )),
        PhysOp::SortAggregate {
            input,
            group_by,
            aggs,
        } => Box::new(crate::agg::SortAggregateExec::new(
            child(input, 1)?,
            group_by.clone(),
            aggs.clone(),
            plan.schema.clone(),
            env.batch_rows,
        )),
    };
    Ok(match meter {
        Some((m, idx)) => Box::new(InstrumentedExec::new(
            exec,
            m.registry.node(idx),
            Arc::clone(env.catalog.pool()),
            m.governor.clone(),
        )),
        None => exec,
    })
}

/// Build `plan` and drain it into a vector: the one loop behind the public
/// drains. The root's output volume is recorded whether or not the drain
/// completes, so a killed query still counts the batches it returned.
fn drain(plan: &PhysicalPlan, env: &ExecEnv, meter: Option<&Meter>) -> Result<Vec<Tuple>> {
    let governor = meter.and_then(|m| m.governor.as_ref());
    let mut out = Vec::new();
    let mut batches = 0u64;
    let mut pull = || -> Result<()> {
        let mut exec = build_node(plan, env, meter.map(|m| (m, 0)))?;
        while let Some(batch) = exec.next_batch()? {
            // The row budget is counted at the root drain: rows the query
            // *returns*, not intermediate tuples.
            if let Some(governor) = governor {
                governor.record_rows(batch.len() as u64)?;
            }
            batches += 1;
            out.extend(batch.into_rows());
        }
        Ok(())
    };
    let pulled = pull();
    env.record_output(batches, out.len() as u64);
    pulled.map(|()| out)
}

/// Build and drain a plan into a vector.
pub fn run_collect(plan: &PhysicalPlan, env: &ExecEnv) -> Result<Vec<Tuple>> {
    drain(plan, env, None)
}

/// Build, instrument and drain a plan; with `governed`, under a
/// [`QueryGovernor`] holding those limits and that cancellation token.
///
/// The estimate-vs-actual [`QueryMetrics`] of whatever ran come back beside
/// the rows, or beside the error that stopped the drain — canceled, timed
/// out, over budget, or an I/O fault — so a killed query still reports what
/// it did up to the kill.
///
/// A governed run clamps the batch capacity to the config's
/// `max_batch_rows`, bounding how much work can happen between two
/// governor checks (the kill latency is at most one batch anywhere in the
/// tree).
pub fn run_collect_measured(
    plan: &PhysicalPlan,
    env: &ExecEnv,
    governed: Option<(GovernorConfig, CancellationToken)>,
) -> (Result<Vec<Tuple>>, QueryMetrics) {
    let mut env = env.clone();
    let pool = Arc::clone(env.catalog.pool());
    let governor = governed.map(|(config, token)| {
        env.batch_rows = env.batch_rows.min(config.max_batch_rows).max(1);
        Arc::new(QueryGovernor::new(config, token, Arc::clone(&pool)))
    });
    let pool_before = pool.stats();
    let io_before = pool.disk().snapshot();
    let start = Instant::now();
    let meter = Meter {
        registry: MetricsRegistry::for_plan(plan),
        governor,
    };
    let result = drain(plan, &env, Some(&meter));
    let elapsed = start.elapsed();
    let pool_delta = pool.stats().since(&pool_before);
    let io_delta = pool.disk().snapshot().since(&io_before);
    let metrics = QueryMetrics::collect(plan, &meter.registry, elapsed, pool_delta, io_delta);
    (result, metrics)
}

/// Drain a single-table access path into `(Rid, Tuple)` pairs: the
/// row-finding half of UPDATE/DELETE, run by the same scan operators a
/// SELECT over that table would use. Draining completely before the caller
/// changes anything is what keeps an UPDATE of the scanned key from meeting
/// its own output (the Halloween problem). The scan is the plan's root, so
/// it decodes whole rows.
pub fn run_collect_rids(plan: &PhysicalPlan, env: &ExecEnv) -> Result<Vec<(Rid, Tuple)>> {
    fn drain(mut scan: impl RidScan) -> Result<Vec<(Rid, Tuple)>> {
        let mut out = Vec::new();
        while let Some(found) = scan.next_match()? {
            out.push(found);
        }
        Ok(out)
    }
    match &plan.op {
        PhysOp::SeqScan {
            table,
            cols,
            filter,
        } => drain(SeqScanExec::new(
            env,
            table,
            cols.as_deref().map(Vec::from),
            filter.clone(),
            plan.schema.clone(),
        )?),
        PhysOp::IndexScan {
            table,
            index,
            range,
            cols,
            residual,
            ..
        } => drain(IndexScanExec::new(
            env,
            table,
            index,
            range.clone(),
            cols.as_deref().map(Vec::from),
            residual.clone(),
            plan.schema.clone(),
        )?),
        _ => Err(evopt_common::EvoptError::Internal(format!(
            "row-finding plan is not a base-table scan: {}",
            plan.op_name()
        ))),
    }
}
