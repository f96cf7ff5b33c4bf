//! Query-lifecycle observability: per-operator runtime metrics.
//!
//! The optimizer annotates every [`PhysicalPlan`] node with an estimated
//! cardinality; this module measures what each operator *actually* did —
//! rows produced, `next_batch()` calls, wall-clock time, and
//! buffer-pool/disk traffic attributed via counter deltas taken around every
//! `next_batch()` call. Because execution is batch-at-a-time, the two clock
//! reads and four counter snapshots per measurement amortise over up to
//! `batch_rows` tuples instead of being paid per row. The
//! estimate-vs-actual pairing (and its q-error) is the feedback signal the
//! cost-model validation experiments and `EXPLAIN ANALYZE` surface.
//!
//! Attribution model: each instrumented operator accumulates **inclusive**
//! numbers (itself plus everything beneath it), exactly like PostgreSQL's
//! `EXPLAIN ANALYZE`. Per-node exclusive figures are derivable because
//! [`QueryMetrics::operators`] is stored in plan pre-order with each node's
//! subtree size.
//!
//! Operators and metric slots are correlated by *pre-order index*: the
//! instrumented builder (`executor::build_node`) walks the plan in the same
//! order as [`PhysicalPlan::pre_order`]. A nested-loop join re-opens its
//! inner subtree once per outer row; every re-open binds to the same metric
//! slots, so inner-side counters accumulate across re-opens.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evopt_common::{Batch, Result, Schema};
use evopt_core::physical::PhysicalPlan;
use evopt_storage::{BufferPool, IoSnapshot, PoolSnapshot};

use crate::executor::Executor;
use crate::governor::QueryGovernor;

/// Shared, thread-safe accumulator for one operator's runtime counters.
#[derive(Debug, Default)]
pub struct OpMetrics {
    output_rows: AtomicU64,
    next_calls: AtomicU64,
    elapsed_ns: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    disk_reads: AtomicU64,
    disk_writes: AtomicU64,
}

impl OpMetrics {
    fn record(&self, rows: u64, elapsed: Duration, pool: PoolSnapshot, io: IoSnapshot) {
        self.output_rows.fetch_add(rows, Ordering::Relaxed);
        self.next_calls.fetch_add(1, Ordering::Relaxed);
        self.elapsed_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.pool_hits.fetch_add(pool.hits, Ordering::Relaxed);
        self.pool_misses.fetch_add(pool.misses, Ordering::Relaxed);
        self.disk_reads.fetch_add(io.reads, Ordering::Relaxed);
        self.disk_writes.fetch_add(io.writes, Ordering::Relaxed);
    }
}

/// One metric slot per plan node, in pre-order. Cheap to clone (the nested
/// `Arc`s are shared) so re-opened subtrees can rebind to their slots.
#[derive(Clone)]
pub struct MetricsRegistry {
    nodes: Arc<Vec<Arc<OpMetrics>>>,
}

impl MetricsRegistry {
    pub fn for_plan(plan: &PhysicalPlan) -> MetricsRegistry {
        MetricsRegistry {
            nodes: Arc::new(
                (0..plan.node_count())
                    .map(|_| Arc::new(OpMetrics::default()))
                    .collect(),
            ),
        }
    }

    pub fn node(&self, pre_order_idx: usize) -> Arc<OpMetrics> {
        Arc::clone(&self.nodes[pre_order_idx])
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Decorator that meters every `next_batch()` of the wrapped operator and,
/// in a governed run, consults the governor before it, so a kill lands
/// within one batch step anywhere in the tree.
pub struct InstrumentedExec {
    inner: Box<dyn Executor>,
    metrics: Arc<OpMetrics>,
    pool: Arc<BufferPool>,
    governor: Option<Arc<QueryGovernor>>,
}

impl InstrumentedExec {
    pub fn new(
        inner: Box<dyn Executor>,
        metrics: Arc<OpMetrics>,
        pool: Arc<BufferPool>,
        governor: Option<Arc<QueryGovernor>>,
    ) -> Self {
        InstrumentedExec {
            inner,
            metrics,
            pool,
            governor,
        }
    }
}

impl Executor for InstrumentedExec {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let pool_before = self.pool.stats();
        let io_before = self.pool.disk().snapshot();
        let start = Instant::now();
        // The governor is checked inside the metered call: the call that
        // trips a limit is still counted, so a killed query reports
        // accurate partial metrics.
        let out = match &self.governor {
            Some(governor) => governor.check().and_then(|()| self.inner.next_batch()),
            None => self.inner.next_batch(),
        };
        let elapsed = start.elapsed();
        let pool_delta = self.pool.stats().since(&pool_before);
        let io_delta = self.pool.disk().snapshot().since(&io_before);
        let rows = match &out {
            Ok(Some(batch)) => batch.len() as u64,
            _ => 0,
        };
        self.metrics.record(rows, elapsed, pool_delta, io_delta);
        out
    }
}

/// Runtime truth for one operator, paired with the optimizer's estimate.
/// Pool/disk/time figures are **inclusive** of the operator's subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorMetrics {
    /// Operator name (`SeqScan`, `HashJoin`, ...).
    pub op: String,
    /// One-line operator description from the plan.
    pub detail: String,
    /// Depth in the plan tree (root = 0).
    pub depth: usize,
    /// Nodes in this operator's subtree, itself included. Together with
    /// pre-order placement this reconstructs the tree shape.
    pub subtree_size: usize,
    /// Optimizer's cardinality estimate.
    pub est_rows: f64,
    /// Rows this operator actually emitted.
    pub actual_rows: u64,
    /// `next_batch()` invocations (number of batches + 1 for a fully
    /// drained operator; more for a nested-loop inner that is re-opened per
    /// outer row). With actual_rows this gives the realised mean batch
    /// fill.
    pub next_calls: u64,
    /// Wall-clock time spent inside this operator's subtree.
    pub elapsed: Duration,
    /// Buffer-pool hits during this subtree's `next_batch()` calls.
    pub pool_hits: u64,
    /// Buffer-pool misses during this subtree's `next_batch()` calls.
    pub pool_misses: u64,
    /// Physical page reads during this subtree's `next_batch()` calls.
    pub disk_reads: u64,
    /// Physical page writes during this subtree's `next_batch()` calls.
    pub disk_writes: u64,
}

impl OperatorMetrics {
    /// The q-error of the cardinality estimate: `max(est/actual,
    /// actual/est)`, both sides clamped to ≥ 1 row (the standard convention
    /// so empty results don't divide by zero). 1.0 means a perfect estimate;
    /// it is symmetric in over- and under-estimation.
    pub fn q_error(&self) -> f64 {
        let est = self.est_rows.max(1.0);
        let actual = (self.actual_rows as f64).max(1.0);
        (est / actual).max(actual / est)
    }
}

/// Everything a query's execution revealed: per-operator truth plus
/// query-level totals. Returned by the instrumented execution paths and
/// attached to `QueryResult::Rows` by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMetrics {
    /// Per-operator metrics in plan pre-order (root first).
    pub operators: Vec<OperatorMetrics>,
    /// End-to-end wall-clock of the drain (build + all `next_batch()`
    /// calls).
    pub elapsed: Duration,
    /// Buffer-pool hits across the whole query.
    pub pool_hits: u64,
    /// Buffer-pool misses across the whole query.
    pub pool_misses: u64,
    /// Physical page reads across the whole query.
    pub disk_reads: u64,
    /// Physical page writes across the whole query.
    pub disk_writes: u64,
}

impl QueryMetrics {
    /// Assemble from a drained registry. `plan` must be the plan the
    /// registry was created for.
    pub fn collect(
        plan: &PhysicalPlan,
        registry: &MetricsRegistry,
        elapsed: Duration,
        pool: PoolSnapshot,
        io: IoSnapshot,
    ) -> QueryMetrics {
        let pre = plan.pre_order();
        debug_assert_eq!(pre.len(), registry.len(), "registry/plan shape mismatch");
        let operators = pre
            .iter()
            .enumerate()
            .map(|(i, (depth, node))| {
                let m = registry.node(i);
                OperatorMetrics {
                    op: node.op_name().to_string(),
                    detail: node.op_detail(),
                    depth: *depth,
                    subtree_size: node.node_count(),
                    est_rows: node.est_rows,
                    actual_rows: m.output_rows.load(Ordering::Relaxed),
                    next_calls: m.next_calls.load(Ordering::Relaxed),
                    elapsed: Duration::from_nanos(m.elapsed_ns.load(Ordering::Relaxed)),
                    pool_hits: m.pool_hits.load(Ordering::Relaxed),
                    pool_misses: m.pool_misses.load(Ordering::Relaxed),
                    disk_reads: m.disk_reads.load(Ordering::Relaxed),
                    disk_writes: m.disk_writes.load(Ordering::Relaxed),
                }
            })
            .collect();
        QueryMetrics {
            operators,
            elapsed,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            disk_reads: io.reads,
            disk_writes: io.writes,
        }
    }

    /// The root operator's metrics (its `actual_rows` is the result size).
    pub fn root(&self) -> &OperatorMetrics {
        &self.operators[0]
    }

    /// Buffer-pool hit rate over the whole query (1.0 when the pool was
    /// never touched).
    pub fn hit_rate(&self) -> f64 {
        PoolSnapshot {
            hits: self.pool_hits,
            misses: self.pool_misses,
            ..PoolSnapshot::default()
        }
        .hit_rate()
    }

    /// Worst per-operator q-error — the single number that says how far the
    /// optimizer's cardinality model drifted on this query.
    pub fn max_q_error(&self) -> f64 {
        self.operators
            .iter()
            .map(|o| o.q_error())
            .fold(1.0, f64::max)
    }

    /// `EXPLAIN ANALYZE` rendering: the physical tree annotated with
    /// estimate-vs-actual truth per operator, then query totals.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for op in &self.operators {
            for _ in 0..op.depth {
                s.push_str("  ");
            }
            s.push_str(&format!(
                "{}  (est rows={:.0}, actual rows={}, q-err={:.2}, nexts={}, time={}, \
                 pool={}h/{}m, disk r/w={}/{})\n",
                op.detail,
                op.est_rows,
                op.actual_rows,
                op.q_error(),
                op.next_calls,
                fmt_duration(op.elapsed),
                op.pool_hits,
                op.pool_misses,
                op.disk_reads,
                op.disk_writes,
            ));
        }
        s.push_str(&format!(
            "== query totals ==\nelapsed: {}\nbuffer pool: {} hits, {} misses (hit rate {:.1}%)\n\
             disk: {} page reads, {} page writes\nmax q-error: {:.2}\n",
            fmt_duration(self.elapsed),
            self.pool_hits,
            self.pool_misses,
            self.hit_rate() * 100.0,
            self.disk_reads,
            self.disk_writes,
            self.max_q_error(),
        ));
        s
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn op(est: f64, actual: u64) -> OperatorMetrics {
        OperatorMetrics {
            op: "SeqScan".into(),
            detail: "SeqScan: t".into(),
            depth: 0,
            subtree_size: 1,
            est_rows: est,
            actual_rows: actual,
            next_calls: actual + 1,
            elapsed: Duration::from_micros(5),
            pool_hits: 0,
            pool_misses: 0,
            disk_reads: 0,
            disk_writes: 0,
        }
    }

    #[test]
    fn q_error_symmetric_and_clamped() {
        assert_eq!(op(100.0, 100).q_error(), 1.0);
        assert_eq!(op(200.0, 100).q_error(), 2.0);
        assert_eq!(op(50.0, 100).q_error(), 2.0);
        // Zero-row sides clamp to 1 instead of dividing by zero.
        assert_eq!(op(0.0, 0).q_error(), 1.0);
        assert_eq!(op(8.0, 0).q_error(), 8.0);
    }

    #[test]
    fn max_q_error_over_operators() {
        let m = QueryMetrics {
            operators: vec![op(100.0, 100), op(10.0, 40), op(7.0, 7)],
            elapsed: Duration::from_millis(1),
            pool_hits: 3,
            pool_misses: 1,
            disk_reads: 1,
            disk_writes: 0,
        };
        assert_eq!(m.max_q_error(), 4.0);
        assert!((m.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(m.root().actual_rows, 100);
    }

    #[test]
    fn render_contains_annotations() {
        let m = QueryMetrics {
            operators: vec![op(100.0, 99)],
            elapsed: Duration::from_millis(2),
            pool_hits: 5,
            pool_misses: 2,
            disk_reads: 2,
            disk_writes: 1,
        };
        let text = m.render();
        assert!(text.contains("est rows=100"), "{text}");
        assert!(text.contains("actual rows=99"), "{text}");
        assert!(text.contains("q-err="), "{text}");
        assert!(text.contains("== query totals =="), "{text}");
        assert!(text.contains("5 hits, 2 misses"), "{text}");
        assert!(text.contains("2 page reads, 1 page writes"), "{text}");
    }
}
