//! # evopt-exec
//!
//! The batch-vectorized execution engine: interprets the optimizer's
//! [`evopt_core::PhysicalPlan`]s against the storage engine.
//!
//! Every operator implements [`Executor`] (`open`-by-construction /
//! `next_batch()`): the Volcano pull loop, but moving a
//! [`Batch`](evopt_common::Batch) of up to `batch_rows` tuples (default
//! 1024) per call instead of one tuple. Virtual dispatch, per-operator
//! instrumentation stamps and governor checks are paid once per batch, not
//! once per row. Operators whose inner logic is naturally row-at-a-time
//! (merge join, sort run formation, aggregation) pull rows through a
//! [`executor::BatchCursor`], which costs a plain `Vec` iterator step per
//! row.
//!
//! A predicate is decided in one place, `Expr::eval_predicate`, called row
//! by row from the four operators a predicate can sit in: the sequential
//! scan's pushed filter, the index scan's residual, the joins' residual and
//! [`simple::FilterExec`]. It asks `Expr::truth`, the three-valued test,
//! which compares operands borrowed from the row and the plan's literals:
//! a row the predicate rejects builds no `Value` and allocates nothing
//! (and the scan decodes each record into one reused row, string buffers
//! and all). Operators read `&Value` straight from the rows,
//! and the hash operators key on them: the hash join indexes its build rows
//! by the key `Value`, [`agg::HashAggregateExec`] maps the group columns'
//! `Value`s to a group, and both aggregates share one accumulator. Each hash
//! operator is checked against a sibling that does not hash (nested loops,
//! sort then stream) by the differential suites.
//!
//! All page access still goes through the shared buffer pool, so the
//! **measured physical I/O of a plan is real** — block nested loops
//! materialises and re-reads its inner, external sort spills runs, the
//! Grace hash join partitions to temporary heaps. That is the point: the
//! experiments compare these measured page counts against the optimizer's
//! predictions (`tests/plan_regret.rs`).
//!
//! Entry points: [`build_executor`] to instantiate a plan, [`run_collect`]
//! to drain it into a vector, [`run_collect_measured`] to drain it with
//! per-operator metrics, optionally under a [`governor::QueryGovernor`]
//! (cancellation, timeout, row/page budgets), still collecting partial
//! metrics if the query is killed.

// Library code must not panic on fault paths: unwrap/expect are banned
// outside tests (each test module opts back in locally).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod agg;
pub mod executor;
pub mod governor;
pub mod join;
mod join_key;
pub mod metrics;
pub mod scan;
pub mod simple;
pub mod sort;

pub use executor::{
    build_executor, run_collect, run_collect_measured, run_collect_rids, BatchCursor, ExecCounts,
    ExecEnv, Executor,
};
pub use governor::{CancellationToken, GovernorConfig, QueryGovernor};
pub use metrics::{MetricsRegistry, OperatorMetrics, QueryMetrics};

#[cfg(test)]
mod op_tests;
