//! # evopt-obs
//!
//! The observability substrate for evopt, four independent pieces:
//!
//! * [`trace`] — a bounded, interior-mutable [`trace::TraceSink`] the join
//!   enumerators record *search* events into (plan considered, pruned and
//!   by whom, interesting order kept, per-level table growth), frozen into
//!   a [`trace::SearchTrace`] that `EXPLAIN TRACE` renders as a journal;
//! * [`metrics`] — a lock-light registry of atomic [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s and fixed-bucket [`metrics::Histogram`]s, grouped
//!   into the engine-wide [`metrics::EngineMetrics`] instance that backs
//!   `Database::metrics_snapshot()` and the Prometheus-style
//!   `Database::metrics_text()` dump;
//! * [`query_log`] — a ring buffer of per-query [`query_log::QueryLogEntry`]
//!   records (SQL, plan digest, est/actual rows, q-error, optimize/execute
//!   wall time, page I/O, session attribution, phase span) with a
//!   slow-query threshold, surfaced as the virtual statement
//!   `SHOW QUERY LOG`;
//! * [`span`] — the hierarchical [`span::StatementSpan`] phase trace
//!   (parse → bind → optimize → verify → execute → commit) the engine
//!   assembles per statement and `EXPLAIN ANALYZE` renders as a
//!   phase-breakdown table.
//!
//! This crate deliberately depends on nothing above `evopt-common`'s level
//! (in fact on nothing but the vendored `parking_lot`): trace events carry
//! plain masks and cost components, so every layer of the engine can record
//! into it without dependency cycles.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod metrics;
pub mod query_log;
pub mod span;
pub mod trace;

pub use metrics::{
    Counter, EngineMetrics, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, TIME_BUCKETS_US,
    WAIT_BUCKETS_US,
};
pub use query_log::{QueryLog, QueryLogEntry, DEFAULT_QUERY_LOG_CAP, DEFAULT_SLOW_QUERY_US};
pub use span::{Phase, PhaseSpan, StatementSpan};
pub use trace::{PruneReason, SearchTrace, TraceEvent, TraceSink, DEFAULT_TRACE_EVENTS};
