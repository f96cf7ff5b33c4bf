//! # evopt-catalog
//!
//! Metadata and statistics: what the optimizer *knows* about the data.
//!
//! * [`catalog::Catalog`] — the namespace of tables and indexes, each table
//!   owning its heap file and any B+-tree indexes, published as a sequence
//!   of immutable versions: a statement's snapshot is one `Arc` clone.
//! * [`stats`] — per-table and per-column statistics: row/page counts, null
//!   counts, exact NDV, min/max, most-common values, and value-distribution
//!   [`histogram`]s (equi-width and equi-depth).
//! * [`analyze`] — the `ANALYZE` pass that scans a table, builds those
//!   statistics and publishes them through the catalog.
//!
//! The statistics subsystem is half of the paper's story: cost-based
//! optimization is only as good as its cardinality estimates, and
//! `tests/estimates.rs` checks how estimate quality (q-error) depends on the
//! statistics kept here (no histogram vs. equi-width vs. equi-depth, under
//! uniform vs. skewed data).

// Library code must not panic on fault paths: unwrap/expect are banned
// outside tests (see clippy.toml: allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod analyze;
pub mod catalog;
pub mod histogram;
pub mod stats;

pub use analyze::{analyze_table, AnalyzeConfig, HistogramKind};
pub use catalog::{Catalog, IndexInfo, TableInfo};
pub use histogram::Histogram;
pub use stats::{ColumnStats, TableStats};
