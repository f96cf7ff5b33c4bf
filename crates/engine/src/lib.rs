//! # evopt-engine
//!
//! The top of the stack: [`Database`] wires the SQL front end, the catalog,
//! the cost-based optimizer and the executor over one buffer pool and
//! simulated disk, and runs every statement — SELECT, DML, DDL, `EXPLAIN`,
//! from a `Database` or a [`Session`] — through one pipeline:
//! parse → bind → optimize → execute → commit (DESIGN.md §8.1). The named
//! methods are views of [`Database::run`] in a [`Mode`].
//!
//! ```no_run
//! use evopt_engine::Database;
//!
//! let db = Database::with_defaults();
//! db.execute("CREATE TABLE t (id INT NOT NULL, name STRING)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
//! db.execute("CREATE INDEX t_id ON t (id)").unwrap();
//! db.execute("ANALYZE").unwrap();
//! let rows = db.query("SELECT name FROM t WHERE id = 2").unwrap();
//! println!("{}", db.explain("UPDATE t SET name = 'c' WHERE id < 2").unwrap());
//! ```
//!
//! The engine exposes the knobs the experiments sweep: the enumeration
//! [`Strategy`], the [`CostModel`], the ANALYZE configuration, and
//! [`Database::measured`] which runs a statement and reports the *physical*
//! page I/O it caused.

// Library code must not panic on fault paths: unwrap/expect are banned
// outside tests (see clippy.toml: allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod apply;
mod bind;
mod config;
mod database;
mod pipeline;
mod render;
mod result;
mod session;

pub use config::{DatabaseConfig, Durability, SessionConfig};
pub use database::Database;
pub use evopt_catalog::{AnalyzeConfig, HistogramKind};
pub use evopt_core::{CostModel, Strategy};
pub use evopt_exec::{CancellationToken, GovernorConfig, OperatorMetrics, QueryMetrics};
pub use evopt_obs::{
    EngineMetrics, HistogramSnapshot, MetricsSnapshot, Phase, PhaseSpan, QueryLog, QueryLogEntry,
    SearchTrace, StatementSpan,
};
pub use evopt_storage::{
    CrashingBackend, DiskBackend, DiskManager, FaultConfig, FaultInjector, FaultReport, IoSnapshot,
    PoolSnapshot, RecoveryInfo, Wal, WalStats,
};
pub use pipeline::Mode;
pub use result::{Outcome, QueryResult, TracedQuery};
pub use session::{Session, SessionState};
