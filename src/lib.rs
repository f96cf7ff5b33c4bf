//! # evopt — Evaluation and Optimization of Relational Queries
//!
//! A from-scratch reproduction of foundational-era **cost-based query
//! optimization** (VLDB 1977 lineage): a complete single-node relational
//! engine whose optimizer evaluates alternative access paths, join methods
//! and join orders against a statistics-driven cost model — plus the whole
//! substrate underneath it (paged storage with I/O accounting, B+-trees,
//! ANALYZE statistics, a SQL front end, and a Volcano executor), so the
//! optimizer's predictions can be validated against *measured* page I/O.
//!
//! This crate is the facade: it re-exports every layer. Start with
//! [`Database`]:
//!
//! ```
//! use evopt::Database;
//!
//! let db = Database::with_defaults();
//! db.execute("CREATE TABLE t (id INT NOT NULL, name STRING)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')").unwrap();
//! db.execute("CREATE INDEX t_id ON t (id)").unwrap();
//! db.execute("ANALYZE").unwrap();
//!
//! let rows = db.query("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(rows.len(), 1);
//!
//! // EXPLAIN shows the logical plan and the costed physical plan. (On a
//! // 3-row table the optimizer rightly prefers the sequential scan; the
//! // index pays off once the table outgrows a page.)
//! let plan = db.explain("SELECT name FROM t WHERE id = 2").unwrap();
//! assert!(plan.contains("== physical"));
//! ```
//!
//! The layers, bottom-up (each is its own crate):
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `evopt-common` | values, schemas, tuples, expressions |
//! | [`storage`] | `evopt-storage` | pages, buffer pool, heaps, B+-trees |
//! | [`catalog`] | `evopt-catalog` | metadata, histograms, ANALYZE |
//! | [`sql`] | `evopt-sql` | lexer, parser, binder |
//! | [`plan`] | `evopt-plan` | logical algebra, the binder's rewrite pass, join graphs |
//! | [`core`] | `evopt-core` | **the optimizer**: selectivity, cost, access paths, enumeration |
//! | [`exec`] | `evopt-exec` | Volcano operators |
//! | [`engine`] | `evopt-engine` | the [`Database`] facade |
//! | [`workload`] | `evopt-workload` | synthetic data/query generators |

pub use evopt_catalog as catalog;
pub use evopt_common as common;
pub use evopt_core as core;
pub use evopt_engine as engine;
pub use evopt_exec as exec;
pub use evopt_obs as obs;
pub use evopt_plan as plan;
pub use evopt_sql as sql;
pub use evopt_storage as storage;
pub use evopt_workload as workload;

pub use evopt_common::{Column, DataType, Schema, Tuple, Value};
pub use evopt_core::{CostModel, Optimizer, OptimizerConfig, Strategy};
pub use evopt_engine::{
    AnalyzeConfig, CancellationToken, CrashingBackend, Database, DatabaseConfig, DiskBackend,
    DiskManager, Durability, EngineMetrics, FaultConfig, FaultInjector, FaultReport,
    GovernorConfig, HistogramKind, IoSnapshot, MetricsSnapshot, OperatorMetrics, Phase, PhaseSpan,
    PoolSnapshot, QueryLog, QueryLogEntry, QueryMetrics, QueryResult, RecoveryInfo, SearchTrace,
    Session, SessionConfig, StatementSpan, TracedQuery, Wal, WalStats,
};
