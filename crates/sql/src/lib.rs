//! # evopt-sql
//!
//! The SQL front end: a hand-written lexer and recursive-descent parser for
//! the engine's SQL subset, and a binder that resolves names against a
//! schema provider and emits `evopt-plan` logical plans.
//!
//! Supported surface:
//!
//! ```sql
//! SELECT <exprs | aggregates | *> FROM t [AS a] [, u | JOIN u ON ...]
//!   [WHERE expr] [GROUP BY cols] [HAVING expr]
//!   [ORDER BY col [ASC|DESC], ...] [LIMIT n];
//! CREATE TABLE t (col TYPE [NOT NULL], ...);
//! CREATE [UNIQUE] [CLUSTERED] INDEX i ON t (col);
//! INSERT INTO t VALUES (...), (...);
//! ANALYZE [t];
//! DROP TABLE t;
//! EXPLAIN [ANALYZE] SELECT ...;
//! ```
//!
//! Out of scope (documented in DESIGN.md §6): subqueries, outer joins,
//! DISTINCT, window functions.

// Library code must not panic on fault paths: unwrap/expect are banned
// outside tests (see clippy.toml: allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod parser;

pub use ast::Statement;
pub use binder::{bind_scalar, bind_select, SchemaProvider};
pub use parser::parse;
