//! # evopt-common
//!
//! Foundation types shared by every layer of the `evopt` query engine:
//!
//! * [`Value`] / [`DataType`] — the dynamically-typed scalar values stored in
//!   relations and produced by expression evaluation.
//! * [`Schema`] / [`Column`] — relation schemas with optional table
//!   qualifiers, used for name resolution and plan typing.
//! * [`Tuple`] — a row of values with a compact binary (de)serialisation used
//!   by the storage layer.
//! * [`Batch`] — a schema plus an ordered run of tuples: the unit of data
//!   flow between executor operators.
//! * [`Expr`] — bound scalar expression trees (column ordinals, literals,
//!   comparisons, boolean connectives, arithmetic, `LIKE`, `IN`, `BETWEEN`)
//!   with an evaluator and a constant folder.
//! * [`EvoptError`] — the error type threaded through the whole workspace.
//!
//! Nothing in this crate knows about pages, statistics, plans or SQL; it is
//! the vocabulary the rest of the system speaks.

// Library code must not panic on fault paths: unwrap/expect are banned
// outside tests (see clippy.toml: allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod batch;
pub mod error;
pub mod expr;
pub mod lockorder;
pub mod schema;
pub mod tuple;
pub mod value;

pub use batch::{Batch, DEFAULT_BATCH_ROWS};
pub use error::{EvoptError, Result};
pub use expr::{AggFunc, BinOp, Expr, UnOp};
pub use schema::{Column, Schema};
pub use tuple::Tuple;
pub use value::{DataType, Value};
