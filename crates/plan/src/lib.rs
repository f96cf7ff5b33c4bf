//! # evopt-plan
//!
//! The logical query algebra and its rewrites.
//!
//! * [`logical::LogicalPlan`] — scan / filter / project / join / aggregate /
//!   sort / limit nodes with derived schemas and an EXPLAIN-style display.
//! * [`rules`] — the rewrite pass the binder runs once on every plan it
//!   emits: constant folding and the HAVING-to-WHERE move.
//! * [`join_graph`] — flattens a join tree into relations + predicates with
//!   relation-set masks, the input the cost-based enumerator works on.
//!
//! Everything here is *logical*: no costs, no access paths. Those live in
//! `evopt-core`.

// Library code must not panic on fault paths: unwrap/expect are banned
// outside tests (see clippy.toml: allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod join_graph;
pub mod logical;
pub mod rules;

pub use join_graph::{GraphPredicate, JoinGraph, RelMask};
pub use logical::{AggExpr, LogicalPlan, SortKey};
pub use rules::rewrite_all;
