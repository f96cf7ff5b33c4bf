//! # evopt-core
//!
//! **The paper's contribution**: cost-based evaluation and optimization of
//! relational queries. Given a logical plan, a catalog of statistics, and a
//! cost model, produce the cheapest physical plan:
//!
//! 1. [`selectivity`] — estimate what fraction of rows each predicate keeps
//!    (MCVs → histograms → uniformity rules → 1977 magic constants, in that
//!    order of preference).
//! 2. [`cost`] — charge every physical operator its page I/Os and tuple
//!    touches; `cost = w_io · pages + w_cpu · tuples`.
//! 3. [`access_path`] — per base relation, choose among the sequential scan
//!    and every matching B+-tree (sargable predicate extraction, clustered
//!    vs. unclustered I/O, order-producing paths kept for later).
//! 4. [`enumerate`] — join-order search. Six strategies share one plan
//!    space: System R dynamic programming over left-deep trees with
//!    interesting orders (the default), bushy DP, two greedy heuristics,
//!    random sampling (QuickPick), and the unoptimized syntactic baseline.
//! 5. [`optimizer`] — the facade tying it together and handling the
//!    non-join operators (aggregate, sort, limit, projection). Plans are
//!    built narrow: each node asks its child only for the columns it
//!    reads, so every scan decodes only what the plan above it reads.
//!
//! The output is a [`physical::PhysicalPlan`] annotated with estimated rows
//! and cost; `evopt-exec` interprets it, and the experiments compare the
//! annotations against measured page I/O.

// Library code must not panic on fault paths: unwrap/expect are banned
// outside tests (see clippy.toml: allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod access_path;
pub mod cost;
pub mod enumerate;
pub mod optimizer;
pub mod physical;
pub mod selectivity;
pub mod verify;

pub use cost::{Cost, CostModel};
pub use enumerate::Strategy;
pub use optimizer::{Optimizer, OptimizerConfig};
pub use physical::{PhysOp, PhysicalPlan};
pub use selectivity::EstimationContext;
pub use verify::{
    lint_logical, verify_logical, verify_physical, Lint, VerifyIssue, VerifyPhase, VerifyReport,
};
