//! # evopt-bench
//!
//! The experiment harness: one module per table/figure of the evaluation
//! (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! recorded results). Each module exposes
//!
//! * a `Params` struct with `quick()` (seconds, used by the test suite to
//!   pin the experiment's *shape*) and `full()` (the report configuration),
//! * `run(&Params) -> …Report` returning structured numbers, and
//! * `render` on the report producing the paper-style text table.
//!
//! `cargo run -p evopt-bench --release --bin report -- all` regenerates
//! everything here. Access-path crossover, join-method choice, enumeration
//! quality and cost calibration are one check on counted work, the root
//! package's `tests/plan_regret.rs`.

// The experiment harness reports broken setup by panicking, exactly like
// a test: the run must abort loudly, there is no caller to hand an error
// to. The workspace unwrap ban deliberately does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod c1;
pub mod f1;
pub mod f3;
pub mod f4;
pub mod f5;
pub mod t1;
pub mod t3;
pub mod util;
