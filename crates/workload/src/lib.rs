//! # evopt-workload
//!
//! Synthetic data and query generators for the experiment suite:
//!
//! * [`dist`] — seeded value distributions, including an exact-CDF Zipf
//!   sampler (implemented here so no extra crate dependency is needed).
//! * [`wisconsin`] — Wisconsin-benchmark-style relations: uniformly random
//!   unique keys plus percentage-selectivity columns, the classic substrate
//!   for access-path experiments (`tests/plan_regret.rs`).
//! * [`tpch_lite`] — a scaled-down TPC-H-like star schema (region → nation
//!   → customer → orders → lineitem) for realistic multi-join queries.
//! * [`topology`] — parametric join graphs (chain / star / cycle / clique)
//!   with geometric size progressions, for enumeration experiments
//!   (`tests/plan_regret.rs`, `tests/optimizer_properties.rs`).
//!
//! Everything is deterministic given a seed.

// Library code must not panic on fault paths: unwrap/expect are banned
// outside tests (see clippy.toml: allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod dist;
pub mod topology;
pub mod tpch_lite;
pub mod wisconsin;

pub use dist::ZipfSampler;
pub use topology::{JoinWorkload, Topology};
pub use tpch_lite::load_tpch_lite;
pub use wisconsin::load_wisconsin;
