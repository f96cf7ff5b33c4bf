//! Cardinality estimates, and what their errors cost.
//!
//! The first test measures the q-error of the estimates the cost model is
//! fed: one integer column, uniform or Zipf-skewed, analyzed with no
//! histogram (the 1977 uniformity rules), an equi-width one or an
//! equi-depth one, and probed with equalities and ranges against the true
//! counts. The second lies about one relation's statistics, re-plans a
//! chain join, and runs the misled plan from a cold pool against the
//! truthfully planned one. Both are seeded and exact (EXPERIMENTS.md S22).

mod support;

use std::sync::Arc;

use evopt::catalog::TableStats;
use evopt::common::expr::{col, lit};
use evopt::common::{BinOp, Expr};
use evopt::core::physical::PhysicalPlan;
use evopt::core::selectivity::{ColumnInfo, EstimationContext};
use evopt::workload::{JoinWorkload, Topology, ZipfSampler};
use evopt::{AnalyzeConfig, Database, DatabaseConfig, HistogramKind, Tuple, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use support::{median, percentile, q_error, spearman};

const ROWS: usize = 5_000;
const DOMAIN: usize = 500;
const PROBES: usize = 40;
const SEED: u64 = 17;

/// Median and p95 q-error of equality probes, then of range probes, under
/// each statistics configuration, for data drawn from Zipf(`theta`).
/// Heavy-hitter lists are off, so what is measured is the histogram.
fn q_errors(theta: f64) -> Vec<(&'static str, [f64; 4])> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let zipf = ZipfSampler::new(DOMAIN, theta);
    let values: Vec<i64> = (0..ROWS).map(|_| zipf.sample(&mut rng) as i64).collect();
    let mut freq = vec![0usize; DOMAIN];
    for &v in &values {
        freq[v as usize] += 1;
    }
    let truth = |lo: i64, hi: i64| {
        let rows: usize = (lo..=hi).map(|k| freq[k as usize]).sum();
        rows.max(1) as f64 / ROWS as f64
    };
    let tuples: Vec<Tuple> = values
        .iter()
        .map(|&v| Tuple::new(vec![Value::Int(v)]))
        .collect();
    let configs = [
        ("none", HistogramKind::None, 0),
        ("ew-32", HistogramKind::EquiWidth, 32),
        ("ed-32", HistogramKind::EquiDepth, 32),
    ];
    let mut rows = Vec::new();
    for (name, histogram, buckets) in configs {
        let db = Database::with_defaults();
        db.execute("CREATE TABLE data (v INT NOT NULL)").unwrap();
        db.insert_tuples("data", &tuples).unwrap();
        db.set_analyze_config(AnalyzeConfig {
            histogram,
            buckets,
            mcv_count: 0,
            mcv_min_fraction: 1.0,
        });
        db.execute("ANALYZE").unwrap();
        let info = db.catalog().table("data").unwrap();
        let stats = info.stats().unwrap();
        let est = EstimationContext::new(vec![ColumnInfo {
            stats: stats.column(0),
            table_rows: stats.row_count,
        }]);

        let mut probe = StdRng::seed_from_u64(SEED + 1);
        let (mut eq, mut range) = (Vec::new(), Vec::new());
        for _ in 0..PROBES {
            // Equalities on values drawn from the data, so they exist.
            let v = values[probe.random_range(0..values.len())];
            eq.push(q_error(
                est.selectivity(&Expr::eq(col(0), lit(v))),
                truth(v, v),
            ));
            let a = probe.random_range(0..DOMAIN as i64);
            let b = probe.random_range(0..DOMAIN as i64);
            let (lo, hi) = (a.min(b), a.max(b));
            let between = Expr::and(
                Expr::binary(BinOp::GtEq, col(0), lit(lo)),
                Expr::binary(BinOp::LtEq, col(0), lit(hi)),
            );
            range.push(q_error(est.selectivity(&between), truth(lo, hi)));
        }
        let qs = [
            median(&eq),
            percentile(&eq, 95.0),
            median(&range),
            percentile(&range, 95.0),
        ];
        println!("theta {theta}, {name}: eq p50 / p95, range p50 / p95 {qs:.3?}");
        rows.push((name, qs));
    }
    rows
}

/// Under uniform data the uniformity rules are accurate; under Zipf 1 they
/// are not, and an equi-depth histogram does better on equalities and
/// keeps ranges accurate.
#[test]
fn histograms_beat_uniformity_under_skew() {
    let uniform = q_errors(0.0);
    let skewed = q_errors(1.0);
    let median_of = |rows: &[(&str, [f64; 4])], config: &str, at: usize| {
        rows.iter().find(|(name, _)| *name == config).unwrap().1[at]
    };
    let flat = median_of(&uniform, "none", 0);
    assert!(flat < 3.0, "uniform, no histogram: equality q-error {flat}");
    let (none, depth) = (
        median_of(&skewed, "none", 0),
        median_of(&skewed, "ed-32", 0),
    );
    assert!(depth < none, "Zipf 1: equi-depth {depth} !< none {none}");
    assert!(depth < 4.0, "Zipf 1: equi-depth equality q-error {depth}");
    let range = median_of(&skewed, "ed-32", 2);
    assert!(range < 3.0, "Zipf 1: equi-depth range q-error {range}");
}

/// `stats` with its row and page counts and every NDV scaled by `eps`.
fn distort(stats: &TableStats, eps: f64) -> TableStats {
    let scale = |v: u64| ((v as f64 * eps).round() as u64).max(1);
    let mut s = stats.clone();
    s.row_count = scale(s.row_count);
    s.page_count = scale(s.page_count);
    for c in &mut s.columns {
        c.ndv = scale(c.ndv);
    }
    s
}

/// A chain's biggest relation described as `ε` times its size: the true
/// statistics keep the truthful plan and its pages, no lie makes the
/// true execution much cheaper, the strongest underestimate changes the
/// plan somewhere, and every misled plan returns the truth's answer.
#[test]
fn misestimates_change_plans_and_never_help() {
    let mut changed = false;
    for n in [3, 4] {
        let db = Database::new(DatabaseConfig {
            buffer_pages: 16,
            ..DatabaseConfig::default()
        });
        let mut w = JoinWorkload::new(Topology::Chain, n, 80, 31);
        w.growth = 2.5;
        w.load(&db, true).unwrap();
        let sql = w.count_query();
        let run = |plan: &PhysicalPlan| {
            db.pool().evict_all().unwrap();
            let before = db.disk().snapshot();
            let rows = db.run_plan(plan).unwrap();
            (
                rows,
                db.disk().snapshot().since(&before).total().max(1) as f64,
            )
        };
        let (_, truthful) = db.plan_sql(&sql).unwrap();
        let (answer, pages) = run(&truthful);

        let (catalog, victim) = (db.catalog(), w.table(n - 1));
        let info = catalog.table(&victim).unwrap();
        let truth = info.stats().unwrap();
        for eps in [0.001, 0.1, 1.0, 10.0] {
            // Each install publishes a catalog version, as ANALYZE does.
            catalog
                .install_stats(&victim, Arc::new(distort(truth, eps)))
                .unwrap();
            let (_, misled) = db.plan_sql(&sql).unwrap();
            catalog.install_stats(&victim, Arc::clone(truth)).unwrap();
            let (rows, misled_pages) = run(&misled);
            let regret = misled_pages / pages;
            let moved = misled.digest() != truthful.digest();
            println!("chain n={n}, eps {eps}: regret {regret:.2}, plan changed {moved}");
            assert_eq!(rows, answer, "n={n}, eps {eps}: the answer changed");
            if eps == 1.0 {
                assert!(!moved, "n={n}: the true statistics changed the plan");
                assert!((regret - 1.0).abs() < 0.05, "n={n}: regret {regret}");
            }
            assert!(regret > 0.8, "n={n}, eps {eps}: a lie helped, {regret}");
            changed |= eps < 0.01 && moved;
        }
    }
    assert!(
        changed,
        "the strongest underestimate never changed the plan"
    );
}

/// The statistics the bounds here and in `plan_regret.rs` are read with.
#[test]
fn statistics_are_exact_on_small_samples() {
    assert_eq!((q_error(10.0, 100.0), q_error(100.0, 10.0)), (10.0, 10.0));
    assert!(
        q_error(0.0, 100.0) > 1e6,
        "a zero estimate is capped, not inf"
    );
    let v = [5.0, 1.0, 3.0, 2.0, 4.0];
    assert_eq!(
        (median(&v), percentile(&v, 0.0), percentile(&v, 100.0)),
        (3.0, 1.0, 5.0)
    );
    let rho = |b: [f64; 4]| spearman(&[1.0, 1.0, 2.0, 3.0].into_iter().zip(b).collect::<Vec<_>>());
    assert_eq!(rho([5.0, 5.0, 60.0, 700.0]), 1.0, "ranks, ties shared");
    assert_eq!(rho([9.0, 9.0, 5.0, 1.0]), -1.0);
}
