//! **T3 — Selectivity-estimation accuracy.**
//!
//! How good are the cardinality estimates that feed the cost model? We load
//! one integer column under uniform and Zipf-skewed distributions, ANALYZE
//! it with different statistics configurations (no histogram → the pure
//! 1977 uniformity rules; equi-width; equi-depth at several bucket counts),
//! and measure the q-error of equality and range estimates against the
//! true counts.
//!
//! MCVs are disabled here to isolate the histogram contribution (the MCV
//! rescue for heavy hitters is itself visible by comparing `full()` runs
//! with `mcvs: true`).

use evopt_core::selectivity::{ColumnInfo, EstimationContext};
use evopt_engine::{AnalyzeConfig, Database, HistogramKind};
use evopt_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use evopt_common::expr::{col, lit};
use evopt_common::{BinOp, Expr, Tuple, Value};

use crate::util::{fmt, median, percentile, q_error, Table};

#[derive(Debug, Clone)]
pub struct Params {
    pub rows: usize,
    pub domain: usize,
    pub thetas: Vec<f64>,
    pub configs: Vec<(String, AnalyzeConfig)>,
    pub probes: usize,
    pub seed: u64,
}

fn cfg(kind: HistogramKind, buckets: usize) -> AnalyzeConfig {
    AnalyzeConfig {
        histogram: kind,
        buckets,
        mcv_count: 0,
        mcv_min_fraction: 1.0,
    }
}

impl Params {
    pub fn quick() -> Params {
        Params {
            rows: 5_000,
            domain: 500,
            thetas: vec![0.0, 1.0],
            configs: vec![
                ("none".into(), cfg(HistogramKind::None, 0)),
                ("ew-32".into(), cfg(HistogramKind::EquiWidth, 32)),
                ("ed-32".into(), cfg(HistogramKind::EquiDepth, 32)),
            ],
            probes: 40,
            seed: 17,
        }
    }

    pub fn full() -> Params {
        Params {
            rows: 50_000,
            domain: 2_000,
            thetas: vec![0.0, 0.5, 1.0, 1.5],
            configs: vec![
                ("none".into(), cfg(HistogramKind::None, 0)),
                ("ew-32".into(), cfg(HistogramKind::EquiWidth, 32)),
                ("ed-8".into(), cfg(HistogramKind::EquiDepth, 8)),
                ("ed-32".into(), cfg(HistogramKind::EquiDepth, 32)),
                ("ed-128".into(), cfg(HistogramKind::EquiDepth, 128)),
            ],
            probes: 100,
            seed: 17,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub theta: f64,
    pub config: String,
    pub eq_median_q: f64,
    pub eq_p95_q: f64,
    pub range_median_q: f64,
    pub range_p95_q: f64,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub rows: Vec<Row>,
}

impl Report {
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "T3: cardinality estimation q-error by statistics configuration",
            &[
                "zipf θ",
                "stats",
                "eq med",
                "eq p95",
                "range med",
                "range p95",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                format!("{:.1}", r.theta),
                r.config.clone(),
                fmt(r.eq_median_q),
                fmt(r.eq_p95_q),
                fmt(r.range_median_q),
                fmt(r.range_p95_q),
            ]);
        }
        t.render()
    }

    pub fn row(&self, theta: f64, config: &str) -> &Row {
        self.rows
            .iter()
            .find(|r| (r.theta - theta).abs() < 1e-9 && r.config == config)
            .expect("row exists")
    }
}

pub fn run(p: &Params) -> Report {
    let mut report = Report { rows: Vec::new() };
    for &theta in &p.thetas {
        // Generate the data once per distribution.
        let mut rng = StdRng::seed_from_u64(p.seed);
        let zipf = ZipfSampler::new(p.domain, theta);
        let values: Vec<i64> = (0..p.rows).map(|_| zipf.sample(&mut rng) as i64).collect();
        // True frequencies.
        let mut freq = vec![0usize; p.domain];
        for &v in &values {
            freq[v as usize] += 1;
        }
        for (config_name, acfg) in &p.configs {
            let db = Database::with_defaults();
            db.execute("CREATE TABLE data (v INT NOT NULL)").unwrap();
            let tuples: Vec<Tuple> = values
                .iter()
                .map(|&v| Tuple::new(vec![Value::Int(v)]))
                .collect();
            db.insert_tuples("data", &tuples).unwrap();
            db.set_analyze_config(*acfg);
            db.execute("ANALYZE").unwrap();

            // Estimation context straight from the stored stats.
            let info = db.catalog().table("data").unwrap();
            let stats = info.stats().unwrap();
            let est = EstimationContext::new(vec![ColumnInfo {
                stats: stats.column(0),
                table_rows: stats.row_count,
            }]);

            let mut probe_rng = StdRng::seed_from_u64(p.seed + 1);
            let mut eq_q = Vec::new();
            let mut range_q = Vec::new();
            for _ in 0..p.probes {
                // Equality probe, biased towards values that exist.
                let v = values[probe_rng.random_range(0..values.len())];
                let sel = est.selectivity(&Expr::eq(col(0), lit(v)));
                let truth = freq[v as usize] as f64 / p.rows as f64;
                eq_q.push(q_error(sel, truth));
                // Range probe.
                let a = probe_rng.random_range(0..p.domain as i64);
                let b = probe_rng.random_range(0..p.domain as i64);
                let (lo, hi) = (a.min(b), a.max(b));
                let expr = Expr::and(
                    Expr::binary(BinOp::GtEq, col(0), lit(lo)),
                    Expr::binary(BinOp::LtEq, col(0), lit(hi)),
                );
                let sel = est.selectivity(&expr);
                let truth =
                    (lo..=hi).map(|k| freq[k as usize]).sum::<usize>() as f64 / p.rows as f64;
                range_q.push(q_error(sel, truth.max(1.0 / p.rows as f64)));
            }
            report.rows.push(Row {
                theta,
                config: config_name.clone(),
                eq_median_q: median(&eq_q),
                eq_p95_q: percentile(&eq_q, 95.0),
                range_median_q: median(&range_q),
                range_p95_q: percentile(&range_q, 95.0),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histograms_beat_uniformity_under_skew() {
        let report = run(&Params::quick());
        // Uniform data: everything is accurate-ish.
        let uniform_none = report.row(0.0, "none");
        assert!(
            uniform_none.eq_median_q < 3.0,
            "uniform/no-hist eq q-error {}",
            uniform_none.eq_median_q
        );
        // Skewed data: no-histogram estimation degrades badly...
        let skew_none = report.row(1.0, "none");
        // ...and equi-depth rescues it.
        let skew_ed = report.row(1.0, "ed-32");
        assert!(
            skew_ed.eq_median_q < skew_none.eq_median_q,
            "ed-32 {} should beat none {} under skew",
            skew_ed.eq_median_q,
            skew_none.eq_median_q
        );
        assert!(
            skew_ed.eq_median_q < 4.0,
            "equi-depth median q-error {} too high",
            skew_ed.eq_median_q
        );
        // Ranges: histogram estimates are decent everywhere.
        assert!(report.row(1.0, "ed-32").range_median_q < 3.0);
        let text = report.render();
        assert!(text.contains("q-error"));
    }
}
