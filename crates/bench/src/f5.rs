//! **F5 — Cardinality-error propagation.**
//!
//! Estimation errors at the leaves compound multiplicatively through a join
//! tree (the independence assumption multiplies them), and a misled
//! optimizer picks a different — worse — plan. We inject a controlled
//! error `ε` into the row count of the chain's largest relation (the
//! optimizer believes `rows × ε`), re-plan, execute, and report the
//! measured-I/O regret against the truthfully-planned query.

use std::sync::Arc;

use evopt_catalog::TableStats;
use evopt_engine::{Database, DatabaseConfig};
use evopt_workload::{JoinWorkload, Topology};

use crate::util::Table;

#[derive(Debug, Clone)]
pub struct Params {
    pub chain_lengths: Vec<usize>,
    pub epsilons: Vec<f64>,
    pub base_rows: usize,
    pub buffer_pages: usize,
    pub seed: u64,
}

impl Params {
    pub fn quick() -> Params {
        Params {
            chain_lengths: vec![3, 4],
            epsilons: vec![0.001, 0.1, 1.0, 10.0],
            base_rows: 80,
            buffer_pages: 16,
            seed: 31,
        }
    }

    pub fn full() -> Params {
        Params {
            chain_lengths: vec![2, 3, 4, 5, 6],
            epsilons: vec![0.001, 0.01, 0.1, 1.0, 10.0, 100.0],
            base_rows: 120,
            buffer_pages: 32,
            seed: 31,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub chain_len: usize,
    pub epsilon: f64,
    pub io_distorted: u64,
    pub io_truth: u64,
    /// The distorted plan's digest differs from the truth's.
    pub plan_changed: bool,
}

impl Row {
    pub fn regret(&self) -> f64 {
        self.io_distorted.max(1) as f64 / self.io_truth.max(1) as f64
    }
}

#[derive(Debug, Clone)]
pub struct Report {
    pub rows: Vec<Row>,
}

impl Report {
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "F5: measured-I/O regret from injected leaf-cardinality error",
            &[
                "chain n",
                "epsilon",
                "io truth",
                "io distorted",
                "regret",
                "plan changed",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.chain_len.to_string(),
                format!("{:.3}", r.epsilon),
                r.io_truth.to_string(),
                r.io_distorted.to_string(),
                format!("{:.2}", r.regret()),
                if r.plan_changed { "yes" } else { "no" }.into(),
            ]);
        }
        t.render()
    }
}

/// Distorted copy of `stats`: row/page counts and NDVs scaled by `eps`.
fn distort(stats: &TableStats, eps: f64) -> TableStats {
    let mut s = stats.clone();
    s.row_count = ((s.row_count as f64 * eps).round() as u64).max(1);
    s.page_count = ((s.page_count as f64 * eps).round() as u64).max(1);
    for c in &mut s.columns {
        c.ndv = ((c.ndv as f64 * eps).round() as u64).max(1);
    }
    s
}

pub fn run(p: &Params) -> Report {
    let mut rows = Vec::new();
    for &n in &p.chain_lengths {
        let db = Database::new(DatabaseConfig {
            buffer_pages: p.buffer_pages,
            ..Default::default()
        });
        let mut w = JoinWorkload::new(Topology::Chain, n, p.base_rows, p.seed);
        w.growth = 2.5;
        w.load(&db, true).expect("load");
        let sql = w.count_query();
        // Truth plan + measurement.
        let (_, truth_plan) = db.plan_sql(&sql).unwrap();
        db.pool().evict_all().unwrap();
        let before = db.disk().snapshot();
        let truth_result = db.run_plan(&truth_plan).unwrap();
        let io_truth = db.disk().snapshot().since(&before).total();

        // The relation whose stats we lie about: the biggest (last).
        let (catalog, victim) = (db.catalog(), w.table(n - 1));
        let info = catalog.table(&victim).unwrap();
        let true_stats = info.stats().expect("analyzed");

        for &eps in &p.epsilons {
            // Distort, plan, restore: each install publishes a catalog
            // version, as ANALYZE does.
            let lie = Arc::new(distort(true_stats, eps));
            catalog.install_stats(&victim, lie).unwrap();
            let (_, plan) = db.plan_sql(&sql).unwrap();
            catalog
                .install_stats(&victim, Arc::clone(true_stats))
                .unwrap();
            db.pool().evict_all().unwrap();
            let before = db.disk().snapshot();
            let result = db.run_plan(&plan).unwrap();
            let io = db.disk().snapshot().since(&before).total();
            assert_eq!(result, truth_result, "distorted plan changed the answer");
            rows.push(Row {
                chain_len: n,
                epsilon: eps,
                io_distorted: io,
                io_truth,
                plan_changed: plan.digest() != truth_plan.digest(),
            });
        }
    }
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misestimates_change_plans_and_never_help() {
        let report = run(&Params::quick());
        for r in &report.rows {
            // ε = 1 is the truth: identical plan, identical I/O.
            if (r.epsilon - 1.0).abs() < 1e-9 {
                assert!(!r.plan_changed, "truth run changed the plan");
                assert!((r.regret() - 1.0).abs() < 0.05, "regret {}", r.regret());
            }
            // Lies can't make the true execution cheaper (beyond cache noise).
            assert!(
                r.regret() > 0.8,
                "n={} eps={}: regret {:.2} — a lie should not help",
                r.chain_len,
                r.epsilon,
                r.regret()
            );
        }
        // The strongest underestimate changes the plan somewhere.
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.epsilon < 0.01 && r.plan_changed),
            "extreme underestimate never changed the plan"
        );
    }
}
