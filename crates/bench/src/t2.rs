//! **T2 — Access-path selection crossover.**
//!
//! The classic result: an unclustered index wins only at small
//! selectivities (roughly below one matching tuple per page); a clustered
//! index wins almost everywhere; the sequential scan wins at the high end.
//! We sweep the predicate selectivity, measure the *actual* page I/O of the
//! forced sequential-scan plan and the forced index-scan plan, and check
//! which one the optimizer picks.

use evopt_common::expr::{col, lit};
use evopt_common::{BinOp, Expr, Value};
use evopt_core::cost::Cost;
use evopt_core::physical::{KeyRange, PhysOp, PhysicalPlan};
use evopt_engine::{Database, DatabaseConfig};
use evopt_workload::load_wisconsin;

use crate::util::Table;

#[derive(Debug, Clone)]
pub struct Params {
    pub rows: usize,
    pub buffer_pages: usize,
    pub selectivities: Vec<f64>,
    pub seed: u64,
}

impl Params {
    pub fn quick() -> Params {
        Params {
            rows: 5_000,
            buffer_pages: 32,
            selectivities: vec![0.001, 0.01, 0.1, 0.5, 1.0],
            seed: 7,
        }
    }

    pub fn full() -> Params {
        Params {
            rows: 50_000,
            buffer_pages: 64,
            selectivities: vec![0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0],
            seed: 7,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub selectivity: f64,
    pub clustered: bool,
    pub io_seq: u64,
    pub io_index: u64,
    /// What the optimizer chose for this predicate ("SeqScan"/"IndexScan").
    pub optimizer_pick: String,
    pub matching_rows: usize,
}

impl Row {
    /// Did the optimizer pick the measured winner (with 10% slack)?
    pub fn picked_winner(&self) -> bool {
        let seq_wins = self.io_seq as f64 <= self.io_index as f64 * 1.1;
        let idx_wins = self.io_index as f64 <= self.io_seq as f64 * 1.1;
        match self.optimizer_pick.as_str() {
            "SeqScan" => seq_wins,
            "IndexScan" => idx_wins,
            _ => false,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Report {
    pub rows: Vec<Row>,
}

impl Report {
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "T2: access-path crossover (measured page I/O)",
            &[
                "sel",
                "index kind",
                "io seq",
                "io index",
                "optimizer pick",
                "ok",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                format!("{:.4}", r.selectivity),
                if r.clustered {
                    "clustered"
                } else {
                    "unclustered"
                }
                .into(),
                r.io_seq.to_string(),
                r.io_index.to_string(),
                r.optimizer_pick.clone(),
                if r.picked_winner() { "yes" } else { "NO" }.into(),
            ]);
        }
        t.render()
    }

    /// Fraction of sweep points where the optimizer picked the winner.
    pub fn pick_accuracy(&self) -> f64 {
        let ok = self.rows.iter().filter(|r| r.picked_winner()).count();
        ok as f64 / self.rows.len().max(1) as f64
    }
}

fn scan_plan(db: &Database, cutoff: i64, column: &str) -> PhysicalPlan {
    let info = db.catalog().table("wisc").unwrap();
    let colidx = info.schema.resolve(None, column).unwrap();
    PhysicalPlan {
        schema: info.schema.clone(),
        est_rows: 0.0,
        est_cost: Cost::ZERO,
        output_order: None,
        op: PhysOp::SeqScan {
            table: "wisc".into(),
            cols: None,
            filter: Some(Expr::binary(BinOp::Lt, col(colidx), lit(cutoff))),
        },
    }
}

fn index_plan(db: &Database, cutoff: i64, index: &str) -> PhysicalPlan {
    let info = db.catalog().table("wisc").unwrap();
    PhysicalPlan {
        schema: info.schema.clone(),
        est_rows: 0.0,
        est_cost: Cost::ZERO,
        output_order: None,
        op: PhysOp::IndexScan {
            table: "wisc".into(),
            index: index.into(),
            range: KeyRange {
                low: std::ops::Bound::Unbounded,
                high: std::ops::Bound::Excluded(Value::Int(cutoff)),
            },
            cols: None,
            residual: None,
            clustered: false,
        },
    }
}

fn measure(db: &Database, plan: &PhysicalPlan) -> (u64, usize) {
    db.pool().evict_all().unwrap();
    let before = db.disk().snapshot();
    let rows = db.run_plan(plan).unwrap();
    (db.disk().snapshot().since(&before).total(), rows.len())
}

pub fn run(p: &Params) -> Report {
    let db = Database::new(DatabaseConfig {
        buffer_pages: p.buffer_pages,
        ..Default::default()
    });
    load_wisconsin(&db, "wisc", p.rows, p.seed).unwrap();
    // unique2 is loaded in order → clustered; unique1 is a permutation →
    // unclustered.
    db.execute("CREATE CLUSTERED INDEX wisc_u2 ON wisc (unique2)")
        .unwrap();
    db.execute("CREATE INDEX wisc_u1 ON wisc (unique1)")
        .unwrap();
    db.execute("ANALYZE").unwrap();

    let mut rows = Vec::new();
    for &sel in &p.selectivities {
        let cutoff = ((p.rows as f64) * sel).round().max(1.0) as i64;
        for (clustered, column, index) in
            [(true, "unique2", "wisc_u2"), (false, "unique1", "wisc_u1")]
        {
            let (io_seq, n_seq) = measure(&db, &scan_plan(&db, cutoff, column));
            let (io_index, n_idx) = measure(&db, &index_plan(&db, cutoff, index));
            assert_eq!(n_seq, n_idx, "paths must agree on the result");
            // What does the optimizer pick? (Look through the projection.)
            let (_, physical) = db
                .plan_sql(&format!("SELECT * FROM wisc WHERE {column} < {cutoff}"))
                .unwrap();
            fn scan_of(p: &PhysicalPlan) -> &'static str {
                match p.op_name() {
                    n @ ("SeqScan" | "IndexScan") => n,
                    _ => p.children().first().map(|c| scan_of(c)).unwrap_or("?"),
                }
            }
            rows.push(Row {
                selectivity: sel,
                clustered,
                io_seq,
                io_index,
                optimizer_pick: scan_of(&physical).to_string(),
                matching_rows: n_seq,
            });
        }
    }
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_shape_and_optimizer_accuracy() {
        let report = run(&Params::quick());
        // Unclustered: index wins at 0.1% selectivity, loses at 50%.
        let uncl = |sel: f64| {
            report
                .rows
                .iter()
                .find(|r| !r.clustered && (r.selectivity - sel).abs() < 1e-9)
                .unwrap()
        };
        let lo = uncl(0.001);
        assert!(
            lo.io_index < lo.io_seq,
            "0.1%: index {} !< seq {}",
            lo.io_index,
            lo.io_seq
        );
        let hi = uncl(0.5);
        assert!(
            hi.io_seq < hi.io_index,
            "50%: seq {} !< index {}",
            hi.io_seq,
            hi.io_index
        );
        // Clustered index is never much worse than seq even at 100%.
        let cl_full = report
            .rows
            .iter()
            .find(|r| r.clustered && (r.selectivity - 1.0).abs() < 1e-9)
            .unwrap();
        assert!(
            cl_full.io_index as f64 <= cl_full.io_seq as f64 * 2.0,
            "clustered full scan io {} vs seq {}",
            cl_full.io_index,
            cl_full.io_seq
        );
        // The optimizer picks the measured winner at (almost) every point.
        let acc = report.pick_accuracy();
        assert!(acc >= 0.8, "optimizer pick accuracy only {acc:.2}");
        let text = report.render();
        assert!(text.contains("unclustered"));
    }
}
