//! **T4 — Join-method selection.**
//!
//! No single join method dominates: index nested loops wins when the outer
//! is tiny and the inner is indexed; hash join wins big-big equi-joins;
//! block nested loops survives only as the fallback. We measure the actual
//! page I/O of every applicable method on a grid of input sizes and check
//! that the optimizer's pick is (near-)optimal.

use evopt_common::expr::col;
use evopt_common::{Expr, Schema, Tuple, Value};
use evopt_core::cost::Cost;
use evopt_core::physical::{PhysOp, PhysicalPlan};
use evopt_engine::{Database, DatabaseConfig};

use crate::util::Table;

#[derive(Debug, Clone)]
pub struct Params {
    /// (outer rows, inner rows) grid.
    pub grid: Vec<(usize, usize)>,
    pub buffer_pages: usize,
    pub seed: u64,
}

impl Params {
    pub fn quick() -> Params {
        Params {
            grid: vec![(10, 20_000), (2_000, 2_000)],
            buffer_pages: 16,
            seed: 3,
        }
    }

    pub fn full() -> Params {
        Params {
            grid: vec![
                (10, 50_000),
                (100, 50_000),
                (1_000, 50_000),
                (10_000, 10_000),
                (50_000, 50_000),
            ],
            buffer_pages: 64,
            seed: 3,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub outer_rows: usize,
    pub inner_rows: usize,
    /// (method name, measured total I/O) for every method tried.
    pub methods: Vec<(String, u64)>,
    pub optimizer_pick: String,
}

impl Row {
    pub fn io_of(&self, method: &str) -> Option<u64> {
        self.methods
            .iter()
            .find(|(m, _)| m == method)
            .map(|(_, io)| *io)
    }

    pub fn best_method(&self) -> &str {
        &self
            .methods
            .iter()
            .min_by_key(|(_, io)| *io)
            .expect("methods measured")
            .0
    }

    /// I/O of the optimizer's pick relative to the best measured method.
    pub fn pick_regret(&self) -> f64 {
        let best = self.methods.iter().map(|(_, io)| *io).min().unwrap().max(1);
        let picked = self.io_of(&self.optimizer_pick).unwrap_or(best).max(1);
        picked as f64 / best as f64
    }
}

#[derive(Debug, Clone)]
pub struct Report {
    pub rows: Vec<Row>,
}

impl Report {
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "T4: join-method I/O by input sizes (inner indexed)",
            &[
                "|outer|", "|inner|", "BNL", "INL", "SMJ", "HJ", "opt pick", "regret",
            ],
        );
        for r in &self.rows {
            let get = |m: &str| {
                r.io_of(m)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into())
            };
            t.row(vec![
                r.outer_rows.to_string(),
                r.inner_rows.to_string(),
                get("BlockNestedLoopJoin"),
                get("IndexNestedLoopJoin"),
                get("SortMergeJoin"),
                get("HashJoin"),
                r.optimizer_pick.clone(),
                format!("{:.2}", r.pick_regret()),
            ]);
        }
        t.render()
    }
}

fn setup(outer: usize, inner: usize, buffer_pages: usize, seed: u64) -> Database {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let db = Database::new(DatabaseConfig {
        buffer_pages,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    // Keys are drawn uniformly from the inner's dense key domain, so index
    // probes scatter across the inner heap (no accidental locality).
    for (name, rows) in [("outer_t", outer), ("inner_t", inner)] {
        db.execute(&format!(
            "CREATE TABLE {name} (k INT NOT NULL, pad STRING NOT NULL)"
        ))
        .unwrap();
        let tuples: Vec<Tuple> = (0..rows)
            .map(|i| {
                let key = if name == "inner_t" {
                    i as i64 // dense unique keys
                } else {
                    rng.random_range(0..inner.max(1) as i64)
                };
                Tuple::new(vec![Value::Int(key), Value::Str(format!("pad-{i:08}"))])
            })
            .collect();
        db.insert_tuples(name, &tuples).unwrap();
    }
    db.execute("CREATE INDEX inner_k ON inner_t (k)").unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

fn scan(db: &Database, table: &str) -> PhysicalPlan {
    let info = db.catalog().table(table).unwrap();
    PhysicalPlan {
        schema: info.schema.clone(),
        est_rows: 0.0,
        est_cost: Cost::ZERO,
        output_order: None,
        op: PhysOp::SeqScan {
            table: table.into(),
            cols: None,
            filter: None,
        },
    }
}

fn join_schema(db: &Database) -> Schema {
    let a = db.catalog().table("outer_t").unwrap().schema.clone();
    let b = db.catalog().table("inner_t").unwrap().schema.clone();
    a.join(&b)
}

fn forced_plans(db: &Database, buffer_pages: usize) -> Vec<(String, PhysicalPlan)> {
    let schema = join_schema(db);
    let mk = |op: PhysOp| PhysicalPlan {
        op,
        schema: schema.clone(),
        est_rows: 0.0,
        est_cost: Cost::ZERO,
        output_order: None,
    };
    let sorted = |t: &str| {
        let s = scan(db, t);
        PhysicalPlan {
            schema: s.schema.clone(),
            est_rows: 0.0,
            est_cost: Cost::ZERO,
            output_order: None,
            op: PhysOp::Sort {
                input: Box::new(s),
                keys: vec![(0, true)],
            },
        }
    };
    vec![
        (
            "BlockNestedLoopJoin".into(),
            mk(PhysOp::BlockNestedLoopJoin {
                left: Box::new(scan(db, "outer_t")),
                right: Box::new(scan(db, "inner_t")),
                predicate: Some(Expr::eq(col(0), col(2))),
                block_pages: buffer_pages,
            }),
        ),
        (
            "IndexNestedLoopJoin".into(),
            mk(PhysOp::IndexNestedLoopJoin {
                outer: Box::new(scan(db, "outer_t")),
                inner_table: "inner_t".into(),
                index: "inner_k".into(),
                outer_key: 0,
                residual: None,
            }),
        ),
        (
            "SortMergeJoin".into(),
            mk(PhysOp::SortMergeJoin {
                left: Box::new(sorted("outer_t")),
                right: Box::new(sorted("inner_t")),
                left_key: 0,
                right_key: 0,
                residual: None,
            }),
        ),
        (
            "HashJoin".into(),
            mk(PhysOp::HashJoin {
                left: Box::new(scan(db, "outer_t")),
                right: Box::new(scan(db, "inner_t")),
                left_key: 0,
                right_key: 0,
                residual: None,
            }),
        ),
    ]
}

pub fn run(p: &Params) -> Report {
    let mut rows = Vec::new();
    for &(outer, inner) in &p.grid {
        let db = setup(outer, inner, p.buffer_pages, p.seed);
        let mut methods = Vec::new();
        let mut expect: Option<usize> = None;
        for (name, plan) in forced_plans(&db, p.buffer_pages) {
            // Forced tuple-pair methods are quadratic; measuring BNL on a
            // 50k x 50k grid would take tens of minutes for a number whose
            // magnitude is obvious. Cap the forced-BNL product.
            if name == "BlockNestedLoopJoin" && (outer as u64) * (inner as u64) > 20_000_000 {
                continue;
            }
            db.pool().evict_all().unwrap();
            let before = db.disk().snapshot();
            let result = db.run_plan(&plan).unwrap();
            let io = db.disk().snapshot().since(&before).total();
            match expect {
                None => expect = Some(result.len()),
                Some(n) => assert_eq!(n, result.len(), "{name} output mismatch"),
            }
            methods.push((name, io));
        }
        let (_, physical) = db
            .plan_sql("SELECT COUNT(*) FROM outer_t o JOIN inner_t i ON o.k = i.k")
            .unwrap();
        let pick = physical
            .join_methods()
            .first()
            .copied()
            .unwrap_or("?")
            .to_string();
        rows.push(Row {
            outer_rows: outer,
            inner_rows: inner,
            methods,
            optimizer_pick: pick,
        });
    }
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_method_dominates_and_picks_are_near_optimal() {
        let report = run(&Params::quick());
        // Small outer, big indexed inner: INL crushes BNL.
        let small_outer = report.rows.iter().min_by_key(|r| r.outer_rows).unwrap();
        let inl = small_outer.io_of("IndexNestedLoopJoin").unwrap();
        let bnl = small_outer.io_of("BlockNestedLoopJoin").unwrap();
        assert!(inl < bnl, "tiny outer: INL {inl} !< BNL {bnl}");
        // Big-big: hash join beats INL (which probes per outer row).
        let big_big = report.rows.iter().max_by_key(|r| r.outer_rows).unwrap();
        let hj = big_big.io_of("HashJoin").unwrap();
        let inl2 = big_big.io_of("IndexNestedLoopJoin").unwrap();
        assert!(hj < inl2, "big-big: HJ {hj} !< INL {inl2}");
        // Different winners across the grid — the "no dominator" claim.
        assert_ne!(
            small_outer.best_method(),
            big_big.best_method(),
            "same method won everywhere"
        );
        // The optimizer's pick costs at most 3x the best measured method.
        for r in &report.rows {
            assert!(
                r.pick_regret() <= 3.0,
                "({}, {}): pick {} regret {:.1}",
                r.outer_rows,
                r.inner_rows,
                r.optimizer_pick,
                r.pick_regret()
            );
        }
    }
}
