//! Parametric join-graph workloads for the enumeration experiments.
//!
//! A [`JoinWorkload`] creates `n` relations `r0..r{n-1}` and a query whose
//! predicate graph has the requested [`Topology`]:
//!
//! * **Chain**: `r0 — r1 — r2 — ...` (each joins the next),
//! * **Star**: `r0` joins every other relation,
//! * **Cycle**: a chain plus an edge closing `r{n-1} — r0`,
//! * **Clique**: every pair joined.
//!
//! Relation `i` has `base_rows × growth^i` rows (rounded), so join order
//! genuinely matters: a bad order multiplies the big tail tables early.
//! Every relation has `pk` (unique 0..rows) and `fk` columns; edges equate
//! one side's `fk` with the other's `pk` domain (both are dense integers,
//! giving predictable selectivities).

use evopt_common::{Result, Tuple, Value};
use evopt_engine::Database;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Shape of the predicate graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    Chain,
    Star,
    Cycle,
    Clique,
}

impl Topology {
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Chain => "chain",
            Topology::Star => "star",
            Topology::Cycle => "cycle",
            Topology::Clique => "clique",
        }
    }

    /// Edge list over relation indices.
    pub fn edges(&self, n: usize) -> Vec<(usize, usize)> {
        match self {
            Topology::Chain => (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
            Topology::Star => (1..n).map(|i| (0, i)).collect(),
            Topology::Cycle => {
                let mut e: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
                if n > 2 {
                    e.push((n - 1, 0));
                }
                e
            }
            Topology::Clique => {
                let mut e = Vec::new();
                for i in 0..n {
                    for j in (i + 1)..n {
                        e.push((i, j));
                    }
                }
                e
            }
        }
    }
}

/// A generated workload: tables plus the join query over them.
#[derive(Debug, Clone)]
pub struct JoinWorkload {
    pub topology: Topology,
    pub n: usize,
    pub base_rows: usize,
    pub growth: f64,
    pub seed: u64,
    /// Table name prefix, so multiple workloads can coexist in one DB.
    pub prefix: String,
}

impl JoinWorkload {
    pub fn new(topology: Topology, n: usize, base_rows: usize, seed: u64) -> JoinWorkload {
        JoinWorkload {
            topology,
            n,
            base_rows,
            growth: 2.0,
            seed,
            prefix: format!("{}{n}", topology.name()),
        }
    }

    pub fn table(&self, i: usize) -> String {
        format!("{}_r{i}", self.prefix)
    }

    /// Rows in relation `i`.
    pub fn rows(&self, i: usize) -> usize {
        ((self.base_rows as f64) * self.growth.powi(i as i32)).round() as usize
    }

    /// Create tables, load data, ANALYZE. Optionally index every `pk`.
    pub fn load(&self, db: &Database, with_indexes: bool) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for i in 0..self.n {
            let t = self.table(i);
            db.execute(&format!(
                "CREATE TABLE {t} (pk INT NOT NULL, fk INT NOT NULL, payload INT NOT NULL)"
            ))?;
            let rows = self.rows(i);
            // fk domain: the pk domain of the *next* relation (wrapped), so
            // chain/cycle edges are foreign-key-like; for star/clique the
            // shared dense domains still give sane selectivities.
            let fk_domain = self.rows((i + 1) % self.n).max(1) as i64;
            let tuples: Vec<Tuple> = (0..rows)
                .map(|k| {
                    Tuple::new(vec![
                        Value::Int(k as i64),
                        Value::Int(rng.random_range(0..fk_domain)),
                        Value::Int(rng.random_range(0..1000)),
                    ])
                })
                .collect();
            db.insert_tuples(&t, &tuples)?;
            if with_indexes {
                db.execute(&format!("CREATE UNIQUE INDEX {t}_pk ON {t} (pk)"))?;
            }
        }
        db.execute("ANALYZE")?;
        Ok(())
    }

    /// The join predicate between relations `a` and `b` (a < b by edge
    /// construction): `a.fk = b.pk` when b follows a (FK-style), else a
    /// dense-domain equality `a.pk = b.fk`.
    fn edge_predicate(&self, a: usize, b: usize) -> String {
        let (ta, tb) = (self.table(a), self.table(b));
        if (a + 1) % self.n == b || (b + 1) % self.n == a {
            format!("{ta}.fk = {tb}.pk")
        } else {
            format!("{ta}.pk = {tb}.fk")
        }
    }

    /// `SELECT COUNT(*)` joining all relations along the topology.
    pub fn count_query(&self) -> String {
        let order: Vec<usize> = (0..self.n).collect();
        self.count_query_with_from_order(&order)
    }

    /// Same query with an explicit FROM-clause order — the syntactic
    /// baseline evaluates left to right, so a bad order here is exactly the
    /// "unoptimized" disaster the `baseline` class of `tests/plan_regret.rs`
    /// measures.
    pub fn count_query_with_from_order(&self, order: &[usize]) -> String {
        assert_eq!(order.len(), self.n, "order must cover every relation");
        let tables: Vec<String> = order.iter().map(|&i| self.table(i)).collect();
        let preds: Vec<String> = self
            .topology
            .edges(self.n)
            .into_iter()
            .map(|(a, b)| self.edge_predicate(a, b))
            .collect();
        if preds.is_empty() {
            format!("SELECT COUNT(*) FROM {}", tables.join(", "))
        } else {
            format!(
                "SELECT COUNT(*) FROM {} WHERE {}",
                tables.join(", "),
                preds.join(" AND ")
            )
        }
    }

    /// Like [`Self::count_query`] but with a selective local filter on the
    /// biggest relation — the case where join order matters most.
    pub fn filtered_query(&self, payload_cutoff: i64) -> String {
        let big = self.table(self.n - 1);
        format!(
            "{} AND {big}.payload < {payload_cutoff}",
            self.count_query()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evopt_engine::Strategy;

    #[test]
    fn topologies_have_expected_edge_counts() {
        assert_eq!(Topology::Chain.edges(5).len(), 4);
        assert_eq!(Topology::Star.edges(5).len(), 4);
        assert_eq!(Topology::Cycle.edges(5).len(), 5);
        assert_eq!(Topology::Clique.edges(5).len(), 10);
        assert_eq!(
            Topology::Cycle.edges(2).len(),
            1,
            "no duplicate edge at n=2"
        );
    }

    #[test]
    fn sizes_grow_geometrically() {
        let w = JoinWorkload::new(Topology::Chain, 4, 100, 1);
        assert_eq!(w.rows(0), 100);
        assert_eq!(w.rows(1), 200);
        assert_eq!(w.rows(3), 800);
    }

    #[test]
    fn loads_and_plans_all_topologies() {
        for topo in [
            Topology::Chain,
            Topology::Star,
            Topology::Cycle,
            Topology::Clique,
        ] {
            let db = Database::with_defaults();
            let w = JoinWorkload::new(topo, 4, 50, 7);
            w.load(&db, true).unwrap();
            let (_, plan) = db.plan_sql(&w.count_query()).unwrap();
            assert_eq!(plan.scan_order().len(), 4, "{topo:?}");
        }
    }

    #[test]
    fn chain_counts_are_join_order_invariant() {
        let db = Database::with_defaults();
        let w = JoinWorkload::new(Topology::Chain, 3, 60, 3);
        w.load(&db, false).unwrap();
        let sql = w.count_query();
        let baseline = db.query(&sql).unwrap();
        for strategy in [Strategy::Syntactic, Strategy::Greedy, Strategy::BushyDp] {
            db.set_strategy(strategy);
            assert_eq!(db.query(&sql).unwrap(), baseline, "{}", strategy.name());
        }
    }

    #[test]
    fn queries_mention_every_table() {
        let w = JoinWorkload::new(Topology::Star, 5, 10, 1);
        let q = w.count_query();
        for i in 0..5 {
            assert!(q.contains(&w.table(i)), "{q}");
        }
        let f = w.filtered_query(100);
        assert!(f.contains("payload < 100"));
    }
}
