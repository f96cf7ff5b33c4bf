//! Plan regret in counted work: the check of the claim the engine
//! reproduces, that the cost model predicts the work a plan does and so the
//! optimizer picks well.
//!
//! Every statement of a fixed, seeded set is planned under each of the
//! seven strategies, and each of those plans is paired with its
//! [`sibling`] (its hash operators swapped for their row-at-a-time twins).
//! The crossover and grid classes add the plans forced by hand: a
//! sequential scan and an index scan, and every join family of
//! [`join_plans`]. The alternatives, deduplicated by digest, each run from
//! a cold pool and are charged the model's own objective over what was
//! counted: `CostModel::total` of the pages read and written and of the
//! rows every operator produced. Regret is the work of the plan the engine
//! runs (System R's, the default) over the least work of any alternative —
//! plans judged by running every alternative, as Leis et al. do ("How Good
//! Are Query Optimizers, Really?", VLDB 2015).
//!
//! Everything runs twice: on a pool that holds the data and on a small
//! one. Per class and pool the test prints regret p50 and p95, the
//! Spearman between estimated cost and measured work over the strategies'
//! plans (the alternatives the model priced) and the worst statement. It
//! holds each p95 and each Spearman to the value it read when it was
//! written ([`BOUNDS`]), and asserts the claims of the access-path,
//! join-method, enumeration and calibration experiments it replaced
//! (EXPERIMENTS.md S21). Counted work is exact on seeded data, so the table
//! is the same in debug and in release and on every run:
//!
//! ```text
//! cargo test --release --test plan_regret -- --nocapture
//! ```

mod support;

use std::collections::HashSet;
use std::ops::Bound;

use evopt::common::expr::{col, lit};
use evopt::common::{BinOp, Expr};
use evopt::core::cost::Cost;
use evopt::core::physical::{KeyRange, PhysOp, PhysicalPlan};
use evopt::exec::ExecEnv;
use evopt::workload::Topology::{Chain, Clique, Cycle, Star};
use evopt::workload::{load_wisconsin, JoinWorkload};
use evopt::{Database, DatabaseConfig, Strategy, Tuple, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use support::{battery, join_plans, plan, seeded_with, sibling};

/// The pool that holds every class's data, and the small one.
const POOLS: [(&str, usize); 2] = [("fits", 1024), ("small", 16)];

/// System R first: its plan is the one the engine runs.
const STRATEGIES: [Strategy; 7] = [
    Strategy::SystemR,
    Strategy::BushyDp,
    Strategy::DpCcp,
    Strategy::Greedy,
    Strategy::Goo,
    Strategy::QuickPick {
        samples: 8,
        seed: 1,
    },
    Strategy::Syntactic,
];

/// Rows of the crossover sweep's table, and the fractions of it each
/// statement selects.
const WISC_ROWS: usize = 4_000;
const SELECTIVITIES: [f64; 5] = [0.001, 0.01, 0.1, 0.5, 1.0];

/// (outer rows, inner rows) of the join-method grid: a tiny outer against
/// a big indexed inner, and two inputs too big for the small pool.
const GRID: [(usize, usize); 2] = [(10, 5_000), (200, 2_000)];

/// Rows of the smallest relation of each chain, star, cycle and clique.
const JOIN_BASE_ROWS: usize = 30;

/// An alternative other than System R's is not run when its [`effort`]
/// passes its cap: a strategy's plan [`PLAN_CAP`], a sibling
/// [`SIBLING_CAP`]. A nested-loop sibling of a bushy hash-join plan reruns
/// a whole join per outer row (one over the battery's five-way join takes
/// minutes), and a sampled order may cross-multiply big relations: each is
/// the costliest alternative by its row count alone.
const PLAN_CAP: f64 = 5_000_000.0;
const SIBLING_CAP: f64 = 50_000.0;

/// What each class, and all of them together, read when this test was
/// written, per pool in [`POOLS`] order: regret p95 at most, Spearman at
/// least. A change that moves one past its bound makes the optimizer pick
/// worse, or its model predict worse, than it did.
type Bounds = [(&'static str, [f64; 2], [f64; 2]); 6];
const BOUNDS: Bounds = [
    ("crossover-unclustered", [1.0, 1.0], [1.0, 1.0]),
    ("crossover-clustered", [1.0, 1.0], [1.0, 1.0]),
    ("join-grid", [1.0, 1.0], [0.671, 0.872]),
    ("battery", [1.0, 1.0], [0.916, 0.916]),
    ("joins", [1.026, 1.026], [0.823, 0.823]),
    ("all", [1.025, 1.025], [0.875, 0.876]),
];

/// One alternative of a statement, under one of its names.
struct Alt {
    /// The strategy that made it, `sibling(<strategy>)`, or the forced
    /// plan's operator.
    name: String,
    digest: String,
    /// The model's price, when a strategy made the plan.
    est: Option<f64>,
    /// `None` for a plan not run: past its cap ([`PLAN_CAP`]).
    work: Option<f64>,
    /// The first alternative with this digest: the one that counts.
    first: bool,
}

struct Stmt {
    class: &'static str,
    label: String,
    /// The strategies' plans in [`STRATEGIES`] order, their siblings, then
    /// the forced plans.
    alts: Vec<Alt>,
}

impl Stmt {
    /// Distinct plans that ran.
    fn ran(&self) -> impl Iterator<Item = &Alt> {
        self.alts.iter().filter(|a| a.first && a.work.is_some())
    }

    fn least(&self) -> &Alt {
        let by_work = |a: &&Alt, b: &&Alt| a.work.unwrap().total_cmp(&b.work.unwrap());
        self.ran().min_by(by_work).unwrap()
    }

    fn regret(&self) -> f64 {
        self.alts[0].work.unwrap() / self.least().work.unwrap()
    }

    fn alt(&self, name: &str) -> &Alt {
        let found = self.alts.iter().find(|a| a.name == name);
        found.unwrap_or_else(|| panic!("{} {}: no plan {name}", self.class, self.label))
    }

    /// The work of the plan a claim is about.
    fn work(&self, name: &str) -> f64 {
        let work = self.alt(name).work;
        work.unwrap_or_else(|| panic!("{} {}: {name} did not run", self.class, self.label))
    }

    fn est(&self, strategy: &str) -> f64 {
        self.alt(strategy).est.unwrap()
    }

    fn forced(&self) -> &[Alt] {
        &self.alts[2 * STRATEGIES.len()..]
    }
}

fn config(buffer_pages: usize) -> DatabaseConfig {
    DatabaseConfig {
        buffer_pages,
        ..DatabaseConfig::default()
    }
}

/// Plan `sql` under every strategy, pair each plan with its sibling, add
/// `forced`, and run each distinct plan from a cold pool.
fn measure(
    db: &Database,
    class: &'static str,
    label: String,
    sql: &str,
    forced: Vec<(String, PhysicalPlan)>,
) -> Stmt {
    let model = db.optimizer_config().cost_model;
    let mut plans = Vec::new();
    for strategy in STRATEGIES {
        db.set_strategy(strategy);
        let (_, physical) = db.plan_sql(sql).unwrap();
        let est = model.total(physical.est_cost);
        plans.push((strategy.name().to_string(), physical, Some(est)));
    }
    db.set_strategy(Strategy::SystemR);
    let siblings: Vec<_> = plans
        .iter()
        .map(|(name, p, _)| (format!("sibling({name})"), sibling(p), None))
        .collect();
    plans.extend(siblings);
    plans.extend(forced.into_iter().map(|(name, p)| (name, p, None)));

    let mut seen = HashSet::new();
    let mut answer = None;
    let mut alts: Vec<Alt> = Vec::new();
    for (name, physical, est) in plans {
        let digest = physical.digest_hex();
        let first = seen.insert(digest.clone());
        let cap = est.map_or(SIBLING_CAP, |_| PLAN_CAP);
        let work = match first {
            false => alts.iter().find(|a| a.digest == digest).unwrap().work,
            true if !alts.is_empty() && effort(&physical) > cap => None,
            true => {
                db.pool().evict_all().unwrap();
                let (rows, metrics) = db.run_plan_instrumented(&physical).unwrap();
                let n = *answer.get_or_insert(rows.len());
                assert_eq!(rows.len(), n, "{name} answers {label} with other rows");
                let produced: u64 = metrics.operators.iter().map(|o| o.actual_rows).sum();
                let pages = metrics.disk_reads + metrics.disk_writes;
                Some(model.total(Cost::new(pages as f64, produced as f64)))
            }
        };
        alts.push(Alt {
            name,
            digest,
            est,
            work,
            first,
        });
    }
    Stmt { class, label, alts }
}

/// `input` under the projection a `SELECT *` plans over it, so a forced
/// plan does the work the statement's own plans do.
fn selected(input: PhysicalPlan) -> PhysicalPlan {
    let schema = input.schema.clone();
    let exprs = (0..schema.len()).map(col).collect();
    let input = Box::new(input);
    plan(PhysOp::Project { input, exprs }, schema)
}

/// Rows a plan's operators produce on its estimates, counting a nested
/// loop's inner once per outer row, plus the row pairs a nested loop
/// compares.
fn effort(p: &PhysicalPlan) -> f64 {
    match &p.op {
        PhysOp::NestedLoopJoin { left, right, .. } => {
            effort(left) + left.est_rows * (effort(right) + right.est_rows)
        }
        PhysOp::BlockNestedLoopJoin { left, right, .. } => {
            effort(left) + effort(right) + left.est_rows * right.est_rows
        }
        _ => p.est_rows + p.children().into_iter().map(effort).sum::<f64>(),
    }
}

/// T2's sweep: `wisc` with a clustered index on `unique2` (loaded in
/// order) and an unclustered one on `unique1` (a permutation); each
/// statement selects a fraction of the table through one of them, with the
/// forced sequential scan and index scan beside the strategies' plans.
fn crossover(pages: usize) -> Vec<Stmt> {
    let db = Database::new(config(pages));
    load_wisconsin(&db, "wisc", WISC_ROWS, 7).unwrap();
    for ddl in [
        "CREATE CLUSTERED INDEX wisc_u2 ON wisc (unique2)",
        "CREATE INDEX wisc_u1 ON wisc (unique1)",
        "ANALYZE",
    ] {
        db.execute(ddl).unwrap();
    }
    let schema = db.catalog().table("wisc").unwrap().schema.clone();
    let mut stmts = Vec::new();
    for (class, column, index, clustered) in [
        ("crossover-unclustered", "unique1", "wisc_u1", false),
        ("crossover-clustered", "unique2", "wisc_u2", true),
    ] {
        let ordinal = schema.resolve(None, column).unwrap();
        for sel in SELECTIVITIES {
            let cutoff = ((WISC_ROWS as f64) * sel).round().max(1.0) as i64;
            let filter = Some(Expr::binary(BinOp::Lt, col(ordinal), lit(cutoff)));
            let (table, cols) = ("wisc".to_string(), None);
            let seq = PhysOp::SeqScan {
                table: table.clone(),
                cols: cols.clone(),
                filter,
            };
            let range = KeyRange {
                low: Bound::Unbounded,
                high: Bound::Excluded(Value::Int(cutoff)),
            };
            let index = PhysOp::IndexScan {
                table,
                index: index.into(),
                range,
                cols,
                residual: None,
                clustered,
            };
            let forced = [("SeqScan", seq), ("IndexScan", index)];
            let forced = forced.map(|(name, op)| (name.into(), selected(plan(op, schema.clone()))));
            let sql = format!("SELECT * FROM wisc WHERE {column} < {cutoff}");
            let label = format!("sel={sel}");
            stmts.push(measure(&db, class, label, &sql, forced.into()));
        }
    }
    stmts
}

/// T4's grid: `l(a, tag)` joined to `r(b, payload)` on `a = b`, `r.b`
/// dense, unique and indexed, `l.a` drawn uniformly from it; every join
/// family of [`join_plans`] but the tuple nested loop beside the
/// strategies' plans.
fn grid(pages: usize) -> Vec<Stmt> {
    let mut stmts = Vec::new();
    for (outer, inner) in GRID {
        let db = Database::new(config(pages));
        let mut rng = StdRng::seed_from_u64(3);
        db.execute("CREATE TABLE l (a INT NOT NULL, tag STRING NOT NULL)")
            .unwrap();
        db.execute("CREATE TABLE r (b INT NOT NULL, payload INT NOT NULL)")
            .unwrap();
        let left: Vec<Tuple> = (0..outer)
            .map(|i| {
                let key = Value::Int(rng.random_range(0..inner as i64));
                Tuple::new(vec![key, Value::Str(format!("pad-{i:08}"))])
            })
            .collect();
        let right: Vec<Tuple> = (0..inner as i64)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 100)]))
            .collect();
        db.insert_tuples("l", &left).unwrap();
        db.insert_tuples("r", &right).unwrap();
        db.execute("CREATE INDEX r_b ON r (b)").unwrap();
        db.execute("ANALYZE").unwrap();
        let env = ExecEnv::new(db.catalog().snapshot(), pages);
        let forced = join_plans(&env).into_iter().skip(1);
        let forced = forced.map(|(name, p)| (name.to_string(), selected(p)));
        let sql = "SELECT * FROM l JOIN r ON l.a = r.b";
        let label = format!("{outer}x{inner}");
        stmts.push(measure(&db, "join-grid", label, sql, forced.collect()));
    }
    stmts
}

/// The shared query battery, in its own world.
fn battery_class(pages: usize) -> Vec<Stmt> {
    let db = seeded_with(config(pages));
    let queries = battery().into_iter().enumerate();
    let stmts = queries.map(|(i, sql)| measure(&db, "battery", format!("#{i}"), sql, Vec::new()));
    stmts.collect()
}

/// Chain, star, cycle and clique joins of 3 to 6 relations, each relation
/// 1.8 times the last, with a selective filter on the biggest (F2's
/// queries).
fn joins(pages: usize) -> Vec<Stmt> {
    let db = Database::new(config(pages));
    let mut stmts = Vec::new();
    for topology in [Chain, Star, Cycle, Clique] {
        for n in 3..=6 {
            let mut w = JoinWorkload::new(topology, n, JOIN_BASE_ROWS, 4);
            w.growth = 1.8;
            w.load(&db, true).unwrap();
            let (sql, label) = (w.filtered_query(100), format!("{} n={n}", topology.name()));
            stmts.push(measure(&db, "joins", label, &sql, Vec::new()));
        }
    }
    stmts
}

/// Nearest-rank percentile.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize]
}

/// Spearman's rank correlation, ties given their mean rank.
fn spearman(pairs: &[(f64, f64)]) -> f64 {
    fn ranks(v: Vec<f64>) -> Vec<f64> {
        let below = |x: f64| v.iter().filter(|&&y| y < x).count() as f64;
        let ties = |x: f64| v.iter().filter(|&&y| y == x).count() as f64;
        v.iter()
            .map(|&x| below(x) + (ties(x) - 1.0) / 2.0)
            .collect()
    }
    let a = ranks(pairs.iter().map(|p| p.0).collect());
    let b = ranks(pairs.iter().map(|p| p.1).collect());
    let mean = (a.len() as f64 - 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in a.iter().zip(&b) {
        cov += (x - mean) * (y - mean);
        va += (x - mean) * (x - mean);
        vb += (y - mean) * (y - mean);
    }
    cov / (va * vb).sqrt()
}

/// (estimated cost, measured work) of every distinct plan a strategy made
/// that ran.
fn priced(stmts: &[&Stmt]) -> Vec<(f64, f64)> {
    let ran = stmts.iter().flat_map(|s| s.ran());
    ran.filter_map(|a| Some((a.est?, a.work?))).collect()
}

/// Regret p50, p95 and max and the Spearman, to three places: what the
/// table prints and the bounds hold.
fn stats(stmts: &[&Stmt]) -> [f64; 4] {
    let regrets: Vec<f64> = stmts.iter().map(|s| s.regret()).collect();
    let round = |v: f64| (v * 1000.0).round() / 1000.0;
    [
        round(percentile(&regrets, 50.0)),
        round(percentile(&regrets, 95.0)),
        round(percentile(&regrets, 100.0)),
        round(spearman(&priced(stmts))),
    ]
}

fn of_class<'a>(stmts: &'a [Stmt], class: &str) -> Vec<&'a Stmt> {
    let all = class == "all";
    stmts.iter().filter(|s| all || s.class == class).collect()
}

/// The per-class table, the worst statement of each class beside its
/// least-work plan, and every statement of the classes with forced plans.
fn report(pool: &str, pages: usize, stmts: &[Stmt]) -> String {
    let mut out = format!(
        "## plan regret in counted work, {pool} pool ({pages} pages)\n\
         | class | stmts | plans | priced | skipped | regret p50 | p95 | max | spearman |\n\
         |---|---|---|---|---|---|---|---|---|\n"
    );
    let mut worst = String::new();
    for (class, ..) in BOUNDS {
        let of = of_class(stmts, class);
        let [p50, p95, max, rho] = stats(&of);
        let plans: usize = of.iter().map(|s| s.ran().count()).sum();
        let distinct = of.iter().flat_map(|s| s.alts.iter().filter(|a| a.first));
        let skipped = distinct.filter(|a| a.work.is_none()).count();
        let priced = priced(&of).len();
        out.push_str(&format!(
            "| {class} | {} | {plans} | {priced} | {skipped} | {p50:.3} | {p95:.3} | {max:.3} | {rho:.3} |\n",
            of.len(),
        ));
        let by_regret = |a: &&&Stmt, b: &&&Stmt| a.regret().total_cmp(&b.regret());
        let w = of.iter().max_by(by_regret).unwrap();
        let (ran, least) = (&w.alts[0], w.least());
        let mut names = w.alts.iter().filter(|a| a.digest == least.digest);
        let first = names.next().unwrap().name.as_str();
        worst.push_str(&format!(
            "worst of {class}: {} {} ran {} ({:.2}); least {} ({:.2}), {first} and {} more\n",
            w.class,
            w.label,
            ran.digest,
            ran.work.unwrap(),
            least.digest,
            least.work.unwrap(),
            names.count(),
        ));
    }
    out.push_str(&format!(
        "{worst}\n| statement | chosen | regret | forced plans |\n|---|---|---|---|\n"
    ));
    for s in stmts.iter().filter(|s| !s.forced().is_empty()) {
        let forced = s.forced().iter().map(|a| match a.work {
            Some(work) => format!("{} {work:.2}", a.name),
            None => format!("{} skipped", a.name),
        });
        let forced = forced.collect::<Vec<_>>().join(", ");
        let (name, chosen, regret) = (&s.label, s.alts[0].work.unwrap(), s.regret());
        let row = format!(
            "| {} {name} | {chosen:.2} | {regret:.3} | {forced} |\n",
            s.class
        );
        out.push_str(&row);
    }
    out
}

/// The access-path sweep's claims, on counted work: an unclustered index
/// is the cheaper path at 0.1 % and the sequential scan at 50 %; a
/// clustered index does at most twice the sequential scan's work even at
/// 100 %; and the plan the engine runs is within 10 % of the least work at
/// 80 % of the points or more.
fn access_path_claims(pool: &str, stmts: &[Stmt]) {
    let point = |class: &str, sel: &str| stmt(stmts, class, &format!("sel={sel}"));
    let rare = point("crossover-unclustered", "0.001");
    let (i, q) = (rare.work("IndexScan"), rare.work("SeqScan"));
    assert!(i < q, "{pool}: unclustered index {i} !< seq {q} at 0.1 %");
    let half = point("crossover-unclustered", "0.5");
    let (i, q) = (half.work("IndexScan"), half.work("SeqScan"));
    assert!(q < i, "{pool}: seq {q} !< unclustered index {i} at 50 %");
    let all = point("crossover-clustered", "1");
    let (i, q) = (all.work("IndexScan"), all.work("SeqScan"));
    assert!(i <= 2.0 * q, "{pool}: clustered {i} > 2 x seq {q}");
    let sweep = stmts.iter().filter(|s| s.class.starts_with("crossover"));
    let (near, n) = sweep.fold((0, 0), |(k, n), s| {
        (k + (s.regret() <= 1.1) as usize, n + 1)
    });
    assert!(near * 10 >= n * 8, "{pool}: near least at {near} of {n}");
}

/// The join-method grid's claims, on counted work: index nested loops
/// beat block nested loops on the tiny outer and a hash join beats index
/// nested loops when the outer is big, so no method is the least work at
/// both points; and the plan the engine runs does at most three times the
/// least work at every point.
fn join_method_claims(pool: &str, stmts: &[Stmt]) {
    let least_method = |s: &Stmt| {
        let by_work = |a: &&Alt, b: &&Alt| s.work(&a.name).total_cmp(&s.work(&b.name));
        s.forced().iter().min_by(by_work).unwrap().name.clone()
    };
    let tiny = stmt(stmts, "join-grid", "10x5000");
    let (inl, bnl) = (
        tiny.work("IndexNestedLoopJoin"),
        tiny.work("BlockNestedLoopJoin"),
    );
    assert!(inl < bnl, "{pool}: tiny outer, INL {inl} !< BNL {bnl}");
    let big = stmt(stmts, "join-grid", "200x2000");
    let (hj, inl) = (big.work("HashJoin"), big.work("IndexNestedLoopJoin"));
    assert!(hj < inl, "{pool}: big outer, HJ {hj} !< INL {inl}");
    assert_ne!(least_method(tiny), least_method(big), "{pool}");
    for s in of_class(stmts, "join-grid") {
        let regret = s.regret();
        assert!(regret <= 3.0, "{pool}: {} regret {regret}", s.label);
    }
}

/// The enumeration claims, on the model's own cost: System R is within
/// 1.5 times the bushy optimum, Greedy is never cheaper than the best DP,
/// and the syntactic baseline is the costliest plan of every join and five
/// times the optimum or more on one.
fn enumeration_claims(pool: &str, stmts: &[Stmt]) {
    let mut worst_baseline: f64 = 0.0;
    for s in of_class(stmts, "joins") {
        let (sysr, bushy, label) = (s.est("system-r"), s.est("bushy-dp"), &s.label);
        assert!(
            sysr <= 1.5 * bushy,
            "{pool}: {label}: {sysr} > 1.5 x {bushy}"
        );
        let (dp, greedy) = (sysr.min(bushy).min(s.est("dpccp")), s.est("greedy"));
        assert!(
            greedy >= dp * 0.999,
            "{pool}: {label}: greedy {greedy} < {dp}"
        );
        let costliest = s.alts.iter().filter_map(|a| a.est).fold(0.0, f64::max);
        let baseline = s.est("syntactic");
        assert!(baseline >= costliest * 0.999, "{pool}: {label}: {baseline}");
        worst_baseline = worst_baseline.max(baseline / bushy);
    }
    assert!(worst_baseline >= 5.0, "{pool}: baseline {worst_baseline}x");
}

fn stmt<'a>(stmts: &'a [Stmt], class: &str, label: &str) -> &'a Stmt {
    let found = stmts.iter().find(|s| s.class == class && s.label == label);
    found.unwrap_or_else(|| panic!("no {class} statement {label}"))
}

#[test]
fn the_optimizer_picks_within_its_regret_bounds_in_counted_work() {
    for (at, (pool, pages)) in POOLS.into_iter().enumerate() {
        let mut stmts = crossover(pages);
        stmts.extend(grid(pages));
        stmts.extend(battery_class(pages));
        stmts.extend(joins(pages));
        println!("{}", report(pool, pages, &stmts));

        for (class, p95_bound, rho_bound) in BOUNDS {
            let [_, p95, _, rho] = stats(&of_class(&stmts, class));
            assert!(p95 <= p95_bound[at], "{pool}, {class}: regret p95 {p95}");
            assert!(rho >= rho_bound[at], "{pool}, {class}: Spearman {rho}");
        }
        // The calibration experiment's floor on its sample.
        let priced = priced(&of_class(&stmts, "all")).len();
        assert!(priced >= 25, "{pool}: only {priced} priced plans");
        access_path_claims(pool, &stmts);
        join_method_claims(pool, &stmts);
        enumeration_claims(pool, &stmts);
    }
}
