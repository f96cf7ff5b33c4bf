//! Plan regret in counted work: the check of the claim the engine
//! reproduces, that the cost model predicts the work a plan does and so the
//! optimizer picks well.
//!
//! Every statement of a fixed, seeded set is planned under each of the
//! seven strategies, and each of those plans is paired with its
//! [`sibling`] (its hash operators swapped for their row-at-a-time twins).
//! The crossover and grid classes add the plans forced by hand: a
//! sequential scan and an index scan, and every join family of
//! [`join_plans`]; the ordered class adds System R's plan planned without
//! interesting orders. The alternatives, deduplicated by digest, each run
//! from a cold pool and are charged the model's own objective over what was
//! counted: `CostModel::total` of the pages read and written and of the
//! rows every operator produced and every block nested loop compared.
//! Regret is the work of the plan the engine runs (System R's, the default)
//! over the least work of any alternative — plans judged by running every
//! alternative, as Leis et al. do ("How Good Are Query Optimizers,
//! Really?", VLDB 2015).
//!
//! Everything runs twice: on a pool that holds the data and on a small
//! one. Per class and pool the test prints regret p50 and p95, the
//! Spearman between estimated cost and measured work over the strategies'
//! plans (the alternatives the model priced) and the worst statement. It
//! holds each p95 and each Spearman to the value it read when it was
//! written ([`BOUNDS`]), and asserts the claims of the access-path,
//! join-method, enumeration, calibration, syntactic-baseline,
//! interesting-order and buffer-pool experiments it replaced
//! (EXPERIMENTS.md S21, S22). Counted work is exact on seeded data, so the
//! table is the same in debug and in release and on every run:
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
use evopt::workload::tpch_lite::queries;
use evopt::workload::Topology::{Chain, Clique, Cycle, Star};
use evopt::workload::{load_tpch_lite, load_wisconsin, JoinWorkload};
use evopt::{Database, DatabaseConfig, Strategy, Tuple, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use support::{battery, join_plans, percentile, plan, seeded_with, sibling, spearman};

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
type Bounds = [(&'static str, [f64; 2], [f64; 2]); 8];
const BOUNDS: Bounds = [
    ("crossover-unclustered", [1.0, 1.0], [1.0, 1.0]),
    ("crossover-clustered", [1.0, 1.0], [1.0, 1.0]),
    ("join-grid", [1.0, 1.0], [0.975, 0.975]),
    ("battery", [1.0, 1.0], [0.983, 0.983]),
    ("joins", [1.026, 1.026], [0.977, 0.977]),
    ("baseline", [1.121, 1.121], [0.98, 0.98]),
    ("ordered", [1.0, 1.0], [0.895, 0.946]),
    ("all", [1.025, 1.025], [0.986, 0.986]),
];

/// The Spearman between the model's I/O estimate and the pages counted,
/// over the strategies' plans of the crossover and grid classes on both
/// pools, at least.
const PAGES_RHO: f64 = 0.93;

/// One alternative of a statement, under one of its names.
struct Alt {
    /// The strategy that made it, `sibling(<strategy>)`, or the forced
    /// plan's operator.
    name: String,
    digest: String,
    /// The model's price, when the optimizer made the plan, and its I/O
    /// part.
    est: Option<f64>,
    est_io: Option<f64>,
    /// `None` for a plan not run: past its cap ([`PLAN_CAP`]).
    work: Option<f64>,
    /// The pages it read and wrote, when it ran.
    pages: Option<f64>,
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

    fn pages(&self, name: &str) -> f64 {
        let pages = self.alt(name).pages;
        pages.unwrap_or_else(|| panic!("{} {}: {name} did not run", self.class, self.label))
    }

    fn est(&self, strategy: &str) -> f64 {
        self.alt(strategy).est.unwrap()
    }

    fn forced(&self) -> &[Alt] {
        &self.alts[2 * STRATEGIES.len()..]
    }

    /// What the report prints beside the chosen plan: the forced plans,
    /// and the syntactic plan of a baseline template.
    fn beside(&self) -> impl Iterator<Item = &Alt> {
        let syntactic = (self.class == "baseline").then(|| self.alt("syntactic"));
        self.forced().iter().chain(syntactic)
    }
}

fn config(buffer_pages: usize) -> DatabaseConfig {
    DatabaseConfig {
        buffer_pages,
        ..DatabaseConfig::default()
    }
}

/// Plan `sql` under every strategy, pair each plan with its sibling, add
/// `forced` (with the model's price when the optimizer made it), and run
/// each distinct plan from a cold pool.
fn measure(
    db: &Database,
    class: &'static str,
    label: String,
    sql: &str,
    forced: Vec<(String, PhysicalPlan, Option<Cost>)>,
) -> Stmt {
    let model = db.optimizer_config().cost_model;
    let mut plans = Vec::new();
    for strategy in STRATEGIES {
        db.set_strategy(strategy);
        let (_, physical) = db.plan_sql(sql).unwrap();
        let est = Some(physical.est_cost);
        plans.push((strategy.name().to_string(), physical, est));
    }
    db.set_strategy(Strategy::SystemR);
    let siblings: Vec<_> = plans
        .iter()
        .map(|(name, p, _)| (format!("sibling({name})"), sibling(p), None))
        .collect();
    plans.extend(siblings);
    plans.extend(forced);

    let mut seen = HashSet::new();
    let mut answer = None;
    let mut alts: Vec<Alt> = Vec::new();
    for (name, physical, est) in plans {
        let digest = physical.digest_hex();
        let first = seen.insert(digest.clone());
        let cap = est.map_or(SIBLING_CAP, |_| PLAN_CAP);
        let (work, pages) = match first {
            false => {
                let earlier = alts.iter().find(|a| a.digest == digest).unwrap();
                (earlier.work, earlier.pages)
            }
            true if !alts.is_empty() && effort(&physical) > cap => (None, None),
            true => {
                db.pool().evict_all().unwrap();
                let (rows, metrics) = db.run_plan_instrumented(&physical).unwrap();
                let n = *answer.get_or_insert(rows.len());
                assert_eq!(rows.len(), n, "{name} answers {label} with other rows");
                let ops = &metrics.operators;
                let produced: u64 = ops.iter().map(|o| o.actual_rows).sum();
                // The row pairs each block nested loop compares: its
                // children follow it in pre-order, the outer first.
                let bnl = ops.iter().enumerate();
                let bnl = bnl.filter(|(_, o)| o.op == "BlockNestedLoopJoin");
                let compared: u64 = bnl
                    .map(|(i, _)| {
                        let (outer, inner) = (&ops[i + 1], &ops[i + 1 + ops[i + 1].subtree_size]);
                        outer.actual_rows * inner.actual_rows
                    })
                    .sum();
                let pages = (metrics.disk_reads + metrics.disk_writes) as f64;
                let rows = (produced + compared) as f64;
                (Some(model.total(Cost::new(pages, rows))), Some(pages))
            }
        };
        alts.push(Alt {
            name,
            digest,
            est: est.map(|c| model.total(c)),
            est_io: est.map(|c| c.io),
            work,
            pages,
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
            let forced =
                forced.map(|(name, op)| (name.into(), selected(plan(op, schema.clone())), None));
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
        let forced = forced.map(|(name, p)| (name.to_string(), selected(p), None));
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

/// T1's templates: a star and a chain of four relations written with a bad
/// FROM order (two unconnected relations first, so the syntactic plan
/// crosses them), Wisconsin selections and joins, and TPC-H-lite joins.
fn baseline(pages: usize) -> Vec<Stmt> {
    let db = Database::new(config(pages));
    load_tpch_lite(&db, 0.2, 42).unwrap();
    load_wisconsin(&db, "wisc_a", 2_000, 42).unwrap();
    load_wisconsin(&db, "wisc_b", 2_000, 43).unwrap();
    db.execute("CREATE INDEX wisc_a_u1 ON wisc_a (unique1)")
        .unwrap();
    db.execute("CREATE INDEX wisc_b_u1 ON wisc_b (unique1)")
        .unwrap();
    let mut star = JoinWorkload::new(Star, 4, 40, 42);
    let mut chain = JoinWorkload::new(Chain, 4, 40, 42);
    for w in [&mut star, &mut chain] {
        w.growth = 2.5;
        w.load(&db, true).unwrap();
    }
    db.execute("ANALYZE").unwrap();
    let templates = [
        (
            "star-bad-from",
            star.count_query_with_from_order(&[1, 2, 0, 3]),
        ),
        (
            "chain-bad-from",
            chain.count_query_with_from_order(&[0, 2, 1, 3]),
        ),
        (
            "wisc-1%-sel",
            "SELECT COUNT(*) FROM wisc_a WHERE one_pct = 7".into(),
        ),
        (
            "wisc-point",
            "SELECT stringu1 FROM wisc_a WHERE unique1 = 1000".into(),
        ),
        (
            "wisc-join-uu",
            "SELECT COUNT(*) FROM wisc_a a JOIN wisc_b b ON a.unique1 = b.unique1 \
             WHERE a.one_pct = 3"
                .into(),
        ),
        (
            "wisc-join-sel",
            "SELECT COUNT(*) FROM wisc_a a JOIN wisc_b b ON a.unique1 = b.unique1 \
             WHERE b.unique2 < 200"
                .into(),
        ),
        ("tpch-cust-orders", queries::CUSTOMER_ORDERS.into()),
        ("tpch-shipped-big", queries::SHIPPED_BIG_ORDERS.into()),
        (
            "tpch-3way",
            "SELECT COUNT(*) FROM lineitem l JOIN orders o ON l.l_order = o.o_key \
             JOIN customer c ON o.o_customer = c.c_key WHERE c.c_balance > 8000"
                .into(),
        ),
        ("tpch-5way-revenue", queries::REVENUE_PER_NATION.into()),
    ];
    let stmts = templates.map(|(label, sql)| measure(&db, "baseline", label.into(), &sql, vec![]));
    stmts.into()
}

/// T1's join templates: every one the syntactic plan's order can hurt.
fn is_join(label: &str) -> bool {
    ["join", "way", "bad-from"]
        .iter()
        .any(|k| label.contains(k))
}

/// F3's statements, whose order a sort or a merge join can use, and one
/// join whose order the join enumeration must carry: `wa` clustered on
/// `unique2` and indexed on `unique1`, `wb` indexed on `unique1`. Beside
/// the strategies' plans, System R's plan planned with interesting orders
/// off, with its price.
fn ordered(pages: usize) -> Vec<Stmt> {
    let db = Database::new(config(pages));
    load_wisconsin(&db, "wa", 4_000, 13).unwrap();
    load_wisconsin(&db, "wb", 4_000, 14).unwrap();
    for ddl in [
        "CREATE CLUSTERED INDEX wa_u2 ON wa (unique2)",
        "CREATE INDEX wa_u1 ON wa (unique1)",
        "CREATE INDEX wb_u1 ON wb (unique1)",
        "ANALYZE",
    ] {
        db.execute(ddl).unwrap();
    }
    let statements = [
        (
            "order-by-indexed",
            "SELECT unique2, stringu1 FROM wa WHERE unique2 < 800 ORDER BY unique2",
        ),
        (
            "order-by-join-key",
            "SELECT a.unique1 FROM wa a JOIN wb b ON a.unique1 = b.unique1 \
             WHERE b.unique2 < 400 ORDER BY a.unique1",
        ),
        ("full-order-by", "SELECT unique2 FROM wa ORDER BY unique2"),
        // `wa` lies in `unique2` order, and the join keeps its probe's.
        (
            "order-by-clustered-join",
            "SELECT a.unique2 FROM wa a JOIN wb b ON a.unique2 = b.unique1 ORDER BY a.unique2",
        ),
    ];
    let stmts = statements.map(|(label, sql)| {
        db.set_track_orders(false);
        let (_, untracked) = db.plan_sql(sql).unwrap();
        db.set_track_orders(true);
        let est = Some(untracked.est_cost);
        let forced = vec![("untracked".to_string(), untracked, est)];
        measure(&db, "ordered", label.into(), sql, forced)
    });
    stmts.into()
}

/// (estimated cost, measured work) of every distinct plan a strategy made
/// that ran.
fn priced(stmts: &[&Stmt]) -> Vec<(f64, f64)> {
    let ran = stmts.iter().flat_map(|s| s.ran());
    ran.filter_map(|a| Some((a.est?, a.work?))).collect()
}

/// `v` to three places: what the tables print and the bounds hold.
fn round(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Regret p50, p95 and max and the Spearman, to three places.
fn stats(stmts: &[&Stmt]) -> [f64; 4] {
    let regrets: Vec<f64> = stmts.iter().map(|s| s.regret()).collect();
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
/// least-work plan, and every statement with forced plans or of the
/// baseline beside them, with the model's prices.
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
        "{worst}\n| statement | chosen: work / est | regret | beside it: work / pages (est) |\n\
         |---|---|---|---|\n"
    ));
    for s in stmts.iter().filter(|s| s.beside().next().is_some()) {
        let forced = s.beside().map(|a| {
            let est = a.est.map_or(String::new(), |e| format!(" ({e:.2})"));
            match (a.work, a.pages) {
                (Some(work), Some(pages)) => format!("{} {work:.2} / {pages}{est}", a.name),
                _ => format!("{} skipped{est}", a.name),
            }
        });
        let forced = forced.collect::<Vec<_>>().join(", ");
        let (name, chosen, regret) = (&s.label, &s.alts[0], s.regret());
        let (work, est) = (chosen.work.unwrap(), chosen.est.unwrap());
        let row = format!(
            "| {} {name} | {work:.2} / {est:.2} | {regret:.3} | {forced} |\n",
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

/// The syntactic baseline's claims, on counted work: wherever the
/// syntactic plan ran, the plan the engine runs does at most 1.2 times its
/// work plus 4; both bad FROM orders run theirs; on every join template the
/// model prices the syntactic plan above System R's, and on one the
/// syntactic plan does five times System R's work or more.
fn baseline_claims(pool: &str, stmts: &[Stmt]) {
    let mut widest: f64 = 0.0;
    for s in of_class(stmts, "baseline") {
        let (sysr, label) = (s.work("system-r"), &s.label);
        let syntactic = s.alt("syntactic").work;
        if label.contains("bad-from") {
            assert!(syntactic.is_some(), "{pool}: {label}: syntactic skipped");
        }
        if let Some(base) = syntactic {
            assert!(
                sysr <= 1.2 * base + 4.0,
                "{pool}: {label}: {sysr} vs {base}"
            );
        }
        if is_join(label) {
            let (base, opt) = (s.est("syntactic"), s.est("system-r"));
            assert!(base > opt, "{pool}: {label}: estimate {base} !> {opt}");
            widest = widest.max(syntactic.unwrap_or(0.0) / sysr);
        }
    }
    assert!(widest >= 5.0, "{pool}: syntactic at most {widest}x");
}

/// The interesting-order claims, on the model's own cost: tracking orders
/// never prices System R's plan above the plan made without it, and saves
/// more than 5 % on a single-table statement and on a join.
fn ordered_claims(pool: &str, stmts: &[Stmt]) {
    let mut saved = [false; 2];
    for s in of_class(stmts, "ordered") {
        let (with, without) = (s.est("system-r"), s.est("untracked"));
        let label = &s.label;
        assert!(
            with <= without * 1.001,
            "{pool}: {label}: {with} > {without}"
        );
        saved[label.contains("join") as usize] |= with < without * 0.95;
    }
    assert_eq!(
        saved, [true; 2],
        "{pool}: orders saved on [a table, a join]"
    );
}

/// The buffer-pool claims, across the pools: the grid's forced block
/// nested loop moves more pages on the small pool at both points, and the
/// model's I/O estimate ranks the strategies' plans of the crossover and
/// grid classes on both pools as the pages they moved do.
fn buffer_claims(pools: &[Vec<Stmt>]) {
    let [fits, small] = pools else {
        panic!("two pools")
    };
    for (outer, inner) in GRID {
        let label = format!("{outer}x{inner}");
        let pages = |stmts| stmt(stmts, "join-grid", &label).pages("BlockNestedLoopJoin");
        let (few, many) = (pages(small), pages(fits));
        assert!(
            few > many,
            "{label}: BNL {few} pages on 16 !> {many} on 1 024"
        );
    }
    let swept = pools.iter().flatten();
    let swept = swept.filter(|s| s.class.starts_with("crossover") || s.class == "join-grid");
    let priced = swept.flat_map(|s| s.ran());
    let pairs: Vec<_> = priced.filter_map(|a| Some((a.est_io?, a.pages?))).collect();
    let rho = round(spearman(&pairs));
    println!(
        "I/O estimate against pages moved, {} plans: Spearman {rho:.3}",
        pairs.len()
    );
    assert!(
        rho >= PAGES_RHO,
        "I/O estimate against pages: Spearman {rho}"
    );
}

fn stmt<'a>(stmts: &'a [Stmt], class: &str, label: &str) -> &'a Stmt {
    let found = stmts.iter().find(|s| s.class == class && s.label == label);
    found.unwrap_or_else(|| panic!("no {class} statement {label}"))
}

#[test]
fn the_optimizer_picks_within_its_regret_bounds_in_counted_work() {
    let mut pools = Vec::new();
    for (at, (pool, pages)) in POOLS.into_iter().enumerate() {
        let mut stmts = crossover(pages);
        stmts.extend(grid(pages));
        stmts.extend(battery_class(pages));
        stmts.extend(joins(pages));
        stmts.extend(baseline(pages));
        stmts.extend(ordered(pages));
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
        baseline_claims(pool, &stmts);
        ordered_claims(pool, &stmts);
        pools.push(stmts);
    }
    buffer_claims(&pools);
}
