//! Shared by `batch_equivalence.rs` and `null_semantics.rs`: the forced-plan
//! join fixture, the sibling-operator rewrite both suites use as their
//! differential reference, and [`run_at`], through which they sweep batch
//! sizes. `governor.rs` borrows the fixture to force spilling plans.
//! `verify_differential.rs`, `optimizer_properties.rs` and `plan_regret.rs`
//! share a query battery and the database it runs on. `plan_regret.rs` and
//! `estimates.rs` share the statistics at the end.
//!
//! The two hash operators each have a sibling that does the same job
//! without hashing: `HashAggregate` groups through a map keyed on the group
//! columns' `Value`s where `Sort → SortAggregate` compares neighbouring
//! rows (both feed the same accumulators), and `HashJoin` looks its keys up
//! in a `Value`-keyed index where `NestedLoopJoin` evaluates the equality
//! predicate. "Typed vs row" in the suites' test names means exactly that
//! pair. A `Filter` evaluates its predicate like a scan does; folding it
//! into the scan checks its batch plumbing.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::sync::Arc;

use evopt::{Database, DatabaseConfig, OptimizerConfig, Tuple};
use evopt_catalog::{analyze_table, AnalyzeConfig, Catalog};
use evopt_common::expr::col;
use evopt_common::{Column, DataType, Expr, Result, Schema, Value};
use evopt_core::cost::Cost;
use evopt_core::physical::{PhysOp, PhysicalPlan};
use evopt_exec::{run_collect, ExecEnv};
use evopt_storage::{BufferPool, DiskManager};
use evopt_workload::tpch_lite::queries;
use evopt_workload::{load_tpch_lite, load_wisconsin};

/// `plan` drained at `batch_rows` rows per batch against `db`'s current
/// catalog version, as the engine would run it. The engine's own batch size
/// is the constant `DEFAULT_BATCH_ROWS`; the batch-size sweeps reach the
/// executor through here.
pub fn run_at(db: &Database, plan: &PhysicalPlan, batch_rows: usize) -> Vec<Tuple> {
    try_run_at(db, plan, batch_rows).unwrap()
}

/// [`run_at`] for a plan that may fail: its error, not a panic.
pub fn try_run_at(db: &Database, plan: &PhysicalPlan, batch_rows: usize) -> Result<Vec<Tuple>> {
    let buffer_pages = db.optimizer_config().cost_model.buffer_pages;
    let env = ExecEnv::new(db.catalog().snapshot(), buffer_pages).with_batch_rows(batch_rows);
    run_collect(plan, &env)
}

/// Order-insensitive fingerprint of a result set.
pub fn normalized(rows: &[Tuple]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|t| format!("{t:?}")).collect();
    keys.sort();
    keys
}

/// `l(a INT, tag STRING)` / `r(b INT, payload INT)` with `b` indexed. Key
/// columns are produced by the closures (NULLs allowed); rows are inserted
/// before the index is built so the index stays consistent.
pub fn world(
    pool_pages: usize,
    left_key: impl Fn(i64) -> Value,
    n_left: i64,
    right_key: impl Fn(i64) -> Value,
    n_right: i64,
) -> ExecEnv {
    world_with_key_types(
        pool_pages,
        (DataType::Int, left_key, n_left),
        (DataType::Int, right_key, n_right),
    )
}

/// [`world`] with the key columns `a` and `b` declared as the given types.
pub fn world_with_key_types(
    pool_pages: usize,
    (left_type, left_key, n_left): (DataType, impl Fn(i64) -> Value, i64),
    (right_type, right_key, n_right): (DataType, impl Fn(i64) -> Value, i64),
) -> ExecEnv {
    let pool = BufferPool::new(Arc::new(DiskManager::new()), pool_pages);
    let cat = Arc::new(Catalog::new(pool));
    let l = cat
        .create_table(
            "l",
            Schema::new(vec![
                Column::new("a", left_type),
                Column::new("tag", DataType::Str),
            ]),
        )
        .unwrap();
    for i in 0..n_left {
        l.heap
            .insert(&Tuple::new(vec![left_key(i), Value::Str(format!("L{i}"))]))
            .unwrap();
    }
    let r = cat
        .create_table(
            "r",
            Schema::new(vec![
                Column::new("b", right_type),
                Column::new("payload", DataType::Int),
            ]),
        )
        .unwrap();
    for i in 0..n_right {
        r.heap
            .insert(&Tuple::new(vec![right_key(i), Value::Int(i * 100)]))
            .unwrap();
    }
    cat.create_index("r_b", "r", "b", false, false).unwrap();
    analyze_table(&cat, "l", &AnalyzeConfig::default()).unwrap();
    analyze_table(&cat, "r", &AnalyzeConfig::default()).unwrap();
    ExecEnv::new(cat, pool_pages)
}

pub fn plan(op: PhysOp, schema: Schema) -> PhysicalPlan {
    PhysicalPlan {
        op,
        schema,
        est_rows: 0.0,
        est_cost: Cost::ZERO,
        output_order: None,
    }
}

pub fn scan(env: &ExecEnv, t: &str) -> PhysicalPlan {
    let schema = env.catalog.table(t).unwrap().schema.clone();
    plan(
        PhysOp::SeqScan {
            table: t.into(),
            cols: None,
            filter: None,
        },
        schema,
    )
}

fn sorted(input: PhysicalPlan, by: &[usize]) -> PhysicalPlan {
    let schema = input.schema.clone();
    plan(
        PhysOp::Sort {
            input: Box::new(input),
            keys: by.iter().map(|&c| (c, true)).collect(),
        },
        schema,
    )
}

pub fn sorted_scan(env: &ExecEnv, t: &str) -> PhysicalPlan {
    sorted(scan(env, t), &[0])
}

/// Every join family over the same inputs, `l.a = r.b`. `NestedLoopJoin`
/// comes first and `HashJoin` last.
pub fn join_plans(env: &ExecEnv) -> Vec<(&'static str, PhysicalPlan)> {
    let schema = scan(env, "l").schema.join(&scan(env, "r").schema);
    let pred = Some(Expr::eq(col(0), col(2)));
    vec![
        (
            "NestedLoopJoin",
            plan(
                PhysOp::NestedLoopJoin {
                    left: Box::new(scan(env, "l")),
                    right: Box::new(scan(env, "r")),
                    predicate: pred.clone(),
                },
                schema.clone(),
            ),
        ),
        (
            "BlockNestedLoopJoin",
            plan(
                PhysOp::BlockNestedLoopJoin {
                    left: Box::new(scan(env, "l")),
                    right: Box::new(scan(env, "r")),
                    predicate: pred,
                    block_pages: 4,
                },
                schema.clone(),
            ),
        ),
        (
            "IndexNestedLoopJoin",
            plan(
                PhysOp::IndexNestedLoopJoin {
                    outer: Box::new(scan(env, "l")),
                    inner_table: "r".into(),
                    index: "r_b".into(),
                    outer_key: 0,
                    residual: None,
                },
                schema.clone(),
            ),
        ),
        (
            "SortMergeJoin",
            plan(
                PhysOp::SortMergeJoin {
                    left: Box::new(sorted_scan(env, "l")),
                    right: Box::new(sorted_scan(env, "r")),
                    left_key: 0,
                    right_key: 0,
                    residual: None,
                },
                schema.clone(),
            ),
        ),
        (
            "HashJoin",
            plan(
                PhysOp::HashJoin {
                    left: Box::new(scan(env, "l")),
                    right: Box::new(scan(env, "r")),
                    left_key: 0,
                    right_key: 0,
                    residual: None,
                },
                schema,
            ),
        ),
    ]
}

/// `p` with every hash operator replaced by its row-at-a-time sibling, and
/// a `Filter` folded into the scan under it:
///
/// * a `Filter` over a `SeqScan` becomes the scan's pushed filter
///   (`Expr::eval_predicate` per row, as in the `Filter`);
/// * `HashAggregate` becomes `Sort → SortAggregate` (groups found by
///   comparing neighbouring rows, not by hashing);
/// * `HashJoin` becomes `NestedLoopJoin` on `left.key = right.key AND
///   residual` (the predicate evaluator's three-valued equality), which
///   also emits matches in the hash join's order — probe rows in order,
///   each with its build matches in build order.
///
/// Everything else is kept, so the two plans differ only in those operators.
pub fn sibling(p: &PhysicalPlan) -> PhysicalPlan {
    let mut p = p.clone();
    match &mut p.op {
        PhysOp::SeqScan { .. } | PhysOp::IndexScan { .. } => {}
        PhysOp::Filter { input, .. }
        | PhysOp::Project { input, .. }
        | PhysOp::Sort { input, .. }
        | PhysOp::HashAggregate { input, .. }
        | PhysOp::SortAggregate { input, .. }
        | PhysOp::Limit { input, .. } => **input = sibling(input),
        PhysOp::IndexNestedLoopJoin { outer, .. } => **outer = sibling(outer),
        PhysOp::NestedLoopJoin { left, right, .. }
        | PhysOp::BlockNestedLoopJoin { left, right, .. }
        | PhysOp::SortMergeJoin { left, right, .. }
        | PhysOp::HashJoin { left, right, .. } => {
            **left = sibling(left);
            **right = sibling(right);
        }
    }
    let replacement = match &p.op {
        PhysOp::Filter { input, predicate } => match &input.op {
            PhysOp::SeqScan {
                table,
                cols,
                filter,
            } => Some(PhysOp::SeqScan {
                table: table.clone(),
                cols: cols.clone(),
                filter: Some(Expr::conjunction(
                    filter.iter().chain([predicate]).cloned().collect(),
                )),
            }),
            _ => None,
        },
        PhysOp::HashAggregate {
            input,
            group_by,
            aggs,
        } => Some(PhysOp::SortAggregate {
            input: Box::new(match group_by.is_empty() {
                true => (**input).clone(),
                false => sorted((**input).clone(), group_by),
            }),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        }),
        PhysOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => Some(PhysOp::NestedLoopJoin {
            predicate: Some(Expr::conjunction(
                [Expr::eq(col(*left_key), col(left.schema.len() + right_key))]
                    .into_iter()
                    .chain(residual.clone())
                    .collect(),
            )),
            left: left.clone(),
            right: right.clone(),
        }),
        _ => None,
    };
    if let Some(op) = replacement {
        p.op = op;
    }
    p
}

/// How many operators of `p` are named `op`.
pub fn count_ops(p: &PhysicalPlan, op: &str) -> usize {
    p.pre_order()
        .iter()
        .filter(|(_, node)| node.op_name() == op)
        .count()
}

/// `wisc` (1 200 rows, unique index on `unique1`), an empty table and
/// TPC-H-lite at SF 0.1, analyzed: the world [`battery`] runs in. `verify`
/// is [`OptimizerConfig::verify`], the plan verifier's one switch.
pub fn seeded(verify: bool) -> Database {
    seeded_with(DatabaseConfig {
        optimizer: OptimizerConfig {
            verify,
            ..OptimizerConfig::default()
        },
        ..DatabaseConfig::default()
    })
}

/// [`seeded`]'s world on a database built from `config`.
pub fn seeded_with(config: DatabaseConfig) -> Database {
    let db = Database::new(config);
    load_wisconsin(&db, "wisc", 1200, 11).unwrap();
    db.execute("CREATE UNIQUE INDEX wisc_u1 ON wisc (unique1)")
        .unwrap();
    db.execute("CREATE TABLE empty_t (x INT, y STRING)")
        .unwrap();
    load_tpch_lite(&db, 0.1, 23).unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

/// The battery: one query per operator family plus multi-join pipelines —
/// the same shapes the batch-equivalence suite pins — and two cross
/// products whose relations contribute no column, or one from one side.
pub fn battery() -> Vec<&'static str> {
    vec![
        "SELECT unique1, stringu1 FROM wisc",
        "SELECT unique1 * 2, ten_pct FROM wisc WHERE one_pct < 7",
        "SELECT * FROM wisc WHERE odd = 1 AND ten_pct BETWEEN 2 AND 5",
        "SELECT * FROM wisc WHERE unique1 < 0",
        "SELECT COUNT(*), SUM(x) FROM empty_t",
        "SELECT y, COUNT(*) FROM empty_t GROUP BY y",
        "SELECT stringu1 FROM wisc WHERE unique1 = 234",
        "SELECT unique1 FROM wisc WHERE unique1 BETWEEN 100 AND 300",
        "SELECT unique2 FROM wisc LIMIT 7",
        "SELECT unique1, stringu1 FROM wisc ORDER BY unique1",
        "SELECT ten_pct, COUNT(*) AS n, SUM(unique2) FROM wisc GROUP BY ten_pct ORDER BY ten_pct",
        "SELECT DISTINCT twenty_pct FROM wisc ORDER BY twenty_pct",
        queries::REVENUE_PER_NATION,
        queries::CUSTOMER_ORDERS,
        queries::SHIPPED_BIG_ORDERS,
        "SELECT COUNT(*) FROM nation n, region r",
        "SELECT n.n_name FROM nation n, region r WHERE n.n_key < 2",
    ]
}

/// q-error of an estimate against the truth: at least 1, capped at 1e9.
pub fn q_error(estimate: f64, truth: f64) -> f64 {
    let (e, t) = (estimate.max(1e-9), truth.max(1e-9));
    (e / t).max(t / e).min(1e9)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize]
}

/// Spearman's rank correlation, ties given their mean rank.
pub fn spearman(pairs: &[(f64, f64)]) -> f64 {
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
