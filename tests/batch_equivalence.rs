//! Differential equivalence suite for batch-vectorized execution.
//!
//! The refactor from tuple-at-a-time Volcano to batch-at-a-time must be
//! invisible in results: the same query or forced physical plan, run at any
//! batch size — including the degenerate tuple-at-a-time `batch_rows = 1` —
//! must return identical rows. SQL-level coverage runs a query battery over
//! Wisconsin and TPC-H-lite data; plan-level coverage forces every join
//! family past the optimizer's choices. Edge cases: empty inputs, results
//! that fit exactly one batch, results straddling batch boundaries, and
//! LIMITs that cut a batch mid-way.
//!
//! The `*_typed_vs_row` tests are the cross-family differentials: the two
//! hash operators (hash aggregation, the hash join's key index) against
//! their row-at-a-time siblings (see `support::sibling`), at every batch
//! size.

mod support;

use evopt::{Database, DatabaseConfig, Tuple};
use evopt_common::expr::col;
use evopt_common::{AggFunc, Column, DataType, Schema, Value};
use evopt_core::physical::{PhysAgg, PhysOp};
use evopt_exec::{run_collect, ExecEnv};
use evopt_workload::tpch_lite::queries;
use evopt_workload::{load_tpch_lite, load_wisconsin};
use support::{
    count_ops, join_plans, normalized, plan, run_at, scan, sibling, sorted_scan, try_run_at, world,
};

/// 1 is the tuple-at-a-time baseline; 3 forces many ragged partial batches;
/// 1024 is the default; 4096 puts whole results in one batch.
const BATCH_SIZES: [usize; 4] = [3, 64, 1024, 4096];

fn fixture() -> Database {
    let db = Database::with_defaults();
    // 2500 rows: straddles 1024-row batches (2 full + 1 partial).
    load_wisconsin(&db, "wisc", 2500, 11).unwrap();
    db.execute("CREATE UNIQUE INDEX wisc_u1 ON wisc (unique1)")
        .unwrap();
    db.execute("CREATE TABLE empty_t (x INT, y STRING)")
        .unwrap();
    load_tpch_lite(&db, 0.2, 23).unwrap();
    load_mixed(&db);
    db.execute("ANALYZE").unwrap();
    db
}

/// `mixed(g FLOAT, v FLOAT, k FLOAT)`: `INT` literals (they keep the `Int`
/// variant), `FLOAT` literals and NULLs in every column. `g` is `Int` or
/// NULL for the first 100 rows, then `Float` and `Int` alternate, so the
/// first `Float` group value follows `Int` ones inside one batch (at 1024
/// rows) and across batches (at 1, 3 and 64): a whole `Float` and the
/// equal `Int` must land in one group, and no group may split or merge.
/// `k` joins `wisc.one_pct`; its `Float` values are whole (they match) or
/// end in `.5` (they never do). Fractions are multiples of 0.25,
/// so `SUM`/`AVG` are exact in any order.
fn load_mixed(db: &Database) {
    db.execute("CREATE TABLE mixed (g FLOAT, v FLOAT, k FLOAT)")
        .unwrap();
    let cell = |null: bool, float: Option<String>, int: i64| match (null, float) {
        (true, _) => "NULL".to_string(),
        (false, Some(f)) => f,
        (false, None) => int.to_string(),
    };
    let rows: Vec<String> = (0..240i64)
        .map(|i| {
            let g_float = (i >= 100 && i % 2 == 0).then(|| match i % 4 {
                0 => format!("{}.0", i % 7),
                _ => format!("{}.5", i % 7),
            });
            let g = cell(i % 11 == 0, g_float, i % 7);
            let v = cell(i % 5 == 0, (i % 3 == 0).then(|| format!("{}.25", i % 9)), i);
            let k_float = match i % 4 {
                1 => Some(format!("{}.0", i % 50)),
                3 => Some(format!("{}.5", i % 50)),
                _ => None,
            };
            let k = cell(i % 6 == 0, k_float, i % 50);
            format!("({g}, {v}, {k})")
        })
        .collect();
    db.execute(&format!("INSERT INTO mixed VALUES {}", rows.join(", ")))
        .unwrap();
}

/// One query per operator family, plus the edge cases.
fn query_battery() -> Vec<&'static str> {
    vec![
        // Scan, filter, projection expressions.
        "SELECT unique1, stringu1 FROM wisc",
        "SELECT unique1 * 2, ten_pct FROM wisc WHERE one_pct < 7",
        "SELECT * FROM wisc WHERE odd = 1 AND ten_pct BETWEEN 2 AND 5",
        // Empty result from a non-empty input.
        "SELECT * FROM wisc WHERE unique1 < 0",
        // Empty input through filter, aggregate, group-by, sort.
        "SELECT * FROM empty_t WHERE x > 0",
        "SELECT COUNT(*), SUM(x) FROM empty_t",
        "SELECT y, COUNT(*) FROM empty_t GROUP BY y",
        "SELECT * FROM empty_t ORDER BY x",
        // Index scans: point, range, residual.
        "SELECT stringu1 FROM wisc WHERE unique1 = 1234",
        "SELECT unique1 FROM wisc WHERE unique1 BETWEEN 100 AND 300",
        "SELECT unique1 FROM wisc WHERE unique1 < 500 AND odd = 0",
        // LIMIT cutting a batch mid-way, below and above one batch.
        "SELECT unique2 FROM wisc LIMIT 7",
        "SELECT unique1 FROM wisc ORDER BY unique1 LIMIT 1500",
        "SELECT unique2 FROM wisc LIMIT 0",
        // External sort (unique keys: total order).
        "SELECT unique1, stringu1 FROM wisc ORDER BY unique1",
        "SELECT one_pct, unique2 FROM wisc ORDER BY one_pct, unique2",
        // Aggregates: ungrouped, grouped, DISTINCT.
        "SELECT COUNT(*), SUM(unique1), MIN(unique1), MAX(unique1), AVG(ten_pct) FROM wisc",
        "SELECT ten_pct, COUNT(*) AS n, SUM(unique2) FROM wisc GROUP BY ten_pct ORDER BY ten_pct",
        "SELECT DISTINCT twenty_pct FROM wisc ORDER BY twenty_pct",
        // Multi-join pipelines over TPC-H-lite.
        queries::REVENUE_PER_NATION,
        queries::CUSTOMER_ORDERS,
        queries::SHIPPED_BIG_ORDERS,
        // Cross products whose scans decode no column, or one on one side.
        "SELECT COUNT(*) FROM nation n, region r",
        "SELECT n.n_name FROM nation n, region r WHERE n.n_key < 2",
        // Mixed runtime variants in declared-FLOAT columns.
        "SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) FROM mixed GROUP BY g",
        "SELECT m.g, m.k, w.unique1 FROM mixed m JOIN wisc w ON m.k = w.one_pct",
    ]
}

#[test]
fn sql_battery_identical_across_batch_sizes() {
    let db = fixture();
    for sql in query_battery() {
        let (_, p) = db.plan_sql(sql).unwrap();
        // Baseline: degenerate tuple-at-a-time execution.
        let want = run_at(&db, &p, 1);
        for bs in BATCH_SIZES {
            let got = run_at(&db, &p, bs);
            assert_eq!(
                normalized(&got),
                normalized(&want),
                "batch_rows={bs} changed the result of {sql}"
            );
            // ORDER BY on a unique key pins the exact order, not just the
            // multiset.
            if sql.contains("ORDER BY unique1") {
                assert_eq!(got, want, "batch_rows={bs} changed row order of {sql}");
            }
        }
        assert_eq!(
            normalized(&db.query(sql).unwrap()),
            normalized(&want),
            "the engine's own run changed the result of {sql}"
        );
    }
}

/// A cross product whose scans decode no column still yields one row per
/// pair of input rows.
#[test]
fn cross_products_decoding_no_column_keep_every_pair() {
    let db = fixture();
    let count = db.query("SELECT COUNT(*) FROM nation n, region r").unwrap();
    assert_eq!(count, vec![Tuple::new(vec![Value::Int(125)])]);
    let sql = "SELECT n.n_name FROM nation n, region r WHERE n.n_key < 2";
    let names = normalized(&db.query(sql).unwrap());
    assert_eq!(names.len(), 10);
    assert_eq!(names.iter().filter(|n| n.contains("nation-0")).count(), 5);
}

#[test]
fn sql_battery_identical_typed_vs_row() {
    // The hash operators (the join's key index, the aggregate's group map)
    // must be invisible in results: every battery query's chosen plan, and
    // the same plan with each hash operator swapped for its row-at-a-time
    // sibling, return identical rows at several batch sizes.
    let db = fixture();
    let (mut hash_joins, mut hash_aggregates) = (0, 0);
    for sql in query_battery() {
        let (_, chosen) = db.plan_sql(sql).unwrap();
        hash_joins += count_ops(&chosen, "HashJoin");
        hash_aggregates += count_ops(&chosen, "HashAggregate");
        let reference = sibling(&chosen);
        for bs in [1, 3, 64, 1024] {
            let want = run_at(&db, &reference, bs);
            let got = run_at(&db, &chosen, bs);
            assert_eq!(
                normalized(&got),
                normalized(&want),
                "the hash operators changed the result of {sql} at batch_rows={bs}"
            );
            if sql.contains("ORDER BY unique1") {
                assert_eq!(
                    got, want,
                    "the hash operators changed row order of {sql} at batch_rows={bs}"
                );
            }
        }
    }
    assert!(
        hash_joins > 0 && hash_aggregates > 0,
        "the battery no longer plans the operators under test \
         ({hash_joins} hash joins, {hash_aggregates} hash aggregates)"
    );
}

#[test]
fn result_fitting_exactly_one_batch() {
    let db = Database::with_defaults();
    load_wisconsin(&db, "exact", 50, 3).unwrap();
    db.execute("ANALYZE").unwrap();
    let (_, p) = db.plan_sql("SELECT * FROM exact").unwrap();
    let want = run_at(&db, &p, 1);
    assert_eq!(want.len(), 50);
    // One-under, exact, and one-over the result size.
    for bs in [49, 50, 51] {
        let got = run_at(&db, &p, bs);
        assert_eq!(normalized(&got), normalized(&want), "batch_rows={bs}");
    }
}

/// A filter error surfaces at the row that raises it, at every batch size:
/// `(k - 10) / (k - 10) = 1` divides by zero at `k = 10`, on the first of
/// several heap pages. A LIMIT met before that row succeeds when batches
/// are small enough not to reach it; one that needs the row fails.
#[test]
fn filter_errors_keep_their_place() {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE poison (k INT, pad STRING)")
        .unwrap();
    let rows: Vec<String> = (0..1500).map(|k| format!("({k}, 'pad-{k}')")).collect();
    db.execute(&format!("INSERT INTO poison VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute("ANALYZE").unwrap();
    let pages = db
        .catalog()
        .snapshot()
        .table("poison")
        .unwrap()
        .heap
        .page_count();
    assert!(pages >= 3, "{pages} heap pages");
    let plan = |limit: &str| {
        let sql = format!("SELECT k FROM poison WHERE (k - 10) / (k - 10) = 1{limit}");
        let (_, p) = db.plan_sql(&sql).unwrap();
        assert_eq!(count_ops(&p, "SeqScan"), 1, "{sql}");
        p
    };
    let got = try_run_at(&db, &plan(" LIMIT 3"), 1).unwrap();
    assert_eq!(got.len(), 3);
    for bs in [1].into_iter().chain(BATCH_SIZES) {
        for limit in [" LIMIT 20", ""] {
            let err = try_run_at(&db, &plan(limit), bs).unwrap_err();
            assert_eq!(err.kind(), "execution", "LIMIT{limit} at batch_rows={bs}");
        }
    }
}

/// A SUM that overflows `i64`, and a SUM over strings, fail with the same
/// error through `HashAggregate` and through `Sort → SortAggregate`,
/// grouped and ungrouped, at every batch size.
#[test]
fn sum_errors_match_through_both_aggregates() {
    // `l.a` alternates two values near `i64::MAX / 2`: any two of them
    // overflow. `l.tag` is a string.
    let env = world(
        16,
        |i| Value::Int(i64::MAX / 2 + i % 2),
        20,
        |_| Value::Null,
        0,
    );
    let l = scan(&env, "l");
    let sum_of = |arg: usize, group_by: Vec<usize>| {
        let mut schema: Vec<Column> = group_by
            .iter()
            .map(|&g| l.schema.columns()[g].clone())
            .collect();
        schema.push(Column::new("sum", DataType::Int));
        plan(
            PhysOp::HashAggregate {
                input: Box::new(l.clone()),
                group_by,
                aggs: vec![PhysAgg {
                    func: AggFunc::Sum,
                    arg: Some(col(arg)),
                }],
            },
            Schema::new(schema),
        )
    };
    for (arg, want) in [(0, "integer overflow in +"), (1, "cannot apply + to")] {
        for group_by in [vec![], vec![0]] {
            let hash = sum_of(arg, group_by.clone());
            let sort = sibling(&hash);
            assert_eq!(count_ops(&sort, "SortAggregate"), 1);
            for bs in [1, 64, 1024] {
                let env = env.clone().with_batch_rows(bs);
                let by_hash = run_collect(&hash, &env).unwrap_err().to_string();
                let by_sort = run_collect(&sort, &env).unwrap_err().to_string();
                assert!(by_hash.contains(want), "{by_hash}");
                assert_eq!(by_hash, by_sort, "SUM(col {arg}) GROUP BY {group_by:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plan-level: force every join family regardless of optimizer choice.
// ---------------------------------------------------------------------------

/// `l(a INT, tag STRING)` and `r(b INT, payload INT)` with `b` indexed;
/// keys collide so joins fan out, and both sides carry NULL keys.
fn join_world(n_left: i64, n_right: i64, key_space: i64, pool_pages: usize) -> ExecEnv {
    let key = move |i: i64, null_every: i64| match i % null_every {
        0 => Value::Null,
        _ => Value::Int(i % key_space),
    };
    world(pool_pages, |i| key(i, 17), n_left, |i| key(i, 23), n_right)
}

#[test]
fn every_join_family_identical_across_batch_sizes() {
    let env = join_world(200, 300, 40, 16);
    for (name, p) in join_plans(&env) {
        let want = run_collect(&p, &env.clone().with_batch_rows(1)).unwrap();
        assert!(!want.is_empty(), "{name}: fixture should produce matches");
        for bs in BATCH_SIZES {
            let got = run_collect(&p, &env.clone().with_batch_rows(bs)).unwrap();
            assert_eq!(
                normalized(&got),
                normalized(&want),
                "{name} differs at batch_rows={bs}"
            );
        }
    }
}

#[test]
fn every_join_family_identical_typed_vs_row() {
    // Same forced-plan battery, every family against the nested-loop join's
    // row-at-a-time predicate evaluation. The fixture's NULL keys (every
    // 17th left row, every 23rd right row) make this a NULL-semantics check
    // too: a key map that matched NULLs would show up as extra rows here.
    let env = join_world(200, 300, 40, 16);
    let plans = join_plans(&env);
    for bs in [1, 64, 1024] {
        let env = env.clone().with_batch_rows(bs);
        let want = run_collect(&plans[0].1, &env).unwrap();
        assert!(!want.is_empty(), "fixture should produce matches");
        for (name, p) in &plans[1..] {
            let got = run_collect(p, &env).unwrap();
            assert_eq!(
                normalized(&got),
                normalized(&want),
                "{name} differs from NestedLoopJoin at batch_rows={bs}"
            );
        }
    }
}

#[test]
fn joins_over_empty_inputs_across_batch_sizes() {
    // Empty probe side, empty build side: every family must return nothing
    // at every batch size without erroring.
    let env = join_world(0, 0, 1, 16);
    for (name, p) in join_plans(&env) {
        for bs in [1, 3, 1024] {
            let got = run_collect(&p, &env.clone().with_batch_rows(bs)).unwrap();
            assert!(got.is_empty(), "{name} invented rows at batch_rows={bs}");
        }
    }
}

#[test]
fn grace_hash_join_identical_across_batch_sizes() {
    // A 3-page budget forces the hash join's build side to spill into
    // Grace partitions; partitioned probing must stay batch-size invariant.
    let env = join_world(800, 1200, 60, 3);
    let p = join_plans(&env).pop().unwrap().1;
    let want = run_collect(&p, &env.clone().with_batch_rows(1)).unwrap();
    assert!(!want.is_empty());
    for bs in BATCH_SIZES {
        let got = run_collect(&p, &env.clone().with_batch_rows(bs)).unwrap();
        assert_eq!(
            normalized(&got),
            normalized(&want),
            "Grace hash join differs at batch_rows={bs}"
        );
    }
}

/// Operators are granted a quarter of the pool, never under 64 pages. A
/// hash join building on 10 000 whole Wisconsin rows, and a sort of as
/// many, hold more than 64 pages' worth and less than 2 048: they run in
/// memory on an 8 192-page pool and spill on a 256-page one, with the same
/// answers on both and at every batch size.
#[test]
fn operators_spill_only_past_the_grant_a_quarter_of_the_pool() {
    let sqls = [
        (
            "HashJoin",
            "SELECT * FROM wa a JOIN wb b ON a.unique1 = b.unique2",
        ),
        ("Sort", "SELECT * FROM wa ORDER BY stringu1"),
    ];
    let mut answers = Vec::new();
    for (pool, spills) in [(8_192, false), (256, true)] {
        let db = Database::new(DatabaseConfig {
            buffer_pages: pool,
            ..DatabaseConfig::default()
        });
        load_wisconsin(&db, "wa", 10_000, 3).unwrap();
        load_wisconsin(&db, "wb", 10_000, 4).unwrap();
        db.execute("ANALYZE").unwrap();
        for (op, sql) in sqls {
            // The sort's rows in their order; the join's as a multiset.
            let answer = |rows: &[Tuple]| match op {
                "Sort" => rows.iter().map(|t| format!("{t:?}")).collect(),
                _ => normalized(rows),
            };
            let (_, plan) = db.plan_sql(sql).unwrap();
            assert_eq!(count_ops(&plan, op), 1, "{sql}\n{plan}");
            let before = db.metrics_snapshot().exec_spills;
            let rows = db.execute(sql).unwrap().rows();
            let spilled = db.metrics_snapshot().exec_spills - before;
            assert_eq!(
                spilled > 0,
                spills,
                "{pool}-page pool, {op}: {spilled} spills"
            );
            assert_eq!(rows.len(), 10_000, "{sql}");
            for bs in BATCH_SIZES {
                assert_eq!(
                    answer(&run_at(&db, &plan, bs)),
                    answer(&rows),
                    "{pool}-page pool, {op}, batch_rows={bs}"
                );
            }
            answers.push(answer(&rows));
        }
    }
    assert!(answers[..2] == answers[2..], "the pools disagree");
}

#[test]
fn grace_hash_join_identical_typed_vs_row() {
    // The Grace path builds a key index per partition; the
    // in-memory/spill decision and the per-partition results must agree
    // with the sort-merge join's row-at-a-time key comparison.
    let env = join_world(800, 1200, 60, 3);
    let plans = join_plans(&env);
    let (merge, hash) = (&plans[3], &plans[4]);
    assert_eq!((merge.0, hash.0), ("SortMergeJoin", "HashJoin"));
    let want = run_collect(&merge.1, &env.clone().with_batch_rows(1024)).unwrap();
    assert!(!want.is_empty());
    for bs in [1, 64, 1024] {
        let got = run_collect(&hash.1, &env.clone().with_batch_rows(bs)).unwrap();
        assert_eq!(
            normalized(&got),
            normalized(&want),
            "Grace hash join differs from SortMergeJoin at batch_rows={bs}"
        );
    }
}

#[test]
fn external_sort_spill_identical_across_batch_sizes() {
    // Same trick for the sort: a tiny budget forces run spills and a
    // multi-run merge; the merged stream must re-batch losslessly.
    let env = join_world(2000, 0, 500, 3);
    let p = sorted_scan(&env, "l");
    let want = run_collect(&p, &env.clone().with_batch_rows(1)).unwrap();
    assert_eq!(want.len(), 2000);
    for bs in BATCH_SIZES {
        let got = run_collect(&p, &env.clone().with_batch_rows(bs)).unwrap();
        // Sorted output: exact order must match, not just the multiset.
        assert_eq!(got, want, "spilled sort differs at batch_rows={bs}");
    }
}
