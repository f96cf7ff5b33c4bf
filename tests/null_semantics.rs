//! NULL-semantics suite: the places where SQL's three-valued logic and its
//! deliberate exceptions meet the executor.
//!
//! The rules under test:
//!
//! * **Join keys never match on NULL** — including `NULL = NULL` — in every
//!   join family.
//! * **GROUP BY groups NULL keys into one group** (total-order equality is
//!   the *correct* choice there), and DISTINCT — lowered to GROUP BY-all —
//!   collapses NULL duplicates.
//! * **ORDER BY gives NULLs a defined position** (first, per the total
//!   order) instead of refusing to compare, and LIMIT over such a sort is
//!   stable across batch sizes.
//! * **Predicates reject NULL** (`WHERE x = x` drops NULL rows), while
//!   `IS NULL` / `IS NOT NULL` observe nullness directly.
//!
//! Every check runs the two hash operators (hash aggregation, the hash
//! join's key index) and their row-at-a-time siblings (see
//! `support::sibling`) at batch sizes 1, 64 and 1024 and asserts identical
//! results — hashing must reproduce the row operators' NULL behaviour
//! exactly.

mod support;

use std::sync::Arc;

use evopt::{Database, Tuple};
use evopt_catalog::Catalog;
use evopt_common::expr::{col, lit};
use evopt_common::{BinOp, Column, DataType, Expr, Schema, UnOp, Value};
use evopt_core::physical::{KeyRange, PhysOp, PhysicalPlan};
use evopt_exec::{run_collect, ExecEnv};
use evopt_storage::{BufferPool, DiskManager};
use support::{
    count_ops, join_plans, normalized, plan, run_at, scan, sibling, world, world_with_key_types,
};

const BATCH_SIZES: [usize; 3] = [1, 64, 1024];

/// Run `sql` as planned and with every hash operator swapped for its
/// row-at-a-time sibling, at each batch size; assert all six runs agree and
/// return one representative result.
fn query_all_modes(db: &Database, sql: &str) -> Vec<Tuple> {
    let (_, chosen) = db.plan_sql(sql).unwrap();
    let row_wise = sibling(&chosen);
    let mut reference: Option<(Vec<Tuple>, Vec<String>)> = None;
    for bs in BATCH_SIZES {
        for (mode, p) in [("row-wise siblings", &row_wise), ("as planned", &chosen)] {
            let got = run_at(db, p, bs);
            let norm = normalized(&got);
            match &reference {
                None => reference = Some((got, norm)),
                Some((_, want)) => {
                    assert_eq!(&norm, want, "{sql} differs at batch_rows={bs}, {mode}")
                }
            }
        }
    }
    reference.unwrap().0
}

// ---------------------------------------------------------------------------
// SQL level
// ---------------------------------------------------------------------------

/// `t(k INT, v INT, s STRING)`: k is NULL on every 3rd row, v on every 4th,
/// s on every 5th.
fn null_fixture() -> Database {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE t (k INT, v INT, s STRING)")
        .unwrap();
    for i in 0..200 {
        let k = if i % 3 == 0 {
            "NULL".to_string()
        } else {
            (i % 7).to_string()
        };
        let v = if i % 4 == 0 {
            "NULL".to_string()
        } else {
            i.to_string()
        };
        let s = if i % 5 == 0 {
            "NULL".to_string()
        } else {
            format!("'s{}'", i % 11)
        };
        db.execute(&format!("INSERT INTO t VALUES ({k}, {v}, {s})"))
            .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db
}

#[test]
fn null_group_keys_form_one_group() {
    let db = null_fixture();
    let sql = "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k";
    assert_eq!(count_ops(&db.plan_sql(sql).unwrap().1, "HashAggregate"), 1);
    let rows = query_all_modes(&db, sql);
    // Groups: k in 0..7 plus exactly ONE group for all 67 NULL keys.
    assert_eq!(rows.len(), 8);
    let null_groups: Vec<&Tuple> = rows
        .iter()
        .filter(|t| t.value(0).unwrap().is_null())
        .collect();
    assert_eq!(null_groups.len(), 1, "all NULL keys must share one group");
    assert_eq!(*null_groups[0].value(1).unwrap(), Value::Int(67));

    // An INT and a STRING group column, each NULL on some rows: a NULL in
    // either column is one value of that column's key, so `(NULL, 's1')`
    // and `(NULL, NULL)` are groups of their own.
    let sql = "SELECT k, s, COUNT(*), COUNT(v), MIN(v), MAX(s) FROM t GROUP BY k, s";
    assert_eq!(count_ops(&db.plan_sql(sql).unwrap().1, "HashAggregate"), 1);
    let rows = query_all_modes(&db, sql);
    let mut keys: Vec<(Option<i64>, Option<i64>)> = (0..200)
        .map(|i| {
            (
                (i % 3 != 0).then_some(i % 7),
                (i % 5 != 0).then_some(i % 11),
            )
        })
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(rows.len(), keys.len());
    let all_null: Vec<&Tuple> = rows
        .iter()
        .filter(|t| t.value(0).unwrap().is_null() && t.value(1).unwrap().is_null())
        .collect();
    assert_eq!(all_null.len(), 1, "one (NULL, NULL) group");
    // Both NULL on every 15th row.
    assert_eq!(*all_null[0].value(2).unwrap(), Value::Int(14));
    assert!(
        all_null[0].value(5).unwrap().is_null(),
        "MAX over NULLs only"
    );
}

#[test]
fn distinct_collapses_null_duplicates() {
    let db = null_fixture();
    let rows = query_all_modes(&db, "SELECT DISTINCT s FROM t");
    // s in s0..s10 plus exactly one NULL row.
    assert_eq!(rows.len(), 12);
    let nulls = rows
        .iter()
        .filter(|t| t.value(0).unwrap().is_null())
        .count();
    assert_eq!(nulls, 1, "DISTINCT must collapse NULLs to one row");
}

#[test]
fn aggregates_ignore_null_arguments() {
    let db = null_fixture();
    let rows = query_all_modes(
        &db,
        "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v) FROM t",
    );
    assert_eq!(rows.len(), 1);
    let t = &rows[0];
    assert_eq!(*t.value(0).unwrap(), Value::Int(200));
    // 50 of 200 rows have NULL v; COUNT(v) skips them.
    assert_eq!(*t.value(1).unwrap(), Value::Int(150));
    // SUM over non-null v = sum of 0..200 minus multiples of 4.
    let expect: i64 = (0..200).filter(|i| i % 4 != 0).sum();
    assert_eq!(*t.value(2).unwrap(), Value::Int(expect));
    // MIN skips NULLs: smallest non-null v is 1.
    assert_eq!(*t.value(4).unwrap(), Value::Int(1));
}

#[test]
fn null_rejecting_predicates_and_is_null() {
    let db = null_fixture();
    // NULL = NULL is UNKNOWN, so `k = k` drops every NULL-k row.
    let eq_self = query_all_modes(&db, "SELECT * FROM t WHERE k = k");
    assert_eq!(eq_self.len(), 133);
    let is_null = query_all_modes(&db, "SELECT * FROM t WHERE k IS NULL");
    assert_eq!(is_null.len(), 67);
    let not_null = query_all_modes(&db, "SELECT * FROM t WHERE k IS NOT NULL");
    assert_eq!(not_null.len(), 133);
    // Kleene AND/OR with a NULL operand; only definite-true rows survive.
    let and_or = query_all_modes(
        &db,
        "SELECT * FROM t WHERE k = 1 OR (v > 100 AND k IS NULL)",
    );
    for t in &and_or {
        let k = t.value(0).unwrap();
        let v = t.value(1).unwrap();
        assert!(
            *k == Value::Int(1) || (k.is_null() && *v > Value::Int(100)),
            "unexpected row {t:?}"
        );
    }
    // NOT over UNKNOWN stays UNKNOWN: both the predicate and its negation
    // drop NULL-k rows, so the two row counts sum to the non-null count.
    let lt = query_all_modes(&db, "SELECT * FROM t WHERE k < 3");
    let ge = query_all_modes(&db, "SELECT * FROM t WHERE NOT (k < 3)");
    assert_eq!(lt.len() + ge.len(), 133);
}

#[test]
fn null_order_by_and_limit_are_stable() {
    let db = null_fixture();
    // Total order puts NULLs first; LIMIT must cut the same prefix in both
    // modes at every batch size.
    let rows = query_all_modes(&db, "SELECT k, v FROM t ORDER BY k, v LIMIT 80");
    assert_eq!(rows.len(), 80);
    // The 67 NULL-k rows sort before every non-null key.
    for (i, t) in rows.iter().enumerate() {
        if i < 67 {
            assert!(t.value(0).unwrap().is_null(), "row {i} should be NULL-k");
        } else {
            assert!(!t.value(0).unwrap().is_null(), "row {i} should be non-NULL");
        }
    }
}

#[test]
fn null_join_keys_never_match_sql_level() {
    let db = null_fixture();
    db.execute("CREATE TABLE u (k INT, w INT)").unwrap();
    for i in 0..60 {
        let k = if i % 2 == 0 {
            "NULL".to_string()
        } else {
            (i % 7).to_string()
        };
        db.execute(&format!("INSERT INTO u VALUES ({k}, {i})"))
            .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    let rows = query_all_modes(&db, "SELECT t.v, u.w FROM t, u WHERE t.k = u.k");
    // Every surviving pair joined through a non-null key by construction;
    // count it directly: per key 0..6, (#t rows with that k) * (#u rows).
    let t_counts: Vec<usize> = (0..7)
        .map(|k| (0..200).filter(|i| i % 3 != 0 && i % 7 == k).count())
        .collect();
    let u_counts: Vec<usize> = (0..7)
        .map(|k| (0..60).filter(|i| i % 2 != 0 && i % 7 == k as i64).count())
        .collect();
    let expect: usize = t_counts.iter().zip(&u_counts).map(|(a, b)| a * b).sum();
    assert_eq!(rows.len(), expect, "NULL keys must never join");
}

// ---------------------------------------------------------------------------
// Plan level: the NULL = NULL regression in EVERY join family
// ---------------------------------------------------------------------------

/// Two tables whose join keys are **all NULL** (plus payloads). Any join
/// family that treats `NULL = NULL` as a match produces rows here.
fn all_null_world(pool_pages: usize) -> ExecEnv {
    world(pool_pages, |_| Value::Null, 50, |_| Value::Null, 50)
}

#[test]
fn null_eq_null_joins_nothing_in_every_family() {
    // THE regression test: a NULL = NULL join key produces zero matches in
    // every join family at every batch size. An equality routed through
    // derived `Eq` (Null == Null) would emit 50 × 50 rows here.
    let env = all_null_world(16);
    for (name, p) in join_plans(&env) {
        for bs in BATCH_SIZES {
            let got = run_collect(&p, &env.clone().with_batch_rows(bs)).unwrap();
            assert!(
                got.is_empty(),
                "{name} matched NULL keys (batch_rows={bs}): {} rows",
                got.len()
            );
        }
    }
}

#[test]
fn null_eq_null_joins_nothing_under_grace_spill() {
    // Same regression through the hash join's Grace (spilling) path: a
    // 3-page budget with a build side too large to hold in memory.
    let pool_pages = 3;
    let env = all_null_world(pool_pages);
    // Inflate the build side so it spills.
    let r = env.catalog.table("r").unwrap();
    for i in 0..4000 {
        r.heap
            .insert(&Tuple::new(vec![Value::Null, Value::Int(i)]))
            .unwrap();
    }
    let p = join_plans(&env).pop().unwrap().1;
    let got = run_collect(&p, &env.clone().with_batch_rows(64)).unwrap();
    assert!(got.is_empty(), "Grace hash join matched NULL keys");
}

/// NULL keys interleaved with colliding real keys on both sides.
fn mixed_null_world(pool_pages: usize, n_left: i64, n_right: i64) -> ExecEnv {
    let key = |i: i64, null_every: i64, space: i64| match i % null_every {
        0 => Value::Null,
        _ => Value::Int(i % space),
    };
    world(
        pool_pages,
        |i| key(i, 4, 9),
        n_left,
        |i| key(i, 5, 13),
        n_right,
    )
}

/// Every family returns the nested-loop join's multiset at every batch
/// size.
fn assert_families_match_nested_loop(env: &ExecEnv) {
    let plans = join_plans(env);
    let want = run_collect(&plans[0].1, &env.clone().with_batch_rows(1)).unwrap();
    assert!(!want.is_empty(), "fixture should produce matches");
    let want = normalized(&want);
    for (name, p) in &plans {
        for bs in BATCH_SIZES {
            let got = run_collect(p, &env.clone().with_batch_rows(bs)).unwrap();
            assert_eq!(
                normalized(&got),
                want,
                "{name} differs from NestedLoopJoin (batch_rows={bs})"
            );
        }
    }
}

#[test]
fn mixed_null_join_identical_typed_vs_row() {
    // The non-null subset must join the same in every family — the hash
    // join's key index against row-at-a-time key comparison — at every
    // batch size.
    assert_families_match_nested_loop(&mixed_null_world(16, 170, 170));
}

/// An `INT` key column against a `FLOAT` one, NULLs on both sides. The
/// pairs that test numeric key equality: `0` meets `0.0` but not `-0.0`,
/// `7` meets `7.0`, and `2^53` meets the float `2^53`, which `2^53 + 1`
/// (no `f64` holds it, and `as f64` rounds it to `2^53`) does not. No two
/// `INT` keys equal the same `FLOAT`, so the matches do not depend on
/// which side is hashed. 150 rows on the left, 1 000 on the right.
fn int_float_world(pool_pages: usize, int_left: bool) -> ExecEnv {
    const TWO_53: i64 = 1 << 53;
    let int_key = |i: i64| match i % 7 {
        0 => Value::Null,
        1 => Value::Int(0),
        2 => Value::Int(7),
        3 => Value::Int(TWO_53 + 1),
        4 => Value::Int(3),
        5 => Value::Int(TWO_53),
        _ => Value::Int(-4),
    };
    let float_key = |i: i64| match i % 7 {
        0 => Value::Null,
        1 => Value::Float(-0.0),
        2 => Value::Float(0.0),
        3 => Value::Float(7.0),
        4 => Value::Float(TWO_53 as f64),
        5 => Value::Float(7.5),
        _ => Value::Float(-4.25),
    };
    let (int, float) = (DataType::Int, DataType::Float);
    if int_left {
        world_with_key_types(pool_pages, (int, int_key, 150), (float, float_key, 1000))
    } else {
        world_with_key_types(pool_pages, (float, float_key, 150), (int, int_key, 1000))
    }
}

#[test]
fn every_join_family_matches_nested_loop_in_memory_and_under_grace_spill() {
    // A build side of 1 000 rows: held in memory under a 64-page budget,
    // Grace-partitioned under a 3-page one. Same rows either way, from
    // every family. The keys: INT against INT, and INT against FLOAT both
    // ways round (the hash join builds on the right, so once its build keys
    // are INT and its probes FLOAT).
    let worlds: [fn(usize) -> ExecEnv; 3] = [
        |pages| mixed_null_world(pages, 150, 1000),
        |pages| int_float_world(pages, true),
        |pages| int_float_world(pages, false),
    ];
    for world in worlds {
        for (pool_pages, spills) in [(64, false), (3, true)] {
            let env = world(pool_pages);
            assert_families_match_nested_loop(&env);
            assert_eq!(
                env.counts.spills.get() > 0,
                spills,
                "a {pool_pages}-page budget should {}spill the hash join's build side",
                if spills { "" } else { "not " }
            );
        }
    }
    // The INT and FLOAT keys that met, read off the nested-loop join.
    for int_left in [true, false] {
        let env = int_float_world(64, int_left);
        let (int_col, float_col) = if int_left { (0, 2) } else { (2, 0) };
        let rows = run_collect(&join_plans(&env)[0].1, &env).unwrap();
        let mut met: Vec<String> = rows
            .iter()
            .map(|t| {
                let int = t.value(int_col).unwrap();
                format!("{int:?} = {:?}", t.value(float_col).unwrap())
            })
            .collect();
        met.sort();
        met.dedup();
        assert_eq!(
            met,
            [
                "Int(0) = Float(0.0)",
                "Int(7) = Float(7.0)",
                "Int(9007199254740992) = Float(9007199254740992.0)",
            ]
        );
    }
}

// ---------------------------------------------------------------------------
// Plan level: a Filter node against the predicate pushed into the scan
// ---------------------------------------------------------------------------

/// `f(i INT, x FLOAT, s STRING, b BOOL)`, 300 rows, NULLs in every column;
/// every third `x` is an `Int` stored in the `FLOAT` column, so comparisons
/// on it mix runtime variants.
fn filter_world() -> ExecEnv {
    let pool = BufferPool::new(Arc::new(DiskManager::new()), 32);
    let cat = Arc::new(Catalog::new(pool));
    let f = cat
        .create_table(
            "f",
            Schema::new(vec![
                Column::new("i", DataType::Int),
                Column::new("x", DataType::Float),
                Column::new("s", DataType::Str),
                Column::new("b", DataType::Bool),
            ]),
        )
        .unwrap();
    let unless = |null: bool, v: Value| if null { Value::Null } else { v };
    for n in 0..300i64 {
        let x = match n % 3 {
            0 => Value::Int(n % 20),
            _ => Value::Float((n % 20) as f64 / 2.0),
        };
        f.heap
            .insert(&Tuple::new(vec![
                unless(n % 7 == 0, Value::Int(n % 11)),
                unless(n % 5 == 0, x),
                unless(n % 6 == 0, Value::Str(format!("s{}", n % 4))),
                unless(n % 9 == 0, Value::Bool(n % 2 == 0)),
            ]))
            .unwrap();
    }
    ExecEnv::new(cat, 32)
}

#[test]
fn filter_matches_the_predicate_pushed_into_the_scan() {
    let (i, x, s, b) = (|| col(0), || col(1), || col(2), || col(3));
    let cmp = Expr::binary;
    let unary = |op, input: Expr| Expr::Unary {
        op,
        input: Box::new(input),
    };
    let between = |negated| Expr::Between {
        input: Box::new(i()),
        low: Box::new(lit(3i64)),
        high: Box::new(lit(7i64)),
        negated,
    };
    let in_list = |list: Vec<Value>, negated| Expr::InList {
        input: Box::new(i()),
        list,
        negated,
    };
    // Both sides run `Expr::eval_predicate`: what differs is the plumbing
    // (a batch re-cut by `FilterExec` against rows dropped as the scan
    // decodes them), over every predicate shape the binder can produce.
    let mut predicates = vec![
        lit(true),
        lit(false),
        Expr::Literal(Value::Null),
        cmp(BinOp::Eq, lit(5i64), i()),
        cmp(BinOp::Lt, lit(2.5), x()),
        cmp(BinOp::Lt, i(), x()),
        cmp(BinOp::Eq, x(), x()),
        cmp(BinOp::Eq, b(), lit(true)),
        cmp(BinOp::GtEq, s(), lit("s2")),
        // Cross-class constant: never TRUE, never an error.
        cmp(BinOp::Eq, i(), lit("5")),
        unary(UnOp::IsNull, s()),
        unary(UnOp::IsNotNull, x()),
        between(false),
        between(true),
        in_list(vec![Value::Int(1), Value::Int(4), Value::Int(9)], false),
        in_list(vec![Value::Int(1), Value::Null], false),
        in_list(vec![Value::Int(1), Value::Int(4)], true),
        in_list(vec![Value::Int(1), Value::Null], true),
        Expr::and(
            cmp(BinOp::Gt, i(), lit(2i64)),
            Expr::or(unary(UnOp::IsNull, x()), cmp(BinOp::LtEq, x(), lit(4i64))),
        ),
        Expr::not(Expr::or(
            cmp(BinOp::Eq, i(), lit(1i64)),
            Expr::and(unary(UnOp::IsNotNull, s()), between(false)),
        )),
        // Arithmetic inside a comparison and under IS NULL.
        cmp(
            BinOp::Gt,
            Expr::binary(BinOp::Add, i(), lit(1i64)),
            lit(5i64),
        ),
        Expr::and(
            cmp(BinOp::Lt, i(), lit(9i64)),
            unary(UnOp::IsNull, Expr::binary(BinOp::Mul, x(), lit(2i64))),
        ),
    ];
    for op in [
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
    ] {
        predicates.push(cmp(op, i(), lit(5i64)));
        predicates.push(Expr::not(cmp(op, x(), lit(4.5))));
    }

    let env = filter_world();
    let table = scan(&env, "f");
    let mut kept_some = 0;
    for predicate in predicates {
        let filter = plan(
            PhysOp::Filter {
                input: Box::new(table.clone()),
                predicate: predicate.clone(),
            },
            table.schema.clone(),
        );
        let pushed = sibling(&filter);
        assert!(matches!(
            &pushed.op,
            PhysOp::SeqScan {
                filter: Some(_),
                ..
            }
        ));
        let want = run_collect(&pushed, &env).unwrap();
        kept_some += usize::from(!want.is_empty() && want.len() < 300);
        for bs in BATCH_SIZES {
            let got = run_collect(&filter, &env.clone().with_batch_rows(bs)).unwrap();
            // Both keep the scan's order: exact equality, not the multiset.
            assert_eq!(got, want, "{predicate} at batch_rows={bs}");
        }
    }
    assert!(
        kept_some > 20,
        "most predicates should split the fixture ({kept_some} did)"
    );
}

// ---------------------------------------------------------------------------
// Plan level: the truth table, in every place a predicate runs
// ---------------------------------------------------------------------------

/// `tt(k INT, i INT, x FLOAT, s STRING)`, `k` indexed, one row per tuple
/// of `rows` with `k` its position.
fn truth_world(rows: &[[Value; 3]]) -> ExecEnv {
    let pool = BufferPool::new(Arc::new(DiskManager::new()), 32);
    let cat = Arc::new(Catalog::new(pool));
    let tt = cat
        .create_table(
            "tt",
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("i", DataType::Int),
                Column::new("x", DataType::Float),
                Column::new("s", DataType::Str),
            ]),
        )
        .unwrap();
    for (k, row) in rows.iter().enumerate() {
        let values = [Value::Int(k as i64)]
            .into_iter()
            .chain(row.iter().cloned());
        tt.heap.insert(&Tuple::new(values.collect())).unwrap();
    }
    cat.create_index("tt_k", "tt", "k", true, false).unwrap();
    ExecEnv::new(cat, 32)
}

/// `predicate` in each of the four places a predicate runs: the
/// sequential scan's pushed filter, the index scan's residual, a hash
/// join's residual (`tt` against its own keys) and a `Filter` above an
/// aggregate (`HAVING` over `GROUP BY k, i, x, s`).
fn predicate_places(env: &ExecEnv, predicate: &Expr) -> Vec<(&'static str, PhysicalPlan)> {
    let table = scan(env, "tt");
    let schema = table.schema.clone();
    let seq = plan(
        PhysOp::SeqScan {
            table: "tt".into(),
            cols: None,
            filter: Some(predicate.clone()),
        },
        schema.clone(),
    );
    let index = plan(
        PhysOp::IndexScan {
            table: "tt".into(),
            index: "tt_k".into(),
            range: KeyRange::all(),
            cols: None,
            residual: Some(predicate.clone()),
            clustered: false,
        },
        schema.clone(),
    );
    let keys = plan(
        PhysOp::SeqScan {
            table: "tt".into(),
            cols: Some(vec![0].into()),
            filter: None,
        },
        schema.project(&[0]).unwrap(),
    );
    let join = plan(
        PhysOp::HashJoin {
            left: Box::new(table.clone()),
            right: Box::new(keys.clone()),
            left_key: 0,
            right_key: 0,
            residual: Some(predicate.clone()),
        },
        schema.join(&keys.schema),
    );
    let grouped = plan(
        PhysOp::HashAggregate {
            input: Box::new(table),
            group_by: vec![0, 1, 2, 3],
            aggs: vec![],
        },
        schema.clone(),
    );
    let having = plan(
        PhysOp::Filter {
            input: Box::new(grouped),
            predicate: predicate.clone(),
        },
        schema,
    );
    vec![
        ("SeqScan filter", seq),
        ("IndexScan residual", index),
        ("HashJoin residual", join),
        ("HAVING Filter", having),
    ]
}

/// The keys of the rows on which `predicate` is TRUE, the same from every
/// place at every batch size; or the error kind, the same from each.
fn truth_in_every_place(env: &ExecEnv, predicate: &Expr) -> Result<Vec<i64>, &'static str> {
    let mut answers = Vec::new();
    for (place, p) in predicate_places(env, predicate) {
        for bs in BATCH_SIZES {
            let got = run_collect(&p, &env.clone().with_batch_rows(bs)).map(|rows| {
                let mut keys: Vec<i64> = rows
                    .iter()
                    .map(|t| t.value(0).unwrap().as_i64().unwrap())
                    .collect();
                keys.sort();
                keys
            });
            answers.push((place, bs, got.map_err(|e| e.kind())));
        }
    }
    let (_, _, first) = answers[0].clone();
    for (place, bs, got) in &answers {
        assert_eq!(got, &first, "{predicate}: {place} at batch_rows={bs}");
    }
    first
}

/// `(i, x, s)` per key: INT against FLOAT both ways, equal strings of
/// different rows, and a NULL in each column.
fn truth_rows() -> Vec<[Value; 3]> {
    let s = |v: &str| Value::Str(v.into());
    vec![
        [Value::Int(1), Value::Float(1.0), s("a")],
        [Value::Int(2), Value::Float(1.5), s("ab")],
        [Value::Int(3), Value::Float(3.5), s("b")],
        [Value::Null, Value::Float(2.0), Value::Null],
        [Value::Int(2), Value::Null, s("ab")],
    ]
}

#[test]
fn every_comparison_over_every_operand_type_in_every_place() {
    let env = truth_world(&truth_rows());
    let (i, x, s) = (|| col(1), || col(2), || col(3));
    // Per operator, the keys kept by: `i OP 2`, `x OP 1.5`, `s OP 'ab'`,
    // `i OP x` (INT against FLOAT) and `x OP i` (FLOAT against INT).
    #[rustfmt::skip]
    let table: [(BinOp, [&[i64]; 5]); 6] = [
        (BinOp::Eq,    [&[1, 4],    &[1],       &[1, 4],    &[0],    &[0]]),
        (BinOp::NotEq, [&[0, 2],    &[0, 2, 3], &[0, 2],    &[1, 2], &[1, 2]]),
        (BinOp::Lt,    [&[0],       &[0],       &[0],       &[2],    &[1]]),
        (BinOp::LtEq,  [&[0, 1, 4], &[0, 1],    &[0, 1, 4], &[0, 2], &[0, 1]]),
        (BinOp::Gt,    [&[2],       &[2, 3],    &[2],       &[1],    &[2]]),
        (BinOp::GtEq,  [&[1, 2, 4], &[1, 2, 3], &[1, 2, 4], &[0, 1], &[0, 2]]),
    ];
    for (op, want) in table {
        let cases = [
            Expr::binary(op, i(), lit(2i64)),
            Expr::binary(op, x(), lit(1.5)),
            Expr::binary(op, s(), lit("ab")),
            Expr::binary(op, i(), x()),
            Expr::binary(op, x(), i()),
        ];
        for (predicate, want) in cases.iter().zip(want) {
            assert_eq!(
                truth_in_every_place(&env, predicate),
                Ok(want.to_vec()),
                "{predicate}"
            );
        }
        // A NULL operand, on either side or both: unknown on every row.
        for predicate in [
            Expr::binary(op, i(), lit(Value::Null)),
            Expr::binary(op, lit(Value::Null), s()),
            Expr::binary(op, lit(Value::Null), lit(Value::Null)),
        ] {
            assert_eq!(
                truth_in_every_place(&env, &predicate),
                Ok(vec![]),
                "{predicate}"
            );
        }
    }
}

#[test]
fn logic_null_tests_in_between_and_like_in_every_place() {
    let env = truth_world(&truth_rows());
    let (i, x, s) = (|| col(1), || col(2), || col(3));
    let cmp = Expr::binary;
    let unary = |op, input: Expr| Expr::Unary {
        op,
        input: Box::new(input),
    };
    let in_list = |input: Expr, list: Vec<Value>, negated| Expr::InList {
        input: Box::new(input),
        list,
        negated,
    };
    let between = |input: Expr, low: Value, high: Value, negated| Expr::Between {
        input: Box::new(input),
        low: Box::new(lit(low)),
        high: Box::new(lit(high)),
        negated,
    };
    let like = |pattern: &str, negated| Expr::Like {
        input: Box::new(s()),
        pattern: pattern.into(),
        negated,
    };
    let i_is_2_and_x_over_1 = Expr::and(
        cmp(BinOp::Eq, i(), lit(2i64)),
        cmp(BinOp::Gt, x(), lit(1.0)),
    );
    let i_is_2_or_x_over_3 = Expr::or(
        cmp(BinOp::Eq, i(), lit(2i64)),
        cmp(BinOp::Gt, x(), lit(3.0)),
    );
    let null = Value::Null;
    let cases: Vec<(Expr, &[i64])> = vec![
        // Kleene AND / OR / NOT: a NULL operand leaves the row unknown
        // unless the other operand decides it.
        (i_is_2_and_x_over_1.clone(), &[1]),
        (Expr::not(i_is_2_and_x_over_1), &[0, 2]),
        (i_is_2_or_x_over_3.clone(), &[1, 2, 4]),
        (Expr::not(i_is_2_or_x_over_3), &[0]),
        // Unknown on the left, deciding on the right.
        (
            Expr::not(Expr::and(
                cmp(BinOp::Gt, i(), lit(0i64)),
                cmp(BinOp::Gt, x(), lit(3.0)),
            )),
            &[0, 1, 3],
        ),
        (
            Expr::or(
                cmp(BinOp::Gt, i(), lit(5i64)),
                cmp(BinOp::Gt, x(), lit(1.0)),
            ),
            &[1, 2, 3],
        ),
        (
            Expr::not(Expr::and(lit(null.clone()), lit(false))),
            &[0, 1, 2, 3, 4],
        ),
        (Expr::and(lit(null.clone()), lit(true)), &[]),
        (Expr::or(lit(null.clone()), lit(true)), &[0, 1, 2, 3, 4]),
        (Expr::not(lit(null.clone())), &[]),
        // IS [NOT] NULL observes nullness directly.
        (unary(UnOp::IsNull, i()), &[3]),
        (unary(UnOp::IsNotNull, i()), &[0, 1, 2, 4]),
        (unary(UnOp::IsNull, s()), &[3]),
        (unary(UnOp::IsNotNull, x()), &[0, 1, 2, 3]),
        (
            Expr::or(unary(UnOp::IsNull, i()), unary(UnOp::IsNull, x())),
            &[3, 4],
        ),
        (unary(UnOp::IsNull, cmp(BinOp::Lt, i(), x())), &[3, 4]),
        // IN with a NULL element: no match is unknown, not FALSE.
        (in_list(i(), vec![Value::Int(1), null.clone()], false), &[0]),
        (in_list(i(), vec![Value::Int(1), null.clone()], true), &[]),
        (
            in_list(i(), vec![Value::Int(1), Value::Int(3)], true),
            &[1, 4],
        ),
        (
            in_list(x(), vec![Value::Float(1.5), Value::Int(2)], false),
            &[1, 3],
        ),
        // BETWEEN with a NULL bound: the other bound alone can decide FALSE.
        (
            between(i(), Value::Int(2), Value::Int(3), false),
            &[1, 2, 4],
        ),
        (between(i(), null.clone(), Value::Int(2), false), &[]),
        (between(i(), null.clone(), Value::Int(2), true), &[2]),
        (between(x(), Value::Int(2), null.clone(), true), &[0, 1]),
        // LIKE on NULL is unknown, negated or not.
        (like("a%", false), &[0, 1, 4]),
        (like("a%", true), &[2]),
        (like("_", false), &[0, 2]),
        (like("%", true), &[]),
    ];
    for (predicate, want) in cases {
        assert_eq!(
            truth_in_every_place(&env, &predicate),
            Ok(want.to_vec()),
            "{predicate}"
        );
    }
}

#[test]
fn errors_keep_their_kind_and_short_circuits_return_without_one() {
    let env = truth_world(&[
        [
            Value::Int(i64::MAX),
            Value::Float(1.0),
            Value::Str("a".into()),
        ],
        [Value::Int(1), Value::Float(2.0), Value::Str("b".into())],
    ]);
    let i = || col(1);
    // `i + 1 > 0` overflows on the first row.
    let overflow = Expr::binary(
        BinOp::Gt,
        Expr::binary(BinOp::Add, i(), lit(1i64)),
        lit(0i64),
    );
    assert_eq!(truth_in_every_place(&env, &overflow), Err("execution"));
    // An INT where AND wants a boolean, on either side.
    for predicate in [Expr::and(i(), lit(true)), Expr::and(lit(true), i())] {
        assert_eq!(
            truth_in_every_place(&env, &predicate),
            Err("execution"),
            "{predicate}"
        );
    }
    // FALSE AND <error> and TRUE OR <error> never reach the error, whether
    // the deciding side is a literal or a comparison on the row.
    let none_kept = [lit(false), Expr::binary(BinOp::Lt, col(0), lit(0i64))];
    for decided in none_kept {
        let predicate = Expr::and(decided, overflow.clone());
        assert_eq!(
            truth_in_every_place(&env, &predicate),
            Ok(vec![]),
            "{predicate}"
        );
    }
    let all_kept = [lit(true), Expr::binary(BinOp::GtEq, col(0), lit(0i64))];
    for decided in all_kept {
        let predicate = Expr::or(decided, overflow.clone());
        assert_eq!(
            truth_in_every_place(&env, &predicate),
            Ok(vec![0, 1]),
            "{predicate}"
        );
    }
}
