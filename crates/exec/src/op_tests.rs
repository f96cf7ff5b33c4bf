//! Cross-operator executor tests: joins, sort, aggregation — built directly
//! from physical plans (no optimizer involved) so each operator's semantics
//! are pinned down in isolation.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use evopt_catalog::{analyze_table, AnalyzeConfig, Catalog};
use evopt_common::expr::{col, lit};
use evopt_common::{AggFunc, Column, DataType, Expr, Schema, Tuple, Value};
use evopt_core::cost::Cost;
use evopt_core::physical::{PhysAgg, PhysOp, PhysicalPlan};
use evopt_storage::{BufferPool, DiskManager};

use crate::executor::{run_collect, ExecEnv};

/// Two tables:
/// * `l(a INT, tag STRING)` — `n_left` rows, a = i % key_space
/// * `r(b INT, payload INT)` — `n_right` rows, b = i % key_space, indexed
fn join_world(n_left: i64, n_right: i64, key_space: i64, pool_pages: usize) -> ExecEnv {
    let pool = BufferPool::new(Arc::new(DiskManager::new()), pool_pages);
    let cat = Arc::new(Catalog::new(pool));
    let l = cat
        .create_table(
            "l",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("tag", DataType::Str),
            ]),
        )
        .unwrap();
    for i in 0..n_left {
        l.heap
            .insert(&Tuple::new(vec![
                Value::Int(i % key_space),
                Value::Str(format!("L{i}")),
            ]))
            .unwrap();
    }
    let r = cat
        .create_table(
            "r",
            Schema::new(vec![
                Column::new("b", DataType::Int),
                Column::new("payload", DataType::Int),
            ]),
        )
        .unwrap();
    for i in 0..n_right {
        r.heap
            .insert(&Tuple::new(vec![
                Value::Int(i % key_space),
                Value::Int(i * 100),
            ]))
            .unwrap();
    }
    cat.create_index("r_b", "r", "b", false, false).unwrap();
    analyze_table(&cat, "l", &AnalyzeConfig::default()).unwrap();
    analyze_table(&cat, "r", &AnalyzeConfig::default()).unwrap();
    ExecEnv::new(cat, 16)
}

fn scan(env: &ExecEnv, t: &str) -> PhysicalPlan {
    PhysicalPlan {
        schema: env.catalog.table(t).unwrap().schema.clone(),
        est_rows: 0.0,
        est_cost: Cost::ZERO,
        output_order: None,
        op: PhysOp::SeqScan {
            table: t.into(),
            filter: None,
        },
    }
}

fn plan(op: PhysOp, schema: Schema) -> PhysicalPlan {
    PhysicalPlan {
        op,
        schema,
        est_rows: 0.0,
        est_cost: Cost::ZERO,
        output_order: None,
    }
}

/// Reference join result via brute force over the base tables.
fn expected_join(env: &ExecEnv) -> Vec<(i64, String, i64, i64)> {
    let l: Vec<Tuple> = run_collect(&scan(env, "l"), env).unwrap();
    let r: Vec<Tuple> = run_collect(&scan(env, "r"), env).unwrap();
    let mut out = Vec::new();
    for lt in &l {
        for rt in &r {
            if lt.value(0).unwrap().sql_eq(rt.value(0).unwrap()) == Some(true) {
                out.push((
                    lt.value(0).unwrap().as_i64().unwrap(),
                    lt.value(1).unwrap().as_str().unwrap().to_owned(),
                    rt.value(0).unwrap().as_i64().unwrap(),
                    rt.value(1).unwrap().as_i64().unwrap(),
                ));
            }
        }
    }
    out.sort();
    out
}

fn normalise(rows: Vec<Tuple>) -> Vec<(i64, String, i64, i64)> {
    let mut out: Vec<_> = rows
        .into_iter()
        .map(|t| {
            (
                t.value(0).unwrap().as_i64().unwrap(),
                t.value(1).unwrap().as_str().unwrap().to_owned(),
                t.value(2).unwrap().as_i64().unwrap(),
                t.value(3).unwrap().as_i64().unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

fn join_schema(env: &ExecEnv) -> Schema {
    scan(env, "l").schema.join(&scan(env, "r").schema)
}

#[test]
fn all_join_methods_agree_with_brute_force() {
    let env = join_world(200, 300, 50, 16);
    // An inner row rewritten in its slot with a new key, its index entry not
    // yet moved: what a reader beside that UPDATE meets. No method joins it.
    let r = env.catalog.table("r").unwrap();
    let rid = r.indexes()[0].btree.search_eq(&Value::Int(3)).unwrap()[0];
    let rekeyed = Tuple::new(vec![Value::Int(1003), Value::Int(300)]);
    assert!(r.heap.update(rid, &rekeyed).unwrap());
    let want = expected_join(&env);
    assert!(!want.is_empty());
    let schema = join_schema(&env);
    let pred = Some(Expr::eq(col(0), col(2)));

    let nlj = plan(
        PhysOp::NestedLoopJoin {
            left: Box::new(scan(&env, "l")),
            right: Box::new(scan(&env, "r")),
            predicate: pred.clone(),
        },
        schema.clone(),
    );
    assert_eq!(normalise(run_collect(&nlj, &env).unwrap()), want, "NLJ");

    let bnl = plan(
        PhysOp::BlockNestedLoopJoin {
            left: Box::new(scan(&env, "l")),
            right: Box::new(scan(&env, "r")),
            predicate: pred.clone(),
            block_pages: 4,
        },
        schema.clone(),
    );
    assert_eq!(normalise(run_collect(&bnl, &env).unwrap()), want, "BNL");

    let inl = plan(
        PhysOp::IndexNestedLoopJoin {
            outer: Box::new(scan(&env, "l")),
            inner_table: "r".into(),
            index: "r_b".into(),
            outer_key: 0,
            residual: None,
        },
        schema.clone(),
    );
    assert_eq!(normalise(run_collect(&inl, &env).unwrap()), want, "INL");

    let smj = plan(
        PhysOp::SortMergeJoin {
            left: Box::new(plan(
                PhysOp::Sort {
                    input: Box::new(scan(&env, "l")),
                    keys: vec![(0, true)],
                },
                scan(&env, "l").schema,
            )),
            right: Box::new(plan(
                PhysOp::Sort {
                    input: Box::new(scan(&env, "r")),
                    keys: vec![(0, true)],
                },
                scan(&env, "r").schema,
            )),
            left_key: 0,
            right_key: 0,
            residual: None,
        },
        schema.clone(),
    );
    assert_eq!(normalise(run_collect(&smj, &env).unwrap()), want, "SMJ");

    let hj = plan(
        PhysOp::HashJoin {
            left: Box::new(scan(&env, "l")),
            right: Box::new(scan(&env, "r")),
            left_key: 0,
            right_key: 0,
            residual: None,
        },
        schema,
    );
    assert_eq!(normalise(run_collect(&hj, &env).unwrap()), want, "HJ");
}

#[test]
fn null_keys_never_match() {
    let env = join_world(0, 0, 1, 16);
    let l = env.catalog.table("l").unwrap();
    let r = env.catalog.table("r").unwrap();
    l.heap
        .insert(&Tuple::new(vec![
            Value::Null,
            Value::Str("null-left".into()),
        ]))
        .unwrap();
    l.heap
        .insert(&Tuple::new(vec![Value::Int(1), Value::Str("one".into())]))
        .unwrap();
    r.heap
        .insert(&Tuple::new(vec![Value::Null, Value::Int(0)]))
        .unwrap();
    r.heap
        .insert(&Tuple::new(vec![Value::Int(1), Value::Int(100)]))
        .unwrap();
    let schema = join_schema(&env);
    for (name, op) in [
        (
            "HJ",
            PhysOp::HashJoin {
                left: Box::new(scan(&env, "l")),
                right: Box::new(scan(&env, "r")),
                left_key: 0,
                right_key: 0,
                residual: None,
            },
        ),
        (
            "SMJ",
            PhysOp::SortMergeJoin {
                left: Box::new(plan(
                    PhysOp::Sort {
                        input: Box::new(scan(&env, "l")),
                        keys: vec![(0, true)],
                    },
                    scan(&env, "l").schema,
                )),
                right: Box::new(plan(
                    PhysOp::Sort {
                        input: Box::new(scan(&env, "r")),
                        keys: vec![(0, true)],
                    },
                    scan(&env, "r").schema,
                )),
                left_key: 0,
                right_key: 0,
                residual: None,
            },
        ),
        (
            "NLJ",
            PhysOp::NestedLoopJoin {
                left: Box::new(scan(&env, "l")),
                right: Box::new(scan(&env, "r")),
                predicate: Some(Expr::eq(col(0), col(2))),
            },
        ),
    ] {
        let rows = run_collect(&plan(op, schema.clone()), &env).unwrap();
        assert_eq!(rows.len(), 1, "{name}: only 1=1 should match");
        assert_eq!(rows[0].value(1).unwrap(), &Value::Str("one".into()));
    }
}

#[test]
fn hash_join_grace_spills_and_is_correct() {
    // Build side far larger than the 4-page budget → Grace path.
    let env_small_pool = {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        let cat = Arc::new(Catalog::new(pool));
        ExecEnv::new(cat, 4)
    };
    let cat = &env_small_pool.catalog;
    let l = cat
        .create_table(
            "l",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("tag", DataType::Str),
            ]),
        )
        .unwrap();
    let r = cat
        .create_table(
            "r",
            Schema::new(vec![
                Column::new("b", DataType::Int),
                Column::new("payload", DataType::Int),
            ]),
        )
        .unwrap();
    for i in 0..2000i64 {
        l.heap
            .insert(&Tuple::new(vec![
                Value::Int(i % 500),
                Value::Str(format!("L{i}")),
            ]))
            .unwrap();
        r.heap
            .insert(&Tuple::new(vec![Value::Int(i % 500), Value::Int(i)]))
            .unwrap();
    }
    let env = env_small_pool;
    let want = expected_join(&env);
    let disk_before = env.catalog.pool().disk().snapshot();
    let hj = plan(
        PhysOp::HashJoin {
            left: Box::new(scan(&env, "l")),
            right: Box::new(scan(&env, "r")),
            left_key: 0,
            right_key: 0,
            residual: None,
        },
        join_schema(&env),
    );
    let got = normalise(run_collect(&hj, &env).unwrap());
    assert_eq!(got.len(), want.len());
    assert_eq!(got, want);
    // Grace partitioning wrote temp pages: allocations happened.
    let delta = env.catalog.pool().disk().snapshot().since(&disk_before);
    assert!(delta.allocations > 10, "expected spill, got {delta:?}");
}

#[test]
fn residual_predicates_filter_join_output() {
    let env = join_world(100, 100, 10, 16);
    let schema = join_schema(&env);
    let residual = Some(Expr::binary(evopt_common::BinOp::Gt, col(3), lit(5000i64)));
    let hj = plan(
        PhysOp::HashJoin {
            left: Box::new(scan(&env, "l")),
            right: Box::new(scan(&env, "r")),
            left_key: 0,
            right_key: 0,
            residual: residual.clone(),
        },
        schema,
    );
    let rows = run_collect(&hj, &env).unwrap();
    assert!(!rows.is_empty());
    assert!(rows
        .iter()
        .all(|t| t.value(3).unwrap().as_i64().unwrap() > 5000));
}

#[test]
fn sort_orders_and_handles_desc_and_ties() {
    let env = join_world(500, 0, 7, 16);
    let sorted = plan(
        PhysOp::Sort {
            input: Box::new(scan(&env, "l")),
            keys: vec![(0, false), (1, true)], // a DESC, tag ASC
        },
        scan(&env, "l").schema,
    );
    let rows = run_collect(&sorted, &env).unwrap();
    assert_eq!(rows.len(), 500);
    for w in rows.windows(2) {
        let (a0, a1) = (
            w[0].value(0).unwrap().as_i64().unwrap(),
            w[1].value(0).unwrap().as_i64().unwrap(),
        );
        assert!(a0 >= a1);
        if a0 == a1 {
            assert!(w[0].value(1).unwrap() <= w[1].value(1).unwrap());
        }
    }
}

#[test]
fn external_sort_spills_with_tiny_budget_and_stays_sorted() {
    let env = {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        let cat = Arc::new(Catalog::new(pool));
        ExecEnv::new(cat, 3) // 3-page sort budget forces many runs
    };
    let t = env
        .catalog
        .create_table(
            "big",
            Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("pad", DataType::Str),
            ]),
        )
        .unwrap();
    // Insert in descending order to defeat any accidental pre-order.
    for i in (0..5000i64).rev() {
        t.heap
            .insert(&Tuple::new(vec![
                Value::Int(i),
                Value::Str(format!("pad-{i:05}")),
            ]))
            .unwrap();
    }
    let before = env.catalog.pool().disk().snapshot();
    let sorted = plan(
        PhysOp::Sort {
            input: Box::new(scan(&env, "big")),
            keys: vec![(0, true)],
        },
        scan(&env, "big").schema,
    );
    let rows = run_collect(&sorted, &env).unwrap();
    assert_eq!(rows.len(), 5000);
    for (i, t) in rows.iter().enumerate() {
        assert_eq!(t.value(0).unwrap(), &Value::Int(i as i64));
    }
    let delta = env.catalog.pool().disk().snapshot().since(&before);
    assert!(delta.allocations > 20, "expected run spills, got {delta:?}");
}

#[test]
fn aggregate_grouped_and_global() {
    let env = join_world(100, 0, 10, 16);
    let in_schema = scan(&env, "l").schema;
    // GROUP BY a: COUNT(*), MIN(tag)
    let out_schema = Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("n", DataType::Int),
        Column::new("min_tag", DataType::Str),
    ]);
    let agg = plan(
        PhysOp::HashAggregate {
            input: Box::new(scan(&env, "l")),
            group_by: vec![0],
            aggs: vec![
                PhysAgg {
                    func: AggFunc::CountStar,
                    arg: None,
                },
                PhysAgg {
                    func: AggFunc::Min,
                    arg: Some(col(1)),
                },
            ],
        },
        out_schema,
    );
    let mut rows = run_collect(&agg, &env).unwrap();
    rows.sort();
    assert_eq!(rows.len(), 10);
    for t in &rows {
        assert_eq!(t.value(1).unwrap(), &Value::Int(10));
    }
    // Global: SUM, AVG, MAX over column a.
    let out_schema = Schema::new(vec![
        Column::new("s", DataType::Int),
        Column::new("avg", DataType::Float),
        Column::new("mx", DataType::Int),
    ]);
    let agg = plan(
        PhysOp::HashAggregate {
            input: Box::new(scan(&env, "l")),
            group_by: vec![],
            aggs: vec![
                PhysAgg {
                    func: AggFunc::Sum,
                    arg: Some(col(0)),
                },
                PhysAgg {
                    func: AggFunc::Avg,
                    arg: Some(col(0)),
                },
                PhysAgg {
                    func: AggFunc::Max,
                    arg: Some(col(0)),
                },
            ],
        },
        out_schema,
    );
    let rows = run_collect(&agg, &env).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].value(0).unwrap(), &Value::Int(450)); // 10 × (0+..+9)
    assert_eq!(rows[0].value(1).unwrap(), &Value::Float(4.5));
    assert_eq!(rows[0].value(2).unwrap(), &Value::Int(9));
    let _ = in_schema;
}

#[test]
fn aggregate_empty_input_semantics() {
    let env = join_world(0, 0, 1, 16);
    let grouped = plan(
        PhysOp::HashAggregate {
            input: Box::new(scan(&env, "l")),
            group_by: vec![0],
            aggs: vec![PhysAgg {
                func: AggFunc::CountStar,
                arg: None,
            }],
        },
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("n", DataType::Int),
        ]),
    );
    assert_eq!(run_collect(&grouped, &env).unwrap().len(), 0);
    let global = plan(
        PhysOp::HashAggregate {
            input: Box::new(scan(&env, "l")),
            group_by: vec![],
            aggs: vec![
                PhysAgg {
                    func: AggFunc::CountStar,
                    arg: None,
                },
                PhysAgg {
                    func: AggFunc::Sum,
                    arg: Some(col(0)),
                },
            ],
        },
        Schema::new(vec![
            Column::new("n", DataType::Int),
            Column::new("s", DataType::Int),
        ]),
    );
    let rows = run_collect(&global, &env).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].value(0).unwrap(), &Value::Int(0));
    assert_eq!(rows[0].value(1).unwrap(), &Value::Null);
}

#[test]
fn sort_aggregate_matches_hash_aggregate() {
    let env = join_world(500, 0, 13, 16);
    let mk = |sort_based: bool| {
        let sorted_scan = plan(
            PhysOp::Sort {
                input: Box::new(scan(&env, "l")),
                keys: vec![(0, true)],
            },
            scan(&env, "l").schema,
        );
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("n", DataType::Int),
            Column::new("min_tag", DataType::Str),
        ]);
        let group_by = vec![0];
        let aggs = vec![
            PhysAgg {
                func: AggFunc::CountStar,
                arg: None,
            },
            PhysAgg {
                func: AggFunc::Min,
                arg: Some(col(1)),
            },
        ];
        if sort_based {
            plan(
                PhysOp::SortAggregate {
                    input: Box::new(sorted_scan),
                    group_by,
                    aggs,
                },
                schema,
            )
        } else {
            plan(
                PhysOp::HashAggregate {
                    input: Box::new(sorted_scan),
                    group_by,
                    aggs,
                },
                schema,
            )
        }
    };
    let mut hash_rows = run_collect(&mk(false), &env).unwrap();
    hash_rows.sort();
    let sort_rows = run_collect(&mk(true), &env).unwrap();
    // Streaming output is already in group order.
    let mut sorted_copy = sort_rows.clone();
    sorted_copy.sort();
    assert_eq!(sort_rows, sorted_copy, "sort-agg output is ordered");
    assert_eq!(sort_rows, hash_rows);
    assert_eq!(sort_rows.len(), 13);
}

#[test]
fn sort_aggregate_empty_input_semantics() {
    let env = join_world(0, 0, 1, 16);
    let grouped = plan(
        PhysOp::SortAggregate {
            input: Box::new(scan(&env, "l")),
            group_by: vec![0],
            aggs: vec![PhysAgg {
                func: AggFunc::CountStar,
                arg: None,
            }],
        },
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("n", DataType::Int),
        ]),
    );
    assert_eq!(run_collect(&grouped, &env).unwrap().len(), 0);
    let global = plan(
        PhysOp::SortAggregate {
            input: Box::new(scan(&env, "l")),
            group_by: vec![],
            aggs: vec![PhysAgg {
                func: AggFunc::CountStar,
                arg: None,
            }],
        },
        Schema::new(vec![Column::new("n", DataType::Int)]),
    );
    let rows = run_collect(&global, &env).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].value(0).unwrap(), &Value::Int(0));
}

#[test]
fn aggregates_ignore_null_arguments() {
    let env = join_world(0, 0, 1, 16);
    let l = env.catalog.table("l").unwrap();
    for v in [Value::Int(10), Value::Null, Value::Int(20), Value::Null] {
        l.heap
            .insert(&Tuple::new(vec![v, Value::Str("x".into())]))
            .unwrap();
    }
    let agg = plan(
        PhysOp::HashAggregate {
            input: Box::new(scan(&env, "l")),
            group_by: vec![],
            aggs: vec![
                PhysAgg {
                    func: AggFunc::Count,
                    arg: Some(col(0)),
                },
                PhysAgg {
                    func: AggFunc::CountStar,
                    arg: None,
                },
                PhysAgg {
                    func: AggFunc::Avg,
                    arg: Some(col(0)),
                },
            ],
        },
        Schema::new(vec![
            Column::new("c", DataType::Int),
            Column::new("cs", DataType::Int),
            Column::new("avg", DataType::Float),
        ]),
    );
    let rows = run_collect(&agg, &env).unwrap();
    assert_eq!(
        rows[0].value(0).unwrap(),
        &Value::Int(2),
        "COUNT skips nulls"
    );
    assert_eq!(
        rows[0].value(1).unwrap(),
        &Value::Int(4),
        "COUNT(*) counts all"
    );
    assert_eq!(rows[0].value(2).unwrap(), &Value::Float(15.0));
}

#[test]
fn sort_empty_input_and_single_row() {
    let env = join_world(0, 0, 1, 16);
    let sorted = plan(
        PhysOp::Sort {
            input: Box::new(scan(&env, "l")),
            keys: vec![(0, true)],
        },
        scan(&env, "l").schema,
    );
    assert!(run_collect(&sorted, &env).unwrap().is_empty());
    env.catalog
        .table("l")
        .unwrap()
        .heap
        .insert(&Tuple::new(vec![Value::Int(42), Value::Str("only".into())]))
        .unwrap();
    let rows = run_collect(&sorted, &env).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].value(0).unwrap(), &Value::Int(42));
}

#[test]
fn sort_is_stable_enough_for_total_order_and_handles_nulls() {
    let env = join_world(0, 0, 1, 16);
    let l = env.catalog.table("l").unwrap();
    for v in [
        Value::Int(3),
        Value::Null,
        Value::Int(1),
        Value::Null,
        Value::Int(2),
    ] {
        l.heap
            .insert(&Tuple::new(vec![v, Value::Str("x".into())]))
            .unwrap();
    }
    let sorted = plan(
        PhysOp::Sort {
            input: Box::new(scan(&env, "l")),
            keys: vec![(0, true)],
        },
        scan(&env, "l").schema,
    );
    let rows = run_collect(&sorted, &env).unwrap();
    // NULLs first under the total order, then 1, 2, 3.
    assert!(rows[0].value(0).unwrap().is_null());
    assert!(rows[1].value(0).unwrap().is_null());
    let tail: Vec<i64> = rows[2..]
        .iter()
        .map(|t| t.value(0).unwrap().as_i64().unwrap())
        .collect();
    assert_eq!(tail, vec![1, 2, 3]);
}

#[test]
fn merge_join_all_duplicates_cross_within_group() {
    // 20 x 20 identical keys: SMJ must emit the full 400-row cross of the
    // group without losing or duplicating pairs.
    let env = join_world(20, 20, 1, 16);
    let schema = join_schema(&env);
    let smj = plan(
        PhysOp::SortMergeJoin {
            left: Box::new(plan(
                PhysOp::Sort {
                    input: Box::new(scan(&env, "l")),
                    keys: vec![(0, true)],
                },
                scan(&env, "l").schema,
            )),
            right: Box::new(plan(
                PhysOp::Sort {
                    input: Box::new(scan(&env, "r")),
                    keys: vec![(0, true)],
                },
                scan(&env, "r").schema,
            )),
            left_key: 0,
            right_key: 0,
            residual: None,
        },
        schema,
    );
    let rows = run_collect(&smj, &env).unwrap();
    assert_eq!(rows.len(), 400);
}

#[test]
fn bnl_io_grows_as_pool_block_shrinks() {
    // The F4/BNL shape measured for real: same join, two block sizes.
    let measure = |block_pages: usize| -> u64 {
        let env = join_world(3000, 3000, 100, 8); // tiny pool: reads are physical
        let hj = plan(
            PhysOp::BlockNestedLoopJoin {
                left: Box::new(scan(&env, "l")),
                right: Box::new(scan(&env, "r")),
                predicate: Some(Expr::eq(col(0), col(2))),
                block_pages,
            },
            join_schema(&env),
        );
        let before = env.catalog.pool().disk().snapshot();
        let rows = run_collect(&hj, &env).unwrap();
        assert_eq!(rows.len(), 3000 * 30);
        env.catalog.pool().disk().snapshot().since(&before).reads
    };
    let small = measure(3);
    let large = measure(64);
    assert!(
        small > large,
        "3-page blocks should re-read the inner more: {small} <= {large}"
    );
}
