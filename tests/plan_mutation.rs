//! Mutation-testing harness for the static plan verifier.
//!
//! A verifier that accepts everything is worse than none: it documents a
//! guarantee it does not provide. This suite proves the analysis has teeth
//! by deliberately corrupting *valid* physical plans — one well-defined
//! mutation class at a time — and asserting the verifier kills every
//! mutant. Each mutation operator models a realistic optimizer bug
//! (ordinal bookkeeping slips, dropped enforcer nodes, stale index
//! references, estimate underflow), and the expected rule code is pinned
//! so a rule regression cannot hide behind another rule's catch.

use std::sync::Arc;

use evopt_catalog::{analyze_table, AnalyzeConfig, Catalog};
use evopt_common::expr::{col, lit};
use evopt_common::AggFunc;
use evopt_common::{BinOp, Column, DataType, Expr, Schema, Tuple, Value};
use evopt_core::cost::Cost;
use evopt_core::physical::{KeyRange, PhysAgg, PhysOp, PhysicalPlan};
use evopt_core::verify::{verify_physical, VerifyPhase};
use evopt_storage::{BufferPool, DiskManager};

/// A catalog with two analyzed tables and an index — enough to make every
/// operator family constructible as a *valid* plan.
///
/// `t(a INT, b STR)`, `u(c INT, d STR)`, index `u_c` on `u.c`.
fn world() -> Arc<Catalog> {
    let disk = Arc::new(DiskManager::new());
    let pool = BufferPool::new(disk, 64);
    let cat = Arc::new(Catalog::new(pool));
    let t = cat
        .create_table(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Str),
            ]),
        )
        .unwrap();
    let u = cat
        .create_table(
            "u",
            Schema::new(vec![
                Column::new("c", DataType::Int),
                Column::new("d", DataType::Str),
            ]),
        )
        .unwrap();
    for i in 0..50i64 {
        t.heap
            .insert(&Tuple::new(vec![
                Value::Int(i),
                Value::Str(format!("t{i}")),
            ]))
            .unwrap();
        u.heap
            .insert(&Tuple::new(vec![
                Value::Int(i % 10),
                Value::Str(format!("u{i}")),
            ]))
            .unwrap();
    }
    cat.create_index("u_c", "u", "c", false, false).unwrap();
    analyze_table(&cat, "t", &AnalyzeConfig::default()).unwrap();
    analyze_table(&cat, "u", &AnalyzeConfig::default()).unwrap();
    cat
}

fn node(op: PhysOp, schema: Schema, rows: f64, cost: Cost) -> PhysicalPlan {
    PhysicalPlan {
        op,
        schema,
        est_rows: rows,
        est_cost: cost,
        output_order: None,
    }
}

fn scan(cat: &Catalog, table: &str, rows: f64) -> PhysicalPlan {
    let schema = cat.table(table).unwrap().schema.clone();
    node(
        PhysOp::SeqScan {
            table: table.into(),
            cols: None,
            filter: None,
        },
        schema,
        rows,
        Cost::new(2.0, rows),
    )
}

fn sort_on(input: PhysicalPlan, key: usize) -> PhysicalPlan {
    let schema = input.schema.clone();
    let rows = input.est_rows;
    let cost = Cost::new(input.est_cost.io, input.est_cost.cpu + rows * 2.0);
    node(
        PhysOp::Sort {
            input: Box::new(input),
            keys: vec![(key, true)],
        },
        schema,
        rows,
        cost,
    )
}

/// Valid hash join `t ⋈ u ON t.a = u.c`.
fn hash_join(cat: &Catalog) -> PhysicalPlan {
    let l = scan(cat, "t", 50.0);
    let r = scan(cat, "u", 50.0);
    let schema = l.schema.join(&r.schema);
    node(
        PhysOp::HashJoin {
            left: Box::new(l),
            right: Box::new(r),
            left_key: 0,
            right_key: 0,
            residual: None,
        },
        schema,
        250.0,
        Cost::new(4.0, 400.0),
    )
}

/// Valid merge join with explicit sort enforcers on both inputs.
fn merge_join(cat: &Catalog) -> PhysicalPlan {
    let l = sort_on(scan(cat, "t", 50.0), 0);
    let r = sort_on(scan(cat, "u", 50.0), 0);
    let schema = l.schema.join(&r.schema);
    node(
        PhysOp::SortMergeJoin {
            left: Box::new(l),
            right: Box::new(r),
            left_key: 0,
            right_key: 0,
            residual: None,
        },
        schema,
        250.0,
        Cost::new(4.0, 600.0),
    )
}

/// Valid filter `t.a > 5` over a scan.
fn filter(cat: &Catalog) -> PhysicalPlan {
    let s = scan(cat, "t", 50.0);
    let schema = s.schema.clone();
    node(
        PhysOp::Filter {
            input: Box::new(s),
            predicate: Expr::binary(BinOp::Gt, col(0), lit(5i64)),
        },
        schema,
        20.0,
        Cost::new(2.0, 100.0),
    )
}

/// Valid index scan over `u_c` with a closed range.
fn index_scan(cat: &Catalog) -> PhysicalPlan {
    let schema = cat.table("u").unwrap().schema.clone();
    node(
        PhysOp::IndexScan {
            table: "u".into(),
            index: "u_c".into(),
            range: KeyRange {
                low: std::ops::Bound::Included(Value::Int(2)),
                high: std::ops::Bound::Included(Value::Int(7)),
            },
            cols: None,
            residual: None,
            clustered: false,
        },
        schema,
        25.0,
        Cost::new(5.0, 25.0),
    )
}

/// Valid scan of `table` decoding only `cols`.
fn narrowed_scan(cat: &Catalog, table: &str, cols: Vec<usize>) -> PhysicalPlan {
    let mut p = scan(cat, table, 50.0);
    p.schema = p.schema.project(&cols).unwrap();
    if let PhysOp::SeqScan { cols: c, .. } = &mut p.op {
        *c = Some(cols.into());
    }
    p
}

/// Valid hash join `t ⋈ u ON t.a = u.c` over scans that decode only the
/// key columns.
fn narrowed_join(cat: &Catalog) -> PhysicalPlan {
    let l = narrowed_scan(cat, "t", vec![0]);
    let r = narrowed_scan(cat, "u", vec![0]);
    let schema = l.schema.join(&r.schema);
    node(
        PhysOp::HashJoin {
            left: Box::new(l),
            right: Box::new(r),
            left_key: 0,
            right_key: 0,
            residual: None,
        },
        schema,
        250.0,
        Cost::new(4.0, 400.0),
    )
}

/// Valid index scan over `u_c` that decodes only the key column.
fn narrowed_index_scan(cat: &Catalog) -> PhysicalPlan {
    let mut p = index_scan(cat);
    p.schema = p.schema.project(&[0]).unwrap();
    if let PhysOp::IndexScan { cols, .. } = &mut p.op {
        *cols = Some(vec![0].into());
    }
    p
}

/// Valid streaming aggregate: sorted input, grouped on the sort column.
fn stream_agg(cat: &Catalog) -> PhysicalPlan {
    let sorted = sort_on(scan(cat, "t", 50.0), 0);
    let schema = Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("n", DataType::Int),
    ]);
    node(
        PhysOp::SortAggregate {
            input: Box::new(sorted),
            group_by: vec![0],
            aggs: vec![PhysAgg {
                func: AggFunc::CountStar,
                arg: None,
            }],
        },
        schema,
        10.0,
        Cost::new(2.0, 200.0),
    )
}

/// Valid projection `SELECT b, a FROM t`.
fn project(cat: &Catalog) -> PhysicalPlan {
    let s = scan(cat, "t", 50.0);
    let schema = Schema::new(vec![
        Column::new("b", DataType::Str),
        Column::new("a", DataType::Int),
    ]);
    node(
        PhysOp::Project {
            input: Box::new(s),
            exprs: vec![col(1), col(0)],
        },
        schema,
        50.0,
        Cost::new(2.0, 100.0),
    )
}

/// Valid LIMIT 10.
fn limit(cat: &Catalog) -> PhysicalPlan {
    let s = scan(cat, "t", 50.0);
    let schema = s.schema.clone();
    node(
        PhysOp::Limit {
            input: Box::new(s),
            limit: 10,
        },
        schema,
        10.0,
        Cost::new(2.0, 50.0),
    )
}

/// Valid block nested loops.
fn bnl(cat: &Catalog) -> PhysicalPlan {
    let l = scan(cat, "t", 50.0);
    let r = scan(cat, "u", 50.0);
    let schema = l.schema.join(&r.schema);
    node(
        PhysOp::BlockNestedLoopJoin {
            left: Box::new(l),
            right: Box::new(r),
            predicate: Some(Expr::eq(col(0), col(2))),
            block_pages: 4,
        },
        schema,
        250.0,
        Cost::new(8.0, 2_500.0),
    )
}

/// One mutation operator: a named corruption of a valid plan, plus the
/// rule code expected to kill it.
struct Mutation {
    name: &'static str,
    expect_rule: &'static str,
    build: fn(&Catalog) -> PhysicalPlan,
}

fn mutations() -> Vec<Mutation> {
    vec![
        Mutation {
            name: "swap filter column out of range",
            expect_rule: "schema/column-ref",
            build: |cat| {
                let mut p = filter(cat);
                if let PhysOp::Filter { predicate, .. } = &mut p.op {
                    *predicate = Expr::binary(BinOp::Gt, col(9), lit(5i64));
                }
                p
            },
        },
        Mutation {
            name: "drop the sort enforcer under a merge join",
            expect_rule: "order/merge-input",
            build: |cat| {
                let mut p = merge_join(cat);
                if let PhysOp::SortMergeJoin { left, .. } = &mut p.op {
                    // Replace Sort(scan) by the bare scan: order lost.
                    let PhysOp::Sort { input, .. } = left.op.clone() else {
                        unreachable!()
                    };
                    *left = input;
                }
                p
            },
        },
        Mutation {
            name: "flip a hash-join key to an incomparable type",
            expect_rule: "key/type",
            build: |cat| {
                let mut p = hash_join(cat);
                if let PhysOp::HashJoin { right_key, .. } = &mut p.op {
                    *right_key = 1; // u.d is STRING; t.a is INT
                }
                p
            },
        },
        Mutation {
            name: "negate a cardinality estimate",
            expect_rule: "est/rows",
            build: |cat| {
                let mut p = hash_join(cat);
                p.est_rows = -p.est_rows;
                p
            },
        },
        Mutation {
            name: "poison a cost with NaN",
            expect_rule: "est/cost",
            build: |cat| {
                let mut p = hash_join(cat);
                p.est_cost = Cost::new(f64::NAN, p.est_cost.cpu);
                p
            },
        },
        Mutation {
            name: "point an index scan at a nonexistent index",
            expect_rule: "index/exists",
            build: |cat| {
                let mut p = index_scan(cat);
                if let PhysOp::IndexScan { index, .. } = &mut p.op {
                    *index = "u_gone".into();
                }
                p
            },
        },
        Mutation {
            name: "drop a column from a join's output schema",
            expect_rule: "schema/propagation",
            build: |cat| {
                let mut p = hash_join(cat);
                let cols: Vec<Column> = p.schema.columns()[..3].to_vec();
                p.schema = Schema::new(cols);
                p
            },
        },
        Mutation {
            name: "filter estimate above its input",
            expect_rule: "est/filter-monotone",
            build: |cat| {
                let mut p = filter(cat);
                p.est_rows = 5_000.0; // input scan estimates 50
                p
            },
        },
        Mutation {
            name: "projection arity mismatch",
            expect_rule: "schema/arity",
            build: |cat| {
                let mut p = project(cat);
                if let PhysOp::Project { exprs, .. } = &mut p.op {
                    exprs.pop();
                }
                p
            },
        },
        Mutation {
            name: "zero-page block nested loops",
            expect_rule: "join/block-pages",
            build: |cat| {
                let mut p = bnl(cat);
                if let PhysOp::BlockNestedLoopJoin { block_pages, .. } = &mut p.op {
                    *block_pages = 0;
                }
                p
            },
        },
        Mutation {
            name: "non-boolean filter predicate",
            expect_rule: "expr/type",
            build: |cat| {
                let mut p = filter(cat);
                if let PhysOp::Filter { predicate, .. } = &mut p.op {
                    *predicate = Expr::binary(BinOp::Add, col(0), lit(1i64));
                }
                p
            },
        },
        Mutation {
            name: "streaming aggregate over unsorted input",
            expect_rule: "order/stream-agg",
            build: |cat| {
                let mut p = stream_agg(cat);
                if let PhysOp::SortAggregate { input, .. } = &mut p.op {
                    let PhysOp::Sort { input: inner, .. } = input.op.clone() else {
                        unreachable!()
                    };
                    *input = inner;
                }
                p
            },
        },
        Mutation {
            name: "limit estimate above the limit",
            expect_rule: "est/limit",
            build: |cat| {
                let mut p = limit(cat);
                p.est_rows = 40.0; // LIMIT 10
                p
            },
        },
        Mutation {
            name: "string bound on an integer index key",
            expect_rule: "key/type",
            build: |cat| {
                let mut p = index_scan(cat);
                if let PhysOp::IndexScan { range, .. } = &mut p.op {
                    *range = KeyRange {
                        low: std::ops::Bound::Included(Value::Str("x".into())),
                        high: std::ops::Bound::Unbounded,
                    };
                }
                p
            },
        },
        Mutation {
            name: "unsorted scan projection",
            expect_rule: "scan/cols",
            build: |cat| {
                let mut p = narrowed_scan(cat, "t", vec![1, 0]);
                p.schema = cat.table("t").unwrap().schema.project(&[1, 0]).unwrap();
                p
            },
        },
        Mutation {
            name: "scan projection missing a column a join reads",
            expect_rule: "schema/column-ref",
            build: |cat| {
                let mut p = narrowed_join(cat);
                if let PhysOp::HashJoin { right, .. } = &mut p.op {
                    **right = narrowed_scan(cat, "u", vec![]);
                }
                p.schema = p.schema.project(&[0]).unwrap();
                p
            },
        },
        Mutation {
            name: "scan schema that is not the catalog's columns at its projection",
            expect_rule: "schema/propagation",
            build: |cat| {
                let mut p = narrowed_scan(cat, "u", vec![1]);
                p.schema = cat.table("u").unwrap().schema.project(&[0]).unwrap();
                p
            },
        },
        Mutation {
            name: "index scan projection without its key column",
            expect_rule: "scan/cols",
            build: |cat| {
                let mut p = narrowed_index_scan(cat);
                p.schema = cat.table("u").unwrap().schema.project(&[1]).unwrap();
                if let PhysOp::IndexScan { cols, .. } = &mut p.op {
                    *cols = Some(vec![1].into());
                }
                p
            },
        },
        Mutation {
            name: "cumulative cost below a summed input",
            expect_rule: "est/cost-monotone",
            build: |cat| {
                let mut p = hash_join(cat);
                p.est_cost = Cost::new(0.0, 1.0); // children cost ~52 each
                p
            },
        },
    ]
}

/// Every base plan the mutations start from must itself verify clean — a
/// dirty base would make the kills vacuous.
#[test]
fn base_plans_verify_clean() {
    let cat = world();
    let bases: Vec<(&str, PhysicalPlan)> = vec![
        ("hash_join", hash_join(&cat)),
        ("merge_join", merge_join(&cat)),
        ("filter", filter(&cat)),
        ("index_scan", index_scan(&cat)),
        ("stream_agg", stream_agg(&cat)),
        ("project", project(&cat)),
        ("limit", limit(&cat)),
        ("bnl", bnl(&cat)),
        ("narrowed_join", narrowed_join(&cat)),
        ("narrowed_index_scan", narrowed_index_scan(&cat)),
    ];
    for (name, p) in bases {
        let report = verify_physical(&p, Some(&cat), VerifyPhase::PostPhysical);
        assert!(report.ok(), "{name}: unexpected issues {:?}", report.issues);
    }
}

/// The headline: 100% mutation kill rate, with every mutant killed by the
/// rule written for its class.
#[test]
fn verifier_kills_every_mutation_class() {
    let cat = world();
    let muts = mutations();
    assert!(muts.len() >= 8, "need at least 8 mutation operators");
    let mut killed = 0usize;
    for m in &muts {
        let corrupt = (m.build)(&cat);
        let report = verify_physical(&corrupt, Some(&cat), VerifyPhase::PostPhysical);
        assert!(
            !report.ok(),
            "mutation '{}' survived: the verifier accepted a corrupt plan",
            m.name
        );
        assert!(
            report.issues.iter().any(|i| i.rule == m.expect_rule),
            "mutation '{}' was caught, but not by rule {} (got {:?})",
            m.name,
            m.expect_rule,
            report.issues
        );
        killed += 1;
    }
    assert_eq!(killed, muts.len(), "kill rate below 100%");
    // Distinct mutation classes, by rule code.
    let mut classes: Vec<&str> = muts.iter().map(|m| m.expect_rule).collect();
    classes.sort_unstable();
    classes.dedup();
    assert!(
        classes.len() >= 8,
        "mutation classes collapsed: {classes:?}"
    );
}

/// A verify failure is a structured error, never a panic: run every mutant
/// through `into_result` and demand a plan error mentioning the rule.
#[test]
fn verify_errors_are_structured_not_panics() {
    let cat = world();
    for m in mutations() {
        let corrupt = (m.build)(&cat);
        let err = verify_physical(&corrupt, Some(&cat), VerifyPhase::PostPhysical)
            .into_result()
            .unwrap_err();
        let msg = err.message();
        assert!(
            msg.contains("plan verification failed") && msg.contains(m.expect_rule),
            "mutation '{}': unexpected error text {msg}",
            m.name
        );
    }
}
