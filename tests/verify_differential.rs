//! Differential suite for static plan verification.
//!
//! Verification must be a pure observer: turning
//! `OptimizerConfig::verify` on may reject a malformed plan, but for every *well-formed* query it must
//! change neither the chosen plan (digest) nor the result rows. Two
//! identically seeded databases — one verifying, one not — run the same
//! battery; any divergence is a verifier bug. The five forced join
//! families are additionally pushed through the verifier directly, pinning
//! the rule set to every join method the executor implements. In debug
//! builds both databases verify unconditionally (the hooks are
//! `debug_assert`-style); in release builds — CI runs this suite both
//! ways — the pair is a genuine on/off differential.

mod support;

use std::sync::Arc;

use evopt::engine::Mode;
use evopt::{Database, DatabaseConfig, OptimizerConfig, Phase, Tuple};
use evopt_catalog::{analyze_table, AnalyzeConfig, Catalog};
use evopt_common::expr::col;
use evopt_common::{Column, DataType, Expr, Schema, Value};
use evopt_core::cost::Cost;
use evopt_core::physical::{PhysOp, PhysicalPlan};
use evopt_core::verify::{verify_physical, VerifyPhase};
use evopt_core::Strategy;
use evopt_storage::{BufferPool, DiskManager};
use support::{battery, normalized, seeded};

/// Run an EXPLAIN-family statement and return its text.
fn explain(db: &Database, sql: &str) -> String {
    match db.execute(sql).unwrap() {
        evopt::QueryResult::Explained(text) => text,
        other => panic!("{sql}: expected Explained, got {other:?}"),
    }
}

/// The headline differential: same digests, same rows, verification on or
/// off, across every enumeration strategy.
#[test]
fn verification_changes_no_digest_and_no_result() {
    let on = seeded(true);
    let off = seeded(false);
    for strategy in [Strategy::SystemR, Strategy::Greedy, Strategy::Syntactic] {
        on.set_strategy(strategy);
        off.set_strategy(strategy);
        for sql in battery() {
            let (_, plan_on) = on.plan_sql(sql).unwrap();
            let (_, plan_off) = off.plan_sql(sql).unwrap();
            assert_eq!(
                plan_on.digest_hex(),
                plan_off.digest_hex(),
                "{:?}: verifying changed the plan for {sql}",
                strategy
            );
            let rows_on = on.query(sql).unwrap();
            let rows_off = off.query(sql).unwrap();
            assert_eq!(
                normalized(&rows_on),
                normalized(&rows_off),
                "{:?}: verifying changed the result of {sql}",
                strategy
            );
        }
    }
}

/// `OptimizerConfig::verify` is the one switch: it turns on the post-bind
/// check as well as the optimizer's per-phase ones, so a SELECT's span has
/// a verify phase. Without it, a release build verifies nothing.
#[test]
fn optimizer_verify_alone_verifies_after_bind() {
    let build = |verify: bool| {
        let db = Database::new(DatabaseConfig {
            optimizer: OptimizerConfig {
                verify,
                ..OptimizerConfig::default()
            },
            ..DatabaseConfig::default()
        });
        db.execute("CREATE TABLE t (a INT NOT NULL, b INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        db
    };
    let sql = "SELECT b FROM t WHERE a = 2";
    let on = build(true).run(sql, Mode::Plain);
    assert!(
        on.span.phase_us(Phase::Verify).is_some(),
        "no verify phase with OptimizerConfig::verify on: {}",
        on.span.compact()
    );
    assert_eq!(on.into_result().unwrap().rows().len(), 1);
    let off = build(false).run(sql, Mode::Plain);
    assert_eq!(
        off.span.phase_us(Phase::Verify).is_some(),
        cfg!(debug_assertions),
        "debug builds verify unconditionally, release builds only when asked: {}",
        off.span.compact()
    );
}

/// `EXPLAIN VERIFY` reports, composes with ANALYZE/TRACE, and leaves the
/// plain EXPLAIN text untouched.
#[test]
fn explain_verify_reports_and_composes() {
    let db = seeded(true);
    let text = explain(
        &db,
        "EXPLAIN VERIFY SELECT unique1 FROM wisc WHERE unique1 < 10",
    );
    assert!(text.contains("== verify =="), "{text}");
    assert!(text.contains("post-bind: ok"), "{text}");
    assert!(text.contains("post-physical: ok"), "{text}");
    assert!(text.contains("lints: none"), "{text}");

    let plain = explain(&db, "EXPLAIN SELECT unique1 FROM wisc WHERE unique1 < 10");
    assert!(!plain.contains("== verify =="), "{plain}");

    // Composition in any keyword order, alongside measured output.
    let combo = explain(&db, "EXPLAIN ANALYZE VERIFY SELECT COUNT(*) FROM wisc");
    assert!(combo.contains("== verify =="), "{combo}");
    assert!(combo.contains("== measured =="), "{combo}");
}

/// Lints surface through `EXPLAIN VERIFY` and land in the metrics
/// registry.
#[test]
fn lints_are_reported_and_counted() {
    let db = seeded(true);
    let before = db.metrics_snapshot();
    let text = explain(
        &db,
        "EXPLAIN VERIFY SELECT unique1 FROM wisc WHERE unique1 > 5 AND unique1 < 3",
    );
    assert!(text.contains("[contradiction]"), "{text}");
    let after = db.metrics_snapshot();
    assert!(
        after.lints_flagged > before.lints_flagged,
        "lints_flagged did not move: {} -> {}",
        before.lints_flagged,
        after.lints_flagged
    );
    assert!(after.plans_verified > before.plans_verified);
    // The contradictory query is suspicious, not invalid: no failures.
    assert_eq!(after.verify_failures, before.verify_failures);

    let cross = explain(&db, "EXPLAIN VERIFY SELECT * FROM wisc, empty_t LIMIT 1");
    assert!(cross.contains("[cross-product]"), "{cross}");
}

/// Every optimizer-chosen plan for the battery passes the verifier with
/// the catalog attached — the "run it across the golden battery" check
/// from the issue, as a pinned regression.
#[test]
fn battery_plans_verify_clean() {
    let db = seeded(false);
    for strategy in [
        Strategy::SystemR,
        Strategy::BushyDp,
        Strategy::DpCcp,
        Strategy::Greedy,
        Strategy::Goo,
        Strategy::QuickPick {
            samples: 32,
            seed: 7,
        },
        Strategy::Syntactic,
    ] {
        db.set_strategy(strategy);
        for sql in battery() {
            let (_, plan) = db.plan_sql(sql).unwrap();
            let report = verify_physical(&plan, Some(db.catalog()), VerifyPhase::PostPhysical);
            assert!(report.ok(), "{strategy:?} {sql}: {:?}", report.issues);
        }
    }
}

// -- forced join families ---------------------------------------------------

fn join_world() -> (Arc<Catalog>, Schema) {
    let disk = Arc::new(DiskManager::new());
    let pool = BufferPool::new(disk, 64);
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
    let r = cat
        .create_table(
            "r",
            Schema::new(vec![
                Column::new("b", DataType::Int),
                Column::new("payload", DataType::Int),
            ]),
        )
        .unwrap();
    for i in 0..40i64 {
        l.heap
            .insert(&Tuple::new(vec![
                Value::Int(i % 10),
                Value::Str(format!("L{i}")),
            ]))
            .unwrap();
        r.heap
            .insert(&Tuple::new(vec![Value::Int(i % 10), Value::Int(i * 100)]))
            .unwrap();
    }
    cat.create_index("r_b", "r", "b", false, false).unwrap();
    analyze_table(&cat, "l", &AnalyzeConfig::default()).unwrap();
    analyze_table(&cat, "r", &AnalyzeConfig::default()).unwrap();
    let schema = l.schema.join(&r.schema);
    (cat, schema)
}

fn mk(op: PhysOp, schema: Schema, rows: f64, cost: Cost) -> PhysicalPlan {
    PhysicalPlan {
        op,
        schema,
        est_rows: rows,
        est_cost: cost,
        output_order: None,
    }
}

fn scan(cat: &Catalog, t: &str) -> PhysicalPlan {
    let schema = cat.table(t).unwrap().schema.clone();
    mk(
        PhysOp::SeqScan {
            table: t.into(),
            cols: None,
            filter: None,
        },
        schema,
        40.0,
        Cost::new(1.0, 40.0),
    )
}

fn sorted(cat: &Catalog, t: &str) -> PhysicalPlan {
    let s = scan(cat, t);
    let schema = s.schema.clone();
    mk(
        PhysOp::Sort {
            input: Box::new(s),
            keys: vec![(0, true)],
        },
        schema,
        40.0,
        Cost::new(1.0, 120.0),
    )
}

/// All five join families, built as valid plans, must verify clean with
/// the catalog attached.
#[test]
fn forced_join_families_verify_clean() {
    let (cat, schema) = join_world();
    let pred = Some(Expr::eq(col(0), col(2)));
    let join_cost = Cost::new(4.0, 2_000.0);
    let families: Vec<(&str, PhysicalPlan)> = vec![
        (
            "NestedLoopJoin",
            mk(
                PhysOp::NestedLoopJoin {
                    left: Box::new(scan(&cat, "l")),
                    right: Box::new(scan(&cat, "r")),
                    predicate: pred.clone(),
                },
                schema.clone(),
                160.0,
                join_cost,
            ),
        ),
        (
            "BlockNestedLoopJoin",
            mk(
                PhysOp::BlockNestedLoopJoin {
                    left: Box::new(scan(&cat, "l")),
                    right: Box::new(scan(&cat, "r")),
                    predicate: pred,
                    block_pages: 4,
                },
                schema.clone(),
                160.0,
                join_cost,
            ),
        ),
        (
            "IndexNestedLoopJoin",
            mk(
                PhysOp::IndexNestedLoopJoin {
                    outer: Box::new(scan(&cat, "l")),
                    inner_table: "r".into(),
                    index: "r_b".into(),
                    outer_key: 0,
                    residual: None,
                },
                schema.clone(),
                160.0,
                join_cost,
            ),
        ),
        (
            "SortMergeJoin",
            mk(
                PhysOp::SortMergeJoin {
                    left: Box::new(sorted(&cat, "l")),
                    right: Box::new(sorted(&cat, "r")),
                    left_key: 0,
                    right_key: 0,
                    residual: None,
                },
                schema.clone(),
                160.0,
                join_cost,
            ),
        ),
        (
            "HashJoin",
            mk(
                PhysOp::HashJoin {
                    left: Box::new(scan(&cat, "l")),
                    right: Box::new(scan(&cat, "r")),
                    left_key: 0,
                    right_key: 0,
                    residual: None,
                },
                schema,
                160.0,
                join_cost,
            ),
        ),
    ];
    for (name, plan) in families {
        let report = verify_physical(&plan, Some(&cat), VerifyPhase::PostPhysical);
        assert!(report.ok(), "{name}: {:?}", report.issues);
    }
}
