//! Resource-governor integration tests: every kill path (timeout, row
//! budget, page budget, explicit cancel) lands as a typed error *with the
//! partial metrics the query accumulated before dying*. A query is
//! governed per call: `query_governed` on a `Database` or a `Session`, or
//! `run_collect_measured` on a plan.
//!
//! The spill tests at the end check that an operator's scratch pages die
//! with it — after a finished statement, a row-budget kill and a
//! cancellation mid-spill alike.

mod support;

use std::sync::Arc;
use std::time::{Duration, Instant};

use evopt::{CancellationToken, Database, DatabaseConfig, GovernorConfig};
use evopt_common::expr::{col, lit};
use evopt_common::{BinOp, Expr, Value};
use evopt_core::physical::{PhysOp, PhysicalPlan};
use evopt_exec::{run_collect, run_collect_measured, ExecEnv};
use evopt_storage::PAGE_SIZE;
use evopt_workload::load_wisconsin;
use support::{join_plans, plan, scan, sorted_scan, world};

/// A database sized so that real queries do real pool traffic.
fn wisc_db(rows: usize) -> Database {
    let db = Database::new(DatabaseConfig {
        buffer_pages: 32,
        ..Default::default()
    });
    load_wisconsin(&db, "wisc", rows, 7).unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

/// An expensive-by-construction query: an unindexed self-join forces a
/// nested-loop over rows² comparisons.
const EXPENSIVE: &str = "SELECT COUNT(*) FROM wisc a JOIN wisc b ON a.ten_pct = b.twenty_pct";

#[test]
fn timeout_kills_mid_flight_with_partial_metrics() {
    let db = wisc_db(3000);
    let config = GovernorConfig::unlimited().with_timeout(Duration::from_millis(5));
    let started = Instant::now();
    let (result, metrics) = db.query_governed(EXPENSIVE, config, CancellationToken::new());
    let wall = started.elapsed();

    let err = result.expect_err("5ms is not enough for a 3000x3000 nested loop");
    assert_eq!(err.kind(), "resource_exhausted");
    assert!(
        err.to_string().contains("timeout"),
        "kill reason should name the timeout: {err}"
    );
    // The governor checks before every operator next(), so the kill lands
    // promptly — allow generous slack for load, but nowhere near the
    // seconds the full join would take.
    assert!(
        wall < Duration::from_secs(10),
        "timeout kill took {wall:?}; governor is not checking per next()"
    );

    // Killed queries still report what they did.
    let metrics = metrics.expect("kill happens during execution, metrics exist");
    let root = metrics.root();
    assert!(
        root.next_calls > 0,
        "the root operator was pulled at least once before the kill"
    );
    assert!(
        metrics.pool_hits + metrics.pool_misses > 0,
        "a join over 3000 rows touches the pool before 5ms elapse"
    );
}

#[test]
fn row_budget_trips_exactly_past_the_limit() {
    let db = wisc_db(500);
    let config = GovernorConfig::unlimited()
        .with_max_rows(10)
        .with_max_batch_rows(8);
    let (result, metrics) = db.query_governed(
        "SELECT unique1 FROM wisc ORDER BY unique1",
        config,
        CancellationToken::new(),
    );

    let err = result.expect_err("500 rows > 10-row budget");
    assert_eq!(err.kind(), "resource_exhausted");
    assert!(
        err.to_string().contains("row budget"),
        "kill reason should name the row budget: {err}"
    );
    // The budget is charged per batch at the root drain, so the overshoot
    // past the limit is bounded by the governed batch-size cap.
    let metrics = metrics.expect("metrics survive a row-budget kill");
    assert!(
        metrics.root().actual_rows <= 10 + 8,
        "root emitted {} rows after a 10-row budget kill with 8-row batches",
        metrics.root().actual_rows
    );
}

#[test]
fn max_batch_rows_bounds_row_budget_overshoot() {
    // Sweep the batch cap: the kill must always land within one batch of
    // the row limit, and cap = 1 reproduces the old tuple-exact behaviour.
    let db = wisc_db(500);
    for cap in [1usize, 4, 64] {
        let config = GovernorConfig::unlimited()
            .with_max_rows(10)
            .with_max_batch_rows(cap);
        let (result, metrics) = db.query_governed(
            "SELECT unique1 FROM wisc ORDER BY unique1",
            config,
            CancellationToken::new(),
        );
        assert_eq!(result.unwrap_err().kind(), "resource_exhausted");
        let metrics = metrics.expect("metrics survive a row-budget kill");
        assert!(
            metrics.root().actual_rows <= 10 + cap as u64,
            "cap {cap}: root emitted {} rows past a 10-row budget",
            metrics.root().actual_rows
        );
        // Partial metrics are real: the root was actually pulled.
        assert!(metrics.root().next_calls > 0, "cap {cap}");
    }
}

#[test]
fn cancel_from_another_thread_kills_mid_drain() {
    let db = wisc_db(3000);
    let token = CancellationToken::new();
    let canceler = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        })
    };
    let (result, metrics) = db.query_governed(EXPENSIVE, GovernorConfig::unlimited(), token);
    canceler.join().unwrap();

    let err = result.expect_err("canceled long before the self-join finishes");
    assert_eq!(err.kind(), "canceled");
    // The killed query still reports the partial work it did: the governor
    // is checked once per batch, so the cancel landed within one batch of
    // some operator's progress.
    let metrics = metrics.expect("metrics survive a cancellation");
    assert!(
        metrics.root().next_calls > 0 || metrics.pool_hits + metrics.pool_misses > 0,
        "partial metrics should show work before the cancel"
    );
}

#[test]
fn page_budget_trips_on_pool_traffic() {
    let db = wisc_db(3000);
    // Make every page a physical fetch again.
    db.pool().evict_all().unwrap();
    let config = GovernorConfig::unlimited().with_max_pages(4);
    let (result, metrics) = db.query_governed(
        "SELECT COUNT(*) FROM wisc",
        config,
        CancellationToken::new(),
    );

    let err = result.expect_err("a 3000-row scan needs more than 4 pages");
    assert_eq!(err.kind(), "resource_exhausted");
    assert!(
        err.to_string().contains("page budget"),
        "kill reason should name the page budget: {err}"
    );
    let metrics = metrics.expect("metrics survive a page-budget kill");
    assert!(
        metrics.pool_hits + metrics.pool_misses > 4,
        "the kill fired because pool traffic exceeded the budget"
    );
}

#[test]
fn pre_canceled_token_kills_before_first_row() {
    let db = wisc_db(200);
    let token = CancellationToken::new();
    token.cancel();
    let (result, metrics) = db.query_governed(
        "SELECT COUNT(*) FROM wisc",
        GovernorConfig::unlimited(),
        token,
    );

    let err = result.expect_err("canceled before the first next()");
    assert_eq!(err.kind(), "canceled");
    // Cancellation is observed before the root produces anything.
    let metrics = metrics.expect("metrics exist even for an instant kill");
    assert_eq!(metrics.root().actual_rows, 0);
}

#[test]
fn unlimited_governor_changes_nothing() {
    let db = wisc_db(300);
    let sql = "SELECT one_pct, COUNT(*) AS n FROM wisc GROUP BY one_pct ORDER BY one_pct";
    let want = db.query(sql).unwrap();
    let (result, metrics) =
        db.query_governed(sql, GovernorConfig::unlimited(), CancellationToken::new());
    assert_eq!(result.unwrap(), want);
    let metrics = metrics.unwrap();
    assert_eq!(metrics.root().actual_rows, want_len(&want));
}

fn want_len(rows: &[evopt::Tuple]) -> u64 {
    rows.len() as u64
}

/// `l` (2 000 rows, ~11 pages) and `r` (1 000 rows, ~6 pages) on a
/// 64-frame pool, with operators told they may use 3 pages (12 KB): every
/// plan of [`spilling_plans`] spills, and the pool holds the data plus one
/// statement's spill.
fn spill_world() -> ExecEnv {
    let mut env = world(
        64,
        |i| Value::Int(i % 500),
        2000,
        |i| Value::Int(i % 700),
        1000,
    );
    env.buffer_pages = 3;
    env
}

/// A Grace hash join (`r` is the build side), an external sort of `l`
/// (four runs, merged two at a time) and a block-nested-loop join that
/// materialises `r`, its outer cut to 80 rows of `l` to keep it quick.
fn spilling_plans(env: &ExecEnv) -> Vec<(&'static str, PhysicalPlan)> {
    let grace = join_plans(env).pop().unwrap();
    assert_eq!(grace.0, "HashJoin");
    let l = scan(env, "l");
    let few = PhysOp::SeqScan {
        table: "l".into(),
        cols: None,
        filter: Some(Expr::binary(BinOp::Lt, col(0), lit(20i64))),
    };
    let schema = l.schema.join(&scan(env, "r").schema);
    let bnlj = PhysOp::BlockNestedLoopJoin {
        left: Box::new(plan(few, l.schema)),
        right: Box::new(scan(env, "r")),
        predicate: Some(Expr::eq(col(0), col(2))),
        block_pages: 4,
    };
    vec![
        grace,
        ("Sort", sorted_scan(env, "l")),
        ("BlockNestedLoopJoin", plan(bnlj, schema)),
    ]
}

/// Run `stmt` and check it left the pool and the disk as it found them: no
/// page evicted or written, and every page it allocated released.
fn leaves_nothing<T>(env: &ExecEnv, what: &str, stmt: impl FnOnce() -> T) -> T {
    let pool = env.catalog.pool();
    let (pool_before, io_before) = (pool.stats(), pool.disk().snapshot());
    let first_new = pool.disk().page_count();
    let out = stmt();
    assert_eq!(pool.stats().since(&pool_before).evictions, 0, "{what}");
    assert_eq!(pool.disk().snapshot().since(&io_before).writes, 0, "{what}");
    released_since(env, what, first_new);
    out
}

/// Pages from `first_new` on were allocated, and are all released again.
fn released_since(env: &ExecEnv, what: &str, first_new: u64) {
    let disk = env.catalog.pool().disk();
    assert!(disk.page_count() > first_new, "{what}: nothing spilled");
    let mut buf = [0u8; PAGE_SIZE];
    for id in first_new..disk.page_count() {
        assert!(
            disk.read_page(id, &mut buf).is_err(),
            "{what}: scratch page {id} outlived its statement"
        );
    }
}

#[test]
fn spills_are_freed_statement_after_statement() {
    let env = spill_world();
    for (name, plan) in spilling_plans(&env) {
        let want = run_collect(&plan, &env).unwrap().len();
        for i in 0..30 {
            let rows = leaves_nothing(&env, &format!("{name} #{i}"), || {
                run_collect(&plan, &env).unwrap()
            });
            assert_eq!(rows.len(), want, "{name} #{i}");
        }
    }
    // The sort and the Grace join count a spill each run; a block nested
    // loop's materialised inner is not one.
    assert_eq!(env.counts.spills.get(), 2 * 31);
}

#[test]
fn spills_are_freed_after_a_row_budget_kill() {
    let env = spill_world();
    let config = GovernorConfig::unlimited()
        .with_max_rows(10)
        .with_max_batch_rows(8);
    for (name, plan) in spilling_plans(&env) {
        let (result, _) = leaves_nothing(&env, name, || {
            run_collect_measured(&plan, &env, Some((config, CancellationToken::new())))
        });
        assert_eq!(result.unwrap_err().kind(), "resource_exhausted", "{name}");
    }
    // The pool is as clean for the next statements as before the kills.
    for (name, plan) in spilling_plans(&env) {
        leaves_nothing(&env, name, || run_collect(&plan, &env).unwrap());
    }
}

#[test]
fn spills_are_freed_after_a_cancel_mid_spill() {
    let env = spill_world();
    // Sorting l × r (2 M rows) spills within its first few hundred rows and
    // would run for seconds: cancel once it has written eight pages of runs.
    // How far it gets before the cancel lands depends on scheduling, so
    // this one statement may outgrow the pool; what it allocated must still
    // be released, and the statements after it must find a clean pool.
    let schema = scan(&env, "l").schema.join(&scan(&env, "r").schema);
    let cross = plan(
        PhysOp::NestedLoopJoin {
            left: Box::new(scan(&env, "l")),
            right: Box::new(scan(&env, "r")),
            predicate: None,
        },
        schema.clone(),
    );
    let sort = plan(
        PhysOp::Sort {
            input: Box::new(cross),
            keys: vec![(1, true)],
        },
        schema,
    );
    let token = CancellationToken::new();
    let disk = Arc::clone(env.catalog.pool().disk());
    let canceler = {
        let token = token.clone();
        let start = disk.page_count();
        std::thread::spawn(move || {
            while disk.page_count() < start + 8 {
                std::thread::yield_now();
            }
            token.cancel();
        })
    };
    let first_new = env.catalog.pool().disk().page_count();
    let (result, _) = run_collect_measured(&sort, &env, Some((GovernorConfig::unlimited(), token)));
    canceler.join().unwrap();
    assert_eq!(result.unwrap_err().kind(), "canceled");
    released_since(&env, "canceled sort", first_new);
    for (name, plan) in spilling_plans(&env) {
        leaves_nothing(&env, name, || run_collect(&plan, &env).unwrap());
    }
}
