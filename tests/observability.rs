//! Integration tests for the observability layer: the optimizer search
//! trace (`EXPLAIN TRACE`), the engine metrics registry, the query log
//! (`SHOW QUERY LOG`), statement-phase spans, and the contention
//! histograms at the engine's wait points.
//!
//! The load-bearing property is that observation never perturbs the
//! observed: tracing a query must not change the chosen plan or its
//! result, spans must not change a digest or a row, and metrics must be
//! pure accounting.

use evopt::{Database, DatabaseConfig, Durability, Phase, QueryResult, Strategy, Tuple, Value};
use evopt_workload::tpch_lite::queries;
use evopt_workload::{load_tpch_lite, load_wisconsin};

/// Order-insensitive fingerprint of a result set.
fn normalized(rows: &[Tuple]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|t| format!("{t:?}")).collect();
    keys.sort();
    keys
}

/// Wisconsin + TPC-H-lite + an empty table: the batch-equivalence fixture.
fn fixture() -> Database {
    let db = Database::with_defaults();
    load_wisconsin(&db, "wisc", 2500, 11).unwrap();
    db.execute("CREATE UNIQUE INDEX wisc_u1 ON wisc (unique1)")
        .unwrap();
    db.execute("CREATE TABLE empty_t (x INT, y STRING)")
        .unwrap();
    load_tpch_lite(&db, 0.2, 23).unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

/// The batch-equivalence SQL battery: one query per operator family plus
/// the edge cases (kept in sync with `tests/batch_equivalence.rs`).
fn query_battery() -> Vec<&'static str> {
    vec![
        "SELECT unique1, stringu1 FROM wisc",
        "SELECT unique1 * 2, ten_pct FROM wisc WHERE one_pct < 7",
        "SELECT * FROM wisc WHERE odd = 1 AND ten_pct BETWEEN 2 AND 5",
        "SELECT * FROM wisc WHERE unique1 < 0",
        "SELECT * FROM empty_t WHERE x > 0",
        "SELECT COUNT(*), SUM(x) FROM empty_t",
        "SELECT y, COUNT(*) FROM empty_t GROUP BY y",
        "SELECT * FROM empty_t ORDER BY x",
        "SELECT stringu1 FROM wisc WHERE unique1 = 1234",
        "SELECT unique1 FROM wisc WHERE unique1 BETWEEN 100 AND 300",
        "SELECT unique1 FROM wisc WHERE unique1 < 500 AND odd = 0",
        "SELECT unique2 FROM wisc LIMIT 7",
        "SELECT unique1 FROM wisc ORDER BY unique1 LIMIT 1500",
        "SELECT unique2 FROM wisc LIMIT 0",
        "SELECT unique1, stringu1 FROM wisc ORDER BY unique1",
        "SELECT one_pct, unique2 FROM wisc ORDER BY one_pct, unique2",
        "SELECT COUNT(*), SUM(unique1), MIN(unique1), MAX(unique1), AVG(ten_pct) FROM wisc",
        "SELECT ten_pct, COUNT(*) AS n, SUM(unique2) FROM wisc GROUP BY ten_pct ORDER BY ten_pct",
        "SELECT DISTINCT twenty_pct FROM wisc ORDER BY twenty_pct",
        queries::REVENUE_PER_NATION,
        queries::CUSTOMER_ORDERS,
        queries::SHIPPED_BIG_ORDERS,
    ]
}

/// Five chained tables for join-order enumeration tests. No GROUP BY in
/// the test queries: an aggregate's order-hint probe enumerates the join
/// subtree twice, which would make counters and memo size incomparable.
fn five_way_fixture() -> Database {
    let db = Database::with_defaults();
    for (i, rows) in [40i64, 200, 1000, 25, 500].iter().enumerate() {
        let t = format!("t{i}");
        db.execute(&format!("CREATE TABLE {t} (k INT NOT NULL, v INT)"))
            .unwrap();
        let tuples: Vec<Tuple> = (0..*rows)
            .map(|r| Tuple::new(vec![Value::Int(r % 40), Value::Int(r)]))
            .collect();
        db.insert_tuples(&t, &tuples).unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db
}

const FIVE_WAY_SQL: &str = "SELECT t0.v FROM t0 \
     JOIN t1 ON t0.k = t1.k \
     JOIN t2 ON t1.k = t2.k \
     JOIN t3 ON t2.k = t3.k \
     JOIN t4 ON t3.k = t4.k";

// -- EXPLAIN TRACE ----------------------------------------------------------

#[test]
fn explain_trace_renders_search_journal() {
    let db = five_way_fixture();
    let text = match db
        .execute(&format!("EXPLAIN TRACE {FIVE_WAY_SQL}"))
        .unwrap()
    {
        QueryResult::Explained(text) => text,
        other => panic!("{other:?}"),
    };
    assert!(text.contains("== logical =="), "{text}");
    assert!(text.contains("== physical (system-r) =="), "{text}");
    assert!(text.contains("== trace (system-r) =="), "{text}");
    assert!(text.contains("plans considered: "), "{text}");
    assert!(text.contains("pruned: "), "{text}");
    assert!(text.contains("retained: "), "{text}");
    assert!(text.contains("memo entries: "), "{text}");
    assert!(text.contains("enumeration time: "), "{text}");
    assert!(text.contains("level 1: table="), "{text}");
    assert!(text.contains("level 5: table="), "{text}");
    assert!(text.contains("+ consider"), "{text}");
    assert!(text.contains("- prune"), "{text}");
}

#[test]
fn explain_trace_composes_with_analyze() {
    let db = five_way_fixture();
    for sql in [
        format!("EXPLAIN TRACE ANALYZE {FIVE_WAY_SQL}"),
        format!("EXPLAIN ANALYZE TRACE {FIVE_WAY_SQL}"),
    ] {
        let text = match db.execute(&sql).unwrap() {
            QueryResult::Explained(text) => text,
            other => panic!("{other:?}"),
        };
        assert!(text.contains("== trace (system-r) =="), "{text}");
        assert!(text.contains("== measured =="), "{text}");
        assert!(text.contains("plan digest: "), "{text}");
    }
}

#[test]
fn five_way_join_trace_counts_are_consistent() {
    // The acceptance criterion: on a 5-way join, considered/pruned must be
    // consistent with the DP table — every plan routed into the dominance
    // table either survives in the memo or was pruned exactly once.
    let db = five_way_fixture();
    let traced = db.query_traced(FIVE_WAY_SQL).unwrap();
    let t = &traced.trace;
    assert!(t.considered > 0);
    assert!(t.memo_entries > 0);
    assert_eq!(
        t.considered,
        t.pruned + t.memo_entries as u64,
        "considered {} != pruned {} + memo {}",
        t.considered,
        t.pruned,
        t.memo_entries
    );
    assert_eq!(t.retained(), t.memo_entries as u64);
    // System R DP fills one level per join size: 1..=5.
    let levels: Vec<u32> = t.levels.iter().map(|l| l.level).collect();
    assert_eq!(levels, vec![1, 2, 3, 4, 5], "{levels:?}");
}

#[test]
fn dp_considers_strictly_more_plans_than_greedy() {
    let db = five_way_fixture();
    db.set_strategy(Strategy::SystemR);
    let dp = db.query_traced(FIVE_WAY_SQL).unwrap();
    db.set_strategy(Strategy::Greedy);
    let greedy = db.query_traced(FIVE_WAY_SQL).unwrap();
    assert!(
        dp.trace.considered > greedy.trace.considered,
        "dp_sysr considered {}, greedy {}",
        dp.trace.considered,
        greedy.trace.considered
    );
    // Both strategies still agree on the answer.
    assert_eq!(normalized(&dp.rows), normalized(&greedy.rows));
}

// -- trace overhead: observation never perturbs -----------------------------

#[test]
fn tracing_never_changes_plan_or_result() {
    // The differential acceptance test: across the whole batch-equivalence
    // battery, EXPLAIN TRACE / query_traced picks the same plan (by
    // digest) and returns the same rows as the plain path.
    let db = fixture();
    for sql in query_battery() {
        let plain_rows = db.query(sql).unwrap();
        let (_, plain_plan) = db.plan_sql(sql).unwrap();
        let traced = db.query_traced(sql).unwrap();
        assert_eq!(
            plain_plan.digest_hex(),
            traced.plan.digest_hex(),
            "tracing changed the chosen plan for {sql}"
        );
        assert_eq!(
            normalized(&plain_rows),
            normalized(&traced.rows),
            "tracing changed the result of {sql}"
        );
        // Single-table queries enumerate no join orders; every join query
        // must have recorded search work.
        if sql.contains("JOIN") {
            assert!(traced.trace.considered > 0, "no search recorded for {sql}");
        }
        // The rendered journal never panics and always carries the header.
        assert!(traced.trace.render().contains("plans considered: "));
    }
}

// -- SHOW QUERY LOG ---------------------------------------------------------

#[test]
fn show_query_log_returns_recent_queries() {
    let db = fixture();
    let battery = [
        "SELECT COUNT(*) FROM wisc",
        "SELECT unique2 FROM wisc LIMIT 7",
    ];
    for sql in battery {
        db.query(sql).unwrap();
    }
    let (schema, rows) = match db.execute("SHOW QUERY LOG").unwrap() {
        QueryResult::Rows { schema, rows, .. } => (schema, rows),
        other => panic!("{other:?}"),
    };
    let col = |name: &str| schema.resolve(None, name).unwrap();
    // Newest first; ANALYZE/DDL/SHOW don't enter the log.
    assert!(rows.len() >= battery.len());
    assert_eq!(
        rows[0].value(col("sql")).unwrap(),
        &Value::Str(battery[1].into())
    );
    assert_eq!(
        rows[1].value(col("sql")).unwrap(),
        &Value::Str(battery[0].into())
    );
    for row in &rows {
        // q-error is well-defined (≥ 1) for every entry.
        match row.value(col("q_error")).unwrap() {
            Value::Float(q) => assert!(*q >= 1.0, "q-error {q} < 1"),
            other => panic!("{other:?}"),
        }
        match row.value(col("plan_digest")).unwrap() {
            Value::Str(d) => assert_eq!(d.len(), 16, "digest {d:?}"),
            other => panic!("{other:?}"),
        }
    }
    // COUNT(*) estimates one output row exactly: q-error 1, LIMIT 7 got 7.
    assert_eq!(rows[1].value(col("actual_rows")).unwrap(), &Value::Int(1));
    assert_eq!(rows[0].value(col("actual_rows")).unwrap(), &Value::Int(7));
}

#[test]
fn slow_query_flagging_respects_threshold() {
    let db = fixture();
    db.query("SELECT COUNT(*) FROM wisc").unwrap();
    let log = db.query_log().entries();
    assert!(!log[0].slow, "default 250ms threshold flagged a tiny query");
    assert_eq!(db.metrics_snapshot().slow_queries, 0);
    // Threshold 0: everything is slow, and the counter counts exactly the
    // entries the log flagged.
    let db = Database::new(DatabaseConfig {
        slow_query_us: 0,
        ..Default::default()
    });
    load_wisconsin(&db, "wisc", 200, 11).unwrap();
    for _ in 0..3 {
        db.query("SELECT COUNT(*) FROM wisc").unwrap();
    }
    let log = db.query_log().entries();
    assert_eq!(log.len(), 3);
    assert!(log.iter().all(|e| e.slow));
    assert_eq!(db.metrics_snapshot().slow_queries, 3);
}

#[test]
fn query_log_is_a_bounded_ring() {
    let db = Database::new(DatabaseConfig {
        query_log_cap: 4,
        ..Default::default()
    });
    db.execute("CREATE TABLE t (x INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    for i in 0..10 {
        db.query(&format!("SELECT x FROM t WHERE x > {i}")).unwrap();
    }
    let entries = db.query_log().entries();
    assert_eq!(entries.len(), 4);
    // Newest first: the last query issued leads.
    assert_eq!(entries[0].sql, "SELECT x FROM t WHERE x > 9");
    assert_eq!(entries[3].sql, "SELECT x FROM t WHERE x > 6");
}

// -- metrics registry -------------------------------------------------------

#[test]
fn metrics_snapshot_counts_engine_activity() {
    let db = fixture();
    let before = db.metrics_snapshot();
    let n = 5u64;
    for _ in 0..n {
        // A join: exercises the enumerator so plans_considered moves.
        db.query(queries::CUSTOMER_ORDERS).unwrap();
    }
    let snap = db.metrics_snapshot();
    assert_eq!(snap.queries - before.queries, n);
    assert_eq!(snap.optimize_calls - before.optimize_calls, n);
    assert!(snap.plans_considered > before.plans_considered);
    assert!(snap.exec_rows > before.exec_rows);
    assert!(snap.exec_batches > before.exec_batches);
    assert_eq!(
        snap.optimize_time_us.count - before.optimize_time_us.count,
        n
    );
    assert_eq!(snap.execute_time_us.count - before.execute_time_us.count, n);
    // Storage section is live pool/disk state: the fixture load alone did
    // plenty of traffic.
    assert!(snap.pool_hits + snap.pool_misses > 0);
    assert!(snap.hit_rate() > 0.0 && snap.hit_rate() <= 1.0);
}

#[test]
fn metrics_text_is_prometheus_shaped() {
    let db = fixture();
    db.query("SELECT COUNT(*) FROM wisc").unwrap();
    let text = db.metrics_text();
    for needle in [
        "# TYPE evopt_queries_total counter",
        "evopt_pool_hits_total ",
        "evopt_plans_considered_total ",
        "evopt_exec_rows_total ",
        "evopt_optimize_time_us_bucket{le=\"+Inf\"}",
        "evopt_execute_time_us_sum ",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

// -- statement spans --------------------------------------------------------

#[test]
fn select_spans_record_phases_within_total() {
    let db = fixture();
    db.query(queries::CUSTOMER_ORDERS).unwrap();
    let entry = &db.query_log().entries()[0];
    let span = entry
        .span
        .as_ref()
        .expect("every logged query carries its span");
    assert_eq!(span.session_id, 0, "default session attribution");
    // A SELECT runs parse → bind → optimize → execute (no commit).
    for phase in [Phase::Parse, Phase::Bind, Phase::Optimize, Phase::Execute] {
        assert!(
            span.phase_us(phase).is_some(),
            "missing {} in {:?}",
            phase.label(),
            span
        );
    }
    assert!(span.phase_us(Phase::Commit).is_none(), "{span:?}");
    // Disjoint sequential sub-intervals of one enclosing clock.
    assert!(
        span.phase_sum_us() <= span.total_us,
        "phase sum {} exceeds total {}",
        span.phase_sum_us(),
        span.total_us
    );
    // The optimize phase carries the search counters.
    let optimize = span
        .phases
        .iter()
        .find(|p| p.phase == Phase::Optimize)
        .unwrap();
    assert!(
        optimize.counters.iter().any(|(k, _)| *k == "considered"),
        "{optimize:?}"
    );
    // The execute phase carries the result cardinality.
    let execute = span
        .phases
        .iter()
        .find(|p| p.phase == Phase::Execute)
        .unwrap();
    assert!(
        execute.counters.iter().any(|(k, _)| *k == "rows"),
        "{execute:?}"
    );
}

#[test]
fn write_spans_record_commit_phase() {
    let db = Database::new(DatabaseConfig {
        durability: Durability::Wal,
        ..Default::default()
    });
    db.execute("CREATE TABLE t (x INT NOT NULL, y INT NOT NULL)")
        .unwrap();
    let rows: Vec<Tuple> = (0..20_000)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 100)]))
        .collect();
    db.insert_tuples("t", &rows).unwrap();

    // What finding the rows costs on its own: the equivalent SELECT's
    // execute phase (no index, so both scan the whole heap).
    let find = db.run("SELECT * FROM t WHERE y = 7", evopt::engine::Mode::Plain);
    let find_us = find.span.phase_us(Phase::Execute).unwrap();

    let before = db.metrics_snapshot();
    let out = db.run(
        "UPDATE t SET y = y + 1000 WHERE y = 7",
        evopt::engine::Mode::Plain,
    );
    assert_eq!(out.result.unwrap(), QueryResult::Affected(200));
    let span = out.span;
    // A write runs every phase a read does, then commits.
    for phase in [
        Phase::Parse,
        Phase::Bind,
        Phase::Optimize,
        Phase::Execute,
        Phase::Commit,
    ] {
        assert!(
            span.phase_us(phase).is_some(),
            "missing {} in {span:?}",
            phase.label()
        );
    }
    assert!(span.phase_sum_us() <= span.total_us, "{span:?}");
    // Finding (and rewriting) the rows is `execute`'s time; `commit` is
    // the lock wait, the WAL append and the sync — nothing else.
    let execute_us = span.phase_us(Phase::Execute).unwrap();
    let commit_us = span.phase_us(Phase::Commit).unwrap();
    assert!(
        execute_us >= find_us / 2,
        "execute {execute_us}µs does not cover the {find_us}µs scan: {span:?}"
    );
    let commit = span
        .phases
        .iter()
        .find(|p| p.phase == Phase::Commit)
        .unwrap();
    let counter = |name: &str| commit.counters.iter().find(|(k, _)| *k == name).unwrap().1;
    assert!(counter("wal_records") >= 2, "{commit:?}");
    assert!(counter("wal_bytes") > 4096, "{commit:?}");
    // The commit's own waits are the ones the histograms timed.
    let snap = db.metrics_snapshot();
    assert_eq!(
        snap.commit_lock_wait_us.count - before.commit_lock_wait_us.count,
        1,
        "one commit-lock acquisition per write statement"
    );
    assert!(
        snap.wal_sync_wait_us.count > before.wal_sync_wait_us.count,
        "the WAL sync wait was timed"
    );
    assert!(
        commit_us <= span.total_us - execute_us,
        "commit overlaps execute: {span:?}"
    );
}

#[test]
fn spans_are_strategy_neutral() {
    // Every enumeration strategy's statement carries a complete span on a
    // 5-way join, executes the plan a plan-only run chooses, and returns
    // the same rows.
    let db = five_way_fixture();
    let mut first: Option<Vec<String>> = None;
    for strategy in [
        Strategy::SystemR,
        Strategy::BushyDp,
        Strategy::DpCcp,
        Strategy::Greedy,
        Strategy::Goo,
        Strategy::QuickPick {
            samples: 16,
            seed: 1,
        },
        Strategy::Syntactic,
    ] {
        db.set_strategy(strategy);
        let (_, planned) = db.plan_sql(FIVE_WAY_SQL).unwrap();
        let rows = normalized(&db.query(FIVE_WAY_SQL).unwrap());
        let entry = &db.query_log().entries()[0];
        assert_eq!(entry.plan_digest, planned.digest_hex(), "{strategy:?}");
        let span = entry
            .span
            .as_ref()
            .expect("every logged query carries its span");
        for phase in [Phase::Parse, Phase::Bind, Phase::Optimize, Phase::Execute] {
            assert!(span.phase_us(phase).is_some(), "{strategy:?}: {span:?}");
        }
        assert!(
            span.phase_sum_us() <= span.total_us,
            "{strategy:?}: {span:?}"
        );
        assert_eq!(
            first.get_or_insert_with(|| rows.clone()),
            &rows,
            "{strategy:?}"
        );
    }
}

#[test]
fn show_query_log_attributes_sessions_and_phases() {
    let db = std::sync::Arc::new(fixture());
    let s1 = db.session();
    let s2 = db.session();
    s1.execute("SELECT COUNT(*) FROM wisc").unwrap();
    s2.execute("SELECT unique2 FROM wisc LIMIT 3").unwrap();
    let (schema, rows) = match db.execute("SHOW QUERY LOG").unwrap() {
        QueryResult::Rows { schema, rows, .. } => (schema, rows),
        other => panic!("{other:?}"),
    };
    let col = |name: &str| schema.resolve(None, name).unwrap();
    // Newest first: s2's query leads, attributed to its session id.
    assert_eq!(
        rows[0].value(col("session_id")).unwrap(),
        &Value::Int(s2.id() as i64)
    );
    assert_eq!(
        rows[1].value(col("session_id")).unwrap(),
        &Value::Int(s1.id() as i64)
    );
    assert_ne!(
        rows[0].value(col("session_id")).unwrap(),
        rows[1].value(col("session_id")).unwrap()
    );
    // The phases column carries the compact span rendering.
    match rows[0].value(col("phases")).unwrap() {
        Value::Str(s) => {
            assert!(s.contains("parse="), "{s:?}");
            assert!(s.contains("execute="), "{s:?}");
        }
        other => panic!("{other:?}"),
    }
}

// -- contention histograms --------------------------------------------------

#[test]
fn contention_histograms_are_monotone_under_concurrency() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let db = Arc::new(Database::new(DatabaseConfig {
        durability: Durability::Wal,
        ..Default::default()
    }));
    db.execute("CREATE TABLE c (k INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    let base_commits = db.metrics_snapshot().commit_lock_wait_us.count;
    let done = Arc::new(AtomicBool::new(false));
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let session = db.session();
                for i in 0..40 {
                    session
                        .execute(&format!("INSERT INTO c VALUES ({t}, {i})"))
                        .unwrap();
                }
            })
        })
        .collect();
    // Sample while the writers race: counts must only grow, and every
    // sample must be internally consistent (bucket sum == count).
    let sampler = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last_commit = 0u64;
            let mut last_sync = 0u64;
            while !done.load(Ordering::Relaxed) {
                let snap = db.metrics_snapshot();
                for h in [&snap.commit_lock_wait_us, &snap.wal_sync_wait_us] {
                    assert_eq!(
                        h.counts.iter().sum::<u64>(),
                        h.count,
                        "bucket sum diverged from count"
                    );
                }
                assert!(snap.commit_lock_wait_us.count >= last_commit);
                assert!(snap.wal_sync_wait_us.count >= last_sync);
                last_commit = snap.commit_lock_wait_us.count;
                last_sync = snap.wal_sync_wait_us.count;
                std::thread::yield_now();
            }
        })
    };
    for t in threads {
        t.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    sampler.join().unwrap();
    let snap = db.metrics_snapshot();
    // 160 write statements → at least 160 commit-lock acquisitions
    // (checkpoints, if any fired, take the lock too).
    assert!(snap.commit_lock_wait_us.count - base_commits >= 160);
    assert!(snap.wal_sync_wait_us.count > 0);
    // Coalesced syncs + real syncs are consistent: every sync_through
    // call was timed, coalesced or not.
    assert!(snap.wal_sync_wait_us.count >= snap.wal_coalesced_syncs);
}

#[test]
fn pool_histograms_record_miss_io() {
    // A pool far smaller than the table forces misses: every miss times
    // its read+verify I/O.
    let db = Database::new(DatabaseConfig {
        buffer_pages: 8,
        ..Default::default()
    });
    load_wisconsin(&db, "wisc", 2_000, 3).unwrap();
    db.query("SELECT COUNT(*) FROM wisc").unwrap();
    let snap = db.metrics_snapshot();
    assert!(snap.pool_misses > 0, "tiny pool must miss");
    assert!(
        snap.pool_miss_io_us.count > 0,
        "misses happened but no miss I/O was timed"
    );
    // Every timed I/O corresponds to a physical read the pool did itself
    // (single-flight waiters don't read), so the histogram never
    // overcounts the miss counter.
    assert!(
        snap.pool_miss_io_us.count <= snap.pool_misses,
        "miss I/O histogram count {} above miss counter {}",
        snap.pool_miss_io_us.count,
        snap.pool_misses
    );
}

#[test]
fn snapshot_acquisition_is_timed() {
    let db = fixture();
    let before = db.metrics_snapshot().snapshot_acquire_us.count;
    db.query("SELECT COUNT(*) FROM wisc").unwrap();
    assert!(db.metrics_snapshot().snapshot_acquire_us.count > before);
}

#[test]
fn prometheus_covers_every_new_family() {
    let db = Database::new(DatabaseConfig {
        durability: Durability::Wal,
        ..Default::default()
    });
    db.execute("CREATE TABLE t (x INT NOT NULL)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.query("SELECT x FROM t").unwrap();
    let text = db.metrics_text();
    for needle in [
        "# TYPE evopt_statements_total counter",
        "# TYPE evopt_statement_errors_total counter",
        "# TYPE evopt_wal_coalesced_syncs_total counter",
        "# TYPE evopt_commit_lock_wait_us histogram",
        "# TYPE evopt_wal_sync_wait_us histogram",
        "# TYPE evopt_pool_miss_io_us histogram",
        "# TYPE evopt_pool_load_wait_us histogram",
        "# TYPE evopt_snapshot_acquire_us histogram",
        "evopt_commit_lock_wait_us_bucket{le=\"+Inf\"}",
        "evopt_wal_sync_wait_us_sum ",
        "evopt_pool_miss_io_us_count ",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // The write above acquired the commit lock once.
    assert!(db.metrics_snapshot().commit_lock_wait_us.count >= 1);
}

#[test]
fn session_scrape_labels_per_session_series() {
    let db = std::sync::Arc::new(fixture());
    let session = db.session();
    session.execute("SELECT COUNT(*) FROM wisc").unwrap();
    let text = session.metrics_text();
    let label = format!("session=\"{}\"", session.id());
    // Instance-wide families render bare; the session's own render labeled.
    assert!(text.contains("evopt_queries_total "), "{text}");
    assert!(
        text.contains(&format!("evopt_queries_total{{{label}}} 1")),
        "missing labeled session series in:\n{text}"
    );
    assert!(
        text.contains(&format!("evopt_statements_total{{{label}}} 1")),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "evopt_execute_time_us_bucket{{le=\"+Inf\",{label}}}"
        )),
        "{text}"
    );
}

#[test]
fn session_registry_renders_storage_families_at_zero() {
    // A session registry records no pool, WAL or fault-injector activity,
    // yet its text still carries those families: counters at zero, and
    // histograms empty over the contention buckets, line for line what the
    // (recorded, here still empty) commit-lock histogram renders.
    let db = std::sync::Arc::new(Database::with_defaults());
    let text = db.session().metrics_snapshot().to_prometheus();
    for counter in [
        "faults_injected",
        "silent_corruptions",
        "wal_records_written",
        "wal_bytes",
        "checkpoints",
        "recoveries",
        "recovery_replayed_records",
        "wal_coalesced_syncs",
    ] {
        let name = format!("evopt_{counter}_total");
        let want = format!("# TYPE {name} counter\n{name} 0\n");
        assert!(text.contains(&want), "missing {want:?} in:\n{text}");
    }
    let block = |name: &str| -> String {
        let lines = text.lines().filter(|l| {
            l.starts_with(&format!("{name}_")) || *l == format!("# TYPE {name} histogram")
        });
        lines
            .map(|l| l.replacen(name, "H", 1))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let empty = block("evopt_commit_lock_wait_us");
    assert!(
        empty.contains("H_bucket{le=\"+Inf\"} 0\nH_sum 0\nH_count 0"),
        "{empty}"
    );
    for hist in ["wal_sync_wait_us", "pool_miss_io_us", "pool_load_wait_us"] {
        assert_eq!(block(&format!("evopt_{hist}")), empty, "{hist}");
    }
}

#[test]
fn statement_counters_track_errors() {
    let db = fixture();
    let before = db.metrics_snapshot();
    db.query("SELECT COUNT(*) FROM wisc").unwrap();
    assert!(db.execute("SELECT nope FROM missing_table").is_err());
    let snap = db.metrics_snapshot();
    assert_eq!(snap.statements - before.statements, 2);
    assert_eq!(snap.statement_errors - before.statement_errors, 1);
}

#[test]
fn governor_kills_are_counted() {
    use evopt::{CancellationToken, GovernorConfig};
    let db = fixture();
    let before = db.metrics_snapshot().governor_kills;
    let governor = GovernorConfig {
        max_rows: Some(5),
        ..Default::default()
    };
    let (rows, _) = db.query_governed(
        "SELECT unique1 FROM wisc",
        governor,
        CancellationToken::new(),
    );
    assert!(rows.is_err());
    assert_eq!(db.metrics_snapshot().governor_kills, before + 1);
}
