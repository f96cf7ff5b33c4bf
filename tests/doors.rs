//! The doors agree: every public entry point on `Database` and `Session`
//! is a call of the same statement pipeline, so the same SELECT returns the
//! same rows under the same plan through each of them, and each is
//! accounted the same way — a door that executes a statement counts one
//! statement, one query and one query-log entry; a door that only plans
//! (`plan_sql`, `explain`) or runs a caller's own plan (`run_plan`)
//! counts none.

use std::sync::Arc;

use evopt::engine::Mode;
use evopt::{CancellationToken, Database, GovernorConfig, MetricsSnapshot, QueryResult, Tuple};
use evopt_workload::load_wisconsin;

const BATTERY: [&str; 5] = [
    "SELECT stringu1 FROM wisc WHERE unique1 = 1234",
    "SELECT unique1 FROM wisc WHERE unique1 BETWEEN 100 AND 300",
    "SELECT ten_pct, COUNT(*) AS n FROM wisc GROUP BY ten_pct ORDER BY ten_pct",
    "SELECT a.unique1 FROM wisc a JOIN wisc b ON a.unique1 = b.unique2 WHERE a.one_pct = 3",
    "SELECT unique2 FROM wisc ORDER BY unique2 LIMIT 7",
];

fn fixture() -> Arc<Database> {
    let db = Database::with_defaults();
    load_wisconsin(&db, "wisc", 2500, 11).unwrap();
    db.execute("CREATE UNIQUE INDEX wisc_u1 ON wisc (unique1)")
        .unwrap();
    db.execute("ANALYZE").unwrap();
    Arc::new(db)
}

fn normalized(rows: &[Tuple]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|t| format!("{t:?}")).collect();
    keys.sort();
    keys
}

/// What a door showed of the statement: its rows and the digest of the plan
/// it ran, where the door exposes them.
type Seen = (Vec<Tuple>, Option<String>);

fn rows_of(result: QueryResult) -> Vec<Tuple> {
    match result {
        QueryResult::Rows { rows, .. } => rows,
        other => panic!("{other:?}"),
    }
}

/// `rows: N` and `plan digest: X` out of an `EXPLAIN ANALYZE` text.
fn explained(text: &str) -> (usize, String) {
    let field = |name: &str| {
        let line = text.lines().find(|l| l.starts_with(name));
        line.unwrap_or_else(|| panic!("no {name:?} in:\n{text}"))[name.len()..].to_string()
    };
    (field("rows: ").parse().unwrap(), field("plan digest: "))
}

#[test]
fn every_door_runs_the_same_pipeline() {
    let db = fixture();
    let session = db.session();
    let unlimited = GovernorConfig::unlimited;
    let token = CancellationToken::new;
    for sql in BATTERY {
        let (_, reference_plan) = db.plan_sql(sql).unwrap();
        let digest = reference_plan.digest_hex();
        let reference = normalized(&db.query(sql).unwrap());

        // Doors that execute the statement.
        type Door<'a> = (&'a str, Box<dyn Fn() -> Seen + 'a>);
        let executing: Vec<Door> = vec![
            (
                "Database::execute",
                Box::new(|| (rows_of(db.execute(sql).unwrap()), None)),
            ),
            (
                "Database::query",
                Box::new(|| (db.query(sql).unwrap(), None)),
            ),
            (
                "Database::query_with_metrics",
                Box::new(|| (db.query_with_metrics(sql).unwrap().0, None)),
            ),
            (
                "Database::query_governed",
                Box::new(|| {
                    let (rows, metrics) = db.query_governed(sql, unlimited(), token());
                    assert!(metrics.is_some());
                    (rows.unwrap(), None)
                }),
            ),
            (
                "Database::execute_analyzed",
                Box::new(|| {
                    let result = db.execute_analyzed(sql).unwrap();
                    assert!(result.metrics().is_some());
                    (rows_of(result), None)
                }),
            ),
            (
                "Database::query_traced",
                Box::new(|| {
                    let traced = db.query_traced(sql).unwrap();
                    (traced.rows, Some(traced.plan.digest_hex()))
                }),
            ),
            (
                "Database::run",
                Box::new(|| {
                    let out = db.run(sql, Mode::Plain);
                    let digest = out.plans.as_ref().map(|(_, p)| p.digest_hex());
                    (rows_of(out.into_result().unwrap()), digest)
                }),
            ),
            (
                "Session::execute",
                Box::new(|| (rows_of(session.execute(sql).unwrap()), None)),
            ),
            (
                "Session::query",
                Box::new(|| (session.query(sql).unwrap(), None)),
            ),
            (
                "Session::query_governed",
                Box::new(|| {
                    (
                        session.query_governed(sql, unlimited(), token()).0.unwrap(),
                        None,
                    )
                }),
            ),
            (
                "Session::run",
                Box::new(|| {
                    let out = session.run(sql, Mode::Instrumented);
                    assert!(out.metrics.is_some() && !out.span.phases.is_empty());
                    let digest = out.plans.as_ref().map(|(_, p)| p.digest_hex());
                    (rows_of(out.into_result().unwrap()), digest)
                }),
            ),
        ];
        for (door, call) in &executing {
            let before = db.metrics_snapshot();
            let mine = session.metrics_snapshot();
            let (rows, seen_digest) = call();
            let after = db.metrics_snapshot();
            assert_eq!(normalized(&rows), reference, "{door}: {sql}");
            assert_eq!(after.statements - before.statements, 1, "{door}: {sql}");
            assert_eq!(after.queries - before.queries, 1, "{door}: {sql}");
            assert_eq!(after.statement_errors, before.statement_errors, "{door}");
            // The newest log entry is this run: this SQL, this plan, and
            // the issuing session's id.
            let entry = &db.query_log().entries()[0];
            assert_eq!(entry.sql, sql, "{door}");
            assert_eq!(entry.plan_digest, digest, "{door}: {sql}");
            if let Some(seen) = seen_digest {
                assert_eq!(seen, digest, "{door}: {sql}");
            }
            let through_session = door.starts_with("Session");
            assert_eq!(entry.session_id != 0, through_session, "{door}");
            let mine_after = session.metrics_snapshot();
            let counted = u64::from(through_session);
            assert_eq!(mine_after.statements - mine.statements, counted, "{door}");
            assert_eq!(mine_after.queries - mine.queries, counted, "{door}");
            // The executor's work and the snapshot wait count where the
            // statement's other numbers do: in the instance's registry,
            // and in a session's own when it came through one.
            let moved = |a: &MetricsSnapshot, b: &MetricsSnapshot| {
                let waits = b.snapshot_acquire_us.count - a.snapshot_acquire_us.count;
                (
                    b.exec_rows - a.exec_rows,
                    b.exec_batches > a.exec_batches,
                    waits,
                )
            };
            let returned = rows.len() as u64;
            assert_eq!(moved(&before, &after), (returned, true, 1), "{door}: {sql}");
            let mine_moved = (returned * counted, through_session, counted);
            assert_eq!(moved(&mine, &mine_after), mine_moved, "{door}: {sql}");
        }

        // `EXPLAIN ANALYZE` executes too: one statement, one query, and the
        // same rows under the same plan — logged under the text it was
        // given.
        let before = db.metrics_snapshot();
        let (n, seen) = explained(&db.explain_analyze(sql).unwrap());
        let after = db.metrics_snapshot();
        assert_eq!((n, seen), (reference.len(), digest.clone()), "{sql}");
        assert_eq!(after.statements - before.statements, 1, "{sql}");
        assert_eq!(after.queries - before.queries, 1, "{sql}");
        let entry = &db.query_log().entries()[0];
        assert_eq!(entry.sql, format!("EXPLAIN ANALYZE {sql}"));

        // Doors that only plan, or run a plan the caller already has:
        // same plan, same rows, and no statement was issued.
        let before = db.metrics_snapshot();
        let log_head = db.query_log().entries()[0].clone();
        assert_eq!(db.plan_sql(sql).unwrap().1.digest_hex(), digest);
        let planned = db.run(sql, Mode::PlanOnly).plans.unwrap().1;
        assert_eq!(planned.digest_hex(), digest);
        let text = db.explain(sql).unwrap();
        assert!(text.contains(&reference_plan.display_indent()), "{text}");
        let ran = db.run_plan(&reference_plan).unwrap();
        assert_eq!(normalized(&ran), reference, "run_plan: {sql}");
        let (ran, metrics) = db.run_plan_instrumented(&reference_plan).unwrap();
        assert_eq!(normalized(&ran), reference, "run_plan_instrumented: {sql}");
        assert_eq!(metrics.operators.len(), reference_plan.node_count());
        let after = db.metrics_snapshot();
        assert_eq!(after.statements, before.statements, "{sql}");
        assert_eq!(after.queries, before.queries, "{sql}");
        assert_eq!(db.query_log().entries()[0], log_head, "{sql}");
    }
}

#[test]
fn a_sessions_spill_counts_in_its_own_registry() {
    // 6 000 wide rows sorted are more than the 64 pages operators get on
    // the default pool: the sort spills.
    let db = Arc::new(Database::with_defaults());
    load_wisconsin(&db, "wisc", 6000, 11).unwrap();
    let session = db.session();
    let sql = "SELECT * FROM wisc ORDER BY stringu1";
    let (before, mine) = (db.metrics_snapshot(), session.metrics_snapshot());
    session.query(sql).unwrap();
    let (after, mine_after) = (db.metrics_snapshot(), session.metrics_snapshot());
    assert_eq!(after.exec_spills - before.exec_spills, 1);
    assert_eq!(mine_after.exec_spills - mine.exec_spills, 1);
    // The same statement through the database is not the session's.
    db.query(sql).unwrap();
    assert_eq!(
        session.metrics_snapshot().exec_spills,
        mine_after.exec_spills
    );
    assert_eq!(db.metrics_snapshot().exec_spills - after.exec_spills, 1);
}

#[test]
fn row_returning_modes_refuse_other_statements() {
    let db = fixture();
    let before = db.query("SELECT COUNT(*) FROM wisc").unwrap();
    let delete = "DELETE FROM wisc WHERE unique1 < 3";
    // A governed/instrumented/traced DELETE would otherwise run ungoverned
    // and then fail to produce rows — after changing the table.
    assert!(db.query_with_metrics(delete).is_err());
    assert!(db.query_traced(delete).is_err());
    let (rows, _) = db.query_governed(
        delete,
        GovernorConfig::unlimited(),
        CancellationToken::new(),
    );
    assert!(rows.is_err());
    assert!(db.query_with_metrics(&format!("EXPLAIN {delete}")).is_err());
    assert_eq!(db.query("SELECT COUNT(*) FROM wisc").unwrap(), before);
    // Plan-only doors take DML: its row-finding half is a plan like any.
    let (_, physical) = db.plan_sql(delete).unwrap();
    assert_eq!(physical.op_name(), "IndexScan");
    assert!(db.plan_sql("CREATE TABLE t (x INT)").is_err());
    assert_eq!(db.query("SELECT COUNT(*) FROM wisc").unwrap(), before);
}
