//! Regression tests for the observability layer: `EXPLAIN ANALYZE` output
//! shape, agreement between instrumented and plain execution, and q-error
//! behaviour on perfectly-ANALYZEd data.

use evopt::{Database, Tuple, Value};

/// Two joined tables, indexed and ANALYZEd — big enough that plans have a
/// few operators, small enough to stay fast.
fn fixture() -> Database {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE dept (id INT NOT NULL, name STRING NOT NULL)")
        .unwrap();
    db.execute(
        "CREATE TABLE emp (id INT NOT NULL, dept_id INT NOT NULL, \
         salary INT NOT NULL)",
    )
    .unwrap();
    let depts: Vec<Tuple> = (0..10)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::Str(format!("dept-{i}"))]))
        .collect();
    db.insert_tuples("dept", &depts).unwrap();
    let emps: Vec<Tuple> = (0..600)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::Int(1000 + (i * 37) % 4000),
            ])
        })
        .collect();
    db.insert_tuples("emp", &emps).unwrap();
    db.execute("CREATE UNIQUE INDEX emp_id ON emp (id)")
        .unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

#[test]
fn explain_analyze_output_shape() {
    let db = fixture();
    let text = db
        .explain_analyze(
            "SELECT d.name, COUNT(*) FROM emp e \
             JOIN dept d ON e.dept_id = d.id GROUP BY d.name",
        )
        .unwrap();
    // Plan sections first, then the measured annotation block.
    assert!(text.contains("== logical =="), "{text}");
    assert!(text.contains("== physical"), "{text}");
    assert!(text.contains("== measured =="), "{text}");
    // Every operator line carries the estimate-vs-actual annotation.
    for needle in [
        "est rows=",
        "actual rows=",
        "q-err=",
        "nexts=",
        "time=",
        "pool=",
        "disk r/w=",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Query-level totals.
    assert!(text.contains("== query totals =="), "{text}");
    assert!(text.contains("hit rate"), "{text}");
    assert!(text.contains("page reads"), "{text}");
    assert!(text.contains("page writes"), "{text}");
    assert!(text.contains("max q-error:"), "{text}");
    assert!(text.contains("rows: 10"), "{text}");
    // Plan identity and optimizer cost ride along with the measurements.
    assert!(text.contains("plan digest: "), "{text}");
    assert!(text.contains("optimize time: "), "{text}");
}

#[test]
fn explain_analyze_renders_phase_table() {
    let db = fixture();
    let text = db
        .explain_analyze("SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_id = d.id")
        .unwrap();
    assert!(text.contains("== phases =="), "{text}");
    for phase in ["parse", "bind", "optimize", "execute", "total"] {
        assert!(text.contains(phase), "missing phase {phase:?} in:\n{text}");
    }
    // The total line restates the phase sum: parse it back out and check
    // the invariant the span guarantees by construction.
    let total_line = text
        .lines()
        .find(|l| l.starts_with("total"))
        .expect("total line");
    let total_us: u64 = total_line
        .split_whitespace()
        .nth(1)
        .and_then(|w| w.parse().ok())
        .expect("total wall_us");
    let phase_sum: u64 = total_line
        .split("(phases ")
        .nth(1)
        .and_then(|w| {
            w.trim_end()
                .trim_end_matches(')')
                .trim_end_matches("µs")
                .parse()
                .ok()
        })
        .expect("phase sum");
    assert!(
        phase_sum <= total_us,
        "phase sum {phase_sum} exceeds total {total_us}:\n{text}"
    );
    // Execute-phase counters ride along.
    assert!(text.contains("rows="), "{text}");
}

/// `wall_us` of one phase out of a rendered `== phases ==` table.
fn phase_us(text: &str, phase: &str) -> u64 {
    let table = text.split("== phases ==").nth(1).expect("phase table");
    let line = table
        .lines()
        .find(|l| l.starts_with(phase))
        .unwrap_or_else(|| panic!("no {phase} phase in:\n{text}"));
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn explain_analyze_update_separates_execute_from_commit() {
    let db = fixture();
    // No index on salary: finding the rows is a scan of all of `emp`.
    let text = db
        .explain_analyze("UPDATE emp SET salary = salary + 1 WHERE salary < 1500")
        .unwrap();
    assert!(text.contains("SeqScan: emp"), "{text}");
    assert!(text.contains("== measured ==\nrows affected: "), "{text}");
    for phase in ["parse", "bind", "optimize", "execute", "commit", "total"] {
        phase_us(&text, phase);
    }
    // The scan and the rewrites are `execute`; with durability off,
    // `commit` is an uncontended lock acquisition and nothing else.
    assert!(
        phase_us(&text, "commit") <= phase_us(&text, "execute"),
        "{text}"
    );
    // It really ran: the same statement now finds the rows one higher.
    let again = db.explain_analyze("DELETE FROM emp WHERE id = 7").unwrap();
    assert!(again.contains("IndexScan: emp via emp_id"), "{again}");
    assert!(again.contains("rows affected: 1"), "{again}");
    assert!(db
        .query("SELECT * FROM emp WHERE id = 7")
        .unwrap()
        .is_empty());
}

#[test]
fn explain_analyze_digest_matches_plan_sql() {
    let db = fixture();
    let sql = "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_id = d.id";
    let (_, physical) = db.plan_sql(sql).unwrap();
    let text = db.explain_analyze(sql).unwrap();
    assert!(
        text.contains(&format!("plan digest: {}", physical.digest_hex())),
        "digest in EXPLAIN ANALYZE differs from plan_sql:\n{text}"
    );
}

#[test]
fn instrumented_rows_match_plain_query() {
    let db = fixture();
    // One query per plan shape: scan, filter, join, aggregate.
    let queries = [
        "SELECT * FROM emp",
        "SELECT * FROM emp WHERE salary > 3000",
        "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_id = d.id",
        "SELECT dept_id, COUNT(*), SUM(salary) FROM emp GROUP BY dept_id",
    ];
    for sql in queries {
        let plain = db.query(sql).unwrap();
        let (instrumented, metrics) = db.query_with_metrics(sql).unwrap();
        assert_eq!(plain, instrumented, "row mismatch for {sql}");
        // The root operator's actual_rows is the result cardinality.
        assert_eq!(
            metrics.root().actual_rows as usize,
            plain.len(),
            "root actual_rows mismatch for {sql}"
        );
        // One metric slot per plan node, and a fully drained root sees one
        // next_batch() per emitted batch plus a trailing None — far fewer
        // calls than rows once batches fill up.
        let (_, physical) = db.plan_sql(sql).unwrap();
        assert_eq!(metrics.operators.len(), physical.node_count(), "{sql}");
        let batches = metrics.root().actual_rows.div_ceil(1024);
        assert!(
            metrics.root().next_calls > batches
                && metrics.root().next_calls <= metrics.root().actual_rows + 1,
            "root next_calls {} outside [{}, {}] for {sql}",
            metrics.root().next_calls,
            batches + 1,
            metrics.root().actual_rows + 1
        );
    }
}

#[test]
fn query_result_carries_metrics() {
    let db = fixture();
    // The plain path attaches no metrics...
    let plain = db.execute("SELECT * FROM dept").unwrap();
    assert!(plain.metrics().is_none());
    // ...the analyzed path populates them.
    let analyzed = db.execute_analyzed("SELECT * FROM dept").unwrap();
    let metrics = analyzed.metrics().expect("analyzed result has metrics");
    assert_eq!(metrics.root().actual_rows, 10);
    assert!(metrics.elapsed.as_nanos() > 0);
    // Equality ignores metrics: same rows compare equal either way.
    assert_eq!(plain, analyzed);
}

#[test]
fn q_error_is_one_on_analyzed_uniform_table() {
    // A perfectly uniform, freshly ANALYZEd table: the optimizer's
    // cardinality estimates should be exact, so every operator's q-error
    // is 1.0.
    let db = Database::with_defaults();
    db.execute("CREATE TABLE u (k INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    let rows: Vec<Tuple> = (0..1000)
        .map(|i| Tuple::new(vec![Value::Int(i % 50), Value::Int(i)]))
        .collect();
    db.insert_tuples("u", &rows).unwrap();
    db.execute("ANALYZE").unwrap();
    // Full scan: estimate must equal the exact row count.
    let (got, metrics) = db.query_with_metrics("SELECT * FROM u").unwrap();
    assert_eq!(got.len(), 1000);
    assert_eq!(metrics.root().est_rows, 1000.0);
    assert_eq!(metrics.root().q_error(), 1.0);
    assert_eq!(metrics.max_q_error(), 1.0);
}

#[test]
fn pool_and_disk_totals_are_consistent() {
    let db = fixture();
    let (_, metrics) = db
        .query_with_metrics("SELECT * FROM emp WHERE salary > 2000")
        .unwrap();
    // The root's inclusive counters cannot exceed the query totals, and a
    // table this size must touch the pool at least once.
    assert!(metrics.pool_hits + metrics.pool_misses > 0);
    assert!(metrics.root().pool_hits <= metrics.pool_hits);
    assert!(metrics.root().pool_misses <= metrics.pool_misses);
    assert!(metrics.root().disk_reads <= metrics.disk_reads);
    assert!(metrics.hit_rate() >= 0.0 && metrics.hit_rate() <= 1.0);
}
