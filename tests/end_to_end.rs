//! Cross-crate integration tests: SQL text in, correct rows out, through
//! the full stack (parser → binder → rewrites → cost-based optimizer →
//! Volcano executor → paged storage).

mod support;

use std::ops::Bound;
use std::sync::Arc;

use evopt::storage::Rid;
use evopt::{Database, DatabaseConfig, DiskManager, Durability, Strategy, Tuple, Value};
use evopt_core::physical::PhysOp;
use evopt_workload::{load_tpch_lite, load_wisconsin};
use support::count_ops;

fn northwind() -> Database {
    let db = Database::with_defaults();
    db.execute(
        "CREATE TABLE products (id INT NOT NULL, category INT NOT NULL, \
         name STRING NOT NULL, price INT NOT NULL)",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE sales (id INT NOT NULL, product_id INT NOT NULL, \
         quantity INT NOT NULL)",
    )
    .unwrap();
    let products: Vec<Tuple> = (0..200)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Int(i % 8),
                Value::Str(format!("product-{i:03}")),
                Value::Int(100 + (i * 13) % 900),
            ])
        })
        .collect();
    db.insert_tuples("products", &products).unwrap();
    let sales: Vec<Tuple> = (0..5000)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Int((i * 7) % 200),
                Value::Int(1 + i % 9),
            ])
        })
        .collect();
    db.insert_tuples("sales", &sales).unwrap();
    db.execute("CREATE UNIQUE INDEX products_id ON products (id)")
        .unwrap();
    db.execute("CREATE INDEX sales_pid ON sales (product_id)")
        .unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

/// Brute-force reference: sum of quantity per category via plain scans.
fn reference_totals(db: &Database) -> Vec<(i64, i64)> {
    let products = db.query("SELECT id, category FROM products").unwrap();
    let sales = db.query("SELECT product_id, quantity FROM sales").unwrap();
    let mut cat_of = std::collections::HashMap::new();
    for p in &products {
        cat_of.insert(
            p.value(0).unwrap().as_i64().unwrap(),
            p.value(1).unwrap().as_i64().unwrap(),
        );
    }
    let mut totals: std::collections::BTreeMap<i64, i64> = Default::default();
    for s in &sales {
        let pid = s.value(0).unwrap().as_i64().unwrap();
        let q = s.value(1).unwrap().as_i64().unwrap();
        *totals.entry(cat_of[&pid]).or_default() += q;
    }
    totals.into_iter().collect()
}

#[test]
fn join_group_order_pipeline_matches_brute_force() {
    let db = northwind();
    let want = reference_totals(&db);
    let rows = db
        .query(
            "SELECT p.category, SUM(s.quantity) AS total \
             FROM sales s JOIN products p ON s.product_id = p.id \
             GROUP BY p.category ORDER BY p.category",
        )
        .unwrap();
    let got: Vec<(i64, i64)> = rows
        .iter()
        .map(|t| {
            (
                t.value(0).unwrap().as_i64().unwrap(),
                t.value(1).unwrap().as_i64().unwrap(),
            )
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn every_strategy_returns_identical_results() {
    let db = northwind();
    let sql = "SELECT p.name, s.quantity FROM sales s \
               JOIN products p ON s.product_id = p.id \
               WHERE p.price > 500 AND s.quantity >= 5 \
               ORDER BY p.name, s.quantity LIMIT 50";
    let reference = db.query(sql).unwrap();
    assert!(!reference.is_empty());
    for strategy in [
        Strategy::BushyDp,
        Strategy::Greedy,
        Strategy::Goo,
        Strategy::QuickPick {
            samples: 4,
            seed: 11,
        },
        Strategy::Syntactic,
    ] {
        db.set_strategy(strategy);
        assert_eq!(db.query(sql).unwrap(), reference, "{}", strategy.name());
    }
}

#[test]
fn predicates_toolbox_end_to_end() {
    let db = northwind();
    let count = |sql: &str| -> i64 {
        db.query(sql).unwrap()[0]
            .value(0)
            .unwrap()
            .as_i64()
            .unwrap()
    };
    assert_eq!(
        count("SELECT COUNT(*) FROM products WHERE name LIKE 'product-00%'"),
        10
    );
    assert_eq!(
        count("SELECT COUNT(*) FROM products WHERE id IN (1, 2, 3, 999)"),
        3
    );
    assert_eq!(
        count("SELECT COUNT(*) FROM products WHERE id BETWEEN 10 AND 19"),
        10
    );
    assert_eq!(
        count("SELECT COUNT(*) FROM products WHERE NOT (category = 0)"),
        200 - 25
    );
    assert_eq!(count("SELECT COUNT(*) FROM products WHERE name IS NULL"), 0);
    // Three-valued logic: NULL quantity would be filtered, none exist.
    assert_eq!(
        count("SELECT COUNT(*) FROM sales WHERE quantity > 0 OR quantity IS NULL"),
        5000
    );
}

#[test]
fn having_and_arithmetic_projection() {
    let db = northwind();
    let rows = db
        .query(
            "SELECT category, COUNT(*) AS n, MAX(price) - MIN(price) AS spread \
             FROM products GROUP BY category HAVING COUNT(*) > 20 \
             ORDER BY category",
        )
        .unwrap();
    assert_eq!(rows.len(), 8, "every category has 25 products");
    for r in &rows {
        assert_eq!(r.value(1).unwrap(), &Value::Int(25));
        assert!(r.value(2).unwrap().as_i64().unwrap() >= 0);
    }
}

/// A HAVING conjunct that names no column stays above a scalar aggregate:
/// it removes the aggregate's one row, where moved below it would only
/// empty the input and leave `COUNT(*) = 0`. Over groups, either place
/// gives no row.
#[test]
fn having_without_columns_filters_the_groups() {
    let db = Database::with_defaults();
    load_wisconsin(&db, "wa", 400, 3).unwrap();
    db.execute("ANALYZE").unwrap();
    for sql in [
        "SELECT COUNT(*) FROM wa HAVING 1 = 0",
        "SELECT ten_pct, COUNT(*) FROM wa GROUP BY ten_pct HAVING 1 = 0",
    ] {
        assert_eq!(db.query(sql).unwrap(), vec![], "{sql}");
    }
    let rows = db.query("SELECT COUNT(*) FROM wa HAVING 1 = 1").unwrap();
    assert_eq!(rows, vec![Tuple::new(vec![Value::Int(400)])]);
}

/// A WHERE conjunct that names no relation filters the whole join: the
/// join graph gives the folded `false` no relation, so it sits in no join's
/// or scan's predicate set, and the optimizer puts it on top of the join.
#[test]
fn a_constant_false_where_empties_a_join() {
    let db = Database::with_defaults();
    load_wisconsin(&db, "wisc", 1000, 5).unwrap();
    db.execute("ANALYZE").unwrap();
    let join = "FROM wisc a JOIN wisc b ON a.unique1 = b.unique2";
    for (select, no_rows) in [
        ("SELECT a.unique1", vec![]),
        ("SELECT COUNT(*)", vec![Tuple::new(vec![Value::Int(0)])]),
    ] {
        let sql = format!("{select} {join} WHERE 1 = 0");
        assert_eq!(db.query(&sql).unwrap(), no_rows, "{sql}");
        let (_, plan) = db.plan_sql(&sql).unwrap();
        assert_eq!(count_ops(&plan, "Filter"), 1, "{sql}\n{plan}");
        let sql = format!("{select} {join} WHERE 1 = 1");
        assert_ne!(db.query(&sql).unwrap(), no_rows, "{sql}");
    }
}

#[test]
fn small_buffer_pool_gives_same_answers() {
    // The whole stack must be correct under memory pressure: 6-frame pool
    // forces eviction everywhere (scans, sorts, joins, index probes).
    let db = Database::new(DatabaseConfig {
        buffer_pages: 6,
        ..Default::default()
    });
    db.execute("CREATE TABLE t (k INT NOT NULL, pad STRING NOT NULL)")
        .unwrap();
    let rows: Vec<Tuple> = (0..3000)
        .map(|i| {
            Tuple::new(vec![
                Value::Int((i * 31) % 500),
                Value::Str(format!("pad-{i:06}")),
            ])
        })
        .collect();
    db.insert_tuples("t", &rows).unwrap();
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    db.execute("ANALYZE").unwrap();
    let got = db
        .query("SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY n DESC, k LIMIT 5")
        .unwrap();
    assert_eq!(got.len(), 5);
    assert_eq!(got[0].value(1).unwrap(), &Value::Int(6));
    // Self-join under pressure.
    let n = db
        .query("SELECT COUNT(*) FROM t a JOIN t b ON a.k = b.k WHERE a.k = 7")
        .unwrap()[0]
        .value(0)
        .unwrap()
        .as_i64()
        .unwrap();
    assert_eq!(n, 36, "6 rows with k=7 joined with themselves");
}

#[test]
fn explain_analyze_full_stack() {
    let db = northwind();
    match db
        .execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM sales s \
             JOIN products p ON s.product_id = p.id",
        )
        .unwrap()
    {
        evopt::QueryResult::Explained(text) => {
            assert!(text.contains("== logical =="), "{text}");
            assert!(text.contains("== physical"), "{text}");
            assert!(text.contains("== measured =="), "{text}");
            assert!(text.contains("rows: 1"), "{text}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn dml_visibility_and_index_consistency() {
    let db = northwind();
    db.execute("INSERT INTO products VALUES (900, 1, 'late-addition', 123)")
        .unwrap();
    // Visible via index path...
    let rows = db
        .query("SELECT name FROM products WHERE id = 900")
        .unwrap();
    assert_eq!(
        rows[0].value(0).unwrap(),
        &Value::Str("late-addition".into())
    );
    // ...and via full scan.
    let n = db.query("SELECT COUNT(*) FROM products").unwrap()[0]
        .value(0)
        .unwrap()
        .as_i64()
        .unwrap();
    assert_eq!(n, 201);
}

/// A sequential scan does not flush the buffer pool. Indexed Wisconsin at
/// 40 000 rows is 770 heap pages behind a 256-page pool; a 20 % range over
/// it plans a `SeqScan`. The point lookup after it finds the B+-tree's
/// meta, root and internal pages still resident and reads at most its leaf
/// and heap page. Under plain LRU the scan evicted every frame, and the same
/// lookup read 5 pages.
#[test]
fn point_lookup_after_a_large_scan_finds_the_index_resident() {
    let db = Database::new(DatabaseConfig {
        buffer_pages: 256,
        ..Default::default()
    });
    load_wisconsin(&db, "wisc", 40_000, 1).unwrap();
    db.execute("CREATE UNIQUE INDEX wisc_u1 ON wisc (unique1)")
        .unwrap();
    db.execute("CREATE CLUSTERED INDEX wisc_u2 ON wisc (unique2)")
        .unwrap();
    db.execute("ANALYZE").unwrap();
    assert_eq!(
        db.query("SELECT * FROM wisc WHERE unique1 = 1234")
            .unwrap()
            .len(),
        1
    );
    let scan = "SELECT * FROM wisc WHERE unique1 >= 10000 AND unique1 < 18000";
    let (_, plan) = db.plan_sql(scan).unwrap();
    assert_eq!(count_ops(&plan, "SeqScan"), 1, "{plan}");
    assert_eq!(db.query(scan).unwrap().len(), 8_000);
    let (result, io) = db
        .measured("SELECT * FROM wisc WHERE unique1 = 31337")
        .unwrap();
    assert_eq!(result.rows().len(), 1);
    assert!(io.reads <= 3, "the lookup read {} pages", io.reads);
}

/// What keeps the executor at one predicate evaluator: no statement shape
/// the benchmark's five workloads issue plans a `Filter` — every WHERE
/// conjunct lands in a scan, an index range or residual, or a join
/// residual — and the one shape that does (`HAVING` on an aggregate value)
/// filters a handful of groups. If an optimizer change starts leaving
/// predicates above scans or joins, this fails, and typed predicate
/// evaluation is worth measuring again, end to end.
#[test]
fn no_benchmark_statement_shape_plans_a_filter() {
    let db = Database::with_defaults();
    load_wisconsin(&db, "wisc", 2000, 7).unwrap();
    db.execute("CREATE UNIQUE INDEX wisc_u1 ON wisc (unique1)")
        .unwrap();
    db.execute("CREATE CLUSTERED INDEX wisc_u2 ON wisc (unique2)")
        .unwrap();
    db.execute("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, s STRING NOT NULL)")
        .unwrap();
    let kv: Vec<Tuple> = (0..500)
        .map(|k| {
            Tuple::new(vec![
                Value::Int(k),
                Value::Int(k * 3),
                Value::Str(format!("s{k}")),
            ])
        })
        .collect();
    db.insert_tuples("kv", &kv).unwrap();
    db.execute("CREATE UNIQUE INDEX kv_k ON kv (k)").unwrap();
    // Creates its indexes and ends with a database-wide ANALYZE.
    load_tpch_lite(&db, 0.2, 7).unwrap();

    let shapes = [
        // point_inproc, point_wire, larger_than_pool: point, clustered
        // range, unclustered ranges of 0.1 %, 1 % and 20 %.
        "SELECT * FROM wisc WHERE unique1 = 1234",
        "SELECT * FROM wisc WHERE unique2 >= 300 AND unique2 < 400",
        "SELECT * FROM wisc WHERE unique1 >= 300 AND unique1 < 302",
        "SELECT * FROM wisc WHERE unique1 >= 300 AND unique1 < 320",
        "SELECT * FROM wisc WHERE unique1 >= 300 AND unique1 < 700",
        // analytic.
        "SELECT n.n_name, SUM(l.l_price) AS revenue FROM lineitem l \
         JOIN orders o ON l.l_order = o.o_key \
         JOIN customer c ON o.o_customer = c.c_key \
         JOIN nation n ON c.c_nation = n.n_key \
         JOIN region r ON n.n_region = r.r_key \
         GROUP BY n.n_name ORDER BY revenue DESC",
        "SELECT o.o_key, c.c_name FROM orders o \
         JOIN customer c ON o.o_customer = c.c_key \
         WHERE o.o_status = 'shipped' AND c.c_balance > 4500",
        "SELECT o.o_key, l.l_price FROM orders o \
         JOIN lineitem l ON l.l_order = o.o_key WHERE o.o_customer = 7",
        "SELECT ten_pct, COUNT(*), SUM(unique2) FROM wisc WHERE odd = 1 GROUP BY ten_pct",
        "SELECT a.unique1, b.unique1 FROM wisc a \
         JOIN wisc b ON a.unique1 = b.unique2 WHERE a.one_pct = 42",
        "SELECT * FROM wisc WHERE ten_pct = 3 ORDER BY stringu1 LIMIT 10",
        // write_mix: read, UPDATE and DELETE by key.
        "SELECT * FROM kv WHERE k = 77",
        "UPDATE kv SET v = v + 1 WHERE k = 77",
        "DELETE FROM kv WHERE k = 77",
    ];
    let having = "SELECT ten_pct, COUNT(*) FROM wisc GROUP BY ten_pct HAVING COUNT(*) > 10";
    for strategy in [
        Strategy::SystemR,
        Strategy::BushyDp,
        Strategy::DpCcp,
        Strategy::Greedy,
        Strategy::Goo,
        Strategy::QuickPick {
            samples: 4,
            seed: 11,
        },
        Strategy::Syntactic,
    ] {
        db.set_strategy(strategy);
        for sql in shapes {
            let (_, plan) = db.plan_sql(sql).unwrap();
            let filters = count_ops(&plan, "Filter");
            assert_eq!(filters, 0, "{}: {sql}\n{plan}", strategy.name());
        }
        let (_, plan) = db.plan_sql(having).unwrap();
        let above_aggregate = plan.pre_order().iter().any(|(_, node)| match &node.op {
            PhysOp::Filter { input, .. } => {
                matches!(input.op_name(), "HashAggregate" | "SortAggregate")
            }
            _ => false,
        });
        assert!(
            count_ops(&plan, "Filter") == 1 && above_aggregate,
            "{}: {having}\n{plan}",
            strategy.name()
        );
    }
}

/// `kv(k, v, s)` under `Durability::Wal`, `rows` rows in key order, with a
/// unique index on `k`.
fn durable_kv(rows: i64) -> Database {
    let cfg = DatabaseConfig {
        durability: Durability::Wal,
        ..Default::default()
    };
    let db = Database::create_on(Arc::new(DiskManager::new()), cfg).unwrap();
    db.execute("CREATE TABLE kv (k INT NOT NULL, v INT, s STRING)")
        .unwrap();
    let tuples: Vec<Tuple> = (0..rows)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::Str("s".into()),
            ])
        })
        .collect();
    db.insert_tuples("kv", &tuples).unwrap();
    db.execute("CREATE UNIQUE INDEX kv_k ON kv (k)").unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

/// `kv`'s heap rows as `(rid, k)`, in chain order.
fn heap_keys(db: &Database) -> Vec<(Rid, Value)> {
    let info = db.catalog().table("kv").unwrap();
    let rows = info.heap.scan().map(|r| r.unwrap());
    rows.map(|(rid, t)| (rid, t.value(0).unwrap().clone()))
        .collect()
}

fn rid_of(db: &Database, k: i64) -> Rid {
    let rows = heap_keys(db).into_iter();
    let mut hits = rows.filter(|(_, key)| *key == Value::Int(k));
    let (rid, _) = hits.next().expect("the row is in the heap");
    assert!(hits.next().is_none(), "key {k} is in the heap twice");
    rid
}

/// WAL records one statement logged.
fn records_logged(db: &Database, sql: &str) -> u64 {
    let before = db.wal().unwrap().stats().records_written;
    db.execute(sql).unwrap();
    db.wal().unwrap().stats().records_written - before
}

/// An UPDATE of a column no index covers rewrites the row in its slot: one
/// heap page record plus the commit record, no B+-tree page, same `Rid`.
/// Delete + reinsert also logged the tail page and the `kv_k` leaf.
#[test]
fn update_in_place_logs_one_page_image_and_keeps_the_rid() {
    let db = durable_kv(500);
    let pages = db.catalog().table("kv").unwrap().heap.page_count();
    let rid = rid_of(&db, 123);
    let records = records_logged(&db, "UPDATE kv SET v = v + 1 WHERE k = 123");
    assert_eq!(records, 2, "one page record and the commit");
    assert_eq!(rid_of(&db, 123), rid);
    let row = db.query("SELECT v, s FROM kv WHERE k = 123").unwrap();
    assert_eq!(
        row,
        vec![Tuple::new(vec![Value::Int(4), Value::Str("s".into())])]
    );
    assert_eq!(db.catalog().table("kv").unwrap().heap.page_count(), pages);
}

/// With a second index on `v`, an UPDATE of `k` keeps the row's `Rid` and
/// re-keys `kv_k` alone: one heap image, one `kv_k` leaf, the commit — no
/// `kv_v` page.
#[test]
fn update_in_place_of_an_indexed_key_repoints_only_that_index() {
    let db = durable_kv(50);
    db.execute("CREATE INDEX kv_v ON kv (v)").unwrap();
    let rid = rid_of(&db, 7);
    let records = records_logged(&db, "UPDATE kv SET k = k + 1000 WHERE k = 7");
    assert_eq!(records, 3, "heap page, kv_k leaf and the commit");
    assert_eq!(rid_of(&db, 1007), rid);
    let info = db.catalog().table("kv").unwrap();
    let index = |name: &str| info.indexes().iter().find(|i| i.name == name).unwrap();
    assert!(index("kv_k")
        .btree
        .search_eq(&Value::Int(7))
        .unwrap()
        .is_empty());
    assert_eq!(
        index("kv_k").btree.search_eq(&Value::Int(1007)).unwrap(),
        vec![rid]
    );
    assert!(index("kv_v")
        .btree
        .search_eq(&Value::Int(7))
        .unwrap()
        .contains(&rid));
}

/// A FLOAT column holds an `Int` its INSERT gave it. `SET x = 2.0` leaves
/// it equal under `Value`'s own comparison, but the index must still carry
/// the key the heap now holds, as a `Float`.
#[test]
fn update_in_place_rekeys_a_value_that_changes_type() {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE f (x FLOAT)").unwrap();
    db.insert_tuples("f", &[Tuple::new(vec![Value::Int(2)])])
        .unwrap();
    db.execute("CREATE INDEX f_x ON f (x)").unwrap();
    db.execute("UPDATE f SET x = 2.0").unwrap();
    let info = db.catalog().table("f").unwrap();
    let entries: Vec<Value> = info.indexes()[0]
        .btree
        .range(Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .map(|e| e.unwrap().0)
        .collect();
    assert_eq!(format!("{entries:?}"), "[Float(2.0)]");
}

/// Rows updated in place stay where the load put them, so a `CLUSTERED`
/// table's heap stays in key order: creating another clustered index, which
/// checks the heap is sorted, still succeeds. Delete + reinsert moved every
/// updated row to the tail.
#[test]
fn update_in_place_keeps_a_clustered_heap_in_key_order() {
    let db = durable_kv(2000);
    db.execute("CREATE CLUSTERED INDEX kv_ck ON kv (k)")
        .unwrap();
    db.execute("UPDATE kv SET v = v + 1 WHERE k < 1000")
        .unwrap();
    db.execute("UPDATE kv SET s = 'x' WHERE k = 1500").unwrap();
    let keys: Vec<Value> = heap_keys(&db).into_iter().map(|(_, k)| k).collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "heap left key order");
    assert_eq!(keys.len(), 2000);
    db.execute("CREATE CLUSTERED INDEX kv_ck2 ON kv (k)")
        .unwrap();
}
