//! DML through an index and DML through a scan leave identical tables.
//!
//! UPDATE and DELETE find their rows with whatever access path the
//! optimizer picks, so the same statement runs as an `IndexScan` on a
//! table with an index on the predicate column and as a `SeqScan` on a
//! table without. Twin tables — `ix` (unique index on `k`, plain index on
//! `v`) and `sc` (no index) — take the same seeded statement stream; any
//! divergence in a row, an `Affected(n)` or an index entry is a bug in the
//! row-finding half of DML, in index maintenance, or in Halloween
//! protection.
//!
//! Seeded by `RECOVERY_SEED` (the CI recovery job's matrix), default 1.

use std::ops::Bound;
use std::sync::Arc;

use evopt::{
    Database, DatabaseConfig, DiskBackend, DiskManager, Durability, QueryResult, Tuple, Value,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const STATEMENTS: usize = 2000;
/// Keys moved by `SET k = k + SHIFT` stay unique: fresh keys never reach it.
const SHIFT: i64 = 1_000_000;

fn seed() -> u64 {
    std::env::var("RECOVERY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn dump(db: &Database, table: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .query(&format!("SELECT k, v, s FROM {table}"))
        .unwrap()
        .iter()
        .map(|t| format!("{t:?}"))
        .collect();
    rows.sort();
    rows
}

/// Every heap row is reachable through every index under its own key, and
/// no index entry points at a missing row or carries a stale key.
fn assert_indexes_consistent(db: &Database, table: &str, at: &str) {
    let info = db.catalog().table(table).unwrap();
    let heap: Vec<_> = info.heap.scan().map(|r| r.unwrap()).collect();
    for idx in info.indexes() {
        let entries: Vec<_> = idx
            .btree
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|e| e.unwrap())
            .collect();
        for (key, rid) in &entries {
            let row = info
                .heap
                .get(*rid)
                .unwrap()
                .unwrap_or_else(|| panic!("{at}: {} has a dangling entry {key:?}", idx.name));
            assert_eq!(row.value(idx.column).unwrap(), key, "{at}: {}", idx.name);
        }
        let keyed = heap
            .iter()
            .filter(|(_, row)| !row.value(idx.column).unwrap().is_null());
        for (rid, row) in keyed.clone() {
            let key = row.value(idx.column).unwrap();
            assert!(
                idx.btree.search_eq(key).unwrap().contains(rid),
                "{at}: row {row:?} is not reachable through {}",
                idx.name
            );
        }
        assert_eq!(
            entries.len(),
            keyed.count(),
            "{at}: {} entry count",
            idx.name
        );
    }
}

/// One statement of the stream, with `{t}` where the table name goes.
struct Gen {
    rng: StdRng,
    next_key: i64,
}

impl Gen {
    fn key(&mut self) -> i64 {
        // Mostly live keys (recently inserted ones more often), sometimes
        // a key that was never there.
        self.rng.random_range(-5..self.next_key + 5)
    }

    fn next(&mut self) -> String {
        let (a, b) = (self.key(), self.key());
        let (lo, hi) = (a.min(b), a.min(b) + self.rng.random_range(0..40i64));
        let tag = self.rng.random_range(0..7);
        match self.rng.random_range(0..100u32) {
            0..=34 => {
                let k = self.next_key;
                self.next_key += 1;
                format!("INSERT INTO {{t}} VALUES ({k}, {}, 'tag{tag}')", k % 11)
            }
            35..=39 => {
                let rows: Vec<String> = (0..self.rng.random_range(2..8))
                    .map(|_| {
                        let k = self.next_key;
                        self.next_key += 1;
                        format!("({k}, {}, 'tag{}')", k % 11, k % 7)
                    })
                    .collect();
                format!("INSERT INTO {{t}} VALUES {}", rows.join(", "))
            }
            40..=54 => format!("UPDATE {{t}} SET v = v + 1 WHERE k = {a}"),
            55..=62 => format!("UPDATE {{t}} SET v = v * 2 + 1 WHERE k BETWEEN {lo} AND {hi}"),
            63..=66 => format!("UPDATE {{t}} SET s = 'moved', v = {tag} WHERE s = 'tag{tag}'"),
            67..=69 => format!("UPDATE {{t}} SET k = k + {SHIFT} WHERE k >= {lo} AND k < {hi}"),
            70 => "UPDATE {t} SET v = v + 1".to_string(),
            71..=82 => format!("DELETE FROM {{t}} WHERE k = {a}"),
            83..=88 => format!("DELETE FROM {{t}} WHERE k > {lo} AND k <= {hi}"),
            89..=91 => format!("DELETE FROM {{t}} WHERE v = {tag} AND s = 'tag{tag}'"),
            92..=94 => "DELETE FROM {t} WHERE k = -1".to_string(),
            95 => format!("DELETE FROM {{t}} WHERE k >= {}", self.next_key - 30),
            _ => "ANALYZE {t}".to_string(),
        }
    }
}

fn run_stream(durability: Durability) {
    let disk: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
    let cfg = DatabaseConfig {
        durability,
        ..Default::default()
    };
    let db = Database::create_on(Arc::clone(&disk), cfg).unwrap();
    for t in ["ix", "sc"] {
        db.execute(&format!(
            "CREATE TABLE {t} (k INT NOT NULL, v INT, s STRING)"
        ))
        .unwrap();
    }
    db.execute("CREATE UNIQUE INDEX ix_k ON ix (k)").unwrap();
    db.execute("CREATE INDEX ix_v ON ix (v)").unwrap();
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(seed()),
        next_key: 0,
    };
    let (mut via_index, mut via_scan) = (0, 0);
    for n in 1..=STATEMENTS {
        let stmt = gen.next();
        let on = |t: &str| stmt.replace("{t}", t);
        if stmt.starts_with("UPDATE") || stmt.starts_with("DELETE") {
            let plan = db.explain(&on("ix")).unwrap();
            via_index += plan.contains("IndexScan") as usize;
            via_scan += plan.contains("SeqScan") as usize;
            assert!(db.explain(&on("sc")).unwrap().contains("SeqScan"), "{stmt}");
        }
        let (indexed, scanned) = (db.execute(&on("ix")), db.execute(&on("sc")));
        match (&indexed, &scanned) {
            (Ok(QueryResult::Affected(a)), Ok(QueryResult::Affected(b))) => {
                assert_eq!(a, b, "statement {n}: {stmt}")
            }
            (Ok(QueryResult::Ok), Ok(QueryResult::Ok)) => {}
            other => panic!("statement {n}: {stmt} -> {other:?}"),
        }
        if n % 100 == 0 {
            let at = format!("after statement {n} ({stmt}), seed {}", seed());
            assert_eq!(dump(&db, "ix"), dump(&db, "sc"), "{at}");
            assert_indexes_consistent(&db, "ix", &at);
        }
    }
    // The stream must have exercised both access paths on the indexed twin.
    assert!(via_index > 100 && via_scan > 20, "{via_index} / {via_scan}");
    if durability == Durability::Wal {
        let expect = dump(&db, "ix");
        drop(db);
        let (db, _) = Database::recover(disk, cfg).unwrap();
        assert_eq!(dump(&db, "ix"), expect);
        assert_eq!(dump(&db, "sc"), expect);
        assert_indexes_consistent(&db, "ix", "after recovery");
    }
}

#[test]
fn twin_tables_agree_in_memory() {
    run_stream(Durability::Off);
}

#[test]
fn twin_tables_agree_under_wal_and_across_recovery() {
    run_stream(Durability::Wal);
}

/// Sparse keys 0, 100, 200, …: `t(k)` with a unique index on `k`.
fn sparse(rows: i64) -> Database {
    let db = Database::with_defaults();
    db.execute("CREATE TABLE t (k INT NOT NULL, v INT)")
        .unwrap();
    let tuples: Vec<Tuple> = (0..rows)
        .map(|i| Tuple::new(vec![Value::Int(i * 100), Value::Int(0)]))
        .collect();
    db.insert_tuples("t", &tuples).unwrap();
    db.execute("CREATE UNIQUE INDEX t_k ON t (k)").unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

fn keys(db: &Database) -> Vec<i64> {
    let mut keys: Vec<i64> = db
        .query("SELECT k FROM t")
        .unwrap()
        .iter()
        .map(|t| t.value(0).unwrap().as_i64().unwrap())
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn update_of_the_scanned_key_visits_each_row_once() {
    // The Halloween case: the UPDATE moves every matching row *forward
    // inside the range its own index scan is walking*. Find-all-then-apply
    // means each row moves exactly once; a scan that met its own output
    // would move rows again (or forever).
    let db = sparse(5000);
    let update = "UPDATE t SET k = k + 1, v = v + 1 WHERE k >= 1000 AND k < 4000";
    let plan = db.explain(update).unwrap();
    assert!(plan.contains("IndexScan: t via t_k"), "{plan}");
    assert_eq!(db.execute(update).unwrap(), QueryResult::Affected(30));
    let expect: Vec<i64> = (0..5000)
        .map(|i| i * 100)
        .map(|k| if (1000..4000).contains(&k) { k + 1 } else { k })
        .collect();
    assert_eq!(keys(&db), expect);
    let moved = db.query("SELECT k FROM t WHERE v = 1").unwrap();
    assert_eq!(moved.len(), 30, "each row was rewritten exactly once");
    assert_indexes_consistent(&db, "t", "after the in-range update");

    // Whole-table form: every key moves past every other, exactly once,
    // whichever access path the optimizer prefers for `k >= 0`.
    let db = sparse(2000);
    let moved = db.execute("UPDATE t SET k = k + 100000 WHERE k >= 0");
    assert_eq!(moved.unwrap(), QueryResult::Affected(2000));
    let expect: Vec<i64> = (0..2000).map(|i| i * 100 + 100_000).collect();
    assert_eq!(keys(&db), expect);
    assert_indexes_consistent(&db, "t", "after the whole-table update");
}

#[test]
fn explain_shows_dml_access_paths() {
    let db = sparse(5000);
    db.execute("CREATE TABLE u (k INT NOT NULL, v INT)")
        .unwrap();
    let tuples: Vec<Tuple> = (0..5000)
        .map(|i| Tuple::new(vec![Value::Int(i * 100), Value::Int(0)]))
        .collect();
    db.insert_tuples("u", &tuples).unwrap();
    db.execute("ANALYZE").unwrap();
    let indexed = db.explain("UPDATE t SET v = 1 WHERE k = 700").unwrap();
    assert!(indexed.contains("IndexScan"), "{indexed}");
    let unindexed = db.explain("UPDATE u SET v = 1 WHERE k = 700").unwrap();
    assert!(unindexed.contains("SeqScan"), "{unindexed}");
    assert!(!unindexed.contains("IndexScan"), "{unindexed}");
    // The statement form agrees with the method, and neither executes.
    match db.execute("EXPLAIN DELETE FROM t WHERE k = 700").unwrap() {
        QueryResult::Explained(text) => assert!(text.contains("IndexScan"), "{text}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(db.query("SELECT v FROM t WHERE k = 700").unwrap().len(), 1);
    assert_eq!(keys(&db).len(), 5000);
}
