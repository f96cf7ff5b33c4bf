//! Concurrency torture suite for the multi-session engine.
//!
//! The contract under concurrency:
//!
//! * **Write serializability.** Write statements hold the engine commit
//!   lock end-to-end, so any interleaving of threads whose writes commute
//!   (here: disjoint key ranges) must produce exactly the state a serial
//!   execution produces — verified by digest against a serial twin.
//! * **Acknowledged means durable.** With WAL durability on, a statement
//!   that returned `Ok` is recovered after a crash, group commit
//!   notwithstanding.
//! * **Snapshot reads.** A SELECT pins the current catalog version at
//!   statement start: concurrent DDL and ANALYZE never change what a
//!   running statement sees, and a table dropped mid-flight never breaks
//!   an in-progress scan (heap pages are not reused).
//! * **Kills stay scoped.** Governor kills in one session never poison
//!   another session or the engine.
//!
//! Seeded via `EVOPT_SEED` (CI sweeps several) — every run is
//! deterministic per thread; only the thread interleaving varies.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use evopt::{
    CancellationToken, Database, DatabaseConfig, DiskBackend, DiskManager, Durability,
    GovernorConfig, Strategy,
};
use evopt_common::EvoptError;

fn seed() -> u64 {
    std::env::var("EVOPT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Deterministic per-thread operation stream (xorshift64*).
struct Rng(u64);

impl Rng {
    fn new(seed: u64, thread: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ (thread + 1).wrapping_mul(0xd1342543de82ef95))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The mixed workload one thread runs: statements against its own disjoint
/// key range `[base, base + SPAN)`, so writes across threads commute.
fn thread_ops(seed: u64, thread: u64, ops: usize) -> Vec<String> {
    const SPAN: u64 = 200;
    let base = thread * 1_000;
    let mut rng = Rng::new(seed, thread);
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        let k = base + rng.below(SPAN);
        match rng.below(10) {
            0..=4 => out.push(format!(
                "INSERT INTO conc VALUES ({k}, {})",
                rng.below(1000)
            )),
            5..=6 => out.push(format!(
                "UPDATE conc SET v = v + {} WHERE k = {k}",
                1 + rng.below(9)
            )),
            7 => out.push(format!("DELETE FROM conc WHERE k = {k}")),
            _ => out.push(format!(
                "SELECT COUNT(*) FROM conc WHERE k >= {base} AND k < {}",
                base + SPAN
            )),
        }
    }
    out
}

/// Order-insensitive digest of a table's full contents.
fn digest(db: &Database, table: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .query(&format!("SELECT k, v FROM {table}"))
        .unwrap()
        .iter()
        .map(|t| format!("{t:?}"))
        .collect();
    rows.sort();
    rows
}

fn durable_config() -> DatabaseConfig {
    DatabaseConfig {
        durability: Durability::Wal,
        ..Default::default()
    }
}

#[test]
fn mixed_workload_matches_serial_twin() {
    const THREADS: u64 = 4;
    const OPS: usize = 120;
    let s = seed();

    // Concurrent run: one session per thread, all ops racing.
    let db = Arc::new(Database::new(durable_config()));
    db.execute("CREATE TABLE conc (k INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let session = db.session();
                for sql in thread_ops(s, t, OPS) {
                    // Reads may race page-level writes; they must never
                    // error. Writes are serialized and must succeed.
                    session.execute(&sql).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let concurrent = digest(&db, "conc");

    // Serial twin: same per-thread statement sequences, one thread at a
    // time. Disjoint key ranges make cross-thread order irrelevant.
    let twin = Database::new(durable_config());
    twin.execute("CREATE TABLE conc (k INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    for t in 0..THREADS {
        for sql in thread_ops(s, t, OPS) {
            twin.execute(&sql).unwrap();
        }
    }
    assert_eq!(concurrent, digest(&twin, "conc"));

    // Group commit actually engaged: every write committed durably.
    let stats = db.wal().unwrap().stats();
    assert!(stats.records_written > 0);
}

#[test]
fn acknowledged_writes_survive_a_crash_during_concurrency() {
    const THREADS: u64 = 4;
    const ROWS_PER_THREAD: u64 = 60;
    let disk: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
    let cfg = durable_config();
    let db = Arc::new(Database::create_on(Arc::clone(&disk), cfg).unwrap());
    db.execute("CREATE TABLE acked (k INT NOT NULL, v INT NOT NULL)")
        .unwrap();

    // Each thread inserts its own keys, recording every acknowledged key.
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let session = db.session();
                let mut acked = Vec::new();
                for i in 0..ROWS_PER_THREAD {
                    let k = t * 10_000 + i;
                    if session
                        .execute(&format!("INSERT INTO acked VALUES ({k}, {t})"))
                        .is_ok()
                    {
                        acked.push(k);
                    }
                }
                acked
            })
        })
        .collect();
    let mut acked = Vec::new();
    for t in threads {
        acked.extend(t.join().unwrap());
    }

    // Crash: drop the database without flushing the pool.
    drop(db);
    let (db2, info) = Database::recover(disk, cfg).unwrap();
    assert!(info.replayed_records > 0);
    let recovered: std::collections::HashSet<i64> = db2
        .query("SELECT k FROM acked")
        .unwrap()
        .iter()
        .map(|r| r.value(0).unwrap().as_i64().unwrap())
        .collect();
    for k in &acked {
        assert!(
            recovered.contains(&(*k as i64)),
            "acknowledged key {k} lost by recovery"
        );
    }
}

#[test]
fn snapshot_reads_are_stable_under_concurrent_ddl_and_analyze() {
    let db = Arc::new(Database::with_defaults());
    db.execute("CREATE TABLE stable (k INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    for chunk in 0..10 {
        let values: Vec<String> = (0..100)
            .map(|i| format!("({}, {})", chunk * 100 + i, i % 7))
            .collect();
        db.execute(&format!("INSERT INTO stable VALUES {}", values.join(", ")))
            .unwrap();
    }
    db.execute("ANALYZE stable").unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // Churn thread: DDL on *other* tables plus repeated ANALYZE of the
    // table being read — catalog version churns constantly.
    let churn = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let session = db.session();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                session
                    .execute(&format!("CREATE TABLE churn_{i} (x INT)"))
                    .unwrap();
                session.execute("ANALYZE stable").unwrap();
                session.execute(&format!("DROP TABLE churn_{i}")).unwrap();
                i += 1;
            }
        })
    };
    // Reader threads: exact answers, every time, against the churn.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let session = db.session();
                let mut n = 0;
                while !stop.load(Ordering::Relaxed) && n < 60 {
                    let rows = session.query("SELECT COUNT(*) FROM stable").unwrap();
                    assert_eq!(rows[0].value(0).unwrap().as_i64().unwrap(), 1000);
                    let rows = session
                        .query("SELECT COUNT(*) FROM stable WHERE v = 3")
                        .unwrap();
                    assert!(rows[0].value(0).unwrap().as_i64().unwrap() > 0);
                    n += 1;
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
}

#[test]
fn table_dropped_mid_flight_does_not_break_running_scans() {
    let db = Arc::new(Database::with_defaults());
    db.execute("CREATE TABLE victim (k INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    for chunk in 0..20 {
        let values: Vec<String> = (0..100)
            .map(|i| format!("({}, {i})", chunk * 100 + i))
            .collect();
        db.execute(&format!("INSERT INTO victim VALUES {}", values.join(", ")))
            .unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let session = db.session();
            let mut successes = 0u32;
            while !stop.load(Ordering::Relaxed) {
                // Either the snapshot still names the table (full, correct
                // answer) or binding fails cleanly with unknown-table.
                match session.query("SELECT COUNT(*) FROM victim") {
                    Ok(rows) => {
                        assert_eq!(rows[0].value(0).unwrap().as_i64().unwrap(), 2000);
                        successes += 1;
                    }
                    Err(e) => assert!(
                        e.message().contains("victim"),
                        "unexpected failure mode: {e}"
                    ),
                }
            }
            successes
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(20));
    db.execute("DROP TABLE victim").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    let successes = reader.join().unwrap();
    assert!(successes > 0, "reader never observed the table");
}

#[test]
fn governor_kills_stay_scoped_to_their_session() {
    let db = Arc::new(Database::with_defaults());
    db.execute("CREATE TABLE big (k INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    for chunk in 0..20 {
        let values: Vec<String> = (0..250)
            .map(|i| format!("({}, {i})", chunk * 250 + i))
            .collect();
        db.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
            .unwrap();
    }
    db.execute("ANALYZE").unwrap();

    let threads: Vec<_> = (0..4)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let session = db.session();
                if t % 2 == 0 {
                    // Strangled session: a 1-row budget kills every scan.
                    let strangled = GovernorConfig {
                        max_rows: Some(1),
                        ..Default::default()
                    };
                    for _ in 0..20 {
                        let (rows, _) = session.query_governed(
                            "SELECT * FROM big",
                            strangled,
                            CancellationToken::new(),
                        );
                        match rows {
                            Err(EvoptError::ResourceExhausted(_)) => {}
                            other => panic!("expected a kill, got {other:?}"),
                        }
                    }
                } else {
                    // Healthy session: full answers throughout.
                    for _ in 0..20 {
                        let rows = session.query("SELECT COUNT(*) FROM big").unwrap();
                        assert_eq!(rows[0].value(0).unwrap().as_i64().unwrap(), 5000);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // The engine is healthy afterwards; kills were counted.
    assert_eq!(
        db.query("SELECT COUNT(*) FROM big").unwrap()[0]
            .value(0)
            .unwrap()
            .as_i64()
            .unwrap(),
        5000
    );
    assert!(db.metrics_snapshot().governor_kills >= 40);
}

#[test]
fn session_config_is_isolated() {
    let db = Arc::new(Database::with_defaults());
    db.execute("CREATE TABLE t (a INT NOT NULL, b INT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    let a = db.session();
    let b = db.session();
    a.set_strategy(Strategy::Greedy);
    a.set_track_orders(false);
    // b and the database defaults are untouched.
    assert_eq!(b.config().optimizer.strategy.name(), "system-r");
    assert_eq!(db.optimizer_config().strategy.name(), "system-r");
    assert_eq!(a.config().optimizer.strategy.name(), "greedy");
    assert!(b.config().optimizer.track_interesting_orders);
    assert!(!a.config().optimizer.track_interesting_orders);
    // Both sessions still answer correctly.
    assert_eq!(a.query("SELECT COUNT(*) FROM t").unwrap().len(), 1);
    assert_eq!(b.query("SELECT COUNT(*) FROM t").unwrap().len(), 1);
    // Per-session metrics saw exactly this session's queries.
    assert_eq!(a.metrics_snapshot().queries, 1);
    assert_eq!(b.metrics_snapshot().queries, 1);
}

#[test]
fn group_commit_coalesces_concurrent_syncs() {
    const THREADS: u64 = 8;
    let db = Arc::new(Database::new(durable_config()));
    db.execute("CREATE TABLE gc (k INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let session = db.session();
                for i in 0..40 {
                    session
                        .execute(&format!("INSERT INTO gc VALUES ({}, {i})", t * 1000 + i))
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(
        db.query("SELECT COUNT(*) FROM gc").unwrap()[0]
            .value(0)
            .unwrap()
            .as_i64()
            .unwrap(),
        (THREADS * 40) as i64
    );
    // Not asserted > 0 strictly (scheduling-dependent), but report it so a
    // regression to zero under load shows up in CI logs.
    let stats = db.wal().unwrap().stats();
    println!(
        "group commit: {} records, {} coalesced syncs",
        stats.records_written, stats.coalesced_syncs
    );
}
