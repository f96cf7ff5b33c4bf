//! Multi-session throughput: reads overlap their I/O stalls, writes
//! serialize on the commit lock.
//!
//! A read runs on a pinned catalog version with no shared lock held across
//! execution, the simulated disk sleeps its latency outside its page lock,
//! and the buffer pool reads a miss outside the pool lock, so `n` sessions
//! blocked on misses wait at once. Each session scans its own table
//! (disjoint pages) through a pool far smaller than any table, so every
//! statement is dominated by misses and the scaling shown is I/O overlap,
//! not CPU parallelism. The statements in mixed mode that update hold the
//! commit lock end to end.
//!
//! This is the one timed test of the suite, in its own binary so that no
//! other test's threads share the machine with it (EXPERIMENTS.md S22).

use std::sync::Arc;
use std::time::Instant;

use evopt::workload::load_wisconsin;
use evopt::{Database, DatabaseConfig, DiskBackend, DiskManager};

const ROWS: usize = 1_500;
const STATEMENTS_PER_SESSION: usize = 12;
const IO_LATENCY_MICROS: u64 = 400;

/// A full scan of the session's own table counting a 100-key range; in
/// mixed mode every fourth statement updates one row.
fn statement(mixed: bool, table: &str, i: usize) -> String {
    if mixed && i % 4 == 3 {
        let point = (i * 97) % ROWS;
        format!("UPDATE {table} SET odd = 1 - odd WHERE unique1 = {point}")
    } else {
        let lo = (i * 131) % ROWS;
        format!(
            "SELECT COUNT(*) FROM {table} WHERE unique1 >= {lo} AND unique1 < {}",
            lo + 100
        )
    }
}

/// Statements per second of `sessions` sessions, each on its own thread
/// and table, from a cold pool.
fn throughput(db: &Arc<Database>, mixed: bool, sessions: usize) -> f64 {
    db.pool().evict_all().unwrap();
    let started = Instant::now();
    let threads: Vec<_> = (0..sessions)
        .map(|s| {
            let db = Arc::clone(db);
            std::thread::spawn(move || {
                let session = db.session();
                for i in 0..STATEMENTS_PER_SESSION {
                    session
                        .execute(&statement(mixed, &format!("c1_{s}"), i))
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    (sessions * STATEMENTS_PER_SESSION) as f64 / started.elapsed().as_secs_f64()
}

#[test]
fn read_only_throughput_scales_past_2x_at_4_sessions() {
    let disk = Arc::new(DiskManager::new());
    let backend: Arc<dyn DiskBackend> = Arc::<DiskManager>::clone(&disk);
    let config = DatabaseConfig {
        buffer_pages: 12,
        ..DatabaseConfig::default()
    };
    let db = Arc::new(Database::create_on(backend, config).unwrap());
    for s in 0..4 {
        load_wisconsin(&db, &format!("c1_{s}"), ROWS, 41 + s as u64).unwrap();
    }
    db.execute("ANALYZE").unwrap();
    // The latency goes on after loading: the load itself stays fast.
    disk.set_io_latency_micros(IO_LATENCY_MICROS);
    let speedup = |mixed| {
        let one = throughput(&db, mixed, 1);
        throughput(&db, mixed, 4) / one
    };
    let (read_only, mixed) = (speedup(false), speedup(true));
    println!("4 sessions over 1: read-only {read_only:.2}x, mixed {mixed:.2}x");
    assert!(
        read_only > 2.0,
        "read-only 4-session speedup {read_only:.2}x"
    );
    assert!(mixed > 1.0, "mixed 4-session speedup {mixed:.2}x");
}
