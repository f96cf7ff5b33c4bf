//! **C1 — Multi-session throughput scaling.**
//!
//! The multi-session refactor's claim: read statements run on pinned
//! catalog versions with no shared lock held across execution, so
//! concurrent sessions overlap their I/O stalls; write statements hold the
//! commit lock end-to-end and serialize. This bench measures both.
//!
//! The machine running the reports has one core, so CPU parallelism is off
//! the table — the scaling on display is **I/O overlap**: the simulated
//! disk ([`DiskManager::set_io_latency_micros`]) sleeps outside its page
//! lock, and the buffer pool performs miss reads outside the pool lock, so
//! `n` sessions blocked on misses wait concurrently. Each session scans
//! its own table (disjoint pages) through a pool far smaller than any
//! table, making every query miss-dominated — the regime the refactor
//! targets. Expect read-only throughput to scale near-linearly and the
//! mixed workload to flatten against the commit lock.

use std::sync::Arc;
use std::time::Instant;

use evopt_engine::{Database, DatabaseConfig, DiskBackend, DiskManager};
use evopt_workload::load_wisconsin;

use crate::util::Table;

#[derive(Debug, Clone)]
pub struct Params {
    /// Rows per per-session table.
    pub rows: usize,
    /// Session counts to sweep (each session gets its own table).
    pub session_counts: Vec<usize>,
    /// Statements each session issues per timed run.
    pub statements_per_session: usize,
    /// Simulated per-page-I/O latency.
    pub io_latency_micros: u64,
    /// Buffer pool size — kept far below one table's page count.
    pub buffer_pages: usize,
    pub seed: u64,
}

impl Params {
    pub fn quick() -> Params {
        Params {
            rows: 1_500,
            session_counts: vec![1, 4],
            statements_per_session: 12,
            io_latency_micros: 400,
            buffer_pages: 12,
            seed: 41,
        }
    }

    pub fn full() -> Params {
        Params {
            rows: 4_000,
            session_counts: vec![1, 2, 4, 8],
            statements_per_session: 24,
            io_latency_micros: 400,
            buffer_pages: 16,
            seed: 41,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub mode: &'static str,
    pub sessions: usize,
    pub wall_ms: f64,
    pub statements_per_sec: f64,
    /// Throughput relative to the 1-session run of the same mode.
    pub speedup: f64,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub rows: Vec<Row>,
}

impl Report {
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "C1: multi-session throughput (per-session tables, miss-dominated scans)".to_string(),
            &["mode", "sessions", "wall ms", "stmt/s", "speedup"],
        );
        for r in &self.rows {
            t.row(vec![
                r.mode.to_string(),
                r.sessions.to_string(),
                format!("{:.0}", r.wall_ms),
                format!("{:.1}", r.statements_per_sec),
                format!("{:.2}x", r.speedup),
            ]);
        }
        t.render()
    }

    pub fn speedup(&self, mode: &str, sessions: usize) -> f64 {
        self.rows
            .iter()
            .find(|r| r.mode == mode && r.sessions == sessions)
            .map(|r| r.speedup)
            .unwrap_or(f64::NAN)
    }
}

/// One statement of the per-session workload. Reads are full scans of the
/// session's own table (no index exists, the pool is cold for every
/// query); writes are single-row updates, which also scan but run under
/// the commit lock.
fn statement(mode: &str, table: &str, i: usize, rows: usize) -> String {
    let point = (i * 97) % rows;
    if mode == "mixed" && i % 4 == 3 {
        format!("UPDATE {table} SET odd = 1 - odd WHERE unique1 = {point}")
    } else {
        let lo = (i * 131) % rows;
        format!(
            "SELECT COUNT(*) FROM {table} WHERE unique1 >= {lo} AND unique1 < {}",
            lo + 100
        )
    }
}

fn timed_run(db: &Arc<Database>, mode: &'static str, sessions: usize, p: &Params) -> f64 {
    let started = Instant::now();
    let threads: Vec<_> = (0..sessions)
        .map(|s| {
            let db = Arc::clone(db);
            let p = p.clone();
            std::thread::spawn(move || {
                let session = db.session();
                let table = format!("c1_{s}");
                for i in 0..p.statements_per_session {
                    session
                        .execute(&statement(mode, &table, i, p.rows))
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    started.elapsed().as_secs_f64() * 1e3
}

pub fn run(p: &Params) -> Report {
    let disk = Arc::new(DiskManager::new());
    let backend: Arc<dyn DiskBackend> = Arc::<DiskManager>::clone(&disk);
    let db = Arc::new(
        Database::create_on(
            backend,
            DatabaseConfig {
                buffer_pages: p.buffer_pages,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let max_sessions = p.session_counts.iter().copied().max().unwrap_or(1);
    for s in 0..max_sessions {
        load_wisconsin(&db, &format!("c1_{s}"), p.rows, p.seed + s as u64).unwrap();
    }
    db.execute("ANALYZE").unwrap();

    // Latency goes on only after loading — the load itself should be fast.
    disk.set_io_latency_micros(p.io_latency_micros);

    let mut rows = Vec::new();
    for mode in ["read-only", "mixed"] {
        let mut base_tput = None;
        for &n in &p.session_counts {
            // Cold pool per run so every run is miss-dominated.
            db.pool().evict_all().unwrap();
            let wall_ms = timed_run(&db, mode, n, p);
            let tput = (n * p.statements_per_session) as f64 / (wall_ms / 1e3);
            let base = *base_tput.get_or_insert(tput);
            rows.push(Row {
                mode,
                sessions: n,
                wall_ms,
                statements_per_sec: tput,
                speedup: tput / base,
            });
        }
    }
    disk.set_io_latency_micros(0);
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_throughput_scales_past_2x_at_4_sessions() {
        let report = run(&Params::quick());
        let s = report.speedup("read-only", 4);
        assert!(s > 2.0, "read-only 4-session speedup = {s:.2}x, want > 2x");
        // Mixed must still make forward progress concurrently.
        let m = report.speedup("mixed", 4);
        assert!(m > 1.0, "mixed 4-session speedup = {m:.2}x, want > 1x");
    }
}
