//! Ring-buffer query log with a slow-query threshold.
//!
//! The engine records one [`QueryLogEntry`] per executed SELECT; the ring
//! keeps the most recent `cap` entries. A query whose combined optimize +
//! execute wall time crosses the threshold is flagged `slow`. Surfaced by
//! the virtual statement `SHOW QUERY LOG` (newest first).

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::span::StatementSpan;

/// Default ring capacity.
pub const DEFAULT_QUERY_LOG_CAP: usize = 128;
/// Default slow-query threshold: 250ms.
pub const DEFAULT_SLOW_QUERY_US: u64 = 250_000;

/// Everything the log remembers about one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLogEntry {
    pub sql: String,
    /// Session that ran the query (0 = the implicit default session), so
    /// a multi-session server's slow-query log attributes each entry to
    /// one client.
    pub session_id: u64,
    /// Hex digest of the chosen physical plan's shape.
    pub plan_digest: String,
    /// Optimizer's root cardinality estimate.
    pub est_rows: f64,
    /// Rows the query actually returned.
    pub actual_rows: u64,
    pub optimize_us: u64,
    pub execute_us: u64,
    pub pages_read: u64,
    pub pages_written: u64,
    /// Set by [`QueryLog::record`] against the log's threshold.
    pub slow: bool,
    /// Phase breakdown, when span recording was on for the statement.
    pub span: Option<StatementSpan>,
}

impl QueryLogEntry {
    /// q-error of the root estimate: `max(est/actual, actual/est)`, both
    /// clamped to ≥1 so the result is always ≥1 and finite.
    pub fn q_error(&self) -> f64 {
        let est = self.est_rows.max(1.0);
        let actual = (self.actual_rows as f64).max(1.0);
        (est / actual).max(actual / est)
    }

    pub fn total_us(&self) -> u64 {
        self.optimize_us.saturating_add(self.execute_us)
    }
}

/// The bounded, thread-safe log.
#[derive(Debug)]
pub struct QueryLog {
    entries: Mutex<VecDeque<QueryLogEntry>>,
    cap: usize,
    /// Slow-query threshold, fixed at construction.
    slow_us: u64,
}

impl QueryLog {
    pub fn new(cap: usize, slow_us: u64) -> Self {
        QueryLog {
            entries: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            cap: cap.max(1),
            slow_us,
        }
    }

    /// Stamp `slow` and append, evicting the oldest entry at capacity.
    /// Returns the flag it stamped: the one definition of a slow query,
    /// which the engine's `slow_queries` counter counts.
    pub fn record(&self, mut entry: QueryLogEntry) -> bool {
        let slow = entry.total_us() >= self.slow_us;
        entry.slow = slow;
        let mut entries = self.entries.lock();
        if entries.len() == self.cap {
            entries.pop_front();
        }
        entries.push_back(entry);
        slow
    }

    /// All retained entries, newest first.
    pub fn entries(&self) -> Vec<QueryLogEntry> {
        self.entries.lock().iter().rev().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

impl Default for QueryLog {
    fn default() -> Self {
        QueryLog::new(DEFAULT_QUERY_LOG_CAP, DEFAULT_SLOW_QUERY_US)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(sql: &str, exec_us: u64) -> QueryLogEntry {
        QueryLogEntry {
            sql: sql.into(),
            session_id: 0,
            plan_digest: "deadbeef".into(),
            est_rows: 10.0,
            actual_rows: 40,
            optimize_us: 5,
            execute_us: exec_us,
            pages_read: 2,
            pages_written: 0,
            slow: false,
            span: None,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_orders_newest_first() {
        let log = QueryLog::new(2, 1_000_000);
        log.record(entry("q1", 1));
        log.record(entry("q2", 1));
        log.record(entry("q3", 1));
        let got = log.entries();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].sql, "q3");
        assert_eq!(got[1].sql, "q2");
    }

    #[test]
    fn slow_flag_follows_threshold() {
        let log = QueryLog::new(8, 100);
        assert!(!log.record(entry("fast", 10)));
        assert!(log.record(entry("slow", 200)));
        let got = log.entries();
        assert!(got[0].slow, "200µs over a 100µs threshold");
        assert!(!got[1].slow);
        // The threshold is inclusive: optimize 5µs + execute 95µs is slow.
        assert!(log.record(entry("at-threshold", 95)));
        assert!(log.entries()[0].slow);
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        let mut e = entry("q", 1);
        e.est_rows = 10.0;
        e.actual_rows = 40;
        assert_eq!(e.q_error(), 4.0);
        e.est_rows = 160.0;
        assert_eq!(e.q_error(), 4.0);
        e.est_rows = 0.0;
        e.actual_rows = 0;
        assert_eq!(e.q_error(), 1.0);
    }
}
