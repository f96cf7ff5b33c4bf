//! Lock-light metrics registry: atomic counters, gauges and fixed-bucket
//! histograms, plus the [`EngineMetrics`] bundle the engine records into.
//!
//! Everything here is a relaxed atomic — no locks, no allocation on the
//! hot path — so the executor and buffer pool can record per-batch and
//! per-query without measurable overhead (EXPERIMENTS.md O2 pins the
//! budget at ≤5% on the execution sweep).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Upper bounds (µs) for latency histograms: 50µs … 1s, then +Inf.
pub const TIME_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// Upper bounds (µs) for *contention* histograms: lock and I/O waits are
/// usually well under 50µs (uncontended lock acquisition is tens of
/// nanoseconds), so these start at 1µs to resolve the uncontended mass
/// from the tail the commit lock and WAL sync produce under load.
pub const WAIT_BUCKETS_US: &[u64] = &[
    1, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    1_000_000,
];

/// A fixed-bucket histogram: one atomic per bucket plus the sum. The
/// observation count is the buckets' total, so a snapshot's `count` and
/// `counts` agree by construction however observers race it.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    /// `bounds.len() + 1` buckets; the last is the +Inf overflow.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    pub fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            count: counts.iter().sum(),
            counts,
            sum: self.sum.load(Relaxed),
        }
    }

    /// Run `f`, observing its wall time in µs. This is the timed-wrapper
    /// discipline for contention sites: the wait *is* the closure, so a
    /// call site cannot acquire without stamping.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.observe(start.elapsed().as_micros() as u64);
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(TIME_BUCKETS_US)
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the smallest bucket whose cumulative count reaches
    /// fraction `q` (0..=1) of all observations: the bucketed quantile
    /// estimate a fixed-bucket histogram can give. `None` when empty;
    /// `f64::INFINITY` when the quantile lands in the overflow bucket.
    pub fn quantile_bound(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Some(match self.bounds.get(i) {
                    Some(b) => *b as f64,
                    None => f64::INFINITY,
                });
            }
        }
        Some(f64::INFINITY)
    }

    /// Upper bound of the highest non-empty bucket (`f64::INFINITY` for
    /// the overflow bucket); `None` when the histogram is empty.
    pub fn max_bound(&self) -> Option<f64> {
        let last = self.counts.iter().rposition(|&c| c > 0)?;
        Some(match self.bounds.get(last) {
            Some(b) => *b as f64,
            None => f64::INFINITY,
        })
    }

    /// Prometheus rendering with an extra label set (e.g. `session="3"`)
    /// merged into every series; empty `labels` renders bare series.
    pub fn render_prometheus_labeled(&self, name: &str, labels: &str, out: &mut String) {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            let le = match self.bounds.get(i) {
                Some(b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            if labels.is_empty() {
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            } else {
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{le}\",{labels}}} {cumulative}\n"
                ));
            }
        }
        let suffix = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        out.push_str(&format!("{name}_sum{suffix} {}\n", self.sum));
        out.push_str(&format!("{name}_count{suffix} {}\n", self.count));
    }
}

/// The engine's registry: every counter the engine records, one field per
/// metric. `Database` holds one per instance, and every `Session` one more
/// with the same schema, counting only its own statements.
///
/// The `pool_*`/`disk_*` fields accumulate *query-path deltas* (pages
/// touched by statements the engine measured). A per-database
/// `metrics_snapshot()` overwrites those with live buffer-pool totals —
/// authoritative, and inclusive of DDL/ANALYZE traffic — while a session's
/// snapshot reports the deltas of its own statements.
#[derive(Debug)]
pub struct EngineMetrics {
    // -- storage (query-path deltas; see type docs) -------------------------
    pub pool_hits: Counter,
    pub pool_misses: Counter,
    pub pool_evictions: Counter,
    pub pool_retries: Counter,
    pub pool_corruptions: Counter,
    pub disk_reads: Counter,
    pub disk_writes: Counter,
    // -- optimizer ----------------------------------------------------------
    pub optimize_calls: Counter,
    pub plans_considered: Counter,
    pub plans_pruned: Counter,
    pub optimize_time_us: Histogram,
    // -- static plan verification -------------------------------------------
    pub plans_verified: Counter,
    pub verify_failures: Counter,
    pub lints_flagged: Counter,
    // -- executor -----------------------------------------------------------
    pub exec_batches: Counter,
    pub exec_rows: Counter,
    pub exec_spills: Counter,
    pub execute_time_us: Histogram,
    // -- engine -------------------------------------------------------------
    pub queries: Counter,
    pub slow_queries: Counter,
    pub governor_kills: Counter,
    /// Statements executed (all kinds, not just SELECT).
    pub statements: Counter,
    /// Statements that returned an error.
    pub statement_errors: Counter,
    // -- contention (PR 8's wait points, timed at the lockorder sites) ------
    /// Wall time a writer spent waiting to acquire the commit lock.
    pub commit_lock_wait_us: Histogram,
    /// Wall time to pin the catalog version a read statement runs on.
    pub snapshot_acquire_us: Histogram,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics {
            pool_hits: Counter::default(),
            pool_misses: Counter::default(),
            pool_evictions: Counter::default(),
            pool_retries: Counter::default(),
            pool_corruptions: Counter::default(),
            disk_reads: Counter::default(),
            disk_writes: Counter::default(),
            optimize_calls: Counter::default(),
            plans_considered: Counter::default(),
            plans_pruned: Counter::default(),
            optimize_time_us: Histogram::default(),
            plans_verified: Counter::default(),
            verify_failures: Counter::default(),
            lints_flagged: Counter::default(),
            exec_batches: Counter::default(),
            exec_rows: Counter::default(),
            exec_spills: Counter::default(),
            execute_time_us: Histogram::default(),
            queries: Counter::default(),
            slow_queries: Counter::default(),
            governor_kills: Counter::default(),
            statements: Counter::default(),
            statement_errors: Counter::default(),
            // Contention waits resolve sub-50µs mass: finer bounds.
            commit_lock_wait_us: Histogram::new(WAIT_BUCKETS_US),
            snapshot_acquire_us: Histogram::new(WAIT_BUCKETS_US),
        }
    }
}

impl EngineMetrics {
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            pool_hits: self.pool_hits.get(),
            pool_misses: self.pool_misses.get(),
            pool_evictions: self.pool_evictions.get(),
            pool_retries: self.pool_retries.get(),
            pool_corruptions: self.pool_corruptions.get(),
            disk_reads: self.disk_reads.get(),
            disk_writes: self.disk_writes.get(),
            optimize_calls: self.optimize_calls.get(),
            plans_considered: self.plans_considered.get(),
            plans_pruned: self.plans_pruned.get(),
            optimize_time_us: self.optimize_time_us.snapshot(),
            plans_verified: self.plans_verified.get(),
            verify_failures: self.verify_failures.get(),
            lints_flagged: self.lints_flagged.get(),
            exec_batches: self.exec_batches.get(),
            exec_rows: self.exec_rows.get(),
            exec_spills: self.exec_spills.get(),
            execute_time_us: self.execute_time_us.snapshot(),
            queries: self.queries.get(),
            slow_queries: self.slow_queries.get(),
            governor_kills: self.governor_kills.get(),
            statements: self.statements.get(),
            statement_errors: self.statement_errors.get(),
            commit_lock_wait_us: self.commit_lock_wait_us.snapshot(),
            snapshot_acquire_us: self.snapshot_acquire_us.snapshot(),
            // Nothing records these per registry: `Database::metrics_snapshot`
            // fills them from the pool, the WAL and the fault injector.
            wal_sync_wait_us: Histogram::new(WAIT_BUCKETS_US).snapshot(),
            pool_miss_io_us: Histogram::new(WAIT_BUCKETS_US).snapshot(),
            pool_load_wait_us: Histogram::new(WAIT_BUCKETS_US).snapshot(),
            ..MetricsSnapshot::default()
        }
    }
}

/// A point-in-time copy of every engine metric, renderable as a
/// Prometheus-style text dump.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub pool_retries: u64,
    pub pool_corruptions: u64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub optimize_calls: u64,
    pub plans_considered: u64,
    pub plans_pruned: u64,
    pub optimize_time_us: HistogramSnapshot,
    pub plans_verified: u64,
    pub verify_failures: u64,
    pub lints_flagged: u64,
    pub exec_batches: u64,
    pub exec_rows: u64,
    pub exec_spills: u64,
    pub execute_time_us: HistogramSnapshot,
    pub queries: u64,
    pub slow_queries: u64,
    pub governor_kills: u64,
    pub faults_injected: u64,
    pub silent_corruptions: u64,
    pub statements: u64,
    pub statement_errors: u64,
    pub wal_records_written: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub recoveries: u64,
    pub recovery_replayed_records: u64,
    pub wal_coalesced_syncs: u64,
    pub commit_lock_wait_us: HistogramSnapshot,
    pub wal_sync_wait_us: HistogramSnapshot,
    pub pool_miss_io_us: HistogramSnapshot,
    pub pool_load_wait_us: HistogramSnapshot,
    pub snapshot_acquire_us: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Buffer-pool hit rate over the captured window.
    pub fn hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Prometheus text exposition of every metric, `evopt_`-prefixed.
    pub fn to_prometheus(&self) -> String {
        self.to_prometheus_labeled("")
    }

    /// Prometheus text exposition with an extra label set merged into
    /// every series (e.g. `session="3"` for a per-session registry dump).
    /// Empty `labels` renders bare series.
    pub fn to_prometheus_labeled(&self, labels: &str) -> String {
        let mut out = String::new();
        let counters = [
            ("evopt_pool_hits_total", self.pool_hits),
            ("evopt_pool_misses_total", self.pool_misses),
            ("evopt_pool_evictions_total", self.pool_evictions),
            ("evopt_pool_checksum_retries_total", self.pool_retries),
            ("evopt_pool_corruptions_total", self.pool_corruptions),
            ("evopt_disk_reads_total", self.disk_reads),
            ("evopt_disk_writes_total", self.disk_writes),
            ("evopt_optimize_calls_total", self.optimize_calls),
            ("evopt_plans_considered_total", self.plans_considered),
            ("evopt_plans_pruned_total", self.plans_pruned),
            ("evopt_plans_verified_total", self.plans_verified),
            ("evopt_verify_failures_total", self.verify_failures),
            ("evopt_lints_flagged_total", self.lints_flagged),
            ("evopt_exec_batches_total", self.exec_batches),
            ("evopt_exec_rows_total", self.exec_rows),
            ("evopt_exec_spills_total", self.exec_spills),
            ("evopt_queries_total", self.queries),
            ("evopt_slow_queries_total", self.slow_queries),
            ("evopt_governor_kills_total", self.governor_kills),
            ("evopt_faults_injected_total", self.faults_injected),
            ("evopt_silent_corruptions_total", self.silent_corruptions),
            ("evopt_statements_total", self.statements),
            ("evopt_statement_errors_total", self.statement_errors),
            ("evopt_wal_records_written_total", self.wal_records_written),
            ("evopt_wal_bytes_total", self.wal_bytes),
            ("evopt_checkpoints_total", self.checkpoints),
            ("evopt_recoveries_total", self.recoveries),
            (
                "evopt_recovery_replayed_records_total",
                self.recovery_replayed_records,
            ),
            ("evopt_wal_coalesced_syncs_total", self.wal_coalesced_syncs),
        ];
        let suffix = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        for (name, v) in counters {
            out.push_str(&format!("# TYPE {name} counter\n{name}{suffix} {v}\n"));
        }
        // Contention families render unconditionally so a scraper sees
        // the series exist (at zero) before the first contended wait.
        let histograms: [(&str, &HistogramSnapshot); 7] = [
            ("evopt_optimize_time_us", &self.optimize_time_us),
            ("evopt_execute_time_us", &self.execute_time_us),
            ("evopt_commit_lock_wait_us", &self.commit_lock_wait_us),
            ("evopt_wal_sync_wait_us", &self.wal_sync_wait_us),
            ("evopt_pool_miss_io_us", &self.pool_miss_io_us),
            ("evopt_pool_load_wait_us", &self.pool_load_wait_us),
            ("evopt_snapshot_acquire_us", &self.snapshot_acquire_us),
        ];
        for (name, h) in histograms {
            h.render_prometheus_labeled(name, labels, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(17);
        assert_eq!(g.get(), 17);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5); // bucket 0
        h.observe(10); // bucket 0 (le is inclusive)
        h.observe(50); // bucket 1
        h.observe(1_000); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1_065);
        assert!((s.mean() - 266.25).abs() < 1e-9);
    }

    #[test]
    fn quantile_and_max_bounds() {
        let h = Histogram::new(&[10, 100]);
        let empty = h.snapshot();
        assert_eq!(empty.quantile_bound(0.5), None);
        assert_eq!(empty.max_bound(), None);

        h.observe(5);
        h.observe(8);
        h.observe(50);
        let s = h.snapshot();
        // 2 of 3 observations are ≤10: the median bound is 10.
        assert_eq!(s.quantile_bound(0.5), Some(10.0));
        assert_eq!(s.quantile_bound(1.0), Some(100.0));
        assert_eq!(s.max_bound(), Some(100.0));

        h.observe(1_000); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.max_bound(), Some(f64::INFINITY));
        assert_eq!(s.quantile_bound(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn prometheus_dump_is_cumulative_and_complete() {
        let m = EngineMetrics::default();
        m.pool_hits.add(3);
        m.queries.inc();
        m.optimize_time_us.observe(80);
        m.optimize_time_us.observe(9_999_999); // overflow bucket
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("evopt_pool_hits_total 3"));
        assert!(text.contains("evopt_queries_total 1"));
        assert!(text.contains("evopt_recoveries_total 0"));
        assert!(text.contains("evopt_optimize_time_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("evopt_optimize_time_us_count 2"));
        // Buckets are cumulative: the le="100" bucket already holds the 80µs
        // observation.
        assert!(text.contains("evopt_optimize_time_us_bucket{le=\"100\"} 1"));
    }

    #[test]
    fn histogram_is_monotone_under_concurrent_observers() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new(WAIT_BUCKETS_US));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        h.observe(t * 100 + i % 97);
                    }
                })
            })
            .collect();
        // Read while the writers race: count must only grow, and every
        // snapshot is internally consistent (count is the bucket total).
        let mut last = 0u64;
        for _ in 0..1_000 {
            let s = h.snapshot();
            assert_eq!(s.counts.iter().sum::<u64>(), s.count);
            assert!(s.count >= last, "count went backwards");
            last = s.count;
            std::thread::yield_now();
        }
        for w in writers {
            w.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 20_000);
        assert_eq!(s.counts.iter().sum::<u64>(), 20_000);
        // Prometheus cumulative rendering ends at the total count.
        let mut out = String::new();
        s.render_prometheus_labeled("t_us", "", &mut out);
        assert!(out.contains("t_us_bucket{le=\"+Inf\"} 20000"), "{out}");
        assert!(out.contains("t_us_count 20000"), "{out}");
    }

    #[test]
    fn labeled_rendering_merges_label_sets() {
        let h = Histogram::new(&[10]);
        h.observe(3);
        let mut out = String::new();
        h.snapshot()
            .render_prometheus_labeled("t_us", "session=\"7\"", &mut out);
        assert!(
            out.contains("t_us_bucket{le=\"10\",session=\"7\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("t_us_bucket{le=\"+Inf\",session=\"7\"} 1"),
            "{out}"
        );
        assert!(out.contains("t_us_sum{session=\"7\"} 3"), "{out}");
        assert!(out.contains("t_us_count{session=\"7\"} 1"), "{out}");
    }

    #[test]
    fn contention_families_render_even_when_empty() {
        let text = EngineMetrics::default().snapshot().to_prometheus();
        for family in [
            "evopt_commit_lock_wait_us",
            "evopt_wal_sync_wait_us",
            "evopt_pool_miss_io_us",
            "evopt_pool_load_wait_us",
            "evopt_snapshot_acquire_us",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} histogram")),
                "missing {family}"
            );
            assert!(text.contains(&format!("{family}_count 0")), "{family}");
        }
    }

    #[test]
    fn hit_rate_handles_empty_window() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.hit_rate(), 0.0);
        let s = MetricsSnapshot {
            pool_hits: 3,
            pool_misses: 1,
            ..MetricsSnapshot::default()
        };
        assert_eq!(s.hit_rate(), 0.75);
    }
}
