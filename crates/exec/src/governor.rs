//! Query resource governor: cancellation, timeouts, and I/O budgets.
//!
//! A long-running or runaway query must be stoppable without killing the
//! process, and it must stop *promptly*: the governor is consulted on every
//! operator `next_batch()` call (inside the per-operator
//! [`InstrumentedExec`](crate::metrics::InstrumentedExec)), so a kill takes
//! effect within one batch step of any operator — including deep inside a
//! blocking sort or hash build, whose input operators are each governed
//! too. Kill latency is therefore bounded by the batch size;
//! [`GovernorConfig::max_batch_rows`] caps the batch size governed queries
//! run with (the executor clamps its `batch_rows` to it), trading per-batch
//! amortisation for reaction time.
//!
//! Three independent limits, all optional ([`GovernorConfig`]):
//!
//! * **wall-clock timeout** — a deadline fixed when the governor is created;
//! * **row budget** — output rows counted at the root drain;
//! * **page budget** — buffer-pool traffic (hits + misses) attributed to the
//!   query as a counter delta since the governor was created. This mirrors
//!   how the cost model prices plans, so a budget can be set straight from
//!   an optimizer estimate ("kill anything 100× over its predicted cost").
//!
//! Violations surface as typed errors: [`EvoptError::Canceled`] for an
//! explicit [`CancellationToken::cancel`], [`EvoptError::ResourceExhausted`]
//! for exceeded limits. Both are fault-class errors (`is_fault()`), never
//! panics, and the governed run path still returns partial
//! [`QueryMetrics`](crate::metrics::QueryMetrics) for the killed query.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evopt_common::{EvoptError, Result, DEFAULT_BATCH_ROWS};
use evopt_storage::BufferPool;

/// Shared cancel flag. Clone it out of the engine and flip it from another
/// thread (a Ctrl-C handler, an admission controller) to stop a query.
#[derive(Clone, Debug, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Request cancellation. Idempotent; takes effect within one operator
    /// `next_batch()` call of every governed query holding this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_canceled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Per-query resource limits. `None` means unlimited; the default governs
/// nothing (zero overhead beyond an atomic load per `next_batch()`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Maximum wall-clock time for the drain.
    pub timeout: Option<Duration>,
    /// Maximum rows the query may return (counted at the root).
    pub max_rows: Option<u64>,
    /// Maximum buffer-pool page requests (hits + misses) the query may
    /// issue.
    pub max_pages: Option<u64>,
    /// Batch-size cap for governed execution: bounds kill latency (and row
    /// budget overshoot) to this many rows. The executor runs with
    /// `min(batch_rows, max_batch_rows)`.
    pub max_batch_rows: usize,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            timeout: None,
            max_rows: None,
            max_pages: None,
            max_batch_rows: DEFAULT_BATCH_ROWS,
        }
    }
}

impl GovernorConfig {
    /// No limits at all.
    pub fn unlimited() -> Self {
        GovernorConfig::default()
    }

    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    pub fn with_max_rows(mut self, rows: u64) -> Self {
        self.max_rows = Some(rows);
        self
    }

    pub fn with_max_pages(mut self, pages: u64) -> Self {
        self.max_pages = Some(pages);
        self
    }

    pub fn with_max_batch_rows(mut self, rows: usize) -> Self {
        self.max_batch_rows = rows.max(1);
        self
    }
}

/// Runtime enforcement of one query's [`GovernorConfig`].
///
/// Created per query execution; shared (`Arc`) by every
/// [`InstrumentedExec`](crate::metrics::InstrumentedExec) in the operator
/// tree plus the root drain loop.
pub struct QueryGovernor {
    config: GovernorConfig,
    token: CancellationToken,
    deadline: Option<Instant>,
    pool: Arc<BufferPool>,
    /// Pool hits+misses at governor creation: the query's page usage is the
    /// delta from here.
    pages_start: u64,
    rows: AtomicU64,
}

impl QueryGovernor {
    pub fn new(config: GovernorConfig, token: CancellationToken, pool: Arc<BufferPool>) -> Self {
        let s = pool.stats();
        QueryGovernor {
            deadline: config.timeout.map(|t| Instant::now() + t),
            config,
            token,
            pages_start: s.hits + s.misses,
            pool,
            rows: AtomicU64::new(0),
        }
    }

    pub fn token(&self) -> CancellationToken {
        self.token.clone()
    }

    /// Buffer-pool page requests attributed to this query so far.
    pub fn pages_used(&self) -> u64 {
        let s = self.pool.stats();
        (s.hits + s.misses).saturating_sub(self.pages_start)
    }

    /// Enforce cancellation, deadline, and the page budget. Called before
    /// every governed `next_batch()`.
    pub fn check(&self) -> Result<()> {
        if self.token.is_canceled() {
            return Err(EvoptError::Canceled("query canceled".into()));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                let timeout = self.config.timeout.unwrap_or_default();
                return Err(EvoptError::ResourceExhausted(format!(
                    "query exceeded timeout of {timeout:?}"
                )));
            }
        }
        if let Some(max_pages) = self.config.max_pages {
            let used = self.pages_used();
            if used > max_pages {
                return Err(EvoptError::ResourceExhausted(format!(
                    "query exceeded page budget: {used} buffer-pool requests > limit {max_pages}"
                )));
            }
        }
        Ok(())
    }

    /// Count a root output batch's rows against the row budget. Called once
    /// per drained batch, so any overshoot past the limit is bounded by one
    /// batch (itself capped at [`GovernorConfig::max_batch_rows`]).
    pub fn record_rows(&self, n: u64) -> Result<()> {
        let produced = self.rows.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max_rows) = self.config.max_rows {
            if produced > max_rows {
                return Err(EvoptError::ResourceExhausted(format!(
                    "query exceeded row budget: {produced} rows > limit {max_rows}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use evopt_storage::DiskManager;

    fn pool() -> Arc<BufferPool> {
        BufferPool::new(Arc::new(DiskManager::new()), 4)
    }

    #[test]
    fn default_config_governs_nothing() {
        let gov = QueryGovernor::new(
            GovernorConfig::unlimited(),
            CancellationToken::new(),
            pool(),
        );
        assert!(gov.check().is_ok());
        for _ in 0..10_000 {
            assert!(gov.record_rows(1).is_ok());
        }
    }

    #[test]
    fn cancellation_is_observed() {
        let token = CancellationToken::new();
        let gov = QueryGovernor::new(GovernorConfig::unlimited(), token.clone(), pool());
        assert!(gov.check().is_ok());
        token.cancel();
        match gov.check() {
            Err(EvoptError::Canceled(_)) => {}
            other => panic!("expected Canceled, got {other:?}"),
        }
        // Idempotent and sticky.
        token.cancel();
        assert!(gov.check().is_err());
    }

    #[test]
    fn zero_timeout_trips_immediately() {
        let cfg = GovernorConfig::unlimited().with_timeout(Duration::ZERO);
        let gov = QueryGovernor::new(cfg, CancellationToken::new(), pool());
        match gov.check() {
            Err(EvoptError::ResourceExhausted(msg)) => {
                assert!(msg.contains("timeout"), "{msg}");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn row_budget_trips_on_excess() {
        let cfg = GovernorConfig::unlimited().with_max_rows(3);
        let gov = QueryGovernor::new(cfg, CancellationToken::new(), pool());
        for _ in 0..3 {
            assert!(gov.record_rows(1).is_ok());
        }
        match gov.record_rows(1) {
            Err(EvoptError::ResourceExhausted(msg)) => {
                assert!(msg.contains("row budget"), "{msg}");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn row_budget_counts_whole_batches() {
        let cfg = GovernorConfig::unlimited().with_max_rows(10);
        let gov = QueryGovernor::new(cfg, CancellationToken::new(), pool());
        assert!(gov.record_rows(8).is_ok());
        // The batch that crosses the limit trips it; overshoot is bounded
        // by that batch's size.
        match gov.record_rows(8) {
            Err(EvoptError::ResourceExhausted(msg)) => {
                assert!(msg.contains("16 rows"), "{msg}");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn max_batch_rows_defaults_and_clamps() {
        assert_eq!(
            GovernorConfig::unlimited().max_batch_rows,
            DEFAULT_BATCH_ROWS
        );
        assert_eq!(
            GovernorConfig::unlimited()
                .with_max_batch_rows(0)
                .max_batch_rows,
            1
        );
    }

    #[test]
    fn page_budget_counts_pool_traffic_since_creation() {
        let p = pool();
        // Pre-governor traffic must not count against the budget.
        let id = {
            let warmup = p.new_page().unwrap();
            warmup.id()
        };
        drop(p.fetch(id).unwrap());

        let cfg = GovernorConfig::unlimited().with_max_pages(2);
        let gov = QueryGovernor::new(cfg, CancellationToken::new(), Arc::clone(&p));
        assert_eq!(gov.pages_used(), 0);
        assert!(gov.check().is_ok());

        for _ in 0..3 {
            drop(p.fetch(id).unwrap());
        }
        assert_eq!(gov.pages_used(), 3);
        match gov.check() {
            Err(EvoptError::ResourceExhausted(msg)) => {
                assert!(msg.contains("page budget"), "{msg}");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }
}
