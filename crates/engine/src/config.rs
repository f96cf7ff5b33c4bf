//! Construction-time and per-session knobs.

use evopt_catalog::AnalyzeConfig;
use evopt_core::OptimizerConfig;
use evopt_obs::{DEFAULT_QUERY_LOG_CAP, DEFAULT_SLOW_QUERY_US};
use evopt_storage::FaultConfig;

/// Crash-durability mode.
///
/// `Off` (the default) is the historical behaviour: the simulated disk
/// holds whatever the buffer pool flushed, and a crash loses everything
/// else. `Wal` adds a redo-only write-ahead log: every successful DML/DDL
/// statement commits durably (per dirtied page, the byte ranges it changed,
/// or a full image on the page's first change after a checkpoint; then a
/// commit record, synced), the pool refuses to flush uncommitted pages
/// (no-steal), and [`crate::Database::recover`] rebuilds exactly the
/// committed prefix after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    #[default]
    Off,
    Wal,
}

/// Construction-time knobs.
#[derive(Debug, Clone, Copy)]
pub struct DatabaseConfig {
    pub buffer_pages: usize,
    pub optimizer: OptimizerConfig,
    pub analyze: AnalyzeConfig,
    /// Fault-injection schedule for the underlying disk. `None` (the
    /// default) runs on a plain in-memory disk; `Some` wraps it in a
    /// deterministic [`evopt_storage::FaultInjector`] — the chaos suite's entry point.
    pub faults: Option<FaultConfig>,
    /// Ring-buffer capacity of the query log (entries; clamped to ≥ 1).
    pub query_log_cap: usize,
    /// Queries whose optimize+execute wall time meets this threshold are
    /// flagged slow in the query log and counted in `slow_queries`. Fixed
    /// for the life of the instance.
    pub slow_query_us: u64,
    /// Crash durability: [`Durability::Wal`] turns on write-ahead logging
    /// with statement-granularity commits. Off by default — the
    /// optimizer-validation experiments measure query I/O, not commit
    /// overhead (EXPERIMENTS.md W1 measures the overhead itself).
    pub durability: Durability,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            buffer_pages: 256,
            optimizer: OptimizerConfig::default(),
            analyze: AnalyzeConfig::default(),
            faults: None,
            query_log_cap: DEFAULT_QUERY_LOG_CAP,
            slow_query_us: DEFAULT_SLOW_QUERY_US,
            durability: Durability::Off,
        }
    }
}

/// Per-session knobs: the optimizer and ANALYZE configurations, which a
/// [`crate::Session`] may retune without affecting any other session.
/// Resource limits are not among them: a governed query passes its
/// [`evopt_exec::GovernorConfig`] per call. [`DatabaseConfig`] carries the
/// instance-wide defaults; a new session starts from a copy of whatever the
/// defaults are at creation time, and every statement snapshots its
/// session's config once at entry — a knob flipped mid-statement never
/// changes a statement already running.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    pub optimizer: OptimizerConfig,
    pub analyze: AnalyzeConfig,
}

impl DatabaseConfig {
    /// The per-session slice of this configuration. Its cost model's
    /// `buffer_pages`, the operator grant the optimizer prices with and the
    /// executor runs with, is a quarter of the pool and never under 64.
    pub fn session(&self) -> SessionConfig {
        let mut optimizer = self.optimizer;
        optimizer.cost_model.buffer_pages = (self.buffer_pages / 4).max(64);
        SessionConfig {
            optimizer,
            analyze: self.analyze,
        }
    }
}
