//! Per-session state and the [`Session`] handle.

use std::ops::Deref;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use evopt_catalog::AnalyzeConfig;
use evopt_common::{lockorder, Result, Tuple};
use evopt_core::{OptimizerConfig, Strategy};
use evopt_exec::{CancellationToken, GovernorConfig, QueryMetrics};
use evopt_obs::{EngineMetrics, MetricsSnapshot};
// Non-poisoning mutex (the vendored stand-in recovers poisoned state via
// `into_inner`): a panicking config writer can't brick later queries, and
// the config copy held under the lock is plain data — no invariants to
// corrupt halfway.
use parking_lot::Mutex;

use crate::config::SessionConfig;
use crate::database::Database;
use crate::pipeline::{Input, Mode};
use crate::result::{Outcome, QueryResult};

/// What a statement's issuer is: an id, a retunable copy of the execution
/// knobs, and a metrics registry.
/// [`Database`] owns one as session 0 — the instance defaults, which the
/// `Database`-level API runs with and new sessions start from — and every
/// [`Session`] owns one; both deref to it, so each knob has one setter.
pub struct SessionState {
    id: u64,
    /// Rank [`lockorder::CONFIG`].
    config: Mutex<SessionConfig>,
    /// Same schema as the instance registry, scoped to this session's
    /// statements. Session 0's *is* the instance registry.
    pub(crate) metrics: Arc<EngineMetrics>,
}

impl SessionState {
    pub(crate) fn new(id: u64, config: SessionConfig, metrics: Arc<EngineMetrics>) -> SessionState {
        SessionState {
            id,
            config: Mutex::new(config),
            metrics,
        }
    }

    /// Unique within the database; 0 is the database's own default session.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Copy of the current knobs. Every statement takes one at entry — a
    /// knob flipped mid-statement never changes a statement already running.
    pub fn config(&self) -> SessionConfig {
        let _r = lockorder::acquire(lockorder::CONFIG);
        *self.config.lock()
    }

    fn update(&self, f: impl FnOnce(&mut SessionConfig)) {
        let _r = lockorder::acquire(lockorder::CONFIG);
        f(&mut self.config.lock());
    }

    /// Current optimizer config (copy).
    pub fn optimizer_config(&self) -> OptimizerConfig {
        self.config().optimizer
    }

    /// Swap the join-enumeration strategy (`tests/plan_regret.rs` plans
    /// under each).
    pub fn set_strategy(&self, strategy: Strategy) {
        self.update(|c| c.optimizer.strategy = strategy);
    }

    /// Toggle interesting-order tracking (the ablation of
    /// `tests/plan_regret.rs`'s `ordered` class).
    pub fn set_track_orders(&self, on: bool) {
        self.update(|c| c.optimizer.track_interesting_orders = on);
    }

    /// Swap the ANALYZE configuration (`tests/estimates.rs` sweeps it).
    pub fn set_analyze_config(&self, cfg: AnalyzeConfig) {
        self.update(|c| c.analyze = cfg);
    }
}

/// A client session: a cheap handle over a shared [`Database`] with its own
/// copy of the execution knobs and its own metrics registry. Create with
/// [`Database::session`]; hand each connection (or thread) one.
///
/// Any number of sessions execute concurrently. Each statement pins a
/// catalog version and a config copy at entry; reads run entirely
/// on the snapshot, writes serialize through the engine commit lock and
/// group-commit their WAL syncs with adjacent sessions. Knob changes on
/// one session never affect another — the setters reached through a
/// [`Database`] only change the *defaults* future sessions start from.
pub struct Session {
    db: Arc<Database>,
    state: SessionState,
}

impl Deref for Session {
    type Target = SessionState;

    fn deref(&self) -> &SessionState {
        &self.state
    }
}

impl Session {
    pub(crate) fn new(db: Arc<Database>) -> Session {
        let state = SessionState::new(
            db.next_session_id.fetch_add(1, Ordering::Relaxed),
            db.config(),
            Arc::new(EngineMetrics::default()),
        );
        Session { db, state }
    }

    /// The shared database this session runs against.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Run `sql` through the statement pipeline in `mode` as this session.
    pub fn run(&self, sql: &str, mode: Mode) -> Outcome {
        self.db.pipeline(&self.state, Input::Sql(sql), mode)
    }

    /// Execute any statement in this session.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.run(sql, Mode::Plain).into_result()
    }

    /// Run a SELECT and return its rows.
    pub fn query(&self, sql: &str) -> Result<Vec<Tuple>> {
        self.execute(sql)?.into_rows()
    }

    /// Run a SELECT as this session under explicit resource governance;
    /// see [`Database::query_governed`].
    pub fn query_governed(
        &self,
        sql: &str,
        governor: GovernorConfig,
        token: CancellationToken,
    ) -> (Result<Vec<Tuple>>, Option<QueryMetrics>) {
        self.run(sql, Mode::Governed(governor, token))
            .into_governed()
    }

    /// Point-in-time snapshot of this session's own counters.
    /// Storage-level counters (pool, disk, WAL) are instance-wide — read
    /// them from [`Database::metrics_snapshot`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.state.metrics.snapshot()
    }

    /// Prometheus text exposition for a scrape arriving through this
    /// session: the instance-wide families from
    /// [`Database::metrics_text`] followed by this session's own
    /// counters rendered with a `session="<id>"` label, so a server
    /// scrape can attribute per-client work.
    pub fn metrics_text(&self) -> String {
        let mut out = self.db.metrics_text();
        out.push_str(
            &self
                .metrics_snapshot()
                .to_prometheus_labeled(&format!("session=\"{}\"", self.id())),
        );
        out
    }
}
