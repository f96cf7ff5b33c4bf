//! The `Database`: one instance's storage, catalog and log, and the doors
//! into the statement pipeline.

use std::ops::Deref;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use evopt_catalog::Catalog;
use evopt_common::{lockorder, EvoptError, Result, Tuple};
use evopt_core::physical::PhysicalPlan;
use evopt_exec::{CancellationToken, GovernorConfig, QueryMetrics};
use evopt_obs::{EngineMetrics, MetricsSnapshot, QueryLog};
use evopt_plan::LogicalPlan;
use evopt_storage::{
    BufferPool, DiskBackend, DiskManager, FaultInjector, FlushGate, IoSnapshot, RecoveryInfo, Wal,
};
use parking_lot::Mutex;

use crate::config::{DatabaseConfig, Durability};
use crate::pipeline::{Input, Mode};
use crate::result::{Outcome, QueryResult, TracedQuery};
use crate::session::{Session, SessionState};

/// A complete single-node database instance.
pub struct Database {
    pub(crate) disk: Arc<dyn DiskBackend>,
    /// Present when the database was built with `config.faults`: the same
    /// object as `disk`, retyped for fault-schedule control.
    injector: Option<Arc<FaultInjector>>,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) catalog: Arc<Catalog>,
    /// Present when `config.durability` is [`Durability::Wal`]; also
    /// registered as the pool's flush gate (no-steal).
    pub(crate) wal: Option<Arc<Wal>>,
    /// Session 0: the instance-wide defaults. Copied into every new
    /// [`Session`], and what the `Database`-level doors run as — `Database`
    /// derefs to it, so `db.set_strategy(..)` retunes the defaults.
    defaults: SessionState,
    /// Serializes write statements end-to-end (apply + WAL append). Rank
    /// [`lockorder::COMMIT`], the outermost lock in the hierarchy. The WAL
    /// *sync* happens after this lock is released, so adjacent sessions'
    /// commits coalesce into shared fsyncs (group commit).
    commit_lock: Mutex<()>,
    pub(crate) next_session_id: AtomicU64,
    /// Per-instance metrics registry (shared with session 0).
    pub(crate) metrics: Arc<EngineMetrics>,
    pub(crate) query_log: QueryLog,
}

impl Deref for Database {
    type Target = SessionState;

    fn deref(&self) -> &SessionState {
        &self.defaults
    }
}

impl Database {
    pub fn new(config: DatabaseConfig) -> Database {
        let base: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
        // Bootstrap on a fresh in-memory disk cannot fail unless the
        // machine is out of memory — keep the historical infallible
        // signature rather than making every caller unwrap.
        Database::create_on(base, config)
            .unwrap_or_else(|e| panic!("database bootstrap failed on a fresh disk: {e}"))
    }

    /// Build a database over a caller-supplied backend (a fresh disk —
    /// with [`Durability::Wal`] the WAL claims page 0). This is the
    /// fallible constructor the crash tests use with
    /// [`evopt_storage::CrashingBackend`].
    pub fn create_on(base: Arc<dyn DiskBackend>, config: DatabaseConfig) -> Result<Database> {
        Self::check_pool_size(&config)?;
        let (disk, injector) = Self::wire_faults(base, &config);
        let pool = BufferPool::new(Arc::clone(&disk), config.buffer_pages);
        let catalog = Arc::new(Catalog::new(Arc::clone(&pool)));
        let wal = match config.durability {
            Durability::Off => None,
            Durability::Wal => Some(Self::bootstrap(&injector, || {
                Wal::create(Arc::clone(&disk))
            })?),
        };
        Self::assemble(disk, injector, pool, catalog, wal, config)
    }

    /// Reopen a database over a disk that already holds a WAL: run crash
    /// recovery (scan, truncate the torn tail, replay the committed
    /// prefix), decode the last committed catalog record as the first
    /// catalog version (an empty catalog when the log holds none), and
    /// return what recovery found. A catalog record that does not decode
    /// is a typed error: `Corruption` for malformed bytes, `Catalog` for a
    /// duplicate name or a missing column. Requires
    /// `config.durability == Wal`.
    ///
    /// Statistics are not durable — run `ANALYZE` after recovery before
    /// trusting the optimizer's cost estimates.
    pub fn recover(
        base: Arc<dyn DiskBackend>,
        config: DatabaseConfig,
    ) -> Result<(Database, RecoveryInfo)> {
        if config.durability != Durability::Wal {
            return Err(EvoptError::Internal(
                "recover requires DatabaseConfig.durability = Wal".into(),
            ));
        }
        Self::check_pool_size(&config)?;
        let (disk, injector) = Self::wire_faults(base, &config);
        let (wal, info) = Self::bootstrap(&injector, || Wal::open(Arc::clone(&disk)))?;
        let pool = BufferPool::new(Arc::clone(&disk), config.buffer_pages);
        let catalog = Arc::new(match &info.catalog {
            Some(bytes) => Catalog::decode(Arc::clone(&pool), bytes)?,
            None => Catalog::new(Arc::clone(&pool)),
        });
        let db = Self::assemble(disk, injector, pool, catalog, Some(wal), config)?;
        Ok((db, info))
    }

    /// [`BufferPool::new`] asserts a non-empty pool; the fallible doors
    /// answer a zero-page configuration with an error instead.
    fn check_pool_size(config: &DatabaseConfig) -> Result<()> {
        match config.buffer_pages {
            0 => Err(EvoptError::Storage(
                "DatabaseConfig.buffer_pages must be at least 1".into(),
            )),
            _ => Ok(()),
        }
    }

    fn wire_faults(
        base: Arc<dyn DiskBackend>,
        config: &DatabaseConfig,
    ) -> (Arc<dyn DiskBackend>, Option<Arc<FaultInjector>>) {
        match config.faults {
            Some(faults) => {
                let inj = Arc::new(FaultInjector::new(base, faults));
                (Arc::clone(&inj) as Arc<dyn DiskBackend>, Some(inj))
            }
            None => (base, None),
        }
    }

    /// Run a WAL bootstrap step with fault injection suspended: the chaos
    /// schedule targets steady-state operation, not construction (a fault
    /// while formatting a fresh log tests nothing interesting). The
    /// injector's previous state is restored afterwards.
    fn bootstrap<T>(
        injector: &Option<Arc<FaultInjector>>,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let was = injector.as_ref().map(|i| {
            let on = i.is_enabled();
            i.set_enabled(false);
            on
        });
        let result = f();
        if let (Some(inj), Some(on)) = (injector, was) {
            inj.set_enabled(on);
        }
        result
    }

    fn assemble(
        disk: Arc<dyn DiskBackend>,
        injector: Option<Arc<FaultInjector>>,
        pool: Arc<BufferPool>,
        catalog: Arc<Catalog>,
        wal: Option<Arc<Wal>>,
        config: DatabaseConfig,
    ) -> Result<Database> {
        if let Some(w) = &wal {
            pool.set_flush_gate(Arc::clone(w) as Arc<dyn FlushGate>)?;
        }
        let metrics = Arc::new(EngineMetrics::default());
        Ok(Database {
            disk,
            injector,
            pool,
            catalog,
            wal,
            defaults: SessionState::new(0, config.session(), Arc::clone(&metrics)),
            metrics,
            query_log: QueryLog::new(config.query_log_cap, config.slow_query_us),
            commit_lock: Mutex::new(()),
            next_session_id: AtomicU64::new(1),
        })
    }

    /// 256-page pool, System R optimizer, equi-depth ANALYZE.
    pub fn with_defaults() -> Database {
        Database::new(DatabaseConfig::default())
    }

    /// The shared buffer pool (pool-level hit/miss stats for experiments).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn disk(&self) -> &Arc<dyn DiskBackend> {
        &self.disk
    }

    /// The fault injector, when the database was built with
    /// `config.faults`. Use it to toggle the schedule (e.g. load clean,
    /// then unleash faults) and to read the [`evopt_storage::FaultReport`].
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// The write-ahead log, when the database runs with
    /// [`Durability::Wal`].
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Take a fuzzy checkpoint: flush all committed pages, write a
    /// checkpoint record with the whole catalog, and switch the log
    /// to a fresh chain — bounding the work the next recovery must do.
    /// A no-op when durability is off.
    pub fn checkpoint(&self) -> Result<()> {
        match &self.wal {
            Some(wal) => {
                // Hold the commit lock so the catalog version and the set of
                // committed pages are a consistent cut of the log.
                let (_c, _guard) = self.lock_commit(&self.defaults);
                wal.checkpoint(&self.pool, &self.catalog.encode())
            }
            None => Ok(()),
        }
    }

    /// Open a new session over this database. Sessions are cheap handles:
    /// each owns a copy of the instance defaults (taken now) and may retune
    /// its knobs without affecting any other session. Any number of
    /// sessions execute concurrently.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(Arc::clone(self))
    }

    /// The catalog version a read statement pins: one `Arc` clone, its
    /// latency in the `snapshot_acquire_us` histogram of the instance and
    /// of the issuing session.
    pub(crate) fn read_snapshot(&self, session: &SessionState) -> Arc<Catalog> {
        let started = Instant::now();
        let snapshot = self.catalog.snapshot();
        let us = started.elapsed().as_micros() as u64;
        self.record(session, |m| m.snapshot_acquire_us.observe(us));
        snapshot
    }

    /// Acquire the commit lock through the timed wrapper: rank witness,
    /// timed wait, histogram stamp. Every commit site goes through here —
    /// no call site can take the lock without recording its wait.
    pub(crate) fn lock_commit(
        &self,
        session: &SessionState,
    ) -> (lockorder::RankGuard, parking_lot::MutexGuard<'_, ()>) {
        let rank = lockorder::acquire(lockorder::COMMIT);
        let started = Instant::now();
        let guard = self.commit_lock.lock();
        let us = started.elapsed().as_micros() as u64;
        self.record(session, |m| m.commit_lock_wait_us.observe(us));
        (rank, guard)
    }

    /// Apply `f` to the instance registry and — for a statement issued
    /// through a [`Session`] — that session's own (session 0 shares the
    /// instance's, which must count once).
    pub(crate) fn record(&self, session: &SessionState, f: impl Fn(&EngineMetrics)) {
        f(&self.metrics);
        if !Arc::ptr_eq(&self.metrics, &session.metrics) {
            f(&session.metrics);
        }
    }

    /// Run `sql` through the statement pipeline in `mode` as the default
    /// session. Every method below is this with a mode and a view picked.
    pub fn run(&self, sql: &str, mode: Mode) -> Outcome {
        self.pipeline(&self.defaults, Input::Sql(sql), mode)
    }

    /// Execute any statement.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.run(sql, Mode::Plain).into_result()
    }

    /// Run a SELECT and return its rows.
    pub fn query(&self, sql: &str) -> Result<Vec<Tuple>> {
        self.execute(sql)?.into_rows()
    }

    /// Run a SELECT instrumented: rows plus per-operator
    /// estimate-vs-actual [`QueryMetrics`].
    pub fn query_with_metrics(&self, sql: &str) -> Result<(Vec<Tuple>, QueryMetrics)> {
        self.run(sql, Mode::Instrumented).into_instrumented()
    }

    /// Run a SELECT under explicit resource governance.
    ///
    /// The rows (or the typed kill error — `Canceled`,
    /// `ResourceExhausted`, `Io`, `Corruption`) come back alongside the
    /// metrics the query accumulated up to that point, so a killed query
    /// still reports what it did. Metrics are `None` only when the
    /// statement failed before execution (parse/bind/optimize).
    pub fn query_governed(
        &self,
        sql: &str,
        governor: GovernorConfig,
        token: CancellationToken,
    ) -> (Result<Vec<Tuple>>, Option<QueryMetrics>) {
        self.run(sql, Mode::Governed(governor, token))
            .into_governed()
    }

    /// Run a SELECT instrumented and return the full [`QueryResult::Rows`]
    /// with its `metrics` field populated (the programmatic counterpart of
    /// `EXPLAIN ANALYZE`).
    pub fn execute_analyzed(&self, sql: &str) -> Result<QueryResult> {
        self.run(sql, Mode::Instrumented).into_result()
    }

    /// EXPLAIN text (logical and physical plans) for a SELECT, or for the
    /// row-finding half of an UPDATE/DELETE. Executes nothing.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.run(sql, Mode::Explain).into_result()?.into_text()
    }

    /// `EXPLAIN ANALYZE` text: the physical plan annotated with
    /// per-operator estimated vs. actual rows, q-error, elapsed time, and
    /// pool/disk counters, then the phase table. Executes the statement.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        self.execute(&format!("EXPLAIN ANALYZE {sql}"))?.into_text()
    }

    /// Parse + bind + optimize, returning both plans. Executes nothing.
    pub fn plan_sql(&self, sql: &str) -> Result<(LogicalPlan, PhysicalPlan)> {
        self.run(sql, Mode::PlanOnly).into_plans()
    }

    /// Run a SELECT with the optimizer's full search journal attached.
    /// The programmatic counterpart of `EXPLAIN TRACE`: same plan, same
    /// rows as [`Database::query`] — tracing only observes.
    pub fn query_traced(&self, sql: &str) -> Result<TracedQuery> {
        self.run(sql, Mode::Traced).into_traced()
    }

    /// Execute a physical plan.
    pub fn run_plan(&self, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
        self.pipeline(&self.defaults, Input::Plan(plan), Mode::Plain)
            .into_result()?
            .into_rows()
    }

    /// Execute a physical plan with per-operator instrumentation.
    pub fn run_plan_instrumented(&self, plan: &PhysicalPlan) -> Result<(Vec<Tuple>, QueryMetrics)> {
        self.pipeline(&self.defaults, Input::Plan(plan), Mode::Instrumented)
            .into_instrumented()
    }

    /// Bulk-insert pre-built tuples (index-maintaining). One commit for
    /// the whole batch, serialized with other writers like any statement.
    pub fn insert_tuples(&self, table: &str, tuples: &[Tuple]) -> Result<usize> {
        self.pipeline(&self.defaults, Input::Rows(table, tuples), Mode::Plain)
            .result
            .map(|_| tuples.len())
    }

    /// Run a statement and report the physical I/O it performed.
    pub fn measured(&self, sql: &str) -> Result<(QueryResult, IoSnapshot)> {
        let before = self.disk.snapshot();
        let result = self.execute(sql)?;
        let after = self.disk.snapshot();
        Ok((result, after.since(&before)))
    }

    /// Point-in-time metrics for this instance. Storage counters come from
    /// the live pool/disk/injector (authoritative lifetime totals, DDL and
    /// loads included); optimizer/executor/engine counters from the query
    /// path.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let pool = self.pool.stats();
        snap.pool_hits = pool.hits;
        snap.pool_misses = pool.misses;
        snap.pool_evictions = pool.evictions;
        snap.pool_retries = pool.retries;
        snap.pool_corruptions = pool.corruptions;
        snap.pool_miss_io_us = self.pool.miss_io_histogram();
        snap.pool_load_wait_us = self.pool.load_wait_histogram();
        let io = self.disk.snapshot();
        snap.disk_reads = io.reads;
        snap.disk_writes = io.writes;
        if let Some(inj) = &self.injector {
            let report = inj.report();
            snap.faults_injected = report.total();
            snap.silent_corruptions = report.silent_corruptions();
        }
        if let Some(wal) = &self.wal {
            let w = wal.stats();
            snap.wal_records_written = w.records_written;
            snap.wal_bytes = w.bytes_written;
            snap.checkpoints = w.checkpoints;
            snap.recoveries = w.recoveries;
            snap.recovery_replayed_records = w.replayed_records;
            snap.wal_coalesced_syncs = w.coalesced_syncs;
            snap.wal_sync_wait_us = wal.sync_wait_histogram();
        }
        snap
    }

    /// Prometheus text exposition of [`Database::metrics_snapshot`].
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// The ring buffer of recent queries (`SHOW QUERY LOG`).
    pub fn query_log(&self) -> &QueryLog {
        &self.query_log
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use evopt_common::Value;

    /// `dept` (3 rows) and `emp` (300 rows, indexed on `id`), ANALYZEd:
    /// the engine unit tests' shared world.
    pub(crate) fn seeded() -> Database {
        let db = Database::with_defaults();
        db.execute("CREATE TABLE dept (id INT NOT NULL, name STRING)")
            .unwrap();
        db.execute("CREATE TABLE emp (id INT NOT NULL, dept_id INT, salary INT)")
            .unwrap();
        db.execute("INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'hr')")
            .unwrap();
        let rows: Vec<Tuple> = (0..300)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(i % 3 + 1),
                    Value::Int(1000 + i * 10),
                ])
            })
            .collect();
        db.insert_tuples("emp", &rows).unwrap();
        db.execute("CREATE INDEX emp_id ON emp (id)").unwrap();
        db.execute("ANALYZE").unwrap();
        db
    }

    #[test]
    fn measured_io_nonzero_for_cold_scan() {
        let db = Database::new(DatabaseConfig {
            buffer_pages: 8,
            ..Default::default()
        });
        db.execute("CREATE TABLE big (x INT, pad STRING)").unwrap();
        let rows: Vec<Tuple> = (0..5000)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Str(format!("pad-{i:06}"))]))
            .collect();
        db.insert_tuples("big", &rows).unwrap();
        db.execute("ANALYZE").unwrap();
        db.pool().evict_all().unwrap();
        let (result, io) = db.measured("SELECT COUNT(*) FROM big").unwrap();
        assert_eq!(result.rows()[0].value(0).unwrap(), &Value::Int(5000));
        let pages = db.catalog().table("big").unwrap().heap.page_count();
        assert!(
            io.reads >= pages,
            "scan read {} pages, table has {pages}",
            io.reads
        );
    }

    #[test]
    fn durable_database_survives_losing_the_buffer_pool() {
        let disk: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
        let cfg = DatabaseConfig {
            durability: Durability::Wal,
            ..Default::default()
        };
        let db = Database::create_on(Arc::clone(&disk), cfg).unwrap();
        db.execute("CREATE TABLE t (id INT NOT NULL, name STRING)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        db.execute("CREATE INDEX t_id ON t (id)").unwrap();
        db.execute("DELETE FROM t WHERE id = 2").unwrap();
        let expect = db.query("SELECT id, name FROM t ORDER BY id").unwrap();
        let catalog = db.catalog().encode();
        // Crash: drop the database (pool and all) without ever flushing.
        drop(db);
        let (db2, info) = Database::recover(disk, cfg).unwrap();
        assert!(info.replayed_records > 0);
        assert_eq!(db2.catalog().encode(), catalog);
        assert_eq!(
            db2.query("SELECT id, name FROM t ORDER BY id").unwrap(),
            expect
        );
        // The recovered index answers point queries.
        assert_eq!(
            db2.query("SELECT name FROM t WHERE id = 3").unwrap().len(),
            1
        );
        assert!(db2
            .query("SELECT name FROM t WHERE id = 2")
            .unwrap()
            .is_empty());
        // And the recovered database keeps working durably.
        db2.execute("INSERT INTO t VALUES (4, 'd')").unwrap();
        let snap = db2.metrics_snapshot();
        assert_eq!(snap.recoveries, 1);
        assert!(snap.wal_records_written > 0);
        assert!(snap.wal_bytes > 0);
    }

    #[test]
    fn checkpoint_is_durable_and_counted() {
        let disk: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
        let cfg = DatabaseConfig {
            durability: Durability::Wal,
            ..Default::default()
        };
        let db = Database::create_on(Arc::clone(&disk), cfg).unwrap();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.checkpoint().unwrap();
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        drop(db);
        let (db2, info) = Database::recover(disk, cfg).unwrap();
        // The pre-checkpoint commits are out of the log: recovery scans
        // only the checkpoint record and the one commit after it.
        assert!(info.scanned_records <= 3, "{info:?}");
        let n = db2.query("SELECT COUNT(*) FROM t").unwrap()[0]
            .value(0)
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(db2.metrics_snapshot().recoveries, 1);
    }

    /// A catalog record that passes its CRC but that the catalog cannot
    /// decode fails recovery with a typed error, never a panic: malformed
    /// bytes are corruption and a duplicate name a catalog error. The log
    /// hands the record over whole rather than end its scan there as if it
    /// were a torn tail, dropping the commits after it.
    #[test]
    fn an_undecodable_catalog_record_fails_recovery_typed() {
        let cfg = DatabaseConfig {
            durability: Durability::Wal,
            ..Default::default()
        };
        // One table `t` with one column `id`: the column's type tag follows
        // the table count, the table's name, the column count and the
        // column's name.
        let tag_at = 4 + (4 + 1) + 4 + (4 + 2);
        for (what, kind) in [
            ("truncated", "corruption"),
            ("an unknown type tag", "corruption"),
            ("the table twice", "catalog"),
        ] {
            let disk: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
            let db = Database::create_on(Arc::clone(&disk), cfg).unwrap();
            db.execute("CREATE TABLE t (id INT)").unwrap();
            let mut bad = db.catalog().encode();
            assert_eq!(bad[tag_at], 1, "Int's tag");
            match what {
                "truncated" => drop(bad.pop()),
                "an unknown type tag" => bad[tag_at] = 9,
                _ => bad = [&[2, 0, 0, 0], &bad[4..], &bad[4..]].concat(),
            }
            let wal = db.wal().unwrap();
            wal.log_ddl(&bad).unwrap();
            let lsn = wal.commit_grouped(db.pool()).unwrap().unwrap();
            wal.sync_through(lsn).unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            drop(db);
            let err = Database::recover(disk, cfg).err().map(|e| e.kind());
            assert_eq!(err, Some(kind), "{what}");
        }
    }

    #[test]
    fn durability_off_behaves_as_before() {
        let db = Database::with_defaults();
        assert!(db.wal().is_none());
        db.execute("CREATE TABLE t (x INT)").unwrap();
        db.checkpoint().unwrap(); // no-op, not an error
        let snap = db.metrics_snapshot();
        assert_eq!(snap.wal_records_written, 0);
        assert_eq!(snap.recoveries, 0);
        // recover over a non-durable config is a typed error.
        let disk: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
        assert!(Database::recover(disk, DatabaseConfig::default()).is_err());
    }

    #[test]
    fn operators_are_granted_a_quarter_of_the_pool_and_never_under_64_pages() {
        for (pool, grant) in [(6, 64), (256, 64), (8_192, 2_048)] {
            let db = Arc::new(Database::new(DatabaseConfig {
                buffer_pages: pool,
                ..Default::default()
            }));
            let session = db.session();
            for model in [db.optimizer_config(), session.optimizer_config()].map(|c| c.cost_model) {
                assert_eq!(model.buffer_pages, grant, "{pool}-page pool");
            }
        }
    }

    #[test]
    fn zero_page_pool_is_a_typed_error_at_both_doors() {
        let cfg = DatabaseConfig {
            buffer_pages: 0,
            durability: Durability::Wal,
            ..Default::default()
        };
        let disk: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
        let Err(e) = Database::create_on(Arc::clone(&disk), cfg) else {
            panic!("create_on accepted an empty pool");
        };
        assert_eq!(e.kind(), "storage");
        assert!(e.message().contains("buffer_pages"), "{e}");
        // A disk that really holds a log, so the pool size is all that is
        // wrong with the reopen.
        let good = DatabaseConfig {
            buffer_pages: 8,
            ..cfg
        };
        drop(Database::create_on(Arc::clone(&disk), good).unwrap());
        let Err(e) = Database::recover(Arc::clone(&disk), cfg) else {
            panic!("recover accepted an empty pool");
        };
        assert_eq!(e.kind(), "storage");
        assert!(Database::recover(disk, good).is_ok());
    }
}
