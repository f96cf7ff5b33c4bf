//! The one statement pipeline: parse → bind → optimize → execute → commit.
//!
//! Every door into the engine — `Database`, `Session`, `EXPLAIN`, bulk
//! loads, pre-optimized plans — is a call of [`Database::pipeline`] with an
//! [`Input`] and a [`Mode`]. Each stage is one function with one call site,
//! and the span, the metrics registries, the verifier and the governor are
//! attached where a stage begins or ends, so no door can skip them.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use evopt_catalog::Catalog;
use evopt_common::{lockorder, EvoptError, Result, Tuple};
use evopt_core::physical::PhysicalPlan;
use evopt_core::Optimizer;
use evopt_exec::{
    run_collect, run_collect_measured, run_collect_rids, CancellationToken, ExecEnv, GovernorConfig,
};
use evopt_obs::{
    EngineMetrics, Phase, PhaseSpan, QueryLogEntry, StatementSpan, TraceSink, DEFAULT_TRACE_EVENTS,
};
use evopt_plan::LogicalPlan;
use evopt_sql::ast::Statement;
use evopt_sql::parse;
use evopt_storage::{Lsn, WalStats};

use crate::bind::{Action, Parsed};
use crate::config::SessionConfig;
use crate::database::Database;
use crate::result::{Outcome, QueryResult};
use crate::session::SessionState;
use crate::{apply, render};

/// What a door wants from one run of the pipeline. The stages are the same
/// for all of them; the mode says where to stop and what to keep.
#[derive(Debug)]
pub enum Mode {
    /// Run the statement as written (`EXPLAIN …` prefixes included).
    Plain,
    /// Stop after optimize: nothing executes, nothing is counted.
    PlanOnly,
    /// [`Mode::PlanOnly`], rendered as `EXPLAIN` text.
    Explain,
    /// Execute a SELECT with per-operator instrumentation.
    Instrumented,
    /// Execute a SELECT keeping the optimizer's full search journal.
    Traced,
    /// Execute a SELECT under these limits and this cancellation token,
    /// instrumented like [`Mode::Instrumented`].
    Governed(GovernorConfig, CancellationToken),
}

/// What enters the pipeline, and therefore at which stage.
pub(crate) enum Input<'a> {
    Sql(&'a str),
    /// A plan the caller already optimized (`run_plan`): execute only.
    Plan(&'a PhysicalPlan),
    /// Pre-built tuples for one table (`insert_tuples`): no parse.
    Rows(&'a str, &'a [Tuple]),
}

/// One statement in flight: what was captured at entry — the session and a
/// copy of its config, so a knob flipped mid-statement changes nothing —
/// and what the stages have produced so far.
pub(crate) struct Flight<'a> {
    db: &'a Database,
    session: &'a SessionState,
    pub(crate) cfg: SessionConfig,
    /// The SQL text, when this run is a statement to be counted and logged
    /// (`run_plan`, `insert_tuples` and the plan-only modes are not).
    counted: Option<&'a str>,
    /// Render the outcome as `EXPLAIN` text; with `analyze`, after
    /// executing; with `verify`, including the verifier's report.
    explain: bool,
    analyze: bool,
    verify: bool,
    /// Keep the optimizer's full search journal.
    trace: bool,
    /// The enclosing clock: stamped before parse, so every phase is a
    /// sub-interval of the statement total.
    started: Instant,
    optimize_us: u64,
    verify_report: Option<String>,
    out: Outcome,
}

fn us_since(started: Instant) -> u64 {
    started.elapsed().as_micros() as u64
}

impl Database {
    /// Run one statement through the pipeline.
    pub(crate) fn pipeline(&self, session: &SessionState, input: Input<'_>, mode: Mode) -> Outcome {
        let cfg = session.config();
        let mut flight = Flight {
            db: self,
            session,
            cfg,
            counted: match (&input, &mode) {
                (_, Mode::PlanOnly | Mode::Explain) => None,
                (Input::Sql(sql), _) => Some(*sql),
                _ => None,
            },
            explain: matches!(mode, Mode::Explain),
            analyze: false,
            verify: false,
            trace: matches!(mode, Mode::Traced),
            started: Instant::now(),
            optimize_us: 0,
            verify_report: None,
            out: Outcome {
                result: Ok(QueryResult::Ok),
                plans: None,
                trace: None,
                metrics: None,
                span: StatementSpan::new(session.id()),
            },
        };
        let result = flight.stages(input, mode);
        if flight.counted.is_some() {
            flight.record(|m| {
                m.statements.inc();
                if result.is_err() {
                    m.statement_errors.inc();
                }
            });
        }
        flight.out.result = result;
        flight.out.span.total_us = us_since(flight.started);
        flight.out
    }
}

impl<'a> Flight<'a> {
    /// Count in the instance registry and the issuing session's.
    pub(crate) fn record(&self, f: impl Fn(&EngineMetrics)) {
        self.db.record(self.session, f);
    }

    /// Close a phase that began at `started`.
    pub(crate) fn phase(&mut self, phase: Phase, started: Instant) {
        self.out.span.push(PhaseSpan::new(phase, us_since(started)));
    }

    /// A copy of the span with the statement's wall time so far stamped on
    /// it.
    fn stamped_span(&self) -> StatementSpan {
        let mut span = self.out.span.clone();
        span.total_us = us_since(self.started);
        span
    }

    fn stages(&mut self, input: Input<'a>, mode: Mode) -> Result<QueryResult> {
        let parsed = match input {
            Input::Sql(sql) => Parsed::Stmt(self.parse_stage(sql)?),
            Input::Plan(plan) => Parsed::Plan(plan),
            Input::Rows(table, tuples) => Parsed::Rows(table, tuples),
        };
        let select = matches!(parsed, Parsed::Plan(_) | Parsed::Stmt(Statement::Select(_)));
        if !select && matches!(mode, Mode::Instrumented | Mode::Traced | Mode::Governed(..)) {
            return Err(EvoptError::Plan(
                "instrumented, traced and governed runs expect a SELECT".into(),
            ));
        }
        // `EXPLAIN [ANALYZE]` is the statement asking for a mode itself.
        let (parsed, mode) = match (parsed, mode) {
            (
                Parsed::Stmt(Statement::Explain {
                    analyze,
                    trace,
                    verify,
                    inner,
                }),
                Mode::Plain,
            ) => {
                (self.explain, self.analyze, self.verify) = (true, analyze, verify);
                self.trace = trace;
                let mode = match analyze {
                    true => Mode::Instrumented,
                    false => Mode::Explain,
                };
                (Parsed::Stmt(*inner), mode)
            }
            other => other,
        };
        let executes = !matches!(mode, Mode::PlanOnly | Mode::Explain);
        let reads = matches!(
            parsed,
            Parsed::Plan(_) | Parsed::Stmt(Statement::Select(_) | Statement::ShowQueryLog)
        );

        // Reads bind, plan and run on a pinned catalog version and take no
        // engine lock: DDL committed by another session mid-statement never
        // changes what they see. A statement that will change the database
        // serializes through the commit lock for bind → optimize → execute
        // → WAL append against the live catalog, then syncs *after*
        // releasing it: a session syncing the log covers every commit
        // appended before it, so back-to-back writers share fsyncs (group
        // commit).
        let db = self.db;
        let writes = executes && !reads;
        let wal_before = db.wal.as_ref().filter(|_| writes).map(|w| w.stats());
        let lock_started = Instant::now();
        let (result, staged) = {
            let _commit = writes.then(|| db.lock_commit(self.session));
            let lock_wait_us = us_since(lock_started);
            let catalog = match writes {
                true => Arc::clone(&db.catalog),
                false => db.read_snapshot(self.session),
            };
            let (logical, action) = self.bind_stage(&catalog, parsed)?;
            let physical = match (&logical, &action) {
                (Some(logical), _) => Some(Cow::Owned(self.optimize_stage(&catalog, logical)?)),
                (None, Action::Query(supplied)) => supplied.map(Cow::Borrowed),
                (None, _) if self.explain => {
                    return Err(EvoptError::Plan(
                        "EXPLAIN supports SELECT, UPDATE and DELETE".into(),
                    ))
                }
                (None, _) => None,
            };
            let result = match executes {
                true => self.execute_stage(&catalog, action, physical.as_deref(), mode),
                false => Ok(QueryResult::Ok),
            };
            if let (Some(logical), Some(physical)) = (logical, physical) {
                self.out.plans = Some((logical, physical.into_owned()));
            }
            let result = result?;
            // Append under the lock; the sync is owed once it is released.
            let appended = Instant::now();
            let pending = match (&db.wal, writes) {
                (Some(wal), true) => wal.commit_grouped(&db.pool)?,
                _ => None,
            };
            (result, writes.then_some((pending, lock_wait_us, appended)))
        };
        if let Some((pending, lock_wait_us, appended)) = staged {
            self.commit_stage(pending, lock_wait_us + us_since(appended), wal_before)?;
        }
        Ok(match (self.explain, &self.out.plans) {
            (true, Some(plans)) => QueryResult::Explained(self.render_explain(plans, &result)),
            _ => result,
        })
    }

    fn parse_stage(&mut self, sql: &str) -> Result<Statement> {
        let parsed = parse(sql);
        self.phase(Phase::Parse, self.started);
        parsed
    }

    /// Choose the physical plan, recording the optimizer's metrics, the
    /// optimize phase and (when asked) the full search journal; the
    /// optimizer's own per-phase verifier hooks fire inside. Unless the
    /// journal was asked for the sink is counts-only: exact
    /// considered/pruned totals, zero event storage.
    fn optimize_stage(
        &mut self,
        catalog: &Arc<Catalog>,
        logical: &LogicalPlan,
    ) -> Result<PhysicalPlan> {
        let cfg = self.cfg.optimizer;
        let verifying = cfg.verify || cfg!(debug_assertions);
        let mut optimizer = Optimizer::new(cfg).with_trace(match self.trace {
            true => TraceSink::bounded(DEFAULT_TRACE_EVENTS),
            false => TraceSink::counts_only(),
        });
        let started = Instant::now();
        let physical = match optimizer.optimize(logical, catalog) {
            Ok(p) => {
                if verifying {
                    self.record(|m| m.plans_verified.inc());
                }
                p
            }
            Err(e) => {
                if verifying && e.message().contains("plan verification failed") {
                    self.record(|m| m.verify_failures.inc());
                }
                return Err(e);
            }
        };
        let optimize_us = us_since(started);
        self.optimize_us = optimize_us;
        let trace = optimizer.take_trace().map(TraceSink::into_trace);
        let mut phase = PhaseSpan::new(Phase::Optimize, optimize_us);
        if let Some(t) = &trace {
            self.record(|m| {
                m.optimize_calls.inc();
                m.plans_considered.add(t.considered);
                m.plans_pruned.add(t.pruned);
                m.optimize_time_us.observe(optimize_us);
            });
            phase = phase
                .counter("considered", t.considered)
                .counter("pruned", t.pruned);
        }
        self.out.span.push(phase);
        if self.trace {
            self.out.trace = trace;
        }
        // `EXPLAIN VERIFY` reports here, while the catalog the plan was
        // made against is in hand.
        if self.verify {
            let (text, failures, lints) = render::verify_report(logical, &physical, catalog);
            self.record(|m| {
                m.plans_verified.inc();
                m.verify_failures.add(failures);
                m.lints_flagged.add(lints);
            });
            self.verify_report = Some(text);
        }
        Ok(physical)
    }

    /// Do what the statement says ([`Flight::run_action`]) and account for
    /// it: the executor's counts, the execute phase with its pool and disk
    /// deltas, and a SELECT's query counters and query-log entry.
    fn execute_stage(
        &mut self,
        catalog: &Arc<Catalog>,
        action: Action,
        plan: Option<&PhysicalPlan>,
        mode: Mode,
    ) -> Result<QueryResult> {
        let db = self.db;
        let is_query = matches!(action, Action::Query(_));
        let pool_before = db.pool.stats();
        let io_before = db.disk.snapshot();
        let started = Instant::now();
        let env = ExecEnv::new(
            Arc::clone(catalog),
            self.cfg.optimizer.cost_model.buffer_pages,
        );
        let result = self.run_action(&env, action, plan, mode);
        // Counted whether or not the statement failed: an operator that
        // spilled before an error did spill.
        let counts = &env.counts;
        self.record(|m| {
            m.exec_batches.add(counts.batches.get());
            m.exec_rows.add(counts.rows.get());
            m.exec_spills.add(counts.spills.get());
        });
        let result = result?;
        let execute_us = us_since(started);
        let pool = db.pool.stats().since(&pool_before);
        let io = db.disk.snapshot().since(&io_before);
        let rows = match &result {
            QueryResult::Rows { rows, .. } => rows.len() as u64,
            QueryResult::Affected(n) => *n as u64,
            _ => 0,
        };
        let root = self.out.metrics.as_ref().and_then(|m| m.operators.first());
        let batches = root.map(|root| root.next_calls);
        let mut phase = PhaseSpan::new(Phase::Execute, execute_us).counter("rows", rows);
        if let Some(batches) = batches {
            phase = phase.counter("batches", batches);
        }
        self.out.span.push(
            phase
                .counter("pool_hits", pool.hits)
                .counter("pool_misses", pool.misses)
                .counter("pages_read", io.reads)
                .counter("pages_written", io.writes),
        );
        // Pool and disk deltas count in a session's own registry alone: the
        // instance's snapshot reads the pool and the disk themselves.
        if !Arc::ptr_eq(&db.metrics, &self.session.metrics) {
            let m = &self.session.metrics;
            m.pool_hits.add(pool.hits);
            m.pool_misses.add(pool.misses);
            m.pool_evictions.add(pool.evictions);
            m.pool_retries.add(pool.retries);
            m.pool_corruptions.add(pool.corruptions);
            m.disk_reads.add(io.reads);
            m.disk_writes.add(io.writes);
        }
        if let (true, Some(sql), Some(plan)) = (is_query, self.counted, plan) {
            let span = Some(self.stamped_span());
            let slow = {
                let _r = lockorder::acquire(lockorder::OBS);
                db.query_log.record(QueryLogEntry {
                    sql: sql.to_string(),
                    session_id: self.session.id(),
                    plan_digest: plan.digest_hex(),
                    est_rows: plan.est_rows,
                    actual_rows: rows,
                    optimize_us: self.optimize_us,
                    execute_us,
                    pages_read: io.reads,
                    pages_written: io.writes,
                    slow: false, // stamped by QueryLog::record, which returns it
                    span,
                })
            };
            self.record(|m| {
                m.queries.inc();
                m.execute_time_us.observe(execute_us);
                if slow {
                    m.slow_queries.inc();
                }
            });
        }
        Ok(result)
    }

    /// The statement's own work, run on `env`: drain the plan (the only
    /// place the executor's `run_collect*` entry points are called, the
    /// governor attached to a governed one), apply the change, or answer
    /// from engine state.
    fn run_action(
        &mut self,
        env: &ExecEnv,
        action: Action,
        plan: Option<&PhysicalPlan>,
        mode: Mode,
    ) -> Result<QueryResult> {
        let db = self.db;
        let planned = || {
            plan.ok_or_else(|| EvoptError::Internal("statement reached execute unplanned".into()))
        };
        Ok(match action {
            Action::Query(_) => {
                let plan = planned()?;
                // Instrumented and governed runs take the measured drain; a
                // governed one hands it its limits.
                let measured = match mode {
                    Mode::Instrumented => Some(None),
                    Mode::Governed(governor, token) => Some(Some((governor, token))),
                    _ => None,
                };
                let rows = match measured {
                    Some(governed) => {
                        let (rows, metrics) = run_collect_measured(plan, env, governed);
                        self.out.metrics = Some(metrics);
                        if matches!(
                            &rows,
                            Err(EvoptError::Canceled(_) | EvoptError::ResourceExhausted(_))
                        ) {
                            self.record(|m| m.governor_kills.inc());
                        }
                        rows?
                    }
                    None => run_collect(plan, env)?,
                };
                QueryResult::Rows {
                    schema: plan.schema.clone(),
                    rows,
                    metrics: None,
                }
            }
            // Find every row first, change them after: the scan never
            // meets a row this statement wrote (Halloween protection),
            // whichever access path the optimizer chose.
            Action::Modify { info, sets } => {
                let found = run_collect_rids(planned()?, env)?;
                QueryResult::Affected(apply::modify(&info, &found, sets.as_deref())?)
            }
            Action::Insert { info, rows } => QueryResult::Affected(apply::insert(&info, &rows)?),
            Action::CreateTable { name, schema } => db.create_table(&name, schema)?,
            Action::CreateIndex {
                name,
                table,
                column,
                unique,
                clustered,
            } => db.create_index(&name, &table, &column, unique, clustered)?,
            Action::Analyze(table) => db.analyze(table.as_deref(), &self.cfg.analyze)?,
            Action::DropTable(name) => db.drop_table(&name)?,
            Action::ShowQueryLog => {
                let _r = lockorder::acquire(lockorder::OBS);
                render::query_log(&db.query_log)
            }
        })
    }

    /// Make the staged append durable, off the commit lock. Concurrent
    /// committers coalesce: whichever session syncs first covers every
    /// commit appended before it, and the rest return without touching the
    /// disk (`WalStats::coalesced_syncs`). The commit phase is lock wait +
    /// append + sync — never the statement's own work, which `execute`
    /// already accounts for.
    fn commit_stage(
        &mut self,
        pending: Option<Lsn>,
        waited_us: u64,
        wal_before: Option<WalStats>,
    ) -> Result<()> {
        let wal = self.db.wal.as_ref();
        let started = Instant::now();
        if let (Some(wal), Some(lsn)) = (wal, pending) {
            wal.sync_through(lsn)?;
        }
        let mut phase = PhaseSpan::new(Phase::Commit, waited_us + us_since(started));
        if let (Some(before), Some(wal)) = (wal_before, wal) {
            // Deltas are approximate under concurrency (the WAL counters are
            // instance-wide), exact when this writer is alone.
            let after = wal.stats();
            phase = phase
                .counter(
                    "wal_records",
                    after.records_written.saturating_sub(before.records_written),
                )
                .counter(
                    "wal_bytes",
                    after.bytes_written.saturating_sub(before.bytes_written),
                );
        }
        self.out.span.push(phase);
        Ok(())
    }

    /// `EXPLAIN [ANALYZE] [TRACE] [VERIFY]` text: the two plans, then
    /// whichever of the search journal, the verifier report and the
    /// measurements were asked for. Rendered after commit, so an
    /// `EXPLAIN ANALYZE UPDATE`'s phase table includes its commit phase.
    fn render_explain(
        &self,
        (logical, physical): &(LogicalPlan, PhysicalPlan),
        result: &QueryResult,
    ) -> String {
        let mut text = format!(
            "== logical ==\n{}== physical ({}) ==\n{}",
            logical.display_indent(),
            self.cfg.optimizer.strategy.name(),
            physical.display_indent()
        );
        if let Some(t) = &self.out.trace {
            text.push_str(&format!("== trace ({}) ==\n{}", t.strategy, t.render()));
        }
        if let Some(report) = &self.verify_report {
            text.push_str(report);
        }
        if !self.analyze {
            return text;
        }
        text.push_str("== measured ==\n");
        match (result, &self.out.metrics) {
            (QueryResult::Rows { rows, .. }, Some(metrics)) => text.push_str(&format!(
                "{}rows: {}\npage reads: {}\npage writes: {}\n",
                metrics.render(),
                rows.len(),
                metrics.disk_reads,
                metrics.disk_writes,
            )),
            (QueryResult::Affected(n), _) => text.push_str(&format!("rows affected: {n}\n")),
            _ => {}
        }
        text.push_str(&format!(
            "plan digest: {}\noptimize time: {}µs\n",
            physical.digest_hex(),
            self.optimize_us
        ));
        text.push_str(&format!(
            "== phases ==\n{}",
            self.stamped_span().render_table()
        ));
        text
    }
}

#[cfg(test)]
mod tests {
    use crate::database::tests::seeded;
    use crate::QueryResult;
    use evopt_common::Value;
    use evopt_core::Strategy;

    #[test]
    fn end_to_end_select() {
        let db = seeded();
        let rows = db.query("SELECT name FROM dept WHERE id = 2").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value(0).unwrap(), &Value::Str("sales".into()));
    }

    #[test]
    fn join_query_counts() {
        let db = seeded();
        let rows = db
            .query(
                "SELECT d.name, COUNT(*) AS n FROM emp e JOIN dept d \
                 ON e.dept_id = d.id GROUP BY d.name ORDER BY n DESC, d.name",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].value(1).unwrap(), &Value::Int(100));
    }

    #[test]
    fn explain_outputs_both_plans() {
        let db = seeded();
        let text = db.explain("SELECT * FROM emp WHERE id < 10").unwrap();
        assert!(text.contains("== logical =="));
        assert!(text.contains("== physical"));
        assert!(text.contains("system-r"));
    }

    #[test]
    fn explain_analyze_reports_io() {
        let db = seeded();
        match db
            .execute("EXPLAIN ANALYZE SELECT * FROM emp WHERE id = 5")
            .unwrap()
        {
            QueryResult::Explained(text) => {
                assert!(text.contains("rows: 1"), "{text}");
                assert!(text.contains("page reads:"), "{text}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn strategies_agree_on_results() {
        let db = seeded();
        let sql = "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_id = d.id \
                   WHERE e.salary > 2500 ORDER BY e.id";
        let baseline = db.query(sql).unwrap();
        assert!(!baseline.is_empty());
        for strategy in [
            Strategy::BushyDp,
            Strategy::Greedy,
            Strategy::Goo,
            Strategy::QuickPick {
                samples: 4,
                seed: 9,
            },
            Strategy::Syntactic,
        ] {
            db.set_strategy(strategy);
            assert_eq!(
                db.query(sql).unwrap(),
                baseline,
                "strategy {} changed results",
                strategy.name()
            );
        }
    }

    #[test]
    fn select_distinct_end_to_end() {
        let db = seeded();
        let rows = db
            .query("SELECT DISTINCT dept_id FROM emp ORDER BY dept_id")
            .unwrap();
        let got: Vec<i64> = rows
            .iter()
            .map(|t| t.value(0).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn select_constant_expressions_over_table() {
        let db = seeded();
        let rows = db
            .query("SELECT id * 2 AS twice FROM emp WHERE id BETWEEN 1 AND 3 ORDER BY twice")
            .unwrap();
        let vals: Vec<i64> = rows
            .iter()
            .map(|t| t.value(0).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(vals, vec![2, 4, 6]);
    }
}
