//! Per-layer measurements of the traced run, all taken from outside the
//! crates: public functions are timed, public snapshot structs are read.
//!
//! Two parts. The *decomposition* runs a statement through the real
//! `Session::execute` and then replays the same statement stage by stage
//! (lex, parse, bind, rewrite, optimize, run) so that the stages can be
//! held against the whole. The *probes* call straight into the storage
//! layer with fixed amounts of work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use evopt_catalog::Catalog;
use evopt_common::{EvoptError, Schema, Tuple, Value};
use evopt_core::{Optimizer, OptimizerConfig};
use evopt_engine::Session;
use evopt_obs::{
    EngineMetrics, Phase, PhaseSpan, QueryLog, QueryLogEntry, StatementSpan, TraceSink,
    DEFAULT_QUERY_LOG_CAP, DEFAULT_SLOW_QUERY_US,
};
use evopt_plan::rewrite_all;
use evopt_server::{read_frame, respond, write_frame, Client, Response};
use evopt_sql::{bind_select, lexer, parse, Statement};
use evopt_storage::{BTreeIndex, DiskBackend, HeapFile, Rid};

use crate::gen::{Class, Generator, Rng, Workload};
use crate::oracle::{Oracle, Outcome};
use crate::setup::{BenchResult, Env};
use crate::stats::{median, spearman};
use crate::trace;

/// One statement, whole and in stages. Times in ns.
#[derive(Debug, Clone)]
pub struct Decomposed {
    pub class: Class,
    pub execute: u64,
    pub lex: u64,
    pub parse: u64,
    pub bind: u64,
    pub rewrite: u64,
    pub optimize: u64,
    pub run: u64,
    /// The engine's own record-keeping about the statement, redone here.
    pub observe: u64,
    pub respond: u64,
    pub plans_considered: u64,
    pub est_cost: f64,
    /// Physical reads the real execute caused.
    pub disk_reads: u64,
    pub q_error: f64,
    /// Rows the plan's leaf operators handed up.
    pub input_rows: u64,
    pub batches: u64,
    pub spills: u64,
}

impl Decomposed {
    /// The stages that together do what `execute` does: `parse` lexes for
    /// itself and `optimize` rewrites for itself, so `lex` and `rewrite`
    /// are not added again.
    pub fn stages(&self) -> u64 {
        self.parse + self.bind + self.optimize + self.run + self.observe
    }
}

/// Span of the extra, instrumented run of a replay: not a stage.
pub const INSTRUMENTED: &str = "exec.instrumented";

/// What every replay needs and no replay changes.
struct ReplayCtx<'a> {
    env: &'a Env,
    catalog: Arc<Catalog>,
    optimizer_config: OptimizerConfig,
    /// The engine mirrors every recording into the session's, the
    /// instance's and the process's registry.
    scratch_metrics: [EngineMetrics; 3],
    scratch_log: QueryLog,
}

impl ReplayCtx<'_> {
    /// The stages of one SELECT, each under its own span, through the same
    /// public functions the engine calls.
    fn replay(&self, sql: &str, class: Class) -> BenchResult<Decomposed> {
        let err = |stage: &str, e: EvoptError| format!("{stage} of {sql}: {e}");
        let db = &self.env.db;
        let provider = |table: &str| -> evopt_common::Result<Schema> {
            Ok(self.catalog.table(table)?.schema.clone())
        };
        let (tokens, lex) = trace::span("sql.lex", || lexer::lex(sql));
        tokens.map_err(|e| err("lex", e))?;
        let (ast, parse_ns) = trace::span("sql.parse", || parse(sql));
        let Statement::Select(select) = ast.map_err(|e| err("parse", e))? else {
            return Err(format!("not a SELECT: {sql}"));
        };
        let (logical, bind) = trace::span("sql.bind", || bind_select(&select, &provider));
        let logical = logical.map_err(|e| err("bind", e))?;
        let copy = logical.clone();
        let (rewritten, rewrite) = trace::span("plan.rewrite", || rewrite_all(copy));
        rewritten.map_err(|e| err("rewrite", e))?;
        let mut optimizer =
            Optimizer::new(self.optimizer_config).with_trace(TraceSink::counts_only());
        let (physical, optimize) = trace::span("core.optimize", || {
            optimizer.optimize(&logical, &self.catalog)
        });
        let physical = physical.map_err(|e| err("optimize", e))?;
        let plans_considered = optimizer
            .take_trace()
            .map_or(0, |t| t.into_trace().considered);
        let before = db.metrics_snapshot();
        let (rows, run) = trace::span("exec.run", || db.run_plan(&physical));
        let output_rows = rows.map_err(|e| err("run", e))?.len() as u64;
        let after = db.metrics_snapshot();
        // What the engine records about a SELECT besides running it, done
        // here through the same public `obs` calls on scratch objects:
        // pool and disk counters read before and after, the statement
        // span, the counters of three metric registries, and the
        // query-log entry with its plan digest and copy of the text.
        let ((), observe) = trace::span("obs.statement", || {
            let (pool, io) = (db.pool().stats(), db.disk().snapshot());
            let (pool, io) = (
                db.pool().stats().since(&pool),
                db.disk().snapshot().since(&io),
            );
            let mut span = StatementSpan::new(0);
            span.push(PhaseSpan::new(Phase::Parse, parse_ns / 1_000));
            span.push(PhaseSpan::new(Phase::Bind, bind / 1_000));
            span.push(
                PhaseSpan::new(Phase::Optimize, optimize / 1_000)
                    .counter("considered", plans_considered)
                    .counter("pruned", 0),
            );
            span.push(
                PhaseSpan::new(Phase::Execute, run / 1_000)
                    .counter("rows", output_rows)
                    .counter("pool_hits", pool.hits)
                    .counter("pool_misses", pool.misses)
                    .counter("pages_read", io.reads)
                    .counter("pages_written", io.writes),
            );
            for m in &self.scratch_metrics {
                m.statements.inc();
                m.optimize_calls.inc();
                m.plans_considered.add(plans_considered);
                m.plans_pruned.add(0);
                m.optimize_time_us.observe(optimize / 1_000);
                m.queries.inc();
                m.execute_time_us.observe(run / 1_000);
                m.pool_hits.add(pool.hits);
                m.pool_misses.add(pool.misses);
                m.pool_evictions.add(pool.evictions);
                m.pool_retries.add(pool.retries);
                m.pool_corruptions.add(pool.corruptions);
                m.disk_reads.add(io.reads);
                m.disk_writes.add(io.writes);
            }
            self.scratch_log.record(QueryLogEntry {
                sql: sql.to_string(),
                session_id: 0,
                plan_digest: physical.digest_hex(),
                est_rows: physical.est_rows,
                actual_rows: output_rows,
                optimize_us: optimize / 1_000,
                execute_us: run / 1_000,
                pages_read: io.reads,
                pages_written: io.writes,
                slow: false,
                span: Some(span.clone()),
            });
        });
        // Estimate against actual, and the rows the leaves handed up: one
        // more run, instrumented, which no stage span covers.
        let (instrumented, _) = trace::span(INSTRUMENTED, || db.run_plan_instrumented(&physical));
        let (_, metrics) = instrumented.map_err(|e| err("instrumented run", e))?;
        Ok(Decomposed {
            class,
            execute: 0,
            lex,
            parse: parse_ns,
            bind,
            rewrite,
            optimize,
            run,
            observe,
            respond: 0,
            plans_considered,
            est_cost: self.optimizer_config.cost_model.total(physical.est_cost),
            disk_reads: 0,
            q_error: metrics.operators.first().map_or(0.0, |root| root.q_error()),
            input_rows: metrics
                .operators
                .iter()
                .filter(|o| o.subtree_size == 1)
                .map(|o| o.actual_rows)
                .sum(),
            batches: after.exec_batches - before.exec_batches,
            spills: after.exec_spills - before.exec_spills,
        })
    }
}

/// Decompose statements from `gen` for `budget`; also returns how many
/// answers were wrong. SELECTs only: the stream is the workload's own, in
/// its read-only form.
pub fn decompose(
    env: &Env,
    gen: &mut Generator,
    oracle: &Oracle,
    budget: Duration,
) -> BenchResult<(Vec<Decomposed>, u64)> {
    let session: Session = env.db.session();
    let ctx = ReplayCtx {
        env,
        catalog: env.db.catalog().snapshot(),
        optimizer_config: env.db.optimizer_config(),
        scratch_metrics: Default::default(),
        scratch_log: QueryLog::new(DEFAULT_QUERY_LOG_CAP, DEFAULT_SLOW_QUERY_US),
    };
    let mut out = Vec::new();
    let mut failed = 0;
    let started = Instant::now();
    while started.elapsed() < budget {
        let stmt = gen.read_only_stmt();
        let sql = stmt.sql.as_str();
        trace::set_stmt((0xB << 40) | (out.len() as u64 + 1));

        // Twice: the first execute is checked and its page reads counted;
        // the second is the whole the stages are held against. It finds
        // the pool and the processor's caches as the replay will find
        // them, warmed by the first.
        let io_before = env.base.snapshot();
        let first = session.execute(sql);
        let disk_reads = env.base.snapshot().reads - io_before.reads;
        let outcome = match first {
            Ok(evopt_engine::QueryResult::Rows { rows, .. }) => Outcome::Rows(rows),
            Ok(other) => Outcome::Error(format!("{other:?}")),
            Err(e) => Outcome::Error(e.to_string()),
        };
        if !oracle.check(&stmt.expect, &outcome) {
            failed += 1;
        }
        drop(outcome);
        let (second, execute) = trace::span("engine.execute", || session.execute(sql));
        drop(second);

        let (replayed, _) = trace::span("decomposed", || ctx.replay(sql, stmt.class));
        let mut d = replayed?;
        d.execute = execute;
        d.disk_reads = disk_reads;
        if env.workload == Workload::PointWire {
            // Execute and render with no socket in between.
            let (response, ns) = trace::span("server.respond", || respond(&session, sql));
            if !matches!(response, Response::Result(_)) {
                failed += 1;
            }
            d.respond = ns;
        }
        out.push(d);
    }
    trace::flush_thread();
    Ok((out, failed))
}

fn med_us(values: impl Iterator<Item = u64>) -> f64 {
    median(&values.map(|ns| ns as f64 / 1e3).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The per-layer metrics the decomposition yields.
pub fn decomposition_metrics(d: &[Decomposed]) -> Vec<(&'static str, f64)> {
    let n = d.len().max(1) as f64;
    let sum = |f: fn(&Decomposed) -> u64| d.iter().map(f).sum::<u64>() as f64;
    let run = sum(|d| d.run);
    let class_run = |class: Class| med_us(d.iter().filter(|d| d.class == class).map(|d| d.run));
    let costs: Vec<f64> = d.iter().map(|d| d.est_cost).collect();
    let reads: Vec<f64> = d.iter().map(|d| d.disk_reads as f64).collect();
    let q_errors: Vec<f64> = d.iter().map(|d| d.q_error).collect();
    vec![
        ("sql.lex_us", med_us(d.iter().map(|d| d.lex))),
        ("sql.parse_us", med_us(d.iter().map(|d| d.parse))),
        ("sql.bind_us", med_us(d.iter().map(|d| d.bind))),
        ("plan.rewrite_us", med_us(d.iter().map(|d| d.rewrite))),
        ("core.optimize_us", med_us(d.iter().map(|d| d.optimize))),
        (
            "core.plans_considered_per_stmt",
            sum(|d| d.plans_considered) / n,
        ),
        ("engine.execute_us", med_us(d.iter().map(|d| d.execute))),
        ("obs.statement_us", med_us(d.iter().map(|d| d.observe))),
        (
            "engine.overhead_us",
            median(
                &d.iter()
                    .map(|d| (d.execute as f64 - d.stages() as f64) / 1e3)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
        ),
        ("exec.run_us", med_us(d.iter().map(|d| d.run))),
        ("exec.point_run_us", class_run(Class::Point)),
        ("exec.range_run_us", class_run(Class::Range)),
        ("exec.scan_run_us", class_run(Class::Scan)),
        ("exec.join_run_us", class_run(Class::Join)),
        (
            "exec.ns_per_input_row",
            run / sum(|d| d.input_rows).max(1.0),
        ),
        (
            "exec.rows_per_s",
            sum(|d| d.input_rows) / (run / 1e9).max(1e-9),
        ),
        ("exec.batches_per_stmt", sum(|d| d.batches) / n),
        ("exec.spills", sum(|d| d.spills)),
        (
            "core.cost_vs_reads_spearman",
            spearman(&costs, &reads).unwrap_or(0.0),
        ),
        ("core.q_error_p50", median(&q_errors).unwrap_or(0.0)),
        ("server.respond_us", med_us(d.iter().map(|d| d.respond))),
    ]
}

/// Name of the table the probes work on.
fn main_table(workload: Workload) -> &'static str {
    match workload {
        Workload::Analytic => "orders",
        Workload::WriteMix => "kv",
        _ => "wisc",
    }
}

/// Run `f` up to `max` times or until `budget` is spent; median µs per
/// call and the number of calls made.
fn probe(
    max: usize,
    budget: Duration,
    mut f: impl FnMut(usize) -> BenchResult<()>,
) -> BenchResult<(f64, usize)> {
    let started = Instant::now();
    let mut ns = Vec::new();
    for i in 0..max {
        let t = Instant::now();
        f(i)?;
        ns.push(t.elapsed().as_nanos() as f64 / 1e3);
        if started.elapsed() > budget {
            break;
        }
    }
    Ok((median(&ns).unwrap_or(0.0), ns.len()))
}

/// Direct calls into the storage layer and the wire protocol.
pub fn probes(env: &Env, seed: u64) -> BenchResult<Vec<(&'static str, f64)>> {
    let e = |e: evopt_common::EvoptError| e.to_string();
    let budget = Duration::from_millis(300);
    let pool = env.db.pool();
    let info = env
        .db
        .catalog()
        .table(main_table(env.workload))
        .map_err(e)?;
    let index = info
        .indexes()
        .into_iter()
        .next()
        .ok_or("main table has no index")?;
    let live_rows = info.heap.tuple_count();
    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut out = Vec::new();

    // B+-tree: probe existing keys of the real index (read-only).
    let keys = index.btree.entry_count().map_err(e)?.max(1);
    let pool_before = pool.stats();
    let (search_us, searches) = probe(2_000, budget, |_| {
        let key = Value::Int(rng.below(keys) as i64);
        index.btree.search_eq(&key).map(|_| ()).map_err(e)
    })?;
    let touched = pool.stats().since(&pool_before);
    out.push(("storage.btree.search_eq_us", search_us));
    out.push((
        "storage.btree.pages_per_probe",
        touched.total() as f64 / searches.max(1) as f64,
    ));

    // Heap: one full scan of the real table (read-only).
    let t = Instant::now();
    let mut scanned = 0u64;
    for item in info.heap.scan() {
        item.map_err(e)?;
        scanned += 1;
    }
    out.push((
        "storage.heap.scan_ns_per_row",
        t.elapsed().as_nanos() as f64 / scanned.max(1) as f64,
    ));
    out.push((
        "storage.heap.pages_per_live_krow",
        info.heap.page_count() as f64 / (live_rows.max(1) as f64 / 1e3),
    ));

    // Buffer pool: a page that is resident, then pages that are not.
    let resident = info.heap.first_page();
    drop(pool.fetch(resident).map_err(e)?);
    let (hit_us, _) = probe(10_000, budget, |_| {
        pool.fetch(resident).map(drop).map_err(e)
    })?;
    out.push(("storage.buffer.fetch_hit_ns", hit_us * 1e3));
    pool.evict_all().map_err(e)?;
    let pages = env.base.page_count();
    let mut next_page = 0;
    let (miss_us, _) = probe(200, budget, |_| {
        // Page ids are dense; a deallocated one is skipped.
        while next_page < pages {
            next_page += 1;
            if pool.fetch(next_page - 1).is_ok() {
                return Ok(());
            }
        }
        Err("ran out of pages to miss on".into())
    })?;
    out.push(("storage.buffer.fetch_miss_us", miss_us));

    // Inserts go to a scratch heap and a scratch tree in the same pool,
    // so the real table keeps its contents.
    let scratch_heap = HeapFile::create(Arc::clone(pool)).map_err(e)?;
    let row = |i: usize| {
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Int(i as i64 % 1000),
            Value::Str(format!("s{i:07}")),
        ])
    };
    let (heap_insert_us, _) = probe(2_000, budget, |i| {
        scratch_heap.insert(&row(i)).map(|_| ()).map_err(e)
    })?;
    out.push(("storage.heap.insert_us", heap_insert_us));
    let scratch_tree = BTreeIndex::create(Arc::clone(pool)).map_err(e)?;
    let (tree_insert_us, _) = probe(2_000, budget, |i| {
        let key = Value::Int(rng.below(1 << 40) as i64);
        scratch_tree.insert(&key, Rid::new(0, i as u16)).map_err(e)
    })?;
    out.push(("storage.btree.insert_us", tree_insert_us));

    if let Some(server) = &env.server {
        let (connect_us, _) = probe(20, budget, |_| {
            Client::connect(server.addr())
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        out.push(("server.connect_us", connect_us));
        // One reply frame of a point lookup, written and read back
        // through memory.
        let payload = Response::Result("x".repeat(160)).encode();
        let (frame_us, _) = probe(10_000, budget, |_| {
            let mut wire = Vec::with_capacity(payload.len() + 4);
            write_frame(&mut wire, &payload).map_err(|e| e.to_string())?;
            read_frame(&mut wire.as_slice())
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        out.push(("server.frame_us", frame_us));
    }
    Ok(out)
}
