//! One invocation: set up a workload, warm up, measure, check, report.
//! With tracing off it yields the end-to-end metrics; a separate traced
//! invocation yields the per-layer metrics. End-to-end numbers never come
//! from the traced run.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use evopt_engine::Database;
use evopt_storage::{DiskBackend, WalStats};

use crate::drive::{run_phase, Clients, Limit, PhaseOpts, PhaseResult};
use crate::gen::{
    stream_hash, Class, Workload, LTP_STMTS_PER_SECOND, WRITE_MIX_STMTS_PER_CLIENT_SECOND,
};
use crate::layers;
use crate::oracle::kv_table_matches;
use crate::report::{Measured, Report, END_TO_END, PER_LAYER};
use crate::setup::{build, BenchResult, Env};
use crate::stats::{highest_supported_percentile, median};
use crate::trace::{self, Span};

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub out_dir: std::path::PathBuf,
}

/// Set-up runs this often in an untraced run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Statements of a count-bounded workload per client, for a phase that
/// gets `share` of the run.
fn limit(workload: Workload, seconds: u64, share: f64) -> Limit {
    let per_second = match workload {
        Workload::LargerThanPool => LTP_STMTS_PER_SECOND,
        Workload::WriteMix => WRITE_MIX_STMTS_PER_CLIENT_SECOND,
        _ => return Limit::time(Duration::from_secs_f64(seconds as f64 * share)),
    };
    let per_client = (per_second as f64 * seconds as f64 * share) as u64;
    Limit {
        // Whole cycles, so that every phase sees the same mix.
        per_client: (per_client / 20).max(1) * 20,
        deadline: Duration::from_secs(3 * seconds),
    }
}

/// Let caches fill and lazy set-up finish. `write_mix` warms up with
/// reads only, so that its measured statements start from the preloaded
/// table; `larger_than_pool` with two whole cycles, so that the pool holds
/// the same pages on every run.
fn warm_up(env: &Env, clients: &mut Clients, seconds: u64) {
    let budget = Duration::from_secs_f64((seconds as f64 * 0.2).min(1.0));
    let limit = match env.workload {
        Workload::LargerThanPool => Limit {
            per_client: 40,
            deadline: 3 * budget,
        },
        Workload::WriteMix => Limit {
            per_client: 500,
            deadline: budget,
        },
        _ => Limit::time(budget),
    };
    let opts = PhaseOpts {
        read_only: true,
        ..Default::default()
    };
    run_phase(env, clients, limit, opts);
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// What `write_mix` must still prove after its last statement: the table
/// matches the model of acknowledged statements, and so does the table
/// recovered from the disk alone once the database is dropped without a
/// checkpoint. Returns failures found and the recovery time in ms.
fn durability_check(
    env: Env,
    clients: Clients,
    notes: &mut Vec<String>,
) -> BenchResult<(u64, f64)> {
    let model: HashMap<i64, i64> = clients
        .gens
        .iter()
        .flat_map(|g| g.kv.values.iter().map(|(k, v)| (*k, *v)))
        .collect();
    let mut failed = 0;
    if !kv_table_matches(&env.db, &model)? {
        failed += 1;
        notes.push("live kv table does not match the model of acknowledged statements".into());
    }
    // Sessions hold the database; it must be gone before recovery, and
    // with it every page the pool had not written.
    drop(clients);
    let (backend, config) = env.shutdown();
    let started = Instant::now();
    let (recovered, _info) = Database::recover(backend, config).map_err(|e| e.to_string())?;
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    if !kv_table_matches(&recovered, &model)? {
        failed += 1;
        notes.push("recovered kv table does not match the model of acknowledged statements".into());
    }
    Ok((failed, recover_ms))
}

fn wal_stats(env: &Env) -> WalStats {
    env.db.wal().map(|w| w.stats()).unwrap_or_default()
}

fn collect_failures(phase: &PhaseResult, notes: &mut Vec<String>) {
    for f in phase.clients.iter().flat_map(|c| &c.first_failures) {
        notes.push(format!("failed: {f}"));
    }
}

pub fn run(opts: &RunOpts) -> BenchResult<Report> {
    let mut report = if opts.traced {
        run_traced(opts)?
    } else {
        run_untraced(opts)?
    };
    report.stream_hash = stream_hash(opts.workload, opts.seed);
    Ok(report)
}

fn new_report(opts: &RunOpts) -> Report {
    Report {
        workload: opts.workload.name(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        clients: opts.workload.clients(),
        stream_hash: 0,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        diagnostics: Vec::new(),
        notes: Vec::new(),
    }
}

fn run_untraced(opts: &RunOpts) -> BenchResult<Report> {
    let mut report = new_report(opts);
    let workload = opts.workload;

    let mut setup_s = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..SETUP_REPEATS {
        // One database at a time, as a user would have.
        if let Some(previous) = env.take() {
            previous.shutdown();
        }
        let started = Instant::now();
        env = Some(build(workload, opts.seed, false)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let env = env.expect("set-up ran at least once");
    let mut c = Clients::connect(&env, opts.seed)?;
    warm_up(&env, &mut c, opts.seconds);

    let (io_before, wal_before) = (env.base.snapshot(), wal_stats(&env));
    let raw = run_phase(
        &env,
        &mut c,
        limit(workload, opts.seconds, 1.0),
        PhaseOpts::default(),
    );
    let io = env.base.snapshot().since(&io_before);
    let wal_bytes = wal_stats(&env).bytes_written - wal_before.bytes_written;
    let (light, heavy) = workload.headline_classes();
    // Times and rates are reported at the machine's usual pace where the
    // pace tracks them; the raw ones stay as diagnostics.
    let mut as_clock_read = Vec::new();
    let measured = if let Some(usual_ns) = workload.usual_think_ns() {
        as_clock_read = vec![
            ("raw_stmts_per_s", "1/s", Some(raw.stmts_per_s())),
            ("raw_stmt_p50_us", "us", raw.latency_us(None, 50.0).0),
            (
                "raw_light_p50_us",
                "us",
                raw.latency_us(Some(light), 50.0).0,
            ),
        ];
        let (paced, pace) = raw
            .at_usual_pace(usual_ns)
            .ok_or("a single statement: nothing to take the pace from")?;
        as_clock_read.push(("pace", "ratio", Some(pace)));
        paced
    } else {
        raw
    };
    report.attempted = measured.attempted();
    report.failed = measured.failed();
    collect_failures(&measured, &mut report.notes);
    if workload == Workload::WriteMix {
        report.failed += durability_check(env, c, &mut report.notes)?.0;
    }

    let n = measured.attempted() as usize;
    let write_stmts = measured.count_where(Class::is_write);
    for def in END_TO_END {
        let (value, samples) = match def.name {
            "setup_s" => (median(&setup_s), None),
            "stmts_per_s" => (Some(measured.stmts_per_s()), Some(n)),
            "stmt_p50_us" => (measured.latency_us(None, 50.0).0, Some(n)),
            "stmt_p95_us" => (measured.latency_us(None, 95.0).0, Some(n)),
            "peak_rss_mb" => (peak_rss_mb(), None),
            "error_rate" => (Some(report.failed as f64 / n.max(1) as f64), Some(n)),
            "disk_reads_per_stmt" => (Some(io.reads as f64 / n.max(1) as f64), Some(n)),
            "log_bytes_per_write_stmt" => (
                (write_stmts > 0).then(|| wal_bytes as f64 / write_stmts as f64),
                Some(write_stmts as usize),
            ),
            name => {
                let class = match name {
                    "light_p50_us" => light,
                    "heavy_p50_us" => heavy,
                    name => Class::ALL
                        .into_iter()
                        .find(|c| c.metric() == name)
                        .ok_or_else(|| format!("no source for metric {name}"))?,
                };
                let (value, samples) = measured.latency_us(Some(class), 50.0);
                (value, Some(samples))
            }
        };
        report.metrics.push(Measured {
            name: def.name.to_string(),
            unit: def.unit,
            value,
            samples,
        });
    }
    report.notes.push(format!(
        "light = {}, heavy = {}",
        light.name(),
        heavy.name()
    ));
    if n < 200 {
        report.notes.push(format!(
            "stmt_p95_us rests on {n} samples, fewer than the 200 that leave ten beyond it"
        ));
    }
    if !as_clock_read.is_empty() {
        report.notes.push(
            "times and rates are at the machine's usual pace; raw_* are as the clock read them"
                .into(),
        );
    }
    for (name, unit, value) in as_clock_read {
        report.diagnostics.push(Measured {
            name: name.into(),
            unit,
            value,
            samples: Some(n),
        });
    }
    // Diagnostics: p99 where a thousand samples exist, and the highest
    // percentile the sample supports.
    if n >= 1_000 {
        report.diagnostics.push(Measured {
            name: "stmt_p99_us".into(),
            unit: "us",
            value: measured.latency_us(None, 99.0).0,
            samples: Some(n),
        });
    }
    if let Some(p) = highest_supported_percentile(n) {
        report.diagnostics.push(Measured {
            name: format!("stmt_highest_supported_p{p}_us"),
            unit: "us",
            value: measured.latency_us(None, p).0,
            samples: Some(n),
        });
    }
    Ok(report)
}

fn spans_named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| s.name == name)
}

/// For each checkpoint, the slowest statement that overlapped it; the
/// median over the checkpoints, in µs.
fn checkpoint_stall_us(spans: &[Span]) -> f64 {
    let stalls: Vec<f64> = spans_named(spans, "storage.wal.checkpoint")
        .map(|cp| {
            spans_named(spans, "stmt")
                .filter(|s| s.start_ns < cp.end_ns && s.end_ns > cp.start_ns)
                .map(Span::duration_ns)
                .max()
                .unwrap_or(0) as f64
                / 1e3
        })
        .collect();
    median(&stalls).unwrap_or(0.0)
}

/// What the spans alone tell.
fn span_metrics(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let reads: Vec<f64> = spans_named(spans, "storage.disk.read")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    // Per replayed statement: the stages' self times, and the device time
    // below them, against the real `Session::execute` of that statement.
    // `parse` lexes and `optimize` rewrites for themselves, so the
    // stand-alone `sql.lex` and `plan.rewrite` spans would count that
    // work twice.
    let layers = trace::self_time_below(
        spans,
        "decomposed",
        &["sql.lex", "plan.rewrite", layers::INSTRUMENTED],
    );
    let errors: Vec<f64> = spans_named(spans, "engine.execute")
        .filter_map(|whole| {
            let layers = *layers.get(&whole.stmt_id)? as f64;
            Some((layers - whole.duration_ns() as f64) / whole.duration_ns().max(1) as f64)
        })
        .collect();
    vec![
        ("storage.disk.read_us_p50", median(&reads).unwrap_or(0.0)),
        (
            "storage.wal.checkpoint_stall_us",
            checkpoint_stall_us(spans),
        ),
        (
            "trace.reconcile_err_pct",
            100.0 * median(&errors).unwrap_or(0.0).abs(),
        ),
        ("trace.spans", spans.len() as f64),
    ]
}

/// The log's counters over the loop, and the engine's wait histograms.
fn wal_metrics(
    before: &WalStats,
    after: &WalStats,
    engine: &evopt_obs::MetricsSnapshot,
    traced: &PhaseResult,
) -> Vec<(&'static str, f64)> {
    let commits = (after.commits - before.commits).max(1) as f64;
    let per_commit = |after: u64, before: u64| (after - before) as f64 / commits;
    let checkpoints: Vec<f64> = traced
        .clients
        .iter()
        .flat_map(|c| c.checkpoint_ms.iter().copied())
        .collect();
    let p50 = |h: &evopt_obs::HistogramSnapshot| h.quantile_bound(0.5).unwrap_or(0.0);
    vec![
        (
            "storage.wal.bytes_per_commit",
            per_commit(after.bytes_written, before.bytes_written),
        ),
        (
            "storage.wal.records_per_commit",
            per_commit(after.records_written, before.records_written),
        ),
        (
            "storage.wal.coalesced_sync_share",
            per_commit(after.coalesced_syncs, before.coalesced_syncs),
        ),
        (
            "storage.wal.sync_wait_us_p50",
            p50(&engine.wal_sync_wait_us),
        ),
        (
            "storage.wal.checkpoint_ms",
            median(&checkpoints).unwrap_or(0.0),
        ),
        (
            "engine.commit_lock_wait_us_p50",
            p50(&engine.commit_lock_wait_us),
        ),
    ]
}

fn run_traced(opts: &RunOpts) -> BenchResult<Report> {
    let mut report = new_report(opts);
    let workload = opts.workload;
    let mut values: HashMap<&'static str, f64> = HashMap::new();

    let env = build(workload, opts.seed, true)?;
    let timing = env.timing.clone().expect("traced set-up has a timing disk");
    let mut c = Clients::connect(&env, opts.seed)?;
    warm_up(&env, &mut c, opts.seconds);

    // The same loop in six slices, untraced and traced by turns: the
    // difference of their medians is what tracing costs. By turns, because
    // the machine's speed drifts over seconds by more than tracing costs.
    const SLICES: usize = 6;
    let (pool_before, wal_before) = (env.db.pool().stats(), wal_stats(&env));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for slice in 0..SLICES {
        let on = slice % 2 == 1;
        timing.set_timing(on);
        let phase = run_phase(
            &env,
            &mut c,
            limit(workload, opts.seconds, 0.6 / SLICES as f64),
            PhaseOpts {
                traced: on,
                ..Default::default()
            },
        );
        if on { &mut traced } else { &mut untraced }.push(phase);
    }
    timing.set_timing(true);
    let rate = |phases: &[PhaseResult]| {
        median(
            &phases
                .iter()
                .map(PhaseResult::stmts_per_s)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    let (untraced_rate, traced_rate) = (rate(&untraced), rate(&traced));
    let (untraced, traced) = (PhaseResult::merge(untraced), PhaseResult::merge(traced));
    let pool = env.db.pool().stats().since(&pool_before);
    let disk = timing.totals();
    let wal_after = wal_stats(&env);
    let engine = env.db.metrics_snapshot();

    report.attempted = untraced.attempted() + traced.attempted();
    report.failed = untraced.failed() + traced.failed();
    collect_failures(&untraced, &mut report.notes);
    collect_failures(&traced, &mut report.notes);

    // The disk is timed in the traced slices only; the pool and the log
    // count in all six.
    let n = traced.attempted().max(1) as f64;
    let n_all = (untraced.attempted() + traced.attempted()).max(1) as f64;
    let write_stmts = traced.count_where(Class::is_write).max(1) as f64;
    let traced_p50 = traced.latency_us(None, 50.0).0.unwrap_or(0.0);
    values.insert("traced.stmts_per_s", traced_rate);
    values.insert("traced.stmt_p50_us", traced_p50);
    values.insert(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_rate / untraced_rate),
    );
    for class in Class::ALL {
        values.insert(
            class.traced_metric(),
            traced.latency_us(Some(class), 50.0).0.unwrap_or(0.0),
        );
    }
    let lateness: Vec<f64> = traced.think_ns().map(|ns| ns as f64 / 1e3).collect();
    values.insert("gen.lateness_us", median(&lateness).unwrap_or(0.0));
    values.insert("storage.buffer.hit_rate", pool.hit_rate());
    values.insert(
        "storage.buffer.evictions_per_stmt",
        pool.evictions as f64 / n_all,
    );
    values.insert("storage.disk.reads_per_stmt", disk.reads as f64 / n);
    values.insert("storage.disk.writes_per_stmt", disk.writes as f64 / n);
    values.insert(
        "storage.disk.syncs_per_write_stmt",
        disk.syncs as f64 / write_stmts,
    );
    values.insert(
        "storage.disk.busy_share",
        disk.busy_ns as f64 / traced.wall.as_nanos() as f64,
    );
    if env.db.wal().is_some() {
        values.extend(wal_metrics(&wal_before, &wal_after, &engine, &traced));
    }
    values.insert("catalog.snapshot_us", engine.snapshot_acquire_us.mean());
    if let Some(server) = &env.server {
        let m = server.metrics();
        values.insert(
            "server.bytes_out_per_stmt",
            m.bytes_out.get() as f64 / m.frames.get().max(1) as f64,
        );
    }

    // Stage by stage, on one in-process session.
    let budget = Duration::from_secs_f64(opts.seconds as f64 * 0.25);
    // On a thread of its own, as the clients are: the main thread's
    // allocator arena trims and regrows on every large result, which makes
    // the same statement two to three times slower there.
    let (decomposed, wrong) = std::thread::scope(|scope| {
        scope
            .spawn(|| layers::decompose(&env, &mut c.gens[0], &c.oracle, budget))
            .join()
            .expect("decomposition thread panicked")
    })?;
    report.attempted += decomposed.len() as u64;
    report.failed += wrong;
    values.extend(layers::decomposition_metrics(&decomposed));
    if workload != Workload::LargerThanPool {
        // Where the pool holds every table, the few reads there are come
        // from spills; their rank against cost says nothing about plans.
        values.insert("core.cost_vs_reads_spearman", 0.0);
    }
    if env.server.is_some() {
        values.insert(
            "server.roundtrip_overhead_us",
            traced_p50 - values["engine.execute_us"],
        );
    }
    timing.set_timing(false);
    values.extend(layers::probes(&env, opts.seed)?);

    let spans = trace::take_all();
    values.extend(span_metrics(&spans));
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let trace_file = opts.out_dir.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&trace_file, trace::spans_to_json(&spans).render())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    drop(spans);

    if workload == Workload::WriteMix {
        let (failed, recover_ms) = durability_check(env, c, &mut report.notes)?;
        report.failed += failed;
        values.insert("storage.wal.recover_ms", recover_ms);
    }

    if values["trace.overhead_pct"] > 10.0 {
        report.notes.push(format!(
            "warning: tracing slowed the loop by {:.1} % (more than 10 %)",
            values["trace.overhead_pct"]
        ));
    }
    if values["trace.reconcile_err_pct"] > 15.0 {
        report.notes.push(format!(
            "warning: the stages differ from the whole statement by {:.1} % (more than 15 %)",
            values["trace.reconcile_err_pct"]
        ));
    }
    for (name, unit, _) in PER_LAYER {
        report.metrics.push(Measured {
            name: name.to_string(),
            unit,
            value: Some(values.remove(name).unwrap_or(0.0)),
            samples: None,
        });
    }
    if let Some(stray) = values.keys().next() {
        return Err(format!("measured {stray}, which PER_LAYER does not list"));
    }
    Ok(report)
}
