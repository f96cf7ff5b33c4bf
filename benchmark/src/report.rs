//! The metric tables, one run's report, and the comparison of two suite
//! results.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base by which the metric may get worse before it is a
    /// regression.
    pub bound: f64,
    /// Defined and never zero on every workload, so it is one of the
    /// metrics `BENCHMARK.json` lists and the result line carries. The
    /// others are `null` where they do not apply and appear only in the
    /// files under `benchmark/out`.
    pub every_workload: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    every_workload: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        every_workload,
    }
}

/// What a user of the system sees. `light_p50_us` and `heavy_p50_us` are
/// the medians of the workload's two headline statement classes (see
/// `Workload::headline_classes`): the per-class medians below them, under
/// names that exist on every workload.
///
/// The bounds on times and rates are a quarter, not the tenth one would
/// like. On the sandbox's two shared cores the same binary's median
/// latency differs by 10 to 18 % from one run to the next (interquartile
/// range over ten seeds, `point_inproc` and `analytic`), whatever the run
/// length or the estimator; a bound inside that spread would reject
/// changes at random.
pub const END_TO_END: [EndToEnd; 16] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("stmts_per_s", "1/s", Better::Higher, 0.25, true),
    e2e("stmt_p50_us", "us", Better::Lower, 0.25, true),
    e2e("stmt_p95_us", "us", Better::Lower, 0.25, true),
    e2e("light_p50_us", "us", Better::Lower, 0.25, true),
    e2e("heavy_p50_us", "us", Better::Lower, 0.25, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, true),
    e2e("point_p50_us", "us", Better::Lower, 0.25, false),
    e2e("range_p50_us", "us", Better::Lower, 0.25, false),
    e2e("scan_p50_us", "us", Better::Lower, 0.25, false),
    e2e("join_p50_us", "us", Better::Lower, 0.25, false),
    e2e("insert_p50_us", "us", Better::Lower, 0.25, false),
    e2e("modify_p50_us", "us", Better::Lower, 0.25, false),
    // May not rise at all.
    e2e("error_rate", "ratio", Better::Lower, 0.0, false),
    e2e(
        "disk_reads_per_stmt",
        "pages/stmt",
        Better::Lower,
        0.01,
        false,
    ),
    e2e(
        "log_bytes_per_write_stmt",
        "B/stmt",
        Better::Lower,
        0.01,
        false,
    ),
];

/// Single layers, from the traced run. No bounds: they explain a move of
/// an end-to-end metric, they do not accept or reject a change. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, Better); 61] = [
    ("sql.lex_us", "us", Better::Lower),
    ("sql.parse_us", "us", Better::Lower),
    ("sql.bind_us", "us", Better::Lower),
    ("plan.rewrite_us", "us", Better::Lower),
    ("core.optimize_us", "us", Better::Lower),
    ("core.plans_considered_per_stmt", "count", Better::Lower),
    ("core.cost_vs_reads_spearman", "rho", Better::Higher),
    ("core.q_error_p50", "ratio", Better::Lower),
    ("engine.execute_us", "us", Better::Lower),
    ("engine.overhead_us", "us", Better::Lower),
    ("engine.commit_lock_wait_us_p50", "us", Better::Lower),
    ("catalog.snapshot_us", "us", Better::Lower),
    ("obs.statement_us", "us", Better::Lower),
    ("exec.run_us", "us", Better::Lower),
    ("exec.point_run_us", "us", Better::Lower),
    ("exec.range_run_us", "us", Better::Lower),
    ("exec.scan_run_us", "us", Better::Lower),
    ("exec.join_run_us", "us", Better::Lower),
    ("exec.ns_per_input_row", "ns", Better::Lower),
    ("exec.rows_per_s", "1/s", Better::Higher),
    ("exec.batches_per_stmt", "count", Better::Lower),
    ("exec.spills", "count", Better::Lower),
    ("storage.btree.search_eq_us", "us", Better::Lower),
    ("storage.btree.pages_per_probe", "pages", Better::Lower),
    ("storage.btree.insert_us", "us", Better::Lower),
    ("storage.heap.scan_ns_per_row", "ns", Better::Lower),
    ("storage.heap.insert_us", "us", Better::Lower),
    ("storage.heap.pages_per_live_krow", "pages", Better::Lower),
    ("storage.buffer.hit_rate", "ratio", Better::Higher),
    ("storage.buffer.evictions_per_stmt", "count", Better::Lower),
    ("storage.buffer.fetch_hit_ns", "ns", Better::Lower),
    ("storage.buffer.fetch_miss_us", "us", Better::Lower),
    ("storage.disk.reads_per_stmt", "pages/stmt", Better::Lower),
    ("storage.disk.writes_per_stmt", "pages/stmt", Better::Lower),
    ("storage.disk.syncs_per_write_stmt", "count", Better::Lower),
    ("storage.disk.read_us_p50", "us", Better::Lower),
    ("storage.disk.busy_share", "ratio", Better::Lower),
    ("storage.wal.bytes_per_commit", "B", Better::Lower),
    ("storage.wal.records_per_commit", "count", Better::Lower),
    ("storage.wal.coalesced_sync_share", "ratio", Better::Higher),
    ("storage.wal.sync_wait_us_p50", "us", Better::Lower),
    ("storage.wal.checkpoint_ms", "ms", Better::Lower),
    ("storage.wal.checkpoint_stall_us", "us", Better::Lower),
    ("storage.wal.recover_ms", "ms", Better::Lower),
    ("server.roundtrip_overhead_us", "us", Better::Lower),
    ("server.respond_us", "us", Better::Lower),
    ("server.frame_us", "us", Better::Lower),
    ("server.connect_us", "us", Better::Lower),
    ("server.bytes_out_per_stmt", "B/stmt", Better::Lower),
    ("class.point_p50_us", "us", Better::Lower),
    ("class.range_p50_us", "us", Better::Lower),
    ("class.scan_p50_us", "us", Better::Lower),
    ("class.join_p50_us", "us", Better::Lower),
    ("class.insert_p50_us", "us", Better::Lower),
    ("class.modify_p50_us", "us", Better::Lower),
    ("traced.stmts_per_s", "1/s", Better::Higher),
    ("traced.stmt_p50_us", "us", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.reconcile_err_pct", "%", Better::Lower),
    ("trace.spans", "count", Better::Lower),
    ("gen.lateness_us", "us", Better::Lower),
];

/// One metric of one run. `value` is `None` where the metric does not
/// apply to the workload; `samples` is the number of latencies behind a
/// percentile.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub samples: Option<usize>,
}

/// Everything one invocation found.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub clients: usize,
    pub stream_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Percentiles that are reported but never bounded.
    pub diagnostics: Vec<Measured>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `workload metric value unit [n=samples]`, one line per metric.
    pub fn print_lines(&self) {
        for m in self.metrics.iter().chain(&self.diagnostics) {
            let value = m.value.map_or("null".to_string(), |v| format!("{v:.4}"));
            let samples = m.samples.map_or(String::new(), |n| format!(" n={n}"));
            println!("{} {} {value} {}{samples}", self.workload, m.name, m.unit);
        }
        for note in &self.notes {
            println!("{} note: {note}", self.workload);
        }
    }

    fn metrics_json(metrics: &[Measured]) -> Json {
        Json::obj(metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", m.value.map_or(Json::Null, Json::Num)),
                ("unit", Json::str(m.unit)),
            ];
            if let Some(n) = m.samples {
                fields.push(("samples", Json::Num(n as f64)));
            }
            (m.name.clone(), Json::obj(fields))
        }))
    }

    /// The file under `benchmark/out`: every metric, `null`s included.
    pub fn detail_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("trace", Json::Bool(self.traced)),
            ("clients", Json::Num(self.clients as f64)),
            ("loop", Json::str("closed")),
            (
                "stream_hash",
                Json::str(format!("{:016x}", self.stream_hash)),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Self::metrics_json(&self.metrics)),
            ("diagnostics", Self::metrics_json(&self.diagnostics)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// The last line of standard output: exactly the metrics
    /// `BENCHMARK.json` lists for this mode.
    pub fn result_line(&self) -> String {
        let listed: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.every_workload)
                .map(|m| m.name)
                .collect()
        };
        let metrics = listed.into_iter().map(|name| {
            let m = self.metrics.iter().find(|m| m.name == name);
            let value = m.and_then(|m| m.value).unwrap_or(0.0);
            let unit = m.map_or("", |m| m.unit);
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median over the suite's repetitions and,
/// with four or more of them, the interquartile range as a share of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub spread: Option<f64>,
}

/// Judge `new` against `base`. A change beyond the bound in the bad
/// direction is worse, beyond it in the good direction better. When either
/// side's own runs spread wider than the bound, a difference of that size
/// proves nothing, so the verdict is unresolved.
pub fn verdict(def: &EndToEnd, base: Option<Side>, new: Option<Side>) -> Verdict {
    let (Some(base), Some(new)) = (base, new) else {
        return Verdict::Unresolved;
    };
    let noisy = |s: Side| s.spread.is_some_and(|spread| spread > def.bound.max(1e-9));
    let (worse, better) = match def.better {
        Better::Lower => (
            new.median > base.median * (1.0 + def.bound),
            new.median < base.median * (1.0 - def.bound),
        ),
        Better::Higher => (
            new.median < base.median * (1.0 - def.bound),
            new.median > base.median * (1.0 + def.bound),
        ),
    };
    if !worse && !better {
        Verdict::Same
    } else if def.bound > 0.0 && (noisy(base) || noisy(new)) {
        Verdict::Unresolved
    } else if worse {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64) -> Option<Side> {
        Some(Side {
            median,
            spread: None,
        })
    }

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let p50 = def("stmt_p50_us");
        assert_eq!(p50.bound, 0.25);
        assert_eq!(verdict(p50, side(100.0), side(124.0)), Verdict::Same);
        assert_eq!(verdict(p50, side(100.0), side(126.0)), Verdict::Worse);
        assert_eq!(verdict(p50, side(100.0), side(70.0)), Verdict::Better);
        let rate = def("stmts_per_s");
        assert_eq!(verdict(rate, side(100.0), side(70.0)), Verdict::Worse);
        assert_eq!(verdict(rate, side(100.0), side(130.0)), Verdict::Better);
        // error_rate may not rise at all.
        let err = def("error_rate");
        assert_eq!(verdict(err, side(0.0), side(0.0)), Verdict::Same);
        assert_eq!(verdict(err, side(0.0), side(0.001)), Verdict::Worse);
        assert_eq!(verdict(p50, side(100.0), None), Verdict::Unresolved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_verdict_open() {
        let p50 = def("stmt_p50_us");
        let noisy = Some(Side {
            median: 100.0,
            spread: Some(0.3),
        });
        assert_eq!(verdict(p50, noisy, side(130.0)), Verdict::Unresolved);
        assert_eq!(verdict(p50, noisy, side(101.0)), Verdict::Same);
    }

    #[test]
    fn metric_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
