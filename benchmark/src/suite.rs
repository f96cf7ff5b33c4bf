//! The suite (every workload, each in a process of its own, untraced and
//! traced), its result file, and the comparison of two result files.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::gen::Workload;
use crate::json::Json;
use crate::report::{verdict, Side, Verdict, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};

/// `run_seconds` of `BENCHMARK.json`; the suite measures as long as the
/// driver does unless told otherwise.
pub fn default_seconds() -> u64 {
    15
}

pub struct SuiteOpts {
    pub only: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    /// Untraced runs per workload; with four or more, the result carries
    /// each metric's spread and `compare` can say `unresolved`.
    pub reps: usize,
    pub force: bool,
    pub out_dir: PathBuf,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Run one workload in a child process, pass its metric lines through,
/// and read back the detail file it wrote.
fn child(opts: &SuiteOpts, workload: Workload, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    // All but the JSON result line, which the detail file repeats.
    for line in &lines[..lines.len().saturating_sub(1)] {
        println!("{line}");
    }
    let file = opts
        .out_dir
        .join(format!("{}.trace{}.json", workload.name(), traced as u8));
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

/// Fold the values one metric took over the repetitions into
/// `{unit, values, median, spread}`; `spread` is the interquartile range
/// as a share of the median, `null` below four values.
fn fold<'a>(name: &str, runs: &'a [Json]) -> Json {
    let metric = |run: &'a Json| run.get("metrics")?.get(name);
    let first = runs.first().and_then(metric);
    let unit = first
        .and_then(|m| m.get("unit").cloned())
        .unwrap_or(Json::Null);
    let samples = first.and_then(|m| m.get("samples").cloned());
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| metric(r)?.get("value")?.as_f64())
        .collect();
    let mid = median(&values);
    let spread = (values.len() >= 4)
        .then(|| {
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let iqr = percentile(&sorted, 75.0)? - percentile(&sorted, 25.0)?;
            mid.filter(|m| *m != 0.0).map(|m| iqr / m)
        })
        .flatten();
    let mut fields = vec![
        ("unit", unit),
        ("median", mid.map_or(Json::Null, Json::Num)),
        ("spread", spread.map_or(Json::Null, Json::Num)),
        (
            "values",
            Json::Arr(values.into_iter().map(Json::Num).collect()),
        ),
    ];
    if let Some(samples) = samples {
        fields.push(("samples", samples));
    }
    Json::obj(fields)
}

pub fn run(opts: &SuiteOpts) -> Result<ExitCode, String> {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
    if let (Some(load), false) = (load, opts.force) {
        if load > 1.0 {
            return Err(format!(
                "1-minute load average is {load}: the machine is busy and the numbers \
                 would not repeat; wait, or pass --force"
            ));
        }
    }
    let commit = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let workloads: Vec<Workload> = match opts.only {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut wrong = false;
    let mut results = Vec::new();
    for workload in workloads {
        let untraced: Vec<Json> = (0..opts.reps)
            .map(|_| child(opts, workload, false))
            .collect::<Result<_, _>>()?;
        let traced = child(opts, workload, true)?;
        let correct = untraced
            .iter()
            .chain([&traced])
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        wrong |= !correct;
        let first = &untraced[0];
        let copy = |key: &str| first.get(key).cloned().unwrap_or(Json::Null);
        results.push((
            workload.name(),
            Json::obj([
                ("clients", copy("clients")),
                ("loop", copy("loop")),
                ("stream_hash", copy("stream_hash")),
                ("correct", Json::Bool(correct)),
                ("attempted", copy("attempted")),
                ("failed", copy("failed")),
                (
                    "end_to_end",
                    Json::obj(END_TO_END.iter().map(|m| (m.name, fold(m.name, &untraced)))),
                ),
                ("diagnostics", copy("diagnostics")),
                (
                    "per_layer",
                    Json::obj(
                        PER_LAYER
                            .iter()
                            .map(|m| (m.0, fold(m.0, std::slice::from_ref(&traced)))),
                    ),
                ),
                (
                    "notes",
                    Json::Arr(
                        untraced
                            .iter()
                            .chain([&traced])
                            .flat_map(|r| r.get("notes").map_or(&[][..], Json::as_arr))
                            .cloned()
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let result = Json::obj([
        ("commit", Json::str(&commit)),
        ("nproc", Json::str(command_line("nproc", &[]))),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds as f64)),
        ("reps", Json::Num(opts.reps as f64)),
        ("workloads", Json::obj(results)),
    ]);
    let file = opts.out_dir.join("result.json");
    std::fs::write(&file, result.render_pretty())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());

    // The first full result on a tree becomes the baseline later changes
    // are compared with.
    let baseline_dir = opts
        .out_dir
        .parent()
        .unwrap_or(Path::new("."))
        .join("baseline");
    let has_baseline = std::fs::read_dir(&baseline_dir)
        .map(|d| {
            d.flatten()
                .any(|e| e.file_name().to_string_lossy().starts_with("seed-"))
        })
        .unwrap_or(false);
    if opts.only.is_none() && !wrong && !has_baseline {
        std::fs::create_dir_all(&baseline_dir).map_err(|e| e.to_string())?;
        let baseline = baseline_dir.join(format!("seed-{commit}.json"));
        std::fs::write(&baseline, result.render_pretty()).map_err(|e| e.to_string())?;
        println!("wrote {}", baseline.display());
    }
    if wrong {
        eprintln!("evopt-benchmark: at least one answer was wrong (error_rate > 0)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn side(result: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Side {
        median: m.get("median")?.as_f64()?,
        spread: m.get("spread").and_then(Json::as_f64),
    })
}

/// Per workload and end-to-end metric: both medians, their ratio, and the
/// verdict under the metric's bound. Fails on `worse`; with `symmetric`
/// (two runs of the same code) on any difference beyond the bound.
pub fn compare(base: &Path, new: &Path, symmetric: bool) -> Result<ExitCode, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (base, new) = (load(base)?, load(new)?);
    println!(
        "{:<17} {:<25} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    let mut failed = false;
    for (workload, _) in base.get("workloads").map_or(&[][..], Json::as_obj) {
        for def in &END_TO_END {
            let (b, n) = (
                side(&base, workload, def.name),
                side(&new, workload, def.name),
            );
            if b.is_none() && n.is_none() {
                continue; // does not apply to this workload
            }
            let v = verdict(def, b, n);
            failed |= v == Verdict::Worse || (symmetric && v != Verdict::Same);
            let show =
                |s: Option<Side>| s.map_or("null".to_string(), |s| format!("{:.4}", s.median));
            let ratio = match (b, n) {
                (Some(b), Some(n)) if b.median != 0.0 => format!("{:.3}", n.median / b.median),
                _ => "-".to_string(),
            };
            println!(
                "{workload:<17} {:<25} {:>14} {:>14} {ratio:>8}  {} (bound {:.0} %, {} is better)",
                def.name,
                show(b),
                show(n),
                v.name(),
                def.bound * 100.0,
                def.better.name(),
            );
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables in `report.rs` must say the same.
    #[test]
    fn benchmark_json_agrees_with_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(default_seconds() as f64)
        );
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .map_or(&[][..], Json::as_arr)
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        let listed: Vec<_> = END_TO_END.iter().filter(|m| m.every_workload).collect();
        assert_eq!(
            names("end_to_end"),
            listed.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (spec, def) in spec.get("end_to_end").unwrap().as_arr().iter().zip(listed) {
            assert_eq!(spec.get("unit").unwrap().as_str(), Some(def.unit));
            assert_eq!(spec.get("bound").unwrap().as_f64(), Some(def.bound));
            assert_eq!(
                spec.get("better").unwrap().as_str(),
                Some(def.better.name())
            );
        }
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (spec, def) in spec
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(spec.get("unit").unwrap().as_str(), Some(def.1));
            assert_eq!(spec.get("better").unwrap().as_str(), Some(def.2.name()));
        }
    }

    #[test]
    fn fold_reports_median_and_spread_over_repetitions() {
        let run = |v: f64| {
            Json::obj([(
                "metrics",
                Json::obj([(
                    "m",
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str("us"))]),
                )]),
            )])
        };
        let one = fold("m", &[run(5.0)]);
        assert_eq!(one.get("median"), Some(&Json::Num(5.0)));
        assert_eq!(one.get("spread"), Some(&Json::Null));
        let four = fold("m", &[run(10.0), run(12.0), run(8.0), run(10.0)]);
        assert_eq!(four.get("median"), Some(&Json::Num(10.0)));
        assert_eq!(four.get("spread"), Some(&Json::Num(0.2)));
        // A metric that does not apply stays null.
        let absent = fold("other", &[run(1.0)]);
        assert_eq!(absent.get("median"), Some(&Json::Null));
    }
}
