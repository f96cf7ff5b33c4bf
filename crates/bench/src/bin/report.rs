//! Regenerate the paper-style tables and figures.
//!
//! ```text
//! cargo run -p evopt-bench --release --bin report -- all
//! cargo run -p evopt-bench --release --bin report -- t1 f3
//! cargo run -p evopt-bench --release --bin report -- --quick all
//! ```
//!
//! Access-path crossover, join-method choice, enumeration quality and cost
//! calibration are judged in one place, on counted work: `cargo test
//! --release --test plan_regret -- --nocapture` prints that table.
//!
//! Besides the rendered tables on stdout, every run writes
//! `BENCH_report.json` to the working directory: one record per
//! experiment with its wall time. (Engine counts per statement are the
//! repo benchmark's job now: `benchmark/`'s per-layer ledger.)

use evopt_bench::*;

/// One experiment's machine-readable record.
struct ExperimentRecord {
    id: &'static str,
    wall_s: f64,
}

impl ExperimentRecord {
    /// Hand-rolled JSON object — a bare identifier string and a number, so
    /// no escaping is needed.
    fn to_json(&self) -> String {
        format!("{{\"id\":\"{}\",\"wall_s\":{:.3}}}", self.id, self.wall_s)
    }
}

fn write_json(records: &[ExperimentRecord], quick: bool) {
    let body: Vec<String> = records
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let json = format!(
        "{{\n  \"quick\": {},\n  \"experiments\": [\n{}\n  ]\n}}\n",
        quick,
        body.join(",\n")
    );
    match std::fs::write("BENCH_report.json", &json) {
        Ok(()) => println!("wrote BENCH_report.json ({} experiments)", records.len()),
        Err(e) => eprintln!("could not write BENCH_report.json: {e}"),
    }
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let want = |id: &str| all || wanted.iter().any(|w| w == id);

    let mut records: Vec<ExperimentRecord> = Vec::new();
    macro_rules! experiment {
        ($id:literal, $module:ident) => {
            if want($id) {
                let params = if quick {
                    $module::Params::quick()
                } else {
                    $module::Params::full()
                };
                let started = std::time::Instant::now();
                let report = $module::run(&params);
                let wall_s = started.elapsed().as_secs_f64();
                println!("{}", report.render());
                println!("({} finished in {:.1}s)\n", $id, wall_s);
                records.push(ExperimentRecord { id: $id, wall_s });
            }
        };
    }

    experiment!("t1", t1);
    experiment!("t3", t3);
    experiment!("f1", f1);
    experiment!("f3", f3);
    experiment!("f4", f4);
    experiment!("f5", f5);
    experiment!("c1", c1);

    if records.is_empty() {
        eprintln!(
            "unknown experiment id(s) {wanted:?}; expected t1, t3, f1, f3, f4, f5, c1, or all"
        );
        return std::process::ExitCode::from(2);
    }
    write_json(&records, quick);
    std::process::ExitCode::SUCCESS
}
