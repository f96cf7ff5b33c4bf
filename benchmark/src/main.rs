//! The repo's benchmark. Three ways in, all through `benchmark/run.sh`:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints one JSON object as the last line;
//! * no `--trace` runs the suite: every workload in a process of its own,
//!   untraced and then traced, and writes `benchmark/out/result.json`;
//! * `compare A.json B.json` holds two suite results against the bounds.

mod drive;
mod gen;
mod json;
mod layers;
mod oracle;
mod pace;
mod report;
mod run;
mod setup;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::Workload;
use run::RunOpts;

/// `--name value` pairs and bare words, in order.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>, switches: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            words: Vec::new(),
            flags: Vec::new(),
            switches: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => out.switches.push(name.to_string()),
                Some(name) => {
                    let value = args.next().ok_or(format!("--{name} needs a value"))?;
                    out.flags.push((name.to_string(), value));
                }
                None => out.words.push(arg),
            }
        }
        Ok(out)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flag(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
            None => Ok(default),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.flag("workload")
            .map(|name| {
                Workload::from_name(name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })
            })
            .transpose()
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1), &["force", "symmetric"])?;
    if args.words.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.words.as_slice() else {
            return Err("usage: compare BASE.json NEW.json [--symmetric]".into());
        };
        let symmetric = args.switches.iter().any(|s| s == "symmetric");
        return suite::compare(base.as_ref(), new.as_ref(), symmetric);
    }
    if let Some(word) = args.words.first() {
        return Err(format!("unexpected argument {word}"));
    }
    if cfg!(debug_assertions) {
        return Err("this is a debug build; the benchmark measures release builds only".into());
    }
    let out_dir = PathBuf::from(args.flag("out-dir").unwrap_or("benchmark/out"));
    let seed = args.number("seed", 1)?;
    let seconds = args
        .number("seconds", suite::default_seconds())?
        .clamp(1, 60);
    match args.flag("trace") {
        Some(trace) => {
            let opts = RunOpts {
                workload: args
                    .workload()?
                    .ok_or("--workload is required with --trace")?,
                seed,
                seconds,
                traced: match trace {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                },
                out_dir,
            };
            let report = run::run(&opts)?;
            report.print_lines();
            std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
            let file = opts.out_dir.join(format!(
                "{}.trace{}.json",
                report.workload, report.traced as u8
            ));
            std::fs::write(&file, report.detail_json().render_pretty())
                .map_err(|e| format!("{}: {e}", file.display()))?;
            println!("{}", report.result_line());
            // A wrong answer is in the result line; the exit code stays 0
            // so that the line is read. The suite turns it into a failure.
            Ok(ExitCode::SUCCESS)
        }
        None => suite::run(&suite::SuiteOpts {
            only: args.workload()?,
            seed,
            seconds,
            reps: args.number("reps", 1)?.max(1) as usize,
            force: args.switches.iter().any(|s| s == "force"),
            out_dir,
        }),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("evopt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
