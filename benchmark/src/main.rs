//! The repo's perf ledger. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [run] [--workload NAME]… [--seed S] [--seconds T] [--trace 0|1]
//!           [--quick] [--stamp KEY=VALUE]… [--results FILE]
//! benchmark compare A.json B.json
//! ```

mod alloc;
mod calibrate;
mod compare;
mod decl;
mod json;
mod run;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use decl::WORKLOADS;
use run::Options;

const USAGE: &str = "usage:
  benchmark [run] [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1]
            [--quick] [--stamp KEY=VALUE]... [--results FILE]
  benchmark compare A.json B.json";

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        stamps: Vec::new(),
        results: PathBuf::from("benchmark/out/results.json"),
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|(name, _)| name == value);
                opts.workloads.push(known.ok_or_else(bad)?.0);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--stamp" => {
                let (k, v) = value.split_once('=').ok_or_else(bad)?;
                opts.stamps.push((k.to_string(), v.to_string()));
            }
            "--results" => opts.results = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().map(|(name, _)| *name).collect();
    }
    opts.seconds = seconds.unwrap_or(if opts.quick { 0.0 } else { 10.0 });
    Ok(opts)
}

fn write(path: &Path, text: String) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_run(args)?;
    // `SIM_THREADS` overrides every `SimConfig::threads` in the crates; the
    // ledger's numbers are 1-thread numbers.
    if std::env::var_os("SIM_THREADS").is_some() {
        return Err("unset SIM_THREADS: the ledger measures 1 thread".to_string());
    }
    let (results, spans) = run::run(&opts);
    run::print_table(&results);
    // Files first, verdict after: a failing run still leaves its numbers.
    write(&opts.results, format!("{}\n", run::results_json(&opts, &results)))?;
    write(&opts.results.with_file_name("trace.json"), format!("{}\n", spans.to_json()))?;
    for r in &results {
        println!("{}", r.result_line());
    }
    let ok = results.iter().all(run::WorkloadResult::correct);
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::command(&args[1..]),
        Some("run") => run_command(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => run_command(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests;
