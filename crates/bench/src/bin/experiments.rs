//! Prints the experiment tables recorded in `EXPERIMENTS.md`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p congest-bench --bin experiments            # quick
//! cargo run --release -p congest-bench --bin experiments -- full    # full sweep
//! cargo run --release -p congest-bench --bin experiments -- full json  # + JSON dump
//! cargo run --release -p congest-bench --bin experiments -- list-algorithms
//! #   prints the solver registry with its capability flags
//! ```
//!
//! Any other argument is an error (exit status 2 and the usage line), so a
//! mistyped CI step cannot pass by printing the default tables.
//!
//! The tables are E1–E10 (the paper's bounds) and the E14 chaos matrix. Every
//! column is a simulated statistic: two runs print the same bytes. The
//! binary asserts nothing — the bars are `cargo test`'s —
//! and times nothing: host speed is the perf ledger's (`benchmark/`).
//!
//! All rows render through the generic `congest_bench::table` formatter, so
//! this binary contains no per-algorithm result plumbing — experiments are
//! registry iterations plus experiment-specific parameters (see
//! `congest_bench`).

#![forbid(unsafe_code)]

use congest_bench::json::{array, object};
use congest_bench::table::{render, TableRow};
use congest_bench::{
    e10_recursion, e14_chaos_matrix, e1_e3_sssp_comparison, e4_cutter, e5_energy_bfs,
    e6_energy_cssp, e7_apsp, e8_cover_quality, e9_spanning_forest, Scale,
};
use congest_sssp::registry;

const USAGE: &str = "usage: experiments [full] [json] | list-algorithms";

/// What one invocation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// Print the solver registry and the engine's model parameters.
    ListAlgorithms,
    /// Print the experiment tables, optionally followed by a JSON dump.
    Tables { scale: Scale, json: bool },
}

/// Parses the argument list (program name excluded). Every word must be
/// known: an unknown one is an error, never a silent default.
fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Command, String> {
    let (mut scale, mut json) = (Scale::Quick, false);
    for arg in args {
        match arg.as_ref() {
            "full" => scale = Scale::Full,
            "json" => json = true,
            "list-algorithms" if args.len() == 1 => return Ok(Command::ListAlgorithms),
            "list-algorithms" => return Err("`list-algorithms` takes no other argument".into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Tables { scale, json })
}

/// Prints one titled markdown table.
fn print_section<R: TableRow>(title: &str, rows: &[R]) {
    println!("\n## {title}\n");
    print!("{}", render(rows));
}

/// Registry smoke: every algorithm the Solver facade can run, with its
/// capability flags (used by CI and by sweep tooling).
fn list_algorithms() {
    println!("# Algorithm registry ({} algorithms)\n", registry().len());
    print!("{}", render(registry()));
    // The model these algorithms run under, so a CI log records its
    // parameters next to the registry: the CONGEST bound is two constants,
    // and the round limit is the one setting.
    let sim = congest_sim::SimConfig::default();
    println!("\n# Engine model\n");
    println!("- words per message: {} (Words::CAPACITY)", congest_sim::Words::CAPACITY);
    println!("- messages per edge direction per round: 1");
    println!("- max_rounds: {} (default)", sim.max_rounds);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, json) = match parse_args(&args) {
        Ok(Command::ListAlgorithms) => return list_algorithms(),
        Ok(Command::Tables { scale, json }) => (scale, json),
        Err(e) => {
            eprintln!("experiments: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    println!("# Experiment tables ({scale:?} scale)");

    let e1 = e1_e3_sssp_comparison(scale);
    print_section("E1-E3: SSSP time, congestion, and messages vs baselines", &e1);
    let e4 = e4_cutter(scale);
    print_section("E4: approximate cutter (Lemma 2.1)", &e4);
    let e5 = e5_energy_bfs(scale);
    print_section("E5: low-energy BFS vs always-awake BFS", &e5);
    let e6 = e6_energy_cssp(scale);
    print_section("E6: low-energy weighted CSSP vs always-awake Bellman-Ford", &e6);
    let e7 = e7_apsp(scale);
    print_section("E7: APSP via random-delay scheduling", &e7);
    let e8 = e8_cover_quality(scale);
    print_section("E8: sparse-cover quality", &e8);
    let e9 = e9_spanning_forest(scale);
    print_section("E9: maximal spanning forest (Boruvka)", &e9);
    let e10 = e10_recursion(scale);
    print_section("E10: recursion structure (Lemma 2.4 / Corollary 2.5)", &e10);
    let e14 = e14_chaos_matrix(scale);
    print_section("E14: chaos degradation matrix (fault injection)", &e14);

    if json {
        let dump = object(&[
            ("registry", array(registry())),
            ("e1_e3", array(&e1)),
            ("e4", array(&e4)),
            ("e5", array(&e5)),
            ("e6", array(&e6)),
            ("e7", array(&e7)),
            ("e8", array(&e8)),
            ("e9", array(&e9)),
            ("e10", array(&e10)),
            ("e14", array(&e14)),
        ]);
        println!("\n## JSON\n");
        println!("{dump}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_words_parse_in_any_order() {
        let quick = Command::Tables { scale: Scale::Quick, json: false };
        assert_eq!(parse_args::<&str>(&[]), Ok(quick));
        assert_eq!(parse_args(&["full"]), Ok(Command::Tables { scale: Scale::Full, json: false }));
        assert_eq!(parse_args(&["json"]), Ok(Command::Tables { scale: Scale::Quick, json: true }));
        for args in [["full", "json"], ["json", "full"]] {
            assert_eq!(parse_args(&args), Ok(Command::Tables { scale: Scale::Full, json: true }));
        }
        assert_eq!(parse_args(&["list-algorithms"]), Ok(Command::ListAlgorithms));
    }

    #[test]
    fn unknown_words_are_errors_not_defaults() {
        // A mistyped or retired word must fail the CI step that carries it,
        // not print the default tables and exit 0.
        for arg in ["engin-json", "engine-json", "chaos-json", "--threads", "Full", ""] {
            let err = parse_args(&[arg]).expect_err(arg);
            assert!(err.contains(arg), "{err}");
            assert!(parse_args(&["full", arg]).is_err(), "{arg} after a known word");
        }
        assert!(parse_args(&["list-algorithms", "full"]).is_err());
        assert!(parse_args(&["json", "list-algorithms"]).is_err());
    }
}
