//! `compare A.json B.json`: one row per workload × end-to-end metric with the
//! change from A to B, the bound `./BENCHMARK.json` fixes for it, and a
//! verdict.
//!
//! A pair of single runs cannot show a gain (that takes ≥ 10 alternating
//! pairs, see the README); this shows what moved and what cannot be told
//! apart from noise.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `value` and recorded `spread_pct` of metric `name` of workload `workload`.
fn metric(results: &Json, workload: &str, name: &str) -> Option<(f64, f64)> {
    let w = results
        .get("workloads")?
        .items()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?;
    let m = w.get("end_to_end")?.get(name)?;
    Some((m.get("value")?.as_f64()?, m.get("spread_pct").and_then(Json::as_f64).unwrap_or(0.0)))
}

pub fn command(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes exactly two results files".to_string());
    };
    let (a, b, decl) = (load(a_path)?, load(b_path)?, load("BENCHMARK.json")?);

    println!(
        "{:<15} {:<15} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    let mut regressions = 0;
    for w in decl.get("workloads").map_or(&[][..], Json::items) {
        let Some(workload) = w.get("name").and_then(Json::as_str) else { continue };
        for m in decl.get("end_to_end").map_or(&[][..], Json::items) {
            let (Some(name), Some(bound)) =
                (m.get("name").and_then(Json::as_str), m.get("bound").and_then(Json::as_f64))
            else {
                continue;
            };
            let (Some((va, spread_a)), Some((vb, spread_b))) =
                (metric(&a, workload, name), metric(&b, workload, name))
            else {
                println!("{workload:<15} {name:<15} absent from one of the files");
                continue;
            };
            let lower_is_better = m.get("better").and_then(Json::as_str) != Some("higher");
            let delta = (vb - va) / va;
            let worsening = if lower_is_better { delta } else { -delta };
            let verdict = if spread_a.max(spread_b) > bound * 100.0 {
                "unresolved"
            } else if worsening > bound {
                regressions += 1;
                "REGRESSION"
            } else if delta == 0.0 {
                "same"
            } else {
                "within bound"
            };
            println!(
                "{workload:<15} {name:<15} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}%  {verdict}",
                delta * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
