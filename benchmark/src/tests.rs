//! The `--quick` smoke: every workload at tiny sizes, a handful of rounds.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::decl::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Json;
use crate::run::{self, Options, WorkloadResult};
use crate::workloads;

/// The counting allocator is process-wide and `cargo test` runs tests on
/// parallel threads: anything that runs a workload holds this lock, so one
/// test's allocations never land in another's counted batch.
pub(crate) fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn quick(seed: u64) -> Vec<WorkloadResult> {
    let _serial = serial();
    let opts = Options {
        workloads: WORKLOADS.iter().map(|(name, _)| *name).collect(),
        seed,
        seconds: 0.0,
        trace: true,
        quick: true,
        stamps: Vec::new(),
        results: PathBuf::new(),
    };
    run::run(&opts).0
}

/// One shared smoke run at seed 1.
fn first_run() -> &'static [WorkloadResult] {
    static RUN: OnceLock<Vec<WorkloadResult>> = OnceLock::new();
    RUN.get_or_init(|| quick(1))
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` or `(name, why)` pairs of one list of `BENCHMARK.json`.
fn declared(list: &Json, second: &str) -> Vec<(String, String)> {
    let field = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} in {item}"))
            .to_string()
    };
    list.items().iter().map(|item| (field(item, "name"), field(item, second))).collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect()
}

#[test]
fn benchmark_json_declares_what_the_harness_emits() {
    let decl = benchmark_json();
    assert_eq!(declared(decl.get("workloads").unwrap(), "why"), owned(WORKLOADS));
    assert_eq!(declared(decl.get("end_to_end").unwrap(), "unit"), owned(END_TO_END));
    assert_eq!(declared(decl.get("per_layer").unwrap(), "unit"), owned(PER_LAYER));
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(!name.is_empty() && name.chars().all(legal), "metric name {name:?}");
        assert!(!unit.is_empty(), "{name} has no unit");
        assert!(seen.insert(name), "{name} is declared twice");
    }
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let results = first_run();
    assert_eq!(results.len(), WORKLOADS.len());
    for r in results {
        assert!(r.correct(), "{}: failed {} {:?}", r.name, r.failed, r.undeclared_or_missing);
        assert!(r.attempted > 0, "{}", r.name);
        for (name, _) in END_TO_END {
            let v = r.end_to_end.get(name).unwrap_or_else(|| panic!("{}: no {name}", r.name));
            assert!(
                v.is_finite() && *v > 0.0,
                "{}: {name} = {v}; end-to-end metrics are never 0",
                r.name
            );
        }
        let per_layer = r.per_layer.as_ref().expect("a traced run reports its layers");
        for (name, _) in PER_LAYER {
            let v = per_layer.get(name).unwrap_or_else(|| panic!("{}: no {name}", r.name));
            assert!(v.is_finite(), "{}: {name} = {v}", r.name);
        }
        // The contract's result line: exactly these keys, metrics with units.
        let line = Json::parse(&r.result_line().to_string()).unwrap();
        let Json::Obj(fields) = &line else { panic!("the result line is an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("metrics is an object") };
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|(_, m)| m.get("value").is_some() && m.get("unit").is_some()));
    }
    // The workload separation the ledger rests on, at smoke size: a layer's
    // time shows only where the batch enters that layer.
    let layer = |workload: &str, name: &str| {
        results.iter().find(|r| r.name == workload).unwrap().per_layer.as_ref().unwrap()[name]
    };
    for (workload, _) in WORKLOADS {
        let scheduled = layer(workload, "sim.schedule_ms") > 0.0;
        assert_eq!(scheduled, *workload == "apsp-random", "{workload}");
    }
    assert!(layer("lowenergy-grid", "cover.layered_construct_ms") > 0.0);
    assert!(layer("oracle-build", "cover.sparse_construct_ms") > 0.0);
    assert!(layer("sssp-random", "sssp.cutter_share_est") > 0.0);
}

/// Everything in the end-to-end list that is not a host time.
const REPEATABLE: &[&str] = &[
    "peak_heap_mb",
    "sim_rounds",
    "sim_messages",
    "max_congestion",
    "max_energy",
    "mean_stretch",
    "ops_total",
];

#[test]
fn the_same_seed_repeats_exactly() {
    let (a, b) = (first_run(), quick(1));
    for (a, b) in a.iter().zip(&b) {
        assert_eq!(a.attempted, b.attempted, "{}", a.name);
        for name in REPEATABLE {
            assert_eq!(a.end_to_end[name], b.end_to_end[name], "{}: {name}", a.name);
        }
    }
}

#[test]
fn another_seed_makes_other_inputs() {
    let _serial = serial();
    for (name, _) in WORKLOADS {
        let a = workloads::build(name, 1, true).workload;
        let b = workloads::build(name, 2, true).workload;
        let other_graph = a.graph().edges() != b.graph().edges();
        let other_rest = a.seeded_inputs() != b.seeded_inputs();
        assert!(other_graph || other_rest, "{name}: seeds 1 and 2 generate the same inputs");
        let again = workloads::build(name, 1, true).workload;
        assert_eq!(a.graph().edges(), again.graph().edges(), "{name}");
        assert_eq!(a.seeded_inputs(), again.seeded_inputs(), "{name}");
    }
}
