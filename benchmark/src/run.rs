//! The measuring loop: set-ups, warm-up, timed rounds in which every selected
//! workload runs one batch round-robin, a few counted batches, and (with
//! tracing on) the layer replays; then the results as a table, a file and one
//! JSON line per workload.
//!
//! Closed loop, one client: a round's next batch starts when the previous
//! one has been checked.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::alloc::{self, AllocCount};
use crate::calibrate::Timing;
use crate::decl::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::trace::{LayerCx, Spans};
use crate::workloads::{self, Built, Checked, Sim, Workload};

/// Set-ups per run, at least; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// A cheap set-up (most take under a millisecond) is repeated until this
/// much time has gone into set-ups, or `MAX_SETUPS` were made: the median of
/// three half-millisecond samples is not a steady number.
const SETUP_BUDGET: Duration = Duration::from_millis(500);
const MAX_SETUPS: usize = 25;
/// Untimed rounds before the clock starts (sizing the issue, the first
/// `Engine::run` on a fresh 200k-node graph took 974 ms, the third 205 ms).
const WARMUP_ROUNDS: usize = 2;
/// Timed rounds made even when the time budget is already spent.
const MIN_ROUNDS: usize = 5;
/// Rounds with allocation counting on, after the timed ones.
const COUNTED_ROUNDS: usize = 3;

pub struct Options {
    /// Names from [`crate::decl::WORKLOADS`], in the order they run.
    pub workloads: Vec<&'static str>,
    pub seed: u64,
    /// Measured time per selected workload.
    pub seconds: f64,
    /// Run the layer replays and report per-layer metrics.
    pub trace: bool,
    /// Tiny sizes, for the smoke test.
    pub quick: bool,
    /// `key=value` pairs copied into the results file (commit, rustc).
    pub stamps: Vec<(String, String)>,
    /// Where the results file goes; `trace.json` goes beside it.
    pub results: PathBuf,
}

/// One workload's numbers.
pub struct WorkloadResult {
    pub name: &'static str,
    /// Answers checked over every batch of the run.
    pub attempted: u64,
    /// Answers that failed their check, plus batches whose simulated
    /// statistics or answer count differ from the first batch.
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Present after a traced run.
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
    /// Run-to-run spread inside this invocation, in % of the median, for the
    /// metrics that have one.
    pub spread_pct: BTreeMap<&'static str, f64>,
    /// Declared names without a value, and emitted names nobody declared.
    pub undeclared_or_missing: Vec<String>,
    /// Every timed round as the clock read it: `(kernel_ms, batch wall_ms)`.
    pub rounds: Vec<(f64, f64)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.undeclared_or_missing.is_empty()
    }

    /// The contract's result line: end-to-end metrics, or per-layer metrics
    /// after a traced run.
    pub fn result_line(&self) -> Json {
        let (decls, values) = match &self.per_layer {
            Some(per_layer) => (PER_LAYER, per_layer),
            None => (END_TO_END, &self.end_to_end),
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(decls, values, None)),
        ])
    }
}

fn metrics_json(
    decls: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
    spread_pct: Option<&BTreeMap<&'static str, f64>>,
) -> Json {
    Json::obj(decls.iter().filter_map(|&(name, unit)| {
        let value = *values.get(name)?;
        let mut fields = vec![("value", Json::Num(value)), ("unit", Json::str(unit))];
        if let Some(spread) = spread_pct.and_then(|s| s.get(name)) {
            fields.push(("spread_pct", Json::Num(*spread)));
        }
        Some((name, Json::obj(fields)))
    }))
}

/// The `q`-quantile of samples, by linear interpolation.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn iqr_pct(samples: &[f64]) -> f64 {
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / median(samples) * 100.0
}

fn calibrated(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| t.calibrated_ms()).collect()
}

/// One workload while it is being measured.
struct Running {
    name: &'static str,
    workload: Box<dyn Workload>,
    setups: Vec<Timing>,
    generate_ms: Vec<f64>,
    truth_ms: Vec<f64>,
    /// Simulated statistics and checked answers of the first batch.
    first: Option<(Sim, Checked)>,
    batches: Vec<Timing>,
    verify_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Running {
    fn set_up(name: &'static str, seed: u64, quick: bool) -> Running {
        let mut setups = Vec::new();
        let mut generate_ms = Vec::new();
        let mut truth_ms = Vec::new();
        let mut built: Option<Built> = None;
        let start = Instant::now();
        while setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && start.elapsed() < SETUP_BUDGET)
        {
            // Drop the previous copy first, outside the timing: a second live
            // copy of a 2M-pair set-up would time the allocator as well.
            drop(built.take());
            let (b, timing) = Timing::of(|| workloads::build(name, seed, quick));
            setups.push(timing);
            generate_ms.push(b.generate_ms);
            truth_ms.push(b.truth_ms);
            built = Some(b);
        }
        Running {
            name,
            workload: built.expect("MIN_SETUPS > 0").workload,
            setups,
            generate_ms,
            truth_ms,
            first: None,
            batches: Vec::new(),
            verify_ms: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// One batch, then its check with the clock stopped. With `traced`, the
    /// batch runs with allocation counting on and inside a span. Returns the
    /// batch's timing and allocation counts.
    fn round(&mut self, traced: Option<&mut Spans>) -> (Timing, AllocCount) {
        let (name, workload) = (self.name, &mut self.workload);
        let ((sim, counted), timing) = match traced {
            Some(spans) => Timing::around(|| {
                spans.record(name, "batch (allocations counted)", None, |_, _| {
                    alloc::counted(|| workload.batch())
                })
            }),
            None => Timing::of(|| (workload.batch(), AllocCount::default())),
        };
        let t = Instant::now();
        let checked = self.workload.check();
        self.verify_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.attempted += checked.total;
        self.failed += checked.failed;
        let first = *self.first.get_or_insert((sim, checked));
        if first != (sim, checked) {
            self.failed += 1;
        }
        (timing, counted)
    }

    /// `counted` and `counted_batches` are what the counted rounds returned.
    fn finish(
        mut self,
        counted: AllocCount,
        counted_batches: &[Timing],
        traced: Option<&mut Spans>,
    ) -> WorkloadResult {
        let (sim, checked) = self.first.expect("at least one batch ran");
        let batch_cal = calibrated(&self.batches);
        let batch_ms = median(&batch_cal);
        let setup_cal = calibrated(&self.setups);
        let setup_s = median(&setup_cal) / 1e3;

        let mut end_to_end = BTreeMap::new();
        end_to_end.insert("setup_s", setup_s);
        end_to_end.insert("batch_ms", batch_ms);
        end_to_end.insert("peak_heap_mb", counted.peak_live_bytes as f64 / 1e6);
        end_to_end.insert("sim_rounds", sim.rounds as f64);
        end_to_end.insert("sim_messages", sim.messages as f64);
        end_to_end.insert("max_congestion", sim.max_congestion as f64);
        end_to_end.insert("max_energy", sim.max_energy as f64);
        end_to_end.insert("mean_stretch", checked.mean_stretch());
        end_to_end.insert("ops_total", checked.total as f64);
        let mut undeclared_or_missing: Vec<String> = END_TO_END
            .iter()
            .filter(|(name, _)| !end_to_end.contains_key(name))
            .map(|(name, _)| format!("missing {name}"))
            .collect();

        let mut spread_pct = BTreeMap::new();
        spread_pct.insert("batch_ms", iqr_pct(&batch_cal));
        spread_pct.insert("setup_s", iqr_pct(&setup_cal));

        let per_layer = traced.map(|spans| {
            let name = self.name;
            let workload = &mut self.workload;
            let (mut metrics, _) = spans.record(name, "layer replays", None, |spans, root| {
                let mut cx = LayerCx::new(spans, name, root, batch_ms, sim, counted);
                workloads::generic_layers(workload.graph(), &mut cx);
                workload.layers(&mut cx);
                let unattributed = cx.unattributed_ms();
                cx.put("sssp.unattributed_ms", unattributed);
                cx.metrics
            });
            let walls: Vec<f64> = self.batches.iter().map(|t| t.wall_ms).collect();
            let kernels: Vec<f64> = self.batches.iter().map(|t| t.kernel_ms).collect();
            metrics.insert("oracle.max_stretch", checked.max_stretch);
            metrics.insert("graph.generate_ms", median(&self.generate_ms));
            metrics.insert("graph.truth_ms", median(&self.truth_ms));
            metrics.insert("harness.rounds", walls.len() as f64);
            metrics.insert("harness.kernel_median_ms", median(&kernels));
            metrics.insert("harness.batch_min_ms", quantile(&walls, 0.0));
            metrics.insert("harness.batch_median_ms", median(&walls));
            metrics.insert("harness.batch_p90_ms", quantile(&walls, 0.9));
            metrics.insert("harness.batch_iqr_pct", iqr_pct(&walls));
            metrics.insert("harness.verify_ms", median(&self.verify_ms));
            let counted_ms = median(&calibrated(counted_batches));
            metrics
                .insert("harness.trace_overhead_pct", (counted_ms - batch_ms) / batch_ms * 100.0);
            metrics.insert("harness.host_cores", host_cores() as f64);
            undeclared_or_missing.extend(
                metrics
                    .keys()
                    .filter(|name| !PER_LAYER.iter().any(|(declared, _)| declared == *name))
                    .map(|name| format!("undeclared {name}")),
            );
            // A layer this workload's batch never enters costs it nothing.
            for (name, _) in PER_LAYER {
                metrics.entry(name).or_insert(0.0);
            }
            metrics
        });

        WorkloadResult {
            name: self.name,
            attempted: self.attempted,
            failed: self.failed,
            end_to_end,
            per_layer,
            spread_pct,
            undeclared_or_missing,
            rounds: self.batches.iter().map(|t| (t.kernel_ms, t.wall_ms)).collect(),
        }
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Measures the selected workloads. Returns their results and the spans of
/// the traced pass.
pub fn run(opts: &Options) -> (Vec<WorkloadResult>, Spans) {
    let mut running: Vec<Running> =
        opts.workloads.iter().map(|&name| Running::set_up(name, opts.seed, opts.quick)).collect();

    for _ in 0..WARMUP_ROUNDS {
        for w in &mut running {
            w.round(None);
        }
    }
    // In each round every workload runs one batch, so a workload's samples
    // are spread over the whole invocation, not packed into one noisy phase.
    let budget = Duration::from_secs_f64(opts.seconds * running.len() as f64);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        for w in &mut running {
            let (timing, _) = w.round(None);
            w.batches.push(timing);
        }
        rounds += 1;
    }

    let mut spans = Spans::new();
    let results = running
        .into_iter()
        .map(|mut w| {
            // A few more batches with allocation counting on and a span
            // around each: the heap numbers (the same every time), and what
            // counting and tracing cost.
            let mut counted = AllocCount::default();
            let timings: Vec<Timing> = (0..COUNTED_ROUNDS)
                .map(|_| {
                    let (timing, count) = w.round(Some(&mut spans));
                    counted = count;
                    timing
                })
                .collect();
            w.finish(counted, &timings, opts.trace.then_some(&mut spans))
        })
        .collect();
    (results, spans)
}

/// Prints every workload × metric by name with its unit.
pub fn print_table(results: &[WorkloadResult]) {
    for r in results {
        let end_to_end = END_TO_END.iter().map(|d| (d, r.end_to_end.get(d.0)));
        let per_layer =
            PER_LAYER.iter().map(|d| (d, r.per_layer.as_ref().and_then(|m| m.get(d.0))));
        for ((name, unit), value) in end_to_end.chain(per_layer) {
            if let Some(v) = value {
                println!("{:<15} {:<34} {:>16.6} {}", r.name, name, v, unit);
            }
        }
        println!("{:<15} {:<34} {:>16} count", r.name, "ops_failed", r.failed);
        for problem in &r.undeclared_or_missing {
            println!("{:<15} METRIC ERROR: {problem}", r.name);
        }
    }
}

/// The results file: the host stamp and every workload's numbers.
pub fn results_json(opts: &Options, results: &[WorkloadResult]) -> Json {
    let mut host = vec![
        ("cores".to_string(), Json::Num(host_cores() as f64)),
        ("seed".to_string(), Json::Num(opts.seed as f64)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        ("quick".to_string(), Json::Bool(opts.quick)),
    ];
    host.extend(opts.stamps.iter().map(|(k, v)| (k.clone(), Json::str(v))));
    let workloads = results
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("name", Json::str(r.name)),
                ("correct", Json::Bool(r.correct())),
                ("attempted", Json::Num(r.attempted as f64)),
                ("failed", Json::Num(r.failed as f64)),
                ("end_to_end", metrics_json(END_TO_END, &r.end_to_end, Some(&r.spread_pct))),
            ];
            if let Some(per_layer) = &r.per_layer {
                fields.push(("per_layer", metrics_json(PER_LAYER, per_layer, None)));
            }
            let pair = |&(kernel_ms, wall_ms): &(f64, f64)| {
                Json::Arr(vec![Json::Num(kernel_ms), Json::Num(wall_ms)])
            };
            fields.push((
                "rounds_kernel_ms_batch_ms",
                Json::Arr(r.rounds.iter().map(pair).collect()),
            ));
            Json::obj(fields)
        })
        .collect();
    Json::obj([("host", Json::Obj(host)), ("workloads", Json::Arr(workloads))])
}
