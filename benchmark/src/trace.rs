//! Spans of the traced pass, and the context a workload's layer replays
//! write their timings and metrics into.
//!
//! The harness cannot see inside `Solver::run`, so a layer's time is a
//! *replay* of that layer's public call on the batch's own inputs, made after
//! the timed rounds. Spans stay in memory until the run ends. A span holds
//! what the clock read; the metrics made from replays are calibrated like
//! every other time of the ledger (see [`crate::calibrate`]).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc::AllocCount;
use crate::calibrate::Timing;
use crate::json::Json;
use crate::workloads::Sim;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub workload: &'static str,
}

/// All spans of one invocation, on one clock.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    /// Runs `f`, which gets the new span's index for its own children, inside
    /// a new span; returns its result and the span's duration in milliseconds.
    pub fn record<T>(
        &mut self,
        workload: &'static str,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Spans, usize) -> T,
    ) -> (T, f64) {
        let index = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            workload,
        });
        let out = f(self, index);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[index].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("workload", Json::str(s.workload)),
                    ])
                })
                .collect(),
        )
    }
}

/// What a workload's `layers` sees: the numbers the timed rounds and the
/// counted batch produced, and where to put its own.
pub struct LayerCx<'a> {
    spans: &'a mut Spans,
    workload: &'static str,
    parent: usize,
    /// Per-layer metrics by declared name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The end-to-end `batch_ms` of this workload.
    pub batch_ms: f64,
    /// Simulated statistics of one batch.
    pub sim: Sim,
    /// Allocation counts of the counted batch.
    pub counted: AllocCount,
    /// Replay time of calls that are disjoint parts of the batch.
    attributed_ms: f64,
}

impl<'a> LayerCx<'a> {
    pub fn new(
        spans: &'a mut Spans,
        workload: &'static str,
        parent: usize,
        batch_ms: f64,
        sim: Sim,
        counted: AllocCount,
    ) -> Self {
        LayerCx {
            spans,
            workload,
            parent,
            metrics: BTreeMap::new(),
            batch_ms,
            sim,
            counted,
            attributed_ms: 0.0,
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds to a metric that sums several replays.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_insert(0.0) += value;
    }

    /// Times a replay that is *not* a part of the batch (a probe of a layer's
    /// fixed cost, or an alternative way of doing the whole batch). Returns
    /// calibrated milliseconds, the unit of `batch_ms`; the span keeps the
    /// clock's own reading.
    pub fn probe<T>(&mut self, span: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let name = format!("replay:{span}");
        let (out, timing) = Timing::around(|| {
            self.spans.record(self.workload, &name, Some(self.parent), |_, _| f())
        });
        (out, timing.calibrated_ms())
    }

    /// Times a replay of a call the batch itself makes once; parts are
    /// disjoint, so their sum is the attributed share of the batch.
    pub fn part<T>(&mut self, span: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, ms) = self.probe(span, f);
        self.attributed_ms += ms;
        (out, ms)
    }

    /// For a batch that is nothing but calls of one public function: there
    /// is nothing to replay, all of it is attributed.
    pub fn whole_batch_is_one_call(&mut self) {
        self.attributed_ms = self.batch_ms;
    }

    /// Median calibrated milliseconds of `reps` calls of `f`, under one span
    /// and one pair of kernel runs.
    pub fn probe_median(&mut self, span: &str, reps: usize, mut f: impl FnMut()) -> f64 {
        let name = format!("replay:{span}");
        let (mut samples, timing) = Timing::around(|| {
            self.spans.record(self.workload, &name, Some(self.parent), |_, _| {
                (0..reps)
                    .map(|_| {
                        let t = Instant::now();
                        f();
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .collect::<Vec<f64>>()
            })
        });
        samples.sort_by(f64::total_cmp);
        timing.calibrate(samples[samples.len() / 2])
    }

    /// The batch time no replayed part explains.
    pub fn unattributed_ms(&self) -> f64 {
        self.batch_ms - self.attributed_ms
    }
}
