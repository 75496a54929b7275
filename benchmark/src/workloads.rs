//! The seven workloads. Each is built from the harness seed in set-up (graph,
//! sources or query pairs, truth, and any prerequisite structure), runs one
//! identical batch per round, keeps the batch's answers until the clock has
//! stopped, and then compares them with the truth computed in set-up.
//!
//! Everything runs on one thread: the ledger is read on shared 2-core hosts.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use congest_cover::{geometric_levels, LayeredCover, SparseCover};
use congest_graph::{generators, sequential, Distance, EdgeId, Graph, NodeId};
use congest_oracle::{DistanceOracle, LevelBuilder, OracleConfig};
use congest_sim::scheduler::{random_delay_schedule, ScheduleConfig};
use congest_sim::workloads::{Flood, WaveBfs};
use congest_sim::{EdgeUsageTrace, Engine, Message, Metrics, NodeCtx, Protocol, SimConfig};
use congest_sssp::apsp::ApspConfig;
use congest_sssp::{
    approx, build_oracle, cssp, spanning_forest, thresholded, AlgoConfig, Algorithm, OracleBuild,
    RecursionReport, RunReport, Solver, SolverRun, SourceOffset,
};

use crate::trace::LayerCx;

/// SplitMix64: the harness's own generator, so inputs depend on `--seed` and
/// on nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn node(&mut self, n: u32) -> NodeId {
        NodeId((self.next() % u64::from(n)) as u32)
    }
}

/// The four simulated statistics of one batch. A change meant only to speed
/// up the host must leave them identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sim {
    pub rounds: u64,
    pub messages: u64,
    pub max_congestion: u64,
    pub max_energy: u64,
}

impl Sim {
    fn of_report(r: &RunReport) -> Sim {
        Sim {
            rounds: r.rounds,
            messages: r.messages,
            max_congestion: r.max_congestion,
            max_energy: r.max_energy,
        }
    }

    fn of_metrics(m: &Metrics) -> Sim {
        Sim {
            rounds: m.rounds,
            messages: m.messages,
            max_congestion: m.max_congestion(),
            max_energy: m.max_energy(),
        }
    }

    /// An oracle build composes many runs and keeps no per-node account.
    fn of_build(build: &OracleBuild) -> Sim {
        Sim {
            rounds: build.rounds,
            messages: build.messages,
            max_congestion: build.max_congestion,
            max_energy: 0,
        }
        .always_awake()
    }

    /// A batch of several runs, one after another on the same network:
    /// rounds and messages add, and so do each edge's messages and each
    /// node's awake rounds. A report carries only the maxima, so the batch's
    /// maxima are bounded by the sums of the per-run maxima, which is also
    /// far steadier from seed to seed than the largest single run.
    fn then(self, next: Sim) -> Sim {
        Sim {
            rounds: self.rounds + next.rounds,
            messages: self.messages + next.messages,
            max_congestion: self.max_congestion + next.max_congestion,
            max_energy: self.max_energy + next.max_energy,
        }
    }

    /// Compositions that keep no per-node account (APSP, the oracle build)
    /// report energy 0; they never sleep a node, so every node is awake for
    /// every round.
    fn always_awake(mut self) -> Sim {
        self.max_energy = self.rounds;
        self
    }
}

/// The outcome of comparing one batch's answers with the truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checked {
    /// Answers checked.
    pub total: u64,
    /// Answers that disagree with the truth, fall below it, or exceed the
    /// reported stretch bound.
    pub failed: u64,
    /// Largest answer ÷ truth seen.
    pub max_stretch: f64,
    /// Sum of answer ÷ truth over the answers with a finite, positive truth,
    /// and how many those are.
    stretch_sum: f64,
    stretch_count: u64,
}

impl Checked {
    fn new() -> Checked {
        Checked { total: 0, failed: 0, max_stretch: 1.0, stretch_sum: 0.0, stretch_count: 0 }
    }

    /// Mean answer ÷ truth (1 on exact workloads). The maximum hangs on one
    /// worst pair and moves by a factor of two between seeds; the mean does
    /// not.
    pub fn mean_stretch(&self) -> f64 {
        if self.stretch_count == 0 {
            1.0
        } else {
            self.stretch_sum / self.stretch_count as f64
        }
    }

    /// One answer that may overestimate the truth by at most `bound` times.
    fn within(&mut self, got: Distance, truth: Distance, bound: u64) {
        self.total += 1;
        match (got.finite(), truth.finite()) {
            (None, None) => {}
            (Some(g), Some(t)) if g >= t && g <= t.saturating_mul(bound) => {
                if t > 0 {
                    let stretch = g as f64 / t as f64;
                    self.max_stretch = self.max_stretch.max(stretch);
                    self.stretch_sum += stretch;
                    self.stretch_count += 1;
                }
            }
            _ => self.failed += 1,
        }
    }

    fn exact_all(&mut self, got: &[Distance], truth: &[Distance]) {
        assert_eq!(got.len(), truth.len(), "one answer per truth entry");
        for (&g, &t) in got.iter().zip(truth) {
            self.within(g, t, 1);
        }
    }

    /// One answer that is right or wrong, with no distance to compare.
    fn state(&mut self, ok: bool) {
        self.total += 1;
        self.failed += u64::from(!ok);
    }
}

pub trait Workload {
    /// The graph the generic layer probes run on.
    fn graph(&self) -> &Graph;
    /// The identical, fixed piece of work; keeps its answers for `check`.
    fn batch(&mut self) -> Sim;
    /// Compares the last batch's answers with the truth and drops them.
    fn check(&mut self) -> Checked;
    /// Replays the layer calls this workload's batch is made of.
    fn layers(&mut self, cx: &mut LayerCx<'_>);
    /// What the seed decided besides the graph (sources, query pairs, seeds
    /// handed on), for the test that another seed makes other inputs.
    #[cfg(test)]
    fn seeded_inputs(&self) -> Vec<u64>;
}

/// A workload ready to run, with how long its inputs took to make.
pub struct Built {
    pub workload: Box<dyn Workload>,
    pub generate_ms: f64,
    pub truth_ms: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn one_thread() -> AlgoConfig {
    AlgoConfig::default().with_threads(1)
}

/// One thread; the seed of the schedule's random delays comes from `rng`.
fn one_thread_apsp(rng: &mut Rng) -> ApspConfig {
    ApspConfig { threads: 1, seed: rng.next(), ..ApspConfig::default() }
}

const SOLVER_OK: &str = "generated inputs are valid for the solver";

/// Builds the workload `name` from `seed`; `quick` shrinks every size for the
/// smoke test. `name` must be one of [`crate::decl::WORKLOADS`].
pub fn build(name: &str, seed: u64, quick: bool) -> Built {
    let mut rng = Rng::new(seed);
    match name {
        "sssp-random" => SsspRandom::build(&mut rng, quick),
        "apsp-random" => ApspRandom::build(&mut rng, quick),
        "oracle-build" => OracleBuildWl::build(&mut rng, quick),
        "oracle-query" => OracleQuery::build(&mut rng, quick),
        "lowenergy-grid" => LowEnergyGrid::build(&mut rng, quick),
        "engine-flood" => EngineFlood::build(&mut rng, quick),
        "engine-wave" => EngineWave::build(&mut rng, quick),
        other => panic!("unknown workload {other:?}"),
    }
}

/// `with_random_weights(random_connected(n, extra), 16)`: E12's graph shape.
fn random_weighted(rng: &mut Rng, n: u32, extra: u64) -> Graph {
    let topology = generators::random_connected(n, extra, rng.next());
    generators::with_random_weights(&topology, 16, rng.next())
}

// --- sssp-random ------------------------------------------------------------

struct SsspRandom {
    g: Graph,
    source: NodeId,
    truth: Vec<Distance>,
    last: Option<SolverRun>,
    recursion: Option<RecursionReport>,
}

impl SsspRandom {
    fn build(rng: &mut Rng, quick: bool) -> Built {
        let (n, extra) = if quick { (48, 96) } else { (512, 1024) };
        let ((g, source), generate_ms) = timed(|| {
            let g = random_weighted(rng, n, extra);
            let source = rng.node(n);
            (g, source)
        });
        let (truth, truth_ms) = timed(|| sequential::dijkstra(&g, &[source]).distances);
        let workload = SsspRandom { g, source, truth, last: None, recursion: None };
        Built { workload: Box::new(workload), generate_ms, truth_ms }
    }
}

impl Workload for SsspRandom {
    fn graph(&self) -> &Graph {
        &self.g
    }

    #[cfg(test)]
    fn seeded_inputs(&self) -> Vec<u64> {
        vec![u64::from(self.source.0)]
    }

    fn batch(&mut self) -> Sim {
        let run = Solver::on(&self.g)
            .algorithm(Algorithm::Cssp)
            .source(self.source)
            .config(one_thread())
            .run()
            .expect(SOLVER_OK);
        let sim = Sim::of_report(&run.report);
        self.last = Some(run);
        sim
    }

    fn check(&mut self) -> Checked {
        let run = self.last.take().expect("check follows batch");
        self.recursion = run.report.recursion;
        let mut checked = Checked::new();
        checked.exact_all(&run.output.distances, &self.truth);
        checked
    }

    fn layers(&mut self, cx: &mut LayerCx<'_>) {
        let g = &self.g;
        let cfg = one_thread();
        let sources = [SourceOffset::plain(self.source)];
        let w = g.distance_upper_bound().max(1);
        // The top-level subproblem of the recursion runs exactly one cutter
        // and one forest on the whole graph; everything below it is invisible
        // from outside and stays unattributed.
        let (_, cutter_ms) = cx.part("sssp::approx::approximate_cssp(whole graph)", || {
            black_box(approx::approximate_cssp(g, &sources, w, &cfg).expect(SOLVER_OK));
        });
        let (_, forest_ms) = cx.part("sssp::spanning_forest(whole graph)", || {
            black_box(spanning_forest::spanning_forest(g, false));
        });
        let thresholded_ms = cx.probe_median("sssp::thresholded::thresholded_cssp", 3, || {
            black_box(thresholded::thresholded_cssp(g, &sources, w, &cfg).expect(SOLVER_OK));
        });
        cx.put("sssp.cutter_top_ms", cutter_ms);
        cx.put("sssp.forest_top_ms", forest_ms);
        cx.put("sssp.thresholded_ms", thresholded_ms);
        cx.put("sssp.facade_overhead_pct", (cx.batch_ms - thresholded_ms) / cx.batch_ms * 100.0);
        let r = self.recursion.expect("Cssp reports its recursion");
        let total_size = r.total_subproblem_size as f64;
        cx.put("sssp.subproblems", r.subproblems as f64);
        cx.put("sssp.total_subproblem_size", total_size);
        cx.put("sssp.levels", f64::from(r.levels));
        cx.put("sssp.max_participation", r.max_participation as f64);
        cx.put("sssp.us_per_subproblem_node", cx.batch_ms * 1e3 / total_size);
        cx.put("sssp.allocs_per_subproblem", cx.counted.allocs as f64 / r.subproblems as f64);
        // If every subproblem's cutter cost what the top one costs per node,
        // this is the cutter's share of the batch.
        let n = f64::from(g.node_count());
        cx.put("sssp.cutter_share_est", cutter_ms * total_size / n / cx.batch_ms);
    }
}

// --- apsp-random ------------------------------------------------------------

struct ApspRandom {
    g: Graph,
    apsp: ApspConfig,
    truth: Vec<Vec<Distance>>,
    last: Option<SolverRun>,
}

impl ApspRandom {
    fn build(rng: &mut Rng, quick: bool) -> Built {
        let (n, extra) = if quick { (12, 24) } else { (64, 128) };
        let ((g, apsp), generate_ms) = timed(|| {
            let g = random_weighted(rng, n, extra);
            (g, one_thread_apsp(rng))
        });
        let (truth, truth_ms) = timed(|| sequential::all_pairs(&g));
        let workload = ApspRandom { g, apsp, truth, last: None };
        Built { workload: Box::new(workload), generate_ms, truth_ms }
    }
}

/// An instance's per-edge totals spread evenly over its rounds (message `k`
/// of `total` goes to round `⌊k·R/total⌋`), as `apsp` does privately before
/// it hands the trace to the scheduler.
fn spread_evenly(edge_congestion: &[u64], rounds: u64) -> EdgeUsageTrace {
    let r = rounds.max(1);
    let mut per_round: Vec<Vec<(EdgeId, u32)>> = vec![Vec::new(); r as usize];
    for (e, &total) in edge_congestion.iter().enumerate() {
        for k in 0..total {
            let slot = (u128::from(k) * u128::from(r) / u128::from(total)) as usize;
            match per_round[slot].last_mut() {
                Some((edge, count)) if edge.index() == e => *count += 1,
                _ => per_round[slot].push((EdgeId(e as u32), 1)),
            }
        }
    }
    EdgeUsageTrace { rounds: per_round }
}

impl Workload for ApspRandom {
    fn graph(&self) -> &Graph {
        &self.g
    }

    #[cfg(test)]
    fn seeded_inputs(&self) -> Vec<u64> {
        vec![self.apsp.seed]
    }

    fn batch(&mut self) -> Sim {
        let run = Solver::on(&self.g)
            .algorithm(Algorithm::Apsp)
            .config(one_thread())
            .apsp_config(self.apsp.clone())
            .run()
            .expect(SOLVER_OK);
        let sim = Sim::of_report(&run.report).always_awake();
        self.last = Some(run);
        sim
    }

    fn check(&mut self) -> Checked {
        let run = self.last.take().expect("check follows batch");
        let rows = run.all_pairs.expect("Apsp returns the matrix");
        let mut checked = Checked::new();
        for (row, truth) in rows.iter().zip(&self.truth) {
            checked.exact_all(row, truth);
        }
        checked
    }

    fn layers(&mut self, cx: &mut LayerCx<'_>) {
        let g = &self.g;
        let cfg = one_thread();
        let n = g.node_count();
        let (instances, instance_ms) = cx.part("sssp::cssp::cssp(every source)", || {
            g.nodes().map(|s| cssp::cssp(g, &[s], &cfg).expect(SOLVER_OK)).collect::<Vec<_>>()
        });
        let traces: Vec<EdgeUsageTrace> = instances
            .iter()
            .map(|run| spread_evenly(&run.metrics.edge_congestion, run.metrics.rounds))
            .collect();
        let entries: usize = traces.iter().flat_map(|t| &t.rounds).map(Vec::len).sum();
        // The budget and delay range `apsp` derives from n by default.
        let schedule = ScheduleConfig {
            edge_capacity_per_round: (f64::from(n.max(2)).log2().ceil() as u32) + 1,
            max_delay: u64::from(n),
            seed: self.apsp.seed,
        };
        let (_, schedule_ms) = cx.part("sim::scheduler::random_delay_schedule", || {
            black_box(random_delay_schedule(&traces, &schedule));
        });
        cx.put("sssp.instance_ms", instance_ms);
        cx.put("sssp.apsp_compose_ms", cx.batch_ms - instance_ms);
        cx.put("sim.schedule_ms", schedule_ms);
        cx.put("sim.schedule_ns_per_trace_entry", schedule_ms * 1e6 / entries.max(1) as f64);
    }
}

// --- oracle-build and oracle-query --------------------------------------------

/// A weighted grid: on `random_connected` the first cover level is already
/// one cluster, a grid gives a hierarchy of several levels.
fn oracle_graph(rng: &mut Rng, quick: bool) -> Graph {
    let side = if quick { 9 } else { 16 };
    generators::with_random_weights(&generators::grid(side, side, 1), 16, rng.next())
}

fn build_on(g: &Graph, apsp: &ApspConfig) -> OracleBuild {
    build_oracle(g, &one_thread(), &OracleConfig::default(), apsp).expect(SOLVER_OK)
}

fn put_oracle_shape(cx: &mut LayerCx<'_>, oracle: &DistanceOracle) {
    let stats = oracle.stats();
    cx.put("oracle.bytes", stats.bytes as f64);
    cx.put("oracle.space_ratio", stats.bytes as f64 / stats.exact_matrix_bytes as f64);
    cx.put("oracle.stretch_bound", stats.stretch_bound as f64);
    cx.put("oracle.levels", f64::from(stats.levels));
}

struct OracleBuildWl {
    g: Graph,
    apsp: ApspConfig,
    truth: Vec<Vec<Distance>>,
    last: Option<OracleBuild>,
}

impl OracleBuildWl {
    fn build(rng: &mut Rng, quick: bool) -> Built {
        let ((g, apsp), generate_ms) = timed(|| {
            let g = oracle_graph(rng, quick);
            (g, one_thread_apsp(rng))
        });
        let (truth, truth_ms) = timed(|| sequential::all_pairs(&g));
        let workload = OracleBuildWl { g, apsp, truth, last: None };
        Built { workload: Box::new(workload), generate_ms, truth_ms }
    }
}

impl Workload for OracleBuildWl {
    fn graph(&self) -> &Graph {
        &self.g
    }

    #[cfg(test)]
    fn seeded_inputs(&self) -> Vec<u64> {
        vec![self.apsp.seed]
    }

    fn batch(&mut self) -> Sim {
        let build = build_on(&self.g, &self.apsp);
        let sim = Sim::of_build(&build);
        self.last = Some(build);
        sim
    }

    /// Every ordered pair, queried on the oracle the batch built.
    fn check(&mut self) -> Checked {
        let build = self.last.take().expect("check follows batch");
        let bound = build.report.stretch_bound;
        let mut checked = Checked::new();
        for u in self.g.nodes() {
            for v in self.g.nodes() {
                checked.within(build.oracle.query(u, v), self.truth[u.index()][v.index()], bound);
            }
        }
        checked
    }

    fn layers(&mut self, cx: &mut LayerCx<'_>) {
        let g = &self.g;
        let n = g.node_count();
        let built = build_on(g, &self.apsp);
        put_oracle_shape(cx, &built.oracle);
        cx.put("cover.levels", f64::from(built.report.levels));
        cx.put("cover.clusters", built.report.clusters as f64);
        cx.put("cover.max_membership", f64::from(built.report.max_membership));
        cx.put("cover.max_tree_depth", built.report.max_tree_depth as f64);

        // The level loop of `build_oracle`, one layer at a time per level.
        // The induced-subgraph time here is the sum over the actual clusters.
        cx.put("graph.induced_subgraph_us", 0.0);
        let mut levels = Vec::new();
        for d in geometric_levels(u64::from(n.saturating_sub(1)).max(1)) {
            let (cover, ms) =
                cx.part("cover::SparseCover::construct", || SparseCover::construct(g, d));
            cx.add("cover.sparse_construct_ms", ms);
            let (_, ms) = cx.part("cover::SparseCover::validate", || {
                black_box(cover.validate(g).expect("constructed cover validates"));
            });
            cx.add("cover.validate_ms", ms);
            let clusters: Vec<_> = cover.clusters.iter().filter(|c| c.members.len() > 1).collect();
            let (subgraphs, ms) = cx.part("graph::Graph::induced_subgraph(every cluster)", || {
                clusters
                    .iter()
                    .map(|c| g.induced_subgraph(&c.members.iter().copied().collect()))
                    .collect::<Vec<_>>()
            });
            cx.add("graph.induced_subgraph_us", ms * 1e3);
            let (runs, ms) = cx.part("sssp::Solver::run(Cssp, every cluster)", || {
                clusters
                    .iter()
                    .zip(&subgraphs)
                    .map(|(c, (sub, new_to_old))| {
                        let center =
                            new_to_old.binary_search(&c.center).expect("the center is a member");
                        Solver::on(sub)
                            .algorithm(Algorithm::Cssp)
                            .source(NodeId(center as u32))
                            .config(one_thread())
                            .run()
                            .expect(SOLVER_OK)
                    })
                    .collect::<Vec<_>>()
            });
            cx.add("sssp.cluster_cssp_ms", ms);
            let (level, ms) = cx.part("oracle::LevelBuilder::{push_cluster, finish}", || {
                let mut level = LevelBuilder::new(n, d);
                let mut solved = subgraphs.iter().zip(&runs);
                for cluster in &cover.clusters {
                    if cluster.members.len() == 1 {
                        level.push_cluster(&cluster.members, &[Distance::ZERO]);
                    } else {
                        let ((_, new_to_old), run) = solved.next().expect("one run per cluster");
                        level.push_cluster(new_to_old, &run.output.distances);
                    }
                }
                level.finish()
            });
            cx.add("oracle.assemble_ms", ms);
            levels.push(level);
            if cover.is_component_cover(g) {
                break;
            }
        }
        let (replayed, ms) = cx
            .part("oracle::DistanceOracle::from_levels", || DistanceOracle::from_levels(n, levels));
        cx.add("oracle.assemble_ms", ms);
        assert_eq!(replayed, built.oracle, "the replay rebuilds the batch's oracle");
    }
}

struct OracleQuery {
    g: Graph,
    oracle: DistanceOracle,
    /// Simulated cost of the build the queries are answered from; a query
    /// itself is a local lookup and simulates nothing.
    build_sim: Sim,
    pairs: Vec<(NodeId, NodeId)>,
    truth: Vec<Vec<Distance>>,
    last: Option<Vec<Distance>>,
}

impl OracleQuery {
    fn build(rng: &mut Rng, quick: bool) -> Built {
        let pair_count = if quick { 20_000 } else { 2_000_000 };
        let ((g, apsp, pairs), generate_ms) = timed(|| {
            let g = oracle_graph(rng, quick);
            let apsp = one_thread_apsp(rng);
            let n = g.node_count();
            let pairs = (0..pair_count).map(|_| (rng.node(n), rng.node(n))).collect();
            (g, apsp, pairs)
        });
        let (truth, truth_ms) = timed(|| sequential::all_pairs(&g));
        let build = build_on(&g, &apsp);
        let build_sim = Sim::of_build(&build);
        let workload = OracleQuery { g, oracle: build.oracle, build_sim, pairs, truth, last: None };
        Built { workload: Box::new(workload), generate_ms, truth_ms }
    }

    fn answer(&self, threads: usize) -> Vec<Distance> {
        let mut out = vec![Distance::Infinite; self.pairs.len()];
        self.oracle.query_into(&self.pairs, &mut out, threads);
        out
    }
}

impl Workload for OracleQuery {
    fn graph(&self) -> &Graph {
        &self.g
    }

    #[cfg(test)]
    fn seeded_inputs(&self) -> Vec<u64> {
        self.pairs.iter().flat_map(|&(u, v)| [u64::from(u.0), u64::from(v.0)]).collect()
    }

    fn batch(&mut self) -> Sim {
        self.last = Some(self.answer(1));
        self.build_sim
    }

    fn check(&mut self) -> Checked {
        let answers = self.last.take().expect("check follows batch");
        let bound = self.oracle.stats().stretch_bound;
        let mut checked = Checked::new();
        for (&(u, v), &got) in self.pairs.iter().zip(&answers) {
            checked.within(got, self.truth[u.index()][v.index()], bound);
        }
        checked
    }

    fn layers(&mut self, cx: &mut LayerCx<'_>) {
        put_oracle_shape(cx, &self.oracle);
        cx.put("oracle.query_ns", cx.batch_ms * 1e6 / self.pairs.len() as f64);
        cx.whole_batch_is_one_call();
        let (_, one_ms) = cx.probe("oracle::DistanceOracle::query_into(threads 1)", || {
            black_box(self.answer(1));
        });
        let (_, two_ms) = cx.probe("oracle::DistanceOracle::query_into(threads 2)", || {
            black_box(self.answer(2));
        });
        cx.put("oracle.query_t2_ratio", two_ms / one_ms);
    }
}

// --- lowenergy-grid -----------------------------------------------------------

struct LowEnergyGrid {
    g: Graph,
    sources: Vec<NodeId>,
    truth: Vec<Vec<Distance>>,
    last: Vec<SolverRun>,
}

/// `k × k` sources on `grid(side, side)`: a regular lattice shifted by a seeded
/// offset. What one BFS run costs in the model depends on where its source
/// sits between corner and centre (measured range 2× in messages, congestion
/// and energy), so a few independent random sources move the batch's
/// statistics by 15..18 % from seed to seed; a shifted lattice samples every
/// kind of position under every seed.
fn lattice_sources(rng: &mut Rng, side: u32, k: u32) -> Vec<NodeId> {
    let spacing = side / k;
    let (row0, col0) = (rng.next() as u32 % spacing, rng.next() as u32 % spacing);
    (0..k * k)
        .map(|i| {
            let row = (row0 + (i / k) * spacing) % side;
            let col = (col0 + (i % k) * spacing) % side;
            NodeId(row * side + col)
        })
        .collect()
}

impl LowEnergyGrid {
    fn build(rng: &mut Rng, quick: bool) -> Built {
        let (side, k) = if quick { (16, 2) } else { (64, 3) };
        let ((g, sources), generate_ms) = timed(|| {
            let g = generators::grid(side, side, 1);
            let sources = lattice_sources(rng, side, k);
            (g, sources)
        });
        let (truth, truth_ms) =
            timed(|| sources.iter().map(|&s| sequential::bfs(&g, &[s]).distances).collect());
        let workload = LowEnergyGrid { g, sources, truth, last: Vec::new() };
        Built { workload: Box::new(workload), generate_ms, truth_ms }
    }
}

impl Workload for LowEnergyGrid {
    fn graph(&self) -> &Graph {
        &self.g
    }

    #[cfg(test)]
    fn seeded_inputs(&self) -> Vec<u64> {
        self.sources.iter().map(|s| u64::from(s.0)).collect()
    }

    fn batch(&mut self) -> Sim {
        self.last = self
            .sources
            .iter()
            .map(|&s| {
                Solver::on(&self.g)
                    .algorithm(Algorithm::LowEnergyBfs)
                    .source(s)
                    .config(one_thread())
                    .run()
                    .expect(SOLVER_OK)
            })
            .collect();
        self.last.iter().map(|run| Sim::of_report(&run.report)).fold(Sim::default(), Sim::then)
    }

    fn check(&mut self) -> Checked {
        let mut checked = Checked::new();
        for (run, truth) in self.last.drain(..).zip(&self.truth) {
            checked.exact_all(&run.output.distances, truth);
        }
        checked
    }

    fn layers(&mut self, cx: &mut LayerCx<'_>) {
        let g = &self.g;
        // Every run constructs the same cover for hop limit n.
        let limit = u64::from(g.node_count());
        let mut cover = None;
        for _ in &self.sources {
            let (built, ms) = cx.part("cover::LayeredCover::construct_default", || {
                LayeredCover::construct_default(g, limit)
            });
            cx.add("cover.layered_construct_ms", ms);
            cover = Some(built);
        }
        let cover = cover.expect("at least one source");
        let layered_ms = cx.metrics["cover.layered_construct_ms"];
        cx.put("sssp.energy_accounting_ms", cx.batch_ms - layered_ms);
        let stats: Vec<_> = cover.levels.iter().map(SparseCover::stats).collect();
        cx.put("cover.levels", cover.level_count() as f64);
        cx.put("cover.clusters", stats.iter().map(|s| s.cluster_count).sum::<usize>() as f64);
        let max_membership = stats.iter().map(|s| s.max_membership).max().unwrap_or(0);
        cx.put("cover.max_membership", max_membership as f64);
        let max_depth = stats.iter().map(|s| s.max_tree_depth).max().unwrap_or(0);
        cx.put("cover.max_tree_depth", max_depth as f64);
    }
}

// --- engine-flood -------------------------------------------------------------

struct EngineFlood {
    g: Graph,
    until: u64,
    /// Final accumulators from the retained reference sweep.
    truth: Vec<u64>,
    last: Option<Vec<Flood>>,
}

impl EngineFlood {
    fn build(rng: &mut Rng, quick: bool) -> Built {
        let (n, extra, until) = if quick { (64, 128, 32) } else { (2048, 6144, 512) };
        let (g, generate_ms) = timed(|| generators::random_connected(n, extra, rng.next()));
        let (truth, truth_ms) = timed(|| {
            let reference = Engine::new(&g, SimConfig::default())
                .run_reference(|id| Flood::new(id, until))
                .expect("flood stays within capacity");
            reference.states.iter().map(|s| s.acc).collect()
        });
        let workload = EngineFlood { g, until, truth, last: None };
        Built { workload: Box::new(workload), generate_ms, truth_ms }
    }

    fn run(&self, threads: usize) -> congest_sim::RunOutcome<Flood> {
        Engine::new(&self.g, SimConfig::default().with_threads(threads))
            .run(|id| Flood::new(id, self.until))
            .expect("flood stays within capacity")
    }
}

impl Workload for EngineFlood {
    fn graph(&self) -> &Graph {
        &self.g
    }

    #[cfg(test)]
    fn seeded_inputs(&self) -> Vec<u64> {
        Vec::new()
    }

    fn batch(&mut self) -> Sim {
        let outcome = self.run(1);
        self.last = Some(outcome.states);
        Sim::of_metrics(&outcome.metrics)
    }

    fn check(&mut self) -> Checked {
        let states = self.last.take().expect("check follows batch");
        let mut checked = Checked::new();
        for (state, &truth) in states.iter().zip(&self.truth) {
            checked.state(state.acc == truth);
        }
        checked
    }

    fn layers(&mut self, cx: &mut LayerCx<'_>) {
        cx.put("sim.flood_ns_per_message", cx.batch_ms * 1e6 / cx.sim.messages as f64);
        cx.put("sim.allocs_per_round", cx.counted.allocs as f64 / cx.sim.rounds as f64);
        cx.whole_batch_is_one_call();
        let (_, one_ms) = cx.probe("sim::Engine::run(Flood, threads 1)", || {
            black_box(self.run(1));
        });
        let (_, two_ms) = cx.probe("sim::Engine::run(Flood, threads 2)", || {
            black_box(self.run(2));
        });
        cx.put("sim.flood_t2_ratio", two_ms / one_ms);
    }
}

// --- engine-wave --------------------------------------------------------------

struct EngineWave {
    g: Graph,
    /// One perfect wake schedule per source; `schedule[v]` is also the true
    /// hop distance of `v`.
    schedules: Vec<Vec<Option<u64>>>,
    awake_node_rounds: u64,
    /// The distances each run of the last batch computed.
    last: Vec<Vec<Distance>>,
}

impl EngineWave {
    fn build(rng: &mut Rng, quick: bool) -> Built {
        let (side, k) = if quick { (24, 2) } else { (128, 8) };
        let ((g, picked), generate_ms) = timed(|| {
            let g = generators::grid(side, side, 1);
            let picked = lattice_sources(rng, side, k);
            (g, picked)
        });
        let (schedules, truth_ms) =
            timed(|| picked.iter().map(|&s| WaveBfs::schedule(&g, &[s])).collect());
        let workload = EngineWave { g, schedules, awake_node_rounds: 0, last: Vec::new() };
        Built { workload: Box::new(workload), generate_ms, truth_ms }
    }
}

impl Workload for EngineWave {
    fn graph(&self) -> &Graph {
        &self.g
    }

    #[cfg(test)]
    fn seeded_inputs(&self) -> Vec<u64> {
        self.schedules
            .iter()
            .flat_map(|s| s.iter().position(|wake| *wake == Some(0)))
            .map(|source| source as u64)
            .collect()
    }

    fn batch(&mut self) -> Sim {
        let engine = Engine::new(&self.g, SimConfig::default());
        let mut sim = Sim::default();
        self.awake_node_rounds = 0;
        self.last.clear();
        for schedule in &self.schedules {
            let outcome = engine
                .run(|id| WaveBfs::new(schedule[id.index()]))
                .expect("a wave stays within capacity");
            self.awake_node_rounds += outcome.metrics.node_energy.iter().sum::<u64>();
            sim = sim.then(Sim::of_metrics(&outcome.metrics));
            self.last.push(outcome.states.iter().map(|state| state.dist).collect());
        }
        sim
    }

    fn check(&mut self) -> Checked {
        let mut checked = Checked::new();
        for (distances, schedule) in self.last.drain(..).zip(&self.schedules) {
            for (&got, &truth) in distances.iter().zip(schedule) {
                checked.within(got, truth.map_or(Distance::Infinite, Distance::Finite), 1);
            }
        }
        checked
    }

    fn layers(&mut self, cx: &mut LayerCx<'_>) {
        cx.put("sim.wave_ns_per_awake_round", cx.batch_ms * 1e6 / self.awake_node_rounds as f64);
        cx.whole_batch_is_one_call();
        // A run in which every node halts in round 0: what one `Engine::run`
        // costs on this graph before any round is stepped.
        let engine = Engine::new(&self.g, SimConfig::default());
        let setup_ms = cx.probe_median("sim::Engine::run(all halt in round 0)", 5, || {
            black_box(engine.run(|_| WaveBfs::new(None)).expect("nothing is sent"));
        });
        cx.put("sim.wave_run_setup_us", setup_ms * 1e3);
    }
}

// --- generic layer probes -------------------------------------------------------

/// Always awake, never sends: the engine's floor per awake node-round.
struct Idle {
    until: u64,
}

impl Protocol for Idle {
    fn init(&mut self, _ctx: &mut NodeCtx<'_>) {}

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {
        if ctx.round() >= self.until {
            ctx.halt();
        }
    }
}

/// Fixed costs of the `graph` and `sim` layers on the workload's own graph,
/// and the ratios every workload has. Runs before the workload's own
/// `layers`, which may replace a value with the call its batch really makes.
pub fn generic_layers(g: &Graph, cx: &mut LayerCx<'_>) {
    let (n, m) = (g.node_count() as usize, g.edge_count() as usize);
    cx.put("graph.n", n as f64);
    cx.put("graph.m", m as f64);
    let everyone: BTreeSet<NodeId> = g.nodes().collect();
    let ms = cx.probe_median("graph::Graph::induced_subgraph(every node)", 5, || {
        black_box(g.induced_subgraph(&everyone));
    });
    cx.put("graph.induced_subgraph_us", ms * 1e3);
    let ms = cx.probe_median("sim::Engine::new", 100, || {
        black_box(Engine::new(g, SimConfig::default()));
    });
    cx.put("sim.engine_new_us", ms * 1e3);
    let metrics = Metrics::zero(n, m);
    let node_map: Vec<NodeId> = g.nodes().collect();
    let edge_map: Vec<EdgeId> = g.edge_ids().collect();
    let ms = cx.probe_median("sim::Metrics::remap(identity)", 21, || {
        black_box(metrics.remap(&node_map, &edge_map, n, m));
    });
    cx.put("sim.metrics_remap_us", ms * 1e3);
    const IDLE_ROUNDS: u64 = 256;
    let (_, ms) = cx.probe("sim::Engine::run(idle protocol)", || {
        let engine = Engine::new(g, SimConfig::default());
        black_box(engine.run(|_| Idle { until: IDLE_ROUNDS }).expect("nothing is sent"));
    });
    cx.put("sim.idle_step_ns_per_node_round", ms * 1e6 / (n as f64 * IDLE_ROUNDS as f64));
    cx.put("sssp.us_per_sim_round", cx.batch_ms * 1e3 / cx.sim.rounds as f64);
    cx.put("sssp.ns_per_sim_message", cx.batch_ms * 1e6 / cx.sim.messages as f64);
    cx.put("sssp.allocs_per_batch", cx.counted.allocs as f64);
    cx.put("sssp.alloc_mb_per_batch", cx.counted.bytes as f64 / 1e6);
}
