//! The three workloads: their inputs, and their untraced end-to-end
//! measurement.
//!
//! * `mesh_solve_many` — a weighted 2-D grid on the multigrid backend
//!   with PCG as the outer method: a few setups, then seeded
//!   right-hand sides one after another. Solves dominate; the chain
//!   build is bypassed.
//! * `dense_build_once` — dense G(n, p) on the chain backend, ingested
//!   from edge-list text, built and solved once per cycle. The build
//!   dominates; the solve path is nearly bypassed.
//! * `serve_registry_churn` — an open loop against a `SolverRegistry`
//!   of four preferential-attachment graphs whose byte budget holds
//!   three, so rebuilds run beside live solves.

use crate::common::{self, Report, WORKERS};
use crate::openloop;
use crate::stats::{median, tail};
use parlap_bench::workloads::Family;
use parlap_core::solver::OuterMethod;
use parlap_core::{
    BackendKind, LaplacianSolver, RegistryConfig, ServiceConfig, SolveOutcome, SolveTicket,
    SolverError, SolverOptions, SolverRegistry,
};
use parlap_graph::generators;
use parlap_graph::laplacian::to_csr;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::csr::CsrMatrix;
use parlap_linalg::vector::random_demand;
use parlap_primitives::prng::mix2;
use parlap_primitives::StreamRng;
use rayon::prelude::*;
use std::future::Future;
use std::pin::Pin;
use std::sync::{mpsc, Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// Setup cycles per run; `setup_s` and `time_to_solution_s` are their
/// medians.
pub const SETUP_CYCLES: usize = 3;
/// Where setups are cheap (the mesh), extra setups follow each further
/// solve, at least this many seconds of them. They add samples to
/// `setup_s` and do not count toward the run's measured time.
const SETUP_SLOT_SECONDS: f64 = 0.1;

pub const MESH_SIDE: usize = 150;
pub const MESH_EPS: f64 = 1e-8;
pub const DENSE_N: usize = 1000;
pub const DENSE_EPS: f64 = 1e-8;
pub const CHURN_N: usize = 2000;
pub const CHURN_KEYS: usize = 4;
/// Keys pre-warmed before traffic starts; the budget holds this many.
pub const CHURN_RESIDENT: usize = 3;
pub const CHURN_EPS: f64 = 1e-6;
/// Offered load, requests per second: under half of what the 2-core
/// host serves (a batch of 8 solves takes ~180 ms), so the queue does
/// not grow and a rebuild's interference shows in the tail.
pub const CHURN_RATE: f64 = 20.0;
/// Requests to the cold key per run; each forces a rebuild, and the
/// key it evicts is rebuilt when next asked for.
pub const CHURN_COLD: usize = 12;
/// Shares of the remaining traffic for the three hot keys.
pub const CHURN_SKEW: [f64; 3] = [0.40, 0.33, 0.27];
/// Served answers per key compared bit for bit with a direct solve
/// (their direct solve times give `solve_p50_s`).
pub const CHURN_SAMPLE_PER_KEY: usize = 16;
/// Closed bursts against the warmed registry per churn run; their
/// median throughput is the churn workload's `serve_rps`.
pub const CHURN_BURSTS: usize = 5;
/// Requests in one burst, spread evenly over the resident keys.
pub const CHURN_BURST: usize = 48;
/// Seeds of the workloads' graphs. The graphs are the same in every
/// run; the run seed drives right-hand sides and traffic. Per-seed
/// graphs would change each run's build and solve costs.
const MESH_GRAPH_SEED: u64 = 0x6d65_7368;
const DENSE_GRAPH_SEED: u64 = 0x64_656e_7365;
const CHURN_GRAPHS_SEED: u64 = 0x7465_6e61_6e74;
/// Fewest requests a churn run sends: the p99 of 1010 answers has 10
/// beyond it.
pub const CHURN_MIN_REQUESTS: usize = 1010;
/// Pause before each timed direct solve and each burst. On a 2-vCPU
/// virtual machine, back-to-back small solves stay in one speed regime
/// for seconds: medians of 64 back-to-back churn solves spread 0.25
/// (IQR over median) across processes, and 0.06 with 50 ms pauses.
const PACE: std::time::Duration = std::time::Duration::from_millis(50);

/// Input streams derived from the run seed.
mod stream {
    pub const RHS: u64 = 2;
    pub const ARRIVALS: u64 = 3;
    pub const KEYS: u64 = 4;
    pub const SAMPLE: u64 = 5;
    pub const BURST: u64 = 6;
}

/// The mesh: a 150×150 grid with exponential weights over 3 decades.
pub fn mesh_graph() -> MultiGraph {
    Family::WeightedGrid.build(MESH_SIDE * MESH_SIDE, MESH_GRAPH_SEED)
}

/// The mesh's options: the multigrid backend, and PCG as the outer
/// method, so ε is a relative-residual tolerance. With the default
/// Richardson outer, every solve on this mesh gives up after hundreds
/// of iterations and falls back to PCG, whose answers can miss the
/// L-norm ε that Richardson promises (see the README's leads).
pub fn mesh_options() -> SolverOptions {
    SolverOptions { outer: OuterMethod::Pcg, ..common::options(BackendKind::Multigrid) }
}

/// The dense and churn workloads' options: the defaults, chain backend.
pub fn chain_options() -> SolverOptions {
    common::options(BackendKind::Chain)
}

/// Dense G(n, p) with p = 40 ln n / n.
pub fn dense_graph() -> MultiGraph {
    let n = DENSE_N;
    let p = 40.0 * (n as f64).ln() / n as f64;
    generators::gnp_connected(n, p, DENSE_GRAPH_SEED)
}

/// Key `k` of the churn registry: preferential attachment on 2000
/// vertices.
pub fn churn_graph(key: usize) -> MultiGraph {
    Family::PrefAttach.build(CHURN_N, mix2(CHURN_GRAPHS_SEED, key as u64))
}

/// Right-hand side `i` of a run.
pub fn rhs(n: usize, seed: u64, i: usize) -> Vec<f64> {
    random_demand(n, mix2(mix2(seed, stream::RHS), i as u64))
}

/// Wall time of `f`, in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Ingest + build, as one setup.
fn setup(text: &str, options: &SolverOptions) -> LaplacianSolver {
    let g = common::ingest(text);
    LaplacianSolver::build(&g, options.clone()).expect("workload graphs are connected")
}

/// Time one solve and check its answer; a failed solve counts as a
/// failed answer. Returns the solve time.
fn solve_checked(
    report: &mut Report,
    solver: &LaplacianSolver,
    csr: &CsrMatrix,
    b: &[f64],
    eps: f64,
    outer: OuterMethod,
    worst: &mut Worst,
) -> f64 {
    let (t, out) = timed(|| solver.solve(b, eps));
    match out {
        Ok(out) => {
            let v = common::check(solver, csr, b, &out, eps, outer);
            worst.add(&v, eps);
            if !v.ok {
                eprintln!("answer missed its contract: {v:?}");
            }
            report.answer(v.ok);
        }
        Err(e) => {
            eprintln!("solve failed: {e}");
            report.answer(false);
        }
    }
    t
}

/// Closed-loop workloads: setup cycles, each followed by a first
/// solve, then (unless every solve gets its own setup) further solves
/// on the last solver until the measured time reaches `seconds`. Inputs
/// are made and everything runs on one 2-worker pool.
fn closed_loop(
    graph: impl FnOnce() -> MultiGraph + Send,
    workload: String,
    options: SolverOptions,
    eps: f64,
    seed: u64,
    seconds: f64,
    build_every_solve: bool,
) -> Report {
    common::pool(WORKERS).install(|| {
        let mut report = Report::default();
        let g = graph();
        report.note("workload", workload);
        report.note("m", g.num_edges());
        let text = common::edge_list_text(&g);
        drop(g);
        measure_closed_loop(&mut report, &text, &options, eps, seed, seconds, build_every_solve);
        report
    })
}

fn measure_closed_loop(
    report: &mut Report,
    text: &str,
    options: &SolverOptions,
    eps: f64,
    seed: u64,
    seconds: f64,
    build_every_solve: bool,
) {
    let mut setups = Vec::new();
    let mut tts = Vec::new();
    let mut solves = Vec::new();
    let mut measured = 0.0;
    let mut worst = Worst::default();
    let csr = to_csr(&common::ingest(text));
    let mut last: Option<LaplacianSolver> = None;
    let mut i = 0usize;
    while setups.len() < SETUP_CYCLES || measured < seconds {
        if build_every_solve || setups.len() < SETUP_CYCLES {
            // The previous solver goes first, so peak memory is one
            // solver's, not two.
            drop(last.take());
            let (t, solver) = timed(|| setup(text, options));
            setups.push(t);
            measured += t;
            if setups.len() == 1 {
                report.note("descriptor", solver.descriptor());
                report.note("estimated_bytes", solver.estimated_bytes());
            }
            last = Some(solver);
        }
        let solver = last.as_ref().expect("a setup ran");
        let b = rhs(solver.dim(), seed, i);
        i += 1;
        std::thread::sleep(PACE);
        let t = solve_checked(report, solver, &csr, &b, eps, options.outer, &mut worst);
        if tts.len() < setups.len() {
            tts.push(setups[setups.len() - 1] + t);
        }
        solves.push(t);
        measured += t;
        // Cheap setups are repeated after each solve, so the median
        // samples the whole run and not one stretch of it. The next
        // solve runs on the newest solver: one solver's memory layout
        // can hold a whole run's solves ~20% fast or slow.
        if !build_every_solve && setups.len() >= SETUP_CYCLES {
            let mut slot = 0.0;
            while slot < SETUP_SLOT_SECONDS {
                let (t, solver) = timed(|| setup(text, options));
                drop(solver);
                setups.push(t);
                slot += t;
            }
        }
    }
    // ... and topped up until they add up to a second.
    while setups.iter().sum::<f64>() < 1.0 {
        let (t, solver) = timed(|| setup(text, options));
        drop(solver);
        setups.push(t);
    }
    report.metric("setup_s", median(&setups), "s");
    report.metric("solve_p50_s", median(&solves), "s");
    report.metric("time_to_solution_s", median(&tts), "s");
    // One client asking one question at a time. Where every question
    // brings its own graph, a request is ingest + build + solve;
    // otherwise it is a solve on the built solver.
    let requests = if build_every_solve { &tts } else { &solves };
    let ms: Vec<f64> = requests.iter().map(|s| s * 1e3).collect();
    let t = tail(&ms);
    report.metric("serve_p50_ms", median(&ms), "ms");
    report.metric("serve_p99_ms", t.value, "ms");
    report.metric("serve_rps", solves.len() as f64 / measured, "1/s");
    report.note("serve_tail", format!("p{} of {} ({} beyond)", t.percentile, t.samples, t.beyond));
    report.note("setup_times", format!("{setups:.4?}"));
    report.note("solve_times", format!("{solves:.4?}"));
    worst.note(report);
}

/// What the checks saw: fallbacks, L-norm misses, worst errors.
#[derive(Default)]
pub struct Worst {
    fallbacks: usize,
    lnorm_checked: usize,
    lnorm_misses: usize,
    lnorm_error: f64,
    residual: f64,
}

impl Worst {
    pub fn add(&mut self, v: &common::Verdict, eps: f64) {
        self.fallbacks += usize::from(v.fallback);
        if let Some(e) = v.lnorm_error {
            self.lnorm_checked += 1;
            self.lnorm_misses += usize::from(e > eps);
            self.lnorm_error = self.lnorm_error.max(e);
        }
        self.residual = self.residual.max(v.residual);
    }

    pub fn note(&self, report: &mut Report) {
        report.note("pcg_fallbacks", self.fallbacks);
        report.note("lnorm_checked", self.lnorm_checked);
        report.note("lnorm_eps_misses", self.lnorm_misses);
        report.note("worst_lnorm_error", format!("{:e}", self.lnorm_error));
        report.note("worst_residual", format!("{:e}", self.residual));
    }
}

pub fn mesh(seed: u64, seconds: f64) -> Report {
    closed_loop(
        mesh_graph,
        format!(
            "weighted_grid {MESH_SIDE}x{MESH_SIDE}, ratio 1e3, multigrid, pcg, eps {MESH_EPS:e}"
        ),
        mesh_options(),
        MESH_EPS,
        seed,
        seconds,
        false,
    )
}

pub fn dense(seed: u64, seconds: f64) -> Report {
    closed_loop(
        dense_graph,
        format!("gnp n={DENSE_N} p=40ln(n)/n, chain, eps {DENSE_EPS:e}"),
        chain_options(),
        DENSE_EPS,
        seed,
        seconds,
        true,
    )
}

/// The churn workload's inputs.
pub struct Churn {
    pub texts: Arc<Vec<String>>,
    /// Requests: (key, right-hand-side index).
    pub keys: Vec<usize>,
    pub schedule: Vec<f64>,
}

/// Seeded key sequence: the hot keys split by `CHURN_SKEW` in seeded
/// order, and `CHURN_COLD` requests to the cold key (the last), one in
/// each equal stretch of the run. Each cold request goes at the first
/// place, from a seeded start in its stretch, where the least popular
/// hot key is the least recently used: the cold build evicts that key,
/// and its rebuild evicts the cold key again, so every run makes about
/// two rebuilds per cold request (more when a request for the evicted
/// key arrives before the cold build ends).
pub fn churn_keys(count: usize, seed: u64) -> Vec<usize> {
    let hot = count - CHURN_COLD;
    let mut keys = Vec::with_capacity(count);
    let mut given = 0;
    for (k, share) in CHURN_SKEW.iter().enumerate() {
        let c = if k + 1 == CHURN_SKEW.len() {
            hot - given
        } else {
            (share * hot as f64).round() as usize
        };
        keys.extend(std::iter::repeat_n(k, c));
        given += c;
    }
    let mut rng = StreamRng::new(seed, 0x6b65_7973);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.next_index(i + 1));
    }
    let coolest = CHURN_SKEW.len() - 1;
    let stretch = hot / CHURN_COLD;
    for j in 0..CHURN_COLD {
        let start = j * (stretch + 1) + rng.next_index(stretch / 2);
        let at = (start..keys.len())
            .find(|&i| {
                // Since the last request for the coolest key, every
                // other hot key has been asked for.
                let since = keys[..i].iter().rposition(|&k| k == coolest).map_or(0, |p| p + 1);
                (0..coolest).all(|k| keys[since..i].contains(&k))
            })
            .unwrap_or(keys.len());
        keys.insert(at, CHURN_KEYS - 1);
    }
    keys
}

pub fn churn_inputs(seed: u64, seconds: f64) -> Churn {
    // A short run is stretched to enough requests for a p99 rather
    // than sent faster than the host can serve.
    let count = ((CHURN_RATE * seconds).round() as usize).max(CHURN_MIN_REQUESTS);
    let texts = (0..CHURN_KEYS).map(|k| common::edge_list_text(&churn_graph(k))).collect();
    Churn {
        texts: Arc::new(texts),
        keys: churn_keys(count, mix2(seed, stream::KEYS)),
        schedule: openloop::poisson_schedule(CHURN_RATE, count, mix2(seed, stream::ARRIVALS)),
    }
}

/// Every registry build, as (key, seconds).
pub type BuildLog = Arc<Mutex<Vec<(usize, f64)>>>;

/// A registry over the graphs in `texts`: a build ingests the key's
/// text on a 2-worker pool, and every entry serves from its own
/// 2-worker pool.
pub fn serving_registry(
    texts: Arc<Vec<String>>,
    options: SolverOptions,
    budget: usize,
    log: BuildLog,
) -> SolverRegistry<usize> {
    let build_pool = Arc::new(common::pool(WORKERS));
    let config = RegistryConfig {
        memory_budget_bytes: budget,
        service: ServiceConfig { num_threads: Some(WORKERS), ..ServiceConfig::default() },
        shards_per_key: 1,
    };
    SolverRegistry::with_config(config, move |key: &usize| {
        let (t, built) = timed(|| {
            build_pool.install(|| {
                let g = common::ingest(&texts[*key]);
                LaplacianSolver::build(&g, options.clone())
            })
        });
        log.lock().expect("build log lock").push((*key, t));
        built
    })
}

/// Reference solvers, one per key, built directly, with the CSR each
/// iterates on.
pub fn references(texts: &[String], options: &SolverOptions) -> Vec<(LaplacianSolver, CsrMatrix)> {
    common::pool(WORKERS).install(|| {
        texts
            .iter()
            .map(|t| {
                let g = common::ingest(t);
                let s = LaplacianSolver::build(&g, options.clone()).expect("connected");
                (s, to_csr(&g))
            })
            .collect()
    })
}

/// Budget holding the three largest entries but never all four.
pub fn churn_budget(refs: &[(LaplacianSolver, CsrMatrix)]) -> usize {
    let bytes: Vec<usize> = refs.iter().map(|(s, _)| s.estimated_bytes()).collect();
    bytes.iter().sum::<usize>() - bytes.iter().min().expect("four keys") / 2
}

/// A request handed to the miss thread because its key was not
/// resident when it fell due: the rebuild must not stop the generator.
#[derive(Default)]
pub struct Handoff {
    slot: Mutex<HandoffSlot>,
}

#[derive(Default)]
struct HandoffSlot {
    submitted: Option<Result<SolveTicket, SolverError>>,
    waker: Option<Waker>,
}

impl Handoff {
    fn fulfil(&self, submitted: Result<SolveTicket, SolverError>) {
        let mut slot = self.slot.lock().expect("handoff lock");
        slot.submitted = Some(submitted);
        if let Some(w) = slot.waker.take() {
            w.wake();
        }
    }
}

/// The answer to one served request.
pub enum Answer {
    Ticket(SolveTicket),
    Handoff(Arc<Handoff>),
    Failed(Option<SolverError>),
}

impl Future for Answer {
    type Output = Result<SolveOutcome, SolverError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        loop {
            match &mut *self {
                Answer::Ticket(t) => return Pin::new(t).poll(cx),
                Answer::Failed(e) => {
                    return Poll::Ready(Err(e.take().expect("polled after completion")))
                }
                Answer::Handoff(h) => {
                    let next = {
                        let mut slot = h.slot.lock().expect("handoff lock");
                        match slot.submitted.take() {
                            None => {
                                slot.waker = Some(cx.waker().clone());
                                return Poll::Pending;
                            }
                            Some(Ok(t)) => Answer::Ticket(t),
                            Some(Err(e)) => Answer::Failed(Some(e)),
                        }
                    };
                    *self = next;
                }
            }
        }
    }
}

/// Drive the open loop against `registry`. Requests for resident keys
/// are submitted by the generator; the others go to a miss thread that
/// submits them (building the key) while traffic continues.
pub fn serve(
    registry: &SolverRegistry<usize>,
    schedule: &[f64],
    keys: &[usize],
    n: usize,
    eps: f64,
    seed: u64,
) -> Vec<openloop::Record<Result<SolveOutcome, SolverError>>> {
    std::thread::scope(|scope| {
        let (miss_tx, miss_rx) = mpsc::channel::<(Arc<Handoff>, usize, Vec<f64>)>();
        let miss = scope.spawn(move || {
            for (h, key, b) in miss_rx {
                h.fulfil(registry.submit(&key, &b, eps));
            }
        });
        let records = openloop::run(schedule, move |i| {
            let key = keys[i];
            let b = rhs(n, seed, i);
            if registry.contains(&key) {
                match registry.submit(&key, &b, eps) {
                    Ok(t) => Answer::Ticket(t),
                    Err(e) => Answer::Failed(Some(e)),
                }
            } else {
                let h = Arc::new(Handoff::default());
                miss_tx.send((Arc::clone(&h), key, b)).expect("miss thread is running");
                Answer::Handoff(h)
            }
        });
        miss.join().expect("miss thread panicked");
        records
    })
}

/// Check every served answer: the accuracy contract of `outer` for
/// all, and bit identity with a direct solve for a seeded sample of
/// `per_key` distinct answers per key. Returns the direct solve times of the
/// sample.
#[allow(clippy::too_many_arguments)]
pub fn check_served(
    report: &mut Report,
    worst: &mut Worst,
    records: &[openloop::Record<Result<SolveOutcome, SolverError>>],
    keys: &[usize],
    refs: &[(LaplacianSolver, CsrMatrix)],
    eps: f64,
    outer: OuterMethod,
    seed: u64,
    per_key: usize,
) -> Vec<f64> {
    // The same number of answers from every key, so the sample's mix
    // of graphs does not change with the seed: a seeded partial
    // shuffle of each key's answers.
    let mut rng = StreamRng::new(mix2(seed, stream::SAMPLE), 0);
    let picks: Vec<Vec<usize>> = (0..refs.len())
        .map(|k| {
            let mut of_key: Vec<usize> = (0..records.len()).filter(|&i| keys[i] == k).collect();
            let take = per_key.min(of_key.len());
            for j in 0..take {
                let pick = j + rng.next_index(of_key.len() - j);
                of_key.swap(j, pick);
            }
            of_key.truncate(take);
            of_key
        })
        .collect();
    let mut ok = vec![true; records.len()];
    let mut direct = Vec::new();
    common::pool(WORKERS).install(|| {
        // The sampled direct solves go first, round robin over the
        // keys and paced, so their times are not mixed with the checks'
        // reference solves.
        for j in 0..per_key {
            for &i in picks.iter().filter_map(|p| p.get(j)) {
                let Ok(out) = &records[i].output else { continue };
                let solver = &refs[keys[i]].0;
                let b = rhs(solver.dim(), seed, i);
                std::thread::sleep(PACE);
                let (t, d) = timed(|| solver.solve(&b, eps));
                direct.push(t);
                let same = d.map(|d| common::bits_equal(&d.solution, &out.solution));
                if same != Ok(true) {
                    eprintln!("request {i}: served answer differs from a direct solve");
                    ok[i] = false;
                }
            }
        }
        // Each check solves for a reference; the answers are checked
        // side by side.
        let verdicts: Vec<Result<common::Verdict, &SolverError>> = (0..records.len())
            .into_par_iter()
            .map(|i| {
                let (solver, csr) = &refs[keys[i]];
                let b = rhs(solver.dim(), seed, i);
                records[i]
                    .output
                    .as_ref()
                    .map(|out| common::check(solver, csr, &b, out, eps, outer))
            })
            .collect();
        for (i, v) in verdicts.iter().enumerate() {
            match v {
                Ok(v) => {
                    worst.add(v, eps);
                    if !v.ok {
                        eprintln!("request {i}: answer missed its contract: {v:?}");
                        ok[i] = false;
                    }
                }
                Err(e) => {
                    eprintln!("request {i} failed: {e}");
                    ok[i] = false;
                }
            }
            report.answer(ok[i]);
        }
    });
    direct
}

/// Open-loop latency metrics: failed requests count as infinitely late.
pub fn serve_metrics(
    report: &mut Report,
    records: &[openloop::Record<Result<SolveOutcome, SolverError>>],
) {
    let ms: Vec<f64> = records
        .iter()
        .map(|r| if r.output.is_ok() { r.latency() * 1e3 } else { f64::INFINITY })
        .collect();
    let t = tail(&ms);
    report.metric("serve_p50_ms", median(&ms), "ms");
    report.metric("serve_p99_ms", t.value, "ms");
    report.note("serve_tail", format!("p{} of {} ({} beyond)", t.percentile, t.samples, t.beyond));
}

/// Closed bursts against the warmed registry. Every request of a burst
/// is due at once, and the requests are spread evenly over the
/// resident keys, so nothing is rebuilt. A burst's throughput is its
/// completed requests over the time until its last answer. Every
/// answer is checked. Returns the bursts' throughputs.
pub fn capacity(
    report: &mut Report,
    worst: &mut Worst,
    registry: &SolverRegistry<usize>,
    refs: &[(LaplacianSolver, CsrMatrix)],
    seed: u64,
) -> Vec<f64> {
    let keys: Vec<usize> = (0..CHURN_BURST).map(|i| i % CHURN_RESIDENT).collect();
    let schedule = vec![0.0; CHURN_BURST];
    (0..CHURN_BURSTS)
        .map(|j| {
            let seed = mix2(mix2(seed, stream::BURST), j as u64);
            std::thread::sleep(PACE);
            let records = serve(registry, &schedule, &keys, CHURN_N, CHURN_EPS, seed);
            let outer = chain_options().outer;
            check_served(report, worst, &records, &keys, refs, CHURN_EPS, outer, seed, 0);
            let last = records.iter().map(|r| r.done).fold(0.0, f64::max);
            let completed = records.iter().filter(|r| r.output.is_ok()).count();
            completed as f64 / last
        })
        .collect()
}

/// Pre-warm the resident keys on a fresh registry, then answer one
/// request: returns (setup seconds, setup + first answer seconds).
pub fn prewarm(registry: &SolverRegistry<usize>, seed: u64) -> (f64, f64) {
    let (setup, ()) = timed(|| {
        for k in 0..CHURN_RESIDENT {
            registry.get(&k).expect("churn graphs are connected");
        }
    });
    let b = rhs(CHURN_N, seed, usize::MAX);
    let (first, out) = timed(|| registry.solve(&0, &b, CHURN_EPS));
    out.expect("first answer");
    (setup, setup + first)
}

pub fn churn(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let inputs = common::pool(WORKERS).install(|| churn_inputs(seed, seconds));
    report.note(
        "workload",
        format!(
            "{CHURN_KEYS} x pref_attach n={CHURN_N} k=4, chain, eps {CHURN_EPS:e}, poisson {}/s, {} requests, cold {}, skew {CHURN_SKEW:?}",
            CHURN_RATE, inputs.keys.len(), CHURN_COLD
        ),
    );
    let refs = references(&inputs.texts, &chain_options());
    let budget = churn_budget(&refs);
    report.note("budget_bytes", budget);
    report.note(
        "descriptor",
        refs.iter().map(|(s, _)| s.descriptor()).collect::<Vec<_>>().join(" | "),
    );
    let mut setups = Vec::new();
    let mut tts = Vec::new();
    let log: BuildLog = Arc::default();
    let mut registry = None;
    for _ in 0..SETUP_CYCLES {
        drop(registry.take());
        let r =
            serving_registry(Arc::clone(&inputs.texts), chain_options(), budget, Arc::clone(&log));
        let (s, t) = prewarm(&r, seed);
        setups.push(s);
        tts.push(t);
        registry = Some(r);
    }
    let registry = registry.expect("a setup cycle ran");
    let mut worst = Worst::default();
    let rps = capacity(&mut report, &mut worst, &registry, &refs, seed);
    let builds_before = log.lock().expect("build log lock").len();
    let records = serve(&registry, &inputs.schedule, &inputs.keys, CHURN_N, CHURN_EPS, seed);
    let stats = registry.stats();
    let rebuilds = log.lock().expect("build log lock").len() - builds_before;
    drop(registry);
    report.metric("setup_s", median(&setups), "s");
    let (check_s, direct) = timed(|| {
        check_served(
            &mut report,
            &mut worst,
            &records,
            &inputs.keys,
            &refs,
            CHURN_EPS,
            chain_options().outer,
            seed,
            CHURN_SAMPLE_PER_KEY,
        )
    });
    report.note("check_s", format!("{check_s:.2}"));
    report.metric("solve_p50_s", median(&direct), "s");
    report.metric("time_to_solution_s", median(&tts), "s");
    serve_metrics(&mut report, &records);
    report.metric("serve_rps", median(&rps), "1/s");
    report.note("burst_rps", format!("{rps:.2?}"));
    worst.note(&mut report);
    report.note("rebuilds", rebuilds);
    report.note("registry", format!("{stats:?}"));
    report
}
