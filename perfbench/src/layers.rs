//! The traced run: per-layer metrics for one workload.
//!
//! Spans are recorded here, in the benchmark, around calls into each
//! module's public functions; the library is not instrumented. Each
//! layer is run on the workload's own graph, at T = 1 and T = 2
//! workers where a speed-up is reported. The traced chain build
//! repeats, step by step, what `LaplacianSolver::build` does, and must
//! end with the same `descriptor()` and `estimated_bytes()`, so the
//! spans time the program as it really runs.

use crate::common::{self, Report, WORKERS};
use crate::stats::{median, tail};
use crate::trace::{self, SpanId, Tracer};
use crate::workloads::{self as wl, timed};
use parlap_core::alpha::{copies_for_log_squared, split_uniform, SplitStrategy};
use parlap_core::apply::{build_jacobis, ChainBackend};
use parlap_core::chain::{block_cholesky, ChainOptions, CholeskyChain};
use parlap_core::five_dd::five_dd_subset;
use parlap_core::multigrid::aggregate::aggregate;
use parlap_core::multigrid::galerkin::galerkin_coarse;
use parlap_core::richardson::{preconditioned_richardson, RichardsonOptions};
use parlap_core::solver::OuterMethod;
use parlap_core::walks::terminal_walks;
use parlap_core::{
    build_backend, BackendKind, LaplacianSolver, MultigridBackend, SolveOutcome, SolverError,
    SolverOptions,
};
use parlap_graph::laplacian::to_csr;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::cg::pcg_solve_with;
use parlap_linalg::csr::CsrMatrix;
use parlap_linalg::op::LinOp;
use parlap_primitives::prng::{mix2, StreamRng};
use std::hint::black_box;
use std::sync::Arc;

const MIB: f64 = (1u64 << 20) as f64;

/// Repetitions of a micro-measurement: until this much time has
/// passed, and at least `MIN_REPS` times.
const MICRO_SECONDS: f64 = 0.25;
const MIN_REPS: usize = 5;

/// Pairs of untraced and traced runs of the decomposed setup and solve
/// behind `trace.overhead_frac`: at least this many, and until this
/// much time has passed.
const OVERHEAD_PAIRS: usize = 2;
const OVERHEAD_SECONDS: f64 = 10.0;

/// A layer's operator with every application recorded as a span.
struct Traced<'a, O: LinOp> {
    inner: &'a O,
    tracer: &'a Tracer,
    name: &'static str,
    parent: SpanId,
    request: u64,
}

impl<O: LinOp> LinOp for Traced<'_, O> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.tracer.time(self.name, Some(self.parent), self.request, || self.inner.apply(x, y));
    }
}

/// Median seconds per call of `f`.
fn micro(mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = std::time::Instant::now();
    while times.len() < MIN_REPS || start.elapsed().as_secs_f64() < MICRO_SECONDS {
        let (t, ()) = timed(&mut f);
        times.push(t);
    }
    median(&times)
}

/// Seconds per `join` in a binary fork tree of 2^14 leaves.
fn join_seconds() -> f64 {
    fn tree(depth: u32) -> u64 {
        if depth == 0 {
            return black_box(1);
        }
        let (a, b) = rayon::join(|| tree(depth - 1), || tree(depth - 1));
        a + b
    }
    const DEPTH: u32 = 14;
    micro(|| assert_eq!(tree(black_box(DEPTH)), 1 << DEPTH)) / ((1u64 << DEPTH) - 1) as f64
}

/// The chain build, step by step, as `ChainBackend::build` runs it.
struct TracedChain {
    copies: usize,
    edges_out: usize,
    chain: CholeskyChain,
    jacobi_bytes: usize,
}

fn traced_chain(
    tracer: &Tracer,
    g: &MultiGraph,
    options: &SolverOptions,
    request: u64,
) -> TracedChain {
    let root = tracer.begin("chain.setup", None, request);
    let n = g.num_vertices();
    let copies = match &options.split {
        SplitStrategy::Fixed(c) => *c,
        SplitStrategy::LogSquared { c } => copies_for_log_squared(n, *c),
        other => panic!("the traced build covers the uniform splits, not {other:?}"),
    };
    let split = tracer.time("alpha.split", Some(root), request, || split_uniform(g, copies));
    let chain_opts = ChainOptions {
        seed: options.seed,
        base_size: options.base_size,
        sample_fraction: options.sample_fraction,
        connectivity_retries: options.connectivity_retries,
        ..ChainOptions::default()
    };
    let chain = tracer
        .time("chain.block_cholesky", Some(root), request, || block_cholesky(&split, &chain_opts))
        .expect("workload graphs are connected");
    let jacobis = tracer.time("chain.jacobi_build", Some(root), request, || build_jacobis(&chain));
    tracer.end(root);
    // The prebuilt Jacobi operators clone each level's X diagonal and
    // G[F] Laplacian (as `ChainBackend::estimated_bytes` counts them).
    const ARC: usize = std::mem::size_of::<(u32, f64)>();
    let jacobi_bytes = chain
        .levels
        .iter()
        .map(|l| {
            let nf = l.f_local.len();
            2 * nf * 8 + (nf + 1) * 8 + 2 * l.ff.num_edges() * ARC
        })
        .sum();
    assert_eq!(jacobis.len(), chain.levels.len());
    TracedChain { copies, edges_out: split.num_edges(), chain, jacobi_bytes }
}

impl TracedChain {
    fn descriptor(&self) -> String {
        let c = &self.chain;
        format!(
            "chain(n={},d={},base={},sweeps={},copies={},inner=f64)",
            c.n,
            c.depth(),
            c.base_n,
            c.jacobi_sweeps,
            self.copies
        )
    }

    fn backend_bytes(&self) -> usize {
        std::mem::size_of::<ChainBackend>() + self.chain.estimated_bytes() + self.jacobi_bytes
    }
}

/// Round 0 of the chain on G(0): incidence, 5DDSubset, TerminalWalks,
/// with the seeds `block_cholesky` gives round 0.
fn round_zero(tracer: &Tracer, split: &MultiGraph, options: &SolverOptions) -> Vec<u32> {
    let root = tracer.begin("chain.round0", None, 0);
    let inc = tracer.time("graph.incidence", Some(root), 0, || split.incidence());
    let wdeg = split.weighted_degrees();
    let mut rng = StreamRng::new(options.seed, mix2(0x5dd, 0));
    let dd = tracer.time("chain.five_dd", Some(root), 0, || {
        five_dd_subset(split, &inc, &wdeg, &mut rng, options.sample_fraction)
    });
    let in_c: Vec<bool> = dd.in_f.iter().map(|&f| !f).collect();
    tracer.time("chain.walks", Some(root), 0, || {
        terminal_walks(split, &in_c, mix2(options.seed, mix2(0, 0)))
    });
    tracer.end(root);
    dd.f_set
}

/// The multigrid hierarchy's levels, re-derived with the public
/// aggregation and Galerkin steps.
fn multigrid_levels(tracer: &Tracer, g: &MultiGraph, base_size: usize) -> usize {
    // MultigridBackend's stall guard: stop when a round keeps over 95%
    // of the vertices and the level fits a 4096-vertex dense base.
    const STALL_SHRINK: f64 = 0.95;
    const STALL_MAX_DENSE: usize = 4096;
    const MAX_LEVELS: usize = 64;
    let root = tracer.begin("multigrid.levels", None, 0);
    let mut a = to_csr(g);
    let mut levels = 0;
    while a.dim() > base_size && levels < MAX_LEVELS {
        let agg = tracer.time("multigrid.aggregate", Some(root), 0, || aggregate(&a));
        if (agg.num_aggregates as f64) > STALL_SHRINK * a.dim() as f64 && a.dim() <= STALL_MAX_DENSE
        {
            break;
        }
        a = tracer.time("multigrid.galerkin", Some(root), 0, || galerkin_coarse(&a, &agg));
        levels += 1;
    }
    tracer.end(root);
    levels
}

/// One solve, decomposed as the solver runs it: with the Richardson
/// outer, certified Richardson, then PCG if Richardson gave up; with
/// the PCG outer, PCG alone. Returns the answer and the Richardson
/// iterations abandoned.
fn traced_solve(
    tracer: &Tracer,
    solver: &LaplacianSolver,
    outer: OuterMethod,
    csr: &CsrMatrix,
    b: &[f64],
    eps: f64,
    request: u64,
) -> (Vec<f64>, usize) {
    let root = tracer.begin("solve", None, request);
    let w = solver.preconditioner();
    let (abandoned, done) = match outer {
        OuterMethod::Richardson => {
            let rich = tracer.begin("outer.richardson", Some(root), request);
            let a_op = Traced { inner: csr, tracer, name: "linalg.matvec", parent: rich, request };
            let w_op = Traced { inner: &w, tracer, name: "precond.apply", parent: rich, request };
            let opts = RichardsonOptions { delta: solver_delta(), ..RichardsonOptions::default() };
            let out = preconditioned_richardson(&a_op, &w_op, b, eps, &opts);
            tracer.end(rich);
            match out {
                Ok(o) if !o.certified_error.is_some_and(|ce| ce > eps) => (0, Some(o.solution)),
                Ok(o) => (o.iterations, None),
                Err(SolverError::Diverged { at_iteration, .. }) => (at_iteration, None),
                Err(e) => panic!("richardson failed: {e}"),
            }
        }
        OuterMethod::Pcg => (0, None),
        other => panic!("the traced solve covers Richardson and PCG, not {other:?}"),
    };
    let x = match done {
        Some(x) => x,
        None => {
            let pcg = tracer.begin("outer.pcg", Some(root), request);
            let a_op = Traced { inner: csr, tracer, name: "linalg.matvec", parent: pcg, request };
            let w_op = Traced { inner: &w, tracer, name: "precond.apply", parent: pcg, request };
            let max_iter = 40 * ((csr.dim() as f64).log2().ceil() as usize + 10);
            let out = pcg_solve_with(&a_op, &w_op, b, eps, max_iter, None);
            tracer.end(pcg);
            out.solution
        }
    };
    tracer.end(root);
    (x, abandoned)
}

/// Under another outer method, what the default Richardson outer would
/// do first on the same solver: the iterations it abandons before
/// falling back to PCG (0 when it meets ε) and their wall time.
fn richardson_probe(
    solver: &LaplacianSolver,
    csr: &CsrMatrix,
    b: &[f64],
    eps: f64,
) -> (usize, f64) {
    let w = solver.preconditioner();
    let opts = RichardsonOptions { delta: solver_delta(), ..RichardsonOptions::default() };
    let (t, out) = timed(|| preconditioned_richardson(csr, &w, b, eps, &opts));
    match out {
        Ok(o) if !o.certified_error.is_some_and(|ce| ce > eps) => (0, t),
        Ok(o) => (o.iterations, t),
        Err(SolverError::Diverged { at_iteration, .. }) => (at_iteration, t),
        Err(e) => panic!("richardson failed: {e}"),
    }
}

/// The δ the solver hands Richardson with the sparsify stage off.
fn solver_delta() -> f64 {
    SolverOptions::default().delta
}

/// The workload's graph, options and accuracy.
struct Subject {
    graph: MultiGraph,
    options: SolverOptions,
    eps: f64,
}

impl Subject {
    fn backend(&self) -> BackendKind {
        self.options.backend
    }
}

fn subject(workload: &str) -> Subject {
    match workload {
        "mesh_solve_many" => {
            Subject { graph: wl::mesh_graph(), options: wl::mesh_options(), eps: wl::MESH_EPS }
        }
        "dense_build_once" => {
            Subject { graph: wl::dense_graph(), options: wl::chain_options(), eps: wl::DENSE_EPS }
        }
        _ => {
            Subject { graph: wl::churn_graph(0), options: wl::chain_options(), eps: wl::CHURN_EPS }
        }
    }
}

/// The workload's setup and solve, decomposed as the traced run
/// decomposes them: the backend build (step by step for the chain) and
/// [`traced_solve`] on `solver`. Returns the wall time. With
/// [`Tracer::off`] the same code runs without spans.
fn decomposed_e2e(
    tracer: &Tracer,
    s: &Subject,
    solver: &LaplacianSolver,
    csr: &CsrMatrix,
    b: &[f64],
) -> f64 {
    const REQUEST: u64 = 3;
    let (t, _) = timed(|| {
        if s.backend() == BackendKind::Chain {
            drop(traced_chain(tracer, &s.graph, &s.options, REQUEST));
        } else {
            let mg = tracer.time("multigrid.build", None, REQUEST, || {
                build_backend(&s.graph, &s.options).expect("workload graphs are connected")
            });
            drop(mg);
        }
        traced_solve(tracer, solver, s.options.outer, csr, b, s.eps, REQUEST)
    });
    t
}

type Served = Vec<crate::openloop::Record<Result<SolveOutcome, SolverError>>>;

/// The serving layers: the churn open loop for the churn workload; for
/// the others, a one-key registry answering a burst of requests.
struct ServingRun {
    records: Served,
    registry_stats: parlap_core::RegistryStats,
    service: parlap_core::ServiceStats,
    builds: Vec<f64>,
    direct: Vec<f64>,
}

/// `refs` holds a reference solver per registry key, built directly.
fn serving(
    report: &mut Report,
    worst: &mut wl::Worst,
    s: &Subject,
    texts: Arc<Vec<String>>,
    churn: Option<&wl::Churn>,
    refs: &[(LaplacianSolver, CsrMatrix)],
    seed: u64,
) -> ServingRun {
    let log: wl::BuildLog = Arc::default();
    let (budget, schedule, keys, warm_builds) = match churn {
        Some(inputs) => (
            wl::churn_budget(refs),
            inputs.schedule.clone(),
            inputs.keys.clone(),
            wl::CHURN_RESIDENT,
        ),
        None => {
            // A burst of four requests, all due at once.
            let burst = 4;
            (usize::MAX, vec![0.0; burst], vec![0; burst], 1)
        }
    };
    let registry = wl::serving_registry(texts, s.options.clone(), budget, Arc::clone(&log));
    if churn.is_some() {
        wl::prewarm(&registry, seed);
    } else {
        registry.get(&0).expect("workload graph is connected");
    }
    let n = s.graph.num_vertices();
    let records = wl::serve(&registry, &schedule, &keys, n, s.eps, seed);
    let registry_stats = registry.stats();
    let mut service = None::<parlap_core::ServiceStats>;
    for k in 0..refs.len() {
        if let Some(st) = registry.key_stats(&k) {
            service = Some(match service {
                None => st,
                Some(mut acc) => {
                    acc.requests += st.requests;
                    acc.batches += st.batches;
                    acc.shed += st.shed;
                    acc.expired += st.expired;
                    acc
                }
            });
        }
    }
    drop(registry);
    let per_key = if churn.is_some() { wl::CHURN_SAMPLE_PER_KEY } else { records.len() };
    let outer = s.options.outer;
    let direct =
        wl::check_served(report, worst, &records, &keys, refs, s.eps, outer, seed, per_key);
    let all: Vec<f64> = log.lock().expect("build log lock").iter().map(|&(_, t)| t).collect();
    // Builds during traffic, or the pre-warm builds when none ran.
    let builds = if all.len() > warm_builds { all[warm_builds..].to_vec() } else { all };
    ServingRun {
        records,
        registry_stats,
        service: service.expect("at least one key is resident"),
        builds,
        direct,
    }
}

/// Count a cross-check between the traced decomposition and the
/// program as one answer; a mismatch fails the run.
fn cross_check(report: &mut Report, ok: bool, what: &str) {
    if !ok {
        eprintln!("cross-check failed: {what}");
    }
    report.answer(ok);
}

pub fn run(workload: &str, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let tracer = Tracer::default();
    let p1 = common::pool(1);
    let p2 = common::pool(WORKERS);
    let s = p2.install(|| subject(workload));
    let options = s.options.clone();
    let chain_options = common::options(BackendKind::Chain);
    report.note(
        "workload",
        format!(
            "traced {workload}: n={} m={} backend {:?} outer {:?} eps {:e}",
            s.graph.num_vertices(),
            s.graph.num_edges(),
            s.backend(),
            s.options.outer,
            s.eps
        ),
    );

    // The workload's own solver, built without spans: the reference for
    // the traced build and solve. On the mesh and dense workloads it is
    // also the registry's reference; the churn workload adds one per key.
    let churn = (workload == "serve_registry_churn")
        .then(|| p2.install(|| wl::churn_inputs(seed, seconds)));
    let texts = match &churn {
        Some(inputs) => Arc::clone(&inputs.texts),
        None => Arc::new(vec![common::edge_list_text(&s.graph)]),
    };
    let mut refs = vec![p2.install(|| {
        let solver = LaplacianSolver::build(&s.graph, options.clone()).expect("connected");
        (solver, to_csr(&s.graph))
    })];
    if churn.is_some() {
        refs.extend(wl::references(&texts, &s.options));
    }
    let key_refs = if churn.is_some() { &refs[1..] } else { &refs[..] };
    let (solver, csr) = (&refs[0].0, &refs[0].1);

    // Serving and registry layers.
    let mut worst = wl::Worst::default();
    let served = serving(&mut report, &mut worst, &s, texts, churn.as_ref(), key_refs, seed);
    let lat_ms: Vec<f64> = served.records.iter().map(|r| r.lag() * 1e3).collect();
    let outcomes: Vec<&SolveOutcome> =
        served.records.iter().filter_map(|r| r.output.as_ref().ok()).collect();

    // Graph layer: ingest of the workload's edge list.
    let text = common::edge_list_text(&s.graph);
    let ingested = p2.install(|| tracer.time("graph.ingest", None, 0, || common::ingest(&text)));
    assert_eq!(ingested.num_edges(), s.graph.num_edges());
    drop(ingested);

    let b = wl::rhs(s.graph.num_vertices(), seed, 0);
    let plain = p2.install(|| solver.solve(&b, s.eps).expect("solve"));

    // Chain layers: the traced build at T = 2 and T = 1, round 0.
    let reference_chain = if s.backend() == BackendKind::Chain {
        None
    } else {
        Some(p2.install(|| {
            LaplacianSolver::build(&s.graph, chain_options.clone()).expect("connected")
        }))
    };
    let chain_ref = reference_chain.as_ref().unwrap_or(solver);
    let tc2 = p2.install(|| traced_chain(&tracer, &s.graph, &chain_options, 2));
    let tc1 = p1.install(|| traced_chain(&tracer, &s.graph, &chain_options, 1));
    cross_check(
        &mut report,
        tc2.descriptor() == chain_ref.descriptor()
            && tc2.backend_bytes() == chain_ref.backend().estimated_bytes()
            && tc1.descriptor() == tc2.descriptor(),
        &format!(
            "traced chain build {} / {} bytes, LaplacianSolver::build {} / {} bytes",
            tc2.descriptor(),
            tc2.backend_bytes(),
            chain_ref.descriptor(),
            chain_ref.backend().estimated_bytes()
        ),
    );
    report.note("chain_descriptor", chain_ref.descriptor());
    let split = split_uniform(&s.graph, tc2.copies);
    let f0 = p2.install(|| round_zero(&tracer, &split, &chain_options));
    cross_check(
        &mut report,
        tc2.chain.levels.first().is_none_or(|l| l.f_local == f0),
        "round 0 5DDSubset differs from the chain's first level",
    );
    drop(split);

    // Multigrid layers.
    let mg_options = common::options(BackendKind::Multigrid);
    let mg = p2.install(|| {
        tracer
            .time("multigrid.build", None, 0, || build_backend(&s.graph, &mg_options))
            .expect("connected")
    });
    let mg_levels =
        mg.as_any().downcast_ref::<MultigridBackend>().expect("multigrid backend").num_levels();
    let derived = p2.install(|| multigrid_levels(&tracer, &s.graph, mg_options.base_size));
    cross_check(
        &mut report,
        derived == mg_levels,
        &format!("re-derived multigrid levels {derived}, the backend's {mg_levels}"),
    );
    drop(mg);

    // Backend apply and matvec, T = 1 and T = 2.
    let w = solver.preconditioner();
    let n = s.graph.num_vertices();
    let apply = |pool: &rayon::ThreadPool| {
        pool.install(|| {
            let mut out = vec![0.0; n];
            micro(|| w.apply(black_box(&b), &mut out))
        })
    };
    let matvec = |pool: &rayon::ThreadPool| {
        pool.install(|| {
            let mut out = vec![0.0; n];
            micro(|| csr.apply(black_box(&b), &mut out))
        })
    };
    let (apply2, apply1) = (apply(&p2), apply(&p1));
    let (matvec2, matvec1) = (matvec(&p2), matvec(&p1));
    let (join2, join1) = (p2.install(join_seconds), p1.install(join_seconds));

    // The outer loop, decomposed, against the solver's own answer.
    let (x, abandoned) =
        p2.install(|| traced_solve(&tracer, solver, options.outer, csr, &b, s.eps, 0));
    cross_check(
        &mut report,
        common::bits_equal(&x, &plain.solution),
        "traced solve differs from LaplacianSolver::solve",
    );
    let v = p2.install(|| common::check(solver, csr, &b, &plain, s.eps, options.outer));
    worst.add(&v, s.eps);
    report.answer(v.ok);
    worst.note(&mut report);
    let probe = (options.outer != OuterMethod::Richardson)
        .then(|| p2.install(|| richardson_probe(solver, csr, &b, s.eps)));

    // Tracing overhead: the same decomposed setup and solve with spans
    // off and on, in alternating pairs.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    while on.len() < OVERHEAD_PAIRS || start.elapsed().as_secs_f64() < OVERHEAD_SECONDS {
        off.push(p2.install(|| decomposed_e2e(&Tracer::off(), &s, solver, csr, &b)));
        on.push(p2.install(|| decomposed_e2e(&Tracer::default(), &s, solver, csr, &b)));
    }
    report.note("overhead_pairs", format!("off {off:.4?} on {on:.4?}"));

    let spans = tracer.spans();
    let spans_path = std::path::Path::new("perfbench/out");
    if std::fs::create_dir_all(spans_path).is_ok() {
        let file = spans_path.join(format!("spans-{workload}-{seed}.jsonl"));
        if let Err(e) = std::fs::write(&file, trace::to_jsonl(&spans)) {
            eprintln!("could not write {}: {e}", file.display());
        }
    }
    let solve_id = spans.iter().rposition(|sp| sp.name == "solve").expect("solve span");
    let solve_time = spans[solve_id].duration();
    let apply_in_solve: f64 = spans
        .iter()
        .filter(|sp| sp.name == "precond.apply" && sp.request == 0)
        .filter(|sp| sp.start >= spans[solve_id].start && sp.end <= spans[solve_id].end)
        .map(|sp| sp.duration())
        .sum();
    let rich_time = spans
        .iter()
        .rfind(|sp| sp.name == "outer.richardson" && sp.request == 0)
        .map_or(0.0, |sp| sp.duration());
    let by = |name: &str, request: u64| -> f64 {
        spans
            .iter()
            .filter(|sp| sp.name == name && sp.request == request)
            .map(|sp| sp.duration())
            .sum()
    };

    let m = &mut report;
    m.metric("graph.ingest_s", trace::total(&spans, "graph.ingest"), "s");
    m.metric("graph.incidence_s", trace::total(&spans, "graph.incidence"), "s");
    m.metric("alpha.split_s", by("alpha.split", 2), "s");
    m.metric("alpha.copies", tc2.copies as f64, "count");
    m.metric("alpha.edges_out", tc2.edges_out as f64, "count");
    let (chain2, chain1) = (by("chain.block_cholesky", 2), by("chain.block_cholesky", 1));
    m.metric("chain.build_s", chain2, "s");
    m.metric("chain.build_s_t1", chain1, "s");
    m.metric("chain.speedup_t2", chain1 / chain2, "ratio");
    m.metric("chain.rounds", tc2.chain.stats.rounds as f64, "count");
    m.metric("chain.five_dd_s", trace::total(&spans, "chain.five_dd"), "s");
    m.metric("chain.walks_s", trace::total(&spans, "chain.walks"), "s");
    m.metric(
        "chain.walk_steps",
        tc2.chain.stats.walk_total_steps.iter().sum::<u64>() as f64,
        "count",
    );
    m.metric(
        "chain.connectivity_retries",
        tc2.chain.stats.connectivity_retries_used as f64,
        "count",
    );
    m.metric("chain.jacobi_build_s", by("chain.jacobi_build", 2), "s");
    let pram = tc2.chain.stats.meter.total();
    m.metric("chain.pram_work", pram.work as f64, "ops");
    m.metric("chain.pram_depth", pram.depth as f64, "steps");
    m.metric("multigrid.build_s", trace::total(&spans, "multigrid.build"), "s");
    m.metric("multigrid.levels", mg_levels as f64, "count");
    m.metric("multigrid.aggregate_s", trace::total(&spans, "multigrid.aggregate"), "s");
    m.metric("multigrid.galerkin_s", trace::total(&spans, "multigrid.galerkin"), "s");
    m.metric("precond.apply_ms", apply2 * 1e3, "ms");
    m.metric("precond.apply_ms_t1", apply1 * 1e3, "ms");
    m.metric("precond.apply_speedup_t2", apply1 / apply2, "ratio");
    m.metric("precond.mib", solver.backend().estimated_bytes() as f64 / MIB, "MiB");
    m.metric("linalg.matvec_ms", matvec2 * 1e3, "ms");
    m.metric("linalg.matvec_ms_t1", matvec1 * 1e3, "ms");
    m.metric("linalg.matvec_speedup_t2", matvec1 / matvec2, "ratio");
    // Bytes a CSR matvec must move: row pointers, column indices and
    // values once, x gathered per entry, y written once.
    let bytes = (n + 1) * 8 + csr.nnz() * (4 + 8 + 8) + n * 8;
    m.metric("linalg.matvec_gbps_computed", bytes as f64 / matvec2 / 1e9, "GB/s");
    let iters: Vec<f64> = outcomes.iter().map(|o| o.iterations as f64).collect();
    let fallbacks = outcomes.iter().filter(|o| o.used_fallback).count();
    m.metric("outer.iters_p50", median(&iters), "count");
    m.metric("outer.fallback_frac", fallbacks as f64 / outcomes.len() as f64, "ratio");
    // Under another outer method these say what the default Richardson
    // outer would abandon, and its share of a solve that then falls back.
    let (wasted, wasted_share) = match probe {
        None if abandoned > 0 => (abandoned, rich_time / solve_time),
        Some((probed, t)) if probed > 0 => (probed, t / (t + solve_time)),
        _ => (0, 0.0),
    };
    m.metric("outer.wasted_iters", wasted as f64, "count");
    m.metric("outer.wasted_share", wasted_share, "ratio");
    m.metric("outer.apply_share", apply_in_solve / solve_time, "ratio");
    // The L-norm error of the solver's own answer, whatever its outer
    // method promises.
    let lnorm = v.lnorm_error.unwrap_or_else(|| solver.relative_error(&b, &plain.solution));
    m.metric("outer.error_over_eps", lnorm / s.eps, "ratio");
    m.metric("rayon.join_us_t1", join1 * 1e6, "us");
    m.metric("rayon.join_us_t2", join2 * 1e6, "us");
    let st = &served.service;
    m.metric("service.batches", st.batches as f64, "count");
    m.metric("service.batch_mean", st.requests as f64 / st.batches.max(1) as f64, "count");
    let shed = served
        .records
        .iter()
        .filter(|r| matches!(r.output, Err(SolverError::Overloaded { .. })))
        .count();
    let expired = served
        .records
        .iter()
        .filter(|r| matches!(r.output, Err(SolverError::DeadlineExceeded { .. })))
        .count();
    m.metric("service.shed", shed as f64, "count");
    m.metric("service.expired", expired as f64, "count");
    m.metric("service.solve_ms_p50", median(&served.direct) * 1e3, "ms");
    m.metric("gen.lag_ms_p99", tail(&lat_ms).value, "ms");
    let rs = &served.registry_stats;
    m.metric("registry.hit_frac", rs.hits as f64 / (rs.hits + rs.misses).max(1) as f64, "ratio");
    m.metric("registry.misses", rs.misses as f64, "count");
    m.metric("registry.evictions", rs.evictions as f64, "count");
    m.metric("registry.rebuild_s_p50", median(&served.builds), "s");
    m.metric("registry.resident_mib", rs.resident_bytes as f64 / MIB, "MiB");
    m.metric("trace.overhead_frac", median(&on) / median(&off) - 1.0, "ratio");
    m.metric("trace.coverage_frac", trace::coverage(&spans), "ratio");
    report.note("spans", spans.len());
    report
}
