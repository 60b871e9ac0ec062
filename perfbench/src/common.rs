//! Inputs, configuration and checks shared by the workloads.

use parlap_core::solver::OuterMethod;
use parlap_core::{LaplacianSolver, SolveOutcome, SolverOptions};
use parlap_graph::io::parse_edge_list_chunked;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::csr::CsrMatrix;
use parlap_linalg::op::LinOp;
use parlap_linalg::vector::{norm2, project_out_ones};
use std::fmt::Write as _;

/// Workers in every pool the benchmark uses (the host has 2 cores).
pub const WORKERS: usize = 2;

/// Edges per chunk handed from the edge-list parser to graph assembly.
pub const INGEST_CHUNK: usize = 1 << 14;

/// Build a pool of exactly `threads` workers, whatever
/// `RAYON_NUM_THREADS` says.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("spawning benchmark pool workers")
}

/// The graph as edge-list text, weights written so that parsing gives
/// the same bits back.
pub fn edge_list_text(g: &MultiGraph) -> String {
    let mut out = String::with_capacity(g.num_edges() * 32);
    for e in g.edges() {
        writeln!(out, "{} {} {:?}", e.u, e.v, e.w).expect("writing to a String");
    }
    out
}

/// Ingest edge-list text through the library's chunked parser.
pub fn ingest(text: &str) -> MultiGraph {
    parse_edge_list_chunked(text.as_bytes(), INGEST_CHUNK).expect("generated edge list parses")
}

/// Default options, with the backend a workload names.
pub fn options(backend: parlap_core::BackendKind) -> SolverOptions {
    SolverOptions { backend, ..SolverOptions::default() }
}

/// Refuse to run when any `PARLAP_*` variable is set: the library reads
/// them once per process, and they would change what is measured.
pub fn refuse_parlap_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PARLAP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration; unset it",
            set.join(", ")
        ))
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The verdict on one answer.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    pub ok: bool,
    /// `‖x − L⁺b‖_L / ‖L⁺b‖_L` against a near-exact reference, where
    /// the contract is in the L-norm.
    pub lnorm_error: Option<f64>,
    /// `‖b − Lx‖₂ / ‖b‖₂`, recomputed here.
    pub residual: f64,
    /// The answer came from the PCG fallback.
    pub fallback: bool,
}

/// `‖b − Lx‖₂ / ‖b‖₂` on the consistent part of `b`.
pub fn relative_residual(csr: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut rhs = b.to_vec();
    project_out_ones(&mut rhs);
    let lx = csr.apply_vec(x);
    let r: Vec<f64> = rhs.iter().zip(&lx).map(|(a, c)| a - c).collect();
    norm2(&r) / norm2(&rhs)
}

/// Check an answer against the accuracy contract of the outer method
/// the solver was built with. Richardson (the default) promises
/// `‖x − L⁺b‖_L ≤ ε‖L⁺b‖_L` (`LaplacianSolver::relative_error`), and it
/// holds every answer to it, a PCG fallback's too. PCG and Chebyshev
/// promise a relative residual `‖b − Lx‖₂ ≤ ε‖b‖₂`, recomputed here;
/// their answers skip the costly L-norm reference solve.
pub fn check(
    solver: &LaplacianSolver,
    csr: &CsrMatrix,
    b: &[f64],
    out: &SolveOutcome,
    eps: f64,
    outer: OuterMethod,
) -> Verdict {
    let residual = relative_residual(csr, b, &out.solution);
    let (ok, lnorm_error) = match outer {
        OuterMethod::Richardson => {
            let e = solver.relative_error(b, &out.solution);
            (e <= eps, Some(e))
        }
        OuterMethod::Pcg | OuterMethod::Chebyshev => (residual <= eps, None),
    };
    Verdict { ok, lnorm_error, residual, fallback: out.used_fallback }
}

/// The two vectors are the same bit for bit.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Provenance: workload parameters, descriptors, notes.
    pub provenance: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    /// Count one checked answer.
    pub fn answer(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Share of attempted answers that passed every check.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; a non-finite value (a failed request's latency) is
/// written as 1e300 so the line stays valid JSON.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "1e300".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::laplacian::to_csr;
    use parlap_linalg::vector::random_demand;

    #[test]
    fn the_gate_holds_every_richardson_answer_to_the_l_norm_bound() {
        let g = generators::grid2d(12, 12);
        let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("connected");
        let csr = to_csr(&g);
        let b = random_demand(g.num_vertices(), 3);
        let eps = 1e-6;
        let out = solver.solve(&b, eps).expect("solve");
        assert!(check(&solver, &csr, &b, &out, eps, OuterMethod::Richardson).ok);
        // An answer off by more than ε in the L-norm fails, whichever
        // outer method produced it.
        let mut off = out.clone();
        off.used_fallback = true;
        for (i, x) in off.solution.iter_mut().enumerate() {
            *x += 1e-3 * ((i % 7) as f64 - 3.0);
        }
        let v = check(&solver, &csr, &b, &off, eps, OuterMethod::Richardson);
        assert!(!v.ok && v.fallback && v.lnorm_error.is_some_and(|e| e > eps));
    }

    #[test]
    fn the_gate_holds_pcg_answers_to_the_residual_bound() {
        let g = generators::grid2d(12, 12);
        let options = SolverOptions { outer: OuterMethod::Pcg, ..SolverOptions::default() };
        let solver = LaplacianSolver::build(&g, options).expect("connected");
        let csr = to_csr(&g);
        let b = random_demand(g.num_vertices(), 4);
        let eps = 1e-6;
        let out = solver.solve(&b, eps).expect("solve");
        let v = check(&solver, &csr, &b, &out, eps, OuterMethod::Pcg);
        assert!(v.ok && v.residual <= eps && v.lnorm_error.is_none());
        // An answer whose residual exceeds ε fails.
        let mut off = out.clone();
        for (i, x) in off.solution.iter_mut().enumerate() {
            *x += 1e-3 * ((i % 7) as f64 - 3.0);
        }
        let v = check(&solver, &csr, &b, &off, eps, OuterMethod::Pcg);
        assert!(!v.ok && v.residual > eps);
    }
}
