//! Chain and solve bits pinned to fixed checksums.
//!
//! The determinism suite compares runs against each other (1 vs 2 vs
//! 8 workers); this file compares them against constants, so a change
//! that alters every run the same way — a different incidence order,
//! a reordered walk compaction, a new summation order — still fails.
//! The constants were recorded with the comparison-sort incidence,
//! BFS connectivity and per-edge walk compaction that preceded the
//! counting-sort / union-find / chunked-compaction build; that build
//! must reproduce them exactly.
//!
//! Every solver option that an environment variable could change
//! (backend, ordering, inner precision, sparsify) is pinned. The
//! kernel mode is process-wide (`PARLAP_KERNELS`); it changes the
//! outer loop's dot products, so the solution checksum is compared
//! only under the default scalar kernels.

use parlap::prelude::*;
use parlap_core::alpha::split_uniform;
use parlap_core::chain::{block_cholesky, ChainOptions, CholeskyChain};
use parlap_core::solver::SparsifyMode;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32s(&mut self, xs: &[u32]) {
        for x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

/// Checksums of a chain: F and C partitions, Jacobi diagonals, and the
/// dense base pseudoinverse.
fn chain_hash(chain: &CholeskyChain) -> u64 {
    let mut h = Fnv::new();
    for level in &chain.levels {
        h.u32s(&level.f_local);
        h.u32s(&level.c_local);
        h.f64s(&level.x_diag);
    }
    h.f64s(chain.base_pinv.data());
    h.0
}

/// `(chain hash, solution hash, outer iterations)` for a split-4 chain
/// and one default-accuracy solve on `g`.
fn run(g: &MultiGraph) -> (u64, u64, usize) {
    let chain = block_cholesky(&split_uniform(g, 4), &ChainOptions::default()).expect("chain");
    let options = SolverOptions {
        split: SplitStrategy::Fixed(4),
        backend: BackendKind::Chain,
        ordering: NodeOrdering::Natural,
        inner_precision: InnerPrecision::F64,
        sparsify: SparsifyMode::Off,
        ..SolverOptions::default()
    };
    let solver = LaplacianSolver::build(g, options).expect("build");
    let b = vector::random_demand(g.num_vertices(), 5);
    let out = solver.solve(&b, 1e-8).expect("solve");
    let mut h = Fnv::new();
    h.f64s(&out.solution);
    (chain_hash(&chain), h.0, out.iterations)
}

fn check(g: &MultiGraph, want: (u64, u64, usize)) {
    let (chain, solution, iterations) = run(g);
    assert_eq!(chain, want.0, "chain checksum {chain:#018x} differs from the pinned value");
    assert_eq!(iterations, want.2, "outer iteration count differs from the pinned value");
    let simd = std::env::var("PARLAP_KERNELS").is_ok_and(|v| !v.is_empty());
    if !simd {
        assert_eq!(
            solution, want.1,
            "solution checksum {solution:#018x} differs from the pinned value"
        );
    }
}

#[test]
fn dense_gnp_chain_and_solve_bits_pinned() {
    check(
        &generators::gnp_connected(300, 0.05, 17),
        (0x4a45_f79c_1a57_bebe, 0xbb13_ae9c_0af5_1b81, 21),
    );
}

#[test]
fn preferential_attachment_chain_and_solve_bits_pinned() {
    check(
        &generators::preferential_attachment(2000, 4, 29),
        (0x71ab_5110_85b4_c0d0, 0x2682_fed1_addb_2ba0, 28),
    );
}
