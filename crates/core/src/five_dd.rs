//! `5DDSubset` (Algorithm 3): finding large 5-diagonally-dominant
//! vertex subsets.
//!
//! A subset `F ⊆ V` is 5-DD when for every `i ∈ F` the weight of `i`'s
//! edges *inside* `F` is at most a fifth of its total weighted degree
//! (Definition 3.1 applied to `L_FF`). Such blocks are solvable by a
//! handful of Jacobi sweeps (Lemma 3.5).
//!
//! The algorithm, due to Lee–Peng–Spielman: repeatedly sample a
//! uniform candidate set `F'` of `n/20` vertices and keep the ones
//! whose internal degree *within `F'`* passes the threshold — by
//! Markov, a constant fraction survives with probability ≥ 1/2
//! (Lemma 3.4), so `O(1)` rounds suffice in expectation and the
//! returned set has size ≥ `n/40`.

use parlap_graph::multigraph::{Incidence, MultiGraph};
use parlap_primitives::cost::{log2_ceil, Cost};
use parlap_primitives::prng::{sample_distinct, StreamRng};
use parlap_primitives::util::PAR_CUTOFF;
use rayon::prelude::*;

/// Result of a `5DDSubset` call.
#[derive(Clone, Debug)]
pub struct FiveDdResult {
    /// Membership mask over the graph's vertices.
    pub in_f: Vec<bool>,
    /// The subset as a sorted id list.
    pub f_set: Vec<u32>,
    /// Sampling rounds performed (Lemma 3.4 predicts O(1) expected).
    pub rounds: usize,
    /// PRAM cost of the call.
    pub cost: Cost,
}

/// Fraction of vertices sampled into the candidate set `F'` each round
/// (the paper's `n/20`).
pub const SAMPLE_FRACTION: f64 = 1.0 / 20.0;
/// Required output size relative to `n` (the paper's `n/40`).
pub const KEEP_FRACTION: f64 = 1.0 / 40.0;
/// The "5" in 5-DD: internal weight must be ≤ degree / DD_FACTOR.
pub const DD_FACTOR: f64 = 5.0;

/// Run `5DDSubset` on a multigraph.
///
/// `sample_fraction` overrides the paper's 1/20 for ablation
/// experiments (the 5-DD *validity* of the output is unconditional —
/// only the size guarantee depends on the fraction). The returned set
/// always satisfies Definition 3.1, verified by construction.
pub fn five_dd_subset(
    g: &MultiGraph,
    inc: &Incidence,
    wdeg: &[f64],
    rng: &mut StreamRng,
    sample_fraction: f64,
) -> FiveDdResult {
    let n = g.num_vertices();
    assert!(n > 0, "5DDSubset on empty graph");
    assert!(sample_fraction > 0.0 && sample_fraction <= 1.0, "sample_fraction must be in (0, 1]");
    let edges = g.edges();
    let sample_size = ((n as f64 * sample_fraction).floor() as usize).clamp(1, n);
    // Needed size: ceil(n/40) with the paper's constants scaled to the
    // chosen sample fraction (sample/2 survives in expectation; we keep
    // the paper's n/40 when fraction is the default).
    let need = ((n as f64 * KEEP_FRACTION).ceil() as usize).clamp(1, sample_size);
    let mut in_fprime = vec![false; n];
    let mut rounds = 0usize;
    let mut work = 0u64;
    let mut best: Vec<u32> = Vec::new();
    loop {
        rounds += 1;
        let fprime = sample_distinct(rng, n, sample_size);
        for &v in &fprime {
            in_fprime[v] = true;
        }
        // Internal weighted degree within F', per candidate, in parallel.
        let passes = |&i: &usize| -> bool {
            let internal: f64 = inc
                .edges_at(i)
                .iter()
                .map(|&ei| {
                    let e = &edges[ei as usize];
                    if in_fprime[e.other(i as u32) as usize] {
                        e.w
                    } else {
                        0.0
                    }
                })
                .sum();
            internal <= wdeg[i] / DD_FACTOR
        };
        let keep_flags: Vec<bool> = if fprime.len() >= PAR_CUTOFF {
            fprime.par_iter().map(passes).collect()
        } else {
            fprime.iter().map(passes).collect()
        };
        work += fprime.iter().map(|&i| inc.degree(i) as u64).sum::<u64>() + sample_size as u64;
        let kept: Vec<u32> =
            fprime.iter().zip(&keep_flags).filter(|&(_, &k)| k).map(|(&i, _)| i as u32).collect();
        // Reset mask for the next round (or final mask construction).
        for &v in &fprime {
            in_fprime[v] = false;
        }
        if kept.len() > best.len() {
            best = kept;
        }
        // With the paper's 1/20 fraction, Lemma 3.4 gives success per
        // round w.p. ≥ 1/2, so this loop ends almost immediately. With
        // user-tuned aggressive fractions (ablation E17) the filter
        // can starve; degrade gracefully after a round budget: any
        // non-empty valid subset keeps the algorithm correct (only the
        // round count d suffers), and a singleton is always 5-DD.
        let done = best.len() >= need || rounds >= MAX_ROUNDS;
        if done {
            if best.is_empty() {
                // Min-degree singleton: trivially 5-DD.
                let v = (0..n)
                    .min_by(|&a, &b| wdeg[a].partial_cmp(&wdeg[b]).expect("finite degrees"))
                    .expect("n > 0") as u32;
                best.push(v);
            }
            let mut f_set = best;
            f_set.sort_unstable();
            let mut in_f = vec![false; n];
            for &v in &f_set {
                in_f[v as usize] = true;
            }
            // Each round: sample (O(s)), internal degrees (parallel
            // gather, O(log) depth), filter (O(log) depth compaction).
            let depth = rounds as u64 * (2 * log2_ceil(n as u64) + 4);
            return FiveDdResult { in_f, f_set, rounds, cost: Cost::new(work, depth) };
        }
    }
}

/// Round budget before `five_dd_subset` settles for the best subset
/// found so far (never reached at the paper's parameters).
const MAX_ROUNDS: usize = 24;

/// Verify Definition 3.1 for `F` in `G`: every `i ∈ F` has internal
/// weight ≤ `wdeg(i)/5`. Test / experiment oracle.
pub fn verify_five_dd(g: &MultiGraph, in_f: &[bool]) -> bool {
    let n = g.num_vertices();
    assert_eq!(in_f.len(), n, "mask length mismatch");
    let mut internal = vec![0.0f64; n];
    let mut total = vec![0.0f64; n];
    for e in g.edges() {
        let (u, v) = (e.u as usize, e.v as usize);
        total[u] += e.w;
        total[v] += e.w;
        if in_f[u] && in_f[v] {
            internal[u] += e.w;
            internal[v] += e.w;
        }
    }
    (0..n).filter(|&i| in_f[i]).all(|i| internal[i] <= total[i] / DD_FACTOR + 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;

    fn run(g: &MultiGraph, seed: u64) -> FiveDdResult {
        let inc = g.incidence();
        let wdeg = g.weighted_degrees();
        let mut rng = StreamRng::new(seed, 0);
        five_dd_subset(g, &inc, &wdeg, &mut rng, SAMPLE_FRACTION)
    }

    #[test]
    fn subset_is_five_dd_and_large_enough() {
        for (name, g) in [
            ("grid", generators::grid2d(40, 40)),
            ("gnp", generators::gnp_connected(1500, 0.005, 3)),
            ("pa", generators::preferential_attachment(1200, 3, 5)),
            ("wheavy", generators::exponential_weights(&generators::grid2d(35, 35), 1e3, 7)),
        ] {
            let r = run(&g, 42);
            let n = g.num_vertices();
            assert!(verify_five_dd(&g, &r.in_f), "{name}: subset not 5-DD");
            assert!(r.f_set.len() * 40 >= n, "{name}: |F|={} < n/40={}", r.f_set.len(), n / 40);
            assert_eq!(r.f_set.len(), r.in_f.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn expected_constant_rounds() {
        // Lemma 3.4: each round succeeds w.p. ≥ 1/2, so the mean round
        // count over many seeds should be ≤ 2 + slack.
        let g = generators::grid2d(30, 30);
        let total: usize = (0..50).map(|s| run(&g, s).rounds).sum();
        let mean = total as f64 / 50.0;
        assert!(mean < 3.0, "mean rounds {mean}");
    }

    #[test]
    fn tiny_graphs() {
        // n=1: the single vertex is trivially 5-DD.
        let g1 = MultiGraph::new(1);
        let r = run(&g1, 0);
        assert_eq!(r.f_set, vec![0]);
        // n=2 path: a singleton subset is 5-DD (no internal edges).
        let g2 = generators::path(2);
        let r = run(&g2, 0);
        assert!(!r.f_set.is_empty());
        assert!(verify_five_dd(&g2, &r.in_f));
    }

    #[test]
    fn star_center_never_with_leaves() {
        // In a star, {center} ∪ {leaf} is still 5-DD only if their
        // shared edge is light relative to degrees — with unit weights,
        // a leaf with its center has internal = total, so at most one
        // of them survives in any valid subset containing both.
        let g = generators::star(100);
        let r = run(&g, 9);
        assert!(verify_five_dd(&g, &r.in_f));
        if r.in_f[0] {
            // center kept: internal degree must be ≤ 99/5, i.e. at most
            // 19 leaves can be in F with it.
            let leaves = r.f_set.iter().filter(|&&v| v != 0).count();
            assert!(leaves <= 19, "{leaves} leaves alongside center");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::grid2d(25, 25);
        let a = run(&g, 7);
        let b = run(&g, 7);
        assert_eq!(a.f_set, b.f_set);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn larger_sample_fraction_is_still_valid() {
        let g = generators::gnp_connected(800, 0.01, 1);
        let inc = g.incidence();
        let wdeg = g.weighted_degrees();
        let mut rng = StreamRng::new(3, 0);
        let r = five_dd_subset(&g, &inc, &wdeg, &mut rng, 0.25);
        assert!(verify_five_dd(&g, &r.in_f));
    }

    #[test]
    fn verify_rejects_bad_subset() {
        // Whole vertex set of a triangle is never 5-DD.
        let g = generators::complete(3);
        assert!(!verify_five_dd(&g, &[true, true, true]));
        assert!(verify_five_dd(&g, &[true, false, false]));
    }

    #[test]
    fn cost_is_recorded() {
        let g = generators::grid2d(20, 20);
        let r = run(&g, 1);
        assert!(r.cost.work > 0);
        assert!(r.cost.depth > 0);
    }
}
