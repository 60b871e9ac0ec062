//! Connectivity checking.
//!
//! The solver's precondition (Fact 2.3 context) is a *connected*
//! multigraph, and the chain build re-checks every sampled Schur
//! complement. [`num_components`] is a sequential union-find over the
//! edge list (union by rank, path halving): no incidence structure,
//! `O(m α(n))` work, and it stops at the first edge that leaves a
//! single component — on a connected graph usually long before the
//! end of the list. [`crate::components`] has the parallel FastSV
//! labelling for callers that need the components themselves.

use crate::multigraph::MultiGraph;

/// Number of connected components (exact).
pub fn num_components(g: &MultiGraph) -> usize {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut rank = vec![0u8; n];
    let mut components = n;
    let find = |parent: &mut [u32], mut x: u32| {
        while parent[x as usize] != x {
            let grand = parent[parent[x as usize] as usize];
            parent[x as usize] = grand;
            x = grand;
        }
        x
    };
    for e in g.edges() {
        if components <= 1 {
            break;
        }
        let (a, b) = (find(&mut parent, e.u), find(&mut parent, e.v));
        if a == b {
            continue;
        }
        let (hi, lo) = if rank[a as usize] >= rank[b as usize] { (a, b) } else { (b, a) };
        parent[lo as usize] = hi;
        if rank[hi as usize] == rank[lo as usize] {
            rank[hi as usize] += 1;
        }
        components -= 1;
    }
    components
}

/// True iff the multigraph is connected (and nonempty).
pub fn is_connected(g: &MultiGraph) -> bool {
    g.num_vertices() > 0 && num_components(g) == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::Edge;

    #[test]
    fn single_vertex_is_connected() {
        assert!(is_connected(&MultiGraph::new(1)));
    }

    #[test]
    fn empty_graph_not_connected() {
        assert!(!is_connected(&MultiGraph::new(0)));
    }

    #[test]
    fn two_isolated_vertices() {
        let g = MultiGraph::new(2);
        assert!(!is_connected(&g));
        assert_eq!(num_components(&g), 2);
    }

    #[test]
    fn path_is_connected() {
        let g = MultiGraph::from_edges(
            4,
            vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(2, 3, 1.0)],
        );
        assert!(is_connected(&g));
    }

    #[test]
    fn two_triangles_disconnected() {
        let g = MultiGraph::from_edges(
            6,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(0, 2, 1.0),
                Edge::new(3, 4, 1.0),
                Edge::new(4, 5, 1.0),
                Edge::new(3, 5, 1.0),
            ],
        );
        assert!(!is_connected(&g));
        assert_eq!(num_components(&g), 2);
    }

    #[test]
    fn large_star_is_one_component() {
        let n = 5000;
        let edges: Vec<Edge> = (1..n as u32).map(|i| Edge::new(0, i, 1.0)).collect();
        let g = MultiGraph::from_edges(n, edges);
        assert!(is_connected(&g));
        assert_eq!(num_components(&g), 1);
    }
}
