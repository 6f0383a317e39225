//! Recognition of two-terminal series-parallel DAGs.
//!
//! The paper's algorithms require the application to *be* a series-parallel
//! graph (§3.1). Graphs built through [`crate::compose`] are SP by
//! construction, but a workflow imported from elsewhere (a DOT file, a
//! trace) needs checking. This module implements the classic
//! Valdes–Tarjan–Lawler reduction: repeatedly
//!
//! * **series-reduce** a non-terminal node with in-degree 1 and out-degree
//!   1 (replace `u → v → w` by `u → w`), and
//! * **parallel-reduce** duplicate edges (merge two `u → w` edges),
//!
//! until no rule applies. The DAG is two-terminal series-parallel **iff**
//! the result is the single edge `source → sink`.
//!
//! The reduction also **counts order ideals** (the state space of `DPA1D`,
//! see [`crate::ideal`]). Every live edge `u → w` carries a weight `m`: the
//! number of ideals of the sub-SPG between `u` and `w` that contain `u` but
//! not `w`. A base edge has `m = 1` (just `{u}`); a series reduction adds
//! the two weights (the middle node is either out, or in with all of the
//! first part); a parallel reduction multiplies them (the two interiors are
//! independent). An SP graph has `m(source → sink) + 2` ideals in all — the
//! empty and the full set are the two without the source or with the sink.
//! The count costs `O(n log n)` while the lattice it measures grows
//! exponentially with the elevation, so enumeration checks it first.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::graph::Spg;

/// Saturation point of [`SpRecognition::ideals`]: `2^53`, the largest
/// integer that a JSON number (an `f64`) carries exactly. A count equal to
/// this value means "at least `2^53` ideals".
pub const IDEAL_COUNT_SATURATION: u64 = 1 << 53;

/// Outcome of the reduction process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpRecognition {
    /// Whether the graph reduced to the single source→sink edge.
    pub is_series_parallel: bool,
    /// Number of series reductions applied.
    pub series_steps: usize,
    /// Number of parallel reductions applied.
    pub parallel_steps: usize,
    /// Nodes remaining when reduction stalled (2 for SP graphs).
    pub residual_nodes: usize,
    /// Exact number of order ideals (including the empty and the full
    /// set), saturated at [`IDEAL_COUNT_SATURATION`]; `None` when the graph
    /// is not series-parallel.
    pub ideals: Option<u64>,
}

/// Runs SP recognition on the graph's structure.
pub fn recognize(g: &Spg) -> SpRecognition {
    recognize_edges(g.n(), g.source().idx(), g.sink().idx(), &edge_list(g))
}

fn edge_list(g: &Spg) -> Vec<(usize, usize)> {
    g.edges()
        .iter()
        .map(|e| (e.src.idx(), e.dst.idx()))
        .collect()
}

/// Core reduction on an explicit multigraph edge list.
pub fn recognize_edges(
    n: usize,
    source: usize,
    sink: usize,
    edges: &[(usize, usize)],
) -> SpRecognition {
    let saturate = |m: u64| m.min(IDEAL_COUNT_SATURATION);
    // Live edges keyed by endpoint, each with its ideal-count weight.
    let mut succ: Vec<BTreeMap<usize, u64>> = vec![BTreeMap::new(); n];
    let mut pred: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut series_steps = 0usize;
    let mut parallel_steps = 0usize;
    for &(a, b) in edges {
        // A duplicate base edge parallel-reduces at once (weight 1 · 1).
        if succ[a].insert(b, 1).is_some() {
            parallel_steps += 1;
        }
        pred[b].insert(a);
    }
    let reducible = |v: usize, succ: &[BTreeMap<usize, u64>], pred: &[BTreeSet<usize>]| {
        v != source && v != sink && pred[v].len() == 1 && succ[v].len() == 1
    };
    // Work-list of candidate nodes for series reduction.
    let mut queue: Vec<usize> = (0..n).filter(|&v| reducible(v, &succ, &pred)).collect();
    let mut alive = vec![true; n];

    while let Some(v) = queue.pop() {
        if !alive[v] || !reducible(v, &succ, &pred) {
            continue;
        }
        let u = *pred[v].first().unwrap();
        let (&w, &right) = succ[v].first_key_value().unwrap();
        if u == w {
            // A cycle u -> v -> u cannot occur in a DAG; bail out.
            continue;
        }
        // Remove v; add edge u -> w (merging a parallel duplicate if any).
        alive[v] = false;
        series_steps += 1;
        let left = succ[u].remove(&v).unwrap();
        pred[w].remove(&v);
        pred[v].clear();
        succ[v].clear();
        let m = saturate(left + right);
        match succ[u].entry(w) {
            Entry::Vacant(e) => {
                e.insert(m);
                pred[w].insert(u);
            }
            Entry::Occupied(mut e) => {
                parallel_steps += 1; // merged with an existing u -> w edge
                let merged = saturate(e.get().saturating_mul(m));
                e.insert(merged);
            }
        }
        // u and w may now be reducible.
        for cand in [u, w] {
            if reducible(cand, &succ, &pred) {
                queue.push(cand);
            }
        }
    }

    let residual_nodes = alive.iter().filter(|&&a| a).count();
    let root = (residual_nodes == 2 && succ[source].len() == 1)
        .then(|| succ[source].get(&sink).copied())
        .flatten();
    SpRecognition {
        is_series_parallel: root.is_some(),
        series_steps,
        parallel_steps,
        residual_nodes,
        ideals: root.map(|m| saturate(m + 2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{chain, parallel, parallel_many, series};
    use crate::generate::{random_spg, SpgGenConfig};
    use crate::graph::{Label, SpgEdge, StageId};
    use crate::ideal::{enumerate_ideals, is_ideal, IdealError};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn chains_are_sp() {
        for n in 2..8 {
            let g = chain(&vec![1.0; n], &vec![1.0; n - 1]);
            let r = recognize(&g);
            assert!(r.is_series_parallel, "chain({n})");
            assert_eq!(r.series_steps, n - 2);
        }
    }

    #[test]
    fn composed_graphs_are_sp() {
        let g = series(
            &parallel_many(&[
                chain(&[1.0; 3], &[1.0; 2]),
                chain(&[1.0; 4], &[1.0; 3]),
                chain(&[1.0; 3], &[1.0; 2]),
            ]),
            &parallel(&chain(&[1.0; 3], &[1.0; 2]), &chain(&[1.0; 5], &[1.0; 4])),
        );
        assert!(recognize(&g).is_series_parallel);
    }

    #[test]
    fn random_spgs_recognized() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for e in 1..=8 {
            let cfg = SpgGenConfig {
                n: 30,
                elevation: e,
                ..Default::default()
            };
            let g = random_spg(&cfg, &mut rng);
            assert!(recognize(&g).is_series_parallel, "elevation {e}");
        }
    }

    #[test]
    fn non_sp_dag_rejected() {
        // The "N" graph plus forced single source/sink:
        //   s -> a, s -> b, a -> c, a -> d, b -> d, c -> t, d -> t
        // contains the forbidden N-minor (a->c, a->d, b->d).
        let r = recognize_edges(
            6,
            0,
            5,
            &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)],
        );
        assert!(!r.is_series_parallel);
        assert!(r.residual_nodes > 2);
    }

    /// The "N" poset `a < c, a < d, b < d` between a source and a sink:
    /// the smallest DAG that is not series-parallel.
    fn n_poset() -> Spg {
        let edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)];
        Spg::from_parts(
            vec![1.0; 6],
            (0..6).map(|i| Label { x: i + 1, y: 1 }).collect(),
            edges
                .iter()
                .map(|&(a, b)| SpgEdge {
                    src: StageId(a),
                    dst: StageId(b),
                    volume: 1.0,
                })
                .collect(),
        )
    }

    #[test]
    fn non_sp_graphs_have_no_count_but_still_enumerate() {
        let g = n_poset();
        let r = recognize(&g);
        assert!(!r.is_series_parallel);
        assert_eq!(r.ideals, None);
        // The empty set, the full set, and the source joined with each of
        // the N's 8 ideals: {}, a, b, ab, ac, abc, abd, abcd.
        let lat = enumerate_ideals(&g, 100).unwrap();
        assert_eq!(lat.len(), 10);
        assert!(lat.iter().all(|s| is_ideal(&g, s)));
        // Without a count, the cap is checked while streaming: the abort
        // reports a lower bound.
        let err = enumerate_ideals(&g, 5).map(|l| l.len()).unwrap_err();
        assert_eq!(err, IdealError::LimitExceeded { cap: 5, found: 6 });
        assert_eq!(
            err.to_string(),
            "ideal lattice exceeds the cap of 5 ideals (6 counted)"
        );
    }

    #[test]
    fn reduction_weights_count_ideals() {
        // Chains: the n + 1 prefixes.
        for n in 2..8 {
            let g = chain(&vec![1.0; n], &vec![1.0; n - 1]);
            assert_eq!(recognize(&g).ideals, Some(n as u64 + 1));
        }
        // Diamond: {}, s, sa, sb, sab, full.
        let r = recognize_edges(4, 0, 3, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        assert_eq!(r.ideals, Some(6));
        // A transitive edge beside a path adds no ideal: {}, s, sa, full.
        let r = recognize_edges(3, 0, 2, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(r.ideals, Some(4));
        // Duplicate base edges count once.
        assert_eq!(recognize_edges(2, 0, 1, &[(0, 1), (0, 1)]).ideals, Some(3));
    }

    #[test]
    fn multi_edges_parallel_reduce() {
        // Two parallel edges source -> sink: one parallel step, SP.
        let r = recognize_edges(2, 0, 1, &[(0, 1), (0, 1)]);
        assert!(r.is_series_parallel);
        assert_eq!(r.parallel_steps, 1);
        assert_eq!(r.series_steps, 0);
    }

    #[test]
    fn diamond_counts_reductions() {
        // s -> a -> t, s -> b -> t: two series steps then one parallel.
        let r = recognize_edges(4, 0, 3, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        assert!(r.is_series_parallel);
        assert_eq!(r.series_steps, 2);
        assert_eq!(r.parallel_steps, 1);
    }
}
