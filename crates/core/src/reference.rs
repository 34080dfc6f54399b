//! Naive reference implementations of the graph and finder algorithms.
//!
//! These are the **pre-optimization** algorithms, kept verbatim as oracles:
//! the differential property tests in `crates/core/tests/` check the
//! transpose-cached engine of [`crate::graph`] and the memoized CSP solver
//! of [`crate::finder`] against them, and the repository benchmark
//! (`bash benchmark/run.sh`) times them to quantify (and regression-track)
//! the speedup as its `core.naive_over_fast.n32` layer metric.
//!
//! Everything here is deliberately slow and simple:
//!
//! * the residual adjacency is **cloned** per pattern (the old
//!   `NetworkGraph::residual` behavior);
//! * `reach_to` is the `O(n²)`-per-round fixpoint that rescans
//!   `alive - reach` instead of walking transpose rows;
//! * nothing is memoized — every query recomputes from scratch;
//! * the CSP solver re-tests pairwise candidate compatibility inside the
//!   search tree instead of consulting a precomputed matrix.
//!
//! Do not "fix" the complexity of anything in this module: its only value
//! is being an independently-written, obviously-correct baseline.

use crate::failure::{FailProneSystem, FailurePattern};
use crate::graph::NetworkGraph;
use crate::process::{ProcessId, ProcessSet};

/// A naive residual graph: owned adjacency rows, no transpose, no caches.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NaiveResidual {
    n: usize,
    adj: Vec<ProcessSet>,
    alive: ProcessSet,
}

impl NaiveResidual {
    /// Builds the residual of `graph` under `f` by cloning and editing the
    /// adjacency rows.
    ///
    /// # Panics
    ///
    /// Panics if `f` is over a different universe than `graph`.
    pub fn build(graph: &NetworkGraph, f: &FailurePattern) -> Self {
        assert_eq!(f.universe(), graph.len(), "universe mismatch");
        let n = graph.len();
        let alive = f.correct();
        let mut adj: Vec<ProcessSet> = (0..n).map(|p| graph.successors(ProcessId(p))).collect();
        for (p, row) in adj.iter_mut().enumerate() {
            if !alive.contains(ProcessId(p)) {
                *row = ProcessSet::new();
            } else {
                *row &= alive;
            }
        }
        for ch in f.channels() {
            adj[ch.from.index()].remove(ch.to);
        }
        NaiveResidual { n, adj, alive }
    }

    /// The residual of the failure-free pattern.
    pub fn failure_free(graph: &NetworkGraph) -> Self {
        let n = graph.len();
        NaiveResidual {
            n,
            adj: (0..n).map(|p| graph.successors(ProcessId(p))).collect(),
            alive: ProcessSet::full(n),
        }
    }

    /// The alive set.
    pub fn alive(&self) -> ProcessSet {
        self.alive
    }

    /// Forward reachability by frontier iteration (uncached).
    pub fn reach_from(&self, p: ProcessId) -> ProcessSet {
        if !self.alive.contains(p) {
            return ProcessSet::new();
        }
        let mut reach = ProcessSet::singleton(p);
        let mut frontier = reach;
        while !frontier.is_empty() {
            let mut next = ProcessSet::new();
            for q in frontier {
                next |= self.adj[q.index()];
            }
            frontier = next - reach;
            reach |= next;
        }
        reach
    }

    /// Backward reachability by the quadratic fixpoint: each round rescans
    /// every vertex in `alive - reach` for an edge into `reach`.
    pub fn reach_to(&self, p: ProcessId) -> ProcessSet {
        if !self.alive.contains(p) {
            return ProcessSet::new();
        }
        let mut reach = ProcessSet::singleton(p);
        loop {
            let mut grew = false;
            for q in self.alive - reach {
                if self.adj[q.index()].intersects(reach) {
                    reach.insert(q);
                    grew = true;
                }
            }
            if !grew {
                return reach;
            }
        }
    }

    /// The set of vertices that can reach every member of `set` (uncached:
    /// one quadratic `reach_to` per member).
    pub fn reach_to_all(&self, set: ProcessSet) -> ProcessSet {
        if set.is_empty() || !set.is_subset(self.alive) {
            return ProcessSet::new();
        }
        let mut acc = self.alive;
        for p in set {
            acc &= self.reach_to(p);
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// Strongly connected components by pairwise forward-reach probing
    /// (the pre-optimization algorithm, with only its function-local
    /// forward cache).
    pub fn sccs(&self) -> Vec<ProcessSet> {
        let mut assigned = ProcessSet::new();
        let mut out = Vec::new();
        let mut fwd: Vec<Option<ProcessSet>> = vec![None; self.n];
        for p in self.alive {
            if assigned.contains(p) {
                continue;
            }
            let rf = *fwd[p.index()].get_or_insert_with(|| self.reach_from(p));
            let mut scc = ProcessSet::singleton(p);
            for q in rf.without(p) {
                let rq = *fwd[q.index()].get_or_insert_with(|| self.reach_from(q));
                if rq.contains(p) {
                    scc.insert(q);
                }
            }
            assigned |= scc;
            out.push(scc);
        }
        out
    }
}

/// One naive candidate: an SCC used as write quorum plus its maximal
/// reaching read quorum.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct NaiveCandidate {
    write: ProcessSet,
    read: ProcessSet,
}

/// Decides GQS existence with the pre-optimization pipeline: cloned
/// residuals, quadratic `reach_to`, and a backtracking solver that
/// re-evaluates pairwise compatibility inside the search tree.
///
/// Used as the finder's oracle and as the baseline of the benchmark's
/// `core.naive_over_fast.n32` layer metric.
pub fn gqs_exists_naive(graph: &NetworkGraph, fail_prone: &FailProneSystem) -> bool {
    let candidates: Vec<Vec<NaiveCandidate>> = fail_prone
        .patterns()
        .map(|f| {
            let res = NaiveResidual::build(graph, f);
            res.sccs()
                .into_iter()
                .map(|scc| NaiveCandidate { write: scc, read: res.reach_to_all(scc) })
                .collect()
        })
        .collect();
    let m = candidates.len();
    if m == 0 {
        return true;
    }
    if candidates.iter().any(|c| c.is_empty()) {
        return false;
    }
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by_key(|&i| candidates[i].len());
    let mut chosen: Vec<Option<usize>> = vec![None; m];
    fn compatible(a: &NaiveCandidate, b: &NaiveCandidate) -> bool {
        a.read.intersects(b.write) && b.read.intersects(a.write)
    }
    fn backtrack(
        pos: usize,
        order: &[usize],
        candidates: &[Vec<NaiveCandidate>],
        chosen: &mut Vec<Option<usize>>,
    ) -> bool {
        if pos == order.len() {
            return true;
        }
        let i = order[pos];
        for c in 0..candidates[i].len() {
            let cand = &candidates[i][c];
            let ok = order[..pos].iter().all(|&j| {
                let cj = chosen[j].expect("assigned earlier");
                compatible(cand, &candidates[j][cj])
            });
            if ok {
                chosen[i] = Some(c);
                if backtrack(pos + 1, order, candidates, chosen) {
                    return true;
                }
                chosen[i] = None;
            }
        }
        false
    }
    backtrack(0, &order, &candidates, &mut chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::gqs_exists;
    use crate::{chan, pset};

    #[test]
    fn naive_residual_matches_definitions() {
        let g = NetworkGraph::complete(3);
        let f = FailurePattern::new(3, pset![2], [chan!(0, 1)]).unwrap();
        let r = NaiveResidual::build(&g, &f);
        assert_eq!(r.alive(), pset![0, 1]);
        assert_eq!(r.reach_from(ProcessId(0)), pset![0]);
        assert_eq!(r.reach_to(ProcessId(0)), pset![0, 1]);
        assert_eq!(r.sccs(), vec![pset![0], pset![1]]);
    }

    #[test]
    fn naive_finder_agrees_on_figure1_and_example9() {
        let fig = crate::systems::figure1();
        assert!(gqs_exists_naive(&fig.graph, &fig.fail_prone));
        assert_eq!(
            gqs_exists_naive(&fig.graph, &fig.fail_prone),
            gqs_exists(&fig.graph, &fig.fail_prone)
        );
        let (g, fp) = crate::systems::example9_f_prime();
        assert!(!gqs_exists_naive(&g, &fp));
    }
}
