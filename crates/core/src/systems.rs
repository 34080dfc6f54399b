//! The worked examples of the paper, as ready-made systems.
//!
//! * [`figure1`] — the running example: four processes, four failure
//!   patterns, a generalized quorum system whose read quorums are *not*
//!   strongly connected (Examples 1, 2, 7, 8, 10).
//! * [`example9_f_prime`] — Figure 1's system with channel `(a,b)` also
//!   failing in `f1`, which destroys every GQS (Example 9): the tight
//!   bound says nothing is implementable under it.
//! * [`example4_minority`] — the classical minority-crash model `F_M`.

use crate::channel::Channel;
use crate::failure::{FailProneSystem, FailurePattern};
use crate::graph::NetworkGraph;
use crate::process::{ProcessId, ProcessSet};
use crate::quorum::{GeneralizedQuorumSystem, QuorumFamily};

/// Everything Figure 1 defines: the complete network graph on
/// `{a, b, c, d}`, the fail-prone system `{f1..f4}`, the quorum families
/// `R = {R1..R4}` and `W = {W1..W4}`, and the validated GQS.
#[derive(Clone, Debug)]
pub struct Figure1 {
    /// The complete directed graph on 4 processes.
    pub graph: NetworkGraph,
    /// `F = {f1, f2, f3, f4}`.
    pub fail_prone: FailProneSystem,
    /// `R_i` per pattern, in paper order.
    pub reads: Vec<ProcessSet>,
    /// `W_i` per pattern, in paper order.
    pub writes: Vec<ProcessSet>,
    /// The validated generalized quorum system `(F, R, W)`.
    pub gqs: GeneralizedQuorumSystem,
}

/// Process `a` of the paper's examples.
pub const A: ProcessId = ProcessId(0);
/// Process `b` of the paper's examples.
pub const B: ProcessId = ProcessId(1);
/// Process `c` of the paper's examples.
pub const C: ProcessId = ProcessId(2);
/// Process `d` of the paper's examples.
pub const D: ProcessId = ProcessId(3);

fn ch(from: ProcessId, to: ProcessId) -> Channel {
    Channel::new(from, to)
}

/// Builds Figure 1's generalized quorum system.
///
/// Pattern `f1`: process `d` may crash; channels `(c,a)`, `(a,b)`, `(b,a)`
/// stay correct, all other channels among `{a,b,c}` may disconnect. The
/// remaining patterns are the images of `f1` under the rotation
/// `a→b→c→d→a`. Quorums: `W1 = {a,b}`, `R1 = {a,c}` and rotations.
///
/// # Panics
///
/// Never: the construction is validated by tests against Examples 8–9.
pub fn figure1() -> Figure1 {
    let graph = NetworkGraph::complete(4);
    let ids = [A, B, C, D];
    let rot = |p: ProcessId, k: usize| ids[(p.index() + k) % 4];

    let mut patterns = Vec::new();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for k in 0..4 {
        // f1 rotated k times.
        let faulty = ProcessSet::singleton(rot(D, k));
        let failing =
            [ch(rot(A, k), rot(C, k)), ch(rot(B, k), rot(C, k)), ch(rot(C, k), rot(B, k))];
        patterns.push(
            FailurePattern::new(4, faulty, failing).expect("figure 1 patterns are well-formed"),
        );
        reads.push(ProcessSet::singleton(rot(A, k)).with(rot(C, k)));
        writes.push(ProcessSet::singleton(rot(A, k)).with(rot(B, k)));
    }
    let fail_prone = FailProneSystem::new(4, patterns).expect("uniform universe");
    let gqs = GeneralizedQuorumSystem::new(
        graph.clone(),
        fail_prone.clone(),
        QuorumFamily::explicit(reads.clone()).expect("nonempty"),
        QuorumFamily::explicit(writes.clone()).expect("nonempty"),
    )
    .expect("Example 8: Figure 1 is a valid GQS");
    Figure1 { graph, fail_prone, reads, writes, gqs }
}

/// Example 9's modified fail-prone system `F' = {f1', f2, f3, f4}` where
/// `f1'` additionally fails channel `(a,b)`. The paper shows `F'` admits
/// **no** generalized quorum system, hence (Theorem 2) no implementation
/// of registers, snapshots or lattice agreement provides
/// obstruction-freedom anywhere under it.
pub fn example9_f_prime() -> (NetworkGraph, FailProneSystem) {
    let fig = figure1();
    let mut patterns: Vec<FailurePattern> = fig.fail_prone.patterns().cloned().collect();
    patterns[0] =
        patterns[0].with_channel(ch(A, B)).expect("(a,b) is between correct processes of f1");
    let fp = FailProneSystem::new(4, patterns).expect("uniform universe");
    (fig.graph, fp)
}

/// A grid quorum system over `rows × cols` processes: read quorums are
/// full rows, write quorums are full columns (every row meets every
/// column, so Consistency is structural). Tolerates any `k` crashes with
/// `k < min(rows, cols)` — `k` crashes can ruin at most `k` rows and `k`
/// columns.
///
/// Classical quorum-system literature (\[34\] in the paper) studies grids
/// for their `O(√n)` quorum size; here they serve as a non-threshold
/// baseline for the decision procedures.
///
/// # Errors
///
/// Fails if the grid is degenerate or `k ≥ min(rows, cols)`.
pub fn grid_system(
    rows: usize,
    cols: usize,
    k: usize,
) -> Result<crate::ClassicalQuorumSystem, crate::QuorumSystemError> {
    use crate::{ClassicalQuorumSystem, QuorumFamily, QuorumSystemError};
    let n = rows * cols;
    if rows == 0 || cols == 0 || k >= rows.min(cols) {
        return Err(QuorumSystemError::BadThreshold { n, min_size: k });
    }
    let cell = |r: usize, c: usize| ProcessId(r * cols + c);
    let reads: Vec<ProcessSet> =
        (0..rows).map(|r| (0..cols).map(|c| cell(r, c)).collect()).collect();
    let writes: Vec<ProcessSet> =
        (0..cols).map(|c| (0..rows).map(|r| cell(r, c)).collect()).collect();
    let fail_prone = FailProneSystem::threshold(n, k)
        .map_err(|_| QuorumSystemError::BadThreshold { n, min_size: k })?;
    ClassicalQuorumSystem::new(
        fail_prone,
        QuorumFamily::explicit(reads)?,
        QuorumFamily::explicit(writes)?,
    )
}

/// Example 4: the standard minority-crash model `F_M` over `n` processes
/// (at most `⌊(n-1)/2⌋` crashes, channels between correct processes
/// reliable), paired with a complete network graph.
pub fn example4_minority(n: usize) -> (NetworkGraph, FailProneSystem) {
    let k = (n.saturating_sub(1)) / 2;
    (NetworkGraph::complete(n), FailProneSystem::threshold(n, k).expect("k < n by construction"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::{find_gqs, gqs_exists, qs_plus_exists};
    use crate::pset;

    #[test]
    fn figure1_pattern_f1_matches_example1() {
        let fig = figure1();
        let f1 = fig.fail_prone.pattern(0);
        assert_eq!(f1.faulty(), pset![3]); // d may crash
        let failing: Vec<String> = f1.channels().map(|c| c.to_string()).collect();
        assert_eq!(failing, vec!["(a,c)", "(b,c)", "(c,b)"]);
        // Correct channels among correct processes: (c,a),(a,b),(b,a).
        let res = fig.graph.residual(f1);
        assert!(res.has_channel(ch(C, A)));
        assert!(res.has_channel(ch(A, B)));
        assert!(res.has_channel(ch(B, A)));
        assert!(!res.has_channel(ch(A, C)));
        assert!(!res.has_channel(ch(B, C)));
        assert!(!res.has_channel(ch(C, B)));
    }

    #[test]
    fn figure1_quorums_match_example10() {
        let fig = figure1();
        assert_eq!(fig.reads[0], pset![0, 2]); // R1 = {a, c}
        assert_eq!(fig.writes[0], pset![0, 1]); // W1 = {a, b}
    }

    #[test]
    fn figure1_example7_availability_and_reachability() {
        let fig = figure1();
        for i in 0..4 {
            let res = fig.graph.residual(fig.fail_prone.pattern(i));
            assert!(res.f_available(fig.writes[i]), "W{} must be f{}-available", i + 1, i + 1);
            assert!(
                res.f_reachable(fig.writes[i], fig.reads[i]),
                "W{} must be f{}-reachable from R{}",
                i + 1,
                i + 1,
                i + 1
            );
            // The paper stresses read quorums are NOT strongly connected.
            assert!(!res.f_available(fig.reads[i]));
        }
    }

    #[test]
    fn figure1_example8_consistency() {
        let fig = figure1();
        for r in &fig.reads {
            for w in &fig.writes {
                assert!(r.intersects(*w), "R {r} and W {w} must intersect");
            }
        }
    }

    #[test]
    fn figure1_example9_u_f_values() {
        let fig = figure1();
        assert_eq!(fig.gqs.u_f(0), pset![0, 1]); // {a,b}
        assert_eq!(fig.gqs.u_f(1), pset![1, 2]); // {b,c}
        assert_eq!(fig.gqs.u_f(2), pset![2, 3]); // {c,d}
        assert_eq!(fig.gqs.u_f(3), pset![3, 0]); // {d,a}
    }

    #[test]
    fn figure1_admits_gqs_but_no_qs_plus() {
        let fig = figure1();
        assert!(gqs_exists(&fig.graph, &fig.fail_prone));
        // The headline separation: under f1 no SCC contains both a read
        // and write quorum for all patterns simultaneously.
        assert!(!qs_plus_exists(&fig.graph, &fig.fail_prone));
    }

    #[test]
    fn example9_f_prime_admits_no_gqs() {
        let (graph, fp) = example9_f_prime();
        assert!(!gqs_exists(&graph, &fp));
        assert!(find_gqs(&graph, &fp).is_none());
        assert!(!crate::finder::gqs_exists_brute_force(&graph, &fp));
    }

    #[test]
    fn finder_recovers_figure1_up_to_maximality() {
        let fig = figure1();
        let w = find_gqs(&fig.graph, &fig.fail_prone).expect("Figure 1 admits a GQS");
        // The found write quorums must be the U_f sets (maximal SCCs), and
        // each read choice must contain the corresponding paper R_i.
        for i in 0..4 {
            let (r, wq) = w.per_pattern[i];
            assert_eq!(wq, fig.gqs.u_f(i));
            assert!(fig.reads[i].is_subset(r));
        }
    }

    #[test]
    fn grid_system_consistency_and_availability() {
        let qs = grid_system(3, 3, 2).unwrap();
        // Rows meet columns in exactly one cell.
        let reads = qs.reads().as_explicit().unwrap().to_vec();
        let writes = qs.writes().as_explicit().unwrap().to_vec();
        for r in &reads {
            for w in &writes {
                assert_eq!((*r & *w).len(), 1);
            }
        }
        // Embeds into a GQS over the complete graph.
        let gqs = qs.to_generalized().unwrap();
        assert_eq!(gqs.u_f(0), gqs.fail_prone().pattern(0).correct());
    }

    #[test]
    fn grid_system_rejects_too_many_crashes() {
        assert!(grid_system(3, 3, 3).is_err());
        assert!(grid_system(2, 4, 2).is_err());
        assert!(grid_system(0, 3, 0).is_err());
    }

    #[test]
    fn grid_system_rectangular() {
        let qs = grid_system(2, 4, 1).unwrap();
        assert_eq!(qs.reads().as_explicit().unwrap().len(), 2);
        assert_eq!(qs.writes().as_explicit().unwrap().len(), 4);
        assert_eq!(qs.reads().as_explicit().unwrap()[0].len(), 4);
        assert_eq!(qs.writes().as_explicit().unwrap()[0].len(), 2);
    }

    #[test]
    fn example4_minority_is_classical() {
        let (g, fp) = example4_minority(5);
        assert!(fp.is_crash_only());
        assert_eq!(crate::finder::classical_qs_exists(&fp), Some(true));
        assert!(gqs_exists(&g, &fp));
        assert!(qs_plus_exists(&g, &fp));
    }
}
