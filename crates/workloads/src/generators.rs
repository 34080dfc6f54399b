//! Random topology and fail-prone-system generators for sweeps and
//! property tests.
//!
//! Everything is seeded through [`SplitMix64`], so sweeps are exactly
//! reproducible.

use gqs_core::{Channel, FailProneSystem, FailurePattern, NetworkGraph, ProcessId, ProcessSet};
use gqs_simnet::SplitMix64;

/// A directed Erdős–Rényi graph on `n` vertices: each ordered pair gets a
/// channel independently with probability `p`.
pub fn random_digraph(n: usize, p: f64, rng: &mut SplitMix64) -> NetworkGraph {
    let pairs = (0..n).flat_map(|from| (0..n).map(move |to| (from, to)));
    let channels = pairs
        .filter(|&(from, to)| from != to && rng.chance(p))
        .map(|(from, to)| Channel::new(ProcessId(from), ProcessId(to)));
    NetworkGraph::with_channels(n, channels)
}

/// A bidirectional ring (each process connected both ways to its
/// neighbours) — a sparse topology where single channel failures matter.
pub fn ring(n: usize) -> NetworkGraph {
    let mut g = NetworkGraph::empty(n);
    for i in 0..n {
        let j = (i + 1) % n;
        if i != j {
            g.add_channel(Channel::new(ProcessId(i), ProcessId(j)));
            g.add_channel(Channel::new(ProcessId(j), ProcessId(i)));
        }
    }
    g
}

/// A unidirectional ring `0 → 1 → ... → n-1 → 0`.
pub fn oriented_ring(n: usize) -> NetworkGraph {
    let mut g = NetworkGraph::empty(n);
    for i in 0..n {
        let j = (i + 1) % n;
        if i != j {
            g.add_channel(Channel::new(ProcessId(i), ProcessId(j)));
        }
    }
    g
}

/// A rectangular 4-neighbour mesh on `rows * cols` processes, every mesh
/// edge bidirectional.
///
/// Process `(r, c)` is vertex `r * cols + c`. Meshes are the classic
/// "sparse but redundant" quorum topology (cf. grid quorum systems): two
/// vertex-disjoint paths exist between most pairs, so single channel
/// failures are survivable but small cuts are not.
pub fn grid_graph(rows: usize, cols: usize) -> NetworkGraph {
    grid_graph_n(rows * cols, cols)
}

/// A (possibly ragged) 4-neighbour mesh on exactly `n` processes laid out
/// row-major with `cols` columns; the last row may be partial.
///
/// This is the `n`-parameterized form sweeps use: for any `n` it yields a
/// near-square mesh with `cols = ceil(sqrt(n))`.
pub fn grid_graph_n(n: usize, cols: usize) -> NetworkGraph {
    assert!(cols >= 1, "a mesh has at least one column");
    let mut g = NetworkGraph::empty(n);
    let mut connect = |a: usize, b: usize| {
        g.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
        g.add_channel(Channel::new(ProcessId(b), ProcessId(a)));
    };
    for v in 0..n {
        if (v + 1) % cols != 0 && v + 1 < n {
            connect(v, v + 1); // right neighbour
        }
        if v + cols < n {
            connect(v, v + cols); // down neighbour
        }
    }
    g
}

/// A star: hub `0` connected bidirectionally to every other process, no
/// other channels. Every quorum interaction is forced through the hub, so
/// hub-adjacent failures are maximally damaging.
pub fn star(n: usize) -> NetworkGraph {
    let mut g = NetworkGraph::empty(n);
    for i in 1..n {
        g.add_channel(Channel::new(ProcessId(0), ProcessId(i)));
        g.add_channel(Channel::new(ProcessId(i), ProcessId(0)));
    }
    g
}

/// Two complete cliques of sizes `ceil(n/2)` and `floor(n/2)` joined by a
/// single bidirectional bridge between process `0` (left clique) and
/// process `ceil(n/2)` (right clique).
///
/// The bridge is a 2-channel cut: failing it partitions the system, which
/// makes this family the sharpest probe of the paper's one-way
/// reachability condition (a one-directional bridge failure keeps W
/// reachable from R in exactly one direction).
pub fn two_cliques_bridge(n: usize) -> NetworkGraph {
    assert!(n >= 2, "two cliques need at least two processes");
    let half = n.div_ceil(2);
    let mut g = NetworkGraph::empty(n);
    let clique = |lo: usize, hi: usize, g: &mut NetworkGraph| {
        for a in lo..hi {
            for b in lo..hi {
                if a != b {
                    g.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
                }
            }
        }
    };
    clique(0, half, &mut g);
    clique(half, n, &mut g);
    g.add_channel(Channel::new(ProcessId(0), ProcessId(half)));
    g.add_channel(Channel::new(ProcessId(half), ProcessId(0)));
    g
}

/// A random failure pattern over `n` processes: up to `max_crashes`
/// crashes (at most `n`), then each channel between correct processes of
/// `graph` fails independently with probability `p_chan`.
pub fn random_pattern(
    graph: &NetworkGraph,
    max_crashes: usize,
    p_chan: f64,
    rng: &mut SplitMix64,
) -> FailurePattern {
    let n = graph.len();
    // Past `n` the loop below could never collect enough distinct pids.
    let crash_count = rng.range(0, max_crashes.min(n) as u64) as usize;
    let mut faulty = ProcessSet::new();
    while faulty.len() < crash_count {
        faulty.insert(ProcessId(rng.range(0, n as u64 - 1) as usize));
    }
    chance_pattern(graph, faulty, p_chan, rng)
}

/// The pattern that crashes `faulty` and fails each channel of `graph`
/// between correct processes independently with probability `p_chan`.
///
/// Walks the successor rows of the correct processes, so it draws once per
/// such channel in the order of `graph.channels()`: exactly the draws of
/// filtering that iterator by `!ch.touches(faulty) && rng.chance(p_chan)`.
fn chance_pattern(
    graph: &NetworkGraph,
    faulty: ProcessSet,
    p_chan: f64,
    rng: &mut SplitMix64,
) -> FailurePattern {
    let n = graph.len();
    let channels = faulty
        .complement(n)
        .into_iter()
        .flat_map(|p| (graph.successors(p) - faulty).into_iter().map(move |q| Channel::new(p, q)))
        .filter(|_| rng.chance(p_chan));
    FailurePattern::new(n, faulty, channels).expect("well-formed by construction")
}

/// A "rotating" fail-prone system in the style of Figure 1: one pattern
/// per process, pattern `i` crashing process `i`, plus independent channel
/// failures with probability `p_chan` among the correct processes.
///
/// Because every process is faulty in some pattern, no singleton quorum
/// system exists — this is the regime where the GQS/QS+ distinction is
/// visible (in a system with a process correct under every pattern, the
/// trivial `R = W = {x}` is simultaneously a GQS and a QS+).
pub fn rotating_fail_prone(
    graph: &NetworkGraph,
    p_chan: f64,
    rng: &mut SplitMix64,
) -> FailProneSystem {
    let n = graph.len();
    let patterns: Vec<FailurePattern> = (0..n)
        .map(|i| chance_pattern(graph, ProcessSet::singleton(ProcessId(i)), p_chan, rng))
        .collect();
    FailProneSystem::new(n, patterns).expect("uniform universe")
}

/// A targeted, min-cut-style failure pattern: a complete directed cut
/// around a randomly grown target set, plus optional background channel
/// noise.
///
/// Unlike [`random_pattern`] (i.i.d. channel failures, which rarely sever
/// anything on redundant topologies), this generator fails exactly the
/// channels crossing a small cut — the minimal structure that destroys
/// `f`-reachability:
///
/// 1. grow a connected target set `S` from a random seed process
///    (`|S| ≤ max(1, n/3)`) by repeatedly absorbing random neighbours;
/// 2. pick a direction, and fail **every** channel entering `S` (so
///    nothing outside can reach a write quorum inside) or every channel
///    leaving `S` (so `S` can validate nothing outside);
/// 3. fail each remaining channel independently with probability
///    `p_extra`.
///
/// No process crashes: the damage is pure connectivity, the regime the
/// paper's generalized (one-way) reachability condition is about.
pub fn adversarial_cut_pattern(
    graph: &NetworkGraph,
    p_extra: f64,
    rng: &mut SplitMix64,
) -> FailurePattern {
    cut_pattern(graph, ProcessSet::new(), p_extra, rng)
}

/// The cut construction behind [`adversarial_cut_pattern`] and
/// [`adversarial_fail_prone`], with an explicit crash set: the target set
/// is grown among the correct processes and the cut crosses correct
/// channels only (channels touching `faulty` are already dead).
fn cut_pattern(
    graph: &NetworkGraph,
    faulty: ProcessSet,
    p_extra: f64,
    rng: &mut SplitMix64,
) -> FailurePattern {
    let n = graph.len();
    let correct = faulty.complement(n);
    let max_side = (correct.len() / 3).max(1) as u64;
    let target_size = 1 + rng.range(0, max_side - 1) as usize;
    let seed_nth = rng.range(0, correct.len() as u64 - 1) as usize;
    let mut side =
        ProcessSet::singleton(correct.iter().nth(seed_nth).expect("some process is correct"));
    while side.len() < target_size {
        let mut frontier = ProcessSet::new();
        for p in side.iter() {
            frontier |= graph.successors(p) | graph.predecessors(p);
        }
        let frontier = (frontier & correct) - side;
        if frontier.is_empty() {
            break;
        }
        let nth = rng.range(0, frontier.len() as u64 - 1) as usize;
        let pick = frontier.iter().nth(nth).expect("nth < len");
        side.insert(pick);
    }
    let inward = rng.chance(0.5);
    let channels: Vec<Channel> = graph
        .channels()
        .filter(|ch| {
            if ch.touches(faulty) {
                return false;
            }
            let crosses = if inward {
                !side.contains(ch.from) && side.contains(ch.to)
            } else {
                side.contains(ch.from) && !side.contains(ch.to)
            };
            crosses || rng.chance(p_extra)
        })
        .collect();
    FailurePattern::new(n, faulty, channels).expect("well-formed by construction")
}

/// An adversarial fail-prone system: rotating crashes (pattern `i`
/// crashes process `i mod n`, so no universal survivor exists and the
/// trivial singleton quorum system is ruled out) composed with a targeted
/// directed cut among the surviving processes, per pattern.
///
/// This is the hard regime by construction: [`rotating_fail_prone`]
/// damages randomly, this family aims every failed channel at a cut.
pub fn adversarial_fail_prone(
    graph: &NetworkGraph,
    patterns: usize,
    p_extra: f64,
    rng: &mut SplitMix64,
) -> FailProneSystem {
    let n = graph.len();
    let pats: Vec<FailurePattern> = (0..patterns)
        .map(|i| cut_pattern(graph, ProcessSet::singleton(ProcessId(i % n)), p_extra, rng))
        .collect();
    FailProneSystem::new(n, pats).expect("uniform universe")
}

/// Derives the independent RNG stream of trial `i` in a seeded batch.
///
/// Each trial owns its whole stream, so a batch can be evaluated serially
/// or in parallel (as [`crate::sweep::run`] does) with bit-identical
/// results.
pub fn trial_rng(seed: u64, i: usize) -> SplitMix64 {
    // Golden-ratio mixing keeps nearby trial indices on far-apart streams.
    SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates `count` random `(graph, fail-prone system)` scenarios, one
/// independent seeded stream per scenario ([`trial_rng`]).
///
/// Scenario `i` of a given `(seed, ...)` parameterization is identical no
/// matter which other scenarios are generated.
#[allow(clippy::too_many_arguments)]
pub fn random_scenarios(
    count: usize,
    n: usize,
    p_edge: f64,
    patterns: usize,
    max_crashes: usize,
    p_chan: f64,
    seed: u64,
) -> Vec<(NetworkGraph, FailProneSystem)> {
    (0..count)
        .map(|i| {
            let mut rng = trial_rng(seed, i);
            let g = random_digraph(n, p_edge, &mut rng);
            let fp = random_fail_prone(&g, patterns, max_crashes, p_chan, &mut rng);
            (g, fp)
        })
        .collect()
}

/// A random fail-prone system of `patterns` patterns over `graph`.
pub fn random_fail_prone(
    graph: &NetworkGraph,
    patterns: usize,
    max_crashes: usize,
    p_chan: f64,
    rng: &mut SplitMix64,
) -> FailProneSystem {
    let pats = (0..patterns).map(|_| random_pattern(graph, max_crashes, p_chan, rng));
    FailProneSystem::new(graph.len(), pats.collect::<Vec<_>>()).expect("uniform universe")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_digraph_density_extremes() {
        let mut rng = SplitMix64::new(1);
        let empty = random_digraph(5, 0.0, &mut rng);
        assert_eq!(empty.channels().count(), 0);
        let full = random_digraph(5, 1.0, &mut rng);
        assert_eq!(full.channels().count(), 20);
    }

    /// The channel-by-channel form of [`random_digraph`], kept as the
    /// reference its row-wise draw must match.
    fn random_digraph_by_channel(n: usize, p: f64, rng: &mut SplitMix64) -> NetworkGraph {
        let mut g = NetworkGraph::empty(n);
        for from in 0..n {
            for to in 0..n {
                if from != to && rng.chance(p) {
                    g.add_channel(Channel::new(ProcessId(from), ProcessId(to)));
                }
            }
        }
        g
    }

    /// The channel-iterator form of [`chance_pattern`], the reference for
    /// [`random_pattern`] and [`rotating_fail_prone`].
    fn chance_pattern_by_channel(
        graph: &NetworkGraph,
        faulty: ProcessSet,
        p_chan: f64,
        rng: &mut SplitMix64,
    ) -> FailurePattern {
        let channels: Vec<Channel> =
            graph.channels().filter(|ch| !ch.touches(faulty) && rng.chance(p_chan)).collect();
        FailurePattern::new(graph.len(), faulty, channels).expect("well-formed")
    }

    fn random_pattern_by_channel(
        graph: &NetworkGraph,
        max_crashes: usize,
        p_chan: f64,
        rng: &mut SplitMix64,
    ) -> FailurePattern {
        let n = graph.len();
        let crash_count = rng.range(0, max_crashes.min(n) as u64) as usize;
        let mut faulty = ProcessSet::new();
        while faulty.len() < crash_count {
            faulty.insert(ProcessId(rng.range(0, n as u64 - 1) as usize));
        }
        chance_pattern_by_channel(graph, faulty, p_chan, rng)
    }

    fn rotating_fail_prone_by_channel(
        graph: &NetworkGraph,
        p_chan: f64,
        rng: &mut SplitMix64,
    ) -> FailProneSystem {
        let n = graph.len();
        let patterns: Vec<FailurePattern> = (0..n)
            .map(|i| {
                chance_pattern_by_channel(graph, ProcessSet::singleton(ProcessId(i)), p_chan, rng)
            })
            .collect();
        FailProneSystem::new(n, patterns).expect("uniform universe")
    }

    /// The row-wise generators return what the channel-by-channel forms
    /// return and leave the stream where they left it, at one-, two- and
    /// three-word universes and at both probability extremes.
    #[test]
    fn row_wise_draws_match_channel_by_channel_draws() {
        for n in [1, 2, 9, 63, 64, 65, 130] {
            for p in [0.0, 0.15, 1.0] {
                for seed in 0..3 {
                    let seed = seed * 1_000 + n as u64;
                    let (mut fast, mut slow) = (SplitMix64::new(seed), SplitMix64::new(seed));
                    let g = random_digraph(n, p, &mut fast);
                    assert_eq!(g, random_digraph_by_channel(n, p, &mut slow), "graph n={n} p={p}");
                    // Patterns over a half-dense graph, so p_chan = p matters.
                    let dense = random_digraph(n, 0.5, &mut fast);
                    assert_eq!(dense, random_digraph_by_channel(n, 0.5, &mut slow));
                    for max_crashes in [0, 2, n] {
                        assert_eq!(
                            random_pattern(&dense, max_crashes, p, &mut fast),
                            random_pattern_by_channel(&dense, max_crashes, p, &mut slow),
                            "pattern n={n} p={p} max_crashes={max_crashes}"
                        );
                    }
                    assert_eq!(
                        rotating_fail_prone(&dense, p, &mut fast),
                        rotating_fail_prone_by_channel(&dense, p, &mut slow),
                        "rotating n={n} p={p}"
                    );
                    assert_eq!(fast.next_u64(), slow.next_u64(), "stream n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn random_pattern_caps_crashes_at_n() {
        // Regression: a crash budget above n used to spin forever drawing
        // distinct pids that do not exist.
        for n in 1..=8 {
            let g = NetworkGraph::complete(n);
            for max_crashes in 0..=3 * n {
                let mut rng = trial_rng(7, n * 100 + max_crashes);
                for _ in 0..20 {
                    let f = random_pattern(&g, max_crashes, 0.5, &mut rng);
                    assert!(f.faulty().len() <= max_crashes.min(n), "n={n} max={max_crashes}");
                }
            }
        }
    }

    #[test]
    fn rings_have_expected_degree() {
        let g = ring(4);
        assert_eq!(g.channels().count(), 8);
        let og = oriented_ring(4);
        assert_eq!(og.channels().count(), 4);
        assert!(og.residual_failure_free().is_strongly_connected(ProcessSet::full(4)));
    }

    #[test]
    fn grid_star_bridge_shapes() {
        // 3x3 mesh: 12 undirected mesh edges = 24 channels.
        assert_eq!(grid_graph(3, 3).channels().count(), 24);
        // Ragged 7-node mesh with 3 columns: rows [3, 3, 1].
        let ragged = grid_graph_n(7, 3);
        assert_eq!(ragged.len(), 7);
        assert!(ragged.has_channel(Channel::new(ProcessId(3), ProcessId(6))));
        assert!(!ragged.has_channel(Channel::new(ProcessId(5), ProcessId(6))));
        // Star: 2(n-1) channels, all incident to the hub.
        let s = star(6);
        assert_eq!(s.channels().count(), 10);
        assert!(s.channels().all(|ch| ch.from == ProcessId(0) || ch.to == ProcessId(0)));
        // Two cliques + bridge: 2 * k(k-1) + 2 channels for even n = 2k.
        let b = two_cliques_bridge(6);
        assert_eq!(b.channels().count(), 2 * 3 * 2 + 2);
        assert!(b.residual_failure_free().is_strongly_connected(ProcessSet::full(6)));
    }

    #[test]
    fn adversarial_cut_severs_reachability() {
        // On a complete graph an inward cut leaves the target set
        // unreachable from outside (or vice versa): the residual must not
        // be strongly connected, for every sampled pattern.
        let g = NetworkGraph::complete(6);
        let mut rng = SplitMix64::new(31);
        for _ in 0..40 {
            let f = adversarial_cut_pattern(&g, 0.0, &mut rng);
            assert!(f.faulty().is_empty(), "cut patterns crash nobody");
            assert!(
                !g.residual(&f).is_strongly_connected(ProcessSet::full(6)),
                "a complete directed cut must break strong connectivity"
            );
        }
        // Reproducible like every other generator.
        let a = adversarial_fail_prone(&g, 4, 0.1, &mut SplitMix64::new(8));
        let b = adversarial_fail_prone(&g, 4, 0.1, &mut SplitMix64::new(8));
        assert_eq!(a, b);
    }

    #[test]
    fn random_patterns_are_well_formed() {
        let mut rng = SplitMix64::new(2);
        let g = random_digraph(6, 0.5, &mut rng);
        for _ in 0..50 {
            let f = random_pattern(&g, 3, 0.3, &mut rng);
            assert!(f.faulty().len() <= 3);
            for ch in f.channels() {
                assert!(!ch.touches(f.faulty()));
                assert!(g.has_channel(ch), "patterns only fail existing channels");
            }
        }
    }

    #[test]
    fn random_fail_prone_reproducible() {
        let g = NetworkGraph::complete(5);
        let a = random_fail_prone(&g, 4, 2, 0.2, &mut SplitMix64::new(9));
        let b = random_fail_prone(&g, 4, 2, 0.2, &mut SplitMix64::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn batched_scenarios_are_reproducible_and_independent() {
        let batch = random_scenarios(16, 5, 0.5, 3, 2, 0.2, 77);
        let again = random_scenarios(16, 5, 0.5, 3, 2, 0.2, 77);
        assert_eq!(batch, again, "same seed must replay the same batch");
        // Scenario i is a function of (seed, i) alone.
        let prefix = random_scenarios(4, 5, 0.5, 3, 2, 0.2, 77);
        assert_eq!(&batch[..4], &prefix[..]);
        // Different seeds change the batch.
        let other = random_scenarios(16, 5, 0.5, 3, 2, 0.2, 78);
        assert_ne!(batch, other);
    }
}
