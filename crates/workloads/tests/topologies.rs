//! Property tests for the topology generators (seeded SplitMix64 loops,
//! per repo convention) and engine-vs-reference differential runs of the
//! GQS decision procedures on the structured families — ring, mesh,
//! star, two-cliques-bridge — which stress reachability shapes that
//! complete and Erdős–Rényi graphs never produce.

use gqs_core::finder::{find_gqs, gqs_exists, gqs_exists_brute_force};
use gqs_core::reference::{gqs_exists_naive, NaiveResidual};
use gqs_core::{NetworkGraph, ProcessId, ProcessSet};
use gqs_simnet::SplitMix64;
use gqs_workloads::generators::{
    adversarial_cut_pattern, adversarial_fail_prone, grid_graph, grid_graph_n, oriented_ring,
    random_pattern, ring, rotating_fail_prone, star, two_cliques_bridge,
};

fn full(n: usize) -> ProcessSet {
    ProcessSet::full(n)
}

/// Node/edge-count invariants for every family, across sizes.
#[test]
fn topology_count_invariants() {
    for n in 2..=20 {
        // n=2 degenerates: both ring directions are the same two channels.
        let ring_channels = if n == 2 { 2 } else { 2 * n };
        assert_eq!(ring(n).channels().count(), ring_channels, "ring n={n}");
        assert_eq!(oriented_ring(n).channels().count(), n, "oriented ring n={n}");
        assert_eq!(star(n).channels().count(), 2 * (n - 1), "star n={n}");
        // Ragged mesh: count undirected mesh edges directly.
        let cols = (n as f64).sqrt().ceil() as usize;
        let mesh = grid_graph_n(n, cols);
        assert_eq!(mesh.len(), n);
        let mut undirected = 0;
        for v in 0..n {
            if (v + 1) % cols != 0 && v + 1 < n {
                undirected += 1;
            }
            if v + cols < n {
                undirected += 1;
            }
        }
        assert_eq!(mesh.channels().count(), 2 * undirected, "mesh n={n}");
        // Mesh channels connect 4-neighbours only.
        for ch in mesh.channels() {
            let (a, b) = (ch.from.index(), ch.to.index());
            let (lo, hi) = (a.min(b), a.max(b));
            assert!(hi - lo == cols || (hi - lo == 1 && hi % cols != 0), "non-mesh edge {a}->{b}");
        }
        // Two cliques + bridge: k(k-1) + m(m-1) + 2 with k = ceil(n/2).
        let k = n.div_ceil(2);
        let m = n - k;
        assert_eq!(
            two_cliques_bridge(n).channels().count(),
            k * (k - 1) + m * (m - 1) + 2,
            "bridge n={n}"
        );
    }
}

/// Strong connectivity where the family guarantees it: every family here
/// is strongly connected failure-free (rings via the cycle, meshes/stars/
/// bridges via bidirectional edges).
#[test]
fn families_are_strongly_connected_failure_free() {
    for n in 2..=16 {
        for (name, g) in [
            ("ring", ring(n)),
            ("oriented_ring", oriented_ring(n)),
            ("star", star(n)),
            ("grid", grid_graph_n(n, (n as f64).sqrt().ceil() as usize)),
            ("two_cliques_bridge", two_cliques_bridge(n)),
        ] {
            assert!(
                g.residual_failure_free().is_strongly_connected(full(n)),
                "{name}({n}) must be strongly connected"
            );
        }
        // Rectangular meshes too.
        assert!(grid_graph(2, n).residual_failure_free().is_strongly_connected(full(2 * n)));
    }
}

/// The adversarial generator really cuts: with no background noise, the
/// failed channel set always severs strong connectivity of the correct
/// set on every (strongly connected) family, and the pattern is
/// well-formed (crash-free, channels drawn from the graph).
#[test]
fn adversarial_cuts_sever_every_family() {
    let mut rng = SplitMix64::new(0xC07);
    for n in [4usize, 6, 9, 12] {
        for (name, g) in [
            ("ring", ring(n)),
            ("star", star(n)),
            ("grid", grid_graph_n(n, (n as f64).sqrt().ceil() as usize)),
            ("two_cliques_bridge", two_cliques_bridge(n)),
            ("complete", NetworkGraph::complete(n)),
        ] {
            for _ in 0..20 {
                let f = adversarial_cut_pattern(&g, 0.0, &mut rng);
                assert!(f.faulty().is_empty());
                for ch in f.channels() {
                    assert!(g.has_channel(ch), "{name}: cut fails only existing channels");
                }
                assert!(
                    !g.residual(&f).is_strongly_connected(full(n)),
                    "{name}({n}): directed cut left the graph strongly connected"
                );
            }
        }
    }
}

/// Differential: on ring/grid/bridge (and star) topologies under
/// rotating, adversarial and random patterns, the memoized engine, the
/// naive reference pipeline, and (small cases) the exhaustive oracle all
/// agree — the structured-topology counterpart of
/// `crates/core/tests/differential.rs`.
#[test]
fn finder_matches_reference_on_structured_topologies() {
    let mut rng = SplitMix64::new(0xD1FF);
    for case in 0..30u32 {
        let n = 4 + (case as usize % 5); // 4..=8
        for (name, g) in [
            ("ring", ring(n)),
            ("grid", grid_graph_n(n, (n as f64).sqrt().ceil() as usize)),
            ("two_cliques_bridge", two_cliques_bridge(n)),
            ("star", star(n)),
        ] {
            let fps = [
                rotating_fail_prone(&g, 0.25, &mut rng),
                adversarial_fail_prone(&g, 3, 0.1, &mut rng),
            ];
            for fp in &fps {
                let fast = gqs_exists(&g, fp);
                assert_eq!(
                    fast,
                    gqs_exists_naive(&g, fp),
                    "{name}({n}) case {case}: engine vs naive"
                );
                assert_eq!(
                    fast,
                    gqs_exists_brute_force(&g, fp),
                    "{name}({n}) case {case}: engine vs exhaustive oracle"
                );
                match find_gqs(&g, fp) {
                    Some(w) => {
                        assert!(fast, "{name}({n}): witness for unsolvable system");
                        assert_eq!(w.per_pattern.len(), fp.len());
                    }
                    None => assert!(!fast, "{name}({n}): no witness for solvable system"),
                }
            }
        }
    }
}

/// The WAN family (`gqs_faults::regions` behind
/// `TopologyFamily::Regions`): strongly connected while healthy, every
/// inter-region cut is sparse (gateway bridges only), and cutting one
/// region's whole boundary severs exactly that region.
#[test]
fn regions_family_properties() {
    use gqs_faults::wan_graph;
    use gqs_simnet::RegionSpec;
    for (n, r) in [(6usize, 2usize), (9, 3), (12, 3), (10, 4), (16, 4)] {
        let spec = RegionSpec::even(n, r);
        let g = wan_graph(spec);
        assert_eq!(g.len(), n);
        assert!(
            g.residual_failure_free().is_strongly_connected(full(n)),
            "healthy WAN n={n} r={r} must be strongly connected"
        );
        for region in 0..r {
            let cut = spec.cut(&g, region);
            // Ring of gateways: each region touches exactly two bridge
            // pairs (one for r = 2, where both neighbours coincide).
            let expected = if r == 2 { 2 } else { 4 };
            assert_eq!(cut.len(), expected, "n={n} r={r} region={region}");
            // Failing the whole cut severs the region from the rest.
            let pattern =
                gqs_core::FailurePattern::new(n, ProcessSet::new(), cut).expect("well-formed");
            let residual = g.residual(&pattern);
            let members: ProcessSet = spec.members(region).collect();
            for inside in members.iter() {
                let reach = residual.reach_from(inside);
                assert_eq!(reach & members, reach, "region {region} must be an island");
            }
        }
    }
}

/// Differential at the reachability layer: residuals of structured
/// topologies under random patterns agree with the naive engine on every
/// per-vertex query.
#[test]
fn reachability_matches_reference_on_structured_topologies() {
    let mut rng = SplitMix64::new(0xBEEF);
    for case in 0..40u32 {
        let n = 5 + (case as usize % 6); // 5..=10
        for g in [
            ring(n),
            oriented_ring(n),
            star(n),
            grid_graph_n(n, (n as f64).sqrt().ceil() as usize),
            two_cliques_bridge(n),
        ] {
            let f = random_pattern(&g, 1, 0.3, &mut rng);
            let fast = g.residual(&f);
            let slow = NaiveResidual::build(&g, &f);
            for p in 0..n {
                assert_eq!(fast.reach_from(ProcessId(p)), slow.reach_from(ProcessId(p)));
                assert_eq!(fast.reach_to(ProcessId(p)), slow.reach_to(ProcessId(p)));
            }
            assert_eq!(fast.sccs(), slow.sccs());
        }
    }
}
