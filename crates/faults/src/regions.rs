//! WAN-like multi-region topologies.
//!
//! A [`RegionSpec`] partitions the process universe into contiguous
//! regions (data centers); [`wan_graph`] realizes the classic WAN shape —
//! dense inside a region, sparse between regions: each region is a clique
//! and consecutive regions are joined by a single bidirectional gateway
//! bridge, so the inter-region cut of any region is a handful of channels.
//! That cut ([`RegionSpec::cut`]) is exactly what a region outage
//! disconnects.

use gqs_core::{Channel, NetworkGraph};
use gqs_simnet::RegionSpec;

/// The WAN-shaped graph over a partition: each region is a complete
/// clique, and consecutive regions (in a ring) are joined by one
/// bidirectional bridge between their gateways. With one region the graph
/// is simply the clique.
pub fn wan_graph(spec: RegionSpec) -> NetworkGraph {
    let mut g = NetworkGraph::empty(spec.n());
    let r = spec.regions();
    for i in 0..r {
        for a in spec.members(i) {
            for b in spec.members(i) {
                if a != b {
                    g.add_channel(Channel::new(a, b));
                }
            }
        }
    }
    if r >= 2 {
        for i in 0..r {
            // A ring of gateway bridges; for r == 2 the single bridge pair
            // is added idempotently from both sides.
            let a = spec.gateway(i);
            let b = spec.gateway((i + 1) % r);
            g.add_channel(Channel::new(a, b));
            g.add_channel(Channel::new(b, a));
        }
    }
    g
}

/// Convenience constructor for the `regions(r, k)` family: `r`
/// cliques of `k` processes each, gateway-bridged in a ring. Returns the
/// graph together with its partition.
///
/// # Panics
///
/// Panics if `r == 0` or `k == 0`.
pub fn regions(r: usize, k: usize) -> (NetworkGraph, RegionSpec) {
    assert!(k >= 1, "regions need at least one process each");
    let spec = RegionSpec::even(r * k, r);
    (wan_graph(spec), spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqs_core::ProcessId;

    #[test]
    fn even_layout_distributes_remainders_first() {
        let l = RegionSpec::even(10, 3);
        assert_eq!(l.regions(), 3);
        assert_eq!(l.members(0).count(), 4);
        assert_eq!(l.members(1).count(), 3);
        assert_eq!(l.members(2).count(), 3);
        assert_eq!(l.region_of(ProcessId(0)), 0);
        assert_eq!(l.region_of(ProcessId(3)), 0);
        assert_eq!(l.region_of(ProcessId(4)), 1);
        assert_eq!(l.region_of(ProcessId(9)), 2);
        assert_eq!(l.gateway(1), ProcessId(4));
    }

    #[test]
    fn wan_graph_is_cliques_plus_gateway_ring() {
        let (g, l) = regions(3, 4);
        assert_eq!(g.len(), 12);
        // 3 cliques of 4 = 3 * 12 directed channels, + 3 bidirectional
        // bridges = 6 more.
        assert_eq!(g.channels().count(), 3 * 12 + 6);
        // Every region's cut is exactly its gateway's two bridges (ring of
        // 3: each gateway bridges to both neighbours).
        for i in 0..3 {
            let cut = l.cut(&g, i);
            assert_eq!(cut.len(), 4, "region {i} cut: 2 bridges x 2 directions");
            for ch in cut {
                assert!((l.region_of(ch.from) == i) != (l.region_of(ch.to) == i));
            }
        }
        // The WAN is strongly connected while healthy.
        assert!(g.residual_failure_free().is_strongly_connected(g.processes()));
    }

    #[test]
    fn two_regions_share_one_bridge_pair() {
        let (g, l) = regions(2, 3);
        // 2 cliques of 3 (6 channels each) + one bidirectional bridge.
        assert_eq!(g.channels().count(), 2 * 6 + 2);
        assert_eq!(l.cut(&g, 0).len(), 2);
    }

    #[test]
    fn single_region_is_a_clique() {
        let (g, l) = regions(1, 5);
        assert_eq!(g.channels().count(), 5 * 4);
        assert!(l.cut(&g, 0).is_empty(), "one region has no inter-region cut");
    }

    #[test]
    #[should_panic(expected = "at least one process per region")]
    fn too_many_regions_rejected() {
        let _ = wan_graph(RegionSpec::even(2, 3));
    }
}
