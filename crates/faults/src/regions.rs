//! WAN-like multi-region topologies and the region bookkeeping fault
//! schedules need.
//!
//! A [`RegionLayout`] partitions the process universe into contiguous
//! regions (data centers); [`wan_graph`] realizes the classic WAN shape —
//! dense inside a region, sparse between regions: each region is a clique
//! and consecutive regions are joined by a single bidirectional gateway
//! bridge, so the inter-region cut of any region is a handful of channels.
//! That cut ([`RegionLayout::cut`]) is exactly what a region outage
//! disconnects.

use gqs_core::{Channel, NetworkGraph, ProcessId, ProcessSet};

/// A partition of processes `0..n` into `r` contiguous regions.
///
/// Regions are as even as possible: the first `n % r` regions get one
/// extra process. Region `i`'s **gateway** is its lowest-numbered process
/// — the endpoint [`wan_graph`] uses for inter-region bridges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionLayout {
    n: usize,
    /// `starts[i]` is the first process of region `i`; `starts[r] == n`.
    starts: Vec<usize>,
}

impl RegionLayout {
    /// Partitions `n` processes into `r` near-equal contiguous regions.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0` or `n < r` (every region needs a process).
    pub fn even(n: usize, r: usize) -> Self {
        assert!(r >= 1, "at least one region");
        assert!(n >= r, "need at least one process per region ({n} < {r})");
        let (base, extra) = (n / r, n % r);
        let mut starts = Vec::with_capacity(r + 1);
        let mut at = 0;
        for i in 0..r {
            starts.push(at);
            at += base + usize::from(i < extra);
        }
        starts.push(n);
        RegionLayout { n, starts }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the layout is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.starts.len() - 1
    }

    /// The region containing `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    pub fn region_of(&self, p: ProcessId) -> usize {
        assert!(p.index() < self.n, "process out of range");
        self.starts.partition_point(|&s| s <= p.index()) - 1
    }

    /// The processes of region `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a region index.
    pub fn members(&self, i: usize) -> ProcessSet {
        (self.starts[i]..self.starts[i + 1]).map(ProcessId).collect()
    }

    /// Region `i`'s gateway (its lowest-numbered process).
    pub fn gateway(&self, i: usize) -> ProcessId {
        ProcessId(self.starts[i])
    }

    /// The channels of `g` crossing region `i`'s boundary, in either
    /// direction — the cut a region outage disconnects.
    pub fn cut(&self, g: &NetworkGraph, i: usize) -> Vec<Channel> {
        let inside = self.members(i);
        g.channels().filter(|ch| inside.contains(ch.from) != inside.contains(ch.to)).collect()
    }
}

/// The WAN-shaped graph over a layout: each region is a complete clique,
/// and consecutive regions (in a ring) are joined by one bidirectional
/// bridge between their gateways. With one region the graph is simply the
/// clique.
pub fn wan_graph(layout: &RegionLayout) -> NetworkGraph {
    let mut g = NetworkGraph::empty(layout.len());
    for i in 0..layout.regions() {
        let members = layout.members(i);
        for a in members.iter() {
            for b in members.iter() {
                if a != b {
                    g.add_channel(Channel::new(a, b));
                }
            }
        }
    }
    let r = layout.regions();
    if r >= 2 {
        for i in 0..r {
            // A ring of gateway bridges; for r == 2 the single bridge pair
            // is added idempotently from both sides.
            let a = layout.gateway(i);
            let b = layout.gateway((i + 1) % r);
            g.add_channel(Channel::new(a, b));
            g.add_channel(Channel::new(b, a));
        }
    }
    g
}

/// Convenience constructor for the issue's `regions(r, k)` family: `r`
/// cliques of `k` processes each, gateway-bridged in a ring. Returns the
/// graph together with its layout.
///
/// # Panics
///
/// Panics if `r == 0` or `k == 0`.
pub fn regions(r: usize, k: usize) -> (NetworkGraph, RegionLayout) {
    assert!(k >= 1, "regions need at least one process each");
    let layout = RegionLayout::even(r * k, r);
    let g = wan_graph(&layout);
    (g, layout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_layout_distributes_remainders_first() {
        let l = RegionLayout::even(10, 3);
        assert_eq!(l.regions(), 3);
        assert_eq!(l.members(0).len(), 4);
        assert_eq!(l.members(1).len(), 3);
        assert_eq!(l.members(2).len(), 3);
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
            let inside = l.members(i);
            for ch in cut {
                assert!(inside.contains(ch.from) != inside.contains(ch.to));
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
        let _ = RegionLayout::even(2, 3);
    }
}
