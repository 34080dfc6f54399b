//! The communication graph a simulation runs over.
//!
//! The paper's standard model (§2) gives every ordered pair of distinct
//! processes a unidirectional channel — the complete digraph — and that is
//! what [`Topology::Complete`] (the default) provides, so existing callers
//! are untouched. [`Topology::Graph`] restricts the network to the
//! channels of an explicit [`NetworkGraph`]: a send over a channel the
//! graph does not contain behaves exactly like a send over a channel that
//! disconnected at time zero (dropped, counted in
//! `NetStats::dropped_disconnected`).
//!
//! Sparse topologies are where the paper's WLOG-transitivity argument
//! becomes operational: §5 assumes the connectivity relation of `G \ f`
//! is transitive because "transitivity can be easily simulated by having
//! all processes forward every received message" — which is what
//! [`crate::flood::Flood`] implements. Running a flooded protocol over a
//! sparse topology therefore restores *logical* connectivity along
//! directed paths of present (and non-disconnected) channels, at the
//! message cost the experiment tables report.
//!
//! ## Implicit topologies
//!
//! A materialized [`NetworkGraph`] costs O(n²) bits and is capped at
//! `gqs_core::MAX_PROCESSES` — both fatal at the 100k–1M process scale the
//! simulator core now targets. [`Topology::Ring`], [`Topology::Grid`] and
//! [`Topology::Regions`] instead *compute* adjacency per query in O(1)
//! from the pid arithmetic alone, and agree channel-for-channel with the
//! corresponding materialized constructions (`gqs_workloads`'s `ring` /
//! `grid_graph_n` and `gqs_faults`'s `wan_graph` over the same
//! [`RegionSpec`]) at every size where those exist. The [`Peers`] view
//! gives protocols the same O(1) adjacency without ever touching
//! `ProcessSet`, so protocol pid-space is no longer bounded by the
//! decision procedures' bitset universe.

use gqs_core::{Channel, NetworkGraph, ProcessId};

use crate::netmodel::RegionSpec;

/// Coarse class of a channel, for region-aware delay/telemetry layers:
/// links inside one region versus the gateway links of the inter-region
/// WAN ring.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ChannelClass {
    /// Both endpoints in the same region (or the topology has no region
    /// structure at all).
    Intra,
    /// An inter-region link of a [`Topology::Regions`] WAN (between two
    /// region gateways).
    Gateway,
}

/// The static communication graph of a [`crate::sim::Simulation`].
///
/// Self-delivery is always allowed: a process is connected to itself in
/// every topology (the model has no self-channels; self-sends are local).
///
/// # Examples
///
/// ```
/// use gqs_core::{Channel, NetworkGraph, ProcessId};
/// use gqs_simnet::Topology;
///
/// let complete = Topology::Complete;
/// assert!(complete.connects(ProcessId(0), ProcessId(2)));
///
/// let mut g = NetworkGraph::empty(3);
/// g.add_channel(Channel::new(ProcessId(0), ProcessId(1)));
/// let sparse = Topology::from(g);
/// assert!(sparse.connects(ProcessId(0), ProcessId(1)));
/// assert!(!sparse.connects(ProcessId(1), ProcessId(0))); // channels are directed
/// assert!(sparse.connects(ProcessId(2), ProcessId(2))); // self-delivery always
///
/// // Implicit topologies need no O(n²) graph — adjacency is arithmetic:
/// let ring = Topology::Ring { n: 1_000_000 };
/// assert!(ring.connects(ProcessId(999_999), ProcessId(0)));
/// assert!(!ring.connects(ProcessId(0), ProcessId(2)));
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub enum Topology {
    /// Every ordered pair of distinct processes has a channel (the
    /// paper's standard model, and the historical simulator behaviour).
    #[default]
    Complete,
    /// Only the channels of this graph exist. The graph must have exactly
    /// one vertex per simulated process ([`crate::sim::Simulation::new`]
    /// checks).
    Graph(NetworkGraph),
    /// A bidirectional ring over `n` processes: `i ↔ i+1 (mod n)`.
    /// Channel-for-channel identical to the materialized ring
    /// construction (`gqs_workloads::generators::ring`), computed per
    /// query.
    Ring {
        /// Number of processes.
        n: usize,
    },
    /// A bidirectional `⌈n/cols⌉ × cols` grid over `n` processes in
    /// row-major order (the last row may be ragged): `v ↔ v+1` within a
    /// row, `v ↔ v+cols` between rows. Channel-for-channel identical to
    /// `gqs_workloads::generators::grid_graph_n`, computed per query.
    Grid {
        /// Number of processes.
        n: usize,
        /// Row width (must be ≥ 1).
        cols: usize,
    },
    /// A WAN over the regions of a [`RegionSpec`]: each region is a
    /// complete clique, and each region's gateway is linked both ways to
    /// the gateways of the neighbouring regions in a ring.
    /// Channel-for-channel identical to `gqs_faults::wan_graph` over the
    /// same spec, computed per query.
    Regions(RegionSpec),
}

impl Topology {
    /// Whether a message from `from` can traverse the network to `to`
    /// directly (self-sends always can).
    pub fn connects(&self, from: ProcessId, to: ProcessId) -> bool {
        from == to
            || match self {
                Topology::Complete => true,
                Topology::Graph(g) => g.has_channel(Channel::new(from, to)),
                Topology::Ring { n } => {
                    let (n, a, b) = (*n, from.index(), to.index());
                    n >= 2 && a < n && b < n && ((a + 1) % n == b || (b + 1) % n == a)
                }
                Topology::Grid { n, cols } => {
                    let (a, b) = (from.index(), to.index());
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    hi < *n && ((hi == lo + 1 && hi % cols != 0) || hi == lo + cols)
                }
                Topology::Regions(spec) => {
                    if from.index() >= spec.n() || to.index() >= spec.n() {
                        return false;
                    }
                    let (ra, rb, r) = (spec.region_of(from), spec.region_of(to), spec.regions());
                    ra == rb
                        || (r >= 2
                            && from == spec.gateway(ra)
                            && to == spec.gateway(rb)
                            && ((ra + 1) % r == rb || (rb + 1) % r == ra))
                }
            }
    }

    /// The class of the `from → to` channel: [`ChannelClass::Gateway`]
    /// for the inter-region links of a [`Topology::Regions`] WAN,
    /// [`ChannelClass::Intra`] everywhere else. Meaningful for channels
    /// the topology actually [`connects`](Topology::connects).
    pub fn channel_class(&self, from: ProcessId, to: ProcessId) -> ChannelClass {
        match self {
            Topology::Regions(spec) => spec.classify(from, to),
            _ => ChannelClass::Intra,
        }
    }

    /// The number of processes this topology prescribes, if it does
    /// (`Complete` adapts to any system size).
    pub fn required_len(&self) -> Option<usize> {
        match self {
            Topology::Complete => None,
            Topology::Graph(g) => Some(g.len()),
            Topology::Ring { n } | Topology::Grid { n, .. } => Some(*n),
            Topology::Regions(spec) => Some(spec.n()),
        }
    }

    /// Panics on ill-formed parameters (zero-width grids; a
    /// [`RegionSpec`] is checked where it is built). Called by
    /// [`crate::sim::Simulation::new`].
    pub(crate) fn validate(&self) {
        if let Topology::Grid { cols, .. } = self {
            assert!(*cols >= 1, "grid needs at least one column");
        }
    }
}

impl From<NetworkGraph> for Topology {
    fn from(g: NetworkGraph) -> Self {
        Topology::Graph(g)
    }
}

/// A protocol's cheap, clonable view of the communication graph: who its
/// out-neighbours are, in a pid-space that is **not** bounded by
/// `gqs_core::MAX_PROCESSES`.
///
/// Protocols that address peers through `Peers` (rather than a
/// `ProcessSet`) scale to whatever the simulator supports. For implicit
/// topologies adjacency is O(1) arithmetic; an explicit [`NetworkGraph`]
/// shares its adjacency behind an `Arc`, so cloning a `Peers` into every
/// handler context costs one reference count.
///
/// # Examples
///
/// ```
/// use gqs_core::ProcessId;
/// use gqs_simnet::topology::{Peers, Topology};
///
/// let peers = Peers::from_topology(&Topology::Ring { n: 100_000 }, 100_000);
/// assert_eq!(peers.out_neighbors(ProcessId(0)), vec![ProcessId(1), ProcessId(99_999)]);
/// ```
#[derive(Clone, Debug)]
pub struct Peers {
    topology: Topology,
    n: usize,
}

impl Peers {
    /// The complete view: everyone (but `me`) is an out-neighbour.
    pub fn all(n: usize) -> Self {
        Peers { topology: Topology::Complete, n }
    }

    /// The view matching `topology` for an `n`-process system.
    pub fn from_topology(topology: &Topology, n: usize) -> Self {
        Peers { topology: topology.clone(), n }
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Calls `f` once per out-neighbour of `me` (never `me` itself), in a
    /// fixed deterministic order. Allocation-free for every topology.
    pub fn for_each_out(&self, me: ProcessId, mut f: impl FnMut(ProcessId)) {
        let v = me.index();
        match &self.topology {
            Topology::Complete => {
                for p in 0..self.n {
                    if p != v {
                        f(ProcessId(p));
                    }
                }
            }
            Topology::Ring { n } => {
                let n = *n;
                if n >= 2 && v < n {
                    let next = (v + 1) % n;
                    let prev = (v + n - 1) % n;
                    f(ProcessId(next));
                    if prev != next {
                        f(ProcessId(prev));
                    }
                }
            }
            Topology::Grid { n, cols } => {
                let (n, cols) = (*n, *cols);
                if v >= n {
                    return;
                }
                if v >= cols {
                    f(ProcessId(v - cols)); // up
                }
                if !v.is_multiple_of(cols) {
                    f(ProcessId(v - 1)); // left
                }
                if !(v + 1).is_multiple_of(cols) && v + 1 < n {
                    f(ProcessId(v + 1)); // right
                }
                if v + cols < n {
                    f(ProcessId(v + cols)); // down
                }
            }
            Topology::Regions(spec) => {
                if v >= spec.n() {
                    return;
                }
                let (rv, r) = (spec.region_of(me), spec.regions());
                for p in spec.members(rv) {
                    if p != me {
                        f(p);
                    }
                }
                if r >= 2 && me == spec.gateway(rv) {
                    let next = spec.gateway((rv + 1) % r);
                    let prev = spec.gateway((rv + r - 1) % r);
                    f(next);
                    if prev != next {
                        f(prev);
                    }
                }
            }
            Topology::Graph(g) => {
                for p in g.successors(me).iter() {
                    f(p);
                }
            }
        }
    }

    /// The out-neighbours of `me` as a vector (convenience over
    /// [`Peers::for_each_out`]).
    pub fn out_neighbors(&self, me: ProcessId) -> Vec<ProcessId> {
        let mut out = Vec::new();
        self.for_each_out(me, |p| out.push(p));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_connects_everything() {
        let t = Topology::default();
        assert_eq!(t, Topology::Complete);
        assert!(t.connects(ProcessId(0), ProcessId(9)));
        assert!(t.connects(ProcessId(3), ProcessId(3)));
        assert_eq!(t.required_len(), None);
    }

    #[test]
    fn graph_restricts_to_its_channels() {
        let mut g = NetworkGraph::empty(4);
        g.add_channel(Channel::new(ProcessId(0), ProcessId(1)));
        g.add_channel(Channel::new(ProcessId(1), ProcessId(2)));
        let t = Topology::from(g);
        assert!(t.connects(ProcessId(0), ProcessId(1)));
        assert!(t.connects(ProcessId(1), ProcessId(2)));
        assert!(!t.connects(ProcessId(0), ProcessId(2)));
        assert!(!t.connects(ProcessId(1), ProcessId(0)));
        assert!(t.connects(ProcessId(3), ProcessId(3)));
        assert_eq!(t.required_len(), Some(4));
    }

    #[test]
    fn complete_graph_topology_equals_complete_behaviour() {
        let t = Topology::from(NetworkGraph::complete(5));
        for a in 0..5 {
            for b in 0..5 {
                assert!(t.connects(ProcessId(a), ProcessId(b)));
            }
        }
    }

    #[test]
    fn implicit_ring_shapes() {
        // n = 1: no channels (self-delivery only).
        let t1 = Topology::Ring { n: 1 };
        assert!(t1.connects(ProcessId(0), ProcessId(0)));
        // n = 2: both directions between the two.
        let t2 = Topology::Ring { n: 2 };
        assert!(t2.connects(ProcessId(0), ProcessId(1)));
        assert!(t2.connects(ProcessId(1), ProcessId(0)));
        // n = 5: neighbours only, wrap included.
        let t5 = Topology::Ring { n: 5 };
        assert!(t5.connects(ProcessId(4), ProcessId(0)));
        assert!(t5.connects(ProcessId(0), ProcessId(4)));
        assert!(!t5.connects(ProcessId(0), ProcessId(2)));
        assert_eq!(t5.required_len(), Some(5));
    }

    #[test]
    fn implicit_grid_handles_ragged_last_row() {
        // 7 processes, 3 columns: last row is [6] alone.
        let t = Topology::Grid { n: 7, cols: 3 };
        assert!(t.connects(ProcessId(3), ProcessId(6)), "column link into the ragged row");
        assert!(!t.connects(ProcessId(5), ProcessId(6)), "no wrap across the ragged row edge");
        assert!(!t.connects(ProcessId(2), ProcessId(3)), "no row-wrap between rows");
        assert!(t.connects(ProcessId(4), ProcessId(5)));
    }

    #[test]
    fn implicit_regions_cliques_and_gateway_ring() {
        // n = 7, r = 3: regions {0,1,2}, {3,4}, {5,6}; gateways 0, 3, 5.
        let t = Topology::Regions(RegionSpec::even(7, 3));
        assert!(t.connects(ProcessId(1), ProcessId(2)), "intra-region clique");
        assert!(t.connects(ProcessId(0), ProcessId(3)), "gateway ring");
        assert!(t.connects(ProcessId(5), ProcessId(0)), "gateway ring wraps");
        assert!(!t.connects(ProcessId(1), ProcessId(3)), "non-gateways never cross regions");
        assert!(!t.connects(ProcessId(0), ProcessId(4)), "gateways only reach other gateways");
        assert_eq!(t.channel_class(ProcessId(0), ProcessId(3)), ChannelClass::Gateway);
        assert_eq!(t.channel_class(ProcessId(1), ProcessId(2)), ChannelClass::Intra);
        assert_eq!(
            Topology::Complete.channel_class(ProcessId(0), ProcessId(1)),
            ChannelClass::Intra
        );
    }

    #[test]
    fn region_arithmetic_is_an_even_partition() {
        for n in 1..=40 {
            for r in 1..=n {
                let spec = RegionSpec::even(n, r);
                assert_eq!((spec.n(), spec.regions()), (n, r));
                // Contiguous even split: sizes differ by at most one and
                // the larger regions come first; `region_of` agrees with
                // `members`, and a region's gateway is its first member.
                let (base, extra) = (n / r, n % r);
                let mut next = 0;
                for i in 0..r {
                    let members: Vec<ProcessId> = spec.members(i).collect();
                    assert_eq!(
                        members.len(),
                        if i < extra { base + 1 } else { base },
                        "n={n} r={r}"
                    );
                    assert_eq!(members[0], spec.gateway(i));
                    for p in members {
                        assert_eq!(p, ProcessId(next), "regions are contiguous");
                        assert_eq!(spec.region_of(p), i, "n={n} r={r} p={p:?}");
                        next += 1;
                    }
                }
                assert_eq!(next, n, "the regions cover 0..n");
            }
        }
        for (n, r) in [(5, 0), (2, 3)] {
            let built = std::panic::catch_unwind(|| RegionSpec::even(n, r));
            assert!(built.is_err(), "RegionSpec::even({n}, {r}) must panic");
        }
    }

    #[test]
    fn peers_match_connects_on_every_topology() {
        let mut g = NetworkGraph::empty(6);
        g.add_channel(Channel::new(ProcessId(0), ProcessId(3)));
        g.add_channel(Channel::new(ProcessId(3), ProcessId(1)));
        let tops = [
            Topology::Complete,
            Topology::Graph(g),
            Topology::Ring { n: 6 },
            Topology::Grid { n: 6, cols: 3 },
            Topology::Grid { n: 7, cols: 3 },
            Topology::Regions(RegionSpec::even(7, 3)),
            Topology::Ring { n: 2 },
            Topology::Ring { n: 1 },
        ];
        for t in tops {
            let n = t.required_len().unwrap_or(6);
            let peers = Peers::from_topology(&t, n);
            assert_eq!(peers.n(), n);
            for a in 0..n {
                let out = peers.out_neighbors(ProcessId(a));
                let mut dedup = out.clone();
                dedup.sort();
                dedup.dedup();
                assert_eq!(dedup.len(), out.len(), "{t:?}: duplicate neighbour from {a}");
                for b in 0..n {
                    let listed = out.contains(&ProcessId(b));
                    let connected = a != b && t.connects(ProcessId(a), ProcessId(b));
                    assert_eq!(listed, connected, "{t:?}: ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn implicit_adjacency_is_constant_memory_at_scale() {
        // The whole point: a million-process ring costs nothing to query.
        let t = Topology::Ring { n: 1_000_000 };
        assert!(t.connects(ProcessId(999_999), ProcessId(0)));
        let peers = Peers::from_topology(&t, 1_000_000);
        assert_eq!(
            peers.out_neighbors(ProcessId(500_000)),
            vec![ProcessId(500_001), ProcessId(499_999)]
        );
        let g = Topology::Grid { n: 1_000_000, cols: 1000 };
        assert!(g.connects(ProcessId(123_456), ProcessId(124_456)));
        assert!(!g.connects(ProcessId(123_999), ProcessId(124_000)), "row boundary");
    }
}
