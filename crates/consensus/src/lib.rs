//! # Partially synchronous consensus over generalized quorum systems
//!
//! The §7 upper bound of *"Tight Bounds on Channel Reliability via
//! Generalized Quorum Systems"*: a Paxos-like protocol (Figure 6) driven
//! by a message-free **view synchronizer** with growing timeouts. After
//! GST, all correct processes overlap in all but finitely many views for
//! arbitrarily long (Proposition 2); in any sufficiently long view led by
//! a member of `U_f`, `1B`s flow *unidirectionally* from a read quorum to
//! the leader, the `2A`/`2B` exchange completes within the strongly
//! connected write quorum, and the leader decides — `(F, τ)`-wait-freedom
//! for `τ(f) = U_f`.
//!
//! The same type doubles as the classical baseline: in
//! [`ProposalMode::Pull`] the leader must fetch `1B`s with an explicit 1A
//! round, which dies exactly where the paper says request/response
//! patterns die (Example 3).
//!
//! ```
//! use gqs_core::{systems::figure1, ProcessId};
//! use gqs_consensus::{gqs_consensus_nodes, ProposalMode};
//! use gqs_simnet::{DelayModel, FailureSchedule, SimConfig, SimTime, Simulation, StopReason};
//!
//! let fig = figure1();
//! let nodes = gqs_consensus_nodes::<u64>(&fig.gqs, 200, ProposalMode::Push);
//! let cfg = SimConfig {
//!     delay: DelayModel::PartialSynchrony { pre_min: 1, pre_max: 50, gst: 500, delta: 5 },
//!     horizon: SimTime(2_000_000),
//!     ..SimConfig::default()
//! };
//! let mut sim = Simulation::new(cfg, nodes);
//! sim.apply_failures(&FailureSchedule::from_pattern_at(fig.fail_prone.pattern(0), SimTime(0)));
//! sim.invoke_at(SimTime(10), ProcessId(0), 42u64); // propose at a ∈ U_f1
//! assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod protocol;
pub mod synchronizer;

pub use protocol::{ConsensusMsg, ConsensusNode, Phase, ProposalMode};
pub use synchronizer::{leader_of, view_overlaps, ViewSynchronizer, VIEW_TIMER};

use gqs_core::{majority_system, GeneralizedQuorumSystem, ProcessId, QuorumFamily};
use gqs_simnet::{Flood, SimTime};
use std::fmt::Debug;

/// One flooding-wrapped consensus node per process `0..n`, all over the
/// same read and write quorum families.
fn flooded_nodes<V>(
    n: usize,
    reads: &QuorumFamily,
    writes: &QuorumFamily,
    c: u64,
    mode: ProposalMode,
) -> Vec<Flood<ConsensusNode<V>>>
where
    V: Clone + Debug + PartialEq,
{
    (0..n)
        .map(|p| {
            let node = ConsensusNode::new(ProcessId(p), n, reads.clone(), writes.clone(), c, mode);
            Flood::new(node)
        })
        .collect()
}

/// Builds one flooding-wrapped consensus node per process of a
/// generalized quorum system, with view duration constant `C`.
pub fn gqs_consensus_nodes<V>(
    gqs: &GeneralizedQuorumSystem,
    c: u64,
    mode: ProposalMode,
) -> Vec<Flood<ConsensusNode<V>>>
where
    V: Clone + Debug + PartialEq,
{
    flooded_nodes(gqs.graph().len(), gqs.reads(), gqs.writes(), c, mode)
}

/// Builds one flooding-wrapped consensus node per process using the
/// **majority** quorum system (reads = writes = any `⌈(n+1)/2⌉`-set) —
/// the topology-agnostic configuration the sweep engine's consensus mode
/// drives over arbitrary communication graphs.
///
/// # Panics
///
/// Panics if `n == 0` or `c == 0`.
pub fn majority_consensus_nodes<V>(
    n: usize,
    c: u64,
    mode: ProposalMode,
) -> Vec<Flood<ConsensusNode<V>>>
where
    V: Clone + Debug + PartialEq,
{
    let qs = majority_system(n).expect("majority system exists for n >= 1");
    flooded_nodes(n, qs.reads(), qs.writes(), c, mode)
}

/// A value-agnostic decision probe for harnesses that only need liveness
/// figures: the `(view, decision time)` of a flooding-wrapped node, if it
/// has decided — without reaching into protocol internals or naming the
/// value type's contents.
pub fn probe_decision<V>(node: &Flood<ConsensusNode<V>>) -> Option<(u64, SimTime)>
where
    V: Clone + Debug + PartialEq,
{
    node.inner().decision().map(|&(_, view, at)| (view, at))
}
