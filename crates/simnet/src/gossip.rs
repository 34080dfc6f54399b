//! Flooded gossip over the topology's channel graph — the scale-core
//! workload.
//!
//! [`Gossip`] spreads a single rumor: the first time a process hears it
//! (by invocation or from a neighbour) it records the virtual time and
//! forwards one copy along every outgoing channel of the configured
//! [`Topology`](crate::Topology), via the allocation-free
//! [`Peers`](crate::topology::Peers) view. Per-process state is O(1) and
//! per-event work is O(out-degree), so a run costs O(channels) messages
//! total — at a million processes on a ring or grid that is a few million
//! events, not the O(n²) a [`Context::broadcast`]-based
//! protocol (such as [`crate::Flood`]) would generate.
//!
//! The interesting outputs are simulation-wide and read off the nodes
//! after the run: how many processes the rumor **reached** (on a connected
//! topology with no faults: all of them) and the **spread time** (the last
//! `heard_at`, i.e. the weighted eccentricity of the source under the
//! drawn delays).
//!
//! ```
//! use gqs_core::ProcessId;
//! use gqs_simnet::{Gossip, SimConfig, SimTime, Simulation, StopReason, Topology};
//!
//! let n = 1_000;
//! let cfg = SimConfig { topology: Topology::Ring { n }, ..SimConfig::default() };
//! let mut sim = Simulation::new(cfg, vec![Gossip::default(); n]);
//! sim.invoke_at(SimTime(1), ProcessId(0), ());
//! assert_eq!(sim.run(), StopReason::Quiescent);
//! let reached = (0..n).filter(|&p| sim.node(ProcessId(p)).heard_at().is_some()).count();
//! assert_eq!(reached, n);
//! ```

use gqs_core::ProcessId;

use crate::protocol::{Context, OpId, Protocol, TimerId};
use crate::time::SimTime;

/// One process's view of the rumor: nothing until it hears, then the time
/// it heard. See the [module docs](self).
#[derive(Clone, Default, Debug)]
pub struct Gossip {
    heard_at: Option<SimTime>,
}

impl Gossip {
    /// When this process first heard the rumor, or `None` if it never did
    /// (unreachable from the source, or crashed before the rumor arrived).
    pub fn heard_at(&self) -> Option<SimTime> {
        self.heard_at
    }

    /// First hearing: record the time and forward along every outgoing
    /// channel. Repeat hearings are absorbed silently, which is what caps
    /// the message complexity at one send per channel.
    fn hear(&mut self, ctx: &mut Context<(), ()>) {
        if self.heard_at.is_some() {
            return;
        }
        self.heard_at = Some(ctx.now());
        let me = ctx.me();
        let peers = ctx.peers().clone();
        peers.for_each_out(me, |to| {
            if to != me {
                ctx.send(to, ());
            }
        });
    }
}

impl Protocol for Gossip {
    type Msg = ();
    type Op = ();
    type Resp = ();

    fn on_start(&mut self, _ctx: &mut Context<(), ()>) {}

    fn on_message(&mut self, _from: ProcessId, _msg: (), ctx: &mut Context<(), ()>) {
        self.hear(ctx);
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<(), ()>) {}

    fn on_invoke(&mut self, op: OpId, _body: (), ctx: &mut Context<(), ()>) {
        self.hear(ctx);
        ctx.complete(op, ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FailureSchedule, SimConfig, Simulation, StopReason};
    use crate::topology::Topology;
    use crate::RegionSpec;

    fn reached(sim: &Simulation<Gossip>, n: usize) -> usize {
        (0..n).filter(|&p| sim.node(ProcessId(p)).heard_at().is_some()).count()
    }

    fn run_gossip(topology: Topology, n: usize, source: usize) -> Simulation<Gossip> {
        let cfg = SimConfig { topology, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![Gossip::default(); n]);
        sim.invoke_at(SimTime(1), ProcessId(source), ());
        assert_eq!(sim.run(), StopReason::Quiescent);
        sim
    }

    #[test]
    fn rumor_reaches_everyone_on_each_topology() {
        for topology in [
            Topology::Complete,
            Topology::Ring { n: 50 },
            Topology::Grid { n: 50, cols: 7 },
            Topology::Regions(RegionSpec::even(50, 5)),
        ] {
            let sim = run_gossip(topology, 50, 3);
            assert_eq!(reached(&sim, 50), 50);
        }
    }

    #[test]
    fn message_complexity_is_one_send_per_directed_channel() {
        // Ring(n): 2n directed channels; every process forwards once along
        // each of its 2 outgoing channels after its first hearing.
        let n = 200;
        let sim = run_gossip(Topology::Ring { n }, n, 0);
        assert_eq!(sim.stats().sent, 2 * n as u64);
    }

    #[test]
    fn crashed_processes_block_the_rumor_on_a_ring() {
        // Crash a ring node before the rumor starts: the rumor now spreads
        // along one arc only and stops at the crash site.
        let n = 20;
        let cfg = SimConfig { topology: Topology::Ring { n }, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![Gossip::default(); n]);
        let mut sched = FailureSchedule::none();
        sched.crash(ProcessId(10), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ());
        assert_eq!(sim.run(), StopReason::Quiescent);
        assert_eq!(sim.node(ProcessId(10)).heard_at(), None);
        // Both neighbours of the crash site still hear via their arcs.
        assert_eq!(reached(&sim, n), n - 1);
    }

    #[test]
    fn spread_time_scales_with_ring_diameter() {
        let near = run_gossip(Topology::Ring { n: 16 }, 16, 0);
        let far = run_gossip(Topology::Ring { n: 256 }, 256, 0);
        let spread = |sim: &Simulation<Gossip>, n: usize| {
            (0..n).filter_map(|p| sim.node(ProcessId(p)).heard_at()).max().unwrap()
        };
        assert!(spread(&far, 256) > spread(&near, 16));
    }

    #[test]
    fn ten_thousand_process_ring_floods_in_linear_messages() {
        // A debug-build smoke of the scale path: implicit topology, O(1)
        // state per node, 2n sends. (The release-mode 100k–1M runs live in
        // the `sim_scale` bench rung and `examples/gossip_100k.rs`.)
        let n = 10_000;
        let sim = run_gossip(Topology::Ring { n }, n, 1_234);
        assert_eq!(reached(&sim, n), n);
        assert_eq!(sim.stats().sent, 2 * n as u64);
    }
}
