//! End-to-end fault-schedule runs: schedules built by `gqs_faults` drive
//! the simulator, and the availability story they promise — blocked
//! during the outage, restored after the heal — actually happens.
//!
//! The transport under test is the real production stack: a one-shot
//! request/response protocol (which never retries on its own) wrapped in
//! [`Reliable`] for ack/retransmit/backoff delivery and [`Flood`] for
//! path diversity. Every heal-and-complete below is the reliability
//! layer's doing, not a test-local retry loop.

use gqs_core::{majority_system, ProcessId};
use gqs_faults::{regions, scenarios};
use gqs_registers::{abd_register_nodes, reliable_abd_register_nodes, AbdRegister, RegOp};
use gqs_simnet::{
    Context, FailureSchedule, Flood, OpId, Protocol, Reliable, SimConfig, SimTime, Simulation,
    StopReason, TimerId, Topology,
};

/// Fire-and-forget request/response: sends each request exactly once and
/// never retries — surviving faults is entirely [`Reliable`]'s job.
#[derive(Clone, Default, Debug)]
struct OneShot {
    pending: Vec<OpId>,
}

#[derive(Clone, Debug)]
enum Msg {
    Req,
    Rsp,
}

impl Protocol for OneShot {
    type Msg = Msg;
    type Op = ProcessId;
    type Resp = ();

    fn on_start(&mut self, _ctx: &mut Context<Msg, ()>) {}

    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg, ()>) {
        match msg {
            Msg::Req => ctx.send(from, Msg::Rsp),
            Msg::Rsp => {
                // Reliable delivers in per-sender order, so responses
                // come back in invocation order.
                if !self.pending.is_empty() {
                    let op = self.pending.remove(0);
                    ctx.complete(op, ());
                }
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<Msg, ()>) {}

    fn on_invoke(&mut self, op: OpId, target: ProcessId, ctx: &mut Context<Msg, ()>) {
        self.pending.push(op);
        ctx.send(target, Msg::Req);
    }
}

type ReliableStack = Flood<Reliable<OneShot>>;

fn reliable_nodes(n: usize) -> Vec<ReliableStack> {
    (0..n)
        .map(|p| {
            Flood::new(Reliable::with_tuning(OneShot::default(), 40, 640, 0xFA_075 + p as u64))
        })
        .collect()
}

fn wan_sim(r: usize, k: usize) -> (Simulation<ReliableStack>, gqs_faults::RegionLayout) {
    let (graph, layout) = regions::regions(r, k);
    let n = graph.len();
    let cfg = SimConfig {
        topology: Topology::from(graph),
        horizon: SimTime(100_000),
        ..SimConfig::default()
    };
    (Simulation::new(cfg, reliable_nodes(n)), layout)
}

#[test]
fn region_outage_blocks_cross_region_traffic_until_heal() {
    let (mut sim, layout) = wan_sim(3, 3);
    let graph = regions::regions(3, 3).0;
    // Region 1 dark during [500, 3000).
    sim.apply_failures(&scenarios::region_outage(&layout, &graph, 1, SimTime(500), SimTime(3000)));
    let in_r0 = ProcessId(0);
    let in_r1 = layout.gateway(1);
    // Before the outage: cross-region op completes promptly.
    let before = sim.invoke_at(SimTime(10), in_r0, in_r1);
    // During: the op stalls until the heal, then a retransmission gets
    // through (the one-shot protocol itself never resends).
    let during = sim.invoke_at(SimTime(1000), in_r0, in_r1);
    // After: back to normal.
    let after = sim.invoke_at(SimTime(5000), in_r0, in_r1);
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let done = |op: OpId| {
        sim.history()
            .ops()
            .iter()
            .find(|r| r.id == op)
            .and_then(|r| r.completed_at())
            .expect("completed")
    };
    assert!(done(before) < SimTime(500), "pre-outage op completes before the cut");
    assert!(done(during) >= SimTime(3000), "mid-outage op cannot complete before the heal");
    assert!(done(after) < SimTime(6000), "post-heal traffic flows normally again");
    assert!(sim.stats().retransmitted > 0, "the mid-outage op heals via retransmission");
}

#[test]
fn intra_region_traffic_survives_the_outage() {
    let (mut sim, layout) = wan_sim(3, 3);
    let graph = regions::regions(3, 3).0;
    sim.apply_failures(&scenarios::region_outage(&layout, &graph, 1, SimTime(500), SimTime(3000)));
    // Both endpoints inside the dark region: the island stays healthy.
    let a = layout.gateway(1);
    let b = ProcessId(a.index() + 1);
    sim.invoke_at(SimTime(1000), a, b);
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let done = sim.history().ops()[0].completed_at().unwrap();
    assert!(done < SimTime(1200), "intra-region traffic is unaffected, got {done:?}");
}

#[test]
fn rolling_restart_leaves_everyone_alive_and_responsive() {
    let (mut sim, _layout) = wan_sim(2, 3);
    let schedule = scenarios::rolling_restart(6, SimTime(100), 200, 50);
    let end = schedule.recovers().iter().map(|&(_, at)| at).max().expect("six restarts");
    sim.apply_failures(&schedule);
    // An op invoked after the whole roll completes normally.
    sim.invoke_at(end + 100, ProcessId(0), ProcessId(5));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    for p in 0..6 {
        assert!(!sim.is_crashed(ProcessId(p)), "process {p} must have recovered");
    }
}

#[test]
fn hub_crash_blacks_out_spokes_until_recovery() {
    // A pure star: 1 hub + 3 spokes, every path goes through the hub.
    let mut g = gqs_core::NetworkGraph::empty(4);
    for i in 1..4 {
        g.add_channel(gqs_core::Channel::new(ProcessId(0), ProcessId(i)));
        g.add_channel(gqs_core::Channel::new(ProcessId(i), ProcessId(0)));
    }
    let cfg = SimConfig {
        topology: Topology::from(g),
        horizon: SimTime(100_000),
        ..SimConfig::default()
    };
    let mut sim: Simulation<ReliableStack> = Simulation::new(cfg, reliable_nodes(4));
    sim.apply_failures(&scenarios::hub_crash(ProcessId(0), SimTime(200), Some(SimTime(2000))));
    // Spoke-to-spoke traffic during the hub's downtime stalls, then heals.
    sim.invoke_at(SimTime(500), ProcessId(1), ProcessId(2));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let done = sim.history().ops()[0].completed_at().unwrap();
    assert!(done >= SimTime(2000), "no spoke path exists while the hub is down, got {done:?}");
}

#[test]
fn equal_scripts_produce_identical_traces() {
    let build = || {
        let (mut sim, layout) = wan_sim(3, 2);
        let graph = regions::regions(3, 2).0;
        let mut schedule = FailureSchedule::none();
        schedule
            .merge(scenarios::staggered_region_outages(&layout, &graph, SimTime(300), 400, 600))
            .merge(scenarios::flapping_link(
                &layout.cut(&graph, 0),
                SimTime(2500),
                100,
                100,
                SimTime(3000),
            ));
        sim.apply_failures(&schedule);
        sim.invoke_at(SimTime(50), ProcessId(0), ProcessId(5));
        sim.invoke_at(SimTime(700), ProcessId(2), ProcessId(0));
        sim.run();
        (sim.stats(), sim.now())
    };
    assert_eq!(build(), build(), "same schedule + same seed = same trace");
}

/// The regression the self-healing register stack exists for: a write
/// invoked *inside* a region outage, at a process in the dark region.
/// The plain ABD register broadcasts its phase-1 message exactly once —
/// the cut eats it, and the op never completes even after the heal. The
/// retrying register stack retransmits and completes within a bounded
/// interval after the heal, with zero client-side re-invocations.
#[test]
fn abd_write_during_region_outage_needs_the_retrying_stack() {
    let (graph, layout) = regions::regions(3, 3);
    let n = graph.len();
    let qs = majority_system(n).expect("majority system exists");
    let cfg = SimConfig {
        topology: Topology::from(graph.clone()),
        horizon: SimTime(100_000),
        ..SimConfig::default()
    };
    let outage = scenarios::region_outage(&layout, &graph, 1, SimTime(500), SimTime(3000));
    // The invoker sits inside the dark region: its 3-process island
    // cannot form a majority quorum of 5, so nothing completes before
    // the heal.
    let invoker = layout.gateway(1);

    // Plain ABD: the one broadcast is lost to the cut; the run drains to
    // quiescence with the op still open.
    let plain: Vec<Flood<AbdRegister<u8, u64>>> =
        abd_register_nodes(n, qs.reads().clone(), qs.writes().clone(), 0u64)
            .into_iter()
            .map(Flood::new)
            .collect();
    let mut sim = Simulation::new(cfg.clone(), plain);
    sim.apply_failures(&outage);
    sim.invoke_at(SimTime(1000), invoker, RegOp::Write { reg: 0u8, value: 7u64 });
    let reason = sim.run_until_ops_complete();
    assert_ne!(reason, StopReason::OpsComplete, "plain ABD must not complete, got {reason:?}");
    assert!(
        sim.history().ops()[0].completed_at().is_none(),
        "the un-retried write stays open forever"
    );

    // The retrying stack: same cell, same op, no client retry — the
    // engine's retransmissions notice the heal and finish the write.
    const RETRY: u64 = 150;
    let retrying: Vec<Flood<AbdRegister<u8, u64>>> =
        reliable_abd_register_nodes(n, qs.reads().clone(), qs.writes().clone(), 0u64, RETRY)
            .into_iter()
            .map(Flood::new)
            .collect();
    let mut sim = Simulation::new(cfg, retrying);
    sim.apply_failures(&outage);
    sim.invoke_at(SimTime(1000), invoker, RegOp::Write { reg: 0u8, value: 7u64 });
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let done = sim.history().ops()[0].completed_at().expect("the retrying write completes");
    assert!(done >= SimTime(3000), "nothing can complete before the heal, got {done:?}");
    assert!(
        done < SimTime(3000 + 10 * RETRY),
        "the first post-heal retry round should finish the op, got {done:?}"
    );
    assert!(sim.stats().retransmitted > 0, "healing happened via engine retransmission");
}

/// The simulator's implicit `Topology::Regions` must connect exactly the
/// channels [`gqs_faults::wan_graph`] materializes — same even partition,
/// same region-start gateways, same gateway ring — so scale-mode region
/// runs and the decision-mode WAN graphs describe one topology.
#[test]
fn implicit_regions_topology_matches_wan_graph() {
    use gqs_core::Channel;
    use gqs_faults::{wan_graph, RegionLayout};

    for n in 1..=24usize {
        for r in 1..=n {
            let layout = RegionLayout::even(n, r);
            let graph = wan_graph(&layout);
            let implicit = Topology::Regions { n, regions: r };
            for a in 0..n {
                for b in 0..n {
                    let (pa, pb) = (ProcessId(a), ProcessId(b));
                    let want = a == b || graph.has_channel(Channel::new(pa, pb));
                    assert_eq!(implicit.connects(pa, pb), want, "n={n} r={r}: {a}->{b}");
                }
            }
        }
    }
}
