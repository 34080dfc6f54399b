//! End-to-end fault-schedule runs: schedules built by `gqs_faults` drive
//! the simulator, and the availability story they promise — blocked
//! during the outage, restored after the heal — actually happens.
//!
//! The stack under test is the one the availability sweep runs: flooded
//! ABD registers whose quorum engine rebroadcasts unanswered requests
//! ([`reliable_abd_register_nodes`]). Every operation is invoked once, so
//! every heal-and-complete below is the engine's retransmission, not a
//! test-local retry loop.

use gqs_core::{majority_system, Channel, ProcessId, QuorumFamily};
use gqs_faults::{regions, scenarios};
use gqs_registers::{abd_register_nodes, reliable_abd_register_nodes, AbdRegister, RegOp};
use gqs_simnet::{
    FailureSchedule, Flood, OpId, RegionSpec, SimConfig, SimTime, Simulation, SplitMix64,
    StopReason, Topology,
};

/// Retry period of the registers under test.
const RETRY: u64 = 150;

type Stack = Flood<AbdRegister<u8, u64>>;

/// Flooded retrying registers over the given quorum families.
fn retrying_nodes_over(n: usize, reads: QuorumFamily, writes: QuorumFamily) -> Vec<Stack> {
    reliable_abd_register_nodes(n, reads, writes, 0u64, RETRY).into_iter().map(Flood::new).collect()
}

/// Flooded retrying registers over majority quorums of all `n` processes.
fn retrying_nodes(n: usize) -> Vec<Stack> {
    let qs = majority_system(n).expect("majority system exists");
    retrying_nodes_over(n, qs.reads().clone(), qs.writes().clone())
}

fn write(value: u64) -> RegOp<u8, u64> {
    RegOp::Write { reg: 0, value }
}

const READ: RegOp<u8, u64> = RegOp::Read { reg: 0 };

fn wan_cfg(graph: gqs_core::NetworkGraph) -> SimConfig {
    SimConfig { topology: Topology::from(graph), horizon: SimTime(100_000), ..SimConfig::default() }
}

fn wan_sim(r: usize, k: usize) -> (Simulation<Stack>, RegionSpec) {
    let (graph, spec) = regions::regions(r, k);
    let n = graph.len();
    (Simulation::new(wan_cfg(graph), retrying_nodes(n)), spec)
}

/// When op `op` completed; panics if it did not.
fn done(sim: &Simulation<Stack>, op: OpId) -> SimTime {
    sim.history()
        .ops()
        .iter()
        .find(|r| r.id == op)
        .and_then(|r| r.completed_at())
        .expect("completed")
}

#[test]
fn region_outage_blocks_cross_region_traffic_until_heal() {
    let (mut sim, spec) = wan_sim(3, 3);
    let graph = regions::regions(3, 3).0;
    // Region 1 dark during [500, 3000). Its 3 processes are no majority
    // of 9, so an op invoked there needs the other regions.
    sim.apply_failures(&scenarios::region_outage(spec, &graph, 1, SimTime(500), SimTime(3000)));
    let in_r1 = spec.gateway(1);
    // Before the outage: the op completes promptly.
    let before = sim.invoke_at(SimTime(10), in_r1, write(1));
    // During: the op stalls until the heal, then a retransmission gets
    // through.
    let during = sim.invoke_at(SimTime(1000), in_r1, READ);
    // After: back to normal.
    let after = sim.invoke_at(SimTime(5000), in_r1, write(2));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    assert!(done(&sim, before) < SimTime(500), "pre-outage op completes before the cut");
    assert!(done(&sim, during) >= SimTime(3000), "mid-outage op cannot complete before the heal");
    assert!(done(&sim, after) < SimTime(6000), "post-heal traffic flows normally again");
    assert!(sim.stats().retransmitted > 0, "the mid-outage op heals via retransmission");
}

#[test]
fn intra_region_traffic_survives_the_outage() {
    let (graph, spec) = regions::regions(3, 3);
    let n = graph.len();
    // A register replicated inside region 1: its quorums are the island's
    // majorities, so the outage cuts none of its traffic.
    let island: gqs_core::ProcessSet = spec.members(1).collect();
    let majorities =
        QuorumFamily::explicit(island.iter().map(|p| island.without(p))).expect("valid family");
    let nodes = retrying_nodes_over(n, majorities.clone(), majorities);
    let mut sim = Simulation::new(wan_cfg(graph.clone()), nodes);
    sim.apply_failures(&scenarios::region_outage(spec, &graph, 1, SimTime(500), SimTime(3000)));
    sim.invoke_at(SimTime(1000), spec.gateway(1), write(1));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let done = sim.history().ops()[0].completed_at().unwrap();
    assert!(done < SimTime(1200), "intra-region traffic is unaffected, got {done:?}");
}

#[test]
fn rolling_restart_leaves_everyone_alive_and_responsive() {
    let (mut sim, _spec) = wan_sim(2, 3);
    let schedule = scenarios::rolling_restart(6, SimTime(100), 200, 50);
    let end = schedule.recovers().iter().map(|&(_, at)| at).max().expect("six restarts");
    sim.apply_failures(&schedule);
    // An op invoked after the whole roll completes normally.
    sim.invoke_at(end + 100, ProcessId(0), write(1));
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
        g.add_channel(Channel::new(ProcessId(0), ProcessId(i)));
        g.add_channel(Channel::new(ProcessId(i), ProcessId(0)));
    }
    let mut sim = Simulation::new(wan_cfg(g), retrying_nodes(4));
    sim.apply_failures(&scenarios::hub_crash(ProcessId(0), SimTime(200), Some(SimTime(2000))));
    // A spoke alone is no majority of 4, and while the hub is down it
    // reaches no one: its op stalls, then heals.
    sim.invoke_at(SimTime(500), ProcessId(1), write(1));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let done = sim.history().ops()[0].completed_at().unwrap();
    assert!(done >= SimTime(2000), "no spoke path exists while the hub is down, got {done:?}");
    assert!(sim.stats().retransmitted > 0, "the op heals via retransmission");
}

#[test]
fn equal_scripts_produce_identical_traces() {
    let build = || {
        let (mut sim, spec) = wan_sim(3, 2);
        let graph = regions::regions(3, 2).0;
        let mut schedule = FailureSchedule::none();
        schedule
            .merge(scenarios::staggered_region_outages(spec, &graph, SimTime(300), 400, 600))
            .merge(scenarios::flapping_link(
                &spec.cut(&graph, 0),
                SimTime(2500),
                100,
                100,
                SimTime(3000),
            ));
        sim.apply_failures(&schedule);
        sim.invoke_at(SimTime(50), ProcessId(0), write(1));
        sim.invoke_at(SimTime(700), ProcessId(2), READ);
        sim.run();
        (sim.stats(), sim.now())
    };
    assert_eq!(build(), build(), "same schedule + same seed = same trace");
}

/// Over lossy channels into one replica that flap while it crashes and
/// recovers, every operation invoked once completes, and the retry timers
/// drain once nothing is pending.
#[test]
fn retrying_registers_complete_every_op_over_flapping_lossy_channels() {
    let mut retried = 0;
    for case in 0..24 {
        let mut rng = SplitMix64::new(60_000 + case);
        let seed = rng.range(0, u64::MAX - 1);
        let loss = 0.05 + rng.f64() * 0.35;
        let cfg = SimConfig { seed, loss, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, retrying_nodes(3));
        let mut sched = FailureSchedule::none();
        for s in 0..2 {
            let ch = Channel::new(ProcessId(s), ProcessId(2));
            let mut t = 50 + rng.range(0, 100);
            for _ in 0..3 {
                let down = 50 + rng.range(0, 200);
                sched.down_window(&[ch], SimTime(t), SimTime(t + down));
                t += down + 50 + rng.range(0, 200);
            }
        }
        let crash_at = 100 + rng.range(0, 400);
        sched.crash_window(
            ProcessId(2),
            SimTime(crash_at),
            SimTime(crash_at + 100 + rng.range(0, 300)),
        );
        sim.apply_failures(&sched);
        // Invoked at the two replicas that stay up; 2 is only a replica.
        let per_process = 5 + rng.range(0, 5);
        for k in 0..per_process {
            for p in 0..2u64 {
                let op = if (k + p) % 2 == 0 { write(100 * p + k) } else { READ };
                sim.invoke_at(SimTime(10 + k * 60 + p), ProcessId(p as usize), op);
            }
        }
        assert_eq!(sim.run(), StopReason::Quiescent, "case {case}: retransmission must drain");
        assert!(sim.history().all_complete(), "case {case}: an op stalled");
        retried += u64::from(sim.stats().retransmitted > 0);
    }
    assert!(retried > 12, "the loss must force retries in most cases, got {retried}");
}

/// The regression the self-healing register stack exists for: a write
/// invoked *inside* a region outage, at a process in the dark region.
/// The plain ABD register broadcasts its phase-1 message exactly once —
/// the cut eats it, and the op never completes even after the heal. The
/// retrying register stack retransmits and completes within a bounded
/// interval after the heal, with zero client-side re-invocations.
#[test]
fn abd_write_during_region_outage_needs_the_retrying_stack() {
    let (graph, spec) = regions::regions(3, 3);
    let n = graph.len();
    let qs = majority_system(n).expect("majority system exists");
    let cfg = SimConfig {
        topology: Topology::from(graph.clone()),
        horizon: SimTime(100_000),
        ..SimConfig::default()
    };
    let outage = scenarios::region_outage(spec, &graph, 1, SimTime(500), SimTime(3000));
    // The invoker sits inside the dark region: its 3-process island
    // cannot form a majority quorum of 5, so nothing completes before
    // the heal.
    let invoker = spec.gateway(1);

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
    use gqs_faults::wan_graph;

    for n in 1..=24usize {
        for r in 1..=n {
            let spec = RegionSpec::even(n, r);
            let graph = wan_graph(spec);
            let implicit = Topology::Regions(spec);
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
