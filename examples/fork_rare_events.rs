//! Fork replay: branch one consensus run into heal-timing permutations.
//!
//! Twelve processes in three 4-process regions run the Figure 6 push
//! consensus (majority quorums, `C = 50`, `δ = 5`) under partial
//! synchrony. At `t = 100` — after every proposal is in flight but
//! before any view can complete — the boundaries of regions 1 *and* 2 go
//! dark, leaving three 4-process islands: nobody can assemble a majority
//! of 7, so every decision waits for the heals.
//!
//! The run is warmed exactly to the outage instant and snapshotted with
//! [`Simulation::checkpoint`]. Every branch then restores the same
//! checkpoint, applies one heal-timing permutation (when each region's
//! boundary comes back), reseeds the delivery RNG and runs to a
//! decision — so the expensive, *identical* prefix is simulated once,
//! and only the rare-event tails are explored. The table prints each
//! branch's decide latency in units of `C·δ`, the paper's §7 yardstick,
//! both absolute and measured from the first heal (one healed boundary
//! reconnects 8 ≥ 7 processes, so that is when a quorum first exists).
//!
//! ```text
//! cargo run --release --example fork_rare_events
//! ```

use gqs::consensus::majority_consensus_nodes;
use gqs::consensus::ProposalMode;
use gqs::core::ProcessId;
use gqs::faults::regions;
use gqs::simnet::{DelayModel, FailureSchedule, SimConfig, SimTime, Simulation, Topology};
use gqs::workloads::Table;

const C: u64 = 50;
const DELTA: u64 = 5;
const CDELTA: f64 = (C * DELTA) as f64;
const CUT_AT: u64 = 100;

fn main() {
    let (graph, spec) = regions::regions(3, 4);
    let n = graph.len();
    println!(
        "== fork replay: 3-region WAN (n = {n}), regions 1+2 dark from t = {CUT_AT} ==\n\
         one warmup to the outage instant, then one branch per heal permutation\n"
    );

    let nodes = majority_consensus_nodes::<u64>(n, C, ProposalMode::Push);
    let cfg = SimConfig {
        seed: 0xF0CC_A51A,
        delay: DelayModel::PartialSynchrony { pre_min: 1, pre_max: 100, gst: 1_000, delta: DELTA },
        topology: Topology::from(graph.clone()),
        horizon: SimTime(200_000),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, nodes);

    // The warmup's fault schedule: both cuts go down, nothing heals yet —
    // each branch supplies its own heal times after the fork.
    let cuts: [Vec<_>; 2] = [spec.cut(&graph, 1), spec.cut(&graph, 2)];
    let mut outage = FailureSchedule::none();
    for cut in &cuts {
        for &ch in cut {
            outage.disconnect(ch, SimTime(CUT_AT));
        }
    }
    sim.apply_failures(&outage);
    for p in 0..n {
        sim.invoke_at(SimTime(10 + p as u64), ProcessId(p), p as u64 + 1);
    }

    // Warm to the instant the outage begins and snapshot everything:
    // clock, event queue, RNG position, liveness epochs, protocol state.
    sim.run_until(SimTime(CUT_AT));
    let cp = sim.checkpoint();
    assert!(
        (0..n).all(|p| sim.node(ProcessId(p)).inner().decision().is_none()),
        "the fork happens before anyone can decide"
    );

    let heal_times = [2_000u64, 6_000, 14_000];
    let mut t = Table::new(["heal r1", "heal r2", "decided at", "lat / C·δ", "post-heal / C·δ"]);
    let mut spread: Vec<f64> = Vec::new();
    for (b, (&h1, &h2)) in
        heal_times.iter().flat_map(|h1| heal_times.iter().map(move |h2| (h1, h2))).enumerate()
    {
        sim.restore(&cp);
        sim.reseed(0xB00 + b as u64);
        let mut heals = FailureSchedule::none();
        for (cut, at) in cuts.iter().zip([h1, h2]) {
            for &ch in cut {
                heals.heal(ch, SimTime(at));
            }
        }
        sim.apply_failures(&heals);
        sim.run_until_ops_complete();
        let decided_at = (0..n)
            .filter_map(|p| sim.node(ProcessId(p)).inner().decision().map(|&(_, _, at)| at))
            .min()
            .expect("a healed majority decides before the horizon");
        // A lone island of 4 cannot reach 7: the *first* heal is the
        // earliest instant any quorum can exist again.
        let first_heal = h1.min(h2);
        assert!(decided_at.ticks() >= first_heal, "no quorum can form before the first heal");
        let lat = decided_at.ticks() as f64 / CDELTA;
        spread.push(lat);
        t.row([
            format!("{h1}"),
            format!("{h2}"),
            format!("{decided_at:?}"),
            format!("{lat:.2}"),
            format!("{:.2}", (decided_at.ticks() - first_heal) as f64 / CDELTA),
        ]);
    }
    println!("{t}");
    let (lo, hi) = spread
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    println!(
        "decide-latency spread across {} branches: {lo:.2}..{hi:.2} C·δ — the whole\n\
         pre-outage prefix (proposals, early views, the cut itself) was simulated\n\
         once and forked; every branch replays only its own heal-timing tail.",
        spread.len()
    );
}
