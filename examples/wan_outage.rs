//! A 3-region WAN loses a region, then heals — once under the plain ABD
//! register, once under the retrying one.
//!
//! Nine processes in three 3-process regions (cliques bridged
//! gateway-to-gateway in a ring, `gqs::faults::regions`) run a flooded
//! ABD majority register. `scenarios::region_outage` cuts region 1's
//! entire inter-region boundary during `[2000, 6000)` and heals it. One
//! write and one read are invoked exactly once at every process before,
//! during and after the outage, and each table shows per phase and region
//! the share of operations that complete and their mean latency.
//!
//! 1. **Plain stack** (`abd_register_nodes`): each quorum phase is
//!    broadcast once. During the outage region 1 (3 processes) cannot
//!    reach a majority of 5, the cut drops its broadcasts, and its
//!    mid-outage operations are lost for good — the heal does not revive
//!    them. Regions 0 + 2 (6 processes) keep serving throughout.
//! 2. **Retrying stack** (`reliable_abd_register_nodes`) over channels
//!    that drop 5 % of all messages: the quorum engine rebroadcasts every
//!    unanswered request every 150 ticks, at a fixed interval, and
//!    replicas suppress duplicates. Region 1's mid-outage operations wait
//!    out the cut and complete after the heal, and every operation of the
//!    run completes with no client retry. An attached [`ChromeSink`]
//!    records the run: `cut_down`/`cut_heal` instants bracket the outage,
//!    `drop_disconnected` instants pile up on region 1's tracks, each
//!    rebroadcast shows as a `retransmit` instant after a `timer_fire`,
//!    and the op spans of the parked operations stretch across the outage
//!    with their `qaf_get`/`qaf_set` phases nested inside.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example wan_outage
//! ```
//!
//! then load the written `trace_outage.json` into `chrome://tracing` or
//! <https://ui.perfetto.dev> (simulator ticks display as microseconds).

use gqs::core::{majority_system, NetworkGraph, ProcessId};
use gqs::faults::{regions, scenarios, RegionLayout};
use gqs::registers::{abd_register_nodes, reliable_abd_register_nodes, AbdRegister, RegOp};
use gqs::simnet::{
    ChromeSink, Flood, SharedSink, SimConfig, SimTime, Simulation, StopReason, Topology, TraceSink,
};
use gqs::workloads::Table;

const OUTAGE: (SimTime, SimTime) = (SimTime(2_000), SimTime(6_000));
const PHASES: [(&str, u64); 3] = [("before", 500), ("during", 3_000), ("after", 7_000)];
/// Rebroadcast interval of the retrying quorum engine, in ticks.
const RETRY: u64 = 150;
const LOSS: f64 = 0.05;

/// Per phase and region: completed ops, invoked ops, summed latency of
/// the completed ones.
type Cells = [[(usize, usize, u64); 3]; 3];

/// Runs the outage over `nodes` and tallies every operation.
fn run(
    graph: &NetworkGraph,
    layout: &RegionLayout,
    nodes: Vec<AbdRegister<u8, u64>>,
    loss: f64,
    sink: Option<Box<dyn TraceSink>>,
) -> (Simulation<Flood<AbdRegister<u8, u64>>>, StopReason, Cells) {
    let cfg = SimConfig {
        topology: Topology::from(graph.clone()),
        horizon: SimTime(1_000_000),
        loss,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, nodes.into_iter().map(Flood::new).collect());
    sim.apply_failures(&scenarios::region_outage(layout, graph, 1, OUTAGE.0, OUTAGE.1));
    if let Some(sink) = sink {
        sim.set_trace(sink);
    }
    let mut ops = Vec::new(); // ((phase, region), op id)
    for (phase, &(_, at)) in PHASES.iter().enumerate() {
        for p in 0..graph.len() {
            let (cell, t) = ((phase, layout.region_of(ProcessId(p))), at + p as u64 * 20);
            let write = RegOp::Write { reg: 0, value: p as u64 };
            ops.push((cell, sim.invoke_at(SimTime(t), ProcessId(p), write)));
            ops.push((cell, sim.invoke_at(SimTime(t + 10), ProcessId(p), RegOp::Read { reg: 0 })));
        }
    }
    let reason = sim.run_until_ops_complete();
    let mut cells = [[(0, 0, 0); 3]; 3];
    for &((phase, region), id) in &ops {
        let cell = &mut cells[phase][region];
        cell.1 += 1;
        if let Some(lat) = sim.history().ops().iter().find(|r| r.id == id).and_then(|r| r.latency())
        {
            cell.0 += 1;
            cell.2 += lat;
        }
    }
    (sim, reason, cells)
}

fn table(cells: &Cells) -> Table {
    let mut t = Table::new(["phase", "region 0", "region 1 (dark)", "region 2"]);
    for ((phase, _), row) in PHASES.iter().zip(cells) {
        let mut cols = vec![phase.to_string()];
        for &(done, invoked, lat) in row {
            let mean = match done {
                0 => "-".to_string(),
                _ => format!("{:.0} ticks", lat as f64 / done as f64),
            };
            cols.push(format!("{:3.0}% ({mean})", 100.0 * done as f64 / invoked as f64));
        }
        t.row(cols);
    }
    t
}

fn main() {
    let (graph, layout) = regions::regions(3, 3);
    let n = graph.len();
    let qs = majority_system(n).expect("majority quorums");
    println!("== 3-region WAN (n = {n}), region 1 dark during [{}, {}) ==\n", OUTAGE.0, OUTAGE.1);

    println!("-- plain ABD: each quorum phase is broadcast once --\n");
    let plain = abd_register_nodes::<u8, u64>(n, qs.reads().clone(), qs.writes().clone(), 0);
    let (sim, _, cells) = run(&graph, &layout, plain, 0.0, None);
    println!("{}", table(&cells));
    println!(
        "Region 1 is a healthy island during the outage, but it cannot reach a \n\
         majority across the cut: {} sends hit the dark boundary, and its \n\
         mid-outage operations stay open after the heal. Regions 0 + 2 hold \n\
         6 >= 5 processes and keep completing operations throughout.\n",
        sim.stats().dropped_disconnected
    );
    assert_eq!(cells[1][1].0, 0, "no dark-region op completes mid-outage without retries");

    println!("-- retrying ABD at {:.0}% message loss, traced --\n", LOSS * 100.0);
    let retrying = reliable_abd_register_nodes::<u8, u64>(
        n,
        qs.reads().clone(),
        qs.writes().clone(),
        0,
        RETRY,
    );
    let sink = SharedSink::new(ChromeSink::new());
    let (sim, reason, cells) = run(&graph, &layout, retrying, LOSS, Some(Box::new(sink.clone())));
    println!("{}", table(&cells));
    let s = sim.stats();
    println!(
        "Stop reason: {reason:?}. Every operation completed; region 1's mid-outage \n\
         ops carry the wait for the heal in their latency. Rebroadcasting every \n\
         {RETRY} ticks ({} retransmissions) covered {} messages dropped by the \n\
         {:.0}% loss and {} sends into the dark cut. No client retried anything.",
        s.retransmitted,
        s.dropped_lossy,
        LOSS * 100.0,
        s.dropped_disconnected
    );
    assert_eq!(reason, StopReason::OpsComplete, "the retrying stack finishes every op");

    let trace = sink.with(std::mem::take).into_string();
    let events = trace.matches("\"ph\":").count();
    std::fs::write("trace_outage.json", &trace).expect("write trace_outage.json");
    println!(
        "\nWrote trace_outage.json ({events} trace events): load it in \n\
         chrome://tracing or https://ui.perfetto.dev and look for region 1's op \n\
         spans stretching across [2000, 6000), the retransmit instants beneath \n\
         them every {RETRY} ticks, and the cut_heal instants that release them."
    );
}
