//! Flooded gossip across 100 000 (or a million) simulated processes.
//!
//! The scale core (PR 7) keeps per-process state flat — a parity-encoded
//! liveness epoch per process, O(1) protocol state, and an *implicit*
//! topology whose adjacency is arithmetic instead of a materialized edge
//! set — and schedules events on a 64-ary timing wheel with no per-event
//! allocation. That makes runs far past `gqs_core::MAX_PROCESSES` (the
//! 1024-process decision-procedure bound) cheap: a million-process ring
//! floods in about a tenth of a second within ~18 bytes of peak RSS per
//! process — start-up is a cursor rather than a million queued events,
//! and the wheel's memory follows the few events in flight.
//!
//! ```sh
//! cargo run --release --example gossip_100k              # ring of 100k
//! cargo run --release --example gossip_100k -- 1000000   # ring of 1M
//! cargo run --release --example gossip_100k -- 250000 grid
//! ```

use std::time::Instant;

use gqs::core::ProcessId;
use gqs::simnet::{Gossip, SimConfig, SimTime, Simulation, Topology, MAX_SIM_PROCESSES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(100_000);
    assert!((2..=MAX_SIM_PROCESSES).contains(&n), "n must be in 2..={MAX_SIM_PROCESSES}");
    let topology = match args.get(1).map(String::as_str) {
        None | Some("ring") => Topology::Ring { n },
        Some("grid") => {
            let cols = (n as f64).sqrt().ceil() as usize;
            Topology::Grid { n, cols: cols.max(1) }
        }
        Some(other) => panic!("unknown topology {other:?} (expected ring or grid)"),
    };
    println!("flooding a {topology:?} from process 0 ...");

    let cfg =
        SimConfig { topology, horizon: SimTime::MAX, max_events: u64::MAX, ..SimConfig::default() };
    let t0 = Instant::now();
    let mut sim = Simulation::new(cfg, vec![Gossip::default(); n]);
    sim.invoke_at(SimTime(1), ProcessId(0), ());
    sim.run();
    let wall = t0.elapsed();

    let reached = (0..n).filter(|&p| sim.node(ProcessId(p)).heard_at().is_some()).count();
    let last = (0..n).filter_map(|p| sim.node(ProcessId(p)).heard_at()).max().expect("n >= 2");
    let stats = sim.stats();
    println!(
        "reached {reached}/{n} processes by simulated time {} (last heard at {})",
        sim.now().0,
        last.0
    );
    println!(
        "{} events, {} sends in {:.3}s wall — {:.0} events/sec",
        stats.events,
        stats.sent,
        wall.as_secs_f64(),
        stats.events as f64 / wall.as_secs_f64().max(1e-9)
    );
    assert_eq!(reached, n, "the flood must reach every process");
}
