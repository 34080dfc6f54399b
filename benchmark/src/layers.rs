//! The traced run: per-layer metrics, measured from the outside.
//!
//! Every trial is re-staged from public pieces with a span around each
//! call into a layer ([`crate::staged`]); the same trials then run through
//! the sweep module's own `*_trial` functions, and each staged row must
//! equal the public row bit for bit or the run fails. Counts come from
//! `NetStats` and the protocol nodes' public counters; kernel costs come
//! from timing one public function alone on inputs the workload itself
//! produced (the recorded queue schedule, the recorded delay draws, the
//! recorded metric rows). A layer's share is count × kernel cost over the
//! span that contains it.

use std::collections::BTreeMap;
use std::time::Instant;

use gqs_core::finder::gqs_exists;
use gqs_core::reference::gqs_exists_naive;
use gqs_core::ProcessId;
use gqs_simnet::{
    ChannelClass, CountingSink, Gossip, NetModel, SharedSink, SimConfig, SimTime, Simulation,
    SplitMix64, Topology,
};
use gqs_workloads::generators::{random_scenarios, trial_rng};
use gqs_workloads::sweep::{
    self, report_json, BranchMode, BranchSpec, MetricAgg, PatternFamily, ScenarioCell,
    ScenarioGrid, SweepOptions, TopologyFamily,
};

use crate::e2e::peak_rss_kb;
use crate::json::Json;
use crate::sched::{replay, SchedSink, Segment};
use crate::spans::{AllocCounters, Probe, Recorder, SpanStat};
use crate::spec::PER_LAYER;
use crate::staged::{abd_net, consensus_net, Counts};
use crate::stats::median;
use crate::workloads::{
    metric_names, plan, public_pass, public_rows, staged_rows, Part, PartKind, Plan, Size, Workload,
};

/// What the traced run of one workload produced.
pub struct Traced {
    /// Every [`PER_LAYER`] metric, in table order; 0 where this workload
    /// does not exercise the layer.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Trials staged under the recorder.
    pub attempted: u64,
    /// Trials that failed, or whose staged row differed from the public
    /// function's row.
    pub failed: u64,
    /// No failed trial, every staged row equal, every wheel replay in
    /// recorded order.
    pub correct: bool,
    /// The trace file (`out/trace_<workload>.json`).
    pub trace: Json,
}

/// The per-layer values measured so far, keyed by [`PER_LAYER`] name.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn listed(name: &str) -> Option<&'static str> {
        PER_LAYER.iter().find(|l| l.name == name).map(|l| l.name)
    }

    /// Records `value` under `name`, which must be in the table: a typo
    /// would otherwise read 0 forever.
    fn set(&mut self, name: &str, value: f64) {
        let name = Self::listed(name).unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One trial in this many is staged under the recorder.
const TRACE_EVERY: usize = 4;
/// Trial-id bit of the schedule-recording loop, whose spans (a sink is
/// attached) stay out of every span-time metric.
const RECORDING: u64 = 1 << 63;

fn trial_id(part: usize, c: usize, t: usize) -> u64 {
    (part as u64) << 40 | (c as u64) << 24 | t as u64
}

fn in_part(part: usize) -> impl Fn(u64) -> bool {
    move |id| id & RECORDING == 0 && (id >> 40) as usize == part
}

/// Median wall time of `f` over at least five runs and 30 ms, in ns.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut runs = Vec::new();
    let t0 = Instant::now();
    while runs.len() < 5 || (t0.elapsed().as_millis() < 30 && runs.len() < 10_000) {
        let t = Instant::now();
        f();
        runs.push(t.elapsed().as_nanos() as f64);
    }
    median(&runs)
}

fn total<'a>(
    summary: &BTreeMap<&'static str, SpanStat>,
    names: impl IntoIterator<Item = &'a str>,
) -> SpanStat {
    let mut out = SpanStat::default();
    for st in names.into_iter().filter_map(|n| summary.get(n)) {
        out.count += st.count;
        out.total_ns += st.total_ns;
        out.self_ns += st.self_ns;
        out.allocs += st.allocs;
        out.alloc_bytes += st.alloc_bytes;
    }
    out
}

/// The spans a simulated trial spends before its run loop starts.
const SETUP_SPANS: [&str; 9] = [
    "topology.build",
    "patterns.build",
    "faults.script",
    "nodes.build",
    "sim.new",
    "sim.new.gossip",
    "sim.new.abd",
    "sim.apply_failures",
    "sim.invoke",
];
const RUN_SPANS: [&str; 3] = ["sim.run", "sim.run.gossip", "sim.run.abd"];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The delay model the trials of `part`'s cell `c` draw from.
fn net_model(part: &Part, c: usize) -> NetModel {
    let cell = &part.grid.cells[c];
    match part.kind {
        PartKind::Latency | PartKind::Availability => abd_net(cell),
        PartKind::Consensus | PartKind::ConsensusBranched(_) => consensus_net(cell),
        _ => NetModel::from(SimConfig::default().delay),
    }
}

/// The `netmodel.delay_ns.*` suffix pricing `net`'s draws.
fn net_kind(net: &NetModel) -> &'static str {
    match (net.intra.dist, net.synchrony) {
        (gqs_simnet::LatencyDist::Lognormal { .. }, _) => "lognormal",
        (_, Some(_)) => "psync",
        _ => "uniform",
    }
}

/// Measures every per-layer metric of `workload`. `alloc` reads the
/// binary's allocation counters.
pub fn trace(workload: Workload, seed: u64, size: Size, alloc: AllocCounters) -> Traced {
    let mut m = Metrics::default();
    let plan = plan(workload, seed, size);
    if workload == Workload::Scale {
        // First, while the process is still cold.
        million_gossip_kernels(&plan, &mut m);
    }

    // Loop A: staged under the recorder. Loop B: the same trials through
    // the public functions, rows compared bit for bit.
    let mut rec = Recorder::new(alloc);
    let mut counts = vec![Counts::default(); plan.parts.len()];
    let mut rows_by_part: Vec<Vec<Vec<f64>>> = vec![Vec::new(); plan.parts.len()];
    let (mut staged_ns, mut public_ns, mut mismatched) = (0u64, 0u64, 0u64);
    for (pi, part) in plan.parts.iter().enumerate() {
        let grid = &part.grid;
        let traced = grid.trials.div_ceil(TRACE_EVERY);
        let trials = || (0..grid.cells.len()).flat_map(move |c| (0..traced).map(move |t| (c, t)));
        let mut aggs = vec![MetricAgg::new(); metric_names(part).len()];
        let t0 = Instant::now();
        for (c, t) in trials() {
            rec.set_trial(trial_id(pi, c, t));
            let mut rng = trial_rng(grid.seed, c * grid.trials + t);
            let (rows, cnt) = staged_rows(part, c, t, &mut rng, &mut rec);
            rec.span("agg.observe", |_| observe(&mut aggs, &rows));
            counts[pi].add(&cnt);
            rows_by_part[pi].extend(rows);
        }
        staged_ns += t0.elapsed().as_nanos() as u64;
        if part.label == "ring_1m" {
            // Both million-process simulations have now run in this process.
            m.set(
                "scale.bytes_per_process.n1m",
                peak_rss_kb().unwrap_or(0) as f64 * 1024.0 / grid.cells[0].n as f64,
            );
        }
        let mut aggs = vec![MetricAgg::new(); metric_names(part).len()];
        let mut staged = rows_by_part[pi].iter();
        let t0 = Instant::now();
        for (c, t) in trials() {
            let mut rng = trial_rng(grid.seed, c * grid.trials + t);
            let rows = public_rows(part, c, t, &mut rng);
            observe(&mut aggs, &rows);
            for row in &rows {
                let same = staged.next().is_some_and(|s| {
                    s.iter().map(|v| v.to_bits()).eq(row.iter().map(|v| v.to_bits()))
                });
                mismatched += u64::from(!same);
            }
        }
        public_ns += t0.elapsed().as_nanos() as u64;
    }
    m.set("trace.harness_overhead_share", (staged_ns as f64 - public_ns as f64) / public_ns as f64);

    let all = counts.iter().fold(Counts::default(), |mut a, c| {
        a.add(c);
        a
    });
    let spans = rec.summary_of(|id| id & RECORDING == 0);
    let run = total(&spans, RUN_SPANS);
    let mut replays_in_order = true;
    if workload.simulated() {
        let events = all.events as f64;
        m.set(
            "sim.setup_share",
            ratio(total(&spans, SETUP_SPANS).total_ns as f64, spans["trial"].total_ns as f64),
        );
        m.set("sim.run_ns_per_event", ratio(run.total_ns as f64, events));
        m.set("alloc.per_event", ratio(run.allocs as f64, events));
        m.set("alloc.bytes_per_event", ratio(run.alloc_bytes as f64, events));
        replays_in_order =
            queue_and_delay_shares(&plan, &mut rec, ratio(run.total_ns as f64, events), &mut m);
    }
    let by_label =
        |label: &str| plan.parts.iter().position(|p| p.label == label).expect("part exists");
    match workload {
        Workload::Decide => decide_kernels(&plan, seed, &rec, &rows_by_part, &mut m),
        Workload::GqsRegister => {
            let ops = all.ops_invoked as f64;
            m.set("sim.new_us", spans["sim.new"].mean_us());
            m.set("flood.relay_factor", ratio(all.delivered as f64, all.relayed as f64));
            m.set("generalized.events_per_op", ratio(all.events as f64, ops));
            m.set("generalized.timer_share", ratio(all.timers_fired as f64, all.events as f64));
            m.set("generalized.updates_per_op", ratio(all.updates_applied as f64, ops));
            m.set(
                "checker.depgraph_us_per_op",
                ratio(spans["checker.depgraph"].total_ns as f64 / 1e3, ops),
            );
            let wg = rec.summary_of(|id| id & RECORDING != 0);
            m.set("checker.wg_us_per_history", wg.get("checker.wg").map_or(0.0, SpanStat::mean_us));
        }
        Workload::AbdFaults => {
            let (lat, av) = (counts[by_label("latency")], counts[by_label("availability")]);
            m.set("sim.new_us", spans["sim.new"].mean_us());
            m.set("faults.script_us", spans["faults.script"].mean_us());
            m.set("flood.relay_factor", ratio(all.delivered as f64, all.relayed as f64));
            m.set("classical.events_per_op", ratio(lat.events as f64, lat.ops_invoked as f64));
            m.set(
                "reliable.retransmits_per_op",
                ratio(av.retransmitted as f64, av.ops_invoked as f64),
            );
            m.set("reliable.premium", reliable_premium(&plan));
        }
        Workload::Consensus => {
            m.set("sim.new_us", spans["sim.new"].mean_us());
            m.set("faults.script_us", spans["faults.script"].mean_us());
            m.set("flood.relay_factor", ratio(all.delivered as f64, all.relayed as f64));
            m.set(
                "consensus.views_per_decide",
                ratio(all.decide_views as f64, all.decided_runs as f64),
            );
            m.set("consensus.events_per_decide", ratio(all.events as f64, all.decided_runs as f64));
            m.set("consensus.timer_share", ratio(all.timers_fired as f64, all.events as f64));
            m.set("checkpoint.clone_us", spans["checkpoint.clone"].mean_us());
            m.set("checkpoint.restore_us", spans["checkpoint.restore"].mean_us());
            m.set("fork.straight_over_fork", straight_over_fork(&plan.parts[by_label("forked")]));
        }
        Workload::Scale => {
            for (label, suffix) in [("ring_100k", "n100k"), ("ring_1m", "n1m")] {
                let pi = by_label(label);
                let part = rec.summary_of(in_part(pi));
                // Gossip events are exact from the row: one start per
                // process, the invocation, and one delivery per send.
                let n = plan.parts[pi].grid.cells[0].n as f64;
                let gossip: f64 = rows_by_part[pi].iter().map(|row| n + 1.0 + row[2] * n).sum();
                let abd = counts[pi].events as f64 - gossip;
                let per_s =
                    |events: f64, span: &str| ratio(events, part[span].total_ns as f64 / 1e9);
                m.set(&format!("scale.gossip_ev_per_s.{suffix}"), per_s(gossip, "sim.run.gossip"));
                m.set(&format!("scale.abd_ev_per_s.{suffix}"), per_s(abd, "sim.run.abd"));
                if suffix == "n1m" {
                    let new = total(&part, ["sim.new.gossip", "sim.new.abd"]);
                    m.set(
                        "sim.new_s.n1m",
                        ratio(new.total_ns as f64 / 1e9, part["trial"].count as f64),
                    );
                }
            }
        }
    }

    let failed = all.failed + mismatched;
    let metrics = PER_LAYER.iter().map(|l| (l.name, l.unit, m.get(l.name))).collect();
    Traced {
        metrics,
        attempted: all.trials,
        failed,
        correct: failed == 0 && replays_in_order,
        trace: rec.to_json(workload.name()),
    }
}

fn observe(aggs: &mut [MetricAgg], rows: &[Vec<f64>]) {
    for row in rows {
        for (agg, v) in aggs.iter_mut().zip(row) {
            agg.observe(*v);
        }
    }
}

/// Records the queue schedule and delay draws of one trial per cell,
/// replays each schedule into a bare `TimingWheel`, times `NetModel::delay`
/// alone on the recorded draws, and turns both into shares of the run
/// loop. Returns whether every replay popped in recorded order.
fn queue_and_delay_shares(
    plan: &Plan,
    rec: &mut Recorder,
    run_ns_per_event: f64,
    m: &mut Metrics,
) -> bool {
    let sink = SharedSink::new(SchedSink::new());
    rec.record_schedule(sink.clone());
    let mut events = 0u64;
    let mut segments: Vec<(Segment, NetModel)> = Vec::new();
    for (pi, part) in plan.parts.iter().enumerate() {
        // A forked trial rewinds its queue per branch; the plain trials of
        // the same cells cover the consensus stack.
        if matches!(part.kind, PartKind::ConsensusBranched(_)) {
            continue;
        }
        for c in 0..part.grid.cells.len() {
            rec.set_trial(RECORDING | trial_id(pi, c, 0));
            let mut rng = trial_rng(part.grid.seed, c * part.grid.trials);
            events += staged_rows(part, c, 0, &mut rng, rec).1.events;
            let net = net_model(part, c);
            segments.extend(sink.with(SchedSink::take_segments).into_iter().map(|s| (s, net)));
        }
    }
    let (mut wheel_ops, mut wheel_ns, mut in_order) = (0u64, 0.0, true);
    let mut draws: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (seg, net) in &segments {
        let mut ops = 0;
        wheel_ns += time_ns(|| {
            let r = replay(seg);
            ops = r.ops;
            in_order &= r.in_order;
        });
        wheel_ops += ops;
        let ns = time_ns(|| {
            let mut rng = SplitMix64::new(1);
            let mut acc = 0u64;
            for &(from, to, now) in &seg.sends {
                let (from, to) = (ProcessId(from as usize), ProcessId(to as usize));
                acc = acc.wrapping_add(net.delay(
                    from,
                    to,
                    ChannelClass::Intra,
                    SimTime(now),
                    &mut rng,
                ));
            }
            std::hint::black_box(acc);
        });
        let d = draws.entry(net_kind(net)).or_default();
        d.0 += seg.sends.len() as u64;
        d.1 += ns;
    }
    let ns_per_op = ratio(wheel_ns, wheel_ops as f64);
    m.set("wheel.ns_per_op", ns_per_op);
    m.set(
        "wheel.share",
        ratio(ns_per_op * ratio(wheel_ops as f64, events as f64), run_ns_per_event),
    );
    let mut all_ns = 0.0;
    for (kind, (n, ns)) in draws {
        m.set(&format!("netmodel.delay_ns.{kind}"), ratio(ns, n as f64));
        all_ns += ns;
    }
    m.set("netmodel.share", ratio(ratio(all_ns, events as f64), run_ns_per_event));
    m.set("sim.handler_residual_share", 1.0 - m.get("wheel.share") - m.get("netmodel.share"));
    in_order
}

/// The `perf_snapshot` ladder rung at `n`: four seeded random scenarios.
fn ladder(
    seed: u64,
    n: usize,
    patterns: usize,
) -> Vec<(gqs_core::NetworkGraph, gqs_core::FailProneSystem)> {
    random_scenarios(4, n, 0.3, patterns, n / 4, 0.15, seed ^ n as u64)
}

fn decide_kernels(
    plan: &Plan,
    seed: u64,
    rec: &Recorder,
    rows_by_part: &[Vec<Vec<f64>>],
    m: &mut Metrics,
) {
    // Span means per grid size: the workload's own instances.
    for (pi, part) in plan.parts.iter().enumerate() {
        let Some(suffix) = part.label.strip_prefix("random_") else { continue };
        let spans = rec.summary_of(in_part(pi));
        // Not every (function, size) pair is in the table.
        let mut put = |metric: String, us: f64| {
            if Metrics::listed(&metric).is_some() {
                m.set(&metric, us);
            }
        };
        put(format!("core.find_gqs_us.{suffix}"), spans["core.find_gqs"].mean_us());
        put(format!("core.qs_plus_us.{suffix}"), spans["core.qs_plus_exists"].mean_us());
        put(format!("core.sccs_us.{suffix}"), spans["core.sccs"].mean_us());
        let build = total(&spans, ["topology.build", "patterns.build"]);
        put(
            format!("generators.build_us.{suffix}"),
            ratio(build.total_ns as f64 / 1e3, spans["trial"].count as f64),
        );
    }
    // `gqs_exists` alone on the perf_snapshot ladder (no trial calls it:
    // trials need the witness), so the small-n rungs of BENCH.json have a
    // successor.
    for (n, patterns, name) in [
        (5, 4, "core.gqs_exists_us.n5"),
        (16, 10, "core.gqs_exists_us.n16"),
        (32, 16, "core.gqs_exists_us.n32"),
        (256, 16, "core.gqs_exists_us.n256"),
    ] {
        let cases = ladder(seed, n, patterns);
        let fast = time_ns(|| {
            for (g, fp) in &cases {
                std::hint::black_box(gqs_exists(g, fp));
            }
        });
        m.set(name, fast / cases.len() as f64 / 1e3);
        if n == 32 {
            let naive = time_ns(|| {
                for (g, fp) in &cases {
                    std::hint::black_box(gqs_exists_naive(g, fp));
                }
            });
            m.set("core.naive_over_fast.n32", naive / fast);
        }
    }
    // The engine around 9 µs trials: shard claim, partial aggregate,
    // channel, merge — against a bare loop over the same trial calls.
    let n4 = plan.parts.iter().position(|p| p.label == "complete4_rotating").expect("part exists");
    let grid = &plan.parts[n4].grid;
    let one = SweepOptions { threads: Some(1), ..SweepOptions::default() };
    let trials = (grid.cells.len() * grid.trials) as f64;
    let engine = time_ns(|| {
        std::hint::black_box(grid.run(&one));
    });
    let bare = time_ns(|| {
        for (c, cell) in grid.cells.iter().enumerate() {
            for t in 0..grid.trials {
                std::hint::black_box(sweep::scenario_trial(
                    cell,
                    &mut trial_rng(grid.seed, c * grid.trials + t),
                ));
            }
        }
    });
    m.set("sweep.engine_overhead_ns", (engine - bare) / trials);
    let report = grid.run(&one);
    m.set(
        "report.json_us",
        time_ns(|| drop(std::hint::black_box(report_json(grid, &report)))) / 1e3,
    );
    let wall = |threads| {
        let t0 = Instant::now();
        std::hint::black_box(public_pass(plan, threads));
        t0.elapsed().as_secs_f64()
    };
    m.set("sweep.speedup_t2", wall(1) / wall(2));
    // The sketch on the workload's own rows.
    let values: Vec<f64> = rows_by_part[n4].iter().flatten().copied().collect();
    let mut agg = MetricAgg::new();
    m.set(
        "sketch.observe_ns",
        time_ns(|| values.iter().for_each(|&v| agg.observe(v))) / values.len() as f64,
    );
    let mut into = MetricAgg::new();
    const MERGES: usize = 64;
    m.set(
        "sketch.merge_ns",
        time_ns(|| (0..MERGES).for_each(|_| into.merge(&agg))) / MERGES as f64,
    );
}

/// Availability over latency per-trial cost on a loss-free static cell
/// where every operation completes with zero retransmits: what the retry
/// engine costs when nothing needs healing.
fn reliable_premium(plan: &Plan) -> f64 {
    let cell = ScenarioCell {
        family: TopologyFamily::Complete,
        patterns: PatternFamily::Rotating,
        p_chan: 0.0,
        ..plan.parts[0].grid.cells[0]
    };
    let grid = ScenarioGrid { cells: vec![cell], trials: 64, seed: plan.parts[0].grid.seed };
    let one = SweepOptions { threads: Some(1), ..SweepOptions::default() };
    let plain = time_ns(|| drop(std::hint::black_box(grid.run_latency(&one))));
    let reliable = time_ns(|| drop(std::hint::black_box(grid.run_availability(&one))));
    reliable / plain
}

/// Straight-line over fork execution cost of the forked part's first
/// trials: the reports are bit-identical, so the ratio is what the
/// checkpoint buys.
fn straight_over_fork(part: &Part) -> f64 {
    let PartKind::ConsensusBranched(fork) = part.kind else {
        unreachable!("the forked part is branched")
    };
    let grid = ScenarioGrid { trials: part.grid.trials.div_ceil(TRACE_EVERY), ..part.grid.clone() };
    let one = SweepOptions { threads: Some(1), ..SweepOptions::default() };
    let wall = |mode| {
        let spec = BranchSpec { mode, ..fork };
        time_ns(|| drop(std::hint::black_box(grid.run_consensus_branched(&one, &spec))))
    };
    wall(BranchMode::Straight) / wall(BranchMode::Fork)
}

/// Three back-to-back runs of the largest gossip cell, constructed and run
/// the same way: the first in a cold process, the second warm, the third
/// with a `CountingSink` attached.
fn million_gossip_kernels(plan: &Plan, m: &mut Metrics) {
    let part = plan.parts.last().expect("scale has parts");
    let n = part.grid.cells[0].n;
    let gossip = |counting: bool| {
        let cfg = SimConfig {
            seed: part.grid.seed,
            topology: Topology::Ring { n },
            horizon: SimTime::MAX,
            max_events: u64::MAX,
            ..SimConfig::default()
        };
        let t0 = Instant::now();
        let mut sim = Simulation::new(cfg, vec![Gossip::default(); n]);
        if counting {
            sim.set_trace(Box::new(CountingSink::new(n)));
        }
        sim.invoke_at(SimTime(1), ProcessId(0), ());
        sim.run();
        std::hint::black_box(sim.stats().events);
        t0.elapsed().as_secs_f64()
    };
    let cold = gossip(false);
    let warm = gossip(false);
    m.set("scale.cold_over_warm", cold / warm);
    m.set("trace.counting_premium.n1m", gossip(true) / warm);
}
