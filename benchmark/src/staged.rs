//! Every trial of the benchmark, re-staged from the layers' public pieces.
//!
//! The sweep engine's `*_trial` functions are opaque: they return a metric
//! row and nothing else. The functions here rebuild the same trials step
//! by step — `TopologyFamily::build` → `PatternFamily::build` →
//! `ScheduleFamily::script` → node constructors → `Simulation::new` →
//! `apply_failures` → `invoke_at` → `run_until_ops_complete` → history
//! read — with a [`Probe`] span around each call, and hand back the
//! simulator's exact counters beside the row. A staged row must equal the
//! public function's row for the same `(cell, rng)` bit for bit; the
//! end-to-end digest check and the traced run both enforce it, which is
//! what keeps the private constants copied below from drifting.

use gqs_checker::spec::RegisterSpec;
use gqs_checker::{check_dependency_graph, check_linearizable};
use gqs_consensus::{majority_consensus_nodes, ConsensusNode, ProposalMode};
use gqs_core::finder::{find_gqs, qs_plus_exists};
use gqs_core::{majority_system, FailurePattern, GeneralizedQuorumSystem, NetworkGraph, ProcessId};
use gqs_registers::{
    abd_register_nodes, gqs_register_nodes, reliable_abd_register_nodes, sampled_abd_nodes, RegOp,
    ScaleOp,
};
use gqs_simnet::{
    DelayModel, FailureSchedule, Flood, Gossip, NetModel, NetStats, Protocol, SimConfig, SimTime,
    Simulation, SplitMix64, StopReason, Topology,
};
use gqs_workloads::convert;
use gqs_workloads::sweep::{
    BranchSpec, ScenarioCell, ScheduleFamily, AVAILABILITY_METRICS, CONSENSUS_HORIZON,
    CONSENSUS_METRICS, CONSENSUS_TIMING, LATENCY_HORIZON, LATENCY_METRICS, LATENCY_TIMING,
};

use crate::json::Json;
use crate::spans::Probe;

// Private constants of `gqs_workloads::sweep`, restated; the staged-row
// equality checks fail the run if either side moves.
const LATENCY_OPS: u64 = 6;
const LATENCY_OP_SPACING: u64 = 400;
const AVAILABILITY_RETRY: u64 = 150;
const CONSENSUS_C: u64 = 50;
const CONSENSUS_DELTA: u64 = 5;
const CONSENSUS_GST: u64 = 1_000;
const SCALE_ABD_OPS: u64 = 2;

/// Declares [`Counts`] from one list of fields, so that the struct, its
/// sum and its JSON form cannot drift apart.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Exact simulator counters of one trial (or, summed, of a pass).
        #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counts {
            /// Adds `other` into `self`.
            pub fn add(&mut self, other: &Counts) {
                $(self.$field += other.$field;)*
            }

            /// The counters as a JSON object (all exact in an `f64`: far
            /// below 2⁵³).
            pub fn to_json(&self) -> Json {
                Json::obj([$((stringify!($field), Json::Num(self.$field as f64)),)*])
            }

            /// Reads [`Counts::to_json`] back.
            pub fn from_json(j: &Json) -> Option<Counts> {
                Some(Counts { $($field: j.get(stringify!($field))?.as_f64()? as u64,)* })
            }
        }
    };
}

counters! {
    /// Trials folded in.
    trials,
    /// Trials that failed: an event-cap stall, a checker violation, or a
    /// missed completion requirement.
    failed,
    /// `NetStats.events`.
    events,
    /// `NetStats.sent`.
    sent,
    /// `NetStats.delivered`.
    delivered,
    /// The four `NetStats.dropped_*` counters, summed.
    dropped,
    /// `NetStats.timers_fired`.
    timers_fired,
    /// `NetStats.retransmitted`.
    retransmitted,
    /// Envelopes relayed by the `Flood` layer (first-time deliveries).
    relayed,
    /// `SET_REQ` updates applied by the generalized engine.
    updates_applied,
    /// Operations or proposals invoked.
    ops_invoked,
    /// Operations completed (proposals: decided at the proposer).
    ops_completed,
    /// Summed invoke→complete latency of the completed operations.
    lat_ticks,
    /// Consensus runs that decided.
    decided_runs,
    /// Summed view of each deciding run's first decision.
    decide_views,
}

impl Counts {
    /// Folds in the simulator work of a finished run: its `NetStats` and
    /// the envelopes its `Flood` layer relayed.
    fn add_work(&mut self, s: NetStats, relayed: u64) {
        self.events += s.events;
        self.sent += s.sent;
        self.delivered += s.delivered;
        self.dropped += dropped(s);
        self.timers_fired += s.timers_fired;
        self.retransmitted += s.retransmitted;
        self.relayed += relayed;
    }

    /// Takes `times` copies of a run prefix back out (see the forked
    /// consensus trial, whose branches share one warmup).
    fn sub_work(&mut self, s: NetStats, relayed: u64, times: u64) {
        self.events -= s.events * times;
        self.sent -= s.sent * times;
        self.delivered -= s.delivered * times;
        self.dropped -= dropped(s) * times;
        self.timers_fired -= s.timers_fired * times;
        self.retransmitted -= s.retransmitted * times;
        self.relayed -= relayed * times;
    }

    /// Folds in the operation history of a finished run.
    fn add_history<P: Protocol>(&mut self, sim: &Simulation<P>) {
        for r in sim.history().ops() {
            self.ops_invoked += 1;
            if let Some(l) = r.latency() {
                self.ops_completed += 1;
                self.lat_ticks += l;
            }
        }
    }

    fn note_stop(&mut self, reason: StopReason) {
        if matches!(reason, StopReason::EventCap { .. }) {
            self.failed = 1;
        }
    }
}

fn dropped(s: NetStats) -> u64 {
    s.dropped_disconnected + s.dropped_crashed + s.dropped_sender_crashed + s.dropped_lossy
}

/// Envelopes relayed so far by the `Flood` layer of every node.
fn relayed<P: Protocol>(sim: &Simulation<Flood<P>>) -> u64 {
    (0..sim.len()).map(|p| sim.node(ProcessId(p)).relayed()).sum()
}

/// A trial that drew an empty scenario: all-zero row, nothing simulated.
fn empty_trial(width: usize) -> (Vec<f64>, Counts) {
    (vec![0.0; width], Counts { trials: 1, ..Counts::default() })
}

/// `ScheduleFamily::invokers`, which the sweep module keeps private.
fn invokers(schedule: ScheduleFamily, n: usize, pattern: &FailurePattern) -> Vec<ProcessId> {
    match schedule {
        ScheduleFamily::Static => pattern.correct().iter().collect(),
        _ => (0..n).map(ProcessId).collect(),
    }
}

/// The queue pushes `Simulation::new` + `apply_failures` + `invoke_at`
/// make before the first event runs, in push order.
fn initial_pushes(
    n: usize,
    schedule: &FailureSchedule,
    invokes: impl Iterator<Item = u64>,
) -> Vec<u64> {
    let mut at = vec![0u64; n];
    at.extend(schedule.crashes().iter().map(|&(_, t)| t.ticks()));
    at.extend(schedule.disconnects().iter().map(|&(_, t)| t.ticks()));
    at.extend(schedule.heals().iter().map(|&(_, t)| t.ticks()));
    at.extend(schedule.recovers().iter().map(|&(_, t)| t.ticks()));
    at.extend(invokes);
    at
}

/// Attaches the probe's schedule-recording sink, if it has one, to a
/// simulation whose queue so far holds the pushes `initial` lists.
fn attach_sink<P: Protocol, Pr: Probe>(
    pr: &mut Pr,
    sim: &mut Simulation<P>,
    initial: impl FnOnce() -> Vec<u64>,
) {
    if pr.recording() {
        if let Some(sink) = pr.sink(initial()) {
            sim.set_trace(sink);
        }
    }
}

/// The scenario draw every simulated sweep mode starts with.
struct Scenario {
    graph: NetworkGraph,
    pattern: FailurePattern,
    invokers: Vec<ProcessId>,
    sim_seed: u64,
}

fn draw_scenario<Pr: Probe>(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    pr: &mut Pr,
) -> Option<Scenario> {
    let graph = pr.span("topology.build", |_| cell.family.build(cell.n, cell.density, rng));
    let fp = pr.span("patterns.build", |_| cell.patterns.build(&graph, cell.p_chan, rng));
    let sim_seed = rng.next_u64();
    if fp.is_empty() {
        return None;
    }
    let pattern = fp.pattern(0).clone();
    let invokers = invokers(cell.schedule, cell.n, &pattern);
    if invokers.is_empty() {
        return None;
    }
    Some(Scenario { graph, pattern, invokers, sim_seed })
}

/// `scenario_trial`, staged: the `decide` workload's trial.
pub fn scenario<Pr: Probe>(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    pr: &mut Pr,
) -> (Vec<f64>, Counts) {
    pr.span("trial", |pr| {
        let g = pr.span("topology.build", |_| cell.family.build(cell.n, cell.density, rng));
        let fp = pr.span("patterns.build", |_| cell.patterns.build(&g, cell.p_chan, rng));
        let witness = pr.span("core.find_gqs", |_| find_gqs(&g, &fp));
        let gqs = witness.is_some();
        let qsp = pr.span("core.qs_plus_exists", |_| qs_plus_exists(&g, &fp));
        let w_min = witness
            .as_ref()
            .and_then(|w| w.per_pattern.iter().map(|(_, w)| w.len()).min())
            .unwrap_or(0);
        let sccs = pr.span("core.sccs", |_| {
            if fp.is_empty() {
                0
            } else {
                g.residual(fp.pattern(0)).sccs().len()
            }
        });
        let row = vec![
            gqs as u64 as f64,
            qsp as u64 as f64,
            (gqs && !qsp) as u64 as f64,
            w_min as f64,
            sccs as f64,
        ];
        (row, Counts { trials: 1, ..Counts::default() })
    })
}

/// The delay model of the ABD trials on `cell`.
pub fn abd_net(cell: &ScenarioCell) -> NetModel {
    cell.net.net_model(SimConfig::default().delay, cell.region_spec())
}

/// The delay model of the consensus trials on `cell`: the cell's network
/// family under the partial-synchrony overlay.
pub fn consensus_net(cell: &ScenarioCell) -> NetModel {
    cell.net.net_model(CONSENSUS_DELAY, cell.region_spec())
}

const CONSENSUS_DELAY: DelayModel = DelayModel::PartialSynchrony {
    pre_min: 1,
    pre_max: 100,
    gst: CONSENSUS_GST,
    delta: CONSENSUS_DELTA,
};

/// Which register stack an ABD trial drives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AbdMode {
    /// `latency_trial`: plain flooded ABD.
    Latency,
    /// `availability_trial`: the retransmitting stack.
    Availability,
}

/// `latency_trial` / `availability_trial`, staged: the `abd_faults`
/// workload's trials.
pub fn abd<Pr: Probe>(
    mode: AbdMode,
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    pr: &mut Pr,
) -> (Vec<f64>, Counts) {
    pr.span("trial", |pr| {
        let Some(sc) = draw_scenario(cell, rng, pr) else {
            return empty_trial(LATENCY_METRICS.len());
        };
        let schedule = pr.span("faults.script", |_| {
            cell.schedule
                .script(cell.family, cell.n, &sc.graph, &sc.pattern, &LATENCY_TIMING)
                .to_schedule()
        });
        let nodes: Vec<Flood<_>> = pr.span("nodes.build", |_| {
            let qs = majority_system(cell.n).expect("majority system exists for n >= 1");
            let (reads, writes) = (qs.reads().clone(), qs.writes().clone());
            match mode {
                AbdMode::Latency => abd_register_nodes::<u8, u64>(cell.n, reads, writes, 0),
                AbdMode::Availability => reliable_abd_register_nodes::<u8, u64>(
                    cell.n,
                    reads,
                    writes,
                    0,
                    AVAILABILITY_RETRY,
                ),
            }
            .into_iter()
            .map(Flood::new)
            .collect()
        });
        let cfg = SimConfig {
            seed: sc.sim_seed,
            net: Some(abd_net(cell)),
            topology: Topology::from(sc.graph),
            horizon: SimTime(LATENCY_HORIZON),
            loss: cell.loss,
            ..SimConfig::default()
        };
        let mut sim = pr.span("sim.new", |_| Simulation::new(cfg, nodes));
        pr.span("sim.apply_failures", |_| sim.apply_failures(&schedule));
        let op_at = |i: u64| 10 + i * LATENCY_OP_SPACING;
        pr.span("sim.invoke", |_| {
            for i in 0..LATENCY_OPS {
                let p = sc.invokers[(i as usize) % sc.invokers.len()];
                let op = if i % 2 == 0 {
                    RegOp::Write { reg: 0, value: i }
                } else {
                    RegOp::Read { reg: 0 }
                };
                sim.invoke_at(SimTime(op_at(i)), p, op);
            }
        });
        attach_sink(pr, &mut sim, || {
            initial_pushes(cell.n, &schedule, (0..LATENCY_OPS).map(op_at))
        });
        let reason = pr.span("sim.run", |_| sim.run_until_ops_complete());
        let row = pr.span("history.read", |_| match mode {
            AbdMode::Latency => latency_row(&sim, LATENCY_OPS),
            AbdMode::Availability => availability_row(&sim, &schedule),
        });
        let mut c = Counts { trials: 1, ..Counts::default() };
        c.note_stop(reason);
        c.add_work(sim.stats(), relayed(&sim));
        c.add_history(&sim);
        (row, c)
    })
}

/// `latency_measure`: completed share, mean and worst latency, delivered
/// messages per invoked operation.
fn latency_row<P: Protocol>(sim: &Simulation<P>, ops: u64) -> Vec<f64> {
    let lats: Vec<u64> = sim.history().ops().iter().filter_map(|r| r.latency()).collect();
    let completed = lats.len() as f64 / ops as f64;
    let lat_mean =
        if lats.is_empty() { 0.0 } else { lats.iter().sum::<u64>() as f64 / lats.len() as f64 };
    let lat_max = lats.iter().max().copied().unwrap_or(0) as f64;
    vec![completed, lat_mean, lat_max, sim.stats().delivered as f64 / ops as f64]
}

/// `availability_measure`.
fn availability_row<P: Protocol>(sim: &Simulation<P>, schedule: &FailureSchedule) -> Vec<f64> {
    let invoked = sim.history().ops().len();
    if invoked == 0 {
        return vec![0.0; AVAILABILITY_METRICS.len()];
    }
    let done: Vec<SimTime> = sim.history().ops().iter().filter_map(|r| r.completed_at()).collect();
    let completed = done.len() as f64 / invoked as f64;
    let stalled = (invoked - done.len()) as f64;
    let last_heal = schedule
        .heals()
        .iter()
        .map(|&(_, at)| at)
        .chain(schedule.recovers().iter().map(|&(_, at)| at))
        .max();
    let time_to_heal = match last_heal {
        Some(heal) => done
            .iter()
            .filter(|&&at| at >= heal)
            .max()
            .map(|&at| (at.ticks() - heal.ticks()) as f64)
            .unwrap_or(0.0),
        None => 0.0,
    };
    let retransmits_per_op = sim.stats().retransmitted as f64 / invoked as f64;
    vec![completed, stalled, time_to_heal, retransmits_per_op]
}

type ConsensusSim = Simulation<Flood<ConsensusNode<u64>>>;

/// `consensus_trial` (one row) or `consensus_branch_trial` in fork mode
/// (one row per branch), staged: the `consensus` workload's trials.
pub fn consensus<Pr: Probe>(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    branch: Option<&BranchSpec>,
    pr: &mut Pr,
) -> (Vec<Vec<f64>>, Counts) {
    pr.span("trial", |pr| {
        let rows_wanted = branch.map_or(1, |b| b.branches);
        let Some(sc) = draw_scenario(cell, rng, pr) else {
            let (row, c) = empty_trial(CONSENSUS_METRICS.len());
            return (vec![row; rows_wanted], c);
        };
        let schedule = pr.span("faults.script", |_| {
            cell.schedule
                .script(cell.family, cell.n, &sc.graph, &sc.pattern, &CONSENSUS_TIMING)
                .to_schedule()
        });
        let nodes = pr.span("nodes.build", |_| {
            majority_consensus_nodes::<u64>(cell.n, CONSENSUS_C, ProposalMode::Push)
        });
        let cfg = SimConfig {
            seed: sc.sim_seed,
            delay: CONSENSUS_DELAY,
            net: Some(consensus_net(cell)),
            topology: Topology::from(sc.graph),
            horizon: SimTime(CONSENSUS_HORIZON),
            loss: cell.loss,
            ..SimConfig::default()
        };
        let mut sim = pr.span("sim.new", |_| Simulation::new(cfg, nodes));
        pr.span("sim.apply_failures", |_| sim.apply_failures(&schedule));
        pr.span("sim.invoke", |_| {
            for (i, &p) in sc.invokers.iter().enumerate() {
                sim.invoke_at(SimTime(10 + i as u64), p, p.index() as u64 + 1);
            }
        });
        let mut c = Counts { trials: 1, ..Counts::default() };
        let finish = |sim: &ConsensusSim, reason: StopReason, c: &mut Counts, pr: &mut Pr| {
            let row = pr.span("history.read", |_| consensus_row(sim, cell, sc.invokers.len(), c));
            c.note_stop(reason);
            c.add_work(sim.stats(), relayed(sim));
            c.add_history(sim);
            row
        };
        let rows = match branch {
            None => {
                let invokes = (0..sc.invokers.len()).map(|i| 10 + i as u64);
                attach_sink(pr, &mut sim, || initial_pushes(cell.n, &schedule, invokes));
                let reason = pr.span("sim.run", |_| sim.run_until_ops_complete());
                vec![finish(&sim, reason, &mut c, pr)]
            }
            Some(spec) => {
                pr.span("sim.run", |_| sim.run_until(SimTime(spec.at)));
                let warm = (sim.stats(), relayed(&sim));
                let cp = pr.span("checkpoint.clone", |_| sim.checkpoint());
                let mut rows = Vec::with_capacity(spec.branches);
                for b in 0..spec.branches {
                    pr.span("checkpoint.restore", |_| sim.restore(&cp));
                    sim.reseed(BranchSpec::branch_seed(sc.sim_seed, b));
                    let reason = pr.span("sim.run", |_| sim.run_until_ops_complete());
                    rows.push(finish(&sim, reason, &mut c, pr));
                }
                // Every branch's counters include the shared warmup, which
                // the simulator ran once.
                c.sub_work(warm.0, warm.1, spec.branches as u64 - 1);
                rows
            }
        };
        (rows, c)
    })
}

/// `consensus_measure`: the metric row, the Agreement tripwire (a
/// violation fails the trial instead of panicking), and the decision
/// counters.
fn consensus_row(
    sim: &ConsensusSim,
    cell: &ScenarioCell,
    invokers: usize,
    c: &mut Counts,
) -> Vec<f64> {
    let decisions: Vec<(u64, u64, SimTime)> = (0..cell.n)
        .filter_map(|p| {
            sim.node(ProcessId(p)).inner().decision().map(|&(v, view, at)| (v, view, at))
        })
        .collect();
    if !decisions.windows(2).all(|w| w[0].0 == w[1].0) {
        c.failed = 1;
    }
    let decided = decisions.len() as f64 / cell.n as f64;
    let first = decisions.iter().min_by_key(|&&(_, _, at)| at);
    if let Some(&(_, view, _)) = first {
        c.decided_runs += 1;
        c.decide_views += view;
    }
    let views = first.map(|&(_, v, _)| v).unwrap_or(0) as f64;
    let decide_lat = first.map(|&(_, _, at)| at.ticks()).unwrap_or(0) as f64;
    let lat_over_cdelta = decide_lat / (CONSENSUS_C * CONSENSUS_DELTA) as f64;
    let msgs_per_op = sim.stats().delivered as f64 / invokers as f64;
    vec![decided, views, decide_lat, lat_over_cdelta, msgs_per_op]
}

/// `scale_trial`, staged: the `scale` workload's trial. Fails the trial
/// unless the rumor reached everyone, both ABD operations completed, and
/// every sent message is accounted for as delivered or dropped.
pub fn scale<Pr: Probe>(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    pr: &mut Pr,
) -> (Vec<f64>, Counts) {
    pr.span("trial", |pr| {
        let n = cell.n;
        let topology =
            cell.family.implicit(n).expect("the scale workload uses implicit topologies");
        let gossip_seed = rng.next_u64();
        let source = rng.range(0, n as u64 - 1) as usize;
        let abd_seed = rng.next_u64();
        let mut c = Counts { trials: 1, ..Counts::default() };
        let mut conserved = true;
        let mut account = |s: NetStats, c: &mut Counts| {
            conserved &= s.sent == s.delivered + dropped(s);
            c.add_work(s, 0);
        };

        let cfg = SimConfig {
            seed: gossip_seed,
            topology,
            horizon: SimTime::MAX,
            max_events: u64::MAX,
            ..SimConfig::default()
        };
        let mut sim =
            pr.span("sim.new.gossip", |_| Simulation::new(cfg, vec![Gossip::default(); n]));
        pr.span("sim.invoke", |_| sim.invoke_at(SimTime(1), ProcessId(source), ()));
        attach_sink(pr, &mut sim, || {
            initial_pushes(n, &FailureSchedule::none(), std::iter::once(1))
        });
        pr.span("sim.run.gossip", |_| sim.run());
        let (reached, spread) = pr.span("history.read", |_| {
            let (mut heard, mut last) = (0usize, SimTime::ZERO);
            for p in 0..n {
                if let Some(t) = sim.node(ProcessId(p)).heard_at() {
                    heard += 1;
                    last = last.max(t);
                }
            }
            (heard as f64 / n as f64, if heard == 0 { 0.0 } else { last.ticks() as f64 })
        });
        let msgs_per_proc = sim.stats().sent as f64 / n as f64;
        account(sim.stats(), &mut c);
        // The rumor is one operation, complete when the last process hears.
        c.ops_invoked += 1;
        if reached == 1.0 {
            c.ops_completed += 1;
            c.lat_ticks += spread as u64 - 1;
        }
        drop(sim);

        let cfg = SimConfig {
            seed: abd_seed,
            horizon: SimTime::MAX,
            max_events: u64::MAX,
            ..SimConfig::default()
        };
        let mut sim =
            pr.span("sim.new.abd", |_| Simulation::new(cfg, sampled_abd_nodes(n, 0u64, abd_seed)));
        let op_at = |i: u64| 1 + i * 200;
        pr.span("sim.invoke", |_| {
            for i in 0..SCALE_ABD_OPS {
                let p = ProcessId(((source as u64 + i * 7) % n as u64) as usize);
                let op = if i % 2 == 0 { ScaleOp::Write(i) } else { ScaleOp::Read };
                sim.invoke_at(SimTime(op_at(i)), p, op);
            }
        });
        attach_sink(pr, &mut sim, || {
            initial_pushes(n, &FailureSchedule::none(), (0..SCALE_ABD_OPS).map(op_at))
        });
        pr.span("sim.run.abd", |_| sim.run_until_ops_complete());
        let abd_completed = pr.span("history.read", |_| {
            let invoked = sim.history().ops().len().max(1);
            sim.history().ops().iter().filter(|r| r.is_complete()).count() as f64 / invoked as f64
        });
        let abd_msgs_per_proc = sim.stats().sent as f64 / n as f64;
        account(sim.stats(), &mut c);
        c.add_history(&sim);
        if !(reached == 1.0 && abd_completed == 1.0 && conserved) {
            c.failed = 1;
        }
        (vec![reached, spread, msgs_per_proc, abd_completed, abd_msgs_per_proc], c)
    })
}

/// One cell of the `gqs_register` workload: a generalized quorum system
/// over its graph, with the failure patterns trials rotate through.
#[derive(Clone, Debug)]
pub struct RegCell {
    /// The quorum system the register runs on (Figure 1's, or a
    /// `find_gqs` witness).
    pub gqs: GeneralizedQuorumSystem,
    /// The communication graph handed to the simulator.
    pub topology: Topology,
    /// Indices of the fail-prone system's patterns that trials rotate
    /// through: trial `t` strikes `patterns[t % len]` whole at time zero.
    pub patterns: Vec<usize>,
}

/// Metric row of a `gqs_register` trial: completed share, mean and worst
/// latency, delivered messages per operation, and whether the history
/// passed the dependency-graph checker.
pub const GQS_REGISTER_METRICS: &[&str] =
    &["completed", "lat_mean", "lat_max", "msgs_per_op", "checked"];

/// Operations per `gqs_register` trial: alternating writes and reads.
pub const GQS_REGISTER_OPS: u64 = 8;
/// State-propagation period of the generalized engine.
const GQS_REGISTER_TICK: u64 = 20;
/// Gap between invocations: a few propagation rounds, so operations
/// mostly run one at a time and the periodic pushes in between are the
/// bulk of the events, as in a lightly loaded deployment.
const GQS_REGISTER_OP_SPACING: u64 = 300;
const GQS_REGISTER_HORIZON: u64 = 150_000;

/// The `gqs_register` workload's trial — the benchmark's own, since no
/// sweep mode runs the paper's register: Figure 4 over the generalized
/// logical-clock engine (tick 20, flooded) under pattern
/// `patterns[t % len]`, eight alternating writes and reads round-robin
/// over the members of that pattern's `U_f`. The paper's claim is that
/// every one of them completes, and the history must pass the
/// dependency-graph checker; anything else fails the trial.
pub fn gqs_register<Pr: Probe>(
    cell: &RegCell,
    t: usize,
    rng: &mut SplitMix64,
    pr: &mut Pr,
) -> (Vec<f64>, Counts) {
    pr.span("trial", |pr| {
        let i = cell.patterns[t % cell.patterns.len()];
        let n = cell.gqs.graph().len();
        let sim_seed = rng.next_u64();
        let members: Vec<ProcessId> = cell.gqs.u_f(i).iter().collect();
        let schedule = pr.span("faults.script", |_| {
            FailureSchedule::from_pattern_at(cell.gqs.fail_prone().pattern(i), SimTime::ZERO)
        });
        let nodes = pr.span("nodes.build", |_| {
            gqs_register_nodes::<u8, u64>(&cell.gqs, 0, GQS_REGISTER_TICK)
        });
        let cfg = SimConfig {
            seed: sim_seed,
            topology: cell.topology.clone(),
            horizon: SimTime(GQS_REGISTER_HORIZON),
            ..SimConfig::default()
        };
        let mut sim = pr.span("sim.new", |_| Simulation::new(cfg, nodes));
        pr.span("sim.apply_failures", |_| sim.apply_failures(&schedule));
        let invoke_at: Vec<u64> = (0..GQS_REGISTER_OPS)
            .map(|k| 10 + k * GQS_REGISTER_OP_SPACING + rng.range(0, 40))
            .collect();
        pr.span("sim.invoke", |_| {
            for (k, &at) in invoke_at.iter().enumerate() {
                let p = members[k % members.len()];
                let op = if k % 2 == 0 {
                    RegOp::Write { reg: 0, value: k as u64 + 1 }
                } else {
                    RegOp::Read { reg: 0 }
                };
                sim.invoke_at(SimTime(at), p, op);
            }
        });
        attach_sink(pr, &mut sim, || initial_pushes(n, &schedule, invoke_at.iter().copied()));
        let reason = pr.span("sim.run", |_| sim.run_until_ops_complete());
        let mut row = pr.span("history.read", |_| latency_row(&sim, GQS_REGISTER_OPS));
        let checked = sim.history().all_complete()
            && pr.span("checker.depgraph", |_| {
                check_dependency_graph(&convert::register_tagged(sim.history(), 0), &0).is_ok()
            });
        row.push(checked as u64 as f64);
        if pr.recording() {
            // Priced for the traced run only: Wing–Gong is on no
            // end-to-end path today.
            pr.span("checker.wg", |_| {
                let entries = convert::register_entries(sim.history(), 0);
                std::hint::black_box(check_linearizable(&RegisterSpec::new(0u64), &entries).is_ok())
            });
        }
        let mut c = Counts { trials: 1, ..Counts::default() };
        c.note_stop(reason);
        c.add_work(sim.stats(), relayed(&sim));
        c.add_history(&sim);
        c.updates_applied =
            (0..n).map(|p| sim.node(ProcessId(p)).inner().engine().updates_applied()).sum();
        if !(reason == StopReason::OpsComplete && checked) {
            c.failed = 1;
        }
        (row, c)
    })
}
