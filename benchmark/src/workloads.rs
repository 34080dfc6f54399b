//! The five workloads: what each one runs, generated from a seed.
//!
//! A workload is a list of [`Part`]s — one scenario grid each, because a
//! grid has one trial count — and a pass runs every part through the
//! engine's public entry points, renders each report with `report_json`,
//! and folds the bytes into an FNV-1a digest. The seed feeds the grids'
//! base seeds only: the program under test receives generated grids and
//! instances, never the seed itself.

use std::sync::{Arc, Mutex};

use gqs_core::finder::find_gqs;
use gqs_core::systems::figure1;
use gqs_simnet::{SplitMix64, Topology};
use gqs_workloads::generators::{grid_graph_n, ring, rotating_fail_prone, two_cliques_bridge};
use gqs_workloads::sweep::{
    self, report_json, report_json_branched, BranchMode, BranchSpec, NetworkFamily, PatternFamily,
    ScenarioCell, ScenarioGrid, ScheduleFamily, StallLog, SweepOptions, SweepReport, SweepSpec,
    TopologyFamily, AVAILABILITY_METRICS, CONSENSUS_METRICS, LATENCY_METRICS, SCALE_METRICS,
    SCENARIO_METRICS,
};

use crate::spans::{NoProbe, Probe};
use crate::staged::{self, AbdMode, Counts, RegCell, GQS_REGISTER_METRICS};
use crate::stats::{fnv1a, FNV_OFFSET};

/// One of the benchmark's five workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Solvability grids: `gqs_core` does nearly all the work.
    Decide,
    /// The paper's own register over the generalized engine.
    GqsRegister,
    /// Thousands of small ABD simulations under fault schedules.
    AbdFaults,
    /// Partially synchronous consensus, plain and forked.
    Consensus,
    /// Gossip and sampled ABD at 100 000 and 1 000 000 processes.
    Scale,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::Decide,
        Workload::GqsRegister,
        Workload::AbdFaults,
        Workload::Consensus,
        Workload::Scale,
    ];

    /// The name used on the command line and in every result file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Decide => "decide",
            Workload::GqsRegister => "gqs_register",
            Workload::AbdFaults => "abd_faults",
            Workload::Consensus => "consensus",
            Workload::Scale => "scale",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether a simulator runs at all (everything but `decide`).
    pub fn simulated(self) -> bool {
        self != Workload::Decide
    }
}

/// How much work a pass holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size: a pass takes 1.5–3.5 s on the 2-core box.
    Full,
    /// A plumbing check: same shapes, a handful of trials, not comparable.
    Quick,
}

/// Which engine entry point runs a [`Part`].
#[derive(Clone, Debug)]
pub enum PartKind {
    /// `ScenarioGrid::run`.
    Solvability,
    /// `ScenarioGrid::run_latency`.
    Latency,
    /// `ScenarioGrid::run_availability`.
    Availability,
    /// `ScenarioGrid::run_consensus`.
    Consensus,
    /// `ScenarioGrid::run_consensus_branched`, fork mode.
    ConsensusBranched(BranchSpec),
    /// `ScenarioGrid::run_scale`.
    Scale,
    /// `sweep::run` over the benchmark's own register trial; `grid.cells`
    /// only label the report rows, the instances are these.
    GqsRegister(Vec<RegCell>),
}

impl PartKind {
    /// The public function a pass calls for this kind of part.
    pub fn entry_point(&self) -> &'static str {
        match self {
            PartKind::Solvability => "ScenarioGrid::run",
            PartKind::Latency => "ScenarioGrid::run_latency",
            PartKind::Availability => "ScenarioGrid::run_availability",
            PartKind::Consensus => "ScenarioGrid::run_consensus",
            PartKind::ConsensusBranched(_) => "ScenarioGrid::run_consensus_branched",
            PartKind::Scale => "ScenarioGrid::run_scale",
            PartKind::GqsRegister(_) => "sweep::run",
        }
    }
}

/// One grid of a workload.
#[derive(Clone, Debug)]
pub struct Part {
    /// Names the part in result files and traces.
    pub label: &'static str,
    /// The entry point.
    pub kind: PartKind,
    /// Cells, trials per cell, base seed.
    pub grid: ScenarioGrid,
}

impl Part {
    /// Trials in one pass over the part.
    pub fn trials(&self) -> u64 {
        (self.grid.cells.len() * self.grid.trials) as u64
    }
}

/// A workload's generated input.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Its grids, in run order.
    pub parts: Vec<Part>,
}

impl Plan {
    /// Trials in one pass.
    pub fn trials(&self) -> u64 {
        self.parts.iter().map(Part::trials).sum()
    }
}

fn cell(family: TopologyFamily, n: usize, patterns: PatternFamily, p_chan: f64) -> ScenarioCell {
    ScenarioCell {
        family,
        n,
        density: 1.0,
        patterns,
        p_chan,
        loss: 0.0,
        schedule: ScheduleFamily::Static,
        net: NetworkFamily::Uniform,
    }
}

const REGIONS3: TopologyFamily = TopologyFamily::Regions { regions: 3 };

/// Generates `workload`'s input from `seed`.
pub fn plan(workload: Workload, seed: u64, size: Size) -> Plan {
    // Each part draws its base seed from one stream keyed by (seed,
    // workload), so workloads and parts never share trial streams.
    let mut seeds =
        SplitMix64::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut parts = Vec::new();
    let mut part = |label, kind, cells: Vec<ScenarioCell>, full: usize, quick: usize| {
        let trials = if size == Size::Full { full } else { quick };
        parts.push(Part {
            label,
            kind,
            grid: ScenarioGrid { cells, trials, seed: seeds.next_u64() },
        });
    };
    match workload {
        Workload::Decide => {
            let random = |n| ScenarioCell {
                density: 0.3,
                ..cell(
                    TopologyFamily::Random,
                    n,
                    PatternFamily::Random { patterns: 8, max_crashes: 2 },
                    0.15,
                )
            };
            part("random_n8", PartKind::Solvability, vec![random(8)], 3000, 40);
            part("random_n16", PartKind::Solvability, vec![random(16)], 3000, 40);
            part("random_n64", PartKind::Solvability, vec![random(64)], 750, 8);
            part("random_n256", PartKind::Solvability, vec![random(256)], 60, 2);
            let rotating = (1..=5).map(|i| {
                cell(TopologyFamily::Complete, 4, PatternFamily::Rotating, 0.1 * i as f64)
            });
            part("complete4_rotating", PartKind::Solvability, rotating.collect(), 4000, 40);
            let adversarial = cell(REGIONS3, 12, PatternFamily::Adversarial { patterns: 4 }, 0.1);
            part("regions12_adversarial", PartKind::Solvability, vec![adversarial], 2500, 40);
        }
        Workload::GqsRegister => {
            let fig = figure1();
            let fig_cells: Vec<RegCell> = (0..fig.fail_prone.len())
                .map(|i| RegCell {
                    gqs: fig.gqs.clone(),
                    topology: Topology::Complete,
                    patterns: vec![i],
                })
                .collect();
            let fig_labels = vec![
                cell(TopologyFamily::Complete, 4, PatternFamily::Rotating, 0.0);
                fig_cells.len()
            ];
            part("figure1", PartKind::GqsRegister(fig_cells), fig_labels, 56, 2);
            // p_chan = 0 leaves the rotating crashes as the only failures,
            // under which all three sparse families admit a GQS.
            let (cells, labels): (Vec<RegCell>, Vec<ScenarioCell>) = [
                (TopologyFamily::Ring, ring(5)),
                (TopologyFamily::Grid, grid_graph_n(6, 3)),
                (TopologyFamily::TwoCliquesBridge, two_cliques_bridge(6)),
            ]
            .into_iter()
            .map(|(family, graph)| {
                let fp = rotating_fail_prone(&graph, 0.0, &mut SplitMix64::new(1));
                let gqs = find_gqs(&graph, &fp)
                    .expect("sparse families admit a GQS under rotating crashes")
                    .system;
                let label = cell(family, graph.len(), PatternFamily::Rotating, 0.0);
                (
                    RegCell {
                        gqs,
                        topology: Topology::from(graph),
                        patterns: (0..fp.len()).collect(),
                    },
                    label,
                )
            })
            .unzip();
            part("sparse_witnesses", PartKind::GqsRegister(cells), labels, 28, 2);
        }
        Workload::AbdFaults => {
            let nets = [NetworkFamily::Uniform, NetworkFamily::Lognormal];
            let healing = [
                ScheduleFamily::RegionOutage,
                ScheduleFamily::FlappingLink,
                ScheduleFamily::RollingRestart,
            ];
            let base = cell(REGIONS3, 9, PatternFamily::Rotating, 0.1);
            let mut latency = Vec::new();
            let mut availability = Vec::new();
            for net in nets {
                latency.push(ScenarioCell { net, ..base });
                for schedule in healing {
                    latency.push(ScenarioCell { schedule, net, ..base });
                    for loss in [0.0, 0.05] {
                        availability.push(ScenarioCell {
                            schedule,
                            net,
                            loss,
                            p_chan: 0.0,
                            ..base
                        });
                    }
                }
            }
            part("latency", PartKind::Latency, latency, 64, 2);
            // Availability runs only faults that heal: the three dynamic
            // schedules, with no permanent channel failures underneath
            // (p_chan 0). Where a cut never heals, the retry engine hammers
            // a dead link until the horizon — 60-115 ms a trial against
            // 3-9 ms — and a few such trials decide the pass: across ten
            // seeds trial_us spread 27 % with them and 3 % without.
            part("availability", PartKind::Availability, availability, 40, 1);
        }
        Workload::Consensus => {
            // No permanent channel failures here either (p_chan 0): a run
            // that can never decide churns views to the 200k horizon, and
            // the share of such runs — not the simulator — sets the pass
            // time (17 % spread across ten seeds with p_chan 0.1).
            let mut cells = Vec::new();
            for n in [6, 9] {
                for schedule in [ScheduleFamily::Static, ScheduleFamily::RegionOutage] {
                    for net in [NetworkFamily::Uniform, NetworkFamily::Lognormal] {
                        for loss in [0.0, 0.05] {
                            cells.push(ScenarioCell {
                                schedule,
                                net,
                                loss,
                                ..cell(REGIONS3, n, PatternFamily::Rotating, 0.0)
                            });
                        }
                    }
                }
            }
            part("plain", PartKind::Consensus, cells, 16, 1);
            // Past GST (1000) and inside the outage churn, so the warmup
            // carries real event traffic and protocol state into the
            // checkpoint.
            let fork = BranchSpec { at: 2_000, branches: 8, mode: BranchMode::Fork };
            let outage = ScenarioCell {
                schedule: ScheduleFamily::RegionOutage,
                ..cell(REGIONS3, 9, PatternFamily::Rotating, 0.0)
            };
            part("forked", PartKind::ConsensusBranched(fork), vec![outage], 64, 2);
        }
        Workload::Scale => {
            let ring = |n| cell(TopologyFamily::Ring, n, PatternFamily::Rotating, 0.0);
            // The quick size shrinks the rings too, or it would be no
            // plumbing check; the measured size never changes the shapes.
            let (small, big) =
                if size == Size::Full { (100_000, 1_000_000) } else { (10_000, 40_000) };
            part("ring_100k", PartKind::Scale, vec![ring(small)], 8, 1);
            part("ring_1m", PartKind::Scale, vec![ring(big)], 1, 1);
        }
    }
    Plan { workload, parts }
}

/// Digest of a pass: FNV-1a over the concatenated `report_json` bytes of
/// every part, in part order.
pub type Digest = u64;

fn render(part: &Part, report: &SweepReport) -> String {
    match &part.kind {
        PartKind::ConsensusBranched(spec) => report_json_branched(&part.grid, report, Some(spec)),
        _ => report_json(&part.grid, report),
    }
}

fn options(threads: usize, stalls: &StallLog) -> SweepOptions {
    SweepOptions {
        threads: Some(threads),
        stall_log: Some(stalls.clone()),
        ..SweepOptions::default()
    }
}

/// Runs `part` through its public engine entry point.
pub fn public_report(part: &Part, opts: &SweepOptions) -> SweepReport {
    let grid = &part.grid;
    match &part.kind {
        PartKind::Solvability => grid.run(opts),
        PartKind::Latency => grid.run_latency(opts),
        PartKind::Availability => grid.run_availability(opts),
        PartKind::Consensus => grid.run_consensus(opts),
        PartKind::ConsensusBranched(spec) => grid.run_consensus_branched(opts, spec),
        PartKind::Scale => grid.run_scale(opts),
        PartKind::GqsRegister(cells) => {
            let spec = SweepSpec {
                cells,
                trials: grid.trials,
                seed: grid.seed,
                metrics: metric_names(part),
            };
            sweep::run(&spec, opts, |cell, t, rng| {
                staged::gqs_register(cell, t, rng, &mut NoProbe).0
            })
        }
    }
}

/// One timed pass: every part through the public entry points with
/// `threads` workers, `report_json` included. Returns the digest and the
/// number of event-cap stalls the engine logged.
pub fn public_pass(plan: &Plan, threads: usize) -> (Digest, u64) {
    let stalls: StallLog = Arc::new(Mutex::new(Vec::new()));
    let opts = options(threads, &stalls);
    let digest = plan
        .parts
        .iter()
        .fold(FNV_OFFSET, |h, part| fnv1a(h, render(part, &public_report(part, &opts)).as_bytes()));
    let stalled = stalls.lock().expect("stall log poisoned").len() as u64;
    (digest, stalled)
}

/// Trial `t` of cell `c` of `part`, staged from public pieces: its metric
/// rows (several only for a branched trial) and the simulator's exact
/// counters.
pub fn staged_rows<Pr: Probe>(
    part: &Part,
    c: usize,
    t: usize,
    rng: &mut SplitMix64,
    pr: &mut Pr,
) -> (Vec<Vec<f64>>, Counts) {
    let cell = &part.grid.cells[c];
    let one = |(row, counts)| (vec![row], counts);
    match &part.kind {
        PartKind::Solvability => one(staged::scenario(cell, rng, pr)),
        PartKind::Latency => one(staged::abd(AbdMode::Latency, cell, rng, pr)),
        PartKind::Availability => one(staged::abd(AbdMode::Availability, cell, rng, pr)),
        PartKind::Consensus => staged::consensus(cell, rng, None, pr),
        PartKind::ConsensusBranched(branch) => staged::consensus(cell, rng, Some(branch), pr),
        PartKind::Scale => one(staged::scale(cell, rng, pr)),
        PartKind::GqsRegister(cells) => one(staged::gqs_register(&cells[c], t, rng, pr)),
    }
}

/// The same trial through the sweep module's public `*_trial` function.
pub fn public_rows(part: &Part, c: usize, t: usize, rng: &mut SplitMix64) -> Vec<Vec<f64>> {
    let cell = &part.grid.cells[c];
    match &part.kind {
        PartKind::Solvability => vec![sweep::scenario_trial(cell, rng)],
        PartKind::Latency => vec![sweep::latency_trial(cell, rng)],
        PartKind::Availability => vec![sweep::availability_trial(cell, rng)],
        PartKind::Consensus => vec![sweep::consensus_trial(cell, rng)],
        PartKind::ConsensusBranched(branch) => sweep::consensus_branch_trial(cell, rng, branch),
        PartKind::Scale => vec![sweep::scale_trial(cell, rng)],
        PartKind::GqsRegister(cells) => {
            vec![staged::gqs_register(&cells[c], t, rng, &mut NoProbe).0]
        }
    }
}

/// The metric names of `part`'s rows.
pub fn metric_names(part: &Part) -> &'static [&'static str] {
    match &part.kind {
        PartKind::Solvability => SCENARIO_METRICS,
        PartKind::Latency => LATENCY_METRICS,
        PartKind::Availability => AVAILABILITY_METRICS,
        PartKind::Consensus | PartKind::ConsensusBranched(_) => CONSENSUS_METRICS,
        PartKind::Scale => SCALE_METRICS,
        PartKind::GqsRegister(_) => GQS_REGISTER_METRICS,
    }
}

/// The counting pass: the same grids through `sweep::run_rows` with the
/// **staged** trials, which hand back the simulator's exact counters. Its
/// digest must equal a public pass's — that is the staged ≡ public check
/// on every trial — and, run with two workers, also the check that
/// results do not depend on the thread count.
pub fn staged_pass(plan: &Plan, threads: usize) -> (Digest, Counts) {
    let stalls: StallLog = Arc::new(Mutex::new(Vec::new()));
    let opts = options(threads, &stalls);
    let total = Mutex::new(Counts::default());
    let mut digest = FNV_OFFSET;
    for part in &plan.parts {
        let grid = &part.grid;
        let cells: Vec<usize> = (0..grid.cells.len()).collect();
        let spec = SweepSpec {
            cells: &cells,
            trials: grid.trials,
            seed: grid.seed,
            metrics: metric_names(part),
        };
        let report = sweep::run_rows(&spec, &opts, |&c, t, rng| {
            let (rows, counts) = staged_rows(part, c, t, rng, &mut NoProbe);
            total.lock().expect("counts poisoned").add(&counts);
            rows
        });
        digest = fnv1a(digest, render(part, &report).as_bytes());
    }
    (digest, total.into_inner().expect("counts poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedSink;
    use crate::spans::Recorder;
    use gqs_simnet::SharedSink;
    use gqs_workloads::generators::trial_rng;

    /// The quick plan, with the scale cells shrunk so a debug build
    /// finishes: shapes and code paths are unchanged.
    fn tiny_plan(workload: Workload) -> Plan {
        let mut plan = plan(workload, 0xBE7C_4A11, Size::Quick);
        if workload == Workload::Scale {
            for part in &mut plan.parts {
                part.grid.cells[0].n = 600;
            }
        }
        plan
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
    }

    #[test]
    fn staged_rows_equal_public_rows_bit_for_bit_on_every_workload() {
        for workload in Workload::ALL {
            let plan = tiny_plan(workload);
            let mut rec = Recorder::new(|| (0, 0));
            for part in &plan.parts {
                let grid = &part.grid;
                for c in 0..grid.cells.len() {
                    for t in 0..grid.trials {
                        let rng = || trial_rng(grid.seed, c * grid.trials + t);
                        let public = public_rows(part, c, t, &mut rng());
                        let (bare, counts) = staged_rows(part, c, t, &mut rng(), &mut NoProbe);
                        assert_eq!(
                            bits(&bare),
                            bits(&public),
                            "{} {} cell {c} trial {t}",
                            workload.name(),
                            part.label
                        );
                        assert_eq!((counts.trials, counts.failed), (1, 0));
                        assert_eq!(counts.events > 0, workload.simulated());
                        // Recording spans changes nothing either.
                        let (spanned, again) = staged_rows(part, c, t, &mut rng(), &mut rec);
                        assert_eq!((bits(&spanned), again), (bits(&public), counts));
                    }
                }
            }
            assert!(rec.spans().iter().any(|s| s.name == "trial"));
            // Nor does attaching the schedule-recording sink.
            let sink = SharedSink::new(SchedSink::new());
            rec.record_schedule(sink.clone());
            let part = &plan.parts[0];
            let rng = || trial_rng(part.grid.seed, 0);
            let (recorded, _) = staged_rows(part, 0, 0, &mut rng(), &mut rec);
            assert_eq!(bits(&recorded), bits(&public_rows(part, 0, 0, &mut rng())));
            assert_eq!(sink.with(SchedSink::take_segments).is_empty(), !workload.simulated());
        }
    }

    #[test]
    fn public_and_staged_passes_share_one_digest_for_any_thread_count() {
        for workload in Workload::ALL {
            let plan = tiny_plan(workload);
            let (digest, stalls) = public_pass(&plan, 1);
            assert_eq!(stalls, 0);
            assert_eq!(public_pass(&plan, 2).0, digest, "{}", workload.name());
            let (staged, counts) = staged_pass(&plan, 2);
            assert_eq!(staged, digest, "{}", workload.name());
            assert_eq!((counts.trials, counts.failed), (plan.trials(), 0));
        }
    }

    #[test]
    fn seeds_generate_distinct_inputs_and_repeat_exactly() {
        let a = plan(Workload::AbdFaults, 1, Size::Quick);
        let b = plan(Workload::AbdFaults, 2, Size::Quick);
        let seeds = |p: &Plan| p.parts.iter().map(|part| part.grid.seed).collect::<Vec<_>>();
        assert_ne!(seeds(&a), seeds(&b));
        assert_eq!(seeds(&a), seeds(&plan(Workload::AbdFaults, 1, Size::Quick)));
        assert_ne!(seeds(&a), seeds(&plan(Workload::Consensus, 1, Size::Quick)));
        // Shapes do not depend on the size, only trial counts do.
        let full = plan(Workload::AbdFaults, 1, Size::Full);
        assert_eq!(full.parts.len(), a.parts.len());
        assert!(full.parts.iter().zip(&a.parts).all(|(f, q)| f.grid.cells == q.grid.cells));
    }
}
