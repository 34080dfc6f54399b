//! The benchmark's vocabulary: every metric and workload name, with its
//! unit, direction and — for per-layer metrics — the end-to-end metric it
//! should move and where. `BENCHMARK.json` at the repo root is rendered
//! from these tables (`gqs_benchmark spec`), and a test holds the two
//! together.

use crate::json::Json;
use crate::workloads::{plan, Size, Workload};

/// Seed used when none is given: the one `perf_snapshot` has always used,
/// so the `core.*` ladder measures the instances `BENCH.json` records.
pub const DEFAULT_SEED: u64 = 0xBE7C_4A11;

/// Seconds of timed passes per run; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// Which way a metric improves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Copy, Clone, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Whether the value is simulated (repeats exactly for one seed)
    /// rather than host time or memory.
    pub simulated: bool,
}

/// The end-to-end metrics, reported on every workload. On `decide`, where
/// no simulator runs, `events_per_s` counts scenario trials and the three
/// `sim_*` metrics read the neutral constant 1 (see the README).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, simulated: false },
    EndToEnd { name: "trial_us", unit: "us", better: Better::Lower, bound: 0.18, simulated: false },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.18,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
        simulated: false,
    },
    EndToEnd {
        name: "sim_msgs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.06,
        simulated: true,
    },
    EndToEnd {
        name: "sim_op_lat_ticks",
        unit: "ticks",
        better: Better::Lower,
        bound: 0.06,
        simulated: true,
    },
    EndToEnd {
        name: "sim_completed_share",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.06,
        simulated: true,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: measured by the traced binary, no bound.
#[derive(Copy, Clone, Debug)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The layer (module) it prices.
    pub layer: &'static str,
    /// The end-to-end metric it should move, and where. Elsewhere the
    /// prediction is no change.
    pub moves: &'static str,
    /// The workloads whose traced run measures it; on the others it reads
    /// 0 (the layer is not exercised there).
    pub on: &'static [Workload],
}

use Better::{Higher, Lower};
use Workload::{AbdFaults, Consensus, Decide, GqsRegister, Scale};

const SIMULATED: &[Workload] = &[GqsRegister, AbdFaults, Consensus, Scale];
const SMALL_SIMS: &[Workload] = &[GqsRegister, AbdFaults, Consensus];
const ON_DECIDE: &str = "trial_us on decide";
const ON_DECIDE_SMALL: &str = "trial_us on decide (its n <= 16 cells)";
const ON_DECIDE_N4: &str = "trial_us on decide (its n = 4 cells); invisible on scale";
const ON_EVENTS: &str = "events_per_s on this workload";
const ON_REGISTERS: &str = "sim_msgs_per_op and trial_us on gqs_register / abd_faults";
const ON_ABD: &str = "trial_us on abd_faults only";
const ON_CONSENSUS: &str = "trial_us / sim_op_lat_ticks on consensus only";
const ON_SCALE: &str = "events_per_s, peak_rss_mb, setup_s on scale";
const ON_NOTHING: &str = "no end-to-end path today; priced for ROADMAP items 4 and 5";

macro_rules! layer {
    ($name:expr, $unit:expr, $better:expr, $layer:expr, $moves:expr, $on:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            layer: $layer,
            moves: $moves,
            on: $on,
        }
    };
}

/// The per-layer metrics. A name carries a size suffix (`.n64`) where the
/// layer's cost depends on it; the workload is never part of the name —
/// the run's workload says where the number was measured.
pub const PER_LAYER: &[PerLayer] = &[
    layer!("core.find_gqs_us.n8", "us", Lower, "gqs_core::finder", ON_DECIDE_SMALL, &[Decide]),
    layer!("core.find_gqs_us.n64", "us", Lower, "gqs_core::finder", ON_DECIDE, &[Decide]),
    layer!("core.find_gqs_us.n256", "us", Lower, "gqs_core::finder", ON_DECIDE, &[Decide]),
    layer!("core.gqs_exists_us.n5", "us", Lower, "gqs_core::finder", ON_DECIDE_SMALL, &[Decide]),
    layer!("core.gqs_exists_us.n16", "us", Lower, "gqs_core::finder", ON_DECIDE_SMALL, &[Decide]),
    layer!("core.gqs_exists_us.n32", "us", Lower, "gqs_core::finder", ON_DECIDE, &[Decide]),
    layer!("core.gqs_exists_us.n256", "us", Lower, "gqs_core::finder", ON_DECIDE, &[Decide]),
    layer!("core.sccs_us.n64", "us", Lower, "gqs_core::graph", ON_DECIDE, &[Decide]),
    layer!("core.sccs_us.n256", "us", Lower, "gqs_core::graph", ON_DECIDE, &[Decide]),
    layer!("core.qs_plus_us.n64", "us", Lower, "gqs_core::finder", ON_DECIDE, &[Decide]),
    layer!(
        "core.naive_over_fast.n32",
        "ratio",
        Higher,
        "gqs_core::reference",
        ON_DECIDE,
        &[Decide]
    ),
    layer!(
        "generators.build_us.n8",
        "us",
        Lower,
        "gqs_workloads::generators",
        ON_DECIDE_SMALL,
        &[Decide]
    ),
    layer!(
        "generators.build_us.n64",
        "us",
        Lower,
        "gqs_workloads::generators",
        ON_DECIDE,
        &[Decide]
    ),
    layer!(
        "generators.build_us.n256",
        "us",
        Lower,
        "gqs_workloads::generators",
        ON_DECIDE,
        &[Decide]
    ),
    layer!(
        "sweep.engine_overhead_ns",
        "ns",
        Lower,
        "gqs_workloads::sweep",
        ON_DECIDE_N4,
        &[Decide]
    ),
    layer!("sweep.speedup_t2", "ratio", Higher, "gqs_workloads::sweep", ON_DECIDE_N4, &[Decide]),
    layer!("sketch.observe_ns", "ns", Lower, "gqs_workloads::sweep", ON_DECIDE_N4, &[Decide]),
    layer!("sketch.merge_ns", "ns", Lower, "gqs_workloads::sweep", ON_DECIDE_N4, &[Decide]),
    layer!("report.json_us", "us", Lower, "gqs_workloads::sweep", ON_DECIDE_N4, &[Decide]),
    layer!(
        "sim.new_us",
        "us",
        Lower,
        "gqs_simnet::sim",
        "trial_us on abd_faults and consensus",
        SMALL_SIMS
    ),
    layer!("sim.new_s.n1m", "s", Lower, "gqs_simnet::sim", "setup_s / trial_us on scale", &[Scale]),
    layer!(
        "sim.setup_share",
        "share",
        Lower,
        "gqs_simnet::sim",
        "trial_us on abd_faults and consensus; setup_s / trial_us on scale",
        SIMULATED
    ),
    layer!("sim.run_ns_per_event", "ns", Lower, "gqs_simnet::sim", ON_EVENTS, SIMULATED),
    layer!(
        "wheel.ns_per_op",
        "ns",
        Lower,
        "gqs_simnet::wheel",
        "events_per_s on scale first, consensus second; small on gqs_register",
        SIMULATED
    ),
    layer!(
        "wheel.share",
        "share",
        Lower,
        "gqs_simnet::wheel",
        "events_per_s on scale first, consensus second; small on gqs_register",
        SIMULATED
    ),
    layer!(
        "netmodel.delay_ns.uniform",
        "ns",
        Lower,
        "gqs_simnet::netmodel",
        "events_per_s on abd_faults, gqs_register, scale",
        &[GqsRegister, AbdFaults, Scale]
    ),
    layer!(
        "netmodel.delay_ns.lognormal",
        "ns",
        Lower,
        "gqs_simnet::netmodel",
        "events_per_s on abd_faults (lognormal cells) and consensus",
        &[AbdFaults, Consensus]
    ),
    layer!(
        "netmodel.delay_ns.psync",
        "ns",
        Lower,
        "gqs_simnet::netmodel",
        "events_per_s on consensus",
        &[Consensus]
    ),
    layer!(
        "netmodel.share",
        "share",
        Lower,
        "gqs_simnet::netmodel",
        "events_per_s on abd_faults (lognormal cells) and consensus",
        SIMULATED
    ),
    layer!(
        "sim.handler_residual_share",
        "share",
        Lower,
        "handlers + Context/effect buffers + apply_effects + history",
        "events_per_s on every simulated workload, largest on gqs_register (ROADMAP item 2)",
        SIMULATED
    ),
    layer!("alloc.per_event", "count", Lower, "allocator", ON_EVENTS, SIMULATED),
    layer!("alloc.bytes_per_event", "B", Lower, "allocator", ON_EVENTS, SIMULATED),
    layer!("flood.relay_factor", "ratio", Lower, "gqs_simnet::flood", ON_REGISTERS, SMALL_SIMS),
    layer!(
        "generalized.events_per_op",
        "count",
        Lower,
        "gqs_registers::generalized",
        ON_REGISTERS,
        &[GqsRegister]
    ),
    layer!(
        "generalized.timer_share",
        "share",
        Lower,
        "gqs_registers::generalized",
        ON_REGISTERS,
        &[GqsRegister]
    ),
    layer!(
        "generalized.updates_per_op",
        "count",
        Lower,
        "gqs_registers::generalized",
        ON_REGISTERS,
        &[GqsRegister]
    ),
    layer!(
        "classical.events_per_op",
        "count",
        Lower,
        "gqs_registers::classical",
        ON_REGISTERS,
        &[AbdFaults]
    ),
    layer!(
        "reliable.premium",
        "ratio",
        Lower,
        "gqs_registers::classical retry",
        ON_ABD,
        &[AbdFaults]
    ),
    layer!(
        "reliable.retransmits_per_op",
        "count",
        Lower,
        "gqs_registers::classical retry",
        ON_ABD,
        &[AbdFaults]
    ),
    layer!("faults.script_us", "us", Lower, "gqs_faults", ON_ABD, &[AbdFaults, Consensus]),
    layer!(
        "consensus.views_per_decide",
        "count",
        Lower,
        "gqs_consensus",
        ON_CONSENSUS,
        &[Consensus]
    ),
    layer!(
        "consensus.events_per_decide",
        "count",
        Lower,
        "gqs_consensus",
        ON_CONSENSUS,
        &[Consensus]
    ),
    layer!(
        "consensus.timer_share",
        "share",
        Lower,
        "gqs_consensus::synchronizer",
        ON_CONSENSUS,
        &[Consensus]
    ),
    layer!(
        "checkpoint.clone_us",
        "us",
        Lower,
        "gqs_simnet::sim checkpoint",
        ON_CONSENSUS,
        &[Consensus]
    ),
    layer!(
        "checkpoint.restore_us",
        "us",
        Lower,
        "gqs_simnet::sim restore",
        ON_CONSENSUS,
        &[Consensus]
    ),
    layer!(
        "fork.straight_over_fork",
        "ratio",
        Higher,
        "gqs_workloads::sweep branching",
        ON_CONSENSUS,
        &[Consensus]
    ),
    layer!("scale.gossip_ev_per_s.n100k", "1/s", Higher, "gqs_simnet::gossip", ON_SCALE, &[Scale]),
    layer!("scale.gossip_ev_per_s.n1m", "1/s", Higher, "gqs_simnet::gossip", ON_SCALE, &[Scale]),
    layer!("scale.abd_ev_per_s.n100k", "1/s", Higher, "gqs_registers::scale", ON_SCALE, &[Scale]),
    layer!("scale.abd_ev_per_s.n1m", "1/s", Higher, "gqs_registers::scale", ON_SCALE, &[Scale]),
    layer!("scale.bytes_per_process.n1m", "B", Lower, "gqs_simnet::sim", ON_SCALE, &[Scale]),
    layer!("scale.cold_over_warm", "ratio", Lower, "process warm-up", ON_SCALE, &[Scale]),
    layer!("trace.counting_premium.n1m", "ratio", Lower, "gqs_simnet::trace", ON_NOTHING, &[Scale]),
    layer!(
        "trace.harness_overhead_share",
        "share",
        Lower,
        "this benchmark's span recorder",
        "nothing: the cost of the tracing itself",
        &Workload::ALL
    ),
    layer!(
        "checker.depgraph_us_per_op",
        "us",
        Lower,
        "gqs_checker::depgraph",
        "0.07 % of a gqs_register trial, nothing elsewhere; priced for ROADMAP item 4",
        &[GqsRegister]
    ),
    layer!("checker.wg_us_per_history", "us", Lower, "gqs_checker::wg", ON_NOTHING, &[GqsRegister]),
];

/// Why each workload is in the benchmark: the layer that does most of its
/// work.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Decide => "solvability grids n=4..256: gqs_core (finder CSP, reach/SCC caches, ProcessSet) does the work, the simulator none; only place sweep-engine overhead shows",
        GqsRegister => "the paper's register (Fig. 4 over the logical-clock engine, flooded): timer- and relay-heavy, so registers::generalized and simnet::flood handlers dominate",
        AbdFaults => "thousands of short ABD simulations under fault schedules, lognormal delays and loss: per-trial construction, gqs_faults scripts and retransmission weigh most",
        Consensus => "partially synchronous consensus, plain and forked: far-future view timers on the wheel, the GST delay path, and the only user of checkpoint/restore",
        Scale => "gossip and sampled ABD at 100k and 1M processes: wheel push/pop, delay draws and memory traffic are the whole cost; gqs_core and the sweep engine do nothing",
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.name())),
        ]
    };
    Json::obj([
        ("command", Json::Arr(["bash", "benchmark/run.sh"].into_iter().map(Json::str).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(why(w)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = metric(m.name, m.unit, m.better);
                        pairs.push(("bound", Json::Num(m.bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER.iter().map(|m| Json::obj(metric(m.name, m.unit, m.better))).collect(),
            ),
        ),
    ])
}

/// `SPEC.json` in this directory: what `BENCHMARK.json`'s fixed keys have
/// no room for — each per-layer metric's layer and the end-to-end metric
/// it should move, and each workload's grids with their trial counts.
pub fn spec_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
            ("bound", Json::Num(m.bound)),
            ("simulated", Json::Bool(m.simulated)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
            ("layer", Json::str(m.layer)),
            ("should_move", Json::str(m.moves)),
            ("measured_on", strs(&m.on.iter().map(|w| w.name()).collect::<Vec<_>>())),
        ])
    });
    let workloads = Workload::ALL.into_iter().map(|w| {
        let plan = plan(w, DEFAULT_SEED, Size::Full);
        let parts = plan.parts.iter().map(|p| {
            Json::obj([
                ("label", Json::str(p.label)),
                ("entry_point", Json::str(p.kind.entry_point())),
                ("cells", Json::Num(p.grid.cells.len() as f64)),
                ("trials_per_cell", Json::Num(p.grid.trials as f64)),
            ])
        });
        Json::obj([
            ("name", Json::str(w.name())),
            ("why", Json::str(why(w))),
            ("trials_per_pass", Json::Num(plan.trials() as f64)),
            ("parts", Json::Arr(parts.collect())),
        ])
    });
    Json::obj([
        ("default_seed", Json::Num(DEFAULT_SEED as f64)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "load_shape",
            Json::str(
                "closed loop, batch, one process, SweepOptions.threads = Some(1); per run: set-up-only \
                 child processes, then one child doing a cold pass, timed passes of identical work until \
                 run_seconds are spent (at least three), and one counting pass with two workers",
            ),
        ),
        ("claim", Json::Null),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
        ("workloads", Json::Arr(workloads.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| valid_name(n)), "bad name");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are used once");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit) && !m.on.is_empty()));
        assert!((1..=128).contains(&PER_LAYER.len()) && (1..=16).contains(&END_TO_END.len()));
        assert!(Workload::ALL.iter().all(|w| why(*w).len() <= 200 && !why(*w).contains('\n')));
        // Set-up time carries the largest bound.
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_at_the_root_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `gqs_benchmark spec > BENCHMARK.json`"
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/SPEC.json");
        let on_disk =
            Json::parse(&std::fs::read_to_string(path).expect("SPEC.json beside Cargo.toml"))
                .expect("SPEC.json parses");
        assert_eq!(
            on_disk,
            spec_json(),
            "regenerate with `gqs_benchmark describe > benchmark/SPEC.json`"
        );
    }
}
