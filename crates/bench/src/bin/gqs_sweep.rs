//! `gqs_sweep` — stream a scenario grid through the sweep engine
//! (`gqs_workloads::sweep`) and emit machine-readable aggregate tables.
//!
//! [`USAGE`] (`gqs_sweep --help`) is the reference for every flag, mode,
//! execution strategy and the grid grammar. The binary itself only turns
//! flags into a `ScenarioGrid`, a `Mode` and an `Exec`, refuses bad
//! combinations before anything runs (exit 2, one line on stderr), calls
//! `ScenarioGrid::run_mode` and renders the report.
//!
//! ```text
//! gqs_sweep --family ring --n 4..8 --patterns rotating \
//!           --p-chan 0.1,0.3,0.5 --trials 500 --seed 42 --format json
//! ```
//!
//! Output (JSON or CSV) contains no timing or environment data, so two
//! runs with the same spec diff byte for byte; wall-clock goes to stderr.

#![forbid(unsafe_code)]

use std::time::Instant;

use gqs_workloads::sweep::{
    parse_f64_list, parse_usize_list, replay_trial_flight, replay_trial_trace, report_csv,
    report_json_exec, timeline_buckets, BranchMode, BranchSpec, Exec, Mode, NetworkFamily,
    PatternFamily, ScenarioCell, ScenarioGrid, ScheduleFamily, StallLog, SweepOptions,
    TopologyFamily, TraceFormat,
};

const USAGE: &str = "\
gqs_sweep — streamed scenario-grid sweeps over the GQS decision procedures

USAGE:
    gqs_sweep [OPTIONS]

GRID (each LIST is a value `6`, a comma list `4,6,8`, or an inclusive
range `4..8` / `4..16:4` / `0.1..0.5:0.2` — float ranges need a step):
    --family <F>         topology family: complete|ring|oriented-ring|star|
                         grid|two-cliques-bridge|regions|random
                                                             [default: complete]
    --n <LIST>           system sizes                        [default: 4]
    --density <LIST>     edge probability in [0, 1], random family only
                                                             [default: 0.6]
    --regions <R>        region count, regions family only    [default: 3]
    --patterns <P>       pattern family: rotating|random|adversarial
                                                             [default: rotating]
    --pattern-count <K>  patterns per system (random/adversarial) [default: 3]
    --max-crashes <K>    max crashes per pattern (random)     [default: 1]
    --p-chan <LIST>      channel-failure probabilities in [0, 1] [default: 0.2]
    --loss <LIST>        per-channel message-loss probabilities in [0, 1]
                         for the simulated modes (solvability collapses
                         the axis)                           [default: 0]
    --schedule <LIST>    comma list of fault schedules for the simulated
                         modes: static|region-outage|flapping-link|
                         hub-crash|rolling-restart (solvability collapses
                         the axis)                           [default: static]
    --net <LIST>         comma list of network models for the simulated
                         modes: uniform|constant|jitter|lognormal|
                         lognormal-asym — per-channel-class delay
                         distributions, intra-region vs gateway WAN
                         (solvability collapses the axis)   [default: uniform]

EXECUTION:
    --mode <M>           solvability (decision procedures), latency
                         (simulated flooded ABD register: completion rate,
                         op latency, msgs/op), consensus (simulated
                         single-shot Figure-6 consensus: decided fraction,
                         views and time to decide, decision latency over
                         C x delta, msgs/op), availability (simulated
                         self-healing ABD register: unanswered requests
                         are rebroadcast every 150 ticks and replicas
                         apply each write once; no acks, no backoff:
                         completion rate, stalled ops, time-to-heal,
                         retransmits/op)
                         or scale (flooded gossip over the implicit
                         topology + sampled-arc majority ABD; families
                         complete|ring|grid|regions only; collapses the
                         pattern/schedule/loss/density axes)
                                               [default: solvability]

SIZE LIMITS: the decision modes build quorum systems and fail-prone
structures, bounded at n <= 1024 (gqs_core::MAX_PROCESSES); scale mode
runs implicit topologies up to n <= 4194304 (gqs_simnet::MAX_SIM_PROCESSES).
    --trials <N>         trials per cell                      [default: 100]
    --seed <S>           base seed                            [default: 42]
    --threads <T>        worker threads          [default: GQS_THREADS or auto]

BRANCHING (simulated modes latency|consensus|availability only; both
flags required together — every trial runs one warmup to the branch
point, snapshots the whole simulation, and fans out seeded continuations,
so the warmup cost is paid once per trial instead of once per branch):
    --branch-at <T>      fork each trial at simulated time T (must be
                         positive and below the mode's horizon: 200000
                         for consensus, 100000 for latency and
                         availability)
    --branches <N>       seeded continuations per trial (at least 1);
                         each contributes one row to the aggregates
    --branch-mode <M>    fork (checkpoint/restore) or straight (re-run
                         the warmup per branch; same output byte for
                         byte — a determinism cross-check) [default: fork]

OBSERVABILITY (simulated modes latency|consensus|availability only):
    --timeline <B>       sample windowed metrics every B simulated ticks:
                         events/window, completed ops/window and cumulative
                         availability per window, appended to the JSON
                         report as a per-cell \"timeline\" object. At most
                         256 windows per run (raise B on long horizons);
                         incompatible with --branch-at. Windowing is pure
                         observation — base aggregates are byte-identical
                         to the unwindowed run.
    --trace-out <PATH>   after the sweep, re-run one trial serially with
                         the trace plane attached and write the trace to
                         PATH. The replay processes the exact event
                         sequence the sweep aggregated (same per-trial
                         seeding; tracing never perturbs a run), so the
                         dump is byte-identical for any --threads. If the
                         traced trial hits its event cap, the flight
                         recorder's dump (stalled ops, armed timers, last
                         events) goes to stderr.
    --trace-cell <I>     grid-cell index of the trial to trace [default: 0]
    --trace-trial <T>    trial index within the cell           [default: 0]
    --trace-format <F>   jsonl (one event object per line) or chrome
                         (chrome://tracing / Perfetto array with causal
                         op and QAF phase spans)           [default: jsonl]

When a simulated trial hits its event cap (GQS_MAX_EVENTS overrides the
default of 50000000), the sweep still completes — the stalled trial
reports what it measured — and a one-line stderr hint names the first
stalled cell/trial so it can be replayed with the flags above.

OUTPUT:
    --format <json|csv>  output format                        [default: json]
    --out <PATH>         write to PATH instead of stdout
    -h, --help           print this help

Aggregates per cell and metric: count, mean, min, max, p50/p90/p99
(quantiles from a mergeable sketch, ~1.5% relative error). Metrics:
gqs, qs_plus, gap, w_min, sccs_f0 (solvability); completed, lat_mean,
lat_max, msgs_per_op (latency); decided, views, decide_lat,
lat_over_cdelta, msgs_per_op (consensus); completed, stalled,
time_to_heal, retransmits_per_op (availability); or reached, spread,
msgs_per_proc, abd_completed, abd_msgs_per_proc (scale) — all
deterministic, and every aggregate merges exactly, so the same grid and
seed give the same bytes for any thread count.
";

struct Args {
    family: TopologyFamily,
    ns: Vec<usize>,
    densities: Vec<f64>,
    regions: usize,
    schedules: Vec<ScheduleFamily>,
    nets: Vec<NetworkFamily>,
    pattern_kind: String,
    pattern_count: usize,
    max_crashes: usize,
    p_chans: Vec<f64>,
    losses: Vec<f64>,
    mode: Mode,
    trials: usize,
    seed: u64,
    threads: Option<usize>,
    exec: Exec,
    trace_out: Option<String>,
    trace_cell: Option<usize>,
    trace_trial: Option<usize>,
    trace_format: TraceFormat,
    format: String,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        family: TopologyFamily::Complete,
        ns: vec![4],
        densities: vec![0.6],
        regions: 3,
        schedules: vec![ScheduleFamily::Static],
        nets: vec![NetworkFamily::Uniform],
        pattern_kind: "rotating".to_string(),
        pattern_count: 3,
        max_crashes: 1,
        p_chans: vec![0.2],
        losses: vec![0.0],
        mode: Mode::Solvability,
        trials: 100,
        seed: 42,
        threads: None,
        exec: Exec::Straight,
        trace_out: None,
        trace_cell: None,
        trace_trial: None,
        trace_format: TraceFormat::Jsonl,
        format: "json".to_string(),
        out: None,
    };
    let (mut branch_at, mut branches, mut branch_mode) = (None, None, BranchMode::Fork);
    let mut timeline = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--family" => args.family = value()?.parse()?,
            "--n" => args.ns = parse_usize_list(&value()?)?,
            "--density" => args.densities = parse_f64_list(&value()?)?,
            "--regions" => {
                args.regions = value()?.parse().map_err(|e| format!("bad region count: {e}"))?
            }
            "--schedule" => {
                args.schedules = value()?
                    .split(',')
                    .map(|p| p.trim().parse::<ScheduleFamily>())
                    .collect::<Result<Vec<_>, _>>()?
            }
            "--net" => {
                args.nets = value()?
                    .split(',')
                    .map(|p| p.trim().parse::<NetworkFamily>())
                    .collect::<Result<Vec<_>, _>>()?
            }
            "--patterns" => args.pattern_kind = value()?,
            "--pattern-count" => {
                args.pattern_count = value()?.parse().map_err(|e| format!("bad count: {e}"))?
            }
            "--max-crashes" => {
                args.max_crashes = value()?.parse().map_err(|e| format!("bad count: {e}"))?
            }
            "--p-chan" => args.p_chans = parse_f64_list(&value()?)?,
            "--loss" => args.losses = parse_f64_list(&value()?)?,
            "--mode" => args.mode = value()?.parse()?,
            "--trials" => args.trials = value()?.parse().map_err(|e| format!("bad trials: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--threads" => {
                args.threads = Some(value()?.parse().map_err(|e| format!("bad threads: {e}"))?)
            }
            "--branch-at" => {
                branch_at = Some(value()?.parse().map_err(|e| format!("bad branch-at: {e}"))?)
            }
            "--branches" => {
                branches = Some(value()?.parse().map_err(|e| format!("bad branches: {e}"))?)
            }
            "--branch-mode" => {
                branch_mode = match value()?.as_str() {
                    "fork" => BranchMode::Fork,
                    "straight" => BranchMode::Straight,
                    other => {
                        return Err(format!(
                            "unknown branch mode {other:?} (expected fork|straight)"
                        ))
                    }
                }
            }
            "--timeline" => {
                timeline = Some(value()?.parse().map_err(|e| format!("bad timeline: {e}"))?)
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--trace-cell" => {
                args.trace_cell =
                    Some(value()?.parse().map_err(|e| format!("bad trace-cell: {e}"))?)
            }
            "--trace-trial" => {
                args.trace_trial =
                    Some(value()?.parse().map_err(|e| format!("bad trace-trial: {e}"))?)
            }
            "--trace-format" => {
                args.trace_format = match value()?.as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    other => {
                        return Err(format!(
                            "unknown trace format {other:?} (expected jsonl|chrome)"
                        ))
                    }
                }
            }
            "--format" => args.format = value()?,
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.pattern_count == 0 {
        return Err("--pattern-count must be at least 1".to_string());
    }
    if args.trials == 0 {
        return Err("--trials must be at least 1 (an empty grid reports nothing)".to_string());
    }
    if args.regions == 0 {
        return Err("--regions must be at least 1".to_string());
    }
    if args.schedules.is_empty() {
        return Err("--schedule needs at least one family".to_string());
    }
    for (flag, values) in
        [("--density", &args.densities), ("--p-chan", &args.p_chans), ("--loss", &args.losses)]
    {
        if let Some(v) = values.iter().find(|v| !(0.0..=1.0).contains(*v)) {
            return Err(format!("{flag} values must be in [0, 1] (got {v})"));
        }
    }
    if !matches!(args.format.as_str(), "json" | "csv") {
        return Err(format!("unknown format {:?} (expected json|csv)", args.format));
    }
    // Windowing, branching and trace replay act on one bounded protocol
    // simulation per trial: exactly the modes with a horizon.
    let mode = args.mode.name();
    args.exec = match (branch_at, branches, timeline) {
        (None, None, None) => Exec::Straight,
        (Some(_), None, _) => return Err("--branch-at needs --branches".to_string()),
        (None, Some(_), _) => return Err("--branches needs --branch-at".to_string()),
        (Some(_), Some(_), Some(_)) => {
            return Err("--timeline is incompatible with --branch-at (a branched trial has \
                        no single timeline)"
                .to_string())
        }
        (Some(at), Some(branches), None) => {
            let horizon = args.mode.horizon_for("--branch-at")?;
            if at == 0 {
                return Err("--branch-at must be positive (the warmup must run before the fork)"
                    .to_string());
            }
            if at >= horizon {
                return Err(format!(
                    "--branch-at {at} is at or past the --mode {mode} horizon of {horizon}"
                ));
            }
            if branches == 0 {
                return Err("--branches must be at least 1".to_string());
            }
            Exec::Branched(BranchSpec { at, branches, mode: branch_mode })
        }
        (None, None, Some(bucket)) => {
            let horizon = args.mode.horizon_for("--timeline")?;
            if bucket == 0 {
                return Err("--timeline bucket must be positive".to_string());
            }
            let buckets = timeline_buckets(bucket, horizon);
            if buckets > 256 {
                return Err(format!(
                    "--timeline {bucket} yields {buckets} windows over the --mode {mode} horizon \
                     of {horizon}; raise the bucket so at most 256 windows remain"
                ));
            }
            Exec::Timeline(bucket)
        }
    };
    if args.trace_out.is_some() {
        args.mode.horizon_for("--trace-out")?;
        if matches!(args.exec, Exec::Branched(_)) {
            return Err("--trace-out is incompatible with --branch-at (trace replay re-runs \
                        the straight trial)"
                .to_string());
        }
    } else if args.trace_cell.is_some() || args.trace_trial.is_some() {
        return Err("--trace-cell/--trace-trial need --trace-out".to_string());
    }
    Ok(args)
}

fn build_grid(args: &Args) -> Result<ScenarioGrid, String> {
    let patterns = match args.pattern_kind.as_str() {
        "rotating" => PatternFamily::Rotating,
        "random" => {
            PatternFamily::Random { patterns: args.pattern_count, max_crashes: args.max_crashes }
        }
        "adversarial" => PatternFamily::Adversarial { patterns: args.pattern_count },
        other => {
            return Err(format!(
                "unknown pattern family {other:?} (expected rotating|random|adversarial)"
            ))
        }
    };
    let family = match args.family {
        TopologyFamily::Regions { .. } => TopologyFamily::Regions { regions: args.regions },
        f => f,
    };
    let scale = args.mode == Mode::Scale;
    if scale && family.implicit(2).is_none() {
        return Err(format!(
            "--mode scale needs an implicit topology family (complete|ring|grid|regions), not {}",
            family.name()
        ));
    }
    let (n_cap, cap_origin) = args.mode.size_cap();
    // Non-random families ignore density; collapse that axis so the grid
    // has no duplicate cells. Only the simulated modes (the ones with a
    // horizon) execute anything under a schedule, loss rate or network
    // model — solvability decides existence, scale runs fault-free — so
    // those axes collapse everywhere else; scale ignores patterns too.
    let simulated = args.mode.horizon().is_some();
    let densities: &[f64] = if family == TopologyFamily::Random { &args.densities } else { &[1.0] };
    let schedules: &[ScheduleFamily] =
        if simulated { &args.schedules } else { &[ScheduleFamily::Static] };
    let losses: &[f64] = if simulated { &args.losses } else { &[0.0] };
    let nets: &[NetworkFamily] = if simulated { &args.nets } else { &[NetworkFamily::Uniform] };
    let p_chans: &[f64] = if scale { &[0.0] } else { &args.p_chans };
    let mut cells = Vec::new();
    for &n in &args.ns {
        if n < 2 {
            return Err(format!("--n values must be at least 2 (got {n})"));
        }
        if n > n_cap {
            return Err(format!(
                "--n {n} exceeds the --mode {} limit of {n_cap} ({cap_origin})",
                args.mode.name()
            ));
        }
        if let TopologyFamily::Regions { regions } = family {
            if n < regions {
                return Err(format!(
                    "--n {n} is smaller than --regions {regions} (every region needs a process)"
                ));
            }
        }
        for &density in densities {
            for &p_chan in p_chans {
                for &loss in losses {
                    for &schedule in schedules {
                        for &net in nets {
                            cells.push(ScenarioCell {
                                family,
                                n,
                                density,
                                patterns,
                                p_chan,
                                loss,
                                schedule,
                                net,
                            });
                        }
                    }
                }
            }
        }
    }
    if cells.is_empty() {
        return Err("the grid is empty: every axis needs at least one value".to_string());
    }
    Ok(ScenarioGrid { cells, trials: args.trials, seed: args.seed })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gqs_sweep: {e}");
            std::process::exit(2);
        }
    };
    let grid = match build_grid(&args) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("gqs_sweep: {e}");
            std::process::exit(2);
        }
    };
    // The trial to trace, checked against the grid before the sweep runs:
    // a bad coordinate found afterwards would discard a finished report.
    let (cell, trial) = (args.trace_cell.unwrap_or(0), args.trace_trial.unwrap_or(0));
    if args.trace_out.is_some() {
        if let Err(e) = grid.locate(cell, trial) {
            eprintln!("gqs_sweep: cannot trace cell {cell} trial {trial}: {e}");
            std::process::exit(2);
        }
    }
    let stall_log: StallLog = StallLog::default();
    let opts = SweepOptions { threads: args.threads, stall_log: Some(stall_log.clone()) };
    let start = Instant::now();
    let report = grid.run_mode(args.mode, &args.exec, &opts);
    let elapsed = start.elapsed();
    let total_trials = grid.trials * grid.cells.len();
    eprintln!(
        "gqs_sweep: {} cells x {} trials in {:.2?} ({:.0} trials/s)",
        grid.cells.len(),
        grid.trials,
        elapsed,
        total_trials as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    // Stall diagnostics: the parallel engine pushes in worker order, so
    // sort before naming "the first" stalled trial.
    let mut stalls = stall_log.lock().expect("stall log poisoned").clone();
    stalls.sort();
    if let Some(first) = stalls.first() {
        eprintln!(
            "gqs_sweep: {} trial(s) hit the event cap; first: cell {} trial {} with {} stalled \
             op(s) — replay it with --trace-out stall.jsonl --trace-cell {} --trace-trial {}",
            stalls.len(),
            first.cell,
            first.trial,
            first.stalled_ops,
            first.cell,
            first.trial,
        );
    }
    if let Some(path) = &args.trace_out {
        let trace = match replay_trial_trace(&grid, args.mode, cell, trial, args.trace_format) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("gqs_sweep: cannot trace cell {cell} trial {trial}: {e}");
                std::process::exit(2);
            }
        };
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("gqs_sweep: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("gqs_sweep: wrote trace of cell {cell} trial {trial} to {path}");
        // The flight recorder dumps exactly when the traced trial hit its
        // event cap: stalled ops, armed timers, the last events.
        match replay_trial_flight(&grid, args.mode, cell, trial) {
            Ok(Some(dump)) => eprintln!("{dump}"),
            Ok(None) => {}
            Err(e) => eprintln!("gqs_sweep: flight replay failed: {e}"),
        }
    }
    let rendered = match args.format.as_str() {
        "json" => report_json_exec(&grid, &report, &args.exec),
        _ => report_csv(&grid, &report),
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("gqs_sweep: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("gqs_sweep: wrote {path}");
        }
        None => print!("{rendered}"),
    }
}
