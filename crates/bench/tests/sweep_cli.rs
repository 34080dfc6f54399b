//! Golden tests for the `gqs_sweep` binary: every file under
//! `crates/bench/golden/` must be reproduced byte for byte by the
//! invocation recorded in [`GOLDENS`], for any thread count — the
//! CLI-level face of the sweep engine's determinism contract. The rest
//! of the file checks output shapes and flag validation.
//!
//! Portability note: the quantile sketch's bucket boundaries go through
//! `f64::ln`/`powi`, whose last-ulp rounding is libm-specific. The
//! determinism promise (same bytes for any thread count / shard size) is
//! per-platform; on a toolchain whose libm rounds differently, regenerate
//! the golden files once rather than chasing the final digits.

use std::process::Command;

/// Every golden file under `crates/bench/golden/` with the exact
/// command line that produced it. Reports come out of `--out`, the trace
/// dump out of `--trace-out`; after an intentional change to the metrics,
/// the sketch, a protocol, the simulator or an output shape, regenerate
/// with `gqs_sweep ARGS --out crates/bench/golden/FILE`.
const GOLDENS: &[(&str, &str)] = &[
    (
        "tiny_sweep.json",
        "--family two-cliques-bridge --n 6 --patterns rotating --p-chan 0.25 --trials 8 --seed 7 \
         --format json",
    ),
    (
        "tiny_latency.json",
        "--mode latency --family ring --n 5 --patterns rotating --p-chan 0,0.3 --trials 6 \
         --seed 11 --format json",
    ),
    // A 3-region WAN under a staggered region-outage schedule.
    (
        "tiny_consensus.json",
        "--mode consensus --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 \
         --schedule region-outage --trials 4 --seed 13 --format json",
    ),
    // The same WAN and schedule with 10% per-channel message loss, over
    // the self-healing register stack.
    (
        "tiny_availability.json",
        "--mode availability --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 \
         --loss 0.1 --schedule region-outage --trials 4 --seed 17 --format json",
    ),
    // Every schedule family, lossless and lossy, on the same WAN: the
    // availability row pins the latency-mode timing of each fault schedule,
    // the consensus row the consensus-mode timing.
    (
        "tiny_schedules.json",
        "--mode availability --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 \
         --loss 0,0.1 --schedule static,region-outage,flapping-link,hub-crash,rolling-restart \
         --trials 4 --seed 23 --format json",
    ),
    (
        "tiny_schedules_consensus.json",
        "--mode consensus --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 \
         --loss 0,0.1 --schedule static,region-outage,flapping-link,hub-crash,rolling-restart \
         --trials 4 --seed 23 --format json",
    ),
    // The consensus WAN forked at t = 2000 into three reseeded branches
    // per trial (fork replay: checkpoint once, restore per branch).
    (
        "tiny_branched.json",
        "--mode consensus --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 \
         --schedule region-outage --trials 4 --seed 13 --branch-at 2000 --branches 3 \
         --format json",
    ),
    // Heavy-tailed lognormal delays with 5% message loss. The polar-method
    // normal sampler consumes a variable number of RNG draws per delay, so
    // this golden pins both the sampler's cross-run determinism and its
    // thread-invariance.
    (
        "tiny_lognormal.json",
        "--mode latency --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 \
         --loss 0.05 --net lognormal --trials 6 --seed 19 --format json",
    ),
    // Gossip, then sampled-arc ABD, on implicit rings. At n = 30 000 one
    // ABD arc queues ≈ 1500 deliveries in a single tick, so the timing
    // wheel's slots hold several chunks each.
    (
        "tiny_scale.json",
        "--mode scale --family ring --n 3000,30000 --trials 2 --seed 29 --format json",
    ),
    // Trial 1 of the self-healing register over a lossy complete graph — a
    // run whose trace exercises the whole vocabulary (sends, delivers,
    // lossy drops, retransmissions, timers, op and QAF phase spans). The
    // replay is serial and seeded exactly like the parallel engine seeds
    // the trial, so the dump does not depend on the thread count either.
    (
        "tiny_trace.jsonl",
        "--mode availability --family complete --n 4 --patterns rotating --p-chan 0.2 --loss 0.2 \
         --trials 2 --seed 11 --trace-trial 1",
    ),
];

/// The recorded invocation of golden file `file`, followed by `extra`.
fn golden_args<'a>(file: &str, extra: &[&'a str]) -> Vec<&'a str> {
    let (_, line) = GOLDENS.iter().find(|(f, _)| *f == file).expect("a row of GOLDENS");
    line.split_whitespace().chain(extra.iter().copied()).collect()
}

fn golden_bytes(file: &str) -> String {
    let path = format!("{}/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Runs `gqs_sweep` with `args` and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep")).args(args).output().expect("runs");
    assert!(out.status.success(), "gqs_sweep failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

/// The check behind every golden test: the recorded invocation
/// reproduces the file's bytes at `GQS_THREADS=1` and `=8`, and the file
/// contains `needles` (so a regenerated golden cannot silently lose what
/// it is there to pin).
fn assert_matches_golden(file: &str, needles: &[&str]) {
    let golden = golden_bytes(file);
    let out_flag = if file.ends_with(".jsonl") { "--trace-out" } else { "--out" };
    for threads in ["1", "8"] {
        let path = std::env::temp_dir().join(format!("gqs_golden_t{threads}_{file}"));
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .env("GQS_THREADS", threads)
            .args(golden_args(file, &[]))
            .arg(out_flag)
            .arg(&path)
            .output()
            .expect("gqs_sweep runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let got = std::fs::read_to_string(&path).expect("output written");
        let _ = std::fs::remove_file(&path);
        assert!(
            got == golden,
            "GQS_THREADS={threads} output drifted from golden/{file}; if the change is \
             intentional, regenerate the file (see GOLDENS)"
        );
    }
    for needle in needles {
        assert!(golden.contains(needle), "golden/{file} lacks {needle}");
    }
}

#[test]
fn tiny_grid_matches_golden_aggregate() {
    assert_matches_golden("tiny_sweep.json", &[]);
}

#[test]
fn tiny_latency_grid_matches_golden_aggregate() {
    assert_matches_golden(
        "tiny_latency.json",
        &["\"metrics\": [\"completed\", \"lat_mean\", \"lat_max\", \"msgs_per_op\"]"],
    );
}

#[test]
fn tiny_consensus_grid_matches_golden_aggregate() {
    assert_matches_golden(
        "tiny_consensus.json",
        &[
            "\"metrics\": [\"decided\", \"views\", \"decide_lat\", \"lat_over_cdelta\", \"msgs_per_op\"]",
            "\"schedule\": \"region-outage\"",
        ],
    );
}

#[test]
fn tiny_availability_grid_matches_golden_aggregate() {
    assert_matches_golden(
        "tiny_availability.json",
        &[
            "\"metrics\": [\"completed\", \"stalled\", \"time_to_heal\", \"retransmits_per_op\"]",
            "\"loss\": 0.1",
        ],
    );
}

const SCHEDULES: [&str; 5] = [
    "\"schedule\": \"static\"",
    "\"schedule\": \"region-outage\"",
    "\"schedule\": \"flapping-link\"",
    "\"schedule\": \"hub-crash\"",
    "\"schedule\": \"rolling-restart\"",
];

#[test]
fn tiny_schedules_grid_matches_golden_aggregate() {
    assert_matches_golden("tiny_schedules.json", &SCHEDULES);
}

#[test]
fn tiny_schedules_consensus_grid_matches_golden_aggregate() {
    assert_matches_golden("tiny_schedules_consensus.json", &SCHEDULES);
}

/// Forked branches match the golden, and so does re-running each branch
/// from time zero: `--branch-mode straight` must be the same bytes.
#[test]
fn tiny_branched_grid_matches_golden_forked_and_straight() {
    assert_matches_golden("tiny_branched.json", &["\"branch_at\": 2000", "\"branches\": 3"]);
    let straight = stdout_of(&golden_args("tiny_branched.json", &["--branch-mode", "straight"]));
    assert_eq!(straight, golden_bytes("tiny_branched.json"), "fork and straight replay differ");
}

#[test]
fn tiny_lognormal_grid_matches_golden_aggregate() {
    assert_matches_golden("tiny_lognormal.json", &["\"net\": \"lognormal\""]);
}

#[test]
fn tiny_scale_grid_matches_golden_aggregate() {
    assert_matches_golden("tiny_scale.json", &["\"n\": 30000"]);
}

#[test]
fn trace_dump_matches_golden_and_is_thread_invariant() {
    // The dump covers the whole event loop and the protocol spans.
    assert_matches_golden(
        "tiny_trace.jsonl",
        &[
            "\"ev\":\"send\"",
            "\"ev\":\"deliver\"",
            "\"ev\":\"drop_lossy\"",
            "\"ev\":\"op_start\"",
            "\"ev\":\"op_end\"",
            "\"ev\":\"span_start\",\"p\":",
            "\"label\":\"qaf_get\"",
            "\"label\":\"qaf_set\"",
        ],
    );
}

/// `--net uniform` is the degenerate case: it routes delays through the
/// NetModel path but must reproduce the plain-DelayModel golden byte for
/// byte (same draws, same omitted JSON field).
#[test]
fn explicit_uniform_net_reproduces_the_latency_golden() {
    let got = stdout_of(&golden_args("tiny_latency.json", &["--net", "uniform"]));
    assert_eq!(
        got,
        golden_bytes("tiny_latency.json"),
        "--net uniform must be byte-identical to the default path"
    );
}

#[test]
fn net_axis_multiplies_latency_cells() {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args([
            "--mode",
            "latency",
            "--family",
            "ring",
            "--n",
            "4",
            "--p-chan",
            "0",
            "--net",
            "uniform,constant,jitter",
            "--trials",
            "2",
            "--seed",
            "3",
            "--format",
            "csv",
        ])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    // 3 network families x 4 latency metrics + header.
    assert_eq!(text.lines().count(), 1 + 3 * 4);
    assert!(text.contains(",uniform,"));
    assert!(text.contains(",constant,"));
    assert!(text.contains(",jitter,"));
}

#[test]
fn unknown_mode_fails_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args(["--mode", "throughput"])
        .output()
        .expect("gqs_sweep runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("solvability|latency|consensus|availability")
    );
}

#[test]
fn json_output_is_well_formed() {
    let got = stdout_of(&golden_args("tiny_sweep.json", &["--threads", "4"]));
    // A minimal structural check (no JSON parser in-tree): balanced
    // braces/brackets outside strings and the expected top-level keys.
    let (mut depth, mut max_depth) = (0i64, 0i64);
    let mut in_string = false;
    let mut prev = ' ';
    for ch in got.chars() {
        if in_string {
            if ch == '"' && prev != '\\' {
                in_string = false;
            }
        } else {
            match ch {
                '"' => in_string = true,
                '{' | '[' => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced closers");
        }
        prev = ch;
    }
    assert_eq!(depth, 0, "unbalanced braces");
    assert!(max_depth >= 3, "expected nested cells/aggregates");
    for key in ["\"schema\"", "\"metrics\"", "\"cells\"", "\"aggregates\"", "\"complete\""] {
        assert!(got.contains(key), "missing {key}");
    }
}

#[test]
fn csv_output_has_one_row_per_cell_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args([
            "--family", "ring", "--n", "4,6", "--p-chan", "0.1,0.3", "--trials", "4", "--seed",
            "1", "--format", "csv",
        ])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // 2 n-values x 2 p-chan values x 5 metrics + header.
    assert_eq!(text.lines().count(), 1 + 2 * 2 * 5);
    assert!(text.starts_with("family,n,density,patterns,p_chan,loss,schedule,net,trials,metric,"));
}

#[test]
fn schedule_axis_multiplies_latency_cells() {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args([
            "--mode",
            "latency",
            "--family",
            "ring",
            "--n",
            "4",
            "--p-chan",
            "0",
            "--schedule",
            "static,rolling-restart",
            "--trials",
            "2",
            "--seed",
            "3",
            "--format",
            "csv",
        ])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    // 2 schedules x 4 latency metrics + header.
    assert_eq!(text.lines().count(), 1 + 2 * 4);
    assert!(text.contains(",static,"));
    assert!(text.contains(",rolling-restart,"));
}

#[test]
fn chrome_trace_is_one_json_array_of_the_same_run() {
    let path = std::env::temp_dir().join("gqs_tiny_trace.chrome.json");
    let dump = ["--trace-out", path.to_str().unwrap(), "--trace-format", "chrome"];
    stdout_of(&golden_args("tiny_trace.jsonl", &dump));
    let trace = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    assert!(trace.starts_with('[') && trace.ends_with("]\n"), "not a JSON array");
    // Async span pairs: every begin has an end with the same id scheme.
    assert_eq!(trace.matches("\"ph\":\"b\"").count(), trace.matches("\"ph\":\"e\"").count());
    assert!(trace.contains("\"cat\":\"proto\""));
    assert!(trace.contains("\"cat\":\"op\""));
}

#[test]
fn event_capped_sweeps_hint_at_the_trace_plane_and_dump_the_flight_recorder() {
    let path = std::env::temp_dir().join("gqs_stalled_trace.jsonl");
    // A region outage with heavy loss, truncated by a tiny event cap:
    // every trial stalls.
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .env("GQS_MAX_EVENTS", "200")
        .args([
            "--mode",
            "availability",
            "--family",
            "regions",
            "--regions",
            "2",
            "--n",
            "4",
            "--p-chan",
            "0",
            "--loss",
            "0.3",
            "--schedule",
            "region-outage",
            "--trials",
            "2",
            "--seed",
            "7",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Satellite: the stall hint names the first stalled (cell, trial) and
    // points at the replay flags.
    assert!(stderr.contains("hit the event cap"), "no stall hint:\n{stderr}");
    assert!(stderr.contains("--trace-cell 0 --trace-trial 0"), "hint lacks coordinates:\n{stderr}");
    // Tentpole: the flight recorder fires on the traced stalled trial,
    // naming pending ops and armed timers.
    assert!(stderr.contains("flight recorder: event cap hit"), "no flight dump:\n{stderr}");
    assert!(stderr.contains("pending ops"), "flight dump lacks pending ops:\n{stderr}");
    assert!(stderr.contains("armed timers"), "flight dump lacks armed timers:\n{stderr}");
}

#[test]
fn timeline_json_renders_windowed_series() {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args([
            "--mode",
            "latency",
            "--family",
            "ring",
            "--n",
            "5",
            "--p-chan",
            "0",
            "--trials",
            "2",
            "--seed",
            "3",
            "--timeline",
            "25000",
        ])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"timeline_bucket\": 25000"));
    assert!(text.contains("\"timeline\": {\"bucket\": 25000, \"events\": ["));
    assert!(text.contains("\"ops\": ["));
    assert!(text.contains("\"avail\": ["));
    // Base metrics render as usual; the window columns stay internal.
    assert!(
        text.contains("\"metrics\": [\"completed\", \"lat_mean\", \"lat_max\", \"msgs_per_op\"]")
    );
    assert!(!text.contains("tl_"));
}

#[test]
fn observability_flag_validation_fails_cleanly() {
    let cases: &[&[&str]] = &[
        // Trace replay needs a simulated mode.
        &["--trace-out", "/tmp/x.jsonl"],
        // Coordinates without a dump target are meaningless.
        &["--mode", "latency", "--trace-cell", "0"],
        // Branched trials have no single straight replay or timeline.
        &[
            "--mode",
            "consensus",
            "--branch-at",
            "100",
            "--branches",
            "2",
            "--trace-out",
            "/tmp/x.jsonl",
        ],
        &["--mode", "consensus", "--branch-at", "100", "--branches", "2", "--timeline", "1000"],
        // Timeline needs a simulated mode, a positive bucket, and at most
        // 256 windows.
        &["--timeline", "1000"],
        &["--mode", "latency", "--timeline", "0"],
        &["--mode", "latency", "--timeline", "10"],
        // Unknown trace format.
        &["--mode", "latency", "--trace-out", "/tmp/x.jsonl", "--trace-format", "xml"],
        // Trace coordinates outside the grid (one cell, 100 trials).
        &["--mode", "latency", "--trace-out", "/tmp/x.jsonl", "--trace-cell", "1"],
        &["--mode", "latency", "--trace-out", "/tmp/x.jsonl", "--trace-trial", "100"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .args(*args)
            .output()
            .expect("gqs_sweep runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        // Refused before anything ran: a message, no sweep summary, no
        // report.
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.is_empty() && !stderr.contains("trials/s"), "args {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "args {args:?} must print no report");
    }
}

#[test]
fn bad_flags_fail_cleanly() {
    for args in [&["--family", "moebius"][..], &["--n", "potato"], &["--format", "yaml"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .args(args)
            .output()
            .expect("gqs_sweep runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        assert!(!out.stderr.is_empty());
    }
}
