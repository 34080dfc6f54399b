//! Hardening tests for the `gqs_sweep` grid grammar and grid-shape
//! validation: every malformed axis — reversed ranges, zero or negative
//! steps, garbage values, empty/zero-trial grids — must exit with code 2
//! and one clear line on stderr, never a panic and never silent empty
//! output.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_gqs_sweep")).args(args).output().expect("gqs_sweep runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Asserts `args` fail with exit 2 and a single one-line `gqs_sweep:`
/// error mentioning `needle` (no panic backtraces, no multi-line dumps).
fn assert_clean_error(args: &[&str], needle: &str) {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?} must exit 2, stderr: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr must mention {needle:?}, got: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} must not panic: {stderr}");
    let error_lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(error_lines.len(), 1, "{args:?}: expected one error line, got: {stderr}");
    assert!(error_lines[0].starts_with("gqs_sweep: "), "error line is prefixed: {stderr}");
}

#[test]
fn reversed_integer_range_is_a_clear_error() {
    assert_clean_error(&["--n", "16..4:4"], "reversed range");
    assert_clean_error(&["--n", "8..4"], "reversed range");
}

#[test]
fn reversed_float_range_is_a_clear_error() {
    assert_clean_error(&["--p-chan", "0.5..0.1:0.1"], "reversed range");
}

#[test]
fn zero_step_is_a_clear_error() {
    assert_clean_error(&["--n", "4..16:0"], "zero step");
    assert_clean_error(&["--p-chan", "0.1..0.5:0"], "non-positive step");
}

#[test]
fn negative_step_is_a_clear_error() {
    assert_clean_error(&["--n", "4..16:-4"], "negative value");
    assert_clean_error(&["--p-chan", "0.1..0.5:-0.2"], "non-positive step");
}

#[test]
fn stepless_float_range_is_a_clear_error() {
    assert_clean_error(&["--p-chan", "0.1..0.5"], "needs a step");
}

#[test]
fn absurdly_fine_float_step_is_rejected_not_hung() {
    // A pathological step must not spin generating 10^300 grid points.
    assert_clean_error(&["--p-chan", "0..1:1e-300"], "over a million points");
    // Nor may an integer range try to allocate its 10^15 points (this one
    // used to abort the process on an 8 PB allocation).
    assert_clean_error(&["--n", "2..1000000000000000"], "over a million points");
}

#[test]
fn garbage_values_are_clear_errors() {
    assert_clean_error(&["--n", ""], "bad integer");
    assert_clean_error(&["--n", "4,,8"], "bad integer");
    assert_clean_error(&["--p-chan", "0.1,zebra"], "bad number");
    assert_clean_error(&["--n", "4.5..8"], "non-integer");
    // The shard size is the engine's own choice, not a knob.
    assert_clean_error(&["--shard", "7"], "unknown flag");
}

#[test]
fn zero_trials_is_an_error_not_silent_empty_output() {
    assert_clean_error(&["--trials", "0"], "--trials must be at least 1");
}

#[test]
fn degenerate_grid_axes_are_errors() {
    assert_clean_error(&["--n", "1"], "--n values must be at least 2");
    assert_clean_error(&["--regions", "0"], "--regions must be at least 1");
    assert_clean_error(
        &["--family", "regions", "--regions", "5", "--n", "4"],
        "every region needs a process",
    );
    assert_clean_error(&["--schedule", "meteor-strike"], "unknown schedule family");
    assert_clean_error(&["--net", "carrier-pigeon"], "unknown network family");
    assert_clean_error(&["--net", "lognormal,,jitter"], "unknown network family");
}

#[test]
fn loss_axis_rejects_garbage_and_out_of_range_values() {
    assert_clean_error(&["--loss", "zebra"], "bad number");
    assert_clean_error(&["--loss", "0.1,,0.3"], "bad number");
    assert_clean_error(&["--loss", "0.5..0.1:0.1"], "reversed range");
    assert_clean_error(&["--loss", "0.1..0.5"], "needs a step");
    assert_clean_error(&["--loss", "1.5"], "must be in [0, 1]");
    assert_clean_error(&["--loss", "-0.1"], "must be in [0, 1]");
    assert_clean_error(&["--loss", "0.1,2.0"], "must be in [0, 1]");
}

#[test]
fn probability_axes_reject_non_finite_and_out_of_range_values() {
    // Each of these used to run: the non-finite ones the whole sweep
    // before a panic (exit 101) while rendering the cell header, the
    // out-of-range ones to exit 0 with a meaningless probability.
    assert_clean_error(&["--p-chan", "nan"], "non-finite number");
    assert_clean_error(&["--p-chan", "inf"], "non-finite number");
    assert_clean_error(&["--family", "random", "--density", "nan"], "non-finite number");
    assert_clean_error(&["--p-chan", "-0.5"], "--p-chan values must be in [0, 1]");
    assert_clean_error(&["--p-chan", "1.5"], "--p-chan values must be in [0, 1]");
    assert_clean_error(
        &["--family", "random", "--density", "1.5"],
        "--density values must be in [0, 1]",
    );
    assert_clean_error(&["--density", "-0.1"], "--density values must be in [0, 1]");
    // A non-finite range endpoint or step used to collapse silently into
    // one cell.
    assert_clean_error(&["--p-chan", "0.1..nan:0.1"], "non-finite bound");
    assert_clean_error(&["--p-chan", "0..1:nan"], "non-finite step");
    assert_clean_error(&["--p-chan", "0..inf:0.5"], "non-finite bound");
    assert_clean_error(&["--n", "4..inf"], "non-finite bound");
}

#[test]
fn availability_mode_flags_are_validated() {
    assert_clean_error(&["--mode", "availabilty"], "unknown mode");
    // A valid availability spec runs and reports its metrics.
    let (code, _) = run(&[
        "--mode",
        "availability",
        "--n",
        "4",
        "--loss",
        "0.2",
        "--trials",
        "1",
        "--format",
        "csv",
    ]);
    assert_eq!(code, Some(0), "a well-formed availability sweep runs");
}

#[test]
fn decision_modes_reject_n_beyond_the_bitset_bound() {
    // Every mode that builds quorum systems or fail-prone structures is
    // capped at gqs_core::MAX_PROCESSES — a clean one-line refusal, not a
    // bitset panic deep inside a worker thread.
    for mode in ["solvability", "latency", "consensus", "availability"] {
        assert_clean_error(&["--mode", mode, "--n", "1025"], "limit of 1024");
        assert_clean_error(&["--mode", mode, "--n", "4,2000"], "limit of 1024");
    }
}

#[test]
fn scale_mode_rejects_n_beyond_the_simulator_cap() {
    assert_clean_error(&["--mode", "scale", "--n", "4194305"], "limit of 4194304");
    // But sizes past the decision bound are exactly what the mode is for.
    let (code, _) = run(&[
        "--mode", "scale", "--family", "ring", "--n", "2000", "--trials", "1", "--format", "csv",
    ]);
    assert_eq!(code, Some(0), "scale mode runs past MAX_PROCESSES");
}

#[test]
fn scale_mode_rejects_families_without_an_implicit_form() {
    for family in ["star", "oriented-ring", "two-cliques-bridge", "random"] {
        assert_clean_error(
            &["--mode", "scale", "--family", family, "--n", "100"],
            "needs an implicit topology family",
        );
    }
}

#[test]
fn branch_flags_are_validated() {
    // Garbage values never reach the engine.
    assert_clean_error(
        &["--mode", "consensus", "--branch-at", "zebra", "--branches", "2"],
        "bad branch-at",
    );
    assert_clean_error(
        &["--mode", "consensus", "--branch-at", "600", "--branches", "x"],
        "bad branches",
    );
    assert_clean_error(
        &["--mode", "consensus", "--branch-at", "-5", "--branches", "2"],
        "bad branch-at",
    );
    // Zero is meaningless on either flag.
    assert_clean_error(
        &["--mode", "consensus", "--branch-at", "0", "--branches", "2"],
        "--branch-at must be positive",
    );
    assert_clean_error(
        &["--mode", "consensus", "--branch-at", "600", "--branches", "0"],
        "--branches must be at least 1",
    );
    // A branch point at or past the mode's horizon leaves no run to fork.
    assert_clean_error(
        &["--mode", "consensus", "--branch-at", "200000", "--branches", "2"],
        "past the --mode consensus horizon of 200000",
    );
    for mode in ["latency", "availability"] {
        assert_clean_error(
            &["--mode", mode, "--branch-at", "100000", "--branches", "2"],
            &format!("past the --mode {mode} horizon of 100000"),
        );
    }
    // Branching only exists for the modes whose trial is one simulation
    // to fork; the others refuse it the way they refuse --timeline and
    // --trace-out.
    for mode in ["solvability", "scale"] {
        for flags in [
            &["--branch-at", "600", "--branches", "2"][..],
            &["--timeline", "25000"],
            &["--trace-out", "/tmp/x.jsonl"],
        ] {
            assert_clean_error(
                &[&["--mode", mode], flags].concat(),
                &format!("{} needs --mode latency, consensus or availability", flags[0]),
            );
        }
    }
    // The flags come as a pair.
    assert_clean_error(&["--mode", "consensus", "--branch-at", "600"], "needs --branches");
    assert_clean_error(&["--mode", "consensus", "--branches", "2"], "needs --branch-at");
    assert_clean_error(
        &["--mode", "consensus", "--branch-at", "600", "--branches", "2", "--branch-mode", "zig"],
        "unknown branch mode",
    );
    // A well-formed branched sweep runs in every simulated mode.
    for mode in ["latency", "consensus", "availability"] {
        let (code, _) = run(&[
            "--mode",
            mode,
            "--n",
            "4",
            "--trials",
            "1",
            "--branch-at",
            "600",
            "--branches",
            "2",
            "--format",
            "csv",
        ]);
        assert_eq!(code, Some(0), "a well-formed branched {mode} sweep runs");
    }
}

#[test]
fn well_formed_edge_ranges_still_parse() {
    // The hardening must not reject legitimate degenerate-looking input.
    let (code, _) = run(&["--n", "4..4", "--trials", "1", "--format", "csv"]);
    assert_eq!(code, Some(0), "a single-point range is valid");
    let (code, _) = run(&["--p-chan", "0.3..0.3:0.1", "--trials", "1", "--format", "csv"]);
    assert_eq!(code, Some(0), "an on-boundary float range is valid");
}

#[test]
fn float_range_endpoints_survive_to_the_grid() {
    // Regression for the repeated-addition drift: `0..0.5:0.05` must
    // yield all 11 on-grid points — including an exact 0.5 row, not a
    // 0.49999999999999994 one — so the cell count and the printed axis
    // values are what the user asked for.
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args(["--p-chan", "0..0.5:0.05", "--trials", "1", "--format", "csv"])
        .output()
        .expect("gqs_sweep runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    // 11 p-chan points x 5 solvability metrics + header.
    assert_eq!(text.lines().count(), 1 + 11 * 5, "grid lost an endpoint cell:\n{text}");
    assert!(text.contains(",0.5,"), "the 0.5 endpoint must print exactly:\n{text}");
    assert!(!text.contains("0.49999"), "no drifted endpoint values:\n{text}");
}
