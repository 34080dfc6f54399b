//! Golden test for the `tables` binary: its stdout (E1–E12) must equal
//! `crates/bench/golden/tables.txt` byte for byte at `GQS_THREADS=1` and
//! `=8`. After an intentional change to an experiment, regenerate with
//! `tables > crates/bench/golden/tables.txt`.

use std::process::{Command, Output};

const GOLDEN: &str = include_str!("../golden/tables.txt");

fn tables(threads: &str, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tables"));
    cmd.env("GQS_THREADS", threads).args(args).output().expect("tables runs")
}

/// Experiment `id`'s block of the golden: its header line up to the next
/// experiment's header (or the end).
fn golden_block(id: &str) -> &'static str {
    let start = GOLDEN.find(&format!("== {id}: ")).expect("id is in the golden");
    let len = GOLDEN[start + 1..].find("\n== ").map_or(GOLDEN.len() - start, |next| next + 2);
    &GOLDEN[start..start + len]
}

#[test]
fn tables_match_golden_for_any_thread_count() {
    for threads in ["1", "8"] {
        let out = tables(threads, &[]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(out.stdout == GOLDEN.as_bytes(), "GQS_THREADS={threads} drifted from golden");
    }
}

#[test]
fn selected_experiments_match_their_golden_blocks() {
    let expected = format!("{}{}", golden_block("E1"), golden_block("E12"));
    for threads in ["1", "8"] {
        let out = tables(threads, &["E1", "e12"]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "GQS_THREADS={threads}");
    }
}

#[test]
fn unknown_experiment_id_fails_cleanly() {
    // A bare unknown id, and a known id followed by a comma-joined typo.
    for args in [&["E99"][..], &["E2", "E2,E11"]] {
        let out = tables("8", args);
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        assert!(out.stdout.is_empty(), "args {args:?} must print no table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "args {args:?}: {stderr}");
        let bad = args.last().unwrap();
        assert!(stderr.contains(bad) && stderr.contains("E1 E2"), "args {args:?}: {stderr}");
    }
}
