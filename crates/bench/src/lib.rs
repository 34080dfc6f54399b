//! # Benchmark harness for the GQS reproduction
//!
//! * The [`tables`](../tables/index.html) binary (`cargo run -p gqs-bench
//!   --bin tables --release`) regenerates every experiment table E1–E12
//!   by calling [`gqs_workloads::experiments::all_reports`].
//! * The `gqs_sweep` binary streams scenario grids through
//!   [`gqs_workloads::sweep`]; `gqs_sweep --help` is its reference.
//! * The Criterion benches (`cargo bench`) measure the wall-clock cost of
//!   the decision procedures and of simulated protocol operations:
//!   `bench_finder`, `bench_qaf`, `bench_register`, `bench_snapshot`,
//!   `bench_lattice`, `bench_consensus`.

pub use gqs_workloads::experiments;
