//! # Experiment tables and the sweep CLI for the GQS reproduction
//!
//! * The [`tables`](../tables/index.html) binary (`cargo run -p gqs-bench
//!   --bin tables --release`) regenerates the experiment tables E1–E12
//!   from [`gqs_workloads::experiments::EXPERIMENTS`], running only the
//!   ids it is given; its stdout is pinned byte for byte by
//!   `golden/tables.txt`.
//! * The `gqs_sweep` binary streams scenario grids through
//!   [`gqs_workloads::sweep`]; `gqs_sweep --help` is its reference.
//!
//! Wall-clock measurement lives in the separate `benchmark/` workspace.

#![forbid(unsafe_code)]

pub use gqs_workloads::experiments;
