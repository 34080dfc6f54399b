//! # Workloads, generators and experiment drivers
//!
//! The glue between the protocol crates and the evaluation artifacts:
//!
//! * [`generators`] — seeded random topologies and fail-prone systems for
//!   sweeps and property tests;
//! * [`convert`] — simulator histories → checker inputs;
//! * [`experiments`] — one driver per experiment of the `tables` binary
//!   (E1–E12), each returning a printable [`ExperimentReport`];
//! * [`par`] — the `GQS_THREADS` worker count and a deterministic
//!   parallel index map for batched generation;
//! * [`sweep`] — the streaming sweep engine: sharded scenario grids,
//!   constant-memory incremental aggregation, scenario families;
//! * [`table`] — the plain-text tables the `tables` binary prints.
//!
//! [`experiments::EXPERIMENTS`] lists each experiment's id and driver.
//! The `gqs-bench` crate's `tables` binary reads it and runs only the
//! experiments it prints; [`experiments::all_reports`] runs them all.
//!
//! ## Sweeps
//!
//! Large scenario grids run through [`sweep::run`]: workers claim
//! fixed-size shards of a lazily generated grid, fold trials into
//! constant-size partial aggregates (count/mean/min/max + quantile
//! sketch) and stream them to an in-order merger, so peak memory is
//! independent of the trial count and aggregates are bit-identical for
//! any thread count (see the [`sweep`] module docs for the full
//! determinism contract).
//!
//! A scenario grid ([`sweep::ScenarioGrid`]) runs under two orthogonal
//! choices. A [`sweep::Mode`] says *what* one trial measures: the
//! decision procedures alone (solvability), a simulated flooded ABD
//! register (latency), Figure-6 consensus, the self-healing register
//! stack (availability), or gossip plus sampled-arc ABD on implicit
//! topologies (scale). A [`sweep::Exec`] says *how* a simulated trial is
//! executed: straight, in windows that add a timeline, or as one warmup
//! forked into seeded branches. [`sweep::ScenarioGrid::run_mode`] is the
//! one entry point, and [`sweep::report_json_exec`]/[`sweep::report_csv`]
//! render its report with no timing in it, so reports diff byte for byte.
//! The `gqs-bench` crate's `gqs_sweep` binary exposes all of it on the
//! command line; `gqs_sweep --help` is the reference for its flags and for
//! the grid grammar of [`sweep::parse_usize_list`] /
//! [`sweep::parse_f64_list`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod convert;
pub mod experiments;
pub mod generators;
pub mod par;
pub mod sweep;
pub mod table;

pub use experiments::{all_reports, ExperimentReport};
pub use table::Table;
