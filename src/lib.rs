//! # gqs — generalized quorum systems
//!
//! A complete, executable reproduction of *"Tight Bounds on Channel
//! Reliability via Generalized Quorum Systems"* (PODC 2025): the theory
//! (fail-prone systems with process **and** channel failures, generalized
//! quorum systems, exact solvability decision procedures), the protocols
//! (quorum access functions with logical clocks, MWMR atomic registers,
//! SWMR snapshots, lattice agreement, partially synchronous consensus),
//! the substrate (a deterministic discrete-event network simulator with
//! crash/disconnection injection and partial synchrony), and the checkers
//! (linearizability, object safety, wait-freedom within `τ(f) = U_f`).
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a stable module name.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `gqs-core` | processes, channels, graphs, failure patterns, quorum systems, the GQS finder |
//! | [`simnet`] | `gqs-simnet` | the simulator, failure schedules, flooding middleware, histories |
//! | [`registers`] | `gqs-registers` | Figures 2–4: quorum access functions and atomic registers |
//! | [`snapshots`] | `gqs-snapshots` | Afek et al. snapshots over the registers |
//! | [`lattice`] | `gqs-lattice` | single-shot lattice agreement over the snapshots |
//! | [`consensus`] | `gqs-consensus` | Figure 6 consensus + view synchronizer + pull-Paxos baseline |
//! | [`faults`] | `gqs-faults` | WAN-like regions and fault-schedule shapes: region outages, flapping links, hub crashes, rolling restarts |
//! | [`checker`] | `gqs-checker` | Wing–Gong and §B dependency-graph linearizability, object safety |
//! | [`workloads`] | `gqs-workloads` | generators, experiment drivers E1–E12, tables |
//!
//! ## Quickstart
//!
//! ```
//! use gqs::core::systems::figure1;
//! use gqs::core::finder::{find_gqs, qs_plus_exists};
//!
//! let fig = figure1();
//! // Figure 1 admits a generalized quorum system ...
//! assert!(find_gqs(&fig.graph, &fig.fail_prone).is_some());
//! // ... but no strongly connected QS+ — the paper's headline separation.
//! assert!(!qs_plus_exists(&fig.graph, &fig.fail_prone));
//! // Wait-freedom is guaranteed exactly inside U_f (Theorems 1 and 2).
//! assert_eq!(fig.gqs.u_f(0).to_string(), "{a,b}");
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the `gqs-bench`
//! crate for the experiment harness: its `tables` binary regenerates
//! every experiment table E1–E12.
//!
//! ## Scenario sweeps from the command line
//!
//! Large scenario grids run through the streaming sweep engine
//! ([`workloads::sweep`]) via the `gqs_sweep` binary: a grid of topology
//! family × size × failure patterns × fault schedule × network model,
//! measured per trial in one of five modes ([`workloads::sweep::Mode`]:
//! solvability, latency, consensus, availability, scale) and executed
//! straight, windowed or branched ([`workloads::sweep::Exec`]).
//! `gqs_sweep --help` is the reference for every flag.
//!
//! For example, sweeping ring sizes against channel-failure rates:
//!
//! ```text
//! cargo run --release -p gqs-bench --bin gqs_sweep -- \
//!     --family ring --n 4..8 --patterns rotating \
//!     --p-chan 0.1,0.3,0.5 --trials 500 --format json
//! ```
//!
//! streams 7.5k trials with constant memory and prints per-cell
//! aggregates (count/mean/min/max/p50/p90/p99 of GQS and QS+ existence,
//! their gap, witness size, residual SCC count). Output is byte-identical
//! for any `--threads`/`GQS_THREADS` value and contains no timing, so
//! sweep reports diff cleanly in review.

#![forbid(unsafe_code)]

pub use gqs_checker as checker;
pub use gqs_consensus as consensus;
pub use gqs_core as core;
pub use gqs_faults as faults;
pub use gqs_lattice as lattice;
pub use gqs_registers as registers;
pub use gqs_simnet as simnet;
pub use gqs_snapshots as snapshots;
pub use gqs_workloads as workloads;
