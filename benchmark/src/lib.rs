//! The repo's benchmark: five named workloads, end-to-end metrics measured
//! with nothing attached to the program, and an outside-in per-layer trace.
//! See `README.md` in this directory for the glossary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod report;
pub mod sched;
pub mod spans;
pub mod spec;
pub mod staged;
pub mod stats;
pub mod workloads;
