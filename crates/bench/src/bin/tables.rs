//! Regenerates the experiment tables (E1–E12).
//!
//! Usage:
//!   tables            # run all experiments
//!   tables E5 E12     # run only the selected experiment ids
//!
//! Ids are case-insensitive and checked before anything runs. An unknown
//! id exits 2 with one stderr line naming it and the known ids, and
//! prints nothing on stdout. Selected experiments print in table order.

#![forbid(unsafe_code)]

use gqs_workloads::experiments::EXPERIMENTS;

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).map(|s| s.to_uppercase()).collect();
    let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    if let Some(bad) = filter.iter().find(|f| !known.contains(&f.as_str())) {
        eprintln!("tables: unknown experiment id {bad:?}; known ids: {}", known.join(" "));
        std::process::exit(2);
    }
    for &(id, run) in EXPERIMENTS {
        if filter.is_empty() || filter.iter().any(|f| f == id) {
            println!("{}", run());
            println!();
        }
    }
}
