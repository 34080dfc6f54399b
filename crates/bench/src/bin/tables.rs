//! Regenerates every experiment table (E1–E12).
//!
//! Usage:
//!   tables            # run all experiments
//!   tables E5 E12     # run selected experiment ids
//!
//! Ids are case-insensitive. An unknown id exits 2 with one stderr line
//! naming it and the known ids, and prints nothing on stdout.

#![forbid(unsafe_code)]

use gqs_workloads::experiments::all_reports;

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).map(|s| s.to_uppercase()).collect();
    let reports = all_reports();
    let known: Vec<&str> = reports.iter().map(|r| r.id).collect();
    if let Some(bad) = filter.iter().find(|f| !known.contains(&f.as_str())) {
        eprintln!("tables: unknown experiment id {bad:?}; known ids: {}", known.join(" "));
        std::process::exit(2);
    }
    for report in reports {
        if filter.is_empty() || filter.iter().any(|f| f == report.id) {
            println!("{report}");
            println!();
        }
    }
}
