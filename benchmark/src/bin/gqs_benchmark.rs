//! The end-to-end benchmark binary. Nothing is attached to the program
//! under test here: no allocator shim, no trace sink, no span recorder.

#![forbid(unsafe_code)]

fn main() {
    let started = std::time::Instant::now();
    std::process::exit(gqs_benchmark::cli::main_e2e(started));
}
