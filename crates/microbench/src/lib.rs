//! A minimal, dependency-free stand-in for the subset of the
//! [criterion](https://docs.rs/criterion) API that this workspace's benches
//! use.
//!
//! The build environment has no network access, so the real criterion crate
//! cannot be vendored. `gqs-bench` depends on this crate under the import
//! name `criterion` (`criterion = { package = "microbench", ... }`), which
//! keeps every `benches/*.rs` source compatible with the real criterion —
//! drop the real dependency in and nothing else changes.
//!
//! Measurement model: each benchmark is warmed up briefly, then timed in
//! batches until the measurement-time budget is spent; the mean and minimum
//! per-iteration wall-clock times are printed. No statistics beyond that —
//! this is a smoke-and-trend harness, not a rigorous sampler. For
//! machine-readable perf tracking with noise bounds use the repository
//! benchmark (`bash benchmark/run.sh`, declared in `BENCHMARK.json`).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Entry point handed to every registered benchmark function.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group {name}");
        BenchmarkGroup { _parent: self, name, measurement_time: Duration::from_secs(1) }
    }
}

/// A named collection of benchmarks sharing sampling settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Accepted for criterion compatibility; the shim sizes batches from the
    /// measurement time alone.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Caps the wall-clock budget spent measuring each benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Runs a benchmark identified by a `BenchmarkId` with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.measurement_time);
        f(&mut b, input);
        b.report(&self.name, &id.0);
        self
    }

    /// Runs a benchmark identified by name.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::new(self.measurement_time);
        f(&mut b);
        b.report(&self.name, &id);
        self
    }

    /// Ends the group (prints a trailing newline, like criterion's summary).
    pub fn finish(self) {
        println!();
    }
}

/// Identifier `function_name/parameter` for parameterized benchmarks.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Creates the id `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", function_name.into(), parameter))
    }
}

/// Timing driver passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    budget: Duration,
    iters: u64,
    mean_ns: f64,
    min_ns: f64,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Bencher { budget, iters: 0, mean_ns: 0.0, min_ns: 0.0 }
    }

    /// Times `routine` repeatedly within the measurement budget.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up and batch-size calibration: grow the batch until one batch
        // takes at least ~1ms or the budget would be exhausted.
        let mut batch: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                std_black_box(routine());
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_millis(1) || dt * 2 > self.budget {
                break;
            }
            batch *= 2;
        }
        let deadline = Instant::now() + self.budget;
        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        let mut min_ns = f64::INFINITY;
        while Instant::now() < deadline {
            let t0 = Instant::now();
            for _ in 0..batch {
                std_black_box(routine());
            }
            let dt = t0.elapsed();
            total += dt;
            iters += batch;
            let per = dt.as_nanos() as f64 / batch as f64;
            if per < min_ns {
                min_ns = per;
            }
        }
        self.iters = iters.max(1);
        self.mean_ns = total.as_nanos() as f64 / self.iters as f64;
        self.min_ns = if min_ns.is_finite() { min_ns } else { self.mean_ns };
    }

    fn report(&self, group: &str, id: &str) {
        if self.iters == 0 {
            println!("  {group}/{id}: no measurement (iter never called)");
            return;
        }
        println!(
            "  {group}/{id}: mean {} min {} ({} iters)",
            fmt_ns(self.mean_ns),
            fmt_ns(self.min_ns),
            self.iters
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Registers benchmark functions under a group name, like criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Expands to `fn main` running the registered groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::new(Duration::from_millis(20));
        b.iter(|| (0..100u64).sum::<u64>());
        assert!(b.iters > 0);
        assert!(b.mean_ns > 0.0);
        assert!(b.min_ns <= b.mean_ns * 1.01);
    }

    #[test]
    fn id_formats_like_criterion() {
        let id = BenchmarkId::new("solve", 32);
        assert_eq!(id.0, "solve/32");
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(10).measurement_time(Duration::from_millis(5));
        g.bench_function("f", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("p", 3), &3, |b, &x| b.iter(|| x * 2));
        g.finish();
    }
}
