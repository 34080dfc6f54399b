//! The incremental aggregator against a naive collect-then-reduce
//! oracle: `MetricAgg` (and merges of it in any split, order and tree
//! shape) must reproduce the exact mean/min/max of the materialized batch
//! and its quantiles within the sketch tolerance — including the
//! empty-grid and single-trial edge cases — and its sum must be the
//! correctly rounded exact sum.

use gqs_simnet::SplitMix64;
use gqs_workloads::sweep::{self, MetricAgg, SweepOptions, SweepSpec, SKETCH_ALPHA};

/// The oracle: materialize everything, then reduce.
struct Oracle {
    vals: Vec<f64>,
}

impl Oracle {
    fn new(vals: Vec<f64>) -> Self {
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Oracle { vals: sorted }
    }

    fn mean(&self) -> f64 {
        if self.vals.is_empty() {
            0.0
        } else {
            self.vals.iter().sum::<f64>() / self.vals.len() as f64
        }
    }
}

fn assert_matches_oracle(agg: &MetricAgg, oracle: &Oracle, what: &str) {
    assert_eq!(agg.count() as usize, oracle.vals.len(), "{what}: count");
    assert!(
        (agg.mean() - oracle.mean()).abs() <= 1e-9 * (1.0 + oracle.mean().abs()),
        "{what}: mean"
    );
    if let (Some(&lo), Some(&hi)) = (oracle.vals.first(), oracle.vals.last()) {
        assert_eq!(agg.min(), lo, "{what}: min is exact");
        assert_eq!(agg.max(), hi, "{what}: max is exact");
    }
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        let est = agg.quantile(q);
        // The sketch guarantees ~alpha relative accuracy (midpoint
        // estimate), plus nearest-rank boundary slack of one observation.
        let rank = (q * (oracle.vals.len().max(1) - 1) as f64).round() as usize;
        let lo = oracle.vals[rank.saturating_sub(1).min(oracle.vals.len().saturating_sub(1))];
        let hi = oracle.vals[(rank + 1).min(oracle.vals.len().saturating_sub(1))];
        let tol = |v: f64| 2.0 * SKETCH_ALPHA * v.abs() + 1e-9;
        assert!(
            est >= lo - tol(lo) && est <= hi + tol(hi),
            "{what}: q={q} est {est} outside [{lo}, {hi}] (+/- tol)"
        );
    }
}

/// Random batches, folded one value at a time, match the oracle.
#[test]
fn metric_agg_matches_collect_then_reduce() {
    for (case, scale, offset) in [(1u64, 1.0, 0.0), (2, 1e6, 0.0), (3, 50.0, -25.0), (4, 1e-3, 5.0)]
    {
        let mut rng = SplitMix64::new(case);
        let mut agg = MetricAgg::new();
        let mut vals = Vec::new();
        for _ in 0..3_000 {
            let v = rng.f64() * scale + offset;
            agg.observe(v);
            vals.push(v);
        }
        assert_matches_oracle(&agg, &Oracle::new(vals), &format!("case {case}"));
    }
}

/// Sharded folding + merge equals one big fold for **any** shard size:
/// count, min, max, the (integer-count) sketch, and the sum and mean bit
/// for bit.
#[test]
fn sharded_merge_matches_single_fold() {
    let mut rng = SplitMix64::new(99);
    let vals: Vec<f64> = (0..2_048).map(|_| rng.f64() * 1e4 - 100.0).collect();
    let mut whole = MetricAgg::new();
    for &v in &vals {
        whole.observe(v);
    }
    let fold_chunks = |shard: usize| {
        let mut merged = MetricAgg::new();
        for chunk in vals.chunks(shard) {
            let mut part = MetricAgg::new();
            for &v in chunk {
                part.observe(v);
            }
            merged.merge(&part);
        }
        merged
    };
    for shard in [1usize, 7, 64, 501, 5000] {
        let merged = fold_chunks(shard);
        assert_eq!(merged, whole, "shard={shard}");
        assert_eq!(merged.mean().to_bits(), whole.mean().to_bits(), "shard={shard}: mean");
        assert_matches_oracle(&merged, &Oracle::new(vals.clone()), &format!("shard {shard}"));
    }
}

/// Random values split at random points, the parts merged in a random
/// order and tree shape, always equal one fold; and the sum is the
/// correctly rounded exact sum. The values are dyadic, `k·2^-30` with up
/// to 53 significant bits of `k`, often cancelling an earlier one, so the
/// oracle sums the `k` exactly in `i128`.
#[test]
fn merges_in_any_split_order_and_shape_equal_one_fold() {
    let below = |rng: &mut SplitMix64, n: usize| (rng.next_u64() % n as u64) as usize;
    let scale = 2f64.powi(-30);
    for case in 0..60u64 {
        let rng = &mut SplitMix64::new(case);
        let len = 1 + below(rng, 300);
        let mut ks: Vec<i128> = Vec::with_capacity(len);
        for _ in 0..len {
            let k = if !ks.is_empty() && below(rng, 4) == 0 {
                -ks[below(rng, ks.len())]
            } else {
                let mantissa = (rng.next_u64() >> 11) as i128;
                let k = (mantissa >> below(rng, 53)) << below(rng, 48);
                if below(rng, 2) == 0 {
                    -k
                } else {
                    k
                }
            };
            ks.push(k);
        }
        let vals: Vec<f64> = ks.iter().map(|&k| k as f64 * scale).collect();
        let exact = ks.iter().sum::<i128>() as f64 * scale;

        let mut whole = MetricAgg::new();
        vals.iter().for_each(|&v| whole.observe(v));
        assert_eq!(whole.sum().to_bits(), exact.to_bits(), "case {case}: sum vs oracle");

        // Random split into contiguous parts.
        let mut parts = Vec::new();
        let mut lo = 0;
        while lo < len {
            let hi = (lo + 1 + below(rng, 40)).min(len);
            let mut part = MetricAgg::new();
            vals[lo..hi].iter().for_each(|&v| part.observe(v));
            parts.push(part);
            lo = hi;
        }
        // Random tree: merge two random parts, in a random direction,
        // until one is left.
        while parts.len() > 1 {
            let a = parts.swap_remove(below(rng, parts.len()));
            let b = parts.swap_remove(below(rng, parts.len()));
            let (mut into, from) = if below(rng, 2) == 0 { (a, b) } else { (b, a) };
            into.merge(&from);
            parts.push(into);
        }
        let merged = &parts[0];
        assert_eq!(*merged, whole, "case {case}: merge tree vs one fold");
        assert_eq!(merged.sum().to_bits(), exact.to_bits(), "case {case}: merged sum");
        assert_eq!(merged.mean().to_bits(), whole.mean().to_bits(), "case {case}: mean");
        assert_eq!(merged.count(), len as u64, "case {case}: count");
    }
}

/// Sums that naive left-to-right addition gets wrong.
#[test]
fn exact_sum_fixed_cases() {
    let sum_of = |vals: &[f64]| {
        let mut agg = MetricAgg::new();
        vals.iter().for_each(|&v| agg.observe(v));
        agg.sum()
    };
    // Cancellation: naive gives 0.
    assert_eq!(sum_of(&[1e16, 1.0, -1e16]), 1.0);
    // A tie broken by a third partial (the half-even correction): naive
    // rounds 1 + 2^-53 down to 1 and stays there.
    assert_eq!(sum_of(&[1.0, 2f64.powi(-53), 2f64.powi(-106)]), 1.000_000_000_000_000_2);
    // Infinities are summed apart, as `fsum` does.
    assert_eq!(sum_of(&[f64::INFINITY, 1.0, -1e300]), f64::INFINITY);
    assert_eq!(sum_of(&[-1.0, f64::NEG_INFINITY]), f64::NEG_INFINITY);
    assert!(sum_of(&[f64::INFINITY, 2.0, f64::NEG_INFINITY]).is_nan());
    // A total that comes back into range is exact; one that leaves it
    // panics rather than read a value that depends on the order.
    assert_eq!(sum_of(&[f64::MAX, -f64::MAX, f64::MAX]), f64::MAX);
    assert!(std::panic::catch_unwind(|| sum_of(&[f64::MAX, f64::MAX])).is_err());
}

/// Edge cases: empty aggregate and a single trial.
#[test]
fn empty_and_single_trial_edges() {
    let empty = MetricAgg::new();
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.mean(), 0.0);
    assert_eq!(empty.min(), 0.0);
    assert_eq!(empty.max(), 0.0);
    assert_eq!(empty.quantile(0.5), 0.0);

    let mut one = MetricAgg::new();
    one.observe(42.5);
    assert_eq!(one.count(), 1);
    assert_eq!(one.mean(), 42.5);
    assert_eq!(one.min(), 42.5);
    assert_eq!(one.max(), 42.5);
    for q in [0.0, 0.5, 1.0] {
        // Clamping to the exact [min, max] envelope makes the single-trial
        // quantile exact, not just within sketch tolerance.
        assert_eq!(one.quantile(q), 42.5);
    }

    // Merging an empty aggregate is the identity.
    let mut merged = one.clone();
    merged.merge(&empty);
    assert_eq!(merged, one);
}

/// The engine end to end against the oracle: an empty grid, a
/// single-trial grid, and a multi-cell grid all reduce to the oracle's
/// numbers.
#[test]
fn engine_reduction_matches_oracle() {
    // Empty grid (zero trials).
    let spec = SweepSpec { cells: &[0u32], trials: 0, seed: 5, metrics: &["v"] };
    let r = sweep::run(&spec, &SweepOptions::default(), |_, _, rng| vec![rng.f64()]);
    assert_eq!(r.agg(0, "v").count(), 0);
    assert_eq!(r.agg(0, "v").quantile(0.9), 0.0);

    // Single trial.
    let spec = SweepSpec { cells: &[7u32], trials: 1, seed: 5, metrics: &["v"] };
    let r = sweep::run(&spec, &SweepOptions::default(), |c, _, _| vec![*c as f64]);
    assert_eq!(r.agg(0, "v").count(), 1);
    assert_eq!(r.agg(0, "v").mean(), 7.0);
    assert_eq!(r.agg(0, "v").quantile(0.5), 7.0);

    // Multi-cell grid vs per-cell oracles, in two shard layouts: 3
    // workers fold each cell as 12 shards of 64 and one of 32, 40 workers
    // as 13 shards of 60 and one of 20.
    let cells: Vec<u64> = vec![1, 2, 3];
    let spec = SweepSpec { cells: &cells, trials: 800, seed: 31, metrics: &["v"] };
    let trial = |c: &u64, _t: usize, rng: &mut SplitMix64| vec![rng.f64() * *c as f64];
    for threads in [3, 40] {
        let opts = SweepOptions { threads: Some(threads), ..Default::default() };
        let r = sweep::run(&spec, &opts, trial);
        for (ci, c) in cells.iter().enumerate() {
            // Reconstruct the oracle from the engine's seeding contract.
            let vals: Vec<f64> = (0..800)
                .map(|t| {
                    let mut rng = gqs_workloads::generators::trial_rng(31, ci * 800 + t);
                    trial(c, t, &mut rng)[0]
                })
                .collect();
            let what = format!("threads {threads}, cell {ci}");
            assert_matches_oracle(r.agg(ci, "v"), &Oracle::new(vals), &what);
        }
    }
}

/// A panicking trial (an in-trial safety oracle tripping, say) must fail
/// a multi-worker sweep, not hang it: the other workers stop claiming
/// shards, and the panic propagates out of the sweep. The sweep runs on a
/// helper thread so that a hang fails this test instead of wedging the
/// suite.
#[test]
fn panicking_trial_fails_the_sweep_instead_of_hanging_it() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let spec = SweepSpec { cells: &[0u32], trials: 200, seed: 1, metrics: &["v"] };
        let opts = SweepOptions { threads: Some(2), ..Default::default() };
        let outcome = std::panic::catch_unwind(|| {
            sweep::run(&spec, &opts, |_, t, _| {
                assert!(t != 3, "trial 3 trips its oracle");
                vec![t as f64]
            })
        });
        let _ = tx.send(outcome.is_err());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(20)) {
        Ok(panicked) => assert!(panicked, "the trial's panic must propagate out of the sweep"),
        Err(_) => panic!("the sweep hung on a panicking trial"),
    }
}
