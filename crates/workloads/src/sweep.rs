//! The streaming sweep engine: sharded scenario grids, a constant-memory
//! incremental aggregator, and the scenario-grid vocabulary behind the
//! `gqs_sweep` CLI.
//!
//! # Why streaming
//!
//! The experiment drivers historically materialized a whole batch of
//! trial results and reduced it afterwards, so peak memory grew linearly
//! with the trial count. This module inverts that: the grid is generated
//! lazily, workers claim **shards** (fixed-size runs of trials within one
//! grid cell) from a shared counter, fold each trial into a small
//! per-shard partial aggregate the moment it finishes, and stream the
//! partial through a channel to the merger. Nobody ever holds more than
//! one shard of state:
//!
//! ```text
//! shard queue (atomic counter)
//!     │ claim              ┌────────────┐ (shard, partial)   ┌────────┐
//!     ├───────────────────▶│ worker 0   │───────────────────▶│ merger │
//!     ├───────────────────▶│ worker ... │───────────────────▶│ (in-   │
//!     └───────────────────▶│ worker T-1 │───────────────────▶│ order) │
//!                          └────────────┘      mpsc          └────────┘
//! ```
//!
//! # Determinism contract
//!
//! Aggregates are **bit-identical** for any worker count (including
//! `GQS_THREADS=1`), because every source of order-sensitivity is pinned:
//!
//! * trial `t` of cell `c` always draws from
//!   [`trial_rng`]`(seed, c * trials + t)` — seeding never depends on
//!   which worker runs the trial;
//! * a shard's partial aggregate folds its trials in index order on one
//!   worker;
//! * the merger buffers out-of-order partials and merges each cell's
//!   shards strictly in shard order, so the floating-point sums reassociate
//!   identically no matter the arrival order;
//! * the quantile sketch is integer bucket counts — merge order cannot
//!   perturb it at all.
//!
//! # Cancellation
//!
//! Pass a [`CancelToken`] in [`SweepOptions`]: workers re-check it before
//! every trial, abandon their current shard, and stop claiming. The
//! report then covers, per cell, the longest completed shard *prefix*
//! (so even a cancelled run has well-defined semantics) and is marked
//! incomplete.
//!
//! # The scenario grid
//!
//! [`ScenarioGrid`] is the concrete grid the `gqs_sweep` CLI exposes: a
//! cross product of topology family × system size × density × pattern
//! family × channel-failure rate, with [`SCENARIO_METRICS`] measured per
//! trial (GQS/QS+ existence, the separation gap, witness size, residual
//! SCC count — all deterministic, so whole reports diff cleanly).
//! [`report_json_exec`]/[`report_csv`] render machine-readable tables, and
//! [`parse_usize_list`]/[`parse_f64_list`] implement the CLI's grid
//! grammar (`4..8`, `4..16:2`, `0.1,0.3`, single values).
//!
//! # Modes × execution strategies
//!
//! [`ScenarioGrid::run_mode`] takes two orthogonal values. A [`Mode`]
//! says *what* one trial measures; each simulated mode (latency,
//! consensus, availability) is one private description — protocol stack,
//! metrics, horizon, schedule timing, delay model, nodes and operations,
//! how to read the metric row — over one shared scenario draw. An
//! [`Exec`] says *how* a simulated trial is executed — straight, windowed
//! into a timeline, or one warmup forked into seeded branches — and is
//! applied to any description by one generic driver; trace replay
//! ([`replay_trial_trace`]) is the same draw with a sink attached. So a
//! new simulated mode is one `impl`, and it gets every strategy.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;

use gqs_consensus::{majority_consensus_nodes, ConsensusNode, ProposalMode};
use gqs_core::finder::{find_gqs, qs_plus_exists};
use gqs_core::{majority_system, FailProneSystem, FailurePattern, NetworkGraph, ProcessId};
use gqs_faults::{scenarios, RegionLayout};
use gqs_registers::{
    abd_register_nodes, reliable_abd_register_nodes, sampled_abd_nodes, AbdRegister, RegOp, ScaleOp,
};
use gqs_simnet::{
    ChromeSink, DelayModel, FailureSchedule, FlightRecorder, Flood, Gossip, JsonlSink, LatencyDist,
    LinkProfile, NetModel, Protocol, RegionSpec, SharedSink, SimConfig, SimTime, Simulation,
    SplitMix64, StopReason, Synchrony, Topology, TraceSink,
};

use crate::generators::{
    adversarial_fail_prone, grid_graph_n, oriented_ring, random_digraph, random_fail_prone, ring,
    rotating_fail_prone, star, trial_rng, two_cliques_bridge,
};
use crate::par;

// ---------------------------------------------------------------------------
// Quantile sketch
// ---------------------------------------------------------------------------

/// Relative accuracy target of [`QuantileSketch`]: quantile estimates are
/// within ~1.5% of the exact value (plus bucket-midpoint rounding).
pub const SKETCH_ALPHA: f64 = 0.015;

/// Bucket growth factor `γ = (1 + α) / (1 - α)`.
fn gamma() -> f64 {
    (1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA)
}

/// Bucket index offset: bucket 0 holds magnitudes around `γ^-OFFSET`
/// (≈ 1e-10), the last bucket magnitudes around `γ^(BUCKETS-1-OFFSET)`
/// (≈ 3e13). Values outside clamp into the edge buckets (count stays
/// exact; only the estimate saturates).
const SKETCH_OFFSET: i32 = 760;
/// Total buckets per sign.
const SKETCH_BUCKETS: usize = 1800;

/// A DDSketch-style mergeable quantile sketch: log-spaced buckets with a
/// fixed relative-accuracy guarantee, integer counts, constant memory.
///
/// Because the state is pure bucket counts, merging is elementwise
/// addition — commutative, associative, and bit-exact in any order. That
/// is what lets the streaming engine promise identical quantiles for any
/// thread count.
#[derive(Clone, PartialEq)]
pub struct QuantileSketch {
    count: u64,
    zeros: u64,
    /// Lazily allocated bucket arrays (most metrics never go negative, and
    /// many — the 0/1 indicator metrics — never populate `pos` either).
    pos: Option<Box<[u64]>>,
    neg: Option<Box<[u64]>>,
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch { count: 0, zeros: 0, pos: None, neg: None }
    }

    /// Number of observed values.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn bucket(v: f64) -> usize {
        let idx = (v.ln() / gamma().ln()).ceil() as i32 + SKETCH_OFFSET;
        idx.clamp(0, SKETCH_BUCKETS as i32 - 1) as usize
    }

    fn bucket_value(slot: usize) -> f64 {
        let g = gamma();
        // Bucket `slot` covers (γ^(i-1), γ^i]; estimate with the midpoint.
        g.powi(slot as i32 - SKETCH_OFFSET) * 2.0 / (g + 1.0)
    }

    /// Records one value.
    pub fn observe(&mut self, v: f64) {
        assert!(!v.is_nan(), "sketches reject NaN");
        self.count += 1;
        if v == 0.0 {
            self.zeros += 1;
        } else {
            let side = if v > 0.0 { &mut self.pos } else { &mut self.neg };
            let buckets = side.get_or_insert_with(|| vec![0u64; SKETCH_BUCKETS].into_boxed_slice());
            buckets[Self::bucket(v.abs())] += 1;
        }
    }

    /// Adds `other`'s counts into `self`. Order-insensitive.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.count += other.count;
        self.zeros += other.zeros;
        for (mine, theirs) in [(&mut self.pos, &other.pos), (&mut self.neg, &other.neg)] {
            if let Some(theirs) = theirs {
                let mine =
                    mine.get_or_insert_with(|| vec![0u64; SKETCH_BUCKETS].into_boxed_slice());
                for (m, t) in mine.iter_mut().zip(theirs.iter()) {
                    *m += *t;
                }
            }
        }
    }

    /// The estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`), nearest-rank, or
    /// `0.0` for an empty sketch.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0.0;
        }
        // Nearest rank: the value at rank round(q · (count − 1)), 0-based.
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        // Most negative first: negative buckets from large magnitude down.
        if let Some(neg) = &self.neg {
            for slot in (0..SKETCH_BUCKETS).rev() {
                if neg[slot] > 0 {
                    seen += neg[slot];
                    if seen > rank {
                        return -Self::bucket_value(slot);
                    }
                }
            }
        }
        seen += self.zeros;
        if seen > rank {
            return 0.0;
        }
        if let Some(pos) = &self.pos {
            for (slot, &c) in pos.iter().enumerate() {
                if c > 0 {
                    seen += c;
                    if seen > rank {
                        return Self::bucket_value(slot);
                    }
                }
            }
        }
        unreachable!("rank < count implies some bucket covers it")
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("count", &self.count)
            .field("zeros", &self.zeros)
            .field("p50", &self.quantile(0.5))
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Incremental aggregator
// ---------------------------------------------------------------------------

/// Constant-memory running aggregate of one metric: count, sum (for the
/// mean), exact min/max, and a [`QuantileSketch`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricAgg {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    sketch: QuantileSketch,
}

impl MetricAgg {
    /// An empty aggregate.
    pub fn new() -> Self {
        MetricAgg {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sketch: QuantileSketch::new(),
        }
    }

    /// Folds one observation in.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sketch.observe(v);
    }

    /// Merges `other` into `self`.
    ///
    /// Count/min/max/sketch are order-insensitive; the floating-point
    /// `sum` is not, which is why the engine merges shards in index order.
    pub fn merge(&mut self, other: &MetricAgg) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sketch.merge(&other.sketch);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `0.0` when empty (matching `table::stats::mean`).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum; `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum; `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimated `q`-quantile (see [`QuantileSketch::quantile`]), clamped
    /// into the exact `[min, max]` envelope.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sketch.quantile(q).clamp(self.min, self.max)
    }
}

impl Default for MetricAgg {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Cooperative cancellation flag for a running sweep: set it from any
/// thread and workers wind down at the next trial boundary.
pub type CancelToken = Arc<AtomicBool>;

/// A sweep specification: the grid cells, trials per cell, base seed, and
/// metric names (one per element of every trial row).
#[derive(Clone, Debug)]
pub struct SweepSpec<'a, C> {
    /// The grid cells; the trial closure receives one per call.
    pub cells: &'a [C],
    /// Trials per cell.
    pub trials: usize,
    /// Base seed; trial `t` of cell `c` draws from
    /// [`trial_rng`]`(seed, c * trials + t)`.
    pub seed: u64,
    /// Metric names, defining the width and order of every trial row.
    pub metrics: &'a [&'a str],
}

/// Tuning knobs for [`run`].
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` resolves [`par::thread_count`]
    /// (`GQS_THREADS` or `min(cores, 8)`).
    pub threads: Option<usize>,
    /// Trials per shard; `None` means 64. Smaller shards smooth load
    /// balancing, larger shards amortize channel traffic.
    pub shard: Option<usize>,
    /// Cooperative cancellation flag, checked before every trial.
    pub cancel: Option<CancelToken>,
    /// When set, simulated-mode runners append a [`Stall`] for every
    /// trial that hits its event cap ([`StopReason::EventCap`]), so the
    /// CLI can name the first stalled `(cell, trial)` and point at the
    /// trace replay flags. Push order is worker-schedule-dependent —
    /// sort before rendering. The log never feeds back into the
    /// aggregates, so the determinism contract is untouched.
    pub stall_log: Option<StallLog>,
}

/// One trial that hit its event cap during a sweep: the diagnosable
/// address (`--trace-cell CELL --trace-trial TRIAL`) of a stuck run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stall {
    /// Grid-cell index of the stalled trial.
    pub cell: usize,
    /// Trial index within the cell.
    pub trial: usize,
    /// Operations still pending when the cap hit.
    pub stalled_ops: u64,
}

/// Shared collector for [`Stall`] records (see
/// [`SweepOptions::stall_log`]).
pub type StallLog = Arc<Mutex<Vec<Stall>>>;

/// Appends a [`Stall`] when `reason` is an event-cap stop and a log is
/// attached.
fn note_stall(log: &Option<StallLog>, cell: usize, trial: usize, reason: StopReason) {
    if let (Some(log), StopReason::EventCap { stalled_ops }) = (log, reason) {
        log.lock().expect("stall log poisoned").push(Stall { cell, trial, stalled_ops });
    }
}

/// How a branched sweep executes its continuations. The two modes are
/// different *execution strategies for the same computation*: their
/// reports are byte-identical (held by tests and a CI `cmp`), which is
/// precisely the checkpoint determinism contract.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum BranchMode {
    /// Run the warmup once per trial, checkpoint at the branch point,
    /// and restore+reseed per branch — amortizing the warmup.
    #[default]
    Fork,
    /// Re-run the warmup from scratch for every branch — the slow
    /// reference the fork path must reproduce bit for bit.
    Straight,
}

/// A fork-replay sweep: every trial runs its warmup to `at`, then fans
/// out `branches` seeded continuations, each contributing one metric
/// row to the cell's aggregates.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BranchSpec {
    /// The branch point (virtual time the warmup runs to).
    pub at: u64,
    /// Continuations per trial.
    pub branches: usize,
    /// Execution strategy (not part of the result — see [`BranchMode`]).
    pub mode: BranchMode,
}

impl BranchSpec {
    /// The RNG seed of branch `b` of a trial whose simulation seed is
    /// `sim_seed`. A pure function of `(sim_seed, b)` — deliberately
    /// *not* of any checkpoint state — so fork and straight-line
    /// execution trivially agree on where each branch diverges.
    pub fn branch_seed(sim_seed: u64, b: usize) -> u64 {
        sim_seed ^ (b as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Aggregates for one grid cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellAggregates {
    /// Trials merged into this cell (the longest completed shard prefix;
    /// equals the requested trial count iff the sweep ran to completion).
    pub trials: u64,
    /// One aggregate per metric, in [`SweepSpec::metrics`] order.
    pub aggs: Vec<MetricAgg>,
}

/// The result of a sweep: per-cell aggregates in cell order.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepReport {
    /// Metric names, as passed in the spec.
    pub metrics: Vec<String>,
    /// One entry per grid cell, in spec order.
    pub cells: Vec<CellAggregates>,
    /// Whether every trial of every cell was merged (false iff cancelled).
    pub complete: bool,
}

impl SweepReport {
    /// The aggregate of `metric` in cell `cell`.
    ///
    /// # Panics
    ///
    /// Panics if the cell index or metric name is unknown.
    pub fn agg(&self, cell: usize, metric: &str) -> &MetricAgg {
        let m = self
            .metrics
            .iter()
            .position(|n| n == metric)
            .unwrap_or_else(|| panic!("unknown metric {metric:?}"));
        &self.cells[cell].aggs[m]
    }
}

/// Runs a sweep: shards every cell's trials across the worker pool,
/// streams per-shard partial aggregates through a channel, and merges
/// them in deterministic order.
///
/// `trial(cell, t, rng)` must return one `f64` per metric and derive all
/// randomness from the provided per-trial RNG (or from `t` itself); under
/// that contract the report is bit-identical for every thread count.
///
/// Peak memory is independent of the trial count: each worker holds one
/// shard's constant-size partial, and the merger holds one aggregate per
/// cell plus a bounded buffer of out-of-order shards — a worker that runs
/// more than a fixed window of shards ahead of the merge frontier parks
/// (yielding) until the frontier catches up, so even a pathologically
/// slow shard cannot make the buffer grow with the trial count.
///
/// # Panics
///
/// Panics if a trial row's width differs from `spec.metrics.len()`.
pub fn run<C, F>(spec: &SweepSpec<'_, C>, opts: &SweepOptions, trial: F) -> SweepReport
where
    C: Sync,
    F: Fn(&C, usize, &mut SplitMix64) -> Vec<f64> + Sync,
{
    run_rows(spec, opts, |cell, t, rng| vec![trial(cell, t, rng)])
}

/// The row-streaming generalization of [`run`]: each trial may observe
/// **several** metric rows (e.g. one per branched continuation in a
/// fork-replay sweep). Rows are folded in `(trial, row)` order inside
/// each shard and shards merge in shard order, so the aggregates keep
/// the bit-identical-for-any-thread-count contract of [`run`].
/// `CellAggregates::trials` still counts *trials* (not rows); each
/// metric's `count` reflects the observed rows.
///
/// # Panics
///
/// Panics if any row's width differs from `spec.metrics.len()`.
pub fn run_rows<C, F>(spec: &SweepSpec<'_, C>, opts: &SweepOptions, trial: F) -> SweepReport
where
    C: Sync,
    F: Fn(&C, usize, &mut SplitMix64) -> Vec<Vec<f64>> + Sync,
{
    let n_metrics = spec.metrics.len();
    let n_cells = spec.cells.len();
    let shard = opts.shard.unwrap_or(64).max(1);
    let shards_per_cell = spec.trials.div_ceil(shard);
    let total_shards = n_cells * shards_per_cell;
    let mut cells: Vec<CellAggregates> = (0..n_cells)
        .map(|_| CellAggregates { trials: 0, aggs: vec![MetricAgg::new(); n_metrics] })
        .collect();
    let mut complete = true;
    if total_shards > 0 {
        let workers = resolve_threads(opts).min(total_shards).max(1);
        let next = AtomicUsize::new(0);
        // Shards folded by the merger so far; the backpressure frontier.
        let folded = AtomicUsize::new(0);
        // How far past the merge frontier a worker may run. The shard
        // holding the frontier itself always satisfies the check (every
        // smaller index is already folded), so progress is guaranteed and
        // the merger's out-of-order buffer never exceeds `window` shards.
        let window = (workers * 4).max(16);
        // Raised by a worker unwinding out of a panicking trial: its shard
        // will never advance the merge frontier, so the others must stop
        // waiting on it for the scope to join and re-raise the panic.
        let aborted = AtomicBool::new(false);
        let cancelled = || {
            aborted.load(Ordering::Relaxed)
                || opts.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed))
        };
        let (tx, rx) = mpsc::channel::<(usize, Vec<MetricAgg>)>();
        let trial = &trial;
        let next = &next;
        let folded = &folded;
        let aborted = &aborted;
        let cancelled = &cancelled;
        thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                s.spawn(move || {
                    let _abort_on_unwind = AbortOnUnwind(aborted);
                    loop {
                        if cancelled() {
                            break;
                        }
                        let sidx = next.fetch_add(1, Ordering::Relaxed);
                        if sidx >= total_shards {
                            break;
                        }
                        while sidx >= folded.load(Ordering::Acquire) + window {
                            if cancelled() {
                                return;
                            }
                            thread::yield_now();
                        }
                        let c = sidx / shards_per_cell;
                        let k = sidx % shards_per_cell;
                        let lo = k * shard;
                        let hi = ((k + 1) * shard).min(spec.trials);
                        let mut partial = vec![MetricAgg::new(); n_metrics];
                        let mut abandoned = false;
                        for t in lo..hi {
                            if cancelled() {
                                abandoned = true;
                                break;
                            }
                            let mut rng = trial_rng(spec.seed, c * spec.trials + t);
                            for row in trial(&spec.cells[c], t, &mut rng) {
                                assert_eq!(row.len(), n_metrics, "trial row width mismatch");
                                for (agg, v) in partial.iter_mut().zip(row) {
                                    agg.observe(v);
                                }
                            }
                        }
                        if abandoned {
                            break;
                        }
                        // The merger only hangs up on cancellation; dropping
                        // the partial then is exactly right.
                        let _ = tx.send((sidx, partial));
                    }
                });
            }
            drop(tx);
            // The merger runs on this thread: buffer out-of-order shards
            // and fold each cell's in shard order, so float sums
            // reassociate identically for every worker schedule.
            let mut next_shard: Vec<usize> = vec![0; n_cells];
            let mut pending: Vec<BTreeMap<usize, Vec<MetricAgg>>> = vec![BTreeMap::new(); n_cells];
            for (sidx, partial) in rx {
                let c = sidx / shards_per_cell;
                pending[c].insert(sidx % shards_per_cell, partial);
                while let Some(p) = pending[c].remove(&next_shard[c]) {
                    for (agg, part) in cells[c].aggs.iter_mut().zip(&p) {
                        agg.merge(part);
                    }
                    next_shard[c] += 1;
                    folded.fetch_add(1, Ordering::Release);
                }
            }
            for (c, cell) in cells.iter_mut().enumerate() {
                cell.trials = (next_shard[c] * shard).min(spec.trials) as u64;
                if next_shard[c] < shards_per_cell {
                    complete = false;
                }
            }
        });
    }
    SweepReport { metrics: spec.metrics.iter().map(|m| m.to_string()).collect(), cells, complete }
}

fn resolve_threads(opts: &SweepOptions) -> usize {
    match opts.threads {
        Some(t) if t >= 1 => t,
        _ => par::thread_count(),
    }
}

/// Raises its flag when dropped by a panic's unwinding (see [`run_rows`]).
struct AbortOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario grids (the CLI vocabulary)
// ---------------------------------------------------------------------------

/// A topology family for scenario grids.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum TopologyFamily {
    /// [`NetworkGraph::complete`] — the paper's standard model.
    Complete,
    /// [`ring`] — bidirectional cycle.
    Ring,
    /// [`oriented_ring`] — unidirectional cycle.
    OrientedRing,
    /// [`star`] — hub-and-spoke.
    Star,
    /// [`grid_graph_n`] — near-square 4-neighbour mesh.
    Grid,
    /// [`two_cliques_bridge`] — two cliques joined by one bridge.
    TwoCliquesBridge,
    /// [`gqs_faults::wan_graph`] — a WAN: `regions` cliques of `n /
    /// regions` processes, consecutive gateways bridged in a ring.
    Regions {
        /// Number of regions (data centers).
        regions: usize,
    },
    /// [`random_digraph`] with the cell's edge density.
    Random,
}

impl TopologyFamily {
    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            TopologyFamily::Complete => "complete",
            TopologyFamily::Ring => "ring",
            TopologyFamily::OrientedRing => "oriented-ring",
            TopologyFamily::Star => "star",
            TopologyFamily::Grid => "grid",
            TopologyFamily::TwoCliquesBridge => "two-cliques-bridge",
            TopologyFamily::Regions { .. } => "regions",
            TopologyFamily::Random => "random",
        }
    }

    /// Builds the topology on `n` processes. Only `Random` consumes the
    /// RNG (with `density` as edge probability); the structured families
    /// are deterministic in `n`.
    pub fn build(self, n: usize, density: f64, rng: &mut SplitMix64) -> NetworkGraph {
        match self {
            TopologyFamily::Complete => NetworkGraph::complete(n),
            TopologyFamily::Ring => ring(n),
            TopologyFamily::OrientedRing => oriented_ring(n),
            TopologyFamily::Star => star(n),
            TopologyFamily::Grid => grid_graph_n(n, (n as f64).sqrt().ceil() as usize),
            TopologyFamily::TwoCliquesBridge => two_cliques_bridge(n),
            TopologyFamily::Regions { .. } => gqs_faults::wan_graph(&self.region_layout(n)),
            TopologyFamily::Random => random_digraph(n, density, rng),
        }
    }

    /// The region partition fault schedules act on: the family's own
    /// regions for [`TopologyFamily::Regions`], the two cliques for
    /// [`TopologyFamily::TwoCliquesBridge`], and an even two-way split for
    /// every other family (so region schedules remain meaningful — they
    /// cut the channels crossing the split).
    pub fn region_layout(self, n: usize) -> RegionLayout {
        RegionLayout::even(n, self.region_count(n))
    }

    /// Number of regions in [`TopologyFamily::region_layout`]'s
    /// partition.
    pub fn region_count(self, n: usize) -> usize {
        let r = match self {
            TopologyFamily::Regions { regions } => regions,
            _ => 2,
        };
        r.clamp(1, n.max(1))
    }

    /// The family's **implicit** [`Topology`] — adjacency answered
    /// arithmetically, never materializing the O(n²)
    /// [`NetworkGraph`] — or `None` for families that only exist
    /// materialized (star, bridges, random draws).
    ///
    /// For the supported families the implicit topology connects exactly
    /// the channels [`TopologyFamily::build`] would create (grid columns
    /// are the same `⌈√n⌉`; regions use the same even
    /// [`RegionLayout`] partition), which is what lets the scale mode
    /// reuse this enum while running at sizes where `build` is
    /// unaffordable.
    pub fn implicit(self, n: usize) -> Option<Topology> {
        match self {
            TopologyFamily::Complete => Some(Topology::Complete),
            TopologyFamily::Ring => Some(Topology::Ring { n }),
            TopologyFamily::Grid => {
                Some(Topology::Grid { n, cols: ((n as f64).sqrt().ceil() as usize).max(1) })
            }
            TopologyFamily::Regions { regions } => {
                Some(Topology::Regions { n, regions: regions.clamp(1, n.max(1)) })
            }
            _ => None,
        }
    }
}

impl FromStr for TopologyFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "complete" => Ok(TopologyFamily::Complete),
            "ring" => Ok(TopologyFamily::Ring),
            "oriented-ring" | "oriented_ring" => Ok(TopologyFamily::OrientedRing),
            "star" => Ok(TopologyFamily::Star),
            "grid" => Ok(TopologyFamily::Grid),
            "two-cliques-bridge" | "two_cliques_bridge" => Ok(TopologyFamily::TwoCliquesBridge),
            "regions" => Ok(TopologyFamily::Regions { regions: 3 }),
            "random" => Ok(TopologyFamily::Random),
            other => Err(format!(
                "unknown topology family {other:?} (expected complete|ring|oriented-ring|star|grid|two-cliques-bridge|regions|random)"
            )),
        }
    }
}

/// A failure-pattern family for scenario grids.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum PatternFamily {
    /// [`random_fail_prone`]: `patterns` patterns, up to `max_crashes`
    /// crashes each, i.i.d. channel failures at the cell's `p_chan`.
    Random {
        /// Patterns per system.
        patterns: usize,
        /// Maximum crashes per pattern.
        max_crashes: usize,
    },
    /// [`rotating_fail_prone`]: one pattern per process (Figure-1 style),
    /// channel failures at the cell's `p_chan`.
    Rotating,
    /// [`adversarial_fail_prone`]: targeted directed-cut patterns with
    /// background noise at the cell's `p_chan`.
    Adversarial {
        /// Patterns per system.
        patterns: usize,
    },
}

impl PatternFamily {
    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            PatternFamily::Random { .. } => "random",
            PatternFamily::Rotating => "rotating",
            PatternFamily::Adversarial { .. } => "adversarial",
        }
    }

    /// Draws a fail-prone system over `graph` from the family.
    pub fn build(self, graph: &NetworkGraph, p_chan: f64, rng: &mut SplitMix64) -> FailProneSystem {
        match self {
            PatternFamily::Random { patterns, max_crashes } => {
                random_fail_prone(graph, patterns, max_crashes, p_chan, rng)
            }
            PatternFamily::Rotating => rotating_fail_prone(graph, p_chan, rng),
            PatternFamily::Adversarial { patterns } => {
                adversarial_fail_prone(graph, patterns, p_chan, rng)
            }
        }
    }
}

/// A fault-schedule family for simulated (latency/consensus) scenario
/// grids: *when* faults strike, persist and heal during a trial.
///
/// [`ScheduleFamily::Static`] is the paper's lower-bound adversary and
/// the historical behaviour — the first drawn pattern strikes whole at
/// time zero and never heals. The dynamic families build
/// [`gqs_faults`] scenario schedules instead: the drawn pattern's *channel*
/// failures still apply from time zero as static background noise
/// (nothing at `p_chan = 0`), but its crashes are replaced by the
/// schedule's own timeline, so recovery stories are not masked by
/// permanently dead processes. Solvability mode ignores the schedule (it
/// decides existence, not executions).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScheduleFamily {
    /// Pattern `f0` strikes at time zero, permanently (the historical
    /// behaviour; operations are invoked at `f0`-correct processes).
    Static,
    /// [`scenarios::staggered_region_outages`] over
    /// [`TopologyFamily::region_layout`]: each region's inter-region cut
    /// goes down for a window, staggered region by region.
    RegionOutage,
    /// [`scenarios::flapping_link`] on region 0's inter-region cut — the
    /// bridge-saturation probe (periodic down/up on the busiest cut).
    FlappingLink,
    /// [`scenarios::hub_crash`]: process 0 (star hub / first gateway)
    /// crashes mid-run and later recovers.
    HubCrash,
    /// [`scenarios::rolling_restart`]: every process crashes and recovers
    /// in sequence, one at a time.
    RollingRestart,
}

/// Per-mode timing constants for [`ScheduleFamily::script`], expressed in
/// simulated ticks (latency trials pace ops every few hundred ticks;
/// consensus trials live on the view-synchronizer scale).
#[derive(Copy, Clone, Debug)]
pub struct ScheduleTiming {
    /// When the first dynamic fault strikes.
    pub start: u64,
    /// Length of an outage / crash window.
    pub window: u64,
    /// Offset between consecutive region outages.
    pub stagger: u64,
    /// Flap phase lengths (down, up); flapping runs over `[start, start + window)`.
    pub flap: (u64, u64),
    /// Rolling restart per-process downtime and gap.
    pub restart: (u64, u64),
}

/// Timing for latency-mode trials (ops at `10 + i * 400`).
pub const LATENCY_TIMING: ScheduleTiming =
    ScheduleTiming { start: 300, window: 700, stagger: 500, flap: (150, 150), restart: (350, 150) };

/// Timing for consensus-mode trials (GST at 1000, views of `v * C`).
/// Faults strike at 200 — before undisturbed runs decide (~300–600
/// ticks) — so the schedule actually gates the decision: a region
/// outage pushes `decide_lat` past its heal, a static run decides early.
pub const CONSENSUS_TIMING: ScheduleTiming = ScheduleTiming {
    start: 200,
    window: 2_000,
    stagger: 1_000,
    flap: (400, 400),
    restart: (800, 200),
};

impl ScheduleFamily {
    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleFamily::Static => "static",
            ScheduleFamily::RegionOutage => "region-outage",
            ScheduleFamily::FlappingLink => "flapping-link",
            ScheduleFamily::HubCrash => "hub-crash",
            ScheduleFamily::RollingRestart => "rolling-restart",
        }
    }

    /// The fault schedule one trial applies: the static pattern strike for
    /// [`ScheduleFamily::Static`], otherwise the pattern's channel noise
    /// plus the family's dynamic timeline over the cell's topology.
    pub fn script(
        self,
        family: TopologyFamily,
        n: usize,
        g: &NetworkGraph,
        pattern: &FailurePattern,
        t: &ScheduleTiming,
    ) -> FailureSchedule {
        if self == ScheduleFamily::Static {
            return FailureSchedule::from_pattern_at(pattern, SimTime::ZERO);
        }
        let mut s = FailureSchedule::none();
        // Background noise: the pattern's channel failures, permanent.
        for ch in pattern.channels() {
            s.disconnect(ch, SimTime::ZERO);
        }
        let layout = family.region_layout(n);
        match self {
            ScheduleFamily::Static => unreachable!("handled above"),
            ScheduleFamily::RegionOutage => {
                s.merge(scenarios::staggered_region_outages(
                    &layout,
                    g,
                    SimTime(t.start),
                    t.window,
                    t.stagger,
                ));
            }
            ScheduleFamily::FlappingLink => {
                s.merge(scenarios::flapping_link(
                    &layout.cut(g, 0),
                    SimTime(t.start),
                    t.flap.0,
                    t.flap.1,
                    SimTime(t.start + t.window),
                ));
            }
            ScheduleFamily::HubCrash => {
                s.merge(scenarios::hub_crash(
                    ProcessId(0),
                    SimTime(t.start),
                    Some(SimTime(t.start + t.window)),
                ));
            }
            ScheduleFamily::RollingRestart => {
                s.merge(scenarios::rolling_restart(n, SimTime(t.start), t.restart.0, t.restart.1));
            }
        }
        s
    }

    /// The processes a trial invokes operations at, round-robin: the
    /// pattern-correct processes under [`ScheduleFamily::Static`] (the
    /// historical behaviour), everyone otherwise (dynamic faults are
    /// transient, so every process is a legitimate client entry point).
    fn invokers(self, n: usize, pattern: &FailurePattern) -> Vec<ProcessId> {
        match self {
            ScheduleFamily::Static => pattern.correct().iter().collect(),
            _ => (0..n).map(ProcessId).collect(),
        }
    }
}

impl FromStr for ScheduleFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "static" => Ok(ScheduleFamily::Static),
            "region-outage" | "region_outage" => Ok(ScheduleFamily::RegionOutage),
            "flapping-link" | "flapping_link" => Ok(ScheduleFamily::FlappingLink),
            "hub-crash" | "hub_crash" => Ok(ScheduleFamily::HubCrash),
            "rolling-restart" | "rolling_restart" => Ok(ScheduleFamily::RollingRestart),
            other => Err(format!(
                "unknown schedule family {other:?} (expected static|region-outage|flapping-link|hub-crash|rolling-restart)"
            )),
        }
    }
}

/// A network-model family for scenario grids: which [`NetModel`] the
/// simulated modes draw message delays from (`--net` on the CLI).
///
/// Every family keeps the mode's partial-synchrony overlay (GST + δ)
/// when the mode has one — consensus cells stay partially synchronous
/// under heavy-tailed jitter; only the *pre-GST* delay distribution
/// changes. Channel classes (intra-region vs gateway) come from the same
/// region partition the cell's fault schedules act on
/// ([`TopologyFamily::region_layout`]): the family's own regions for
/// `regions`, the two cliques for `two-cliques-bridge`, an even two-way
/// split for every other family.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub enum NetworkFamily {
    /// The mode's plain [`DelayModel`] routed through the degenerate
    /// [`NetModel`] — draw-for-draw identical to the historical path, so
    /// reports are byte-identical to pre-`NetModel` builds.
    #[default]
    Uniform,
    /// Constant delays: 5 ticks intra-region, 25 across gateways.
    Constant,
    /// Uniform jitter: `[1, 10]` intra-region, `[10, 60]` across
    /// gateways.
    Jitter,
    /// Heavy-tailed lognormal: median 5 (σ = 0.6, clamp `[1, 400]`)
    /// intra-region, median 30 (σ = 0.9, clamp `[5, 2000]`) across
    /// gateways.
    Lognormal,
    /// [`NetworkFamily::Lognormal`] plus a fixed 15-tick gateway skew
    /// against the index direction — asymmetric WAN routes.
    LognormalAsym,
}

impl NetworkFamily {
    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            NetworkFamily::Uniform => "uniform",
            NetworkFamily::Constant => "constant",
            NetworkFamily::Jitter => "jitter",
            NetworkFamily::Lognormal => "lognormal",
            NetworkFamily::LognormalAsym => "lognormal-asym",
        }
    }

    /// The [`NetModel`] this family imposes on `base` (the mode's plain
    /// delay model), classifying channels by `spec`. The family replaces
    /// `base`'s delay draw; any partial-synchrony overlay of `base`
    /// carries over unchanged.
    pub fn net_model(self, base: DelayModel, spec: RegionSpec) -> NetModel {
        let synchrony = match base {
            DelayModel::Uniform { .. } => None,
            DelayModel::PartialSynchrony { gst, delta, .. } => Some(Synchrony { gst, delta }),
        };
        let regions = Some(spec);
        let lognormal = NetModel {
            intra: LinkProfile::symmetric(LatencyDist::Lognormal {
                median: 5,
                sigma: 0.6,
                min: 1,
                max: 400,
            }),
            gateway: LinkProfile::symmetric(LatencyDist::Lognormal {
                median: 30,
                sigma: 0.9,
                min: 5,
                max: 2000,
            }),
            regions,
            synchrony,
        };
        match self {
            NetworkFamily::Uniform => NetModel::from(base),
            NetworkFamily::Constant => NetModel {
                intra: LinkProfile::symmetric(LatencyDist::Constant { ticks: 5 }),
                gateway: LinkProfile::symmetric(LatencyDist::Constant { ticks: 25 }),
                regions,
                synchrony,
            },
            NetworkFamily::Jitter => NetModel {
                intra: LinkProfile::symmetric(LatencyDist::UniformJitter { min: 1, max: 10 }),
                gateway: LinkProfile::symmetric(LatencyDist::UniformJitter { min: 10, max: 60 }),
                regions,
                synchrony,
            },
            NetworkFamily::Lognormal => lognormal,
            NetworkFamily::LognormalAsym => {
                NetModel { gateway: LinkProfile { skew: 15, ..lognormal.gateway }, ..lognormal }
            }
        }
    }
}

impl FromStr for NetworkFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "uniform" => Ok(NetworkFamily::Uniform),
            "constant" => Ok(NetworkFamily::Constant),
            "jitter" => Ok(NetworkFamily::Jitter),
            "lognormal" => Ok(NetworkFamily::Lognormal),
            "lognormal-asym" | "lognormal_asym" => Ok(NetworkFamily::LognormalAsym),
            other => Err(format!(
                "unknown network family {other:?} (expected uniform|constant|jitter|lognormal|lognormal-asym)"
            )),
        }
    }
}

/// One cell of a scenario grid.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ScenarioCell {
    /// Topology family.
    pub family: TopologyFamily,
    /// System size.
    pub n: usize,
    /// Edge density (used by [`TopologyFamily::Random`] only).
    pub density: f64,
    /// Pattern family.
    pub patterns: PatternFamily,
    /// Channel-failure probability fed to the pattern family.
    pub p_chan: f64,
    /// Per-channel message-loss probability fed to the simulator
    /// ([`SimConfig::loss`]; simulated modes only — solvability decides
    /// existence, not executions, so it ignores loss like it ignores the
    /// schedule).
    pub loss: f64,
    /// Fault-schedule family (simulated modes only; solvability ignores
    /// it).
    pub schedule: ScheduleFamily,
    /// Network-model family the simulated modes draw message delays from
    /// (solvability and scale ignore it like they ignore the schedule).
    pub net: NetworkFamily,
}

impl ScenarioCell {
    /// The region partition channel classes are derived from — the same
    /// partition the cell's fault schedules act on
    /// ([`TopologyFamily::region_layout`]).
    pub fn region_spec(&self) -> RegionSpec {
        RegionSpec { n: self.n, regions: self.family.region_count(self.n) }
    }
}

/// A full scenario grid: cells × trials, with a base seed.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioGrid {
    /// The cells, in output order.
    pub cells: Vec<ScenarioCell>,
    /// Trials per cell.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

/// The metrics every scenario trial reports, in row order:
///
/// * `gqs` — 1 if a generalized quorum system exists;
/// * `qs_plus` — 1 if a QS+ exists;
/// * `gap` — 1 if a GQS exists but no QS+ (the paper's separation);
/// * `w_min` — size of the smallest write quorum in the found witness
///   (0 when unsolvable);
/// * `sccs_f0` — number of SCCs of the first pattern's residual graph.
///
/// All five are deterministic functions of the scenario, so sweep reports
/// can be diffed byte for byte (no timing noise).
pub const SCENARIO_METRICS: &[&str] = &["gqs", "qs_plus", "gap", "w_min", "sccs_f0"];

/// Runs one scenario trial: builds the cell's topology and fail-prone
/// system from `rng` and measures [`SCENARIO_METRICS`].
pub fn scenario_trial(cell: &ScenarioCell, rng: &mut SplitMix64) -> Vec<f64> {
    let g = cell.family.build(cell.n, cell.density, rng);
    let fp = cell.patterns.build(&g, cell.p_chan, rng);
    let witness = find_gqs(&g, &fp);
    let gqs = witness.is_some();
    let qsp = qs_plus_exists(&g, &fp);
    let w_min = witness
        .as_ref()
        .and_then(|w| w.per_pattern.iter().map(|(_, w)| w.len()).min())
        .unwrap_or(0);
    let sccs = if fp.is_empty() { 0 } else { g.residual(fp.pattern(0)).sccs().len() };
    vec![
        gqs as u64 as f64,
        qsp as u64 as f64,
        (gqs && !qsp) as u64 as f64,
        w_min as f64,
        sccs as f64,
    ]
}

// ---------------------------------------------------------------------------
// Simulated modes: each described once
// ---------------------------------------------------------------------------

/// One simulated sweep mode, described once: its protocol stack, the
/// constants of a run, the nodes and operations of a drawn scenario, and
/// how to read the metric row off the finished run. Everything else — the
/// scenario draw ([`prepare`]), windowing, fork-and-branch, trace replay,
/// stall logging, aggregation — is applied to the description by code
/// that never names a mode.
trait Simulated: Sized {
    /// The protocol stack every process runs.
    type Proto: Protocol;
    /// Metric names, one per element of the measured row.
    const METRICS: &'static [&'static str];
    /// Hard stop per trial, in simulated ticks.
    const HORIZON: u64;
    /// Where the dynamic fault schedules place their events.
    const TIMING: ScheduleTiming;

    /// The mode's plain delay model, which the cell's [`NetworkFamily`]
    /// refines per channel class.
    fn delay() -> DelayModel {
        SimConfig::default().delay
    }

    /// The `n` nodes, and the operations to schedule (in scheduling
    /// order).
    fn build(n: usize, invokers: &[ProcessId]) -> (Vec<Self::Proto>, Vec<Invoke<Self>>);

    /// Reads [`Simulated::METRICS`] off a finished run.
    fn measure(run: &Prepared<Self>) -> Vec<f64>;
}

/// One operation a trial schedules: when, where, and what.
type Invoke<M> = (SimTime, ProcessId, <<M as Simulated>::Proto as Protocol>::Op);

/// A trial's simulation, populated and ready to run, plus what the draw
/// leaves for measuring and branching.
struct Prepared<M: Simulated> {
    sim: Simulation<M::Proto>,
    /// How many processes invoke operations.
    invokers: usize,
    /// The compiled fault schedule.
    schedule: FailureSchedule,
    /// The drawn simulator seed, which branch seeds derive from.
    sim_seed: u64,
}

/// The scenario draw every simulated mode shares: topology and fail-prone
/// system exactly like [`scenario_trial`], then the simulator seed, the
/// cell's fault schedule around the first pattern, and the mode's nodes
/// and operations. `None` when the cell draws an empty fail-prone system
/// or no invokers (the trial reports zeros); the seed is drawn *before*
/// those returns, so a trial advances its RNG identically either way.
fn prepare<M: Simulated>(cell: &ScenarioCell, rng: &mut SplitMix64) -> Option<Prepared<M>> {
    let g = cell.family.build(cell.n, cell.density, rng);
    let fp = cell.patterns.build(&g, cell.p_chan, rng);
    let sim_seed = rng.next_u64();
    if fp.is_empty() {
        return None;
    }
    let pattern = fp.pattern(0);
    let invokers = cell.schedule.invokers(cell.n, pattern);
    if invokers.is_empty() {
        return None;
    }
    let schedule = cell.schedule.script(cell.family, cell.n, &g, pattern, &M::TIMING);
    let (nodes, ops) = M::build(cell.n, &invokers);
    let delay = M::delay();
    let cfg = SimConfig {
        seed: sim_seed,
        delay,
        net: Some(cell.net.net_model(delay, cell.region_spec())),
        topology: Topology::from(g),
        horizon: SimTime(M::HORIZON),
        loss: cell.loss,
        max_events: sweep_max_events(),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, nodes);
    sim.apply_failures(&schedule);
    for (at, p, op) in ops {
        sim.invoke_at(at, p, op);
    }
    Some(Prepared { sim, invokers: invokers.len(), schedule, sim_seed })
}

/// The event cap simulated sweep trials run under: [`SimConfig`]'s
/// default, overridable via the `GQS_MAX_EVENTS` environment variable
/// (read once per process). CI uses a tiny cap to exercise the
/// event-cap → stall-hint → flight-recorder path cheaply; it is also the
/// escape hatch when a pathological grid needs a higher ceiling.
fn sweep_max_events() -> u64 {
    static CAP: OnceLock<u64> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("GQS_MAX_EVENTS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(SimConfig::default().max_events)
    })
}

/// The metrics every protocol-latency trial reports, in row order:
///
/// * `completed` — fraction of the trial's operations that completed
///   before quiescence/horizon (availability under the drawn pattern);
/// * `lat_mean` — mean latency of the completed operations (simulated
///   ticks; 0 when none completed);
/// * `lat_max` — worst completed-operation latency in the trial;
/// * `msgs_per_op` — delivered physical messages (flood relays included)
///   divided by the number of invoked operations.
///
/// Per-cell quantiles of each metric come from the engine's
/// [`QuantileSketch`], so e.g. the report's `lat_mean.p99` is the 99th
/// percentile of per-trial mean latency. Simulations are deterministic in
/// the per-trial seed, so latency reports diff byte for byte like
/// solvability reports.
pub const LATENCY_METRICS: &[&str] = &["completed", "lat_mean", "lat_max", "msgs_per_op"];

/// Operations invoked per latency trial.
const LATENCY_OPS: u64 = 6;
/// Gap between successive invocations (ticks) — wide enough that ops
/// mostly run uncontended under the default `[1, 10]` delay model.
const LATENCY_OP_SPACING: u64 = 400;
/// Hard stop per latency or availability trial; stalled runs go quiescent
/// long before this.
pub const LATENCY_HORIZON: u64 = 100_000;

/// The register workload of the latency and availability modes:
/// alternating writes and reads, round-robin over the invokers.
fn register_ops(invokers: &[ProcessId]) -> Vec<(SimTime, ProcessId, RegOp<u8, u64>)> {
    (0..LATENCY_OPS)
        .map(|i| {
            let op =
                if i % 2 == 0 { RegOp::Write { reg: 0, value: i } } else { RegOp::Read { reg: 0 } };
            (SimTime(10 + i * LATENCY_OP_SPACING), invokers[(i as usize) % invokers.len()], op)
        })
        .collect()
}

/// Majority-quorum ABD registers wrapped in [`Flood`]; `retry` selects
/// the retransmitting engine and its period.
fn flooded_registers(n: usize, retry: Option<u64>) -> Vec<Flood<AbdRegister<u8, u64>>> {
    let qs = majority_system(n).expect("majority system exists for n >= 1");
    let (reads, writes) = (qs.reads().clone(), qs.writes().clone());
    let nodes = match retry {
        Some(interval) => reliable_abd_register_nodes::<u8, u64>(n, reads, writes, 0, interval),
        None => abd_register_nodes::<u8, u64>(n, reads, writes, 0),
    };
    nodes.into_iter().map(Flood::new).collect()
}

/// [`Mode::Latency`].
struct Latency;

impl Simulated for Latency {
    type Proto = Flood<AbdRegister<u8, u64>>;
    const METRICS: &'static [&'static str] = LATENCY_METRICS;
    const HORIZON: u64 = LATENCY_HORIZON;
    const TIMING: ScheduleTiming = LATENCY_TIMING;

    fn build(n: usize, invokers: &[ProcessId]) -> (Vec<Self::Proto>, Vec<Invoke<Self>>) {
        (flooded_registers(n, None), register_ops(invokers))
    }

    fn measure(run: &Prepared<Self>) -> Vec<f64> {
        let lats: Vec<u64> = run.sim.history().ops().iter().filter_map(|r| r.latency()).collect();
        let completed = lats.len() as f64 / LATENCY_OPS as f64;
        let lat_mean =
            if lats.is_empty() { 0.0 } else { lats.iter().sum::<u64>() as f64 / lats.len() as f64 };
        let lat_max = lats.iter().max().copied().unwrap_or(0) as f64;
        let msgs_per_op = run.sim.stats().delivered as f64 / LATENCY_OPS as f64;
        vec![completed, lat_mean, lat_max, msgs_per_op]
    }
}

/// Runs one protocol-latency trial: builds the cell's topology and
/// fail-prone system exactly like [`scenario_trial`], then drives an
/// ABD majority register wrapped in [`Flood`] over that topology — the
/// paper's §5 transitivity construction operationalized — under the
/// cell's fault schedule ([`ScheduleFamily`]; `Static` replays the
/// historical "pattern `f0` at time zero" adversary) and measures
/// [`LATENCY_METRICS`].
///
/// Operations alternate writes and reads, round-robin over the
/// schedule's invokers (`f0`-correct processes under `Static`, every
/// process under the dynamic families). On scenarios
/// whose residual graph keeps the invoker connected to a majority,
/// everything completes and the latency reflects the graph's hop
/// structure (plus the flooding cost in `msgs_per_op`: `n²` deliveries
/// per envelope on a healthy complete graph, one envelope per broadcast
/// round and one per reply); where the
/// faults sever too much for too long, `completed` drops below 1 — the
/// availability/latency trade-off of the classical quorum-system
/// literature, now measured per cell *and per fault timeline*.
pub fn latency_trial(cell: &ScenarioCell, rng: &mut SplitMix64) -> Vec<f64> {
    one_row::<Latency>(cell, rng, None).0
}

/// The metrics every consensus trial reports, in row order:
///
/// * `decided` — fraction of processes that learned the decision before
///   the horizon;
/// * `views` — the view in which the earliest decision fell (0 when
///   nobody decided);
/// * `decide_lat` — simulated time of the earliest decision (0 when
///   nobody decided);
/// * `lat_over_cdelta` — `decide_lat / (C × δ)`, the §7 figure of merit
///   (the upper bound says decisions land within a bounded number of
///   `C × δ`-scaled views after GST);
/// * `msgs_per_op` — delivered physical messages (flood relays included)
///   per invoked proposal.
pub const CONSENSUS_METRICS: &[&str] =
    &["decided", "views", "decide_lat", "lat_over_cdelta", "msgs_per_op"];

/// View-duration constant `C` for consensus trials.
const CONSENSUS_C: u64 = 50;
/// Post-GST delay bound `δ`.
const CONSENSUS_DELTA: u64 = 5;
/// Global stabilization time: late enough that early views churn, early
/// enough that decisions land well before the horizon.
const CONSENSUS_GST: u64 = 1_000;
/// Hard stop per consensus trial.
pub const CONSENSUS_HORIZON: u64 = 200_000;

/// [`Mode::Consensus`].
struct Consensus;

impl Simulated for Consensus {
    type Proto = Flood<ConsensusNode<u64>>;
    const METRICS: &'static [&'static str] = CONSENSUS_METRICS;
    const HORIZON: u64 = CONSENSUS_HORIZON;
    const TIMING: ScheduleTiming = CONSENSUS_TIMING;

    fn delay() -> DelayModel {
        DelayModel::PartialSynchrony {
            pre_min: 1,
            pre_max: 100,
            gst: CONSENSUS_GST,
            delta: CONSENSUS_DELTA,
        }
    }

    fn build(n: usize, invokers: &[ProcessId]) -> (Vec<Self::Proto>, Vec<Invoke<Self>>) {
        let proposals = invokers
            .iter()
            .enumerate()
            .map(|(i, &p)| (SimTime(10 + i as u64), p, p.index() as u64 + 1))
            .collect();
        (majority_consensus_nodes::<u64>(n, CONSENSUS_C, ProposalMode::Push), proposals)
    }

    /// Also trips the Agreement assertion.
    fn measure(run: &Prepared<Self>) -> Vec<f64> {
        let n = run.sim.len();
        // One pass collects everything a decision yields: the value for the
        // Agreement tripwire, the (view, time) pair for the metrics.
        let decisions: Vec<(u64, u64, SimTime)> = (0..n)
            .filter_map(|p| {
                run.sim.node(ProcessId(p)).inner().decision().map(|&(v, view, at)| (v, view, at))
            })
            .collect();
        assert!(
            decisions.windows(2).all(|w| w[0].0 == w[1].0),
            "consensus Agreement violated: {:?}",
            decisions.iter().map(|&(v, _, _)| v).collect::<Vec<_>>()
        );
        let decided = decisions.len() as f64 / n as f64;
        let first = decisions.iter().min_by_key(|&&(_, _, at)| at);
        let views = first.map(|&(_, v, _)| v).unwrap_or(0) as f64;
        let decide_lat = first.map(|&(_, _, at)| at.ticks()).unwrap_or(0) as f64;
        let lat_over_cdelta = decide_lat / (CONSENSUS_C * CONSENSUS_DELTA) as f64;
        let msgs_per_op = run.sim.stats().delivered as f64 / run.invokers as f64;
        vec![decided, views, decide_lat, lat_over_cdelta, msgs_per_op]
    }
}

/// Runs one single-shot consensus trial: builds the cell's topology and
/// fail-prone system exactly like [`scenario_trial`], then drives the
/// Figure 6 push-consensus protocol (majority quorums, flooded, view
/// synchronizer with `C = 50`) under partial synchrony (`GST = 1000`,
/// `δ = 5`) and the cell's fault schedule, and measures
/// [`CONSENSUS_METRICS`].
///
/// Every invoker proposes its own value at the start of the run; the
/// trial asserts Agreement (all decided values equal — a safety tripwire
/// that has caught real bugs in weaker harnesses) and reports liveness
/// figures. Deterministic in the per-trial seed like every other trial.
pub fn consensus_trial(cell: &ScenarioCell, rng: &mut SplitMix64) -> Vec<f64> {
    one_row::<Consensus>(cell, rng, None).0
}

/// One branched consensus trial: [`consensus_trial`]'s exact scenario
/// draw and warmup to `spec.at`, then `spec.branches` reseeded
/// continuations, each reporting a [`CONSENSUS_METRICS`] row. See
/// [`BranchSpec`] for the fork/straight contract.
pub fn consensus_branch_trial(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    spec: &BranchSpec,
) -> Vec<Vec<f64>> {
    branch_rows::<Consensus>(cell, rng, spec)
}

/// The metrics every availability trial reports, in row order:
///
/// * `completed` — fraction of the invoked operations that completed
///   before quiescence/horizon;
/// * `stalled` — count of invoked operations that never completed (the
///   diagnosable residue a truncated run leaves behind);
/// * `time_to_heal` — how long after the schedule's *last* heal/recovery
///   the backlog took to drain: the latest completion at or after that
///   heal, minus the heal time (0 when the schedule never heals or no
///   operation completes afterwards);
/// * `retransmits_per_op` — retransmitted request copies
///   ([`gqs_simnet::NetStats::retransmitted`]) per invoked operation —
///   the price of the reliability layer, which drops to 0 on loss-free,
///   outage-free cells.
pub const AVAILABILITY_METRICS: &[&str] =
    &["completed", "stalled", "time_to_heal", "retransmits_per_op"];

/// Retry period of the availability trial's recovery-aware engine: a few
/// op spacings short of the fault windows, so a request lost to an outage
/// is retried several times before and shortly after the heal.
const AVAILABILITY_RETRY: u64 = 150;

/// [`Mode::Availability`].
struct Availability;

impl Simulated for Availability {
    type Proto = Flood<AbdRegister<u8, u64>>;
    const METRICS: &'static [&'static str] = AVAILABILITY_METRICS;
    const HORIZON: u64 = LATENCY_HORIZON;
    const TIMING: ScheduleTiming = LATENCY_TIMING;

    fn build(n: usize, invokers: &[ProcessId]) -> (Vec<Self::Proto>, Vec<Invoke<Self>>) {
        (flooded_registers(n, Some(AVAILABILITY_RETRY)), register_ops(invokers))
    }

    fn measure(run: &Prepared<Self>) -> Vec<f64> {
        let invoked = run.sim.history().ops().len();
        if invoked == 0 {
            return vec![0.0; AVAILABILITY_METRICS.len()];
        }
        let done: Vec<SimTime> =
            run.sim.history().ops().iter().filter_map(|r| r.completed_at()).collect();
        let completed = done.len() as f64 / invoked as f64;
        let stalled = (invoked - done.len()) as f64;
        // The schedule's last heal or recovery; faults that never heal
        // contribute nothing (their damage shows up in `stalled` instead).
        let last_heal = run
            .schedule
            .heals()
            .iter()
            .map(|&(_, at)| at)
            .chain(run.schedule.recovers().iter().map(|&(_, at)| at))
            .max();
        let time_to_heal = match last_heal {
            Some(heal) => done
                .iter()
                .filter(|&&at| at >= heal)
                .max()
                .map(|&at| (at.ticks() - heal.ticks()) as f64)
                .unwrap_or(0.0),
            None => 0.0,
        };
        let retransmits_per_op = run.sim.stats().retransmitted as f64 / invoked as f64;
        vec![completed, stalled, time_to_heal, retransmits_per_op]
    }
}

/// Runs one availability trial: the same topology/fail-prone draw and
/// fault schedule as [`latency_trial`], but driving the *self-healing*
/// register stack — [`gqs_registers::reliable_abd_register_nodes`], whose
/// classical engine rebroadcasts unanswered quorum requests every 150
/// ticks, with replica-side duplicate suppression — over channels that drop each message with probability `cell.loss`.
/// Operations are invoked open-loop on the latency-mode cadence, so an op
/// that lands inside an outage window simply waits out the fault and
/// completes after the heal with **no client-side retry**; the trial
/// measures [`AVAILABILITY_METRICS`].
pub fn availability_trial(cell: &ScenarioCell, rng: &mut SplitMix64) -> Vec<f64> {
    one_row::<Availability>(cell, rng, None).0
}

// ---------------------------------------------------------------------------
// Scale mode (two simulations per trial, so outside `Simulated`)
// ---------------------------------------------------------------------------

/// The metrics every scale trial reports, in row order:
///
/// * `reached` — fraction of processes the gossip rumor reached (1.0 on a
///   connected topology);
/// * `spread` — virtual time at which the last process heard it (the
///   source's weighted eccentricity under the drawn delays);
/// * `msgs_per_proc` — gossip messages sent per process (≈ the mean
///   out-degree: 2 on a ring, ≤ 4 on a grid);
/// * `abd_completed` — fraction of the sampled-arc majority-ABD
///   operations that completed;
/// * `abd_msgs_per_proc` — ABD messages sent per process (≈ 2 × ops,
///   since one op costs `4q ≈ 2n` sends).
///
/// Every metric is a deterministic simulation quantity — counts and
/// virtual times, never wall-clock — so scale reports diff byte for byte
/// across machines and thread counts like every other mode. (Throughput
/// and memory figures live in the repository benchmark's `scale`
/// workload, `bash benchmark/run.sh`, which measures rather than
/// simulates.)
pub const SCALE_METRICS: &[&str] =
    &["reached", "spread", "msgs_per_proc", "abd_completed", "abd_msgs_per_proc"];

/// Operations per scale trial's ABD half.
const SCALE_ABD_OPS: u64 = 2;

/// Runs one scale trial: flooded [`Gossip`] over the cell's **implicit**
/// topology, then [`sampled_abd_nodes`] majority ABD over the complete
/// graph, measuring [`SCALE_METRICS`].
///
/// This is the only mode whose `n` may exceed
/// `gqs_core::MAX_PROCESSES`: nothing here builds a [`NetworkGraph`],
/// a `FailProneSystem` or any other bitset-backed decision structure —
/// adjacency is answered arithmetically and quorums are counted arcs.
/// The cell's pattern, schedule and density axes are ignored (the scale
/// workloads run fault-free; fault-laden runs belong to the decision
/// modes, which need patterns and hence the 1024-process bound).
///
/// # Panics
///
/// Panics if the cell's family has no implicit form (see
/// [`TopologyFamily::implicit`]); the CLI rejects such grids up front.
pub fn scale_trial(cell: &ScenarioCell, rng: &mut SplitMix64) -> Vec<f64> {
    let n = cell.n;
    let topology = cell.family.implicit(n).unwrap_or_else(|| {
        panic!("scale mode needs an implicit topology, not {}", cell.family.name())
    });
    let gossip_seed = rng.next_u64();
    let source = rng.range(0, n as u64 - 1) as usize;
    let abd_seed = rng.next_u64();

    let cfg = SimConfig {
        seed: gossip_seed,
        topology,
        horizon: SimTime::MAX,
        max_events: u64::MAX,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, vec![Gossip::default(); n]);
    sim.invoke_at(SimTime(1), ProcessId(source), ());
    sim.run();
    let (heard, last) = (0..n)
        .filter_map(|p| sim.node(ProcessId(p)).heard_at())
        .fold((0usize, SimTime::ZERO), |(heard, last), t| (heard + 1, last.max(t)));
    let reached = heard as f64 / n as f64;
    let spread = last.ticks() as f64;
    let msgs_per_proc = sim.stats().sent as f64 / n as f64;
    // Free the gossip run before the ABD one is built: at a million
    // processes the two together would double the trial's peak memory.
    drop(sim);

    let cfg = SimConfig {
        seed: abd_seed,
        horizon: SimTime::MAX,
        max_events: u64::MAX,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, sampled_abd_nodes(n, 0u64, abd_seed));
    for i in 0..SCALE_ABD_OPS {
        let p = ProcessId(((source as u64 + i * 7) % n as u64) as usize);
        let at = SimTime(1 + i * 200);
        if i % 2 == 0 {
            sim.invoke_at(at, p, ScaleOp::Write(i));
        } else {
            sim.invoke_at(at, p, ScaleOp::Read);
        }
    }
    sim.run_until_ops_complete();
    let invoked = sim.history().ops().len().max(1);
    let abd_completed =
        sim.history().ops().iter().filter(|r| r.is_complete()).count() as f64 / invoked as f64;
    let abd_msgs_per_proc = sim.stats().sent as f64 / n as f64;

    vec![reached, spread, msgs_per_proc, abd_completed, abd_msgs_per_proc]
}

// ---------------------------------------------------------------------------
// Execution strategies: straight, windowed, fork-and-branch, trace replay
// ---------------------------------------------------------------------------

/// How a simulated sweep executes each trial — orthogonal to *what* the
/// trial simulates ([`Mode`]). Windowing and branching exclude each
/// other: a branched trial has no single timeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Exec {
    /// One run to completion per trial, one metric row.
    Straight,
    /// One run per trial driven in windows of this many ticks, appending
    /// [`TIMELINE_SERIES`] samples per window to the metric row
    /// ([`report_json_exec`] renders them as series). Pure observation:
    /// the base metrics equal [`Exec::Straight`]'s bit for bit. On an
    /// outage grid in availability mode the `tl_ops` series shows the
    /// parked backlog draining in a burst right after the heal.
    Timeline(u64),
    /// One warmup to `at` per trial, then `branches` reseeded
    /// continuations (or the warmup replayed per branch in
    /// [`BranchMode::Straight`]), each contributing one metric row — a
    /// cell aggregates `trials × branches` rows.
    Branched(BranchSpec),
}

/// The three per-bucket series every timeline trial samples, in column
/// order within each bucket:
///
/// * `events` — simulator events processed inside the window;
/// * `ops` — operations completed inside the window;
/// * `avail` — cumulative completed/scheduled operation fraction at the
///   window's end (0 before anything is scheduled).
pub const TIMELINE_SERIES: &[&str] = &["events", "ops", "avail"];

/// Bucket count of a timeline run over `horizon` ticks: one window per
/// `bucket` ticks, the last window possibly short.
///
/// # Panics
///
/// Panics if `bucket` is zero.
pub fn timeline_buckets(bucket: u64, horizon: u64) -> usize {
    assert!(bucket > 0, "timeline bucket must be positive");
    horizon.div_ceil(bucket) as usize
}

/// Drives a prepared simulation in `bucket`-tick windows up to `horizon`,
/// sampling [`TIMELINE_SERIES`] at every window boundary. Windowing is
/// pure observation: the bucketed run processes exactly the event
/// sequence of a straight [`Simulation::run_until_ops_complete`] (held by
/// a simnet test), so timeline sweeps keep the engine's
/// bit-identical-for-any-thread-count contract. Returns the per-window
/// samples plus the final stop reason (for stall logging).
fn run_bucketed<P: Protocol>(
    sim: &mut Simulation<P>,
    bucket: u64,
    horizon: u64,
) -> (Vec<[f64; 3]>, StopReason) {
    let nb = timeline_buckets(bucket, horizon);
    let mut out = Vec::with_capacity(nb);
    let mut prev_events = sim.stats().events;
    let mut prev_done = sim.finished_ops();
    let mut reason = StopReason::Quiescent;
    for k in 0..nb {
        let until = SimTime(((k as u64 + 1) * bucket).min(horizon));
        reason = sim.run_until_ops_complete_or(until);
        let events = sim.stats().events;
        let done = sim.finished_ops();
        let scheduled = sim.scheduled_ops();
        let avail = if scheduled == 0 { 0.0 } else { done as f64 / scheduled as f64 };
        out.push([(events - prev_events) as f64, (done - prev_done) as f64, avail]);
        prev_events = events;
        prev_done = done;
    }
    (out, reason)
}

/// Prefix of the per-bucket columns a timeline sweep appends to its
/// mode's base metrics; no base metric starts with it.
const TIMELINE_PREFIX: &str = "tl_";

/// Metric-name vector of a sweep over `buckets` windows: the mode's base
/// metrics followed by `tl_<series><k>` columns for every bucket `k` —
/// timeline samples ride the ordinary aggregation pipeline (and so
/// inherit its determinism) instead of a side channel.
fn timeline_metric_names(base: &[&str], buckets: usize) -> Vec<String> {
    let mut names: Vec<String> = base.iter().map(|s| s.to_string()).collect();
    for k in 0..buckets {
        for series in TIMELINE_SERIES {
            names.push(format!("{TIMELINE_PREFIX}{series}{k}"));
        }
    }
    names
}

/// One unbranched trial of mode `M`: a straight run, or — with a
/// `bucket` — a windowed one whose row carries the bucket-major
/// [`TIMELINE_SERIES`] samples after the base metrics. An empty scenario
/// draw reports a zero row of the same width. The stop reason is for
/// stall logging.
fn one_row<M: Simulated>(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    bucket: Option<u64>,
) -> (Vec<f64>, StopReason) {
    let Some(mut run) = prepare::<M>(cell, rng) else {
        let buckets = bucket.map_or(0, |b| timeline_buckets(b, M::HORIZON));
        let width = M::METRICS.len() + TIMELINE_SERIES.len() * buckets;
        return (vec![0.0; width], StopReason::Quiescent);
    };
    let (samples, reason) = match bucket {
        Some(b) => run_bucketed(&mut run.sim, b, M::HORIZON),
        None => (Vec::new(), run.sim.run_until_ops_complete()),
    };
    let mut row = M::measure(&run);
    row.extend(samples.iter().flatten());
    (row, reason)
}

/// One branched trial of mode `M`:
///
/// * [`BranchMode::Fork`] runs the warmup once to `spec.at`, snapshots
///   it with [`Simulation::checkpoint`], and fans `spec.branches`
///   reseeded continuations off the same checkpoint — the warmup cost is
///   paid once.
/// * [`BranchMode::Straight`] re-runs the identical warmup from scratch
///   for every branch: the reference execution fork mode must match byte
///   for byte.
///
/// Both modes advance the caller's RNG identically and seed branch `b`
/// with [`BranchSpec::branch_seed`] (a pure function of the drawn
/// simulator seed and `b`, never of checkpoint state), so they produce
/// identical rows *and* leave downstream trials undisturbed — branching
/// is purely an execution strategy, invisible in the aggregates. Empty
/// scenario draws yield `spec.branches` all-zero rows so per-cell row
/// counts agree across modes.
fn branch_rows<M: Simulated>(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    spec: &BranchSpec,
) -> Vec<Vec<f64>> {
    let zeros = || vec![vec![0.0; M::METRICS.len()]; spec.branches];
    match spec.mode {
        BranchMode::Fork => {
            let Some(mut run) = prepare::<M>(cell, rng) else { return zeros() };
            run.sim.run_until(SimTime(spec.at));
            let cp = run.sim.checkpoint();
            (0..spec.branches)
                .map(|b| {
                    run.sim.restore(&cp);
                    run.sim.reseed(BranchSpec::branch_seed(run.sim_seed, b));
                    run.sim.run_until_ops_complete();
                    M::measure(&run)
                })
                .collect()
        }
        BranchMode::Straight => {
            // Branch 0 uses the caller's RNG (advancing it exactly as
            // fork mode does); later branches replay the same draws from
            // a pre-setup clone.
            let pre = rng.clone();
            let mut rows = Vec::with_capacity(spec.branches);
            for b in 0..spec.branches {
                let mut replay = pre.clone();
                let r = if b == 0 { &mut *rng } else { &mut replay };
                let Some(mut run) = prepare::<M>(cell, r) else { return zeros() };
                run.sim.run_until(SimTime(spec.at));
                run.sim.reseed(BranchSpec::branch_seed(run.sim_seed, b));
                run.sim.run_until_ops_complete();
                rows.push(M::measure(&run));
            }
            rows
        }
    }
}

/// Runs one trial of mode `M` to completion with `sink` attached; `false`
/// when the trial draws an empty scenario (nothing to trace).
fn replay<M: Simulated>(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    sink: Box<dyn TraceSink>,
) -> bool {
    let Some(mut run) = prepare::<M>(cell, rng) else { return false };
    run.sim.set_trace(sink);
    run.sim.run_until_ops_complete();
    true
}

/// Streams `grid` through the engine in mode `M` under `exec`: the one
/// place a simulated sweep's [`SweepSpec`], metric names, cell indexing
/// and stall log come together. Only unbranched trials feed the stall
/// log: the hint it produces points at the straight replay of a trial,
/// which a reseeded continuation is not.
fn drive<M: Simulated>(grid: &ScenarioGrid, exec: &Exec, opts: &SweepOptions) -> SweepReport {
    let bucket = match *exec {
        Exec::Timeline(bucket) => Some(bucket),
        Exec::Straight | Exec::Branched(_) => None,
    };
    let buckets = bucket.map_or(0, |b| timeline_buckets(b, M::HORIZON));
    let names = timeline_metric_names(M::METRICS, buckets);
    let metrics: Vec<&str> = names.iter().map(String::as_str).collect();
    // Cells travel with their grid index so stall records can address them
    // (the engine's closure signature only carries the trial index).
    let cells: Vec<(usize, ScenarioCell)> = grid.cells.iter().copied().enumerate().collect();
    let spec = SweepSpec { cells: &cells, trials: grid.trials, seed: grid.seed, metrics: &metrics };
    run_rows(&spec, opts, |(c, cell), t, rng| match exec {
        Exec::Branched(branch) => branch_rows::<M>(cell, rng, branch),
        Exec::Straight | Exec::Timeline(_) => {
            let (row, reason) = one_row::<M>(cell, rng, bucket);
            note_stall(&opts.stall_log, *c, t, reason);
            vec![row]
        }
    })
}

// ---------------------------------------------------------------------------
// The mode vocabulary and the grid's entry points
// ---------------------------------------------------------------------------

/// What one trial of a scenario grid measures (`gqs_sweep --mode`),
/// orthogonal to how the trial is executed ([`Exec`]). Every mode draws
/// from the per-trial RNG only, so a trial is deterministic in its seed
/// and reports diff byte for byte.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The decision procedures alone: [`scenario_trial`],
    /// [`SCENARIO_METRICS`].
    Solvability,
    /// The flooded ABD register of [`latency_trial`],
    /// [`LATENCY_METRICS`].
    Latency,
    /// The Figure 6 consensus stack of [`consensus_trial`],
    /// [`CONSENSUS_METRICS`].
    Consensus,
    /// The self-healing register stack of [`availability_trial`],
    /// [`AVAILABILITY_METRICS`].
    Availability,
    /// Gossip and sampled-arc ABD over implicit topologies:
    /// [`scale_trial`], [`SCALE_METRICS`].
    Scale,
}

/// The monomorphized entry points of one [`Simulated`] description.
struct SimEntry {
    horizon: u64,
    drive: fn(&ScenarioGrid, &Exec, &SweepOptions) -> SweepReport,
    replay: fn(&ScenarioCell, &mut SplitMix64, Box<dyn TraceSink>) -> bool,
}

impl SimEntry {
    fn of<M: Simulated>() -> Self {
        SimEntry { horizon: M::HORIZON, drive: drive::<M>, replay: replay::<M> }
    }
}

impl Mode {
    /// Every mode, in `--help` order.
    const ALL: [Mode; 5] =
        [Mode::Solvability, Mode::Latency, Mode::Consensus, Mode::Availability, Mode::Scale];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Solvability => "solvability",
            Mode::Latency => "latency",
            Mode::Consensus => "consensus",
            Mode::Availability => "availability",
            Mode::Scale => "scale",
        }
    }

    /// The metric names of one trial row, in row order.
    pub fn metrics(self) -> &'static [&'static str] {
        match self {
            Mode::Solvability => SCENARIO_METRICS,
            Mode::Latency => LATENCY_METRICS,
            Mode::Consensus => CONSENSUS_METRICS,
            Mode::Availability => AVAILABILITY_METRICS,
            Mode::Scale => SCALE_METRICS,
        }
    }

    /// The one place a runtime mode becomes its [`Simulated`] type (once
    /// per sweep, never per trial); `None` for the modes that drive no
    /// single protocol simulation.
    fn simulated(self) -> Option<SimEntry> {
        match self {
            Mode::Latency => Some(SimEntry::of::<Latency>()),
            Mode::Consensus => Some(SimEntry::of::<Consensus>()),
            Mode::Availability => Some(SimEntry::of::<Availability>()),
            Mode::Solvability | Mode::Scale => None,
        }
    }

    /// The hard stop of one simulated trial, in ticks. `Some` exactly for
    /// the modes whose trial is one bounded protocol simulation (latency,
    /// consensus, availability): the ones that can be windowed, branched
    /// and trace-replayed, and whose grids have schedule, loss and
    /// network axes.
    pub fn horizon(self) -> Option<u64> {
        self.simulated().map(|entry| entry.horizon)
    }

    /// [`Mode::horizon`], or the one refusal windowing, branching and
    /// trace replay (`what` names which) all give on a mode without one:
    /// solvability decides, scale runs two simulations per trial — neither
    /// has a single run to window, fork or trace.
    pub fn horizon_for(self, what: &str) -> Result<u64, String> {
        self.horizon().ok_or_else(|| self.unsimulated(what))
    }

    /// The refusal [`Mode::horizon_for`] documents.
    fn unsimulated(self, what: &str) -> String {
        format!("{what} needs --mode latency, consensus or availability, not {:?}", self.name())
    }

    /// The largest system size a cell may have, and the constant that
    /// sets it: the decision modes build quorum systems and fail-prone
    /// structures, whose bitsets stop at `gqs_core::MAX_PROCESSES`; scale
    /// mode only needs the simulator's pid space.
    pub fn size_cap(self) -> (usize, &'static str) {
        match self {
            Mode::Scale => (gqs_simnet::MAX_SIM_PROCESSES, "gqs_simnet::MAX_SIM_PROCESSES"),
            _ => (gqs_core::MAX_PROCESSES, "gqs_core::MAX_PROCESSES"),
        }
    }
}

impl FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Mode::ALL.into_iter().find(|m| m.name() == s).ok_or_else(|| {
            format!(
                "unknown mode {s:?} (expected solvability|latency|consensus|availability|scale)"
            )
        })
    }
}

/// Output encodings of [`replay_trial_trace`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line ([`gqs_simnet::JsonlSink`]).
    Jsonl,
    /// A Chrome `chrome://tracing` / Perfetto event array
    /// ([`gqs_simnet::ChromeSink`]).
    Chrome,
}

/// Re-runs trial `trial` of cell `cell` serially with `sink` attached.
/// The replay draws from [`trial_rng`]`(seed, cell * trials + trial)` —
/// the exact seeding of the parallel engine — and tracing never perturbs
/// a run (held by simnet tests), so the replayed execution is the very
/// execution the sweep aggregated, independent of `GQS_THREADS`.
fn replay_trial(
    grid: &ScenarioGrid,
    mode: Mode,
    cell: usize,
    trial: usize,
    sink: Box<dyn TraceSink>,
) -> Result<(), String> {
    let entry = mode.simulated().ok_or_else(|| mode.unsimulated("trace replay"))?;
    let c = grid.locate(cell, trial)?;
    let mut rng = trial_rng(grid.seed, cell * grid.trials + trial);
    if (entry.replay)(c, &mut rng, sink) {
        Ok(())
    } else {
        Err("trial draws an empty scenario (nothing to trace)".to_string())
    }
}

/// Serially re-executes one sweep trial with an export sink attached and
/// returns the rendered trace. Deterministic in `(grid, mode, cell,
/// trial)`: byte-identical for any thread count, because the replay is
/// single-threaded and seeded exactly like the parallel engine seeds
/// that trial. Errors on out-of-range coordinates, an empty scenario
/// draw, and the modes without a [`Mode::horizon`].
pub fn replay_trial_trace(
    grid: &ScenarioGrid,
    mode: Mode,
    cell: usize,
    trial: usize,
    format: TraceFormat,
) -> Result<String, String> {
    match format {
        TraceFormat::Jsonl => {
            let sink = SharedSink::new(JsonlSink::new());
            replay_trial(grid, mode, cell, trial, Box::new(sink.clone()))?;
            Ok(sink.with(|s| s.as_str().to_string()))
        }
        TraceFormat::Chrome => {
            let sink = SharedSink::new(ChromeSink::new());
            replay_trial(grid, mode, cell, trial, Box::new(sink.clone()))?;
            Ok(sink.with(std::mem::take).into_string())
        }
    }
}

/// Serially re-executes one sweep trial with a [`FlightRecorder`]
/// attached and returns its dump — `Some` exactly when the trial hits
/// its event cap (tune with `GQS_MAX_EVENTS`), naming the stalled ops,
/// armed timers and last events of the stuck run.
pub fn replay_trial_flight(
    grid: &ScenarioGrid,
    mode: Mode,
    cell: usize,
    trial: usize,
) -> Result<Option<String>, String> {
    let sink = SharedSink::new(FlightRecorder::new());
    replay_trial(grid, mode, cell, trial, Box::new(sink.clone()))?;
    Ok(sink.with(|fr| fr.report().map(|r| r.to_string())))
}

impl ScenarioGrid {
    /// Streams the grid through the engine in `mode` under `exec`; the
    /// report carries [`Mode::metrics`] per cell (plus the window columns
    /// under [`Exec::Timeline`]). Aggregates are bit-identical for any
    /// thread count, and for either [`BranchMode`] of a branched run.
    ///
    /// # Panics
    ///
    /// Panics if `exec` is not [`Exec::Straight`] for a mode without a
    /// [`Mode::horizon`] (check with [`Mode::horizon_for`] first), or on a
    /// zero [`Exec::Timeline`] bucket.
    pub fn run_mode(&self, mode: Mode, exec: &Exec, opts: &SweepOptions) -> SweepReport {
        if let Some(entry) = mode.simulated() {
            return (entry.drive)(self, exec, opts);
        }
        assert!(*exec == Exec::Straight, "{}", mode.unsimulated("windowing or branching"));
        let spec = SweepSpec {
            cells: &self.cells,
            trials: self.trials,
            seed: self.seed,
            metrics: mode.metrics(),
        };
        match mode {
            Mode::Scale => run(&spec, opts, |cell, _t, rng| scale_trial(cell, rng)),
            _ => run(&spec, opts, |cell, _t, rng| scenario_trial(cell, rng)),
        }
    }

    /// The cell at index `cell`, provided `(cell, trial)` addresses a
    /// trial of this grid; the error names the offending coordinate.
    pub fn locate(&self, cell: usize, trial: usize) -> Result<&ScenarioCell, String> {
        let c = self.cells.get(cell).ok_or_else(|| {
            format!("cell {cell} out of range (grid has {} cells)", self.cells.len())
        })?;
        if trial >= self.trials {
            return Err(format!(
                "trial {trial} out of range (grid has {} trials/cell)",
                self.trials
            ));
        }
        Ok(c)
    }

    /// [`ScenarioGrid::run_mode`] in [`Mode::Solvability`].
    pub fn run(&self, opts: &SweepOptions) -> SweepReport {
        self.run_mode(Mode::Solvability, &Exec::Straight, opts)
    }

    /// [`ScenarioGrid::run_mode`] in [`Mode::Latency`].
    pub fn run_latency(&self, opts: &SweepOptions) -> SweepReport {
        self.run_mode(Mode::Latency, &Exec::Straight, opts)
    }

    /// [`ScenarioGrid::run_mode`] in [`Mode::Consensus`].
    pub fn run_consensus(&self, opts: &SweepOptions) -> SweepReport {
        self.run_mode(Mode::Consensus, &Exec::Straight, opts)
    }

    /// [`ScenarioGrid::run_mode`] in [`Mode::Availability`].
    pub fn run_availability(&self, opts: &SweepOptions) -> SweepReport {
        self.run_mode(Mode::Availability, &Exec::Straight, opts)
    }

    /// [`ScenarioGrid::run_mode`] in [`Mode::Consensus`] under
    /// [`Exec::Branched`].
    pub fn run_consensus_branched(&self, opts: &SweepOptions, branch: &BranchSpec) -> SweepReport {
        self.run_mode(Mode::Consensus, &Exec::Branched(*branch), opts)
    }

    /// [`ScenarioGrid::run_mode`] in [`Mode::Scale`] — the only mode that
    /// runs past `gqs_core::MAX_PROCESSES`, up to
    /// [`gqs_simnet::MAX_SIM_PROCESSES`] processes per cell.
    pub fn run_scale(&self, opts: &SweepOptions) -> SweepReport {
        self.run_mode(Mode::Scale, &Exec::Straight, opts)
    }
}

// ---------------------------------------------------------------------------
// Grid grammar + rendering
// ---------------------------------------------------------------------------

/// Parses the CLI's integer-list grammar: `"6"`, `"4,6,8"`, `"4..8"`
/// (inclusive), `"4..16:4"` (inclusive with step).
pub fn parse_usize_list(s: &str) -> Result<Vec<usize>, String> {
    if let Some((range, step)) = split_range(s)? {
        let as_int = |v: f64| -> Result<usize, String> {
            if v < 0.0 {
                return Err(format!("negative value {v} in integer range {s:?}"));
            }
            if v.fract() != 0.0 {
                return Err(format!("integer range {s:?} has non-integer part {v}"));
            }
            Ok(v as usize)
        };
        let (lo, hi) = (as_int(range.0)?, as_int(range.1)?);
        let step = as_int(step.unwrap_or(1.0))?;
        if step == 0 {
            return Err(format!("zero step in {s:?}"));
        }
        check_point_count(s, (hi - lo) as f64 / step as f64)?;
        return Ok((lo..=hi).step_by(step).collect());
    }
    s.split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|e| format!("bad integer {p:?}: {e}")))
        .collect()
}

/// Parses the CLI's float-list grammar: `"0.2"`, `"0.1,0.3,0.5"`,
/// `"0.1..0.5:0.2"` (inclusive range with mandatory step).
pub fn parse_f64_list(s: &str) -> Result<Vec<f64>, String> {
    if let Some(((lo, hi), step)) = split_range(s)? {
        let step =
            step.ok_or_else(|| format!("float range {s:?} needs a step, e.g. 0.1..0.5:0.2"))?;
        if step <= 0.0 {
            return Err(format!("non-positive step in {s:?}"));
        }
        check_point_count(s, (hi - lo) / step)?;
        // Points are computed as `lo + i·step`, never by repeated
        // addition: accumulating `v += step` drifts by an ulp per
        // iteration, which lands endpoints off-grid (`0..0.5:0.05`
        // ended at 0.49999999999999994) and on long grids pushes the
        // final point past the slack entirely (`0..1:0.00002` dropped
        // 1.0). The slack only absorbs the rounding of a single
        // multiply, so no off-grid point past `hi` is ever admitted.
        let last = ((hi - lo) / step + 1e-9).floor() as usize;
        return Ok((0..=last).map(|i| (lo + i as f64 * step).min(hi)).collect());
    }
    s.split(',')
        .map(|p| p.trim().parse::<f64>().map_err(|e| format!("bad number {p:?}: {e}")))
        .collect()
}

/// Refuses a range of more than a million points (`steps` is
/// `(hi - lo) / step`) before anything allocates or iterates over it.
fn check_point_count(s: &str, steps: f64) -> Result<(), String> {
    if steps > 1e6 {
        return Err(format!("range {s:?} yields over a million points; raise the step"));
    }
    Ok(())
}

/// A parsed `a..b[:step]` range: inclusive bounds plus the optional step.
type ParsedRange = ((f64, f64), Option<f64>);

/// Splits `"a..b"` / `"a..b:s"` syntax; `Ok(None)` when `s` is not a
/// range.
fn split_range(s: &str) -> Result<Option<ParsedRange>, String> {
    let Some((lo, rest)) = s.split_once("..") else { return Ok(None) };
    let (hi, step) = match rest.split_once(':') {
        Some((hi, step)) => {
            (hi, Some(step.trim().parse::<f64>().map_err(|e| format!("bad step {step:?}: {e}"))?))
        }
        None => (rest, None),
    };
    let lo = lo.trim().parse::<f64>().map_err(|e| format!("bad bound {lo:?}: {e}"))?;
    let hi = hi.trim().parse::<f64>().map_err(|e| format!("bad bound {hi:?}: {e}"))?;
    if lo > hi {
        return Err(format!("reversed range {s:?} (bounds must satisfy lo <= hi)"));
    }
    Ok(Some(((lo, hi), step)))
}

fn push_json_f64(out: &mut String, v: f64) {
    // `{}` prints the shortest round-trip form, which is valid JSON for
    // every finite f64.
    assert!(v.is_finite(), "aggregates are finite");
    out.push_str(&format!("{v}"));
}

fn push_agg_json(out: &mut String, agg: &MetricAgg) {
    out.push_str(&format!("{{\"count\":{},\"mean\":", agg.count()));
    push_json_f64(out, agg.mean());
    out.push_str(",\"min\":");
    push_json_f64(out, agg.min());
    out.push_str(",\"max\":");
    push_json_f64(out, agg.max());
    for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        out.push_str(&format!(",\"{name}\":"));
        push_json_f64(out, agg.quantile(q));
    }
    out.push('}');
}

/// Renders a scenario-grid report as deterministic JSON (no timing, no
/// environment — byte-identical across runs and thread counts).
pub fn report_json(grid: &ScenarioGrid, report: &SweepReport) -> String {
    report_json_exec(grid, report, &Exec::Straight)
}

/// [`report_json_exec`] for an optionally branched run.
pub fn report_json_branched(
    grid: &ScenarioGrid,
    report: &SweepReport,
    branch: Option<&BranchSpec>,
) -> String {
    report_json_exec(grid, report, &branch.map_or(Exec::Straight, |b| Exec::Branched(*b)))
}

/// Renders the report of a [`ScenarioGrid::run_mode`] under `exec` as
/// deterministic JSON — no timing, no environment, so it diffs byte for
/// byte across runs and thread counts. What `exec` adds to the plain
/// [`Exec::Straight`] report:
///
/// * [`Exec::Branched`]: `branch_at`/`branches` header lines. The branch
///   *mode* is deliberately never emitted — fork and straight-line
///   execution compute the same report, so their JSON must be
///   byte-identical (`cmp`-able in CI).
/// * [`Exec::Timeline`]: a `timeline_bucket` header line and, per cell, a
///   `"timeline"` object holding the across-trials mean of every
///   [`TIMELINE_SERIES`] bucket column (bucket-index order). The bucket
///   columns themselves stay out of the metric list and the aggregates.
pub fn report_json_exec(grid: &ScenarioGrid, report: &SweepReport, exec: &Exec) -> String {
    // Window columns trail the base metrics (see `timeline_metric_names`).
    let n_base = report.metrics.iter().take_while(|m| !m.starts_with(TIMELINE_PREFIX)).count();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"gqs_sweep/v1\",\n");
    out.push_str(&format!("  \"trials_per_cell\": {},\n", grid.trials));
    out.push_str(&format!("  \"seed\": {},\n", grid.seed));
    match exec {
        Exec::Straight => {}
        Exec::Timeline(bucket) => out.push_str(&format!("  \"timeline_bucket\": {bucket},\n")),
        Exec::Branched(b) => {
            out.push_str(&format!("  \"branch_at\": {},\n", b.at));
            out.push_str(&format!("  \"branches\": {},\n", b.branches));
        }
    }
    out.push_str(&format!("  \"complete\": {},\n", report.complete));
    out.push_str("  \"metrics\": [");
    for (i, m) in report.metrics.iter().take(n_base).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{m}\""));
    }
    out.push_str("],\n  \"cells\": [\n");
    for (c, (cell, aggs)) in grid.cells.iter().zip(&report.cells).enumerate() {
        if c > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"density\": ",
            cell.family.name(),
            cell.n
        ));
        push_json_f64(&mut out, cell.density);
        out.push_str(&format!(", \"patterns\": \"{}\", \"p_chan\": ", cell.patterns.name()));
        push_json_f64(&mut out, cell.p_chan);
        out.push_str(", \"loss\": ");
        push_json_f64(&mut out, cell.loss);
        out.push_str(&format!(", \"schedule\": \"{}\"", cell.schedule.name()));
        // The default network family is omitted so pre-NetModel reports
        // (and their goldens) stay byte-identical.
        if cell.net != NetworkFamily::Uniform {
            out.push_str(&format!(", \"net\": \"{}\"", cell.net.name()));
        }
        out.push_str(&format!(", \"trials\": {},\n     \"aggregates\": {{", aggs.trials));
        for (m, (name, agg)) in report.metrics.iter().zip(&aggs.aggs).take(n_base).enumerate() {
            if m > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": "));
            push_agg_json(&mut out, agg);
        }
        out.push('}');
        if let Exec::Timeline(bucket) = exec {
            out.push_str(&format!(",\n     \"timeline\": {{\"bucket\": {bucket}"));
            for (s, series) in TIMELINE_SERIES.iter().enumerate() {
                out.push_str(&format!(", \"{series}\": ["));
                let column = aggs.aggs[n_base..].iter().skip(s).step_by(TIMELINE_SERIES.len());
                for (k, agg) in column.enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    push_json_f64(&mut out, agg.mean());
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders a scenario-grid report as CSV: one row per cell × metric.
pub fn report_csv(grid: &ScenarioGrid, report: &SweepReport) -> String {
    let mut out = String::from(
        "family,n,density,patterns,p_chan,loss,schedule,net,trials,metric,count,mean,min,max,p50,p90,p99\n",
    );
    for (cell, aggs) in grid.cells.iter().zip(&report.cells) {
        for (name, agg) in report.metrics.iter().zip(&aggs.aggs) {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                cell.family.name(),
                cell.n,
                cell.density,
                cell.patterns.name(),
                cell.p_chan,
                cell.loss,
                cell.schedule.name(),
                cell.net.name(),
                aggs.trials,
                name,
                agg.count(),
                agg.mean(),
                agg.min(),
                agg.max(),
                agg.quantile(0.5),
                agg.quantile(0.9),
                agg.quantile(0.99),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_threads(threads: usize, shard: Option<usize>) -> SweepOptions {
        SweepOptions { threads: Some(threads), shard, ..Default::default() }
    }

    #[test]
    fn sketch_tracks_quantiles_within_tolerance() {
        let mut sk = QuantileSketch::new();
        let mut rng = SplitMix64::new(5);
        let mut vals: Vec<f64> = Vec::new();
        for _ in 0..5_000 {
            let v = rng.f64() * 1e6;
            vals.push(v);
            sk.observe(v);
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = (q * (vals.len() - 1) as f64).round() as usize;
            let exact = vals[rank];
            let est = sk.quantile(q);
            assert!(
                (est - exact).abs() <= 2.0 * SKETCH_ALPHA * exact.abs() + 1e-9,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn sketch_handles_zeros_and_negatives() {
        let mut sk = QuantileSketch::new();
        for v in [-10.0, -1.0, 0.0, 0.0, 1.0, 10.0] {
            sk.observe(v);
        }
        assert_eq!(sk.count(), 6);
        assert!(sk.quantile(0.0) < -9.0);
        assert_eq!(sk.quantile(0.5), 0.0);
        assert!(sk.quantile(1.0) > 9.0);
    }

    #[test]
    fn sketch_merge_is_order_insensitive() {
        let mut rng = SplitMix64::new(9);
        let parts: Vec<QuantileSketch> = (0..4)
            .map(|_| {
                let mut sk = QuantileSketch::new();
                for _ in 0..200 {
                    sk.observe(rng.f64() * 100.0 - 20.0);
                }
                sk
            })
            .collect();
        let mut forward = QuantileSketch::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = QuantileSketch::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn engine_handles_empty_grids() {
        let spec = SweepSpec { cells: &[] as &[u32], trials: 100, seed: 1, metrics: &["x"] };
        let r = run(&spec, &SweepOptions::default(), |_, _, _| vec![0.0]);
        assert!(r.complete && r.cells.is_empty());
        let spec = SweepSpec { cells: &[1u32], trials: 0, seed: 1, metrics: &["x"] };
        let r = run(&spec, &SweepOptions::default(), |_, _, _| vec![0.0]);
        assert!(r.complete);
        assert_eq!(r.cells[0].trials, 0);
        assert_eq!(r.agg(0, "x").count(), 0);
        assert_eq!(r.agg(0, "x").mean(), 0.0);
    }

    #[test]
    fn engine_seeds_by_global_trial_index() {
        // The same (seed, cell, trial) must see the same RNG no matter the
        // shard size or thread count.
        let spec = SweepSpec { cells: &[0u32, 1], trials: 10, seed: 77, metrics: &["draw"] };
        let f = |c: &u32, t: usize, rng: &mut SplitMix64| {
            let _ = (c, t);
            vec![rng.next_u64() as f64]
        };
        let a = run(&spec, &SweepOptions { shard: Some(1), ..Default::default() }, f);
        let b =
            run(&spec, &SweepOptions { shard: Some(7), threads: Some(3), ..Default::default() }, f);
        assert_eq!(a, b);
        // And it matches a hand-rolled serial loop over global indices.
        let expected: f64 = (0..10).map(|t| trial_rng(77, t).next_u64() as f64).sum();
        assert_eq!(a.agg(0, "draw").sum(), expected);
    }

    #[test]
    fn pre_cancelled_sweep_reports_incomplete() {
        let cancel: CancelToken = Arc::new(AtomicBool::new(true));
        let spec = SweepSpec { cells: &[0u32], trials: 50, seed: 3, metrics: &["x"] };
        let opts = SweepOptions { cancel: Some(cancel), ..Default::default() };
        let r = run(&spec, &opts, |_, _, _| vec![1.0]);
        assert!(!r.complete);
        assert_eq!(r.cells[0].trials, 0);
    }

    #[test]
    fn grid_grammar_parses() {
        assert_eq!(parse_usize_list("6").unwrap(), vec![6]);
        assert_eq!(parse_usize_list("4,6,8").unwrap(), vec![4, 6, 8]);
        assert_eq!(parse_usize_list("4..8").unwrap(), vec![4, 5, 6, 7, 8]);
        assert_eq!(parse_usize_list("4..16:4").unwrap(), vec![4, 8, 12, 16]);
        assert_eq!(parse_f64_list("0.2").unwrap(), vec![0.2]);
        assert_eq!(parse_f64_list("0.1,0.3").unwrap(), vec![0.1, 0.3]);
        let r = parse_f64_list("0.1..0.5:0.2").unwrap();
        assert_eq!(r.len(), 3);
        assert!((r[2] - 0.5).abs() < 1e-12);
        // An off-grid upper bound is not forced into the grid.
        assert_eq!(parse_f64_list("0..1:0.4").unwrap(), vec![0.0, 0.4, 0.8]);
        assert!(parse_usize_list("8..4").is_err());
        assert!(parse_f64_list("0.1..0.5").is_err(), "float ranges need a step");
        assert!(parse_usize_list("x").is_err());
        // An absurd integer range is refused before it is collected.
        for huge in ["2..1000000000000000", "0..1e300", "0..2000002:2"] {
            let err = parse_usize_list(huge).unwrap_err();
            assert!(err.contains("over a million points"), "{huge:?}: {err}");
        }
        assert_eq!(parse_usize_list("0..2000000:2").unwrap().len(), 1_000_001);
        // Integer ranges reject fractional or negative parts instead of
        // silently truncating them.
        for bad in ["4.5..8", "-1..3", "4..8.5", "4..16:2.5"] {
            assert!(parse_usize_list(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// Regression pins for the repeated-addition drift in float ranges:
    /// every on-grid endpoint must be hit *exactly*, not within an ulp,
    /// and long grids must not lose their final point.
    #[test]
    fn float_ranges_hit_drift_prone_endpoints_exactly() {
        // The accumulation loop ended this range at 0.49999999999999994.
        let r = parse_f64_list("0..0.5:0.05").unwrap();
        assert_eq!(r.len(), 11);
        assert_eq!(*r.last().unwrap(), 0.5, "endpoint must be exact, not off by an ulp");
        // ...and this one at 1.9999999999998905 after 2000 additions.
        let r = parse_f64_list("0..2:0.001").unwrap();
        assert_eq!(r.len(), 2001);
        assert_eq!(*r.last().unwrap(), 2.0);
        // ...and dropped this range's on-grid endpoint outright: upward
        // drift pushed the final accumulated value past the slack.
        let r = parse_f64_list("0..1:0.00002").unwrap();
        assert_eq!(r.len(), 50_001, "on-grid endpoint must not be dropped");
        assert_eq!(*r.last().unwrap(), 1.0);
        // Interior points stay on the `lo + i·step` grid too.
        let r = parse_f64_list("0.05..0.35:0.1").unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r[2], 0.05 + 2.0 * 0.1);
        assert_eq!(r[3], 0.35);
        // A degenerate range is a single point.
        assert_eq!(parse_f64_list("0.3..0.3:0.1").unwrap(), vec![0.3]);
    }

    #[test]
    fn network_family_names_roundtrip() {
        for f in [
            NetworkFamily::Uniform,
            NetworkFamily::Constant,
            NetworkFamily::Jitter,
            NetworkFamily::Lognormal,
            NetworkFamily::LognormalAsym,
        ] {
            assert_eq!(f.name().parse::<NetworkFamily>().unwrap(), f);
        }
        assert_eq!(
            "lognormal_asym".parse::<NetworkFamily>().unwrap(),
            NetworkFamily::LognormalAsym
        );
        assert!("wan".parse::<NetworkFamily>().is_err());
    }

    /// The network axis changes measured behaviour, not just labels: a
    /// constant WAN model with 25-tick gateways slows cross-region
    /// quorum traffic relative to the uniform [1,10] default.
    #[test]
    fn heavier_network_families_slow_cross_region_latency() {
        let cell = |net| ScenarioCell {
            family: TopologyFamily::Regions { regions: 3 },
            n: 6,
            density: 1.0,
            patterns: PatternFamily::Rotating,
            p_chan: 0.0,
            loss: 0.0,
            schedule: ScheduleFamily::Static,
            net,
        };
        let run = |net| {
            let grid = ScenarioGrid { cells: vec![cell(net)], trials: 6, seed: 40 };
            grid.run_mode(Mode::Latency, &Exec::Straight, &SweepOptions::default())
        };
        let uniform = run(NetworkFamily::Uniform);
        let constant = run(NetworkFamily::Constant);
        let lognormal = run(NetworkFamily::Lognormal);
        for (name, r) in [("uniform", &uniform), ("constant", &constant), ("lognormal", &lognormal)]
        {
            assert!(r.agg(0, "completed").mean() > 0.0, "{name}: no op completed");
        }
        assert!(
            constant.agg(0, "lat_mean").mean() > uniform.agg(0, "lat_mean").mean(),
            "constant WAN gateways must slow cross-region quorums: {} vs {}",
            constant.agg(0, "lat_mean").mean(),
            uniform.agg(0, "lat_mean").mean()
        );
    }

    #[test]
    fn latency_grid_measures_and_stays_deterministic() {
        // Complete graph, rotating crashes, no channel failures: exactly
        // one majority quorum survives pattern f0, so every op completes.
        let grid = ScenarioGrid {
            cells: vec![ScenarioCell {
                family: TopologyFamily::Complete,
                n: 4,
                density: 1.0,
                patterns: PatternFamily::Rotating,
                p_chan: 0.0,
                loss: 0.0,
                schedule: ScheduleFamily::Static,
                net: NetworkFamily::Uniform,
            }],
            trials: 6,
            seed: 11,
        };
        let report = grid.run_mode(Mode::Latency, &Exec::Straight, &SweepOptions::default());
        assert!(report.complete);
        assert_eq!(report.metrics, LATENCY_METRICS);
        assert_eq!(report.agg(0, "completed").mean(), 1.0, "all ops must complete");
        assert!(report.agg(0, "lat_mean").mean() > 0.0);
        assert!(report.agg(0, "msgs_per_op").mean() > 0.0);
        // The determinism contract holds in latency mode too.
        let single = grid.run_mode(Mode::Latency, &Exec::Straight, &with_threads(1, None));
        let many = grid.run_mode(Mode::Latency, &Exec::Straight, &with_threads(3, Some(2)));
        assert_eq!(single, many);
        assert_eq!(single, report);
    }

    /// One well-behaved latency cell: complete graph, rotating crashes,
    /// nothing lossy. Every op completes; the workhorse of the trace and
    /// timeline tests.
    fn tame_latency_grid(trials: usize, seed: u64) -> ScenarioGrid {
        ScenarioGrid {
            cells: vec![ScenarioCell {
                family: TopologyFamily::Complete,
                n: 4,
                density: 1.0,
                patterns: PatternFamily::Rotating,
                p_chan: 0.0,
                loss: 0.0,
                schedule: ScheduleFamily::Static,
                net: NetworkFamily::Uniform,
            }],
            trials,
            seed,
        }
    }

    #[test]
    fn timeline_windows_sum_to_the_straight_run() {
        let grid = tame_latency_grid(4, 11);
        let bucket = LATENCY_HORIZON / 8;
        let timeline = Exec::Timeline(bucket);
        let report = grid.run_mode(Mode::Latency, &timeline, &SweepOptions::default());
        assert!(report.complete);
        let nb = timeline_buckets(bucket, LATENCY_HORIZON);
        assert_eq!(report.metrics.len(), LATENCY_METRICS.len() + TIMELINE_SERIES.len() * nb);
        // The windowed completions add up to the straight run's
        // completion count, and the base metrics are untouched by the
        // windowing: bucketing is pure observation.
        let straight = grid.run_mode(Mode::Latency, &Exec::Straight, &SweepOptions::default());
        let ops_per_trial: f64 = (0..nb).map(|k| report.agg(0, &format!("tl_ops{k}")).mean()).sum();
        let expect = straight.agg(0, "completed").mean() * LATENCY_OPS as f64;
        assert!((ops_per_trial - expect).abs() < 1e-9, "{ops_per_trial} vs {expect}");
        for m in LATENCY_METRICS {
            assert_eq!(report.agg(0, m), straight.agg(0, m), "base metric {m} perturbed");
        }
        // Availability ends at 1 when everything completed.
        let last_avail = report.agg(0, &format!("tl_avail{}", nb - 1)).mean();
        assert_eq!(last_avail, 1.0);
        // Thread-invariance carries over to timeline rows.
        let single = grid.run_mode(
            Mode::Latency,
            &timeline,
            &SweepOptions { threads: Some(1), ..Default::default() },
        );
        let many = grid.run_mode(
            Mode::Latency,
            &timeline,
            &SweepOptions { threads: Some(3), shard: Some(1), ..Default::default() },
        );
        assert_eq!(single, many);
        assert_eq!(single, report);
    }

    #[test]
    fn timeline_report_renders_base_metrics_plus_series() {
        let grid = tame_latency_grid(2, 3);
        let bucket = LATENCY_HORIZON / 4;
        let timeline = Exec::Timeline(bucket);
        let report = grid.run_mode(Mode::Latency, &timeline, &SweepOptions::default());
        let json = report_json_exec(&grid, &report, &timeline);
        assert!(json.contains("\"timeline_bucket\": 25000"));
        assert!(json.contains("\"timeline\": {\"bucket\": 25000, \"events\": ["));
        assert!(json.contains("\"ops\": ["));
        assert!(json.contains("\"avail\": ["));
        // The bucket columns stay internal: the rendered metric list is
        // the base list.
        assert!(json
            .contains("\"metrics\": [\"completed\", \"lat_mean\", \"lat_max\", \"msgs_per_op\"]"));
        assert!(!json.contains("tl_"));
    }

    #[test]
    fn replayed_traces_are_deterministic_and_cover_protocol_spans() {
        let grid = tame_latency_grid(3, 11);
        let a = replay_trial_trace(&grid, Mode::Latency, 0, 1, TraceFormat::Jsonl).unwrap();
        let b = replay_trial_trace(&grid, Mode::Latency, 0, 1, TraceFormat::Jsonl).unwrap();
        assert_eq!(a, b, "replay must be deterministic");
        for needle in
            ["\"ev\":\"op_start\"", "\"ev\":\"op_end\"", "qaf_get", "qaf_set", "\"ev\":\"deliver\""]
        {
            assert!(a.contains(needle), "trace lacks {needle}");
        }
        // Distinct trials replay distinct executions.
        let other = replay_trial_trace(&grid, Mode::Latency, 0, 2, TraceFormat::Jsonl).unwrap();
        assert_ne!(a, other);
        // The Chrome export is one JSON array of the same run.
        let chrome = replay_trial_trace(&grid, Mode::Latency, 0, 1, TraceFormat::Chrome).unwrap();
        assert!(chrome.starts_with('[') && chrome.ends_with("]\n"));
        assert!(chrome.contains("qaf_get"));
        // Out-of-range coordinates are errors, not panics.
        assert!(replay_trial_trace(&grid, Mode::Latency, 1, 0, TraceFormat::Jsonl).is_err());
        assert!(replay_trial_trace(&grid, Mode::Latency, 0, 3, TraceFormat::Jsonl).is_err());
        // So are the modes that run no single protocol simulation.
        for mode in [Mode::Solvability, Mode::Scale] {
            let err = replay_trial_trace(&grid, mode, 0, 1, TraceFormat::Jsonl).unwrap_err();
            assert!(err.contains("needs --mode latency, consensus or availability"), "{err}");
        }
        // A healthy trial leaves no flight-recorder dump.
        assert_eq!(replay_trial_flight(&grid, Mode::Latency, 0, 1).unwrap(), None);
    }

    #[test]
    fn consensus_replay_traces_views_and_decisions() {
        let grid = ScenarioGrid {
            cells: vec![ScenarioCell {
                family: TopologyFamily::Complete,
                n: 4,
                density: 1.0,
                patterns: PatternFamily::Rotating,
                p_chan: 0.0,
                loss: 0.0,
                schedule: ScheduleFamily::Static,
                net: NetworkFamily::Uniform,
            }],
            trials: 2,
            seed: 7,
        };
        let trace = replay_trial_trace(&grid, Mode::Consensus, 0, 0, TraceFormat::Jsonl).unwrap();
        assert!(trace.contains("view_enter"), "consensus trace lacks view_enter markers");
        assert!(trace.contains("\"label\":\"decide\""), "consensus trace lacks decide markers");
    }

    #[test]
    fn stall_notes_record_event_caps_only() {
        let log: StallLog = Default::default();
        note_stall(&Some(log.clone()), 3, 1, StopReason::OpsComplete);
        note_stall(&Some(log.clone()), 2, 5, StopReason::EventCap { stalled_ops: 4 });
        note_stall(&None, 0, 0, StopReason::EventCap { stalled_ops: 9 });
        let stalls = log.lock().unwrap();
        assert_eq!(*stalls, vec![Stall { cell: 2, trial: 5, stalled_ops: 4 }]);
    }

    #[test]
    fn scale_grid_measures_and_stays_deterministic() {
        // 2000 processes — nearly double gqs_core::MAX_PROCESSES — per
        // implicit family; every metric must be populated and the report
        // bit-identical across thread counts.
        let cell = |family| ScenarioCell {
            family,
            n: 2_000,
            density: 1.0,
            patterns: PatternFamily::Rotating,
            p_chan: 0.0,
            loss: 0.0,
            schedule: ScheduleFamily::Static,
            net: NetworkFamily::Uniform,
        };
        let grid = ScenarioGrid {
            cells: vec![
                cell(TopologyFamily::Ring),
                cell(TopologyFamily::Grid),
                cell(TopologyFamily::Regions { regions: 4 }),
            ],
            trials: 2,
            seed: 29,
        };
        let report = grid.run_mode(Mode::Scale, &Exec::Straight, &SweepOptions::default());
        assert!(report.complete);
        assert_eq!(report.metrics, SCALE_METRICS);
        for c in 0..grid.cells.len() {
            assert_eq!(report.agg(c, "reached").mean(), 1.0, "cell {c}: connected topology");
            assert!(report.agg(c, "spread").mean() > 0.0);
            assert!(report.agg(c, "msgs_per_proc").mean() > 0.0);
            assert_eq!(report.agg(c, "abd_completed").mean(), 1.0, "cell {c}");
            assert!(report.agg(c, "abd_msgs_per_proc").mean() > 0.0);
        }
        // Rumors cross a ring's diameter (n/2 hops) far slower than a
        // grid's (≈ √n hops).
        assert!(report.agg(0, "spread").mean() > report.agg(1, "spread").mean());
        let single = grid.run_mode(Mode::Scale, &Exec::Straight, &with_threads(1, None));
        let many = grid.run_mode(Mode::Scale, &Exec::Straight, &with_threads(3, Some(1)));
        assert_eq!(single, many);
        assert_eq!(single, report);
    }

    #[test]
    fn implicit_topologies_agree_with_materialized_generators() {
        // Satellite of the scale core: for every family with an implicit
        // form, `Topology::connects` must answer exactly like the
        // materialized generator graph, channel for channel. (Regions are
        // cross-checked against `gqs_faults::wan_graph` in that crate's
        // tests; here the generator-backed families.)
        let mut rng = SplitMix64::new(0);
        for family in [TopologyFamily::Complete, TopologyFamily::Ring, TopologyFamily::Grid] {
            for n in [1usize, 2, 3, 4, 5, 7, 9, 12, 16, 17, 25, 33] {
                let implicit = family.implicit(n).unwrap();
                let graph = family.build(n, 1.0, &mut rng);
                for a in 0..n {
                    for b in 0..n {
                        let want = a == b
                            || graph
                                .has_channel(gqs_core::Channel::new(ProcessId(a), ProcessId(b)));
                        assert_eq!(
                            implicit.connects(ProcessId(a), ProcessId(b)),
                            want,
                            "{} n={n}: {a}->{b}",
                            family.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn latency_on_sparse_topologies_costs_more_hops() {
        // A ring forces multi-hop (flooded) quorum access: mean latency on
        // ring(5) must exceed the complete graph's at equal n, and a star
        // whose hub crashes (rotating pattern f0 crashes process 0 = hub)
        // completes nothing.
        let cell = |family| ScenarioCell {
            family,
            n: 5,
            density: 1.0,
            patterns: PatternFamily::Rotating,
            p_chan: 0.0,
            loss: 0.0,
            schedule: ScheduleFamily::Static,
            net: NetworkFamily::Uniform,
        };
        let run = |family| {
            let grid = ScenarioGrid { cells: vec![cell(family)], trials: 8, seed: 5 };
            grid.run_mode(Mode::Latency, &Exec::Straight, &SweepOptions::default())
        };
        let complete = run(TopologyFamily::Complete);
        let ring = run(TopologyFamily::Ring);
        let star = run(TopologyFamily::Star);
        assert_eq!(complete.agg(0, "completed").mean(), 1.0);
        assert_eq!(ring.agg(0, "completed").mean(), 1.0, "ring minus one process stays connected");
        assert!(
            ring.agg(0, "lat_mean").mean() > complete.agg(0, "lat_mean").mean(),
            "ring quorum access must pay for multi-hop flooding: {} vs {}",
            ring.agg(0, "lat_mean").mean(),
            complete.agg(0, "lat_mean").mean()
        );
        assert_eq!(
            star.agg(0, "completed").mean(),
            0.0,
            "with the hub crashed, spokes cannot reach any quorum"
        );
    }

    #[test]
    fn scenario_grid_runs_and_renders() {
        let grid = ScenarioGrid {
            cells: vec![ScenarioCell {
                family: TopologyFamily::TwoCliquesBridge,
                n: 6,
                density: 0.0,
                patterns: PatternFamily::Rotating,
                p_chan: 0.2,
                loss: 0.0,
                schedule: ScheduleFamily::Static,
                net: NetworkFamily::Uniform,
            }],
            trials: 8,
            seed: 1,
        };
        let report = grid.run(&SweepOptions::default());
        assert!(report.complete);
        assert_eq!(report.agg(0, "gqs").count(), 8);
        // gap implies gqs, cell by cell.
        assert!(report.agg(0, "gap").sum() <= report.agg(0, "gqs").sum());
        let json = report_json_exec(&grid, &report, &Exec::Straight);
        assert!(json.contains("\"schema\": \"gqs_sweep/v1\""));
        assert!(json.contains("two-cliques-bridge"));
        assert!(json.contains("\"schedule\": \"static\""));
        let csv = report_csv(&grid, &report);
        assert_eq!(csv.lines().count(), 1 + SCENARIO_METRICS.len());
        assert!(csv.lines().next().unwrap().contains(",schedule,"));
    }

    #[test]
    fn schedule_families_roundtrip_their_names() {
        for fam in [
            ScheduleFamily::Static,
            ScheduleFamily::RegionOutage,
            ScheduleFamily::FlappingLink,
            ScheduleFamily::HubCrash,
            ScheduleFamily::RollingRestart,
        ] {
            assert_eq!(fam.name().parse::<ScheduleFamily>().unwrap(), fam);
        }
        assert!("lunar-eclipse".parse::<ScheduleFamily>().is_err());
        for mode in Mode::ALL {
            assert_eq!(mode.name().parse::<Mode>().unwrap(), mode);
            // Exactly the modes with a horizon can be windowed, branched
            // and traced.
            assert_eq!(mode.horizon_for("--timeline").ok(), mode.horizon());
        }
        assert_eq!(Mode::Availability.horizon(), Some(LATENCY_HORIZON));
        assert_eq!(Mode::Scale.horizon(), None);
        assert!("throughput".parse::<Mode>().is_err());
    }

    #[test]
    fn regions_family_builds_the_wan_shape() {
        let mut rng = SplitMix64::new(1);
        let fam = TopologyFamily::Regions { regions: 3 };
        let g = fam.build(9, 1.0, &mut rng);
        // 3 cliques of 3 (6 channels each) + 3 bidirectional gateway
        // bridges.
        assert_eq!(g.channels().count(), 3 * 6 + 6);
        assert_eq!(fam.name(), "regions");
        assert_eq!("regions".parse::<TopologyFamily>().unwrap(), fam);
        // Region layouts fall back to a two-way split elsewhere.
        assert_eq!(TopologyFamily::Ring.region_layout(6).regions(), 2);
        assert_eq!(fam.region_layout(9).regions(), 3);
    }

    #[test]
    fn dynamic_schedules_change_latency_outcomes() {
        // Complete graph, n = 8: the fallback layout splits 4/4, so during
        // the outage *neither* side holds a majority of 5 and every op
        // invoked inside the window is lost (the ABD engine does not
        // retransmit). Statically the same scenario completes everything.
        let cell = |schedule| ScenarioCell {
            family: TopologyFamily::Complete,
            n: 8,
            density: 1.0,
            patterns: PatternFamily::Rotating,
            p_chan: 0.0,
            loss: 0.0,
            schedule,
            net: NetworkFamily::Uniform,
        };
        let run = |schedule| {
            let grid = ScenarioGrid { cells: vec![cell(schedule)], trials: 8, seed: 21 };
            grid.run_mode(Mode::Latency, &Exec::Straight, &SweepOptions::default())
        };
        let stat = run(ScheduleFamily::Static);
        let outage = run(ScheduleFamily::RegionOutage);
        assert_eq!(stat.agg(0, "completed").mean(), 1.0);
        let dipped = outage.agg(0, "completed").mean();
        assert!(dipped < 1.0, "region outages must cost availability, got {dipped}");
        assert!(dipped > 0.0, "ops outside the outage windows still complete");
    }

    #[test]
    fn consensus_trial_measures_and_stays_deterministic() {
        let grid = ScenarioGrid {
            cells: vec![ScenarioCell {
                family: TopologyFamily::Complete,
                n: 4,
                density: 1.0,
                patterns: PatternFamily::Rotating,
                p_chan: 0.0,
                loss: 0.0,
                schedule: ScheduleFamily::Static,
                net: NetworkFamily::Uniform,
            }],
            trials: 6,
            seed: 19,
        };
        let report = grid.run_mode(Mode::Consensus, &Exec::Straight, &SweepOptions::default());
        assert!(report.complete);
        assert_eq!(report.metrics, CONSENSUS_METRICS);
        // Rotating f0 crashes one of four processes; the other three
        // decide (majority quorums of 3 survive) and learn the decision.
        assert_eq!(report.agg(0, "decided").mean(), 0.75, "3 of 4 processes decide");
        assert!(report.agg(0, "views").mean() >= 1.0);
        assert!(report.agg(0, "decide_lat").mean() > 0.0);
        assert!(report.agg(0, "lat_over_cdelta").mean() > 0.0);
        assert!(report.agg(0, "msgs_per_op").mean() > 0.0);
        // Thread-invariance at fixed sharding (the engine contract; the
        // f64 sums of real-valued metrics only reassociate identically
        // when the shard boundaries are the same).
        let single = grid.run_mode(Mode::Consensus, &Exec::Straight, &with_threads(1, Some(2)));
        let many = grid.run_mode(Mode::Consensus, &Exec::Straight, &with_threads(3, Some(2)));
        assert_eq!(single, many);
    }

    #[test]
    fn rolling_restart_consensus_recovers_everyone() {
        // Under a rolling restart every process crashes once and heals;
        // with on_recover re-arming the synchronizer, all processes learn
        // the decision by the horizon.
        let grid = ScenarioGrid {
            cells: vec![ScenarioCell {
                family: TopologyFamily::Complete,
                n: 4,
                density: 1.0,
                patterns: PatternFamily::Rotating,
                p_chan: 0.0,
                loss: 0.0,
                schedule: ScheduleFamily::RollingRestart,
                net: NetworkFamily::Uniform,
            }],
            trials: 6,
            seed: 19,
        };
        let report = grid.run_mode(Mode::Consensus, &Exec::Straight, &SweepOptions::default());
        assert_eq!(report.agg(0, "decided").mean(), 1.0, "restarts heal: everyone decides");
    }

    #[test]
    fn availability_mode_heals_the_outage_latency_mode_loses() {
        // The same n = 8 region-outage scenario where the plain ABD stack
        // loses every op invoked inside the window
        // (`dynamic_schedules_change_latency_outcomes`): the retransmitting
        // stack completes *everything* — ops invoked mid-outage wait out
        // the fault and finish after the heal, with no client retry.
        let cell = ScenarioCell {
            family: TopologyFamily::Complete,
            n: 8,
            density: 1.0,
            patterns: PatternFamily::Rotating,
            p_chan: 0.0,
            loss: 0.0,
            schedule: ScheduleFamily::RegionOutage,
            net: NetworkFamily::Uniform,
        };
        let grid = ScenarioGrid { cells: vec![cell], trials: 8, seed: 21 };
        let report = grid.run_mode(Mode::Availability, &Exec::Straight, &SweepOptions::default());
        assert!(report.complete);
        assert_eq!(report.metrics, AVAILABILITY_METRICS);
        assert_eq!(report.agg(0, "completed").mean(), 1.0, "retries heal the outage");
        assert_eq!(report.agg(0, "stalled").mean(), 0.0);
        assert!(
            report.agg(0, "time_to_heal").max() > 0.0,
            "some op must drain after the last heal"
        );
        assert!(
            report.agg(0, "retransmits_per_op").mean() > 0.0,
            "healing through an outage costs retransmissions"
        );
        // Determinism contract: bit-identical for any thread count.
        let single = grid.run_mode(Mode::Availability, &Exec::Straight, &with_threads(1, Some(2)));
        let many = grid.run_mode(Mode::Availability, &Exec::Straight, &with_threads(3, Some(2)));
        assert_eq!(single, many);
    }

    /// The fork-replay contract end to end through the sweep engine: a
    /// forked run (one warmup, `branches` continuations fanned off the
    /// checkpoint) must produce the same report, bit for bit, as the
    /// straight-line reference that re-runs every warmup from scratch —
    /// in every simulated mode, for any thread count at fixed sharding.
    #[test]
    fn forked_branches_match_straight_line_bit_for_bit() {
        let cell = ScenarioCell {
            family: TopologyFamily::Complete,
            n: 4,
            density: 1.0,
            patterns: PatternFamily::Rotating,
            p_chan: 0.0,
            loss: 0.1,
            schedule: ScheduleFamily::RegionOutage,
            net: NetworkFamily::Uniform,
        };
        let grid = ScenarioGrid { cells: vec![cell], trials: 4, seed: 7 };
        let fork = BranchSpec { at: 600, branches: 3, mode: BranchMode::Fork };
        let straight = BranchSpec { mode: BranchMode::Straight, ..fork };

        let f = grid.run_mode(Mode::Consensus, &Exec::Branched(fork), &SweepOptions::default());
        let s = grid.run_mode(Mode::Consensus, &Exec::Branched(straight), &SweepOptions::default());
        assert_eq!(f, s, "consensus: fork must equal the straight-line reference");
        // Row accounting: `trials` still counts trials; every branch
        // contributes one observation per metric.
        assert_eq!(f.cells[0].trials, 4);
        assert_eq!(f.agg(0, "decided").count(), 4 * 3);
        assert!(f.agg(0, "decided").mean() > 0.0, "branched trials must still decide");

        for mode in [Mode::Latency, Mode::Availability] {
            let f = grid.run_mode(mode, &Exec::Branched(fork), &SweepOptions::default());
            let s = grid.run_mode(mode, &Exec::Branched(straight), &SweepOptions::default());
            assert_eq!(f, s, "{}: fork must equal the straight-line reference", mode.name());
            assert_eq!(f.agg(0, "completed").count(), 4 * 3);
        }

        // Thread-invariance survives branching (rows fold in (trial, row)
        // order inside fixed shards).
        let single =
            grid.run_mode(Mode::Consensus, &Exec::Branched(fork), &with_threads(1, Some(2)));
        let many = grid.run_mode(Mode::Consensus, &Exec::Branched(fork), &with_threads(3, Some(2)));
        assert_eq!(single, many);
    }

    /// Branch header fields appear only when branching is active, and the
    /// branch *mode* never leaks into the JSON (fork and straight must
    /// stay `cmp`-identical).
    #[test]
    fn branched_json_header_adds_branch_fields_only_when_branching() {
        let grid = ScenarioGrid {
            cells: vec![ScenarioCell {
                family: TopologyFamily::Complete,
                n: 4,
                density: 1.0,
                patterns: PatternFamily::Rotating,
                p_chan: 0.0,
                loss: 0.0,
                schedule: ScheduleFamily::Static,
                net: NetworkFamily::Uniform,
            }],
            trials: 2,
            seed: 3,
        };
        let spec = BranchSpec { at: 500, branches: 2, mode: BranchMode::Fork };
        let exec = Exec::Branched(spec);
        let report = grid.run_mode(Mode::Consensus, &exec, &SweepOptions::default());
        let plain = report_json_exec(&grid, &report, &Exec::Straight);
        assert!(!plain.contains("branch"), "an unbranched render has no branch fields");
        let json = report_json_exec(&grid, &report, &exec);
        assert!(json.contains("\"branch_at\": 500,\n"));
        assert!(json.contains("\"branches\": 2,\n"));
        assert!(!json.to_lowercase().contains("mode"), "branch mode must not leak into JSON");
    }

    #[test]
    fn availability_mode_absorbs_heavy_message_loss() {
        // 30% per-channel loss on a fault-free complete graph: the plain
        // latency stack loses quorum responses and stalls some trials; the
        // reliability layer retransmits its way to full completion.
        let cell = |loss| ScenarioCell {
            family: TopologyFamily::Complete,
            n: 4,
            density: 1.0,
            patterns: PatternFamily::Rotating,
            p_chan: 0.0,
            loss,
            schedule: ScheduleFamily::Static,
            net: NetworkFamily::Uniform,
        };
        let run = |mode, loss| {
            let grid = ScenarioGrid { cells: vec![cell(loss)], trials: 8, seed: 33 };
            grid.run_mode(mode, &Exec::Straight, &SweepOptions::default())
        };
        let lossy = run(Mode::Availability, 0.3);
        assert_eq!(lossy.agg(0, "completed").mean(), 1.0, "retries absorb 30% loss");
        assert!(lossy.agg(0, "retransmits_per_op").mean() > 0.0);
        // At loss = 0 the reliability layer is pure overhead-free
        // insurance: nothing is ever retransmitted.
        let clean = run(Mode::Availability, 0.0);
        assert_eq!(clean.agg(0, "completed").mean(), 1.0);
        assert_eq!(
            clean.agg(0, "retransmits_per_op").mean(),
            0.0,
            "no loss, no outage => no retransmissions"
        );
        // And the plain stack genuinely suffers on the same lossy cells.
        let plain = run(Mode::Latency, 0.3);
        assert!(
            plain.agg(0, "completed").mean() < 1.0,
            "plain ABD must lose ops at 30% loss, got {}",
            plain.agg(0, "completed").mean()
        );
    }
}
