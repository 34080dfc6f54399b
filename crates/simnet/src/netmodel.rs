//! Per-channel-class network delay models ([`NetModel`]).
//!
//! [`DelayModel`] draws every message delay from one distribution — exactly
//! the adversarial-but-uniform model the paper's C·δ latency bounds (§7)
//! are proven against, and nothing more. Real deployments are
//! heterogeneous: messages inside a region cross a datacenter fabric in a
//! handful of ticks, while messages between regions ride WAN links with
//! heavy-tailed latency. A [`NetModel`] captures that by keying a
//! [`LatencyDist`] on the [`ChannelClass`] of each channel (intra-region
//! vs gateway, derived arithmetically from a [`RegionSpec`]),
//! with an optional fixed per-class asymmetry skew and an optional
//! partial-synchrony overlay (GST + δ) mirroring
//! [`DelayModel::PartialSynchrony`].
//!
//! ## Determinism
//!
//! Draws consume only the run's seeded [`SplitMix64`], and the lognormal
//! sampler avoids `libm` entirely — platform `ln`/`exp`/`cos` are **not**
//! bit-stable across libc implementations, while `+`, `·`, `/` and `sqrt`
//! are IEEE-754 exactly rounded everywhere. It therefore uses
//! self-contained `ln` and `exp` evaluated with fixed-order polynomial
//! arithmetic and the Marsaglia polar method (whose only intrinsic is
//! `sqrt`), so traces stay bit-identical across platforms and
//! `GQS_THREADS` settings.
//!
//! ## Degenerate cases
//!
//! `NetModel::from(DelayModel)` is how a plain model runs: the simulator
//! has one draw path, [`NetModel::delay`], and maps `SimConfig::delay`
//! into a `NetModel` once, at construction, whenever `SimConfig::net` is
//! `None`. So `net: Some(model.into())` and `net: None` with `delay:
//! model` are the same run. The mapping keeps the plain models' RNG
//! consumption draw for draw (the tests hold it to their original
//! draw), so the golden traces recorded with plain models reproduce
//! exactly. A pre-GST draw is clamped so the message still arrives by
//! `gst + δ`, and post-GST delays are uniform in `[1, δ]` regardless of
//! channel class.

use gqs_core::{Channel, NetworkGraph, ProcessId};

use crate::rng::SplitMix64;
use crate::sim::DelayModel;
use crate::time::SimTime;
use crate::topology::ChannelClass;

/// A latency distribution over integer ticks.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum LatencyDist {
    /// Every message takes exactly `ticks` (must be ≥ 1). Consumes no
    /// randomness.
    Constant {
        /// The fixed delay in ticks.
        ticks: u64,
    },
    /// Uniform in `[min, max]` — the [`DelayModel::Uniform`] draw.
    UniformJitter {
        /// Minimum delay (must be ≥ 1).
        min: u64,
        /// Maximum delay.
        max: u64,
    },
    /// Heavy-tailed: `round(median · e^(σ·Z))` with `Z` standard normal,
    /// quantized to integer ticks and clamped into `[min, max]`.
    Lognormal {
        /// Median delay in ticks (the `e^μ` scale parameter; must be ≥ 1).
        median: u64,
        /// Log-space standard deviation σ (finite, ≥ 0).
        sigma: f64,
        /// Lower clamp (must be ≥ 1).
        min: u64,
        /// Upper clamp (the tail is truncated here).
        max: u64,
    },
}

impl LatencyDist {
    fn validate(&self) {
        match *self {
            LatencyDist::Constant { ticks } => {
                assert!(ticks >= 1, "zero message delays can livelock the event loop");
            }
            LatencyDist::UniformJitter { min, max } => {
                assert!(min >= 1, "zero message delays can livelock the event loop");
                assert!(min <= max, "min delay exceeds max delay");
            }
            LatencyDist::Lognormal { median, sigma, min, max } => {
                assert!(min >= 1, "zero message delays can livelock the event loop");
                assert!(min <= max, "min delay exceeds max delay");
                assert!(median >= 1, "lognormal median must be >= 1");
                assert!(
                    sigma.is_finite() && sigma >= 0.0,
                    "lognormal sigma must be finite and >= 0"
                );
            }
        }
    }

    fn draw(&self, rng: &mut SplitMix64) -> u64 {
        match *self {
            LatencyDist::Constant { ticks } => ticks,
            LatencyDist::UniformJitter { min, max } => rng.range(min, max),
            LatencyDist::Lognormal { median, sigma, min, max } => {
                let z = standard_normal(rng);
                let ticks = (median as f64 * det_exp(sigma * z)).round();
                // Float→int casts saturate, so an astronomically large
                // tail sample clamps to `max` instead of wrapping.
                (ticks as u64).clamp(min, max)
            }
        }
    }
}

/// The delay behavior of one channel class: a distribution plus a fixed
/// directional skew.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LinkProfile {
    /// The latency distribution.
    pub dist: LatencyDist,
    /// Fixed asymmetry: extra ticks added to messages flowing from a
    /// higher-indexed process to a lower-indexed one, making the two
    /// directions of a channel differ deterministically (asymmetric
    /// routes are the norm on real WANs). Consumes no randomness;
    /// `0` means symmetric.
    pub skew: u64,
}

impl LinkProfile {
    /// A symmetric profile (no directional skew).
    pub fn symmetric(dist: LatencyDist) -> Self {
        LinkProfile { dist, skew: 0 }
    }
}

/// A partition of processes `0..n` into contiguous regions (data
/// centers), as even as possible: the first `n % regions` regions hold one
/// extra process. Region `i`'s **gateway** is its lowest-numbered process.
///
/// This is the one region partition: [`Topology::Regions`] answers
/// adjacency from it, `gqs_faults` builds WAN graphs and region outages
/// over it, and a [`NetModel`] carrying one classifies channels by it — so
/// a materialized WAN graph ([`Topology::Graph`], whose own
/// [`Topology::channel_class`] is always [`ChannelClass::Intra`]) draws
/// gateway delays exactly like its implicit counterpart. Everything is
/// arithmetic on `(n, regions)`; nothing is materialized.
///
/// [`Topology::Regions`]: crate::Topology::Regions
/// [`Topology::Graph`]: crate::Topology::Graph
/// [`Topology::channel_class`]: crate::Topology::channel_class
///
/// # Examples
///
/// ```
/// use gqs_core::ProcessId;
/// use gqs_simnet::RegionSpec;
///
/// let spec = RegionSpec::even(7, 3); // {0,1,2}, {3,4}, {5,6}
/// assert_eq!(spec.region_of(ProcessId(4)), 1);
/// assert_eq!(spec.gateway(2), ProcessId(5));
/// assert_eq!(spec.members(0).count(), 3);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RegionSpec {
    n: usize,
    regions: usize,
}

impl RegionSpec {
    /// Partitions `n` processes into `regions` near-equal contiguous
    /// regions.
    ///
    /// # Panics
    ///
    /// Panics if `regions == 0` or `n < regions` (every region needs a
    /// process).
    pub fn even(n: usize, regions: usize) -> Self {
        assert!(regions >= 1, "at least one region");
        assert!(n >= regions, "need at least one process per region ({n} < {regions})");
        RegionSpec { n, regions }
    }

    /// Number of processes.
    pub fn n(self) -> usize {
        self.n
    }

    /// Number of regions.
    pub fn regions(self) -> usize {
        self.regions
    }

    /// The first process of region `i` (`i == regions` gives `n`).
    #[inline]
    fn start(self, i: usize) -> usize {
        i * (self.n / self.regions) + i.min(self.n % self.regions)
    }

    /// The region containing `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0..n`.
    #[inline]
    pub fn region_of(self, p: ProcessId) -> usize {
        let v = p.index();
        assert!(v < self.n, "process out of range");
        let (base, extra) = (self.n / self.regions, self.n % self.regions);
        let cut = (base + 1) * extra;
        if v < cut {
            v / (base + 1)
        } else {
            extra + (v - cut) / base
        }
    }

    /// Region `i`'s gateway (its lowest-numbered process).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a region index.
    #[inline]
    pub fn gateway(self, i: usize) -> ProcessId {
        assert!(i < self.regions, "region index out of range");
        ProcessId(self.start(i))
    }

    /// The processes of region `i`, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a region index.
    pub fn members(self, i: usize) -> impl Iterator<Item = ProcessId> + Clone {
        assert!(i < self.regions, "region index out of range");
        (self.start(i)..self.start(i + 1)).map(ProcessId)
    }

    /// The channels of `g` crossing region `i`'s boundary, in either
    /// direction — the cut a region outage disconnects.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a region index or `g` has more than `n`
    /// processes.
    pub fn cut(self, g: &NetworkGraph, i: usize) -> Vec<Channel> {
        assert!(i < self.regions, "region index out of range");
        let inside = |p| self.region_of(p) == i;
        g.channels().filter(|ch| inside(ch.from) != inside(ch.to)).collect()
    }

    /// The class of the `from → to` channel under this partition:
    /// [`ChannelClass::Gateway`] between two regions,
    /// [`ChannelClass::Intra`] inside one — and for any pid past `n`.
    #[inline]
    pub fn classify(self, from: ProcessId, to: ProcessId) -> ChannelClass {
        if from.index() < self.n
            && to.index() < self.n
            && self.region_of(from) != self.region_of(to)
        {
            ChannelClass::Gateway
        } else {
            ChannelClass::Intra
        }
    }
}

/// Partial-synchrony overlay: from `gst` on, every delay is at most
/// `delta` (mirroring [`DelayModel::PartialSynchrony`]).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Synchrony {
    /// The global stabilization time.
    pub gst: u64,
    /// Post-GST delay bound δ (must be ≥ 1).
    pub delta: u64,
}

/// A per-channel-class network model; see the [module docs](self).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct NetModel {
    /// Profile for intra-region channels — and for every channel of a
    /// topology without region structure.
    pub intra: LinkProfile,
    /// Profile for gateway (inter-region WAN) channels.
    pub gateway: LinkProfile,
    /// Optional [`RegionSpec`] for channel classification. When set, it
    /// overrides the class the topology reports — letting materialized
    /// WAN graphs classify like [`Topology::Regions`] over the same spec
    /// — and [`crate::Simulation::new`] checks that it covers exactly the
    /// system's processes. When `None`, the class passed to
    /// [`NetModel::delay`] (normally [`Topology::channel_class`]) decides.
    ///
    /// [`Topology::Regions`]: crate::Topology::Regions
    /// [`Topology::channel_class`]: crate::Topology::channel_class
    pub regions: Option<RegionSpec>,
    /// Optional partial-synchrony overlay. Pre-GST draws (including any
    /// skew) are clamped so a message in flight at GST still arrives by
    /// `gst + delta` (the §7 bound); post-GST delays are uniform in
    /// `[1, delta]` regardless of class and skew.
    pub synchrony: Option<Synchrony>,
}

impl NetModel {
    /// A model that draws every channel, of either class, from `dist`.
    pub fn symmetric(dist: LatencyDist) -> Self {
        NetModel {
            intra: LinkProfile::symmetric(dist),
            gateway: LinkProfile::symmetric(dist),
            regions: None,
            synchrony: None,
        }
    }

    /// Checks the model for a system of `n` processes: a region partition
    /// must cover exactly those `n`, since [`RegionSpec::classify`] calls
    /// every channel to a pid past its own `n` intra-region.
    pub(crate) fn validate(&self, n: usize) {
        self.intra.dist.validate();
        self.gateway.dist.validate();
        if let Some(spec) = self.regions {
            assert!(
                spec.n == n,
                "region partition {spec:?} does not fit a system of {n} processes"
            );
        }
        if let Some(sync) = self.synchrony {
            assert!(sync.delta >= 1, "delays must be >= 1");
            assert!(
                sync.gst.checked_add(sync.delta).is_some(),
                "gst + delta overflows the tick clock"
            );
        }
    }

    /// The global stabilization time, if this model has a synchrony
    /// overlay.
    pub fn gst(&self) -> Option<SimTime> {
        self.synchrony.map(|s| SimTime(s.gst))
    }

    /// Draws the delay of one `from → to` message at time `now`. `class`
    /// is the topology's verdict on the channel, used unless
    /// [`NetModel::regions`] overrides it.
    pub fn delay(
        &self,
        from: ProcessId,
        to: ProcessId,
        class: ChannelClass,
        now: SimTime,
        rng: &mut SplitMix64,
    ) -> u64 {
        if let Some(sync) = self.synchrony {
            if now.ticks() >= sync.gst {
                // After GST the δ bound wins over class and skew.
                return rng.range(1, sync.delta);
            }
        }
        let class = match self.regions {
            Some(spec) => spec.classify(from, to),
            None => class,
        };
        let profile = match class {
            ChannelClass::Intra => &self.intra,
            ChannelClass::Gateway => &self.gateway,
        };
        let mut delay = profile.dist.draw(rng);
        if profile.skew > 0 && from.index() > to.index() {
            delay = delay.saturating_add(profile.skew);
        }
        match self.synchrony {
            // Clamp to the §7 bound: a message in flight at GST arrives
            // by `gst + delta`. Saturating arithmetic: `validate` rejects
            // an overflowing `gst + delta`, and `now < gst` keeps the
            // clamp ≥ 2, but a wrap here must not be able to produce a
            // garbage delay even if those invariants ever loosen.
            Some(sync) => {
                delay.min(sync.gst.saturating_add(sync.delta).saturating_sub(now.ticks()))
            }
            None => delay,
        }
    }
}

impl From<DelayModel> for NetModel {
    /// Maps a legacy [`DelayModel`] onto the class-keyed draw path with
    /// draw-for-draw identical RNG consumption (see the module docs).
    fn from(model: DelayModel) -> Self {
        match model {
            DelayModel::Uniform { min, max } => {
                NetModel::symmetric(LatencyDist::UniformJitter { min, max })
            }
            DelayModel::PartialSynchrony { pre_min, pre_max, gst, delta } => NetModel {
                synchrony: Some(Synchrony { gst, delta }),
                ..NetModel::symmetric(LatencyDist::UniformJitter { min: pre_min, max: pre_max })
            },
        }
    }
}

/// `ln x` for finite normal `x > 0`, bit-deterministic across platforms.
///
/// Decomposes `x = m · 2^e` with `m ∈ [√2/2, √2]`, then evaluates
/// `ln m = 2·atanh t` at `t = (m-1)/(m+1)` with a fixed-order odd series.
/// Every operation is IEEE-exactly-rounded arithmetic, so the result is
/// identical on every conforming platform (unlike libm's `f64::ln`).
fn det_ln(x: f64) -> f64 {
    debug_assert!(x.is_normal() && x > 0.0, "det_ln domain is normal positive floats");
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7FF) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    // t ∈ [-0.172, 0.172] ⇒ t² < 0.03: the 14-term tail is below 1e-21,
    // past double precision.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut sum = 0.0;
    let mut k = 27i64;
    while k >= 1 {
        sum = sum * t2 + 1.0 / k as f64;
        k -= 2;
    }
    e as f64 * std::f64::consts::LN_2 + 2.0 * t * sum
}

/// `e^x` for finite `x`, bit-deterministic across platforms.
///
/// Decomposes `x = k·ln 2 + r` with `|r| ≤ ln 2 / 2`, evaluates `e^r` by
/// a fixed-order Taylor polynomial and scales by an exact power of two.
fn det_exp(x: f64) -> f64 {
    debug_assert!(x.is_finite(), "det_exp domain is finite floats");
    // Backstop far outside the representable scale of any tick count;
    // callers clamp the quantized result anyway.
    if x > 700.0 {
        return f64::MAX;
    }
    if x < -700.0 {
        return 0.0;
    }
    let k = (x / std::f64::consts::LN_2).round();
    let r = x - k * std::f64::consts::LN_2;
    // |r| ≤ 0.347 ⇒ the 17-term tail is below 1e-20.
    let mut acc = 1.0;
    let mut n = 17i64;
    while n >= 1 {
        acc = 1.0 + acc * r / n as f64;
        n -= 1;
    }
    acc * exp2i(k as i32)
}

/// `2^k` as an exact f64, for `k` in the normal exponent range.
fn exp2i(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k));
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// A standard normal deviate via the Marsaglia polar method.
///
/// Consumes a variable (but seed-deterministic) number of RNG draws; the
/// only non-arithmetic operation is IEEE-exact `sqrt`, so the sampled
/// value is bit-identical on every platform.
fn standard_normal(rng: &mut SplitMix64) -> f64 {
    loop {
        let u = 2.0 * rng.f64() - 1.0;
        let v = 2.0 * rng.f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * det_ln(s) / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_ln_matches_std_to_near_double_precision() {
        let xs = [1e-9, 0.001, 0.1, 0.5, 0.9999, 1.0, 1.0001, 2.0, std::f64::consts::E, 7.3, 1e6];
        for &x in &xs {
            let got = det_ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() <= want.abs().max(1.0) * 1e-14,
                "ln({x}): got {got}, std says {want}"
            );
        }
        assert_eq!(det_ln(1.0), 0.0);
    }

    #[test]
    fn det_exp_matches_std_to_near_double_precision() {
        let xs = [-20.0, -3.0, -0.5, 0.0, 1e-12, 0.25, 1.0, 2.5, 10.0, 40.0];
        for &x in &xs {
            let got = det_exp(x);
            let want = x.exp();
            assert!(((got - want) / want).abs() <= 1e-14, "exp({x}): got {got}, std says {want}");
        }
        assert_eq!(det_exp(0.0), 1.0);
    }

    #[test]
    fn det_exp_inverts_det_ln() {
        for i in 1..200u32 {
            let x = i as f64 * 0.37;
            let rt = det_exp(det_ln(x));
            assert!(((rt - x) / x).abs() <= 1e-13, "roundtrip of {x} gave {rt}");
        }
    }

    #[test]
    fn standard_normal_has_unit_moments() {
        let mut rng = SplitMix64::new(99);
        let n = 20_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean drifted: {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance drifted: {var}");
    }

    #[test]
    fn every_draw_respects_declared_bounds() {
        let dists = [
            (LatencyDist::Constant { ticks: 7 }, 7, 7),
            (LatencyDist::UniformJitter { min: 3, max: 12 }, 3, 12),
            (LatencyDist::Lognormal { median: 5, sigma: 0.8, min: 1, max: 50 }, 1, 50),
            (LatencyDist::Lognormal { median: 40, sigma: 2.5, min: 10, max: 4000 }, 10, 4000),
        ];
        for (dist, lo, hi) in dists {
            let mut rng = SplitMix64::new(17);
            for _ in 0..5_000 {
                let d = dist.draw(&mut rng);
                assert!((lo..=hi).contains(&d), "{dist:?} drew {d} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn lognormal_draws_are_seed_deterministic() {
        let dist = LatencyDist::Lognormal { median: 30, sigma: 0.9, min: 5, max: 2000 };
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        for _ in 0..1_000 {
            assert_eq!(dist.draw(&mut a), dist.draw(&mut b));
        }
        assert_eq!(a, b, "both generators consumed the same number of draws");
    }

    #[test]
    fn lognormal_median_is_roughly_the_median() {
        let dist = LatencyDist::Lognormal { median: 40, sigma: 0.9, min: 1, max: 100_000 };
        let mut rng = SplitMix64::new(23);
        let below = (0..10_000).filter(|_| dist.draw(&mut rng) <= 40).count();
        assert!(
            (4_300..=5_700).contains(&below),
            "~half the draws should land at or below the median, got {below}/10000"
        );
    }

    #[test]
    fn uniform_degenerate_case_is_draw_for_draw_identical() {
        let model = DelayModel::Uniform { min: 2, max: 9 };
        let net = NetModel::from(model);
        let mut old = SplitMix64::new(42);
        let mut new = SplitMix64::new(42);
        for i in 0..2_000u64 {
            let now = SimTime(i * 3);
            let class = if i % 2 == 0 { ChannelClass::Intra } else { ChannelClass::Gateway };
            let want = model.draw(now, &mut old);
            let got = net.delay(ProcessId(1), ProcessId(0), class, now, &mut new);
            assert_eq!(got, want, "draw {i} diverged");
        }
        assert_eq!(old, new, "RNG consumption diverged");
    }

    #[test]
    fn partial_synchrony_degenerate_case_is_draw_for_draw_identical() {
        let model = DelayModel::PartialSynchrony { pre_min: 1, pre_max: 100, gst: 50, delta: 5 };
        let net = NetModel::from(model);
        let mut old = SplitMix64::new(7);
        let mut new = SplitMix64::new(7);
        // Sweep now across the clamp region, GST itself and beyond.
        for now in 0..200u64 {
            for class in [ChannelClass::Intra, ChannelClass::Gateway] {
                let want = model.draw(SimTime(now), &mut old);
                let got = net.delay(ProcessId(0), ProcessId(1), class, SimTime(now), &mut new);
                assert_eq!(got, want, "draw at t={now} diverged");
            }
        }
        assert_eq!(old, new, "RNG consumption diverged");
    }

    #[test]
    fn gateway_channels_use_the_gateway_profile() {
        let net = NetModel {
            intra: LinkProfile::symmetric(LatencyDist::Constant { ticks: 2 }),
            gateway: LinkProfile::symmetric(LatencyDist::Constant { ticks: 90 }),
            regions: None,
            synchrony: None,
        };
        let mut rng = SplitMix64::new(1);
        let t = SimTime(0);
        assert_eq!(net.delay(ProcessId(0), ProcessId(1), ChannelClass::Intra, t, &mut rng), 2);
        assert_eq!(net.delay(ProcessId(0), ProcessId(3), ChannelClass::Gateway, t, &mut rng), 90);
    }

    #[test]
    fn skew_applies_only_against_the_index_direction() {
        let net = NetModel {
            intra: LinkProfile::symmetric(LatencyDist::Constant { ticks: 5 }),
            gateway: LinkProfile { dist: LatencyDist::Constant { ticks: 50 }, skew: 15 },
            regions: None,
            synchrony: None,
        };
        let mut rng = SplitMix64::new(1);
        let t = SimTime(0);
        // Downstream (low → high index): no skew.
        assert_eq!(net.delay(ProcessId(0), ProcessId(3), ChannelClass::Gateway, t, &mut rng), 50);
        // Upstream (high → low index): the fixed skew is added.
        assert_eq!(net.delay(ProcessId(3), ProcessId(0), ChannelClass::Gateway, t, &mut rng), 65);
        // Intra profile here is symmetric either way.
        assert_eq!(net.delay(ProcessId(1), ProcessId(0), ChannelClass::Intra, t, &mut rng), 5);
    }

    #[test]
    fn region_spec_overrides_the_topology_class() {
        // n = 6, 3 regions → {0,1}, {2,3}, {4,5}. The passed-in class is
        // the topology's verdict on a materialized graph (always Intra),
        // which the spec must override for cross-region channels.
        let net = NetModel {
            intra: LinkProfile::symmetric(LatencyDist::Constant { ticks: 2 }),
            gateway: LinkProfile::symmetric(LatencyDist::Constant { ticks: 90 }),
            regions: Some(RegionSpec::even(6, 3)),
            synchrony: None,
        };
        let mut rng = SplitMix64::new(1);
        let t = SimTime(0);
        assert_eq!(net.delay(ProcessId(0), ProcessId(1), ChannelClass::Intra, t, &mut rng), 2);
        assert_eq!(net.delay(ProcessId(1), ProcessId(2), ChannelClass::Intra, t, &mut rng), 90);
        assert_eq!(net.delay(ProcessId(5), ProcessId(0), ChannelClass::Gateway, t, &mut rng), 90);
        assert_eq!(
            RegionSpec::even(6, 3).classify(ProcessId(4), ProcessId(5)),
            ChannelClass::Intra
        );
    }

    #[test]
    fn post_gst_bound_overrides_class_and_skew() {
        let net = NetModel {
            intra: LinkProfile::symmetric(LatencyDist::Constant { ticks: 40 }),
            gateway: LinkProfile { dist: LatencyDist::Constant { ticks: 400 }, skew: 100 },
            regions: None,
            synchrony: Some(Synchrony { gst: 10, delta: 3 }),
        };
        let mut rng = SplitMix64::new(9);
        for now in 10..200u64 {
            let d = net.delay(
                ProcessId(5),
                ProcessId(0),
                ChannelClass::Gateway,
                SimTime(now),
                &mut rng,
            );
            assert!((1..=3).contains(&d), "post-GST delay {d} exceeds delta");
        }
    }

    #[test]
    fn pre_gst_clamp_holds_the_section_7_bound() {
        let net = NetModel {
            intra: LinkProfile::symmetric(LatencyDist::Lognormal {
                median: 50,
                sigma: 1.5,
                min: 1,
                max: 100_000,
            }),
            gateway: LinkProfile { dist: LatencyDist::Constant { ticks: 90_000 }, skew: 7 },
            regions: None,
            synchrony: Some(Synchrony { gst: 100, delta: 4 }),
        };
        let mut rng = SplitMix64::new(31);
        for now in 0..100u64 {
            for class in [ChannelClass::Intra, ChannelClass::Gateway] {
                let d = net.delay(ProcessId(2), ProcessId(1), class, SimTime(now), &mut rng);
                assert!(d >= 1, "delays stay positive");
                assert!(now + d <= 104, "message sent at {now} arrives after gst + delta");
            }
        }
    }

    #[test]
    fn extreme_gst_does_not_wrap_the_clamp() {
        // Regression: with wrapping arithmetic, a gst near u64::MAX made
        // `gst + delta - now` wrap to a garbage clamp in release builds.
        let net = NetModel {
            synchrony: Some(Synchrony { gst: u64::MAX - 5, delta: 4 }),
            ..NetModel::symmetric(LatencyDist::UniformJitter { min: 5, max: 9 })
        };
        net.validate(2);
        let mut rng = SplitMix64::new(3);
        for now in [0u64, 1, 1 << 40, u64::MAX - 6] {
            let d =
                net.delay(ProcessId(0), ProcessId(1), ChannelClass::Intra, SimTime(now), &mut rng);
            assert!((5..=9).contains(&d), "astronomical clamp must leave the draw alone, got {d}");
        }
    }

    #[test]
    #[should_panic(expected = "gst + delta overflows")]
    fn validate_rejects_overflowing_gst_plus_delta() {
        let net = NetModel {
            synchrony: Some(Synchrony { gst: u64::MAX, delta: 1 }),
            ..NetModel::symmetric(LatencyDist::UniformJitter { min: 1, max: 10 })
        };
        net.validate(2);
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn validate_rejects_zero_constant_delay() {
        NetModel::symmetric(LatencyDist::Constant { ticks: 0 }).validate(1);
    }
}
