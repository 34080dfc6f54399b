//! Failure patterns and fail-prone systems (§2 of the paper).
//!
//! A *failure pattern* `f = (P, C)` names the processes that may crash and
//! the channels that may disconnect in a single execution. Channels incident
//! to faulty processes are faulty by default, so `C` only contains channels
//! between correct processes — this well-formedness rule is enforced at
//! construction. A *fail-prone system* `F` is a set of failure patterns.

use std::fmt;

use crate::channel::Channel;
use crate::process::{ProcessSet, MAX_PROCESSES};

/// Error produced when constructing an ill-formed [`FailurePattern`] or
/// [`FailProneSystem`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildPatternError {
    /// The universe size is zero or exceeds [`MAX_PROCESSES`].
    UniverseOutOfRange {
        /// The offending universe size.
        n: usize,
    },
    /// A faulty process id is `>= n`.
    ProcessOutOfRange {
        /// The universe size.
        n: usize,
        /// The offending faulty set.
        faulty: ProcessSet,
    },
    /// A channel endpoint is `>= n`.
    ChannelOutOfRange {
        /// The universe size.
        n: usize,
        /// The offending channel.
        channel: Channel,
    },
    /// A failing channel touches a faulty process (§2: `C` contains only
    /// channels between correct processes).
    ChannelTouchesFaulty {
        /// The offending channel.
        channel: Channel,
        /// The pattern's faulty set.
        faulty: ProcessSet,
    },
    /// Patterns of a fail-prone system disagree on the universe size.
    MixedUniverses {
        /// The system's universe size.
        expected: usize,
        /// The pattern's universe size.
        found: usize,
    },
}

impl fmt::Display for BuildPatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildPatternError::UniverseOutOfRange { n } => {
                write!(f, "universe size {n} is not in 1..={MAX_PROCESSES}")
            }
            BuildPatternError::ProcessOutOfRange { n, faulty } => {
                write!(f, "faulty set {faulty} mentions processes outside 0..{n}")
            }
            BuildPatternError::ChannelOutOfRange { n, channel } => {
                write!(f, "channel {channel} mentions processes outside 0..{n}")
            }
            BuildPatternError::ChannelTouchesFaulty { channel, faulty } => {
                write!(
                    f,
                    "failing channel {channel} touches the faulty set {faulty}; channels \
                     incident to faulty processes are faulty by default and must not be listed"
                )
            }
            BuildPatternError::MixedUniverses { expected, found } => {
                write!(
                    f,
                    "failure pattern over {found} processes added to a system over {expected}"
                )
            }
        }
    }
}

impl std::error::Error for BuildPatternError {}

/// A failure pattern `f = (P, C)`: processes that may crash and channels
/// (between correct processes) that may disconnect in one execution.
///
/// The failing channels are stored sorted and deduplicated, so equal
/// patterns compare, hash and print alike however their channels were
/// listed.
///
/// # Examples
///
/// Figure 1's pattern `f1`: process `d` may crash, channels `(a,c)`,
/// `(b,c)`, `(c,b)` may disconnect.
///
/// ```
/// use gqs_core::{chan, pset, FailurePattern};
/// let f1 = FailurePattern::new(4, pset![3], [chan!(0, 2), chan!(1, 2), chan!(2, 1)])?;
/// assert_eq!(f1.correct(), pset![0, 1, 2]);
/// # Ok::<(), gqs_core::BuildPatternError>(())
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FailurePattern {
    n: usize,
    faulty: ProcessSet,
    /// Sorted by `(from, to)`, no duplicates.
    channels: Vec<Channel>,
}

impl FailurePattern {
    /// Creates the pattern `(faulty, channels)` over a universe of `n`
    /// processes.
    ///
    /// # Errors
    ///
    /// Returns an error if the universe size is out of range, a faulty
    /// process or channel endpoint is out of range, or a failing channel
    /// touches a faulty process (§2 well-formedness).
    pub fn new<I>(n: usize, faulty: ProcessSet, channels: I) -> Result<Self, BuildPatternError>
    where
        I: IntoIterator<Item = Channel>,
    {
        if n == 0 || n > MAX_PROCESSES {
            return Err(BuildPatternError::UniverseOutOfRange { n });
        }
        if !faulty.is_subset(ProcessSet::full(n)) {
            return Err(BuildPatternError::ProcessOutOfRange { n, faulty });
        }
        let mut chs = Vec::new();
        for ch in channels {
            if ch.from.index() >= n || ch.to.index() >= n {
                return Err(BuildPatternError::ChannelOutOfRange { n, channel: ch });
            }
            if ch.touches(faulty) {
                return Err(BuildPatternError::ChannelTouchesFaulty { channel: ch, faulty });
            }
            chs.push(ch);
        }
        chs.sort_unstable();
        chs.dedup();
        Ok(FailurePattern { n, faulty, channels: chs })
    }

    /// A crash-only pattern (no channel failures), e.g. the classical model.
    ///
    /// # Errors
    ///
    /// Same range checks as [`FailurePattern::new`].
    pub fn crash_only(n: usize, faulty: ProcessSet) -> Result<Self, BuildPatternError> {
        Self::new(n, faulty, [])
    }

    /// The failure-free pattern over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range (this constructor cannot otherwise fail).
    pub fn failure_free(n: usize) -> Self {
        Self::new(n, ProcessSet::new(), []).expect("universe size out of range")
    }

    /// Universe size `n`.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The processes that may crash (`P`).
    pub fn faulty(&self) -> ProcessSet {
        self.faulty
    }

    /// The processes correct according to this pattern (`P \ faulty`).
    pub fn correct(&self) -> ProcessSet {
        self.faulty.complement(self.n)
    }

    /// The channels that may disconnect (`C`), excluding those incident to
    /// faulty processes (which fail implicitly).
    pub fn channels(&self) -> impl Iterator<Item = Channel> + '_ {
        self.channels.iter().copied()
    }

    /// Number of explicitly failing channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Whether this pattern allows no failures at all.
    pub fn is_failure_free(&self) -> bool {
        self.faulty.is_empty() && self.channels.is_empty()
    }

    /// Whether `other` allows at most the failures this pattern allows
    /// (pointwise subset on both components).
    pub fn covers(&self, other: &FailurePattern) -> bool {
        self.n == other.n
            && other.faulty.is_subset(self.faulty)
            && other.channels.iter().all(|ch| {
                // A channel failing in `other` is covered if it fails
                // explicitly here or touches a process faulty here.
                self.channels.binary_search(ch).is_ok() || ch.touches(self.faulty)
            })
    }

    /// Returns a copy with one more failing channel.
    ///
    /// # Errors
    ///
    /// Same well-formedness checks as [`FailurePattern::new`].
    pub fn with_channel(&self, ch: Channel) -> Result<Self, BuildPatternError> {
        Self::new(self.n, self.faulty, self.channels().chain([ch]))
    }
}

impl fmt::Display for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {{", self.faulty)?;
        for (i, ch) in self.channels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{ch}")?;
        }
        write!(f, "}})")
    }
}

/// A fail-prone system `F`: the set of failure patterns an execution may
/// follow.
///
/// # Examples
///
/// The classical minority-crash model of Example 4:
///
/// ```
/// use gqs_core::FailProneSystem;
/// let fm = FailProneSystem::threshold(5, 2).unwrap();
/// assert!(fm.patterns().all(|f| f.channel_count() == 0));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FailProneSystem {
    n: usize,
    patterns: Vec<FailurePattern>,
}

impl FailProneSystem {
    /// Creates a fail-prone system from explicit patterns.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern list is empty is not required — an
    /// empty `F` is legal (no execution constraints) — but mixed universe
    /// sizes are rejected.
    pub fn new<I>(n: usize, patterns: I) -> Result<Self, BuildPatternError>
    where
        I: IntoIterator<Item = FailurePattern>,
    {
        if n == 0 || n > MAX_PROCESSES {
            return Err(BuildPatternError::UniverseOutOfRange { n });
        }
        let patterns: Vec<FailurePattern> = patterns.into_iter().collect();
        for p in &patterns {
            if p.universe() != n {
                return Err(BuildPatternError::MixedUniverses { expected: n, found: p.universe() });
            }
        }
        Ok(FailProneSystem { n, patterns })
    }

    /// The classical threshold model `F_M` of Example 4: any set of at most
    /// `k` processes may crash; channels between correct processes are
    /// reliable. Enumerates only the **maximal** patterns (`|P| = k`),
    /// which is equivalent for every solvability question because smaller
    /// patterns are covered by larger ones.
    ///
    /// # Errors
    ///
    /// Returns an error if `k >= n` or the universe size is out of range.
    pub fn threshold(n: usize, k: usize) -> Result<Self, BuildPatternError> {
        if n == 0 || n > MAX_PROCESSES {
            return Err(BuildPatternError::UniverseOutOfRange { n });
        }
        if k >= n {
            return Err(BuildPatternError::ProcessOutOfRange { n, faulty: ProcessSet::full(n) });
        }
        let mut patterns = Vec::new();
        let mut current = ProcessSet::new();
        subsets_of_size(n, k, 0, &mut current, &mut patterns);
        let patterns = patterns
            .into_iter()
            .map(|s| FailurePattern::crash_only(n, s).expect("subsets are in range"))
            .collect();
        Ok(FailProneSystem { n, patterns })
    }

    /// Universe size `n`.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the system has no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Iterates over the patterns.
    pub fn patterns(&self) -> impl Iterator<Item = &FailurePattern> {
        self.patterns.iter()
    }

    /// The `i`-th pattern.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn pattern(&self, i: usize) -> &FailurePattern {
        &self.patterns[i]
    }

    /// Whether no pattern allows channel failures between correct
    /// processes (the precondition of the classical Definition 1).
    pub fn is_crash_only(&self) -> bool {
        self.patterns.iter().all(|p| p.channel_count() == 0)
    }

    /// Returns the system restricted to its **maximal** patterns: those
    /// not covered by another pattern of the system.
    ///
    /// Covered patterns are redundant for every solvability question: if
    /// `f` covers `f'`, then `G \ f` is a subgraph of `G \ f'` with the
    /// same or more removals, so any quorums validating Availability for
    /// `f` also validate it for `f'`. Normalizing can shrink the search
    /// space of the decision procedures substantially (e.g. the threshold
    /// system with all subsets of size ≤ k reduces to the `C(n, k)`
    /// maximal ones).
    pub fn normalize(&self) -> FailProneSystem {
        let mut keep: Vec<FailurePattern> = Vec::new();
        for (i, p) in self.patterns.iter().enumerate() {
            let dominated = self.patterns.iter().enumerate().any(|(j, q)| {
                // Strictly-covering patterns dominate; among equals keep
                // the first occurrence.
                j != i && q.covers(p) && (!p.covers(q) || j < i)
            });
            if !dominated {
                keep.push(p.clone());
            }
        }
        FailProneSystem { n: self.n, patterns: keep }
    }

    /// Appends a pattern.
    ///
    /// # Errors
    ///
    /// Rejects patterns over a different universe size.
    pub fn push(&mut self, pattern: FailurePattern) -> Result<(), BuildPatternError> {
        if pattern.universe() != self.n {
            return Err(BuildPatternError::MixedUniverses {
                expected: self.n,
                found: pattern.universe(),
            });
        }
        self.patterns.push(pattern);
        Ok(())
    }
}

impl fmt::Display for FailProneSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F = {{")?;
        for (i, p) in self.patterns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

fn subsets_of_size(
    n: usize,
    k: usize,
    start: usize,
    current: &mut ProcessSet,
    out: &mut Vec<ProcessSet>,
) {
    if current.len() == k {
        out.push(*current);
        return;
    }
    for i in start..n {
        current.insert(crate::ProcessId(i));
        subsets_of_size(n, k, i + 1, current, out);
        current.remove(crate::ProcessId(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chan, pset};

    #[test]
    fn well_formed_pattern() {
        let f = FailurePattern::new(4, pset![3], [chan!(0, 2), chan!(2, 1)]).unwrap();
        assert_eq!(f.universe(), 4);
        assert_eq!(f.faulty(), pset![3]);
        assert_eq!(f.correct(), pset![0, 1, 2]);
        assert_eq!(f.channel_count(), 2);
        assert!(!f.is_failure_free());
    }

    #[test]
    fn channel_touching_faulty_rejected() {
        let err = FailurePattern::new(4, pset![3], [chan!(0, 3)]).unwrap_err();
        assert!(matches!(err, BuildPatternError::ChannelTouchesFaulty { .. }));
        assert!(err.to_string().contains("faulty"));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            FailurePattern::new(2, pset![5], []),
            Err(BuildPatternError::ProcessOutOfRange { .. })
        ));
        assert!(matches!(
            FailurePattern::new(2, pset![], [chan!(0, 5)]),
            Err(BuildPatternError::ChannelOutOfRange { .. })
        ));
        assert!(matches!(
            FailurePattern::new(0, pset![], []),
            Err(BuildPatternError::UniverseOutOfRange { .. })
        ));
    }

    #[test]
    fn failure_free_pattern() {
        let f = FailurePattern::failure_free(3);
        assert!(f.is_failure_free());
        assert_eq!(f.correct(), pset![0, 1, 2]);
    }

    #[test]
    fn covers_is_pointwise() {
        let big = FailurePattern::new(4, pset![3], [chan!(0, 2)]).unwrap();
        let small = FailurePattern::crash_only(4, pset![3]).unwrap();
        let other = FailurePattern::crash_only(4, pset![2]).unwrap();
        assert!(big.covers(&small));
        assert!(big.covers(&big));
        assert!(!small.covers(&big));
        assert!(!big.covers(&other));
    }

    #[test]
    fn covers_accounts_for_implicit_channel_failures() {
        // `big` crashes d; a pattern failing channel (a,d)... cannot even be
        // built (well-formedness). Instead: big crashes {2}; other fails (0,1)
        // with 2 correct. big does not cover other's channel unless 0 or 1
        // faulty in big.
        let big = FailurePattern::crash_only(4, pset![0, 2]).unwrap();
        let other = FailurePattern::new(4, pset![2], [chan!(0, 1)]).unwrap();
        // (0,1) touches big.faulty = {0,2} via 0, so it is implicitly faulty.
        assert!(big.covers(&other));
    }

    #[test]
    fn threshold_enumerates_maximal_patterns() {
        let fm = FailProneSystem::threshold(5, 2).unwrap();
        assert_eq!(fm.len(), 10); // C(5,2)
        assert!(fm.is_crash_only());
        assert!(fm.patterns().all(|p| p.faulty().len() == 2));
    }

    #[test]
    fn threshold_zero_is_failure_free() {
        let fm = FailProneSystem::threshold(3, 0).unwrap();
        assert_eq!(fm.len(), 1);
        assert!(fm.pattern(0).is_failure_free());
    }

    #[test]
    fn threshold_rejects_all_faulty() {
        assert!(FailProneSystem::threshold(3, 3).is_err());
    }

    #[test]
    fn mixed_universes_rejected() {
        let f3 = FailurePattern::failure_free(3);
        let err = FailProneSystem::new(4, [f3]).unwrap_err();
        assert!(matches!(err, BuildPatternError::MixedUniverses { .. }));
    }

    #[test]
    fn push_checks_universe() {
        let mut fp = FailProneSystem::new(3, []).unwrap();
        assert!(fp.is_empty());
        fp.push(FailurePattern::failure_free(3)).unwrap();
        assert_eq!(fp.len(), 1);
        assert!(fp.push(FailurePattern::failure_free(4)).is_err());
    }

    #[test]
    fn normalize_drops_covered_patterns() {
        let big = FailurePattern::new(4, pset![3], [chan!(0, 2)]).unwrap();
        let small = FailurePattern::crash_only(4, pset![3]).unwrap();
        let other = FailurePattern::crash_only(4, pset![1]).unwrap();
        let fp = FailProneSystem::new(4, [small.clone(), big.clone(), other.clone()]).unwrap();
        let norm = fp.normalize();
        assert_eq!(norm.len(), 2);
        assert!(norm.patterns().any(|p| p == &big));
        assert!(norm.patterns().any(|p| p == &other));
        assert!(!norm.patterns().any(|p| p == &small));
    }

    #[test]
    fn normalize_keeps_one_of_equal_patterns() {
        let p = FailurePattern::crash_only(3, pset![0]).unwrap();
        let fp = FailProneSystem::new(3, [p.clone(), p.clone()]).unwrap();
        assert_eq!(fp.normalize().len(), 1);
    }

    #[test]
    fn normalize_of_threshold_is_identity() {
        let fp = FailProneSystem::threshold(5, 2).unwrap();
        assert_eq!(fp.normalize().len(), fp.len());
    }

    #[test]
    fn display_is_readable() {
        let f = FailurePattern::new(4, pset![3], [chan!(0, 2)]).unwrap();
        assert_eq!(f.to_string(), "({d}, {(a,c)})");
    }
}
