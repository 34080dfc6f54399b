//! Quorum systems: classical (Definition 1), generalized (Definition 2) and
//! the strongly-connected strawman `QS+` discussed in §1/§3.
//!
//! A *generalized quorum system* `(F, R, W)` satisfies:
//!
//! * **Consistency** — every read quorum intersects every write quorum;
//! * **Availability** — for every failure pattern `f ∈ F` there exist
//!   `W ∈ W` and `R ∈ R` such that `W` is `f`-available (strongly connected
//!   set of correct processes) and `W` is `f`-reachable from `R`
//!   (unidirectional!).
//!
//! The paper proves this is *exactly* the condition under which MWMR atomic
//! registers, SWMR snapshots, lattice agreement and partially synchronous
//! consensus are implementable (Theorems 1, 2, 5, 6).

use std::fmt;

use crate::failure::FailProneSystem;
use crate::graph::{NetworkGraph, ResidualGraph};
use crate::process::ProcessSet;

/// A family of quorums: either an explicit list of process sets or the
/// family of **all** subsets of at least a given size (threshold).
///
/// Threshold families avoid enumerating `C(n, m)` sets and are what the
/// classical constructions of Examples 4 and 6 use.
///
/// # Examples
///
/// ```
/// use gqs_core::{pset, QuorumFamily};
/// let r = QuorumFamily::threshold(5, 3)?;
/// assert!(r.is_satisfied(pset![0, 2, 4]));
/// assert!(!r.is_satisfied(pset![0, 2]));
/// # Ok::<(), gqs_core::QuorumSystemError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QuorumFamily {
    /// An explicit list of quorums.
    Explicit(Vec<ProcessSet>),
    /// All subsets of `{0..n}` with at least `min_size` members.
    Threshold {
        /// Universe size.
        n: usize,
        /// Minimum quorum size.
        min_size: usize,
    },
}

impl QuorumFamily {
    /// Builds an explicit family.
    ///
    /// The quorums are stored sorted and deduplicated: duplicate entries
    /// carry no information (a family is a *set* of quorums), and the
    /// canonical order lets validation and Consistency checks early-exit
    /// deterministically.
    ///
    /// # Errors
    ///
    /// Rejects empty families and empty quorums (a quorum must contain at
    /// least one process for Consistency to be satisfiable).
    pub fn explicit<I>(quorums: I) -> Result<Self, QuorumSystemError>
    where
        I: IntoIterator<Item = ProcessSet>,
    {
        let mut quorums: Vec<ProcessSet> = quorums.into_iter().collect();
        if quorums.is_empty() {
            return Err(QuorumSystemError::EmptyFamily);
        }
        if let Some(_empty) = quorums.iter().find(|q| q.is_empty()) {
            return Err(QuorumSystemError::EmptyQuorum);
        }
        quorums.sort_unstable();
        quorums.dedup();
        Ok(QuorumFamily::Explicit(quorums))
    }

    /// Builds the threshold family of all subsets of size at least
    /// `min_size`.
    ///
    /// # Errors
    ///
    /// Rejects `min_size == 0` and `min_size > n`.
    pub fn threshold(n: usize, min_size: usize) -> Result<Self, QuorumSystemError> {
        if min_size == 0 || min_size > n {
            return Err(QuorumSystemError::BadThreshold { n, min_size });
        }
        Ok(QuorumFamily::Threshold { n, min_size })
    }

    /// Whether `have` contains some quorum of the family.
    pub fn is_satisfied(&self, have: ProcessSet) -> bool {
        match self {
            QuorumFamily::Explicit(qs) => qs.iter().any(|q| q.is_subset(have)),
            QuorumFamily::Threshold { min_size, .. } => have.len() >= *min_size,
        }
    }

    /// Returns a quorum contained in `have`, if any.
    pub fn satisfying_quorum(&self, have: ProcessSet) -> Option<ProcessSet> {
        match self {
            QuorumFamily::Explicit(qs) => qs.iter().copied().find(|q| q.is_subset(have)),
            QuorumFamily::Threshold { min_size, .. } => {
                if have.len() >= *min_size {
                    Some(have)
                } else {
                    None
                }
            }
        }
    }

    /// Whether `q` is a quorum of this family.
    pub fn contains_quorum(&self, q: ProcessSet) -> bool {
        match self {
            QuorumFamily::Explicit(qs) => qs.contains(&q),
            QuorumFamily::Threshold { n, min_size } => {
                q.len() >= *min_size && q.is_subset(ProcessSet::full(*n))
            }
        }
    }

    /// The explicit quorums, if this is an explicit family.
    pub fn as_explicit(&self) -> Option<&[ProcessSet]> {
        match self {
            QuorumFamily::Explicit(qs) => Some(qs),
            QuorumFamily::Threshold { .. } => None,
        }
    }

    /// All processes mentioned by the family.
    pub fn support(&self) -> ProcessSet {
        match self {
            QuorumFamily::Explicit(qs) => qs.iter().fold(ProcessSet::new(), |acc, q| acc | *q),
            QuorumFamily::Threshold { n, .. } => ProcessSet::full(*n),
        }
    }

    /// Checks Consistency against another family used in the opposite role:
    /// every quorum here must intersect every quorum there.
    ///
    /// # Errors
    ///
    /// Returns a counterexample pair on violation.
    pub fn consistent_with(&self, other: &QuorumFamily) -> Result<(), (ProcessSet, ProcessSet)> {
        match (self, other) {
            (QuorumFamily::Explicit(rs), QuorumFamily::Explicit(ws)) => {
                // Fast path: a process common to every write quorum makes
                // any read containing it intersect all of them, skipping
                // the inner loop.
                let universe = ProcessSet::full(crate::process::MAX_PROCESSES);
                let common_w = ws.iter().fold(universe, |acc, w| acc & *w);
                for r in rs {
                    if r.intersects(common_w) {
                        continue;
                    }
                    for w in ws {
                        if r.is_disjoint(*w) {
                            return Err((*r, *w));
                        }
                    }
                }
                Ok(())
            }
            (
                QuorumFamily::Threshold { n, min_size: mr },
                QuorumFamily::Threshold { n: n2, min_size: mw },
            ) => {
                let n = (*n).max(*n2);
                if mr + mw > n {
                    Ok(())
                } else {
                    // Counterexample: a prefix and a suffix that miss each other.
                    let r: ProcessSet = (0..*mr).collect();
                    let w: ProcessSet = (n - mw..n).collect();
                    Err((r, w))
                }
            }
            (QuorumFamily::Explicit(rs), QuorumFamily::Threshold { n, min_size }) => {
                for r in rs {
                    // r intersects every set of size >= min_size iff its
                    // complement has fewer than min_size members.
                    let co = r.complement(*n);
                    if co.len() >= *min_size {
                        let w: ProcessSet = co.iter().take(*min_size).collect();
                        return Err((*r, w));
                    }
                }
                Ok(())
            }
            (QuorumFamily::Threshold { .. }, QuorumFamily::Explicit(_)) => {
                other.consistent_with(self).map_err(|(w, r)| (r, w))
            }
        }
    }

    /// Candidate *maximal* write quorums of this family that are
    /// `f`-available in `res`.
    ///
    /// For an explicit family these are the `f`-available quorums
    /// themselves. For a threshold family these are the strongly connected
    /// components of size at least `min_size` (every subset of such an SCC
    /// of sufficient size is an available quorum, and the SCC itself is
    /// one, so using the SCC is sound and—because bigger sets reach and
    /// intersect more—complete).
    pub fn available_writes(&self, res: &ResidualGraph) -> Vec<ProcessSet> {
        match self {
            QuorumFamily::Explicit(qs) => {
                qs.iter().copied().filter(|w| res.f_available(*w)).collect()
            }
            QuorumFamily::Threshold { min_size, .. } => {
                res.sccs().into_iter().filter(|s| s.len() >= *min_size).collect()
            }
        }
    }

    /// A read quorum of this family from which `w` is `f`-reachable, if
    /// one exists.
    ///
    /// For threshold families this is the *maximal* candidate: the set of
    /// all alive processes that reach every member of `w`.
    pub fn reaching_read(&self, res: &ResidualGraph, w: ProcessSet) -> Option<ProcessSet> {
        match self {
            QuorumFamily::Explicit(qs) => qs.iter().copied().find(|r| res.f_reachable(w, *r)),
            QuorumFamily::Threshold { min_size, .. } => {
                let candidates = res.reach_to_all(w);
                if candidates.len() >= *min_size {
                    Some(candidates)
                } else {
                    None
                }
            }
        }
    }
}

impl fmt::Display for QuorumFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumFamily::Explicit(qs) => {
                write!(f, "{{")?;
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{q}")?;
                }
                write!(f, "}}")
            }
            QuorumFamily::Threshold { n, min_size } => {
                write!(f, "{{Q ⊆ [0,{n}) : |Q| ≥ {min_size}}}")
            }
        }
    }
}

/// Error produced when validating a quorum system.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QuorumSystemError {
    /// A family with no quorums.
    EmptyFamily,
    /// A quorum with no members.
    EmptyQuorum,
    /// Threshold parameters out of range.
    BadThreshold {
        /// Universe size.
        n: usize,
        /// Offending minimum size.
        min_size: usize,
    },
    /// A quorum mentions processes outside the graph.
    QuorumOutOfRange {
        /// The offending quorum.
        quorum: ProcessSet,
    },
    /// Consistency violation: a read and write quorum that do not intersect.
    Consistency {
        /// The read quorum.
        read: ProcessSet,
        /// The write quorum.
        write: ProcessSet,
    },
    /// Availability violation for the given pattern index.
    Availability {
        /// Index of the failure pattern in the fail-prone system.
        pattern: usize,
    },
    /// The fail-prone system allows channel failures but a classical
    /// quorum system (Definition 1) was requested.
    ChannelFailuresPresent,
    /// Universe sizes of the graph and the fail-prone system disagree.
    UniverseMismatch {
        /// Universe of the graph.
        graph: usize,
        /// Universe of the fail-prone system.
        fail_prone: usize,
    },
    /// A threshold family is over a different number of processes than
    /// the system it is part of.
    FamilyUniverseMismatch {
        /// Universe of the system (its graph and fail-prone system).
        system: usize,
        /// Universe of the threshold family.
        family: usize,
    },
}

impl fmt::Display for QuorumSystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumSystemError::EmptyFamily => write!(f, "quorum family has no quorums"),
            QuorumSystemError::EmptyQuorum => write!(f, "quorum family contains an empty quorum"),
            QuorumSystemError::BadThreshold { n, min_size } => {
                write!(f, "threshold {min_size} is not in 1..={n}")
            }
            QuorumSystemError::QuorumOutOfRange { quorum } => {
                write!(f, "quorum {quorum} mentions processes outside the system")
            }
            QuorumSystemError::Consistency { read, write } => {
                write!(f, "consistency violated: read quorum {read} misses write quorum {write}")
            }
            QuorumSystemError::Availability { pattern } => {
                write!(f, "availability violated for failure pattern #{pattern}")
            }
            QuorumSystemError::ChannelFailuresPresent => {
                write!(f, "classical quorum systems require a crash-only fail-prone system")
            }
            QuorumSystemError::UniverseMismatch { graph, fail_prone } => {
                write!(f, "graph is over {graph} processes, fail-prone system over {fail_prone}")
            }
            QuorumSystemError::FamilyUniverseMismatch { system, family } => {
                write!(f, "system is over {system} processes, threshold family over {family}")
            }
        }
    }
}

impl std::error::Error for QuorumSystemError {}

/// A witness that availability holds for one failure pattern: the read
/// quorum, the write quorum, and `U_f` (the strongly connected component
/// of Proposition 1 within which wait-freedom is guaranteed).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AvailabilityWitness {
    /// A read quorum from which the write quorum is `f`-reachable.
    pub read: ProcessSet,
    /// An `f`-available write quorum.
    pub write: ProcessSet,
    /// The strongly connected component `U_f` containing every validating
    /// write quorum (Proposition 1).
    pub u_f: ProcessSet,
}

/// A generalized quorum system `(F, R, W)` over a network graph
/// (Definition 2), validated at construction.
///
/// # Examples
///
/// Figure 1's system:
///
/// ```
/// use gqs_core::systems::figure1;
/// let fig = figure1();
/// let gqs = fig.gqs; // already validated
/// assert_eq!(gqs.u_f(0).to_string(), "{a,b}"); // Example 9: U_f1 = {a,b}
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GeneralizedQuorumSystem {
    graph: NetworkGraph,
    fail_prone: FailProneSystem,
    reads: QuorumFamily,
    writes: QuorumFamily,
    /// One availability witness per pattern, computed during validation
    /// (each over a single shared-cache residual graph) and served by
    /// `availability_witness`/`u_f` without recomputation.
    witnesses: Vec<AvailabilityWitness>,
}

impl GeneralizedQuorumSystem {
    /// Validates and constructs a generalized quorum system.
    ///
    /// Validation builds **one** residual graph per failure pattern and
    /// answers every availability/`U_f` query for that pattern from its
    /// memoized reachability caches; the witnesses are stored, so
    /// [`GeneralizedQuorumSystem::u_f`] and
    /// [`GeneralizedQuorumSystem::availability_witness`] are O(1)
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: universe mismatches, quorums out
    /// of range, a Consistency counterexample, or the index of a failure
    /// pattern for which Availability fails.
    pub fn new(
        graph: NetworkGraph,
        fail_prone: FailProneSystem,
        reads: QuorumFamily,
        writes: QuorumFamily,
    ) -> Result<Self, QuorumSystemError> {
        same_universe(&graph, &fail_prone)?;
        check_families(&reads, &writes, graph.len())?;
        let mut witnesses = Vec::with_capacity(fail_prone.len());
        for (i, f) in fail_prone.patterns().enumerate() {
            let res = graph.residual(f);
            match witness_for(&res, &reads, &writes) {
                Some(w) => witnesses.push(w),
                None => return Err(QuorumSystemError::Availability { pattern: i }),
            }
        }
        Ok(GeneralizedQuorumSystem { graph, fail_prone, reads, writes, witnesses })
    }

    /// The network graph.
    pub fn graph(&self) -> &NetworkGraph {
        &self.graph
    }

    /// The fail-prone system.
    pub fn fail_prone(&self) -> &FailProneSystem {
        &self.fail_prone
    }

    /// The read quorum family.
    pub fn reads(&self) -> &QuorumFamily {
        &self.reads
    }

    /// The write quorum family.
    pub fn writes(&self) -> &QuorumFamily {
        &self.writes
    }

    /// The availability witness for pattern `i`, computed at construction.
    ///
    /// # Examples
    ///
    /// ```
    /// let fig = gqs_core::systems::figure1();
    /// let w = fig.gqs.availability_witness(0);
    /// // The validating write quorum lies in U_f (Proposition 1).
    /// assert!(w.write.is_subset(w.u_f));
    /// assert_eq!(w.u_f, fig.gqs.u_f(0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid pattern index.
    pub fn availability_witness(&self, i: usize) -> AvailabilityWitness {
        self.witnesses[i]
    }

    /// The set `U_f` for pattern `i` (Proposition 1): the strongly
    /// connected component containing every write quorum that validates
    /// availability under the pattern. Operations are guaranteed to be
    /// wait-free exactly at the members of `U_f` (Theorems 1 and 2).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range. Cannot return an empty set: the
    /// system was validated at construction.
    pub fn u_f(&self, i: usize) -> ProcessSet {
        self.witnesses[i].u_f
    }
}

impl fmt::Display for GeneralizedQuorumSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GQS(R = {}, W = {})", self.reads, self.writes)
    }
}

/// A classical read-write quorum system (Definition 1), for fail-prone
/// systems that disallow channel failures between correct processes.
///
/// # Examples
///
/// Example 6's threshold system:
///
/// ```
/// use gqs_core::ClassicalQuorumSystem;
/// let qs = ClassicalQuorumSystem::threshold_system(5, 2)?;
/// # Ok::<(), gqs_core::QuorumSystemError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassicalQuorumSystem {
    fail_prone: FailProneSystem,
    reads: QuorumFamily,
    writes: QuorumFamily,
}

impl ClassicalQuorumSystem {
    /// Validates and constructs a classical quorum system.
    ///
    /// # Errors
    ///
    /// Returns an error if the fail-prone system allows channel failures,
    /// or Consistency / Availability (Definition 1) fails.
    pub fn new(
        fail_prone: FailProneSystem,
        reads: QuorumFamily,
        writes: QuorumFamily,
    ) -> Result<Self, QuorumSystemError> {
        if !fail_prone.is_crash_only() {
            return Err(QuorumSystemError::ChannelFailuresPresent);
        }
        check_families(&reads, &writes, fail_prone.universe())?;
        for (i, f) in fail_prone.patterns().enumerate() {
            let correct = f.correct();
            if !reads.is_satisfied(correct) || !writes.is_satisfied(correct) {
                return Err(QuorumSystemError::Availability { pattern: i });
            }
        }
        Ok(ClassicalQuorumSystem { fail_prone, reads, writes })
    }

    /// Example 6: the threshold quorum system tolerating `k` crashes among
    /// `n` processes — read quorums of size `n - k`, write quorums of size
    /// `k + 1`.
    ///
    /// # Errors
    ///
    /// Fails when `n < 2k + 1` (Consistency is then violated), matching
    /// the classical lower bound.
    pub fn threshold_system(n: usize, k: usize) -> Result<Self, QuorumSystemError> {
        let fail_prone = FailProneSystem::threshold(n, k)
            .map_err(|_| QuorumSystemError::BadThreshold { n, min_size: k })?;
        let reads = QuorumFamily::threshold(n, n - k)?;
        let writes = QuorumFamily::threshold(n, k + 1)?;
        Self::new(fail_prone, reads, writes)
    }

    /// The fail-prone system.
    pub fn fail_prone(&self) -> &FailProneSystem {
        &self.fail_prone
    }

    /// The read quorum family.
    pub fn reads(&self) -> &QuorumFamily {
        &self.reads
    }

    /// The write quorum family.
    pub fn writes(&self) -> &QuorumFamily {
        &self.writes
    }

    /// Reinterprets this classical system as a generalized one over a
    /// complete network graph. Every classical quorum system is a GQS
    /// (§3: "a classical quorum system is a special case").
    ///
    /// # Errors
    ///
    /// Never fails for a validated classical system; the error type is
    /// shared for API uniformity.
    pub fn to_generalized(&self) -> Result<GeneralizedQuorumSystem, QuorumSystemError> {
        GeneralizedQuorumSystem::new(
            NetworkGraph::complete(self.fail_prone.universe()),
            self.fail_prone.clone(),
            self.reads.clone(),
            self.writes.clone(),
        )
    }
}

impl fmt::Display for ClassicalQuorumSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QS(R = {}, W = {})", self.reads, self.writes)
    }
}

/// The strawman `QS+` of §1: Consistency as usual, but Availability
/// strengthened to demand that the union of the available read and write
/// quorums is strongly connected by correct channels (so that bidirectional
/// request/response — ABD, Paxos — works directly).
///
/// The paper's headline result is that `QS+` is *not* necessary: Figure 1
/// admits a GQS but no `QS+`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QsPlus {
    graph: NetworkGraph,
    fail_prone: FailProneSystem,
    reads: QuorumFamily,
    writes: QuorumFamily,
}

impl QsPlus {
    /// Validates and constructs a `QS+`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: universe mismatches, quorums out
    /// of range, a Consistency counterexample, or the index of a failure
    /// pattern for which (strong) Availability fails.
    pub fn new(
        graph: NetworkGraph,
        fail_prone: FailProneSystem,
        reads: QuorumFamily,
        writes: QuorumFamily,
    ) -> Result<Self, QuorumSystemError> {
        same_universe(&graph, &fail_prone)?;
        check_families(&reads, &writes, graph.len())?;
        let sys = QsPlus { graph, fail_prone, reads, writes };
        for i in 0..sys.fail_prone.len() {
            if sys.availability_witness(i).is_none() {
                return Err(QuorumSystemError::Availability { pattern: i });
            }
        }
        Ok(sys)
    }

    /// Finds `(R, W)` with `R ∪ W` strongly connected among correct
    /// processes under pattern `i`, if possible.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn availability_witness(&self, i: usize) -> Option<(ProcessSet, ProcessSet)> {
        let res = self.graph.residual(self.fail_prone.pattern(i));
        // Any witness (R, W) has R ∪ W inside one SCC, so searching per
        // SCC is complete.
        res.sccs().into_iter().find_map(|scc| {
            Some((self.reads.satisfying_quorum(scc)?, self.writes.satisfying_quorum(scc)?))
        })
    }
}

impl fmt::Display for QsPlus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QS+(R = {}, W = {})", self.reads, self.writes)
    }
}

/// Finds an availability witness for one pattern over an already-built
/// residual graph: the first validating `(R, W)` pair plus `U_f`, the SCC
/// containing every validating write quorum (Proposition 1). All
/// reachability goes through `res`'s memoized caches, which answer per
/// SCC, so validation costs at most one forward + one backward BFS per SCC
/// per pattern.
fn witness_for(
    res: &ResidualGraph,
    reads: &QuorumFamily,
    writes: &QuorumFamily,
) -> Option<AvailabilityWitness> {
    let mut u = ProcessSet::new();
    let mut first: Option<(ProcessSet, ProcessSet)> = None;
    for w in writes.available_writes(res) {
        if let Some(r) = reads.reaching_read(res, w) {
            u |= w;
            if first.is_none() {
                first = Some((r, w));
            }
        }
    }
    let (read, write) = first?;
    let u_f = res.scc_containing(u).expect("Proposition 1: validating write quorums share one SCC");
    Some(AvailabilityWitness { read, write, u_f })
}

/// The one universe check of the crate: `graph` and `fail_prone` must be
/// over the same processes. Both validated constructors and every decision
/// procedure of [`crate::finder`] and [`crate::reference`] run it before
/// building a residual graph.
pub(crate) fn same_universe(
    graph: &NetworkGraph,
    fail_prone: &FailProneSystem,
) -> Result<(), QuorumSystemError> {
    if graph.len() == fail_prone.universe() {
        Ok(())
    } else {
        Err(QuorumSystemError::UniverseMismatch {
            graph: graph.len(),
            fail_prone: fail_prone.universe(),
        })
    }
}

/// The checks every validated constructor runs on its families before
/// Availability: both in range of `n` processes, and Consistency.
fn check_families(
    reads: &QuorumFamily,
    writes: &QuorumFamily,
    n: usize,
) -> Result<(), QuorumSystemError> {
    check_in_range(reads, n)?;
    check_in_range(writes, n)?;
    reads
        .consistent_with(writes)
        .map_err(|(read, write)| QuorumSystemError::Consistency { read, write })
}

fn check_in_range(family: &QuorumFamily, n: usize) -> Result<(), QuorumSystemError> {
    let universe = ProcessSet::full(n);
    match family {
        QuorumFamily::Explicit(qs) => {
            for q in qs {
                if !q.is_subset(universe) {
                    return Err(QuorumSystemError::QuorumOutOfRange { quorum: *q });
                }
            }
            Ok(())
        }
        QuorumFamily::Threshold { n: fam_n, min_size } => {
            if *fam_n != n {
                return Err(QuorumSystemError::FamilyUniverseMismatch {
                    system: n,
                    family: *fam_n,
                });
            }
            if *min_size == 0 || *min_size > n {
                return Err(QuorumSystemError::BadThreshold { n, min_size: *min_size });
            }
            Ok(())
        }
    }
}

/// Size and balance metrics of a quorum family — the quantities the
/// classical quorum-system literature (Naor–Wool, cited as \[34\] in §8)
/// optimizes. Useful for comparing the quorums the GQS finder produces
/// against threshold/grid baselines.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FamilyMetrics {
    /// Number of (distinct) quorums; for threshold families, the count of
    /// minimal quorums `C(n, min_size)` is not enumerated — this is the
    /// number of *sizes* represented, i.e. 1.
    pub quorums: usize,
    /// Smallest quorum cardinality.
    pub min_size: usize,
    /// Largest (minimal-)quorum cardinality.
    pub max_size: usize,
    /// Processes appearing in at least one quorum.
    pub support: usize,
    /// An upper bound on the *load* of the family under the uniform
    /// strategy: the highest fraction of quorums any single process
    /// belongs to. Lower is better (work spreads more evenly).
    pub uniform_load: f64,
}

impl QuorumFamily {
    /// Computes [`FamilyMetrics`] for this family over universe size `n`.
    pub fn metrics(&self, n: usize) -> FamilyMetrics {
        match self {
            QuorumFamily::Explicit(qs) => {
                let min_size = qs.iter().map(|q| q.len()).min().unwrap_or(0);
                let max_size = qs.iter().map(|q| q.len()).max().unwrap_or(0);
                let support = self.support().len();
                let busiest = (0..n)
                    .map(|p| qs.iter().filter(|q| q.contains(crate::ProcessId(p))).count())
                    .max()
                    .unwrap_or(0);
                FamilyMetrics {
                    quorums: qs.len(),
                    min_size,
                    max_size,
                    support,
                    uniform_load: busiest as f64 / qs.len().max(1) as f64,
                }
            }
            QuorumFamily::Threshold { n: fam_n, min_size } => FamilyMetrics {
                quorums: 1,
                min_size: *min_size,
                max_size: *min_size,
                support: *fam_n,
                // Every process is in the same fraction of min-size
                // quorums: C(n-1, m-1)/C(n, m) = m/n.
                uniform_load: *min_size as f64 / (*fam_n).max(1) as f64,
            },
        }
    }
}

/// Convenience: the majority quorum system for `n = 2k + 1` processes,
/// where read and write quorums are both majorities (Example 6, special
/// case `k = ⌊(n-1)/2⌋`).
///
/// # Errors
///
/// Fails for `n == 0`.
pub fn majority_system(n: usize) -> Result<ClassicalQuorumSystem, QuorumSystemError> {
    let k = (n.saturating_sub(1)) / 2;
    ClassicalQuorumSystem::threshold_system(n, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailurePattern;
    use crate::{chan, pset};

    #[test]
    fn explicit_family_satisfaction() {
        let fam = QuorumFamily::explicit([pset![0, 1], pset![2]]).unwrap();
        assert!(fam.is_satisfied(pset![0, 1, 3]));
        assert!(fam.is_satisfied(pset![2]));
        assert!(!fam.is_satisfied(pset![0, 3]));
        assert_eq!(fam.satisfying_quorum(pset![2, 3]), Some(pset![2]));
        assert_eq!(fam.satisfying_quorum(pset![3]), None);
        assert!(fam.contains_quorum(pset![0, 1]));
        assert!(!fam.contains_quorum(pset![0]));
        assert_eq!(fam.support(), pset![0, 1, 2]);
    }

    #[test]
    fn threshold_family_satisfaction() {
        let fam = QuorumFamily::threshold(5, 3).unwrap();
        assert!(fam.is_satisfied(pset![0, 1, 2]));
        assert!(!fam.is_satisfied(pset![0, 1]));
        assert!(fam.contains_quorum(pset![1, 2, 3, 4]));
        assert!(!fam.contains_quorum(pset![1, 2]));
        assert_eq!(fam.support(), ProcessSet::full(5));
    }

    #[test]
    fn family_constructors_validate() {
        assert!(matches!(
            QuorumFamily::explicit(std::iter::empty()),
            Err(QuorumSystemError::EmptyFamily)
        ));
        assert!(matches!(
            QuorumFamily::explicit([ProcessSet::new()]),
            Err(QuorumSystemError::EmptyQuorum)
        ));
        assert!(matches!(
            QuorumFamily::threshold(3, 0),
            Err(QuorumSystemError::BadThreshold { .. })
        ));
        assert!(matches!(
            QuorumFamily::threshold(3, 4),
            Err(QuorumSystemError::BadThreshold { .. })
        ));
    }

    #[test]
    fn consistency_explicit_vs_explicit() {
        let r = QuorumFamily::explicit([pset![0, 1]]).unwrap();
        let w_ok = QuorumFamily::explicit([pset![1, 2]]).unwrap();
        let w_bad = QuorumFamily::explicit([pset![2, 3]]).unwrap();
        assert!(r.consistent_with(&w_ok).is_ok());
        assert_eq!(r.consistent_with(&w_bad), Err((pset![0, 1], pset![2, 3])));
    }

    #[test]
    fn consistency_threshold_vs_threshold() {
        let r = QuorumFamily::threshold(5, 3).unwrap();
        let w = QuorumFamily::threshold(5, 3).unwrap();
        assert!(r.consistent_with(&w).is_ok()); // 3 + 3 > 5
        let w_small = QuorumFamily::threshold(5, 2).unwrap();
        let err = r.consistent_with(&w_small).unwrap_err();
        assert!(err.0.is_disjoint(err.1));
        assert_eq!(err.0.len(), 3);
        assert_eq!(err.1.len(), 2);
    }

    #[test]
    fn consistency_mixed() {
        let r = QuorumFamily::explicit([pset![0, 1, 2, 3]]).unwrap();
        let w = QuorumFamily::threshold(5, 2).unwrap();
        // complement of r is {4}, size 1 < 2: consistent.
        assert!(r.consistent_with(&w).is_ok());
        let r2 = QuorumFamily::explicit([pset![0, 1, 2]]).unwrap();
        let err = r2.consistent_with(&w).unwrap_err();
        assert!(err.0.is_disjoint(err.1));
        // And the symmetric direction.
        let err2 = w.consistent_with(&r2).unwrap_err();
        assert!(err2.0.is_disjoint(err2.1));
    }

    #[test]
    fn classical_threshold_system_bounds() {
        assert!(ClassicalQuorumSystem::threshold_system(5, 2).is_ok());
        assert!(ClassicalQuorumSystem::threshold_system(4, 2).is_err()); // n < 2k+1
        assert!(majority_system(7).is_ok());
        assert!(majority_system(1).is_ok());
    }

    #[test]
    fn classical_rejects_channel_failures() {
        let f = FailurePattern::new(3, pset![], [chan!(0, 1)]).unwrap();
        let fp = FailProneSystem::new(3, [f]).unwrap();
        let fam = QuorumFamily::threshold(3, 2).unwrap();
        assert!(matches!(
            ClassicalQuorumSystem::new(fp, fam.clone(), fam),
            Err(QuorumSystemError::ChannelFailuresPresent)
        ));
    }

    #[test]
    fn classical_availability_violation_detected() {
        // 3 processes, 2 may crash, majority quorums: availability fails.
        let fp = FailProneSystem::threshold(3, 2).unwrap();
        let fam = QuorumFamily::threshold(3, 2).unwrap();
        assert!(matches!(
            ClassicalQuorumSystem::new(fp, fam.clone(), fam),
            Err(QuorumSystemError::Availability { .. })
        ));
    }

    #[test]
    fn classical_embeds_into_generalized() {
        let qs = ClassicalQuorumSystem::threshold_system(5, 2).unwrap();
        let gqs = qs.to_generalized().unwrap();
        // Under any pattern, U_f is the full correct set (complete graph).
        for i in 0..gqs.fail_prone().len() {
            let f = gqs.fail_prone().pattern(i);
            assert_eq!(gqs.u_f(i), f.correct());
        }
    }

    #[test]
    fn gqs_universe_mismatch_rejected() {
        let g = NetworkGraph::complete(3);
        let fp = FailProneSystem::threshold(4, 1).unwrap();
        let fam = QuorumFamily::threshold(3, 2).unwrap();
        assert_eq!(
            GeneralizedQuorumSystem::new(g, fp, fam.clone(), fam),
            Err(QuorumSystemError::UniverseMismatch { graph: 3, fail_prone: 4 })
        );
    }

    #[test]
    fn threshold_family_over_the_wrong_universe_is_named_as_the_family() {
        let g = NetworkGraph::complete(3);
        let fp = FailProneSystem::threshold(3, 1).unwrap();
        let reads = QuorumFamily::threshold(4, 2).unwrap();
        let writes = QuorumFamily::threshold(3, 2).unwrap();
        let err =
            GeneralizedQuorumSystem::new(g.clone(), fp.clone(), reads.clone(), writes.clone())
                .unwrap_err();
        assert_eq!(err, QuorumSystemError::FamilyUniverseMismatch { system: 3, family: 4 });
        assert_eq!(err.to_string(), "system is over 3 processes, threshold family over 4");
        // The write family is checked the same way, and so is QS+.
        assert_eq!(
            QsPlus::new(g, fp, writes, reads),
            Err(QuorumSystemError::FamilyUniverseMismatch { system: 3, family: 4 })
        );
    }

    #[test]
    fn gqs_consistency_violation_reported() {
        let g = NetworkGraph::complete(4);
        let fp = FailProneSystem::new(4, [FailurePattern::failure_free(4)]).unwrap();
        let reads = QuorumFamily::explicit([pset![0]]).unwrap();
        let writes = QuorumFamily::explicit([pset![1]]).unwrap();
        assert_eq!(
            GeneralizedQuorumSystem::new(g, fp, reads, writes),
            Err(QuorumSystemError::Consistency { read: pset![0], write: pset![1] })
        );
    }

    #[test]
    fn gqs_availability_violation_reported() {
        // One-way line 0 -> 1: {0,1} is not strongly connected, and the
        // only quorums are {0,1}.
        let g = NetworkGraph::with_channels(2, [chan!(0, 1)]);
        let fp = FailProneSystem::new(2, [FailurePattern::failure_free(2)]).unwrap();
        let fam = QuorumFamily::explicit([pset![0, 1]]).unwrap();
        assert_eq!(
            GeneralizedQuorumSystem::new(g, fp, fam.clone(), fam),
            Err(QuorumSystemError::Availability { pattern: 0 })
        );
    }

    #[test]
    fn gqs_unidirectional_reachability_suffices() {
        // 0 <-> 1 strongly connected; 2 only pushes into the pair.
        let g = NetworkGraph::with_channels(3, [chan!(0, 1), chan!(1, 0), chan!(2, 0)]);
        let fp = FailProneSystem::new(3, [FailurePattern::failure_free(3)]).unwrap();
        let reads = QuorumFamily::explicit([pset![0, 2]]).unwrap();
        let writes = QuorumFamily::explicit([pset![0, 1]]).unwrap();
        let gqs =
            GeneralizedQuorumSystem::new(g.clone(), fp.clone(), reads.clone(), writes.clone())
                .unwrap();
        assert_eq!(gqs.u_f(0), pset![0, 1]);
        // But QS+ fails: {0,2} is not inside any SCC.
        assert!(matches!(
            QsPlus::new(g, fp, reads, writes),
            Err(QuorumSystemError::Availability { .. })
        ));
    }

    #[test]
    fn qs_plus_accepts_fully_connected() {
        let g = NetworkGraph::complete(3);
        let fp = FailProneSystem::threshold(3, 1).unwrap();
        let fam = QuorumFamily::threshold(3, 2).unwrap();
        let qsp = QsPlus::new(g, fp, fam.clone(), fam).unwrap();
        let (r, w) = qsp.availability_witness(0).unwrap();
        assert!(r.len() >= 2 && w.len() >= 2);
    }

    #[test]
    fn metrics_of_explicit_families() {
        // Figure 1's write quorums: four 2-sets covering all processes,
        // each process in exactly 2 of 4 quorums.
        let fam =
            QuorumFamily::explicit([pset![0, 1], pset![1, 2], pset![2, 3], pset![3, 0]]).unwrap();
        let m = fam.metrics(4);
        assert_eq!(m.quorums, 4);
        assert_eq!((m.min_size, m.max_size), (2, 2));
        assert_eq!(m.support, 4);
        assert!((m.uniform_load - 0.5).abs() < 1e-9);
    }

    #[test]
    fn metrics_of_threshold_families() {
        let fam = QuorumFamily::threshold(5, 3).unwrap();
        let m = fam.metrics(5);
        assert_eq!((m.min_size, m.max_size), (3, 3));
        assert_eq!(m.support, 5);
        assert!((m.uniform_load - 0.6).abs() < 1e-9);
    }

    #[test]
    fn grid_load_beats_majority_load() {
        // The classical point of grids: O(sqrt(n)) quorums with lower load.
        let grid = crate::systems::grid_system(3, 3, 1).unwrap();
        let grid_reads = grid.reads().metrics(9);
        let maj = majority_system(9).unwrap();
        let maj_reads = maj.reads().metrics(9);
        assert!(grid_reads.min_size < maj_reads.min_size);
        assert!(grid_reads.uniform_load < maj_reads.uniform_load);
    }

    #[test]
    fn display_impls() {
        let fam = QuorumFamily::explicit([pset![0, 1]]).unwrap();
        assert_eq!(fam.to_string(), "{{a,b}}");
        let th = QuorumFamily::threshold(4, 2).unwrap();
        assert!(th.to_string().contains("≥ 2"));
    }
}
