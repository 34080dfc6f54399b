//! Decision procedures: does a fail-prone system admit a generalized
//! quorum system (Theorem 2's condition), a `QS+`, or a classical quorum
//! system?
//!
//! # Completeness of the search
//!
//! For each failure pattern `f`, any write quorum validating Availability
//! is an `f`-available set, hence contained in some strongly connected
//! component `S_f` of `G \ f`; and any read quorum from which it is
//! reachable is contained in `reach(S_f) = { q : q reaches S_f }`. Replacing
//! the original quorums by these *maximal* candidates only inflates every
//! pairwise intersection, so:
//!
//! > A GQS exists **iff** one can choose, for every pattern `f`, one SCC
//! > `S_f` of `G \ f` such that `reach(S_f) ∩ S_g ≠ ∅` for all patterns
//! > `f, g`.
//!
//! This reduces existence to a finite constraint-satisfaction problem over
//! one SCC choice per pattern. The same argument with `R_f = W_f = S_f`
//! settles `QS+` existence, and with `R_f = W_f = correct(f)` the classical
//! case. A GQS and a `QS+` thus differ only in the *read rule* that turns
//! an SCC into its maximal read quorum (`reach(S_f)` or `S_f` itself), so
//! both finders share one candidate builder, one solver and one assembly.
//!
//! Every decision procedure first checks that the graph and the
//! fail-prone system are over the same processes, the check the validated
//! constructors of [`crate::quorum`] run too. On a mismatched pair each
//! answers `None` or `false`, and [`explain_unsolvable`] names the
//! mismatch.
//!
//! # How the CSP is solved
//!
//! The solver compiles the per-pattern candidate lists once, then searches:
//!
//! 1. **Dedup** — patterns with *identical* candidate lists are collapsed
//!    into one CSP variable. This is complete: if a solution assigns
//!    candidates `a ≠ b` to two patterns with the same list, assigning `a`
//!    to both is also a solution (`a` was already checked against every
//!    other chosen candidate, and `read ⊇ write` makes self-pairs
//!    consistent). Randomized sweeps produce many coincident patterns, so
//!    this routinely shrinks the search space.
//! 2. **Compatibility bitmatrix** — pairwise compatibility
//!    (`read_a ∩ write_b ≠ ∅ ∧ read_b ∩ write_a ≠ ∅`) is evaluated once
//!    per candidate pair and stored as one bitmask per (candidate,
//!    variable): bit `k` says "compatible with variable `v`'s `k`-th
//!    candidate". Candidate lists have at most
//!    [`MAX_PROCESSES`](crate::process::MAX_PROCESSES) entries (one per
//!    SCC), so a mask is a short run of `u64` words — the word count is
//!    sized per instance from the longest candidate list (one word for
//!    the common `≤ 64`-candidate case, more only when a pattern really
//!    has hundreds of SCCs).
//! 3. **Forward checking** — the search keeps a live domain mask per
//!    variable. Assigning a candidate intersects every open domain with
//!    the candidate's precomputed mask (one `AND` per variable — no
//!    intersection tests inside the tree), backtracking as soon as a
//!    domain empties, and always branching on the smallest open domain
//!    (dynamic fail-first).
//!
//! Total work is `O(G²)` bit-ops for compilation (`G` = total candidates)
//! plus the (heavily pruned) search; the naive pre-optimization solver is
//! kept in [`crate::reference`] as an oracle and perf baseline.

use crate::failure::FailProneSystem;
use crate::graph::{NetworkGraph, ResidualGraph};
use crate::process::ProcessSet;
use crate::quorum::{
    same_universe, GeneralizedQuorumSystem, QsPlus, QuorumFamily, QuorumSystemError,
};

/// One candidate per failure pattern: a strongly connected component used
/// as write quorum, and the maximal read quorum the read rule allows.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct Candidate {
    /// The SCC, used as the write quorum.
    write: ProcessSet,
    /// The maximal read quorum for the SCC (a superset of it).
    read: ProcessSet,
}

/// The read rule: the maximal read quorum for an SCC of a residual graph.
type ReadRule = fn(&ResidualGraph, ProcessSet) -> ProcessSet;

/// A GQS reads from every correct process that reaches the SCC.
const GQS_READ: ReadRule = ResidualGraph::reach_to_all;

/// A `QS+` reads within the SCC, so that `R_f ∪ W_f` is strongly connected.
const QS_PLUS_READ: ReadRule = |_, scc| scc;

/// The result of a successful GQS search: the chosen quorums, pattern by
/// pattern, and the assembled (validated) quorum system.
#[derive(Clone, Debug)]
pub struct GqsWitness {
    /// For each pattern index, the chosen `(R_f, W_f)`.
    pub per_pattern: Vec<(ProcessSet, ProcessSet)>,
    /// The validated generalized quorum system built from the choices.
    pub system: GeneralizedQuorumSystem,
}

/// Decides whether `(graph, fail_prone)` admits a generalized quorum
/// system, returning a witness if so.
///
/// The search is exact (sound and complete — see the module docs), so a
/// `None` answer on a graph and a fail-prone system over the same
/// processes certifies, by Theorem 2, that **no** obstruction-free
/// implementation of registers, snapshots or lattice agreement exists for
/// this fail-prone system, anywhere. On a pair over different universes
/// the question has no meaning and the answer is `None` too;
/// [`explain_unsolvable`] tells the two apart. An empty fail-prone system
/// gets the vacuous witness: one read and one write quorum of every
/// process, and no per-pattern choices.
///
/// # Examples
///
/// ```
/// use gqs_core::systems::figure1;
/// use gqs_core::finder::find_gqs;
/// let fig = figure1();
/// assert!(find_gqs(&fig.graph, &fig.fail_prone).is_some());
/// ```
pub fn find_gqs(graph: &NetworkGraph, fail_prone: &FailProneSystem) -> Option<GqsWitness> {
    let (per_pattern, system) =
        assemble(graph, fail_prone, GQS_READ, GeneralizedQuorumSystem::new)?;
    Some(GqsWitness { per_pattern, system })
}

/// Decides GQS existence without building the witness (slightly cheaper;
/// used in sweeps). Agrees with `find_gqs(graph, fail_prone).is_some()`,
/// so it is `false` on a pair over different universes.
pub fn gqs_exists(graph: &NetworkGraph, fail_prone: &FailProneSystem) -> bool {
    candidates_per_pattern(graph, fail_prone, GQS_READ).is_some_and(|c| solve(&c).is_some())
}

/// Decides whether `(graph, fail_prone)` admits a `QS+` (the §1 strawman:
/// available read and write quorums strongly connected together), returning
/// the validated system if so.
///
/// Since any `QS+` witness has `R_f ∪ W_f` inside one SCC `S_f`, and
/// enlarging both to `S_f` preserves Consistency and Availability, `QS+`
/// exists iff one SCC per pattern can be chosen with pairwise
/// intersections. An empty fail-prone system gets the vacuous `QS+`, one
/// quorum of every process.
pub fn find_qs_plus(graph: &NetworkGraph, fail_prone: &FailProneSystem) -> Option<QsPlus> {
    assemble(graph, fail_prone, QS_PLUS_READ, QsPlus::new).map(|(_, system)| system)
}

/// Decides `QS+` existence without building the witness. Agrees with
/// `find_qs_plus(graph, fail_prone).is_some()`.
pub fn qs_plus_exists(graph: &NetworkGraph, fail_prone: &FailProneSystem) -> bool {
    candidates_per_pattern(graph, fail_prone, QS_PLUS_READ).is_some_and(|c| solve(&c).is_some())
}

/// The one assembly from a solver choice to a validated system, shared by
/// [`find_gqs`] and [`find_qs_plus`]: the chosen `(R_f, W_f)` per pattern,
/// and the system `build` validates over their read and write families.
fn assemble<T>(
    graph: &NetworkGraph,
    fail_prone: &FailProneSystem,
    read: ReadRule,
    build: fn(
        NetworkGraph,
        FailProneSystem,
        QuorumFamily,
        QuorumFamily,
    ) -> Result<T, QuorumSystemError>,
) -> Option<(Vec<(ProcessSet, ProcessSet)>, T)> {
    let candidates = candidates_per_pattern(graph, fail_prone, read)?;
    let per_pattern: Vec<(ProcessSet, ProcessSet)> = solve(&candidates)?
        .into_iter()
        .zip(&candidates)
        .map(|(c, list)| (list[c].read, list[c].write))
        .collect();
    let reads = chosen_family(graph.len(), per_pattern.iter().map(|&(r, _)| r));
    let writes = chosen_family(graph.len(), per_pattern.iter().map(|&(_, w)| w));
    let system = build(graph.clone(), fail_prone.clone(), reads, writes)
        .expect("the solver's pairwise checks imply validity");
    Some((per_pattern, system))
}

/// The explicit family of the chosen quorums, stored sorted and deduplicated
/// as [`QuorumFamily::explicit`] stores it; every chosen quorum contains a
/// nonempty SCC. An empty fail-prone system chooses nothing and constrains
/// nothing, so its family is one quorum of all `n` processes.
fn chosen_family(n: usize, quorums: impl Iterator<Item = ProcessSet>) -> QuorumFamily {
    let mut quorums: Vec<ProcessSet> = quorums.collect();
    if quorums.is_empty() {
        quorums.push(ProcessSet::full(n));
    }
    quorums.sort_unstable();
    quorums.dedup();
    QuorumFamily::Explicit(quorums)
}

/// Decides whether a **crash-only** fail-prone system admits a classical
/// quorum system (Definition 1): taking maximal correct sets as quorums,
/// this holds iff no two patterns jointly cover all processes.
///
/// Returns `None` if the system allows channel failures (Definition 1 does
/// not apply), `Some(bool)` otherwise.
pub fn classical_qs_exists(fail_prone: &FailProneSystem) -> Option<bool> {
    if !fail_prone.is_crash_only() {
        return None;
    }
    let correct: Vec<ProcessSet> = fail_prone.patterns().map(|f| f.correct()).collect();
    for r in &correct {
        for w in &correct {
            if r.is_disjoint(*w) {
                return Some(false);
            }
        }
        if r.is_empty() {
            return Some(false);
        }
    }
    // An empty fail-prone system imposes no constraints; quorums must still
    // be nonempty, which every process together satisfies.
    Some(true)
}

/// Searches for a **threshold** generalized quorum system: reads = all
/// sets of at least `r` processes, writes = all sets of at least `w`,
/// with `r + w > n` for Consistency. Returns the first valid pair in
/// order of growing `w` then `r` (small write quorums preferred, as in
/// Example 6's trade-off).
///
/// Threshold families are attractive operationally (no explicit quorum
/// lists), but strictly weaker than free-form families: some systems
/// admit only irregular quorums. Figure 1, interestingly, admits the
/// threshold pair `(r, w) = (3, 2)`.
pub fn find_threshold_gqs(
    graph: &NetworkGraph,
    fail_prone: &FailProneSystem,
) -> Option<GeneralizedQuorumSystem> {
    same_universe(graph, fail_prone).ok()?;
    let n = graph.len();
    for w in 1..=n {
        for r in (n + 1 - w).max(1)..=n {
            let reads = QuorumFamily::Threshold { n, min_size: r };
            let writes = QuorumFamily::Threshold { n, min_size: w };
            if let Ok(sys) =
                GeneralizedQuorumSystem::new(graph.clone(), fail_prone.clone(), reads, writes)
            {
                return Some(sys);
            }
        }
    }
    None
}

/// Why a graph and a fail-prone system admit no generalized quorum system.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Unsolvability {
    /// The graph and the fail-prone system are over different numbers of
    /// processes, so the question has no meaning.
    UniverseMismatch {
        /// Processes of the graph.
        graph: usize,
        /// Processes of the fail-prone system.
        fail_prone: usize,
    },
    /// A pattern leaves no correct process at all: no write quorum can
    /// ever be available under it.
    DeadPattern {
        /// Index of the pattern.
        pattern: usize,
    },
    /// Two patterns admit no pairwise-compatible quorum choice: under
    /// `a`'s connectivity nothing can both reach `b`'s candidates and be
    /// reached by them (a 2-pattern unsolvability core).
    ConflictingPair {
        /// Index of the first pattern.
        a: usize,
        /// Index of the second pattern.
        b: usize,
    },
    /// Every pair is locally compatible but no global choice exists —
    /// the conflict involves three or more patterns (Example 9's `F'` is
    /// of this kind).
    Global,
}

impl std::fmt::Display for Unsolvability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unsolvability::UniverseMismatch { graph, fail_prone } => {
                write!(f, "graph is over {graph} processes, fail-prone system over {fail_prone}")
            }
            Unsolvability::DeadPattern { pattern } => {
                write!(f, "pattern #{pattern} leaves no correct processes")
            }
            Unsolvability::ConflictingPair { a, b } => {
                write!(f, "patterns #{a} and #{b} admit no compatible quorum choice")
            }
            Unsolvability::Global => {
                write!(f, "no two patterns conflict alone; the obstruction involves ≥3 patterns")
            }
        }
    }
}

/// Diagnoses why no GQS exists; returns `None` if one does, that is,
/// exactly when [`find_gqs`] returns a witness.
///
/// The diagnosis is a coarse core: first a universe mismatch between the
/// graph and the fail-prone system, then a pattern with no candidates,
/// then the first locally-inconsistent pair, otherwise a global verdict.
pub fn explain_unsolvable(
    graph: &NetworkGraph,
    fail_prone: &FailProneSystem,
) -> Option<Unsolvability> {
    let Some(candidates) = candidates_per_pattern(graph, fail_prone, GQS_READ) else {
        return Some(Unsolvability::UniverseMismatch {
            graph: graph.len(),
            fail_prone: fail_prone.universe(),
        });
    };
    if let Some(i) = candidates.iter().position(|c| c.is_empty()) {
        return Some(Unsolvability::DeadPattern { pattern: i });
    }
    let csp = Csp::compile(&candidates);
    if csp.search().is_some() {
        return None;
    }
    let m = candidates.len();
    for (a, list_a) in candidates.iter().enumerate() {
        for b in a + 1..m {
            let (va, vb) = (csp.var_of_pattern[a], csp.var_of_pattern[b]);
            if va == vb {
                // Identical candidate lists: assigning the same candidate
                // to both is always pairwise-consistent (read ⊇ write).
                continue;
            }
            let pair_ok = (0..list_a.len()).any(|ca| csp.mask_nonempty(va, ca, vb));
            if !pair_ok {
                return Some(Unsolvability::ConflictingPair { a, b });
            }
        }
    }
    Some(Unsolvability::Global)
}

/// The one candidate builder: per pattern, every SCC of the residual graph
/// with its read quorum under `read`. `None` when the graph and the
/// fail-prone system are over different universes.
fn candidates_per_pattern(
    graph: &NetworkGraph,
    fail_prone: &FailProneSystem,
    read: ReadRule,
) -> Option<Vec<Vec<Candidate>>> {
    same_universe(graph, fail_prone).ok()?;
    let candidates = fail_prone
        .patterns()
        .map(|f| {
            let res = graph.residual(f);
            res.sccs()
                .into_iter()
                .map(|scc| Candidate { write: scc, read: read(&res, scc) })
                .collect()
        })
        .collect();
    Some(candidates)
}

/// Pairwise compatibility: both chosen candidates' reads must intersect
/// the other's write (`read ⊇ write` makes self-pairs consistent).
///
/// Restricted to the low `nw` backing words — exact when every candidate
/// set lives within those words (see [`Csp::compile`]), and much cheaper
/// than a full-width test on the `O(G²)` compile loop.
#[inline]
fn compatible_low(a: &Candidate, b: &Candidate, nw: usize) -> bool {
    let intersects_low = |x: &ProcessSet, y: &ProcessSet| {
        let (xw, yw) = (x.as_words(), y.as_words());
        let mut acc = 0u64;
        for i in 0..nw {
            acc |= xw[i] & yw[i];
        }
        acc != 0
    };
    intersects_low(&a.read, &b.write) && intersects_low(&b.read, &a.write)
}

/// The compiled CSP: deduped variables, a flattened candidate numbering,
/// and the precomputed compatibility bitmatrix (see the module docs).
///
/// All candidate masks (domains, compatibility rows, trail entries) are
/// runs of `mw` consecutive `u64` words, where `mw` is sized from the
/// longest candidate list of the instance — so systems whose patterns have
/// more than 64 (or 128) SCCs are handled with the same code path as the
/// single-word common case.
struct Csp<'a> {
    /// One candidate list per deduped variable (borrowed from the caller).
    vars: Vec<&'a [Candidate]>,
    /// Pattern index → variable index.
    var_of_pattern: Vec<usize>,
    /// Variable index → offset into the global candidate numbering.
    offsets: Vec<usize>,
    /// Words per candidate mask: `⌈max candidate-list length / 64⌉`.
    mw: usize,
    /// `compat[((g * vars.len()) + v) * mw ..][..mw]` = bitmask over
    /// variable `v`'s candidates compatible with global candidate `g`.
    compat: Vec<u64>,
}

/// Upper bound on `mw`: candidate lists have one entry per SCC, and there
/// are at most `MAX_PROCESSES` SCCs.
const MASK_WORDS_MAX: usize = crate::process::ProcessSet::WORDS;

/// Sets the low `len` bits of `mask` (one bit per candidate of a
/// variable), clearing the rest.
#[inline]
fn fill_low_bits(mask: &mut [u64], len: usize) {
    let (full, rem) = (len / 64, len % 64);
    for (i, w) in mask.iter_mut().enumerate() {
        *w = if i < full {
            u64::MAX
        } else if i == full && rem != 0 {
            (1u64 << rem) - 1
        } else {
            0
        };
    }
}

impl<'a> Csp<'a> {
    /// Compiles the per-pattern candidate lists: dedup, flatten, and fill
    /// the compatibility matrix.
    fn compile(candidates: &'a [Vec<Candidate>]) -> Csp<'a> {
        let mut vars: Vec<&'a [Candidate]> = Vec::new();
        let mut var_of_pattern = Vec::with_capacity(candidates.len());
        for list in candidates {
            let v = match vars.iter().position(|seen| *seen == list.as_slice()) {
                Some(v) => v,
                None => {
                    vars.push(list.as_slice());
                    vars.len() - 1
                }
            };
            var_of_pattern.push(v);
        }
        let mut offsets = Vec::with_capacity(vars.len());
        let mut total = 0usize;
        for v in &vars {
            offsets.push(total);
            total += v.len();
        }
        let nvars = vars.len();
        let max_len = vars.iter().map(|v| v.len()).max().unwrap_or(0).max(1);
        let mw = max_len.div_ceil(64);
        debug_assert!(mw <= MASK_WORDS_MAX, "at most one SCC candidate per process");
        // All candidate sets live in the low words of their universe;
        // restrict the O(G²) pairwise checks to the words actually used.
        let used = vars
            .iter()
            .flat_map(|v| v.iter())
            .flat_map(|c| [c.read, c.write])
            .fold(0usize, |hi, s| {
                let w = s.as_words();
                hi.max((0..w.len()).rev().find(|&i| w[i] != 0).map_or(0, |i| i + 1))
            })
            .max(1);
        let mut compat = vec![0u64; total * nvars * mw];
        for (a, va) in vars.iter().enumerate() {
            for (ca, cand_a) in va.iter().enumerate() {
                let g = offsets[a] + ca;
                for (b, vb) in vars.iter().enumerate() {
                    let row = &mut compat[(g * nvars + b) * mw..][..mw];
                    for (cb, cand_b) in vb.iter().enumerate() {
                        if compatible_low(cand_a, cand_b, used) {
                            row[cb / 64] |= 1u64 << (cb % 64);
                        }
                    }
                }
            }
        }
        Csp { vars, var_of_pattern, offsets, mw, compat }
    }

    /// The compatibility mask (a `mw`-word run) of variable `v`'s
    /// candidate `c` against variable `u`'s candidates.
    #[inline]
    fn mask(&self, v: usize, c: usize, u: usize) -> &[u64] {
        let base = ((self.offsets[v] + c) * self.vars.len() + u) * self.mw;
        &self.compat[base..base + self.mw]
    }

    /// Whether any candidate of variable `u` is compatible with variable
    /// `v`'s candidate `c`.
    #[inline]
    fn mask_nonempty(&self, v: usize, c: usize, u: usize) -> bool {
        self.mask(v, c, u).iter().any(|&w| w != 0)
    }

    /// Forward-checking search over domain bitmasks; returns one candidate
    /// choice per variable.
    fn search(&self) -> Option<Vec<usize>> {
        let (nvars, mw) = (self.vars.len(), self.mw);
        let mut domains = vec![0u64; nvars * mw];
        for (v, var) in self.vars.iter().enumerate() {
            fill_low_bits(&mut domains[v * mw..(v + 1) * mw], var.len());
            if var.is_empty() {
                return None;
            }
        }
        let mut chosen = vec![usize::MAX; nvars];
        let mut open: Vec<usize> = (0..nvars).collect();
        // The undo trail: variable indices plus their saved `mw`-word
        // domains, in two parallel flat vectors (no per-node allocation).
        let mut trail_vars: Vec<usize> = Vec::with_capacity(nvars);
        let mut trail_words: Vec<u64> = Vec::with_capacity(nvars * mw);
        if self.assign_next(&mut domains, &mut chosen, &mut open, &mut trail_vars, &mut trail_words)
        {
            Some(chosen)
        } else {
            None
        }
    }

    fn assign_next(
        &self,
        domains: &mut [u64],
        chosen: &mut [usize],
        open: &mut Vec<usize>,
        trail_vars: &mut Vec<usize>,
        trail_words: &mut Vec<u64>,
    ) -> bool {
        let mw = self.mw;
        // Dynamic fail-first: branch on the smallest open domain.
        let Some(pos) = (0..open.len()).min_by_key(|&i| {
            let v = open[i];
            domains[v * mw..(v + 1) * mw].iter().map(|w| w.count_ones()).sum::<u32>()
        }) else {
            return true; // all variables assigned
        };
        let v = open.swap_remove(pos);
        let mut dom = [0u64; MASK_WORDS_MAX];
        dom[..mw].copy_from_slice(&domains[v * mw..(v + 1) * mw]);
        let mut wi = 0;
        while wi < mw {
            let w = dom[wi];
            if w == 0 {
                wi += 1;
                continue;
            }
            let c = wi * 64 + w.trailing_zeros() as usize;
            dom[wi] = w & (w - 1);
            // Prune every open domain through the precomputed masks,
            // recording changed entries on the shared trail for undo.
            let mark = trail_vars.len();
            let mut wiped = false;
            for &u in open.iter() {
                let mask = self.mask(v, c, u);
                let du = &domains[u * mw..(u + 1) * mw];
                let mut pruned = [0u64; MASK_WORDS_MAX];
                let mut changed = false;
                let mut nonempty = false;
                for i in 0..mw {
                    let nw = du[i] & mask[i];
                    pruned[i] = nw;
                    changed |= nw != du[i];
                    nonempty |= nw != 0;
                }
                if changed {
                    trail_vars.push(u);
                    trail_words.extend_from_slice(&domains[u * mw..(u + 1) * mw]);
                    domains[u * mw..(u + 1) * mw].copy_from_slice(&pruned[..mw]);
                }
                if !nonempty {
                    wiped = true;
                    break;
                }
            }
            if !wiped {
                chosen[v] = c;
                if self.assign_next(domains, chosen, open, trail_vars, trail_words) {
                    return true;
                }
            }
            while trail_vars.len() > mark {
                let u = trail_vars.pop().expect("trail entries above mark");
                let start = trail_words.len() - mw;
                domains[u * mw..(u + 1) * mw].copy_from_slice(&trail_words[start..]);
                trail_words.truncate(start);
            }
        }
        open.push(v);
        false
    }
}

/// CSP solver: pick one candidate per pattern such that for every ordered
/// pair `(i, j)` of chosen candidates, `read_i ∩ write_j ≠ ∅`. Compiles
/// the instance (dedup + compatibility bitmatrix), then runs forward
/// checking over domain masks — see the module docs for the design.
fn solve(candidates: &[Vec<Candidate>]) -> Option<Vec<usize>> {
    if candidates.iter().any(|c| c.is_empty()) {
        // A pattern with no correct processes at all: no availability.
        return None;
    }
    let csp = Csp::compile(candidates);
    let per_var = csp.search()?;
    Some(csp.var_of_pattern.iter().map(|&v| per_var[v]).collect())
}

/// Exhaustive oracle for tests: tries **every** combination of SCC choices
/// (no pruning, no ordering) and reports whether any satisfies the pairwise
/// condition. Exponential; only for small systems. `false` on a pair over
/// different universes, like every other finder.
pub fn gqs_exists_brute_force(graph: &NetworkGraph, fail_prone: &FailProneSystem) -> bool {
    candidates_per_pattern(graph, fail_prone, GQS_READ)
        .is_some_and(|candidates| any_combination(&candidates, &mut Vec::new()))
}

/// Extends `chosen` (one candidate for each of the first patterns) by every
/// candidate of the next pattern in turn, and tests each full combination.
fn any_combination(candidates: &[Vec<Candidate>], chosen: &mut Vec<Candidate>) -> bool {
    let Some(list) = candidates.get(chosen.len()) else {
        return chosen.iter().all(|a| chosen.iter().all(|b| a.read.intersects(b.write)));
    };
    list.iter().any(|&c| {
        chosen.push(c);
        let found = any_combination(candidates, chosen);
        chosen.pop();
        found
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailurePattern;
    use crate::{chan, pset};

    #[test]
    fn complete_graph_minority_admits_gqs() {
        for n in [3usize, 4, 5] {
            let k = (n - 1) / 2;
            let g = NetworkGraph::complete(n);
            let fp = FailProneSystem::threshold(n, k).unwrap();
            let w = find_gqs(&g, &fp).expect("classical setting must admit a GQS");
            // The witness validates (checked by construction) and U_f is all
            // correct processes.
            for i in 0..fp.len() {
                assert_eq!(w.system.u_f(i), fp.pattern(i).correct());
            }
        }
    }

    #[test]
    fn complete_graph_half_failures_admit_no_gqs() {
        // n = 2k: two disjoint patterns of k crashes have disjoint correct
        // sets — no quorum system of any kind.
        let g = NetworkGraph::complete(4);
        let fp = FailProneSystem::threshold(4, 2).unwrap();
        assert!(find_gqs(&g, &fp).is_none());
        assert!(!gqs_exists(&g, &fp));
        assert!(!gqs_exists_brute_force(&g, &fp));
    }

    #[test]
    fn unidirectional_ring_single_pattern() {
        // Ring 0 -> 1 -> 2 -> 0 is one SCC: failure-free pattern admits a GQS.
        let g = NetworkGraph::with_channels(3, [chan!(0, 1), chan!(1, 2), chan!(2, 0)]);
        let fp = FailProneSystem::new(3, [FailurePattern::failure_free(3)]).unwrap();
        let w = find_gqs(&g, &fp).unwrap();
        assert_eq!(w.per_pattern[0].1, pset![0, 1, 2]);
    }

    #[test]
    fn disconnected_halves_fail() {
        // Two 1-cycles with no channels between them, one pattern each
        // crashing the other half: reads of one pattern cannot reach writes
        // of the other.
        let g =
            NetworkGraph::with_channels(4, [chan!(0, 1), chan!(1, 0), chan!(2, 3), chan!(3, 2)]);
        let f1 = FailurePattern::crash_only(4, pset![2, 3]).unwrap();
        let f2 = FailurePattern::crash_only(4, pset![0, 1]).unwrap();
        let fp = FailProneSystem::new(4, [f1, f2]).unwrap();
        assert!(!gqs_exists(&g, &fp));
    }

    #[test]
    fn brute_force_agrees_with_solver_on_line_graphs() {
        for n in 2..=4usize {
            let mut channels = Vec::new();
            for i in 0..n - 1 {
                channels.push(chan!(i, i + 1));
            }
            let g = NetworkGraph::with_channels(n, channels);
            for k in 0..n {
                let fp = FailProneSystem::threshold(n, k).unwrap();
                assert_eq!(gqs_exists(&g, &fp), gqs_exists_brute_force(&g, &fp), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn qs_plus_strictly_stronger_than_gqs() {
        // The canonical separation: 0 <-> 1 plus a one-way feed 2 -> 0,
        // with a pattern where nothing else fails.
        let g = NetworkGraph::with_channels(3, [chan!(0, 1), chan!(1, 0), chan!(2, 0)]);
        // Pattern: process 2's *incoming* channels do not exist anyway; no
        // failures. GQS exists; QS+ also exists here (take R = W = {0,1}).
        let fp = FailProneSystem::new(3, [FailurePattern::failure_free(3)]).unwrap();
        assert!(gqs_exists(&g, &fp));
        assert!(qs_plus_exists(&g, &fp));
        // But force the read quorum to include 2 by crashing 1 in a second
        // pattern: now any W for pattern 2 is {0} or {2}; consistency with
        // pattern 1 pushes towards {0}; reads for pattern 1 must contain 0.
        let f2 = FailurePattern::crash_only(3, pset![1]).unwrap();
        let fp2 = FailProneSystem::new(3, [FailurePattern::failure_free(3), f2]).unwrap();
        assert!(gqs_exists(&g, &fp2));
        assert!(qs_plus_exists(&g, &fp2)); // {0} itself is an SCC: still fine
    }

    #[test]
    fn classical_existence_is_pairwise_cover_check() {
        let fp = FailProneSystem::threshold(5, 2).unwrap();
        assert_eq!(classical_qs_exists(&fp), Some(true));
        let fp_bad = FailProneSystem::threshold(4, 2).unwrap();
        assert_eq!(classical_qs_exists(&fp_bad), Some(false));
        let with_channels =
            FailProneSystem::new(3, [FailurePattern::new(3, pset![], [chan!(0, 1)]).unwrap()])
                .unwrap();
        assert_eq!(classical_qs_exists(&with_channels), None);
    }

    #[test]
    fn empty_fail_prone_system_is_trivially_solvable() {
        let g = NetworkGraph::complete(3);
        let fp = FailProneSystem::new(3, []).unwrap();
        // No availability obligations: both finders return the vacuous
        // witness, one quorum of every process, and no per-pattern choice.
        assert!(gqs_exists(&g, &fp));
        let w = find_gqs(&g, &fp).expect("an empty F is solvable");
        assert!(w.per_pattern.is_empty());
        let all = crate::QuorumFamily::Explicit(vec![ProcessSet::full(3)]);
        assert_eq!((w.system.reads(), w.system.writes()), (&all, &all));
        assert!(find_qs_plus(&g, &fp).is_some());
    }

    #[test]
    fn threshold_gqs_exists_for_figure1() {
        // The non-obvious fact computed in E11's analysis: Figure 1 is
        // solvable even with threshold quorums (reads >= 3, writes >= 2).
        let fig = crate::systems::figure1();
        let sys = find_threshold_gqs(&fig.graph, &fig.fail_prone)
            .expect("Figure 1 admits a threshold GQS");
        match (sys.reads(), sys.writes()) {
            (
                crate::QuorumFamily::Threshold { min_size: r, .. },
                crate::QuorumFamily::Threshold { min_size: w, .. },
            ) => {
                assert_eq!((*w, *r), (2, 3));
            }
            other => panic!("expected threshold families, got {other:?}"),
        }
        // And the U_f sets coincide with the free-form ones.
        for i in 0..4 {
            assert_eq!(sys.u_f(i), fig.gqs.u_f(i));
        }
    }

    #[test]
    fn threshold_gqs_absent_for_example9() {
        let (g, fp) = crate::systems::example9_f_prime();
        assert!(find_threshold_gqs(&g, &fp).is_none());
    }

    #[test]
    fn explain_returns_none_on_solvable_systems() {
        let fig = crate::systems::figure1();
        assert_eq!(explain_unsolvable(&fig.graph, &fig.fail_prone), None);
    }

    #[test]
    fn explain_dead_pattern() {
        let g = NetworkGraph::complete(2);
        let f = FailurePattern::crash_only(2, pset![0, 1]).unwrap();
        let fp = FailProneSystem::new(2, [FailurePattern::failure_free(2), f]).unwrap();
        assert_eq!(explain_unsolvable(&g, &fp), Some(Unsolvability::DeadPattern { pattern: 1 }));
    }

    #[test]
    fn explain_conflicting_pair() {
        // Two patterns crashing complementary halves: their candidates can
        // never intersect.
        let g = NetworkGraph::complete(4);
        let f1 = FailurePattern::crash_only(4, pset![2, 3]).unwrap();
        let f2 = FailurePattern::crash_only(4, pset![0, 1]).unwrap();
        let fp = FailProneSystem::new(4, [f1, f2]).unwrap();
        assert_eq!(
            explain_unsolvable(&g, &fp),
            Some(Unsolvability::ConflictingPair { a: 0, b: 1 })
        );
    }

    #[test]
    fn explain_example9_is_a_global_conflict() {
        // Every pair of Example 9's patterns is locally compatible; the
        // obstruction needs at least three patterns — a nice illustration
        // of why the lower-bound proof must build a cross-pattern
        // indistinguishability argument.
        let (g, fp) = crate::systems::example9_f_prime();
        assert_eq!(explain_unsolvable(&g, &fp), Some(Unsolvability::Global));
    }

    #[test]
    fn normalization_preserves_solvability() {
        let fig = crate::systems::figure1();
        // Add covered (redundant) patterns; solvability must not change.
        let mut fp = fig.fail_prone.clone();
        fp.push(FailurePattern::failure_free(4)).unwrap();
        fp.push(FailurePattern::crash_only(4, pset![3]).unwrap()).unwrap();
        assert!(gqs_exists(&fig.graph, &fp));
        let norm = fp.normalize();
        assert_eq!(norm.len(), 4, "covered patterns removed");
        assert_eq!(gqs_exists(&fig.graph, &norm), gqs_exists(&fig.graph, &fp));
    }

    #[test]
    fn all_processes_may_crash_in_some_pattern() {
        let g = NetworkGraph::complete(2);
        let f = FailurePattern::crash_only(2, pset![0, 1]).unwrap();
        let fp = FailProneSystem::new(2, [f]).unwrap();
        assert!(!gqs_exists(&g, &fp));
        assert!(find_gqs(&g, &fp).is_none());
    }
}
