//! Network graphs, residual graphs and the graph algorithms the paper's
//! definitions rest on (§3).
//!
//! * The *network graph* `G = (P, C)` has all processes as vertices and all
//!   channels as directed edges.
//! * The *residual graph* `G \ f` of a failure pattern `f = (P, C)` removes
//!   the faulty processes, their incident channels, and the failing
//!   channels.
//! * A set `Q` is *`f`-available* if it contains only correct processes and
//!   is strongly connected in `G \ f` (paths may pass through vertices
//!   outside `Q`).
//! * A set `W` is *`f`-reachable from `R`* if both contain only correct
//!   processes and every member of `W` is reachable from every member of
//!   `R` in `G \ f`.
//!
//! # Performance model
//!
//! This module is the hot core of every decision procedure, so its layout
//! is chosen for sweep workloads (many residual graphs per topology, many
//! reachability queries per residual graph):
//!
//! * [`NetworkGraph`] stores **both** the successor bitset rows `adj` and
//!   the transpose (predecessor) rows `radj`, shared behind an [`Arc`].
//!   [`NetworkGraph::residual`] therefore never clones the adjacency
//!   vectors — a residual graph is the shared base plus an alive-mask;
//!   construction copies and edits only the rows touched by the pattern's
//!   failing channels, and every other row is masked lazily on first use.
//! * Forward and backward reachability are frontier BFS over bitset rows:
//!   `O(V + E/w)` words touched per query (`w` = machine-word bits), and
//!   in particular [`ResidualGraph::reach_to`] walks the transpose rows
//!   instead of the old `O(n²)`-per-round fixpoint that rescanned
//!   `alive - reach`.
//! * Every [`ResidualGraph`] memoizes `reach_from(p)` and `reach_to(p)`
//!   ([`Cell`]-based, so queries take `&self`), and
//!   [`ResidualGraph::scc_of`] seeds both for every member of `p`'s
//!   strongly connected component, since they all share one forward and
//!   one backward reach set. The higher-level queries work per SCC:
//!   [`ResidualGraph::is_strongly_connected`] asks whether a set lies in
//!   one component, [`ResidualGraph::all_reach_all`] whether `from` lies in
//!   [`ResidualGraph::reach_to_all`] of `to`, and `reach_to_all` fills a
//!   missing entry through `scc_of`. So these queries, and
//!   [`ResidualGraph::sccs`], compute at most one forward and one backward
//!   BFS per SCC over a residual graph's entire lifetime, no matter how
//!   many queries are made.
//!
//! **Caching contract:** a `ResidualGraph` is immutable after
//! construction; the caches are pure memoization and never observable in
//! results. Mutating the underlying [`NetworkGraph`] after taking a
//! residual is impossible by construction (the base is copy-on-write:
//! mutators call `Arc::make_mut`, which un-shares the topology instead of
//! editing it under live residuals).

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use crate::channel::Channel;
use crate::failure::FailurePattern;
use crate::process::{ProcessId, ProcessSet, MAX_PROCESSES};

/// The shared, immutable payload of a [`NetworkGraph`]: forward and
/// transpose adjacency rows.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Topology {
    n: usize,
    /// `adj[p]` = successors of `p`.
    adj: Vec<ProcessSet>,
    /// `radj[p]` = predecessors of `p` (the transpose rows).
    radj: Vec<ProcessSet>,
}

impl Topology {
    /// Inserts `ch` into both row directions.
    fn add(&mut self, ch: Channel) {
        let n = self.n;
        assert!(ch.from.index() < n && ch.to.index() < n, "channel endpoint out of range");
        self.adj[ch.from.index()].insert(ch.to);
        self.radj[ch.to.index()].insert(ch.from);
    }
}

/// The static network topology `G = (P, C)`.
///
/// Stored as per-vertex successor **and** predecessor bitsets behind a
/// shared [`Arc`], which makes residual-graph construction allocation-free
/// and both directions of reachability cheap bit operations.
///
/// # Examples
///
/// ```
/// use gqs_core::NetworkGraph;
/// let g = NetworkGraph::complete(4);
/// assert_eq!(g.len(), 4);
/// assert_eq!(g.channels().count(), 12); // n(n-1) directed channels
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetworkGraph {
    core: Arc<Topology>,
}

impl NetworkGraph {
    /// A graph on `n` processes with no channels.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PROCESSES`.
    pub fn empty(n: usize) -> Self {
        Self::with_channels(n, [])
    }

    /// The complete directed graph on `n` processes — the paper's standard
    /// model, where every ordered pair of distinct processes has a channel.
    pub fn complete(n: usize) -> Self {
        let mut g = Self::empty(n);
        let core = Arc::make_mut(&mut g.core);
        for p in 0..n {
            let row = ProcessSet::full(n).without(ProcessId(p));
            core.adj[p] = row;
            core.radj[p] = row;
        }
        g
    }

    /// Builds a graph from an explicit channel list. The rows are filled
    /// first and shared once, so a long list costs no copy-on-write check
    /// per channel.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > MAX_PROCESSES` or any endpoint is out of
    /// range.
    pub fn with_channels<I>(n: usize, channels: I) -> Self
    where
        I: IntoIterator<Item = Channel>,
    {
        assert!(n > 0, "a system has at least one process");
        assert!(n <= MAX_PROCESSES, "at most {MAX_PROCESSES} processes are supported");
        let mut core =
            Topology { n, adj: vec![ProcessSet::new(); n], radj: vec![ProcessSet::new(); n] };
        for ch in channels {
            core.add(ch);
        }
        NetworkGraph { core: Arc::new(core) }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.core.n
    }

    /// `true` iff the graph has no processes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.core.n == 0
    }

    /// The set of all processes.
    pub fn processes(&self) -> ProcessSet {
        ProcessSet::full(self.core.n)
    }

    /// Adds a channel.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is `>= len()`.
    pub fn add_channel(&mut self, ch: Channel) {
        Arc::make_mut(&mut self.core).add(ch);
    }

    /// Removes a channel; returns `true` if it was present.
    pub fn remove_channel(&mut self, ch: Channel) -> bool {
        if !self.has_channel(ch) {
            // Also keeps absent/out-of-range channels from un-sharing the
            // copy-on-write topology.
            return false;
        }
        let core = Arc::make_mut(&mut self.core);
        core.radj[ch.to.index()].remove(ch.from);
        core.adj[ch.from.index()].remove(ch.to)
    }

    /// Whether the channel is present.
    pub fn has_channel(&self, ch: Channel) -> bool {
        ch.from.index() < self.core.n && self.core.adj[ch.from.index()].contains(ch.to)
    }

    /// Successors of `p` in the graph.
    pub fn successors(&self, p: ProcessId) -> ProcessSet {
        self.core.adj[p.index()]
    }

    /// Predecessors of `p` in the graph (the transpose row).
    pub fn predecessors(&self, p: ProcessId) -> ProcessSet {
        self.core.radj[p.index()]
    }

    /// Iterates over all channels.
    pub fn channels(&self) -> impl Iterator<Item = Channel> + '_ {
        (0..self.core.n)
            .flat_map(move |p| self.core.adj[p].iter().map(move |q| Channel::new(ProcessId(p), q)))
    }

    /// The residual graph `G \ f`: faulty processes, their incident
    /// channels, and the channels in `f` are removed.
    ///
    /// The base adjacency is shared, not cloned: the residual graph holds
    /// an `Arc` to this graph's topology, an alive-mask, and edited copies
    /// of only the (few) rows the pattern's channel failures touch.
    ///
    /// # Panics
    ///
    /// Panics if `f` is over a different number of processes than this
    /// graph. No decision procedure of [`crate::finder`] or
    /// [`crate::reference`] reaches this: each checks the universe first,
    /// and answers `None` or `false` on a mismatch.
    pub fn residual(&self, f: &FailurePattern) -> ResidualGraph {
        assert!(
            f.universe() == self.core.n,
            "failure pattern is over {} processes but the graph has {}",
            f.universe(),
            self.core.n
        );
        let res = ResidualGraph::new(Arc::clone(&self.core), f.correct());
        for ch in f.channels() {
            res.drop_channel_at_build(ch);
        }
        res
    }

    /// The residual graph of the failure-free pattern (nothing removed).
    pub fn residual_failure_free(&self) -> ResidualGraph {
        ResidualGraph::new(Arc::clone(&self.core), self.processes())
    }
}

impl fmt::Display for NetworkGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G(n={}; ", self.core.n)?;
        let mut first = true;
        for ch in self.channels() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{ch}")?;
            first = false;
        }
        write!(f, ")")
    }
}

/// Dispatches a word-count-generic `ResidualGraph` method on the runtime
/// word count `self.nw`, monomorphizing one kernel per possible word count
/// so every hot loop gets a compile-time trip count (and slice bounds the
/// optimizer can discharge). Usage: `with_word_count!(self, method, args…)`.
macro_rules! with_word_count {
    ($self:ident, $method:ident $(, $arg:expr)*) => {{
        match $self.nw {
            1 => $self.$method::<1>($($arg),*),
            2 => $self.$method::<2>($($arg),*),
            3 => $self.$method::<3>($($arg),*),
            4 => $self.$method::<4>($($arg),*),
            5 => $self.$method::<5>($($arg),*),
            6 => $self.$method::<6>($($arg),*),
            7 => $self.$method::<7>($($arg),*),
            8 => $self.$method::<8>($($arg),*),
            9 => $self.$method::<9>($($arg),*),
            10 => $self.$method::<10>($($arg),*),
            11 => $self.$method::<11>($($arg),*),
            12 => $self.$method::<12>($($arg),*),
            13 => $self.$method::<13>($($arg),*),
            14 => $self.$method::<14>($($arg),*),
            15 => $self.$method::<15>($($arg),*),
            16 => $self.$method::<16>($($arg),*),
            _ => unreachable!("words_for(n) is within 1..=ProcessSet::WORDS"),
        }
    }};
}

// `with_word_count!` enumerates exactly the word counts 1..=16.
const _: () = assert!(ProcessSet::WORDS == 16, "update with_word_count!'s dispatch arms");

/// The four per-vertex cache segments packed into one allocation: the
/// effective successor/predecessor rows and the forward/backward reach
/// sets. A segment entry is valid iff its bit is set in the matching
/// validity mask (one word-count-bounded bitmask of `words_for(n)` words
/// per segment, so the layout scales with the universe instead of being
/// hardcoded to any word width).
const SEG_ROW: usize = 0;
const SEG_RROW: usize = 1;
const SEG_FWD: usize = 2;
const SEG_BWD: usize = 3;

/// The residual graph `G \ f` of a network graph under a failure pattern.
///
/// Vertices outside [`ResidualGraph::alive`] are isolated and never appear
/// in reachability sets or strongly connected components.
///
/// Internally this is a **view**: the base topology is shared with the
/// originating [`NetworkGraph`] (no adjacency clone). Construction copies
/// and edits only the rows the pattern's channel failures touch; all other
/// rows, and all per-vertex forward/backward reach sets, are derived
/// lazily and memoized (see the module docs for the caching contract).
#[derive(Debug)]
pub struct ResidualGraph {
    base: Arc<Topology>,
    alive: ProcessSet,
    /// Words per cached set: `ProcessSet::words_for(n)`. Cached rows and
    /// reach sets are stored word-count-bounded, so a 32-process residual
    /// costs one word per entry while a 1024-process one uses sixteen.
    nw: usize,
    /// One allocation of `4 * n * nw` words: segment `s` of vertex `p`
    /// occupies `cache[(s * n + p) * nw ..][..nw]`.
    cache: Vec<Cell<u64>>,
    /// Per-segment validity bitmasks over vertices: segment `s`'s bit for
    /// vertex `p` is bit `p % 64` of `valid[s * nw + p / 64]`.
    valid: Vec<Cell<u64>>,
}

impl Clone for ResidualGraph {
    fn clone(&self) -> Self {
        ResidualGraph {
            base: Arc::clone(&self.base),
            alive: self.alive,
            nw: self.nw,
            cache: self.cache.clone(),
            valid: self.valid.clone(),
        }
    }
}

impl PartialEq for ResidualGraph {
    /// Semantic equality: same universe, same alive set, same effective
    /// edges. Memoization state is ignored.
    fn eq(&self, other: &Self) -> bool {
        self.base.n == other.base.n
            && self.alive == other.alive
            && (0..self.base.n)
                .all(|p| self.successors(ProcessId(p)) == other.successors(ProcessId(p)))
    }
}

impl Eq for ResidualGraph {}

impl ResidualGraph {
    fn new(base: Arc<Topology>, alive: ProcessSet) -> Self {
        let n = base.n;
        let nw = ProcessSet::words_for(n);
        ResidualGraph {
            base,
            alive,
            nw,
            cache: vec![Cell::new(0); 4 * n * nw],
            valid: vec![Cell::new(0); 4 * nw],
        }
    }

    #[inline]
    fn seg_get(&self, seg: usize, p: usize) -> Option<ProcessSet> {
        if self.valid[seg * self.nw + p / 64].get() & (1u64 << (p % 64)) == 0 {
            return None;
        }
        Some(self.read_cache_words((seg * self.base.n + p) * self.nw))
    }

    #[inline]
    fn seg_set(&self, seg: usize, p: usize, value: ProcessSet) {
        let base = (seg * self.base.n + p) * self.nw;
        for i in 0..self.nw {
            self.cache[base + i].set(value.word(i));
        }
        let v = &self.valid[seg * self.nw + p / 64];
        v.set(v.get() | 1u64 << (p % 64));
    }

    /// Frontier BFS over word-bounded rows: starts at the alive vertex `p`,
    /// expands along the effective rows of `seg`/`rows` (materializing row
    /// cache entries on first touch), and returns the reach set.
    ///
    /// Dispatches once on the universe's word count to a monomorphized
    /// kernel ([`ResidualGraph::bfs_fixed`]), so every loop below has a
    /// compile-time trip count: for `n <= 64` the kernel degenerates to
    /// single-register scalar ops, for `n <= 128` to two words — the same
    /// cost profile as the old `u128` backing — and larger universes pay
    /// only for the words they actually use.
    fn bfs(&self, seg: usize, rows: &[ProcessSet], p: usize) -> ProcessSet {
        with_word_count!(self, bfs_fixed, seg, rows, p)
    }

    /// The BFS kernel, monomorphized per word count (`NW == self.nw`).
    /// Only the low `NW` words of any row are ever touched, and the cache
    /// stride equals `NW`, so all indexing below is in terms of the
    /// compile-time constant.
    fn bfs_fixed<const NW: usize>(&self, seg: usize, rows: &[ProcessSet], p: usize) -> ProcessSet {
        debug_assert_eq!(self.nw, NW);
        let mut reach = [0u64; NW];
        let mut frontier = [0u64; NW];
        reach[p / 64] = 1u64 << (p % 64);
        frontier[p / 64] = reach[p / 64];
        loop {
            let mut next = [0u64; NW];
            for (wi, &fw) in frontier.iter().enumerate() {
                let mut w = fw;
                while w != 0 {
                    let q = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    let cbase = self.materialize_row_fixed::<NW>(seg, rows, q);
                    let crow = &self.cache[cbase..][..NW];
                    for i in 0..NW {
                        next[i] |= crow[i].get();
                    }
                }
            }
            let mut grew = false;
            for i in 0..NW {
                frontier[i] = next[i] & !reach[i];
                reach[i] |= next[i];
                grew |= frontier[i] != 0;
            }
            if !grew {
                return ProcessSet::from_words(&reach);
            }
        }
    }

    /// Ensures the effective row of vertex `q` (base ∧ alive, minus any
    /// dropped channels) is materialized in segment `seg`'s cache, and
    /// returns the word offset of the row. Word-bounded: touches only the
    /// low `nw` words.
    #[inline]
    fn materialize_row(&self, seg: usize, rows: &[ProcessSet], q: usize) -> usize {
        with_word_count!(self, materialize_row_fixed, seg, rows, q)
    }

    /// The single home of the row cache protocol (validity check, `base ∧
    /// alive` fill, validity set), monomorphized per word count
    /// (`NW == self.nw`) so the BFS kernel can call it without losing its
    /// compile-time trip counts.
    #[inline]
    fn materialize_row_fixed<const NW: usize>(
        &self,
        seg: usize,
        rows: &[ProcessSet],
        q: usize,
    ) -> usize {
        debug_assert_eq!(self.nw, NW);
        let cbase = (seg * self.base.n + q) * NW;
        let v = &self.valid[seg * NW + q / 64];
        if v.get() & (1u64 << (q % 64)) == 0 {
            let row = rows[q].as_words();
            let alive = self.alive.as_words();
            let crow = &self.cache[cbase..][..NW];
            for i in 0..NW {
                crow[i].set(row[i] & alive[i]);
            }
            v.set(v.get() | 1u64 << (q % 64));
        }
        cbase
    }

    /// Removes one failing channel while the residual is being built: the
    /// affected rows are materialized (base ∧ alive) and the single bit is
    /// cleared in place, so queries never consult the failure pattern again.
    fn drop_channel_at_build(&self, ch: Channel) {
        let (from, to) = (ch.from.index(), ch.to.index());
        let row = self.materialize_row(SEG_ROW, &self.base.adj, from) + to / 64;
        self.cache[row].set(self.cache[row].get() & !(1u64 << (to % 64)));
        let rrow = self.materialize_row(SEG_RROW, &self.base.radj, to) + from / 64;
        self.cache[rrow].set(self.cache[rrow].get() & !(1u64 << (from % 64)));
    }

    /// Number of processes in the underlying system (including removed ones).
    pub fn len(&self) -> usize {
        self.base.n
    }

    /// `true` iff the underlying system has no processes (never).
    pub fn is_empty(&self) -> bool {
        self.base.n == 0
    }

    /// The set of correct (non-removed) processes.
    pub fn alive(&self) -> ProcessSet {
        self.alive
    }

    /// Successors of `p` among alive processes.
    #[inline]
    pub fn successors(&self, p: ProcessId) -> ProcessSet {
        if !self.alive.contains(p) {
            return ProcessSet::new();
        }
        let cbase = self.materialize_row(SEG_ROW, &self.base.adj, p.index());
        self.read_cache_words(cbase)
    }

    /// Predecessors of `p` among alive processes (transpose row).
    #[inline]
    pub fn predecessors(&self, p: ProcessId) -> ProcessSet {
        if !self.alive.contains(p) {
            return ProcessSet::new();
        }
        let cbase = self.materialize_row(SEG_RROW, &self.base.radj, p.index());
        self.read_cache_words(cbase)
    }

    /// Rebuilds a set from the `nw` cache words at `cbase`.
    #[inline]
    fn read_cache_words(&self, cbase: usize) -> ProcessSet {
        let mut s = ProcessSet::new();
        for (i, c) in self.cache[cbase..][..self.nw].iter().enumerate() {
            s.set_word(i, c.get());
        }
        s
    }

    /// Whether the channel survives in the residual graph.
    pub fn has_channel(&self, ch: Channel) -> bool {
        self.successors(ch.from).contains(ch.to)
    }

    /// The set of vertices reachable from `p` (including `p` itself, if
    /// alive; a vertex always reaches itself via the empty path).
    ///
    /// Memoized per SCC: the BFS runs at most once per vertex per residual
    /// graph, and not at all for a member of a component that
    /// [`ResidualGraph::scc_of`] has already seeded.
    pub fn reach_from(&self, p: ProcessId) -> ProcessSet {
        if !self.alive.contains(p) {
            return ProcessSet::new();
        }
        if let Some(cached) = self.seg_get(SEG_FWD, p.index()) {
            return cached;
        }
        let reach = self.bfs(SEG_ROW, &self.base.adj, p.index());
        self.seg_set(SEG_FWD, p.index(), reach);
        reach
    }

    /// The set of vertices that can reach `p` (including `p` itself).
    ///
    /// A frontier BFS over the transpose rows — `O(V + E/w)` words, not
    /// the quadratic fixpoint of earlier revisions — and memoized like
    /// [`ResidualGraph::reach_from`].
    pub fn reach_to(&self, p: ProcessId) -> ProcessSet {
        if !self.alive.contains(p) {
            return ProcessSet::new();
        }
        if let Some(cached) = self.seg_get(SEG_BWD, p.index()) {
            return cached;
        }
        let reach = self.bfs(SEG_RROW, &self.base.radj, p.index());
        self.seg_set(SEG_BWD, p.index(), reach);
        reach
    }

    /// The set of vertices that can reach **every** member of `set`.
    ///
    /// Returns the empty set if `set` is empty (vacuous universal
    /// quantification is deliberately rejected: a read quorum must be
    /// nonempty) or contains dead vertices.
    pub fn reach_to_all(&self, set: ProcessSet) -> ProcessSet {
        if set.is_empty() || !set.is_subset(self.alive) {
            return ProcessSet::new();
        }
        with_word_count!(self, reach_to_all_fixed, set)
    }

    /// Word-count-monomorphized core of [`ResidualGraph::reach_to_all`]:
    /// intersects the (cached) backward reach rows of every member of
    /// `set`, reading the cache words directly. A missing row is filled
    /// through [`ResidualGraph::scc_of`], which seeds the rows of the whole
    /// component, so a set within one SCC costs at most two BFS.
    fn reach_to_all_fixed<const NW: usize>(&self, set: ProcessSet) -> ProcessSet {
        debug_assert_eq!(self.nw, NW);
        let mut acc = [0u64; NW];
        acc.copy_from_slice(&self.alive.as_words()[..NW]);
        for p in set {
            let pi = p.index();
            if self.valid[SEG_BWD * NW + pi / 64].get() & (1u64 << (pi % 64)) == 0 {
                let _ = self.scc_of(p); // fill the SEG_BWD cache entries
            }
            let crow = &self.cache[(SEG_BWD * self.base.n + pi) * NW..][..NW];
            let mut any = false;
            for i in 0..NW {
                acc[i] &= crow[i].get();
                any |= acc[i] != 0;
            }
            if !any {
                break;
            }
        }
        ProcessSet::from_words(&acc)
    }

    /// Whether every member of `to` is reachable from every member of
    /// `from` (the core of the paper's `f`-reachability): `from` is
    /// nonempty and lies within [`ResidualGraph::reach_to_all`]`(to)`, which
    /// is empty unless `to` is a nonempty set of alive processes.
    pub fn all_reach_all(&self, from: ProcessSet, to: ProcessSet) -> bool {
        !from.is_empty() && from.is_subset(self.reach_to_all(to))
    }

    /// Whether `set` is strongly connected in the residual graph: every
    /// pair of members is mutually reachable (paths may pass through
    /// vertices outside `set`). Singletons are strongly connected; the
    /// empty set is not (quorums are nonempty).
    ///
    /// Mutual reachability is an equivalence, so this asks whether `set`
    /// lies within the SCC of its first member (which is empty if that
    /// member is dead).
    pub fn is_strongly_connected(&self, set: ProcessSet) -> bool {
        set.first().is_some_and(|p| set.is_subset(self.scc_of(p)))
    }

    /// The strongly connected components of the alive part of the graph,
    /// each as a [`ProcessSet`]. Singletons are included. The order is
    /// by smallest member.
    ///
    /// Components are intersections of the memoized forward and backward
    /// reach sets, so repeated calls (and interleaved reachability
    /// queries) share all BFS work.
    pub fn sccs(&self) -> Vec<ProcessSet> {
        let mut assigned = ProcessSet::new();
        let mut out = Vec::new();
        for p in self.alive {
            if assigned.contains(p) {
                continue;
            }
            let scc = self.scc_of(p);
            assigned |= scc;
            out.push(scc);
        }
        out
    }

    /// The strongly connected component containing `p`, or the empty set if
    /// `p` is not alive.
    pub fn scc_of(&self, p: ProcessId) -> ProcessSet {
        if !self.alive.contains(p) {
            return ProcessSet::new();
        }
        let rf = self.reach_from(p);
        let rt = self.reach_to(p);
        let scc = rf & rt;
        // Every member of one SCC has the same forward and backward reach
        // sets; seed their caches so the component costs two BFS total, not
        // two per member.
        for q in scc.without(p) {
            self.seg_set(SEG_FWD, q.index(), rf);
            self.seg_set(SEG_BWD, q.index(), rt);
        }
        scc
    }

    /// The smallest strongly connected component containing the whole of
    /// `set`, if one exists (Proposition 1 uses this to define `U_f`).
    pub fn scc_containing(&self, set: ProcessSet) -> Option<ProcessSet> {
        let p = set.first()?;
        let scc = self.scc_of(p);
        if set.is_subset(scc) {
            Some(scc)
        } else {
            None
        }
    }

    /// Whether `w` is `f`-available: only correct processes, strongly
    /// connected in this residual graph (§3).
    pub fn f_available(&self, w: ProcessSet) -> bool {
        self.is_strongly_connected(w)
    }

    /// Whether `w` is `f`-reachable from `r` (§3): both contain only
    /// correct processes and every member of `w` is reachable from every
    /// member of `r`.
    pub fn f_reachable(&self, w: ProcessSet, r: ProcessSet) -> bool {
        self.all_reach_all(r, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chan, pset};

    fn line_graph(n: usize) -> NetworkGraph {
        // 0 -> 1 -> 2 -> ... -> n-1
        NetworkGraph::with_channels(n, (0..n - 1).map(|i| chan!(i, i + 1)))
    }

    #[test]
    fn complete_graph_channel_count() {
        let g = NetworkGraph::complete(5);
        assert_eq!(g.channels().count(), 20);
        assert!(g.has_channel(chan!(0, 4)));
        assert!(g.has_channel(chan!(4, 0)));
    }

    #[test]
    fn add_remove_channel() {
        let mut g = NetworkGraph::empty(3);
        g.add_channel(chan!(0, 1));
        assert!(g.has_channel(chan!(0, 1)));
        assert!(!g.has_channel(chan!(1, 0)));
        assert!(g.remove_channel(chan!(0, 1)));
        assert!(!g.remove_channel(chan!(0, 1)));
    }

    #[test]
    fn remove_out_of_range_channel_is_a_no_op() {
        let mut g = NetworkGraph::empty(3);
        assert!(!g.remove_channel(chan!(5, 0)));
        assert!(!g.remove_channel(chan!(0, 5)));
    }

    #[test]
    fn transpose_tracks_mutations() {
        let mut g = NetworkGraph::empty(3);
        g.add_channel(chan!(0, 1));
        g.add_channel(chan!(2, 1));
        assert_eq!(g.predecessors(ProcessId(1)), pset![0, 2]);
        assert!(g.remove_channel(chan!(0, 1)));
        assert_eq!(g.predecessors(ProcessId(1)), pset![2]);
        assert_eq!(g.successors(ProcessId(2)), pset![1]);
    }

    #[test]
    fn mutating_a_graph_does_not_disturb_live_residuals() {
        // Copy-on-write: the residual keeps the topology it was taken from.
        let mut g = NetworkGraph::with_channels(3, [chan!(0, 1), chan!(1, 2)]);
        let res = g.residual_failure_free();
        g.remove_channel(chan!(0, 1));
        g.add_channel(chan!(2, 0));
        assert!(res.has_channel(chan!(0, 1)));
        assert!(!res.has_channel(chan!(2, 0)));
        assert_eq!(res.reach_from(ProcessId(0)), pset![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn add_channel_out_of_range_panics() {
        let mut g = NetworkGraph::empty(2);
        g.add_channel(chan!(0, 5));
    }

    #[test]
    fn reachability_on_a_line() {
        let g = line_graph(4).residual_failure_free();
        assert_eq!(g.reach_from(ProcessId(0)), pset![0, 1, 2, 3]);
        assert_eq!(g.reach_from(ProcessId(2)), pset![2, 3]);
        assert_eq!(g.reach_to(ProcessId(3)), pset![0, 1, 2, 3]);
        assert_eq!(g.reach_to(ProcessId(0)), pset![0]);
        assert!(g.all_reach_all(pset![0, 1], pset![2, 3]));
        assert!(!g.all_reach_all(pset![1], pset![0]));
    }

    #[test]
    fn memoized_queries_are_stable() {
        let g = line_graph(5).residual_failure_free();
        // First call populates the cache; the second must agree exactly.
        for p in 0..5 {
            assert_eq!(g.reach_from(ProcessId(p)), g.reach_from(ProcessId(p)));
            assert_eq!(g.reach_to(ProcessId(p)), g.reach_to(ProcessId(p)));
        }
        assert_eq!(g.sccs(), g.sccs());
    }

    #[test]
    fn reach_to_all_intersects_members() {
        let g = line_graph(4).residual_failure_free();
        assert_eq!(g.reach_to_all(pset![2]), pset![0, 1, 2]);
        assert_eq!(g.reach_to_all(pset![1, 3]), pset![0, 1]);
        assert_eq!(g.reach_to_all(ProcessSet::new()), ProcessSet::new());
    }

    #[test]
    fn strong_connectivity_via_outside_vertices() {
        // 0 <-> 1 through 2: 0->2->1 and 1->0.
        let g = NetworkGraph::with_channels(3, [chan!(0, 2), chan!(2, 1), chan!(1, 0)])
            .residual_failure_free();
        assert!(g.is_strongly_connected(pset![0, 1]));
        assert!(g.is_strongly_connected(pset![0, 1, 2]));
        assert!(g.is_strongly_connected(pset![2]));
        assert!(!g.is_strongly_connected(ProcessSet::new()));
    }

    #[test]
    fn sccs_of_line_are_singletons() {
        let g = line_graph(3).residual_failure_free();
        let sccs = g.sccs();
        assert_eq!(sccs, vec![pset![0], pset![1], pset![2]]);
    }

    #[test]
    fn sccs_of_cycle_is_one_component() {
        let g = NetworkGraph::with_channels(3, [chan!(0, 1), chan!(1, 2), chan!(2, 0)])
            .residual_failure_free();
        assert_eq!(g.sccs(), vec![pset![0, 1, 2]]);
        assert_eq!(g.scc_of(ProcessId(1)), pset![0, 1, 2]);
        assert_eq!(g.scc_containing(pset![0, 2]), Some(pset![0, 1, 2]));
    }

    #[test]
    fn scc_containing_rejects_split_sets() {
        let g = line_graph(3).residual_failure_free();
        assert_eq!(g.scc_containing(pset![0, 1]), None);
        assert_eq!(g.scc_containing(pset![1]), Some(pset![1]));
    }

    #[test]
    fn residual_removes_faulty_and_disconnected() {
        let g = NetworkGraph::complete(3);
        let f = FailurePattern::new(3, pset![2], [chan!(0, 1)]).unwrap();
        let r = g.residual(&f);
        assert_eq!(r.alive(), pset![0, 1]);
        assert!(!r.has_channel(chan!(0, 1))); // disconnected
        assert!(r.has_channel(chan!(1, 0))); // still correct
        assert!(!r.has_channel(chan!(0, 2))); // incident to faulty process
        assert_eq!(r.reach_from(ProcessId(2)), ProcessSet::new());
        assert_eq!(r.sccs(), vec![pset![0], pset![1]]);
    }

    #[test]
    fn residual_equality_is_semantic() {
        let g = NetworkGraph::complete(3);
        let f = FailurePattern::new(3, pset![2], [chan!(0, 1)]).unwrap();
        let a = g.residual(&f);
        let b = g.residual(&f);
        // Warm one side's caches; equality must not care.
        let _ = a.reach_from(ProcessId(0));
        let _ = a.sccs();
        assert_eq!(a, b);
        let free = g.residual_failure_free();
        assert_ne!(a, free);
    }

    #[test]
    fn f_availability_and_reachability_follow_definitions() {
        // Figure-1-style: W = {0,1} strongly connected; 2 can only send.
        let g = NetworkGraph::with_channels(3, [chan!(0, 1), chan!(1, 0), chan!(2, 0)])
            .residual_failure_free();
        assert!(g.f_available(pset![0, 1]));
        assert!(!g.f_available(pset![0, 2]));
        assert!(g.f_reachable(pset![0, 1], pset![0, 2]));
        assert!(!g.f_reachable(pset![0, 2], pset![0, 1]));
    }

    #[test]
    fn display_lists_channels() {
        let g = NetworkGraph::with_channels(2, [chan!(0, 1)]);
        assert_eq!(g.to_string(), "G(n=2; (a,b))");
    }
}
