//! Opaque protocol state and serializable update functions.
//!
//! The quorum access functions of §5 manage a state `s ∈ S` that is opaque
//! to them: they can only apply *update functions* `u : S → S` passed by
//! the top-level protocol. Closures cannot travel in messages, so updates
//! are first-class values implementing [`Update`] — the message-passing
//! equivalent of the paper's λ-notation.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

/// A version tag `(counter, process)` ordered lexicographically — the
/// register protocol's `Version = N × N` (Figure 4).
pub type Version = (u64, u64);

/// The initial version `(0, 0)`.
pub const VERSION_ZERO: Version = (0, 0);

/// A serializable update function `u : S → S`.
///
/// Implementations must be **deterministic** and **total**: the same update
/// applied to the same state yields the same state at every process.
pub trait Update<S>: Clone + Debug {
    /// Applies the update, returning the successor state.
    fn apply(&self, state: &S) -> S;
}

/// The register protocol's replicated state: a namespace of versioned
/// registers `reg ↦ (val, ver)` with a common initial value.
///
/// A single-register deployment uses one key; the snapshot construction
/// (one SWMR register per segment) uses one key per process. Keys that
/// were never written read as `(initial, (0, 0))`.
///
/// Copy-on-write: the whole state travels in every `GET_RESP` push and
/// ABD reply, and flooding clones each message once per relay, so a clone
/// shares the map and only [`RegMap::put`] on a shared map copies it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegMap<K: Ord, V> {
    initial: V,
    entries: Arc<BTreeMap<K, (V, Version)>>,
}

impl<K: Ord + Clone, V: Clone> RegMap<K, V> {
    /// A namespace where every register starts at `initial` with version
    /// `(0, 0)`.
    pub fn new(initial: V) -> Self {
        RegMap { initial, entries: Arc::new(BTreeMap::new()) }
    }

    /// The value and version of register `reg`.
    pub fn get(&self, reg: &K) -> (V, Version) {
        match self.entries.get(reg) {
            Some((v, ver)) => (v.clone(), *ver),
            None => (self.initial.clone(), VERSION_ZERO),
        }
    }

    /// The version of register `reg`.
    pub fn version_of(&self, reg: &K) -> Version {
        self.entries.get(reg).map(|(_, ver)| *ver).unwrap_or(VERSION_ZERO)
    }

    /// Stores `(value, version)` into `reg` unconditionally (used by
    /// updates after their version check).
    pub fn put(&mut self, reg: K, value: V, version: Version) {
        Arc::make_mut(&mut self.entries).insert(reg, (value, version));
    }

    /// Number of registers that have been written at least once.
    pub fn written_len(&self) -> usize {
        self.entries.len()
    }

    /// The common initial value.
    pub fn initial(&self) -> &V {
        &self.initial
    }
}

/// The conditional write-back used by both phases of Figure 4:
/// `λs. if version > s.ver then (value, version) else s`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VersionedWrite<K, V> {
    /// Target register.
    pub reg: K,
    /// Value to install.
    pub value: V,
    /// Version guarding the install.
    pub version: Version,
}

impl<K, V> Update<RegMap<K, V>> for VersionedWrite<K, V>
where
    K: Ord + Clone + Debug,
    V: Clone + Debug,
{
    fn apply(&self, state: &RegMap<K, V>) -> RegMap<K, V> {
        let mut next = state.clone();
        if self.version > next.version_of(&self.reg) {
            next.put(self.reg.clone(), self.value.clone(), self.version);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_register_reads_initial() {
        let m: RegMap<u8, u64> = RegMap::new(7);
        assert_eq!(m.get(&0), (7, VERSION_ZERO));
        assert_eq!(m.version_of(&3), VERSION_ZERO);
        assert_eq!(m.written_len(), 0);
        assert_eq!(*m.initial(), 7);
    }

    #[test]
    fn versioned_write_installs_newer() {
        let m: RegMap<u8, u64> = RegMap::new(0);
        let u = VersionedWrite { reg: 1, value: 5, version: (1, 0) };
        let m2 = u.apply(&m);
        assert_eq!(m2.get(&1), (5, (1, 0)));
        assert_eq!(m.get(&1), (0, VERSION_ZERO)); // original untouched
    }

    #[test]
    fn versioned_write_ignores_older_or_equal() {
        let mut m: RegMap<u8, u64> = RegMap::new(0);
        m.put(1, 9, (2, 1));
        let older = VersionedWrite { reg: 1, value: 5, version: (1, 3) };
        assert_eq!(older.apply(&m).get(&1), (9, (2, 1)));
        let equal = VersionedWrite { reg: 1, value: 5, version: (2, 1) };
        assert_eq!(equal.apply(&m).get(&1), (9, (2, 1)));
    }

    #[test]
    fn versions_order_lexicographically() {
        // Counter dominates; process id breaks ties — the uniqueness
        // argument of Figure 4's version choice.
        assert!((2, 0) > (1, 9));
        assert!((1, 2) > (1, 1));
    }

    #[test]
    fn independent_registers_do_not_interfere() {
        let m: RegMap<u8, u64> = RegMap::new(0);
        let m = VersionedWrite { reg: 0, value: 1, version: (1, 0) }.apply(&m);
        let m = VersionedWrite { reg: 1, value: 2, version: (1, 1) }.apply(&m);
        assert_eq!(m.get(&0), (1, (1, 0)));
        assert_eq!(m.get(&1), (2, (1, 1)));
        assert_eq!(m.written_len(), 2);
    }
}
