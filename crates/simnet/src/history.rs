//! Operation histories and network statistics recorded by the simulator.
//!
//! A [`History`] is the raw material of every safety check: for each
//! client operation it records the invoking process, the invocation time,
//! and (if the operation completed) the response time and value. The
//! linearizability and object-safety checkers in `gqs-checker` consume
//! exactly this data.

use gqs_core::ProcessId;

use crate::protocol::OpId;
use crate::time::SimTime;

/// The record of one client operation.
#[derive(Clone, Debug)]
pub struct OpRecord<O, R> {
    /// Unique id of the invocation.
    pub id: OpId,
    /// The process at which the operation was invoked.
    pub process: ProcessId,
    /// The operation body.
    pub op: O,
    /// Invocation time.
    pub invoked_at: SimTime,
    /// Completion time and response, if the operation returned.
    pub response: Option<(SimTime, R)>,
}

impl<O, R> OpRecord<O, R> {
    /// Whether the operation completed.
    pub fn is_complete(&self) -> bool {
        self.response.is_some()
    }

    /// Completion time, if any.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.response.as_ref().map(|(t, _)| *t)
    }

    /// Response value, if any.
    pub fn resp(&self) -> Option<&R> {
        self.response.as_ref().map(|(_, r)| r)
    }

    /// Latency in time units, if completed.
    pub fn latency(&self) -> Option<u64> {
        self.completed_at().map(|t| t - self.invoked_at)
    }

    /// Whether `self` completed before `other` was invoked (the real-time
    /// order `self → other` of linearizability).
    pub fn precedes(&self, other: &OpRecord<O, R>) -> bool {
        match self.completed_at() {
            Some(t) => t < other.invoked_at,
            None => false,
        }
    }
}

/// The full operation history of a run.
#[derive(Clone, Debug, Default)]
pub struct History<O, R> {
    ops: Vec<OpRecord<O, R>>,
}

impl<O, R> History<O, R> {
    /// An empty history.
    pub fn new() -> Self {
        History { ops: Vec::new() }
    }

    /// Records an invocation (simulator-internal).
    pub fn record_invocation(&mut self, id: OpId, process: ProcessId, op: O, at: SimTime) {
        self.ops.push(OpRecord { id, process, op, invoked_at: at, response: None });
    }

    /// Records a completion (simulator-internal).
    ///
    /// # Panics
    ///
    /// Panics if the operation was never invoked or completed twice — both
    /// indicate a protocol bug worth failing loudly on.
    pub fn record_completion(&mut self, id: OpId, at: SimTime, resp: R) {
        let rec = self
            .ops
            .iter_mut()
            .find(|r| r.id == id)
            .expect("completion of an operation that was never invoked");
        assert!(rec.response.is_none(), "operation {id:?} completed twice");
        rec.response = Some((at, resp));
    }

    /// All operation records, in invocation order.
    pub fn ops(&self) -> &[OpRecord<O, R>] {
        &self.ops
    }

    /// Records of completed operations.
    pub fn completed(&self) -> impl Iterator<Item = &OpRecord<O, R>> {
        self.ops.iter().filter(|r| r.is_complete())
    }

    /// Records of pending (incomplete) operations.
    pub fn pending(&self) -> impl Iterator<Item = &OpRecord<O, R>> {
        self.ops.iter().filter(|r| !r.is_complete())
    }

    /// Number of operations invoked.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operation was invoked.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether every invoked operation completed.
    pub fn all_complete(&self) -> bool {
        self.ops.iter().all(|r| r.is_complete())
    }

    /// The operations invoked at `p`.
    pub fn at_process(&self, p: ProcessId) -> impl Iterator<Item = &OpRecord<O, R>> {
        self.ops.iter().filter(move |r| r.process == p)
    }

    /// Mean latency over completed operations, if any completed.
    pub fn mean_latency(&self) -> Option<f64> {
        let lat: Vec<u64> = self.ops.iter().filter_map(|r| r.latency()).collect();
        if lat.is_empty() {
            None
        } else {
            Some(lat.iter().sum::<u64>() as f64 / lat.len() as f64)
        }
    }
}

/// Aggregate network and scheduler statistics for a run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages passed to the network (including self-sends).
    pub sent: u64,
    /// Messages delivered to a live process.
    pub delivered: u64,
    /// Messages dropped because the channel had disconnected at send time.
    pub dropped_disconnected: u64,
    /// Messages dropped because the destination had crashed.
    pub dropped_crashed: u64,
    /// In-flight messages discarded because their *sender* crashed before
    /// delivery (the destination was alive) — the adversarial
    /// [`crate::SimConfig::drop_inflight_of_crashed`] option. Always zero
    /// with the option off. Together with `dropped_crashed` this makes
    /// every crash-related drop land in exactly one counter:
    /// `sent = delivered + dropped_disconnected + dropped_lossy +
    /// dropped_crashed + dropped_sender_crashed` once a run quiesces.
    pub dropped_sender_crashed: u64,
    /// Messages dropped by the seeded per-channel loss model
    /// ([`crate::SimConfig::loss`]).
    pub dropped_lossy: u64,
    /// Retransmitted copies reported via [`crate::Effect::NoteRetransmit`]
    /// (by the quorum engines' request rebroadcasts under `with_retry`).
    /// Each copy is also counted in `sent`; this field isolates the
    /// overhead of retrying.
    pub retransmitted: u64,
    /// Timer events fired at live processes.
    pub timers_fired: u64,
    /// Total events processed.
    pub events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, inv: u64, done: Option<u64>) -> OpRecord<&'static str, &'static str> {
        OpRecord {
            id: OpId(id),
            process: ProcessId(0),
            op: "op",
            invoked_at: SimTime(inv),
            response: done.map(|t| (SimTime(t), "ok")),
        }
    }

    #[test]
    fn record_accessors() {
        let r = rec(1, 5, Some(9));
        assert!(r.is_complete());
        assert_eq!(r.completed_at(), Some(SimTime(9)));
        assert_eq!(r.latency(), Some(4));
        assert_eq!(r.resp(), Some(&"ok"));
        let p = rec(2, 5, None);
        assert!(!p.is_complete());
        assert_eq!(p.latency(), None);
    }

    #[test]
    fn precedes_is_strict_real_time_order() {
        let a = rec(1, 0, Some(5));
        let b = rec(2, 6, Some(8));
        let c = rec(3, 5, Some(7)); // overlaps a (invoked at a's completion instant)
        assert!(a.precedes(&b));
        assert!(!a.precedes(&c));
        assert!(!b.precedes(&a));
        assert!(!rec(4, 0, None).precedes(&b));
    }

    #[test]
    fn history_bookkeeping() {
        let mut h: History<&str, &str> = History::new();
        assert!(h.is_empty());
        h.record_invocation(OpId(1), ProcessId(0), "w", SimTime(1));
        h.record_invocation(OpId(2), ProcessId(1), "r", SimTime(2));
        assert!(!h.all_complete());
        h.record_completion(OpId(1), SimTime(4), "ack");
        assert_eq!(h.completed().count(), 1);
        assert_eq!(h.pending().count(), 1);
        assert_eq!(h.at_process(ProcessId(1)).count(), 1);
        h.record_completion(OpId(2), SimTime(6), "v");
        assert!(h.all_complete());
        assert_eq!(h.mean_latency(), Some(3.5));
        assert_eq!(h.len(), 2);
    }

    #[test]
    #[should_panic(expected = "never invoked")]
    fn completing_unknown_op_panics() {
        let mut h: History<&str, &str> = History::new();
        h.record_completion(OpId(9), SimTime(1), "x");
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut h: History<&str, &str> = History::new();
        h.record_invocation(OpId(1), ProcessId(0), "w", SimTime(1));
        h.record_completion(OpId(1), SimTime(2), "a");
        h.record_completion(OpId(1), SimTime(3), "b");
    }

    #[test]
    fn empty_history_has_no_latency() {
        let h: History<&str, &str> = History::new();
        assert_eq!(h.mean_latency(), None);
        assert!(h.all_complete()); // vacuously
    }
}
