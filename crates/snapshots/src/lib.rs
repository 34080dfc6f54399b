//! # SWMR atomic snapshots from atomic registers
//!
//! The upper bound for snapshots in *"Tight Bounds on Channel Reliability
//! via Generalized Quorum Systems"* is by reduction: "atomic snapshots can
//! be constructed from atomic registers \[2\]" (Afek, Attiya, Dolev, Gafni,
//! Merritt, Shavit 1993). This crate implements that construction — the
//! unbounded-register variant with **embedded scans**:
//!
//! * each segment is one SWMR register holding `(value, seq, view)` where
//!   `view` is a scan the writer embedded in its update;
//! * a scan repeatedly *collects* (reads all segments); two identical
//!   consecutive collects are a valid snapshot (nothing moved);
//! * if some segment's `seq` advanced **twice** since the scan began, the
//!   second update's embedded view was taken entirely inside the scan's
//!   interval and can be *borrowed* as the result — this is what makes
//!   scans wait-free under concurrent updates.
//!
//! The registers underneath are the Figure 4 protocol over a generalized
//! quorum system, so the snapshot inherits `(F, τ)`-wait-freedom with
//! `τ(f) = U_f` — exactly Theorem 1's claim for snapshots.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Debug;

use gqs_core::{GeneralizedQuorumSystem, ProcessId};
use gqs_registers::{
    GeneralizedQaf, QuorumAccess, QuorumRegister, RegMap, RegOp, RegResp, VersionedWrite,
};
use gqs_simnet::{Context, Effect, Flood, OpId, Protocol, TimerId};

/// One snapshot segment as stored in its register: the value, a
/// per-writer sequence number, and the writer's embedded scan.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment<V> {
    /// The segment's value.
    pub value: V,
    /// How many times the writer has updated (0 = never).
    pub seq: u64,
    /// The scan the writer embedded in this update.
    pub view: Vec<V>,
}

/// Client operations on the snapshot object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapOp<V> {
    /// `write(x)` into the invoker's own segment (SWMR).
    Update(V),
    /// `scan()`: read all segments atomically.
    Scan,
}

/// Responses of the snapshot object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapResp<V> {
    /// Update acknowledgement.
    Ack,
    /// The scanned vector of segment values.
    View(Vec<V>),
}

/// Scan termination statistics (surfaced for experiments: E8 reports the
/// borrowed-scan rate under contention).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ScanStats {
    /// Scans that ended with two identical collects.
    pub direct: u64,
    /// Scans that borrowed an embedded view after a double move.
    pub borrowed: u64,
    /// Total collects performed.
    pub collects: u64,
}

#[derive(Clone, Debug)]
struct ScanMachine<V> {
    /// The collect the scan started with (move-detection baseline).
    first: Option<Vec<Segment<V>>>,
    /// The previous full collect (equality test target).
    prev: Option<Vec<Segment<V>>>,
    /// The collect being assembled.
    current: Vec<Segment<V>>,
    collects: u64,
}

impl<V: Clone + Debug + PartialEq> ScanMachine<V> {
    fn new() -> Self {
        ScanMachine { first: None, prev: None, current: Vec::new(), collects: 0 }
    }

    /// Feeds one segment read; returns `(view, was_direct)` if the scan
    /// can terminate after this collect.
    fn feed(&mut self, n: usize, seg: Segment<V>) -> Option<(Vec<V>, bool)> {
        self.current.push(seg);
        if self.current.len() < n {
            return None;
        }
        // A full collect is assembled.
        self.collects += 1;
        let cur = std::mem::take(&mut self.current);
        if let Some(prev) = &self.prev {
            let unchanged = prev.iter().zip(&cur).all(|(a, b)| a.seq == b.seq);
            if unchanged {
                let view = cur.into_iter().map(|s| s.value).collect();
                return Some((view, true));
            }
        }
        if let Some(first) = &self.first {
            if let Some((moved, _)) = cur.iter().zip(first).find(|(c, f)| c.seq >= f.seq + 2) {
                // The embedded view of the second update was taken entirely
                // within this scan's interval: borrow it.
                return Some((moved.view.clone(), false));
            }
        } else {
            self.first = Some(cur.clone());
        }
        self.prev = Some(cur);
        None
    }
}

#[derive(Clone, Debug)]
enum Machine<V> {
    /// An update first performs its embedded scan ...
    UpdateScan { op: OpId, value: V, scan: ScanMachine<V> },
    /// ... then writes `(value, seq+1, view)` into its own segment.
    UpdateWrite { op: OpId },
    /// A client scan.
    ClientScan { op: OpId, scan: ScanMachine<V> },
}

/// The snapshot protocol at one process: the Afek et al. client algorithm
/// layered over an embedded register protocol. A machine has at most one
/// register operation open at a time, and runs it under `OpId(machine)`.
///
/// Generic over the register's quorum access engine `E`; use
/// [`GqsSnapshot`] for the paper's generalized setting.
#[derive(Clone, Debug)]
pub struct SnapshotNode<V, E>
where
    E: QuorumAccess<RegMap<usize, Segment<V>>, VersionedWrite<usize, Segment<V>>>,
    V: Clone + Debug + PartialEq,
{
    me: ProcessId,
    n: usize,
    reg: QuorumRegister<usize, Segment<V>, E>,
    machines: BTreeMap<u64, Machine<V>>,
    next_machine: u64,
    my_seq: u64,
    stats: ScanStats,
}

impl<V, E> SnapshotNode<V, E>
where
    E: QuorumAccess<RegMap<usize, Segment<V>>, VersionedWrite<usize, Segment<V>>> + Clone,
    V: Clone + Debug + PartialEq,
{
    /// Creates the snapshot node for process `me` of `n`, over a register
    /// engine.
    pub fn new(me: ProcessId, n: usize, engine: E) -> Self {
        SnapshotNode {
            me,
            n,
            reg: QuorumRegister::new(me, engine),
            machines: BTreeMap::new(),
            next_machine: 0,
            my_seq: 0,
            stats: ScanStats::default(),
        }
    }

    /// Scan termination statistics.
    pub fn scan_stats(&self) -> ScanStats {
        self.stats
    }

    /// The embedded register protocol (for assertions).
    pub fn register(&self) -> &QuorumRegister<usize, Segment<V>, E> {
        &self.reg
    }

    /// Issues `machine`'s next register operation.
    fn issue(
        &mut self,
        machine: u64,
        op: RegOp<usize, Segment<V>>,
        ctx: &mut Context<E::Msg, SnapResp<V>>,
    ) {
        self.run_inner(ctx, |reg, inner| reg.on_invoke(OpId(machine), op, inner));
    }

    /// Reads the next segment of the machine's current collect.
    fn continue_collect(&mut self, machine: u64, ctx: &mut Context<E::Msg, SnapResp<V>>) {
        let next_seg = match self.machines.get(&machine) {
            Some(Machine::UpdateScan { scan, .. }) | Some(Machine::ClientScan { scan, .. }) => {
                scan.current.len()
            }
            _ => unreachable!("collect continued on a non-scanning machine"),
        };
        self.issue(machine, RegOp::Read { reg: next_seg }, ctx);
    }

    /// Runs one handler of the embedded register protocol through
    /// [`Context::nested`] and routes what it emitted: internal
    /// completions drive the machines; network effects pass through.
    fn run_inner(
        &mut self,
        ctx: &mut Context<E::Msg, SnapResp<V>>,
        handler: impl FnOnce(
            &mut QuorumRegister<usize, Segment<V>, E>,
            &mut Context<E::Msg, RegResp<Segment<V>>>,
        ),
    ) {
        for eff in ctx.nested(|inner| handler(&mut self.reg, inner)) {
            match eff {
                Effect::Send { to, msg } => ctx.send(to, msg),
                Effect::Broadcast { msg } => ctx.broadcast(msg),
                Effect::SetTimer { id, after } => ctx.set_timer(id, after),
                Effect::Complete { op, resp } => self.advance(op.0, resp, ctx),
                Effect::NoteRetransmit { count } => ctx.note_retransmit(count),
                Effect::Trace { kind, label, id } => ctx.emit_trace(kind, label, id),
            }
        }
    }

    /// Feeds one internal register completion into its machine.
    fn advance(
        &mut self,
        machine: u64,
        resp: RegResp<Segment<V>>,
        ctx: &mut Context<E::Msg, SnapResp<V>>,
    ) {
        let Some(state) = self.machines.get_mut(&machine) else { return };
        match state {
            Machine::UpdateScan { scan, .. } | Machine::ClientScan { scan, .. } => {
                let RegResp::Value { value: seg, .. } = resp else {
                    unreachable!("scan collects issue reads only");
                };
                match scan.feed(self.n, seg) {
                    None => self.continue_collect(machine, ctx),
                    Some((view, direct)) => {
                        if direct {
                            self.stats.direct += 1;
                        } else {
                            self.stats.borrowed += 1;
                        }
                        match self.machines.remove(&machine).expect("machine exists") {
                            Machine::UpdateScan { op, value, scan } => {
                                self.stats.collects += scan.collects;
                                self.my_seq += 1;
                                let seg = Segment { value, seq: self.my_seq, view };
                                self.machines.insert(machine, Machine::UpdateWrite { op });
                                let write = RegOp::Write { reg: self.me.index(), value: seg };
                                self.issue(machine, write, ctx);
                            }
                            Machine::ClientScan { op, scan } => {
                                self.stats.collects += scan.collects;
                                ctx.complete(op, SnapResp::View(view));
                            }
                            Machine::UpdateWrite { .. } => unreachable!(),
                        }
                    }
                }
            }
            Machine::UpdateWrite { op } => {
                let op = *op;
                self.machines.remove(&machine);
                ctx.complete(op, SnapResp::Ack);
            }
        }
    }
}

impl<V, E> Protocol for SnapshotNode<V, E>
where
    E: QuorumAccess<RegMap<usize, Segment<V>>, VersionedWrite<usize, Segment<V>>> + Clone,
    V: Clone + Debug + PartialEq,
{
    type Msg = E::Msg;
    type Op = SnapOp<V>;
    type Resp = SnapResp<V>;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |reg, inner| reg.on_start(inner));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        self.run_inner(ctx, |reg, inner| reg.on_message(from, msg, inner));
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |reg, inner| reg.on_timer(id, inner));
    }

    /// Forwards the recovery to the embedded register, whose engine
    /// re-arms its periodic push (and, under retries, its retry timer).
    fn on_recover(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |reg, inner| reg.on_recover(inner));
    }

    fn on_invoke(&mut self, op: OpId, body: Self::Op, ctx: &mut Context<Self::Msg, Self::Resp>) {
        let machine = self.next_machine;
        self.next_machine += 1;
        match body {
            SnapOp::Update(value) => {
                self.machines
                    .insert(machine, Machine::UpdateScan { op, value, scan: ScanMachine::new() });
            }
            SnapOp::Scan => {
                self.machines.insert(machine, Machine::ClientScan { op, scan: ScanMachine::new() });
            }
        }
        self.continue_collect(machine, ctx);
    }
}

/// The paper's snapshot: the Afek et al. construction over
/// [`gqs_registers::GqsRegister`] segments.
pub type GqsSnapshot<V> =
    SnapshotNode<V, GeneralizedQaf<RegMap<usize, Segment<V>>, VersionedWrite<usize, Segment<V>>>>;

/// Builds one flooding-wrapped [`GqsSnapshot`] node per process of a
/// generalized quorum system. Segments start at `initial`.
pub fn gqs_snapshot_nodes<V>(
    gqs: &GeneralizedQuorumSystem,
    initial: V,
    tick_interval: u64,
) -> Vec<Flood<GqsSnapshot<V>>>
where
    V: Clone + Debug + PartialEq,
{
    let n = gqs.graph().len();
    (0..n)
        .map(|p| {
            let seg0 = Segment { value: initial.clone(), seq: 0, view: vec![initial.clone(); n] };
            let engine = GeneralizedQaf::new(
                gqs.reads().clone(),
                gqs.writes().clone(),
                RegMap::new(seg0),
                tick_interval,
            );
            Flood::new(SnapshotNode::new(ProcessId(p), n, engine))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqs_core::majority_system;
    use gqs_registers::{GeneralizedMsg, TICK_TIMER};
    use gqs_simnet::SimTime;

    /// Regression: the node used to inherit the default no-op
    /// `on_recover`, so a recovered replica never pushed its state again
    /// nor re-armed the push's tick.
    #[test]
    fn recovery_rearms_the_engines_push_and_tick() {
        let qs = majority_system(3).unwrap();
        let seg0 = Segment { value: 0u64, seq: 0, view: vec![0; 3] };
        let engine =
            GeneralizedQaf::new(qs.reads().clone(), qs.writes().clone(), RegMap::new(seg0), 20);
        let mut node: GqsSnapshot<u64> = SnapshotNode::new(ProcessId(1), 3, engine);
        let mut ctx = Context::new(ProcessId(1), 3, SimTime(500));
        node.on_recover(&mut ctx);
        assert!(matches!(
            ctx.take_effects()[..],
            [
                Effect::Broadcast { msg: GeneralizedMsg::GetResp { clock: 1, .. } },
                Effect::SetTimer { id: TICK_TIMER, after: 20 },
            ]
        ));
    }

    #[test]
    fn scan_machine_direct_termination() {
        let mut m: ScanMachine<u64> = ScanMachine::new();
        let seg = |v, seq| Segment { value: v, seq, view: vec![] };
        // First collect.
        assert!(m.feed(2, seg(1, 1)).is_none());
        assert!(m.feed(2, seg(2, 1)).is_none());
        // Second, identical seqs: direct.
        assert!(m.feed(2, seg(1, 1)).is_none());
        let (view, direct) = m.feed(2, seg(2, 1)).expect("terminates");
        assert!(direct);
        assert_eq!(view, vec![1, 2]);
        assert_eq!(m.collects, 2);
    }

    #[test]
    fn scan_machine_borrows_after_double_move() {
        let mut m: ScanMachine<u64> = ScanMachine::new();
        let seg = |v, seq, view: Vec<u64>| Segment { value: v, seq, view };
        // Collect 1: seg0 at seq 1.
        assert!(m.feed(2, seg(1, 1, vec![])).is_none());
        assert!(m.feed(2, seg(9, 0, vec![])).is_none());
        // Collect 2: seg0 moved once (seq 2): keep going.
        assert!(m.feed(2, seg(2, 2, vec![7, 7])).is_none());
        assert!(m.feed(2, seg(9, 0, vec![])).is_none());
        // Collect 3: seg0 moved again (seq 3 >= 1 + 2): borrow its view.
        assert!(m.feed(2, seg(3, 3, vec![8, 8])).is_none());
        let r = m.feed(2, seg(9, 0, vec![]));
        let (view, direct) = r.expect("borrow terminates the scan");
        assert!(!direct);
        assert_eq!(view, vec![8, 8]);
    }

    #[test]
    fn scan_machine_single_move_keeps_collecting() {
        let mut m: ScanMachine<u64> = ScanMachine::new();
        let seg = |seq| Segment { value: 0u64, seq, view: vec![] };
        assert!(m.feed(1, seg(1)).is_none());
        assert!(m.feed(1, seg(2)).is_none()); // moved once
        let r = m.feed(1, seg(2)); // stable now
        assert!(matches!(r, Some((_, true))));
    }
}
