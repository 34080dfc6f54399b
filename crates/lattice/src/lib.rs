//! # Single-shot lattice agreement from atomic snapshots
//!
//! The third object of Theorem 1: lattice agreement "can in turn be
//! constructed from snapshots \[11\]" (Attiya, Herlihy, Rachman). Each
//! process proposes an input `x_i` from a join-semilattice and learns an
//! output `y_i` such that outputs are pairwise **comparable**, dominate
//! the proposer's input (**downward validity**) and stay below the join of
//! all inputs (**upward validity**).
//!
//! The construction is the snapshot fix-point loop:
//!
//! ```text
//! v := x_i
//! loop {
//!     update_i(v);  view := scan();
//!     v' := join of all proposed values in view;
//!     if v' == v { return v }  else { v := v' }
//! }
//! ```
//!
//! Segments only grow (each written value is a join including the previous
//! one), and scans are atomic, so any two returned joins are ordered by
//! the scans' linearization — Comparability. Each retry strictly enlarges
//! the set of inputs folded into `v`, so the loop terminates within `n`
//! rounds — wait-freedom, inherited from the snapshot's `(F, τ)` guarantee
//! with `τ(f) = U_f`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod semilattice;

pub use semilattice::{JoinSemilattice, MaxLattice, SetLattice, VectorLattice};

use std::collections::BTreeMap;

use gqs_core::{GeneralizedQuorumSystem, ProcessId};
use gqs_registers::{GeneralizedMsg, GeneralizedQaf, RegMap, VersionedWrite};
use gqs_simnet::{Context, Effect, Flood, OpId, Protocol, TimerId};
use gqs_snapshots::{Segment, SnapOp, SnapResp, SnapshotNode};

/// Client operation: `propose(x)`.
#[derive(Clone, PartialEq, Debug)]
pub struct Propose<L>(pub L);

/// Response: the learned output value `y`.
#[derive(Clone, PartialEq, Debug)]
pub struct Learned<L>(pub L);

/// The replicated register state underlying the snapshot: one segment of
/// `Option<L>` per process.
pub type SnapState<L> = RegMap<usize, Segment<Option<L>>>;
/// The update type of the underlying registers.
pub type SnapUpdate<L> = VersionedWrite<usize, Segment<Option<L>>>;
/// The quorum access engine of the underlying registers.
pub type SnapEngine<L> = GeneralizedQaf<SnapState<L>, SnapUpdate<L>>;
/// The wire message type of the whole stack.
pub type LatticeMsg<L> = GeneralizedMsg<SnapState<L>, SnapUpdate<L>>;

type Ctx<L> = Context<LatticeMsg<L>, Learned<L>>;
type InnerCtx<L> = Context<LatticeMsg<L>, SnapResp<Option<L>>>;

#[derive(Clone, Debug)]
enum Step<L> {
    /// Waiting for `update_i(v)` to finish.
    Updating { op: OpId, v: L },
    /// Waiting for `scan()` to finish.
    Scanning { op: OpId, v: L },
}

/// Lattice agreement at one process: the fix-point loop over an embedded
/// snapshot object. Segments hold `Option<L>` (`None` = nothing proposed
/// yet). A proposal has one snapshot operation open at a time, and runs it
/// under `OpId(machine)`.
#[derive(Clone, Debug)]
pub struct LatticeNode<L>
where
    L: JoinSemilattice,
{
    machines: BTreeMap<u64, Step<L>>,
    snap: SnapshotNode<Option<L>, SnapEngine<L>>,
    next_machine: u64,
    rounds: u64,
}

impl<L: JoinSemilattice> LatticeNode<L> {
    /// Creates the node for process `me` of `n` over a snapshot engine.
    pub fn new(me: ProcessId, n: usize, engine: SnapEngine<L>) -> Self {
        LatticeNode {
            machines: BTreeMap::new(),
            snap: SnapshotNode::new(me, n, engine),
            next_machine: 0,
            rounds: 0,
        }
    }

    /// Total update+scan rounds executed by proposals at this process
    /// (the ≤ n+1 bound is asserted in tests).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The embedded snapshot object (for assertions).
    pub fn snapshot(&self) -> &SnapshotNode<Option<L>, SnapEngine<L>> {
        &self.snap
    }

    fn issue(&mut self, machine: u64, op: SnapOp<Option<L>>, ctx: &mut Ctx<L>) {
        self.run_inner(ctx, |snap, inner| snap.on_invoke(OpId(machine), op, inner));
    }

    /// Runs one handler of the embedded snapshot object through
    /// [`Context::nested`] and routes what it emitted: internal
    /// completions drive the proposals; network effects pass through.
    fn run_inner(
        &mut self,
        ctx: &mut Ctx<L>,
        handler: impl FnOnce(&mut SnapshotNode<Option<L>, SnapEngine<L>>, &mut InnerCtx<L>),
    ) {
        for eff in ctx.nested(|inner| handler(&mut self.snap, inner)) {
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

    fn advance(&mut self, machine: u64, resp: SnapResp<Option<L>>, ctx: &mut Ctx<L>) {
        let Some(step) = self.machines.remove(&machine) else { return };
        match (step, resp) {
            (Step::Updating { op, v }, SnapResp::Ack) => {
                self.machines.insert(machine, Step::Scanning { op, v });
                self.issue(machine, SnapOp::Scan, ctx);
            }
            (Step::Scanning { op, v }, SnapResp::View(view)) => {
                let joined = view.into_iter().flatten().fold(v.clone(), |acc, x| acc.join(&x));
                if joined == v {
                    ctx.complete(op, Learned(v));
                } else {
                    self.rounds += 1;
                    self.machines.insert(machine, Step::Updating { op, v: joined.clone() });
                    self.issue(machine, SnapOp::Update(Some(joined)), ctx);
                }
            }
            (step, resp) => unreachable!("mismatched step/response: {step:?} / {resp:?}"),
        }
    }
}

impl<L: JoinSemilattice> Protocol for LatticeNode<L> {
    type Msg = LatticeMsg<L>;
    type Op = Propose<L>;
    type Resp = Learned<L>;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |snap, inner| snap.on_start(inner));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        self.run_inner(ctx, |snap, inner| snap.on_message(from, msg, inner));
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |snap, inner| snap.on_timer(id, inner));
    }

    /// Forwards the recovery down to the register engine, which re-arms
    /// its periodic push (and, under retries, its retry timer).
    fn on_recover(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |snap, inner| snap.on_recover(inner));
    }

    fn on_invoke(
        &mut self,
        op: OpId,
        Propose(x): Self::Op,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        let machine = self.next_machine;
        self.next_machine += 1;
        self.rounds += 1;
        self.machines.insert(machine, Step::Updating { op, v: x.clone() });
        self.issue(machine, SnapOp::Update(Some(x)), ctx);
    }
}

/// Builds one flooding-wrapped [`LatticeNode`] per process of a
/// generalized quorum system.
pub fn gqs_lattice_nodes<L>(
    gqs: &GeneralizedQuorumSystem,
    tick_interval: u64,
) -> Vec<Flood<LatticeNode<L>>>
where
    L: JoinSemilattice,
{
    let n = gqs.graph().len();
    (0..n)
        .map(|p| {
            let seg0: Segment<Option<L>> = Segment { value: None, seq: 0, view: vec![None; n] };
            let engine: SnapEngine<L> = GeneralizedQaf::new(
                gqs.reads().clone(),
                gqs.writes().clone(),
                RegMap::new(seg0),
                tick_interval,
            );
            Flood::new(LatticeNode::new(ProcessId(p), n, engine))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqs_core::majority_system;
    use gqs_registers::TICK_TIMER;
    use gqs_simnet::SimTime;

    /// Regression: the node used to inherit the default no-op
    /// `on_recover`, so the recovery never reached the register engine
    /// two layers down.
    #[test]
    fn recovery_rearms_the_engines_push_and_tick() {
        let qs = majority_system(3).unwrap();
        let seg0 = Segment { value: None, seq: 0, view: vec![None; 3] };
        let engine: SnapEngine<MaxLattice> =
            GeneralizedQaf::new(qs.reads().clone(), qs.writes().clone(), RegMap::new(seg0), 20);
        let mut node = LatticeNode::new(ProcessId(1), 3, engine);
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
    fn propose_and_learned_are_transparent() {
        let p = Propose(MaxLattice(3));
        assert_eq!(p.0, MaxLattice(3));
        let l = Learned(SetLattice::singleton(1u8));
        assert!(l.0.leq(&SetLattice::from_iter([1u8, 2])));
    }
}
