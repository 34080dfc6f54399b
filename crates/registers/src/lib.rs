//! # Atomic registers over unreliable channels
//!
//! The upper-bound construction of *"Tight Bounds on Channel Reliability
//! via Generalized Quorum Systems"* (§5):
//!
//! * [`qaf`] — the *quorum access function* interface (`quorum_get` /
//!   `quorum_set`) with its Validity, Real-time ordering and Liveness
//!   obligations;
//! * [`classical`] — the Figure 2 engine (request/response; the classical
//!   setting and the ABD baseline);
//! * [`generalized`] — the Figure 3 engine: novel logical clocks, periodic
//!   state propagation and inverted quorum roles, which work even when
//!   read quorums are only **unidirectionally** connected to write quorums;
//! * [`register`] — the Figure 4 MWMR atomic register, generic over the
//!   engine; [`GqsRegister`] is the paper's protocol, [`AbdRegister`] the
//!   baseline.
//!
//! Both engines can also **retransmit** unanswered requests
//! ([`ClassicalQaf::with_retry`] / [`GeneralizedQaf::with_retry`]): lost
//! `GET_REQ`/`SET_REQ`/`CLOCK_REQ` broadcasts are re-sent on a periodic
//! timer ([`RETRY_TIMER`]) until the quorum answers, with replica-side
//! **duplicate suppression** — a retransmitted `SET_REQ` is recognized by
//! `(requester, seq)` and re-**ack**ed instead of re-applied. An operation
//! invoked during an outage then completes a bounded time after the heal
//! with no client-side retry (see [`reliable_abd_register_nodes`]). The two
//! engines share one implementation of the request numbering, the retry
//! timer and the dedup; each keeps only its own Figure's messages.
//!
//! ## Example: the Figure 1 system
//!
//! ```
//! use gqs_core::{systems::figure1, ProcessId};
//! use gqs_registers::{gqs_register_nodes, RegOp, RegResp};
//! use gqs_simnet::{FailureSchedule, SimConfig, SimTime, Simulation, StopReason};
//!
//! let fig = figure1();
//! let nodes = gqs_register_nodes::<u8, u64>(&fig.gqs, 0, 20);
//! let mut sim = Simulation::new(SimConfig::default(), nodes);
//! // Fail pattern f1 from the start: d crashes, (a,c),(b,c),(c,b) drop.
//! sim.apply_failures(&FailureSchedule::from_pattern_at(fig.fail_prone.pattern(0), SimTime(0)));
//! // Operations at a and b (= U_f1) are wait-free.
//! sim.invoke_at(SimTime(1), ProcessId(0), RegOp::Write { reg: 0, value: 7 });
//! sim.invoke_at(SimTime(2000), ProcessId(1), RegOp::Read { reg: 0 });
//! assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
//! assert!(matches!(
//!     sim.history().ops()[1].resp(),
//!     Some(RegResp::Value { value: 7, .. })
//! ));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classical;
pub mod generalized;
pub mod qaf;
pub mod register;
mod requests;
pub mod scale;
pub mod update;

pub use classical::{ClassicalMsg, ClassicalQaf};
pub use generalized::{GeneralizedMsg, GeneralizedQaf, TICK_TIMER};
pub use qaf::{QafEvent, QuorumAccess};
pub use register::{
    abd_register_nodes, gqs_register_nodes, reliable_abd_register_nodes, AbdRegister, GqsRegister,
    QuorumRegister, RegOp, RegResp,
};
pub use requests::RETRY_TIMER;
pub use scale::{sampled_abd_nodes, SampledAbd, ScaleMsg, ScaleOp};
pub use update::{RegMap, Update, Version, VersionedWrite, VERSION_ZERO};
