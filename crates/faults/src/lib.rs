//! # Fault shapes for the GQS simulator
//!
//! The paper's reliability bounds are stated against *static* fail-prone
//! systems — a pattern strikes and stays. Its partial-synchrony model
//! (§7), though, is exactly the setting where faults arrive, persist and
//! *heal* over time. The simulator's one fault timeline is
//! [`gqs_simnet::FailureSchedule`]: crashes, channel disconnections, heals
//! and recoveries, each at a time. This crate adds WAN-like multi-region
//! topologies ([`regions`]) and the scenario shapes that fill a schedule.
//!
//! A send during a down interval `[t1, t2)` drops (counted in
//! `NetStats::dropped_disconnected`); a send at or after the heal is
//! delivered, and post-GST delivery bounds apply to it as to any other
//! message. A recovered process keeps its state, its pre-crash timers stay
//! cancelled, and [`gqs_simnet::Protocol::on_recover`] runs at the
//! recovery instant.
//!
//! ## Scenario families
//!
//! [`scenarios`] builds high-level families as schedules:
//!
//! * [`scenarios::region_outage`] / [`scenarios::staggered_region_outages`]
//!   — disconnect an entire inter-region cut of a WAN-like multi-region
//!   topology ([`regions::RegionLayout`], [`regions::wan_graph`]) for a
//!   window, then heal it; the staggered form rolls the outage across
//!   regions.
//! * [`scenarios::flapping_link`] — periodic down/up on chosen channels.
//! * [`scenarios::hub_crash`] — crash the star/bridge hub mid-run,
//!   optionally recover it.
//! * [`scenarios::rolling_restart`] — crash + recover each process in
//!   sequence.
//!
//! ## Example
//!
//! ```
//! use gqs_core::ProcessId;
//! use gqs_faults::{regions, scenarios};
//! use gqs_simnet::SimTime;
//!
//! // A 3-region WAN, 4 processes per region.
//! let (graph, layout) = regions::regions(3, 4);
//! // Region 1 is cut off during [500, 1500), then heals.
//! let schedule = scenarios::region_outage(&layout, &graph, 1, SimTime(500), SimTime(1500));
//! assert!(!schedule.is_empty());
//! assert_eq!(schedule.disconnects().len(), schedule.heals().len());
//! // A simulation takes it with `sim.apply_failures(&schedule)`.
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod regions;
pub mod scenarios;

pub use regions::{wan_graph, RegionLayout};
pub use scenarios::{
    flapping_link, hub_crash, region_outage, rolling_restart, staggered_region_outages,
};
