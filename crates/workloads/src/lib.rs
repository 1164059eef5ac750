#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # dlpt-workloads — workload generation for the DLPT experiments
//!
//! Section 4 of the paper: "The prefix trees are built with identifiers
//! commonly encountered in a grid computing context such as names of
//! linear algebra routines." The hot-spot experiment (Figure 8) bursts
//! requests onto the Sun S3L library (names prefixed `S3L`) and then
//! onto ScaLAPACK (names prefixed `P`).
//!
//! * [`corpus`] — service-name corpora: BLAS, LAPACK, ScaLAPACK, S3L
//!   routine families plus binary-identifier sets;
//! * [`popularity`] — how requests pick targets: uniform, Zipf, and
//!   the phase-scheduled prefix bursts of Figure 8;
//! * [`churn`] — join/leave volumes per time unit (stable vs dynamic
//!   network);
//! * [`capacity`] — heterogeneous peer capacities with the paper's
//!   max/min ratio of 4.

pub mod capacity;
pub mod churn;
pub mod corpus;
pub mod popularity;

pub use capacity::CapacityModel;
pub use churn::ChurnModel;
pub use corpus::Corpus;
pub use popularity::{HotspotSchedule, Phase, Popularity, Uniform, Zipf};
