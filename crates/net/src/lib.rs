#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # dlpt-net — transports for the DLPT protocol
//!
//! The protocol handlers in `dlpt-core::protocol` are pure functions
//! over one peer shard; this crate supplies the runtimes that carry
//! their envelopes:
//!
//! * [`event`] — a deterministic discrete-event queue;
//! * [`sim::LatencyNet`] — a message-level simulator that delivers
//!   envelopes after randomized latencies. Because deliveries
//!   interleave arbitrarily, it exercises the protocol's tolerance to
//!   out-of-order messages — something the synchronous FIFO pump of
//!   `DlptSystem` never does;
//! * [`codec`] — a length-prefixed binary wire format for every
//!   protocol message (what a deployment would put on TCP);
//! * [`threaded::ThreadedDlpt`] — a live in-process runtime: every
//!   peer is an OS thread, envelopes travel encoded between their
//!   inboxes, and the receiving thread hands each to the engine. This
//!   is the substitution for the paper's never-evaluated Grid'5000
//!   prototype (see DESIGN.md).

pub mod codec;
pub mod event;
pub mod sim;
pub mod threaded;

pub use event::EventQueue;
pub use sim::{LatencyModel, LatencyNet};
pub use threaded::ThreadedDlpt;
