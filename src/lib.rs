#![forbid(unsafe_code)]
//! # dlpt — Tree-structured peer-to-peer service discovery
//!
//! A full reproduction of **Caron, Desprez & Tedeschi, "Efficiency of
//! Tree-Structured Peer-to-Peer Service Discovery Systems"** (INRIA
//! RR-6557, 2008): the DLPT prefix-tree overlay, its self-contained
//! ring mapping, and the MLT / k-choices load-balancing heuristics,
//! together with the Chord, PHT and P-Grid comparators and the
//! discrete-time simulation harness that regenerates every figure and
//! table of the paper's evaluation.
//!
//! This facade crate re-exports the workspace members under stable
//! paths so downstream users can depend on a single crate:
//!
//! ```
//! use dlpt::core::{Key, DlptSystem, SystemConfig};
//!
//! let mut sys = DlptSystem::builder()
//!     .seed(42)
//!     .bootstrap_peers(8)
//!     .build();
//! sys.insert_data(Key::from("DGEMM"));
//! sys.insert_data(Key::from("DTRSM"));
//! let hit = sys.lookup(&Key::from("DGEMM"));
//! assert!(hit.found);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

/// PHT and P-Grid comparators ([`dlpt_baselines`]).
pub use dlpt_baselines as baselines;
/// The paper's primary contribution: PGCP tree, protocol, mapping,
/// load balancing ([`dlpt_core`]).
pub use dlpt_core as core;
/// Chord DHT substrate used by the random-mapping baseline and PHT
/// ([`dlpt_dht`]).
pub use dlpt_dht as dht;
/// Transports: deterministic discrete-event simulation and the threaded
/// live runtime ([`dlpt_net`]).
pub use dlpt_net as net;
/// The Section-4 discrete-time experiment harness ([`dlpt_sim`]).
pub use dlpt_sim as sim;
/// Corpora, popularity models, churn and capacity generators
/// ([`dlpt_workloads`]).
pub use dlpt_workloads as workloads;
