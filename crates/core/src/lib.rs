#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # dlpt-core — the Distributed Lexicographic Placement Table
//!
//! This crate implements the primary contribution of Caron, Desprez &
//! Tedeschi, *"Efficiency of Tree-Structured Peer-to-Peer Service
//! Discovery Systems"* (INRIA RR-6557, 2008):
//!
//! * a **Proper Greatest Common Prefix (PGCP) tree** over service
//!   identifiers (Definition 1 of the paper), both as a sequential
//!   in-memory structure ([`trie::PgcpTrie`], used as a correctness
//!   oracle and local engine) and as a **distributed overlay**
//!   ([`system::DlptSystem`]) whose logical nodes are spread over a
//!   bidirectional ring of peers, its operations written once over a
//!   delivery [`overlay::Driver`];
//! * the **self-contained mapping** that replaces the original DHT
//!   layer: a logical node `n` is always hosted by the lowest peer whose
//!   identifier is `>= n` ([`mapping`]), and peer joins are routed
//!   through the tree itself (Algorithms 1 and 2 of the paper,
//!   [`protocol::peer_join`]);
//! * **data insertion** that grows the tree while preserving the PGCP
//!   invariant (Algorithm 3, [`protocol::data_insertion`]);
//! * **service discovery** with exact lookup, range queries and
//!   automatic completion of partial search strings
//!   ([`protocol::discovery`]);
//! * the **MLT (Max Local Throughput)** load-balancing heuristic of
//!   Section 3.3 and the adapted **k-choices** (KC) join heuristic
//!   ([`balance`]).
//!
//! The protocol is written as message handlers over explicit state
//! ([`messages`], [`node`], [`peer`]) so that the same code drives the
//! synchronous in-process runtime used by the simulator and the
//! threaded live runtime in `dlpt-net`.

pub mod alphabet;
pub mod balance;
pub mod cache;
pub mod directory;
pub mod engine;
pub mod error;
pub mod key;
pub mod mapping;
pub mod messages;
pub mod metrics;
pub mod node;
pub mod obs;
pub mod overlay;
pub mod peer;
pub mod protocol;
pub mod replication;
pub mod system;
pub mod transport;
pub mod trie;

pub use alphabet::Alphabet;
pub use balance::{KChoices, LoadBalancer, MaxLocalThroughput, NoBalancing};
pub use cache::{CacheStats, RouteCache, Shortcut};
pub use engine::{
    parallel::ParallelPump, Engine, FifoTransport, Step, Transport, REQUEST_RETRY_BUDGET,
};
pub use error::{DlptError, Result};
pub use key::Key;
pub use messages::{Address, Envelope, Message, NodeMsg, PeerMsg, QueryKind};
pub use node::NodeState;
pub use obs::health::{
    AuditCheck, HealthMonitor, HealthSnapshot, HealthTiming, MemoryFootprint, PeerHealth, Violation,
};
pub use obs::{EventKind, TraceEvent, TraceRing, Tracer};
pub use overlay::{Driver, Overlay};
pub use peer::PeerState;
pub use replication::{AntiEntropyReport, ReplicationStats};
pub use system::{DlptSystem, LookupOutcome, SystemBuilder, SystemConfig};
pub use transport::{FaultPlan, FaultStats};
pub use trie::PgcpTrie;
