#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # dlpt-dht — a Chord distributed hash table
//!
//! The original DLPT design ([Caron, Desprez & Tedeschi, P2P 2006])
//! mapped the prefix tree onto the physical network through a DHT,
//! "using the Chord mapping technique, i.e. mapping a key on the peer
//! with the lowest identifier higher than the key" (Section 2 of the
//! 2008 paper, Figure 2). The 2008 paper's first contribution is
//! *avoiding* that DHT; this crate exists so the claim can be
//! evaluated rather than assumed:
//!
//! * [`mapping::RandomMapping`] reproduces the hash-based node→peer
//!   placement of the original design — the "random mapping" curve of
//!   Figure 9 that destroys lexicographic locality;
//! * [`chord::ChordNetwork`] is the Chord its one reader needs (finger
//!   tables, successor lists, joins with stabilization, iterative
//!   lookup with hop accounting, a key-value store): the substrate of
//!   the PHT comparator in `dlpt-baselines` (Table 2).
//!
//! Everything is deterministic and in-process: identifiers are 64-bit
//! FNV-1a hashes ([`hash`]), the ring arithmetic lives in [`ring`].

pub mod chord;
pub mod hash;
pub mod mapping;
pub mod ring;

pub use chord::{ChordNetwork, ChordStats, LookupResult};
pub use hash::fnv1a64;
pub use mapping::RandomMapping;
