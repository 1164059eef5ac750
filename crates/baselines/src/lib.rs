#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # dlpt-baselines — the trie-structured comparators of Table 2
//!
//! Section 5 of the paper positions the DLPT against its two closest
//! relatives and tabulates their complexities (Table 2):
//!
//! | Functionality | P-Grid | PHT | DLPT |
//! |---|---|---|---|
//! | Tree routing | O(log Π) | O(D·log P) | O(D) |
//! | Local state  | O(log Π) | (N/P)·A | (N/P)·A |
//!
//! where `Π` is the key-space partition count, `D` the maximal key
//! length, `A` the alphabet, `N` the tree nodes and `P` the peers.
//!
//! This crate *implements* both comparators so the table can be
//! measured rather than transcribed:
//!
//! * [`pht::PrefixHashTree`] — Ramabhadran et al.'s Prefix Hash Tree:
//!   a binary trie whose vertices are addressed by hashing their prefix
//!   label into a DHT (our `dlpt-dht` Chord); leaves hold up to `B`
//!   keys and split on overflow. Every trie-node access costs one DHT
//!   lookup, which is where the `log P` factor comes from.
//! * [`pgrid::PGrid`] — Aberer et al.'s P-Grid: every peer owns a path
//!   (a binary-string partition of the key space) and keeps, for each
//!   prefix level, references to peers on the opposite branch; prefix
//!   routing resolves a query in O(log Π) overlay hops.
//!
//! Both support exact lookup and range queries over the same key
//! corpora the DLPT experiments use (keys are mapped to fixed-length
//! bit strings by order-preserving encoding, [`encoding`]).

pub mod encoding;
pub mod pgrid;
pub mod pht;

pub use pgrid::PGrid;
pub use pht::PrefixHashTree;
