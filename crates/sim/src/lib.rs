#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # dlpt-sim — the paper's evaluation, as an executable harness
//!
//! Section 4 of the paper describes the simulator its results come
//! from: discrete time; each unit runs (1) MLT on a fraction of peers,
//! (2) peer joins (through KC when enabled), (3) peer leaves, (4) new
//! service registrations, (5) discovery requests, whose satisfaction
//! is recorded. Peer capacity is the number of requests a peer accepts
//! per unit ("all requests received on a peer after it reached this
//! number are ignored"); the max/min capacity ratio is 4; ~100 peers
//! run a tree of ~1000 nodes built from linear-algebra routine names;
//! every experiment averages 30, 50 or 100 seeded runs.
//!
//! | Module | Role |
//! |---|---|
//! | [`config`] | [`config::ExperimentConfig`]: every knob of the Section-4 loop |
//! | [`run`] | one seeded run — the five-step time-unit loop |
//! | [`runner`] | parallel multi-run execution and averaging |
//! | [`experiments`] | one constructor per figure/table of the paper |
//! | [`report`] | CSV writers and ASCII charts for `dlpt-bench` |
//!
//! Determinism: run `i` of an experiment is a pure function of
//! `(config, base_seed + i)`; the thread pool only distributes work.

pub mod config;
pub mod experiments;
pub mod report;
pub mod run;
pub mod runner;

pub use config::{CorpusKind, ExperimentConfig, LbKind, PopKind};
pub use run::{RunResult, UnitMetrics};
pub use runner::{run_experiment, AveragedSeries};
