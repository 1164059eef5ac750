//! The operations of every runtime, written once.
//!
//! An [`Overlay`] is an [`Engine`] plus a [`Driver`]: the engine holds
//! the state and handles every envelope, the driver decides how the
//! envelopes an operation injects travel and runs them to quiescence.
//! Each verb — join, leave, crash, repair, anti-entropy, registration,
//! deregistration, discovery with its retry loop, migration, rename and
//! the batch — is defined here once. The runtimes differ only in their
//! driver: [`crate::system::Pump`] (immediate FIFO, [`DlptSystem`]) and,
//! in `dlpt-net`, a latency-sampling event queue (`LatencyNet`) and
//! peer threads moving encoded frames (`ThreadedDlpt`) — the scheduler
//! is the one parameter, as in the self-stabilising formulation of the
//! protocol.
//!
//! Every mutating verb ends with the eager replica flush
//! (`Engine::flush_replication`, a no-op at `k = 1`), so replica
//! state tracks the data plane on every runtime.
//!
//! [`DlptSystem`]: crate::system::DlptSystem

use crate::engine::{empty_outcome, Engine, LookupOutcome, RepairReport, Transport};
use crate::error::{DlptError, Result};
use crate::key::Key;
use crate::messages::{Envelope, NodeMsg, QueryKind};
use crate::replication::AntiEntropyReport;
use crate::system::SystemConfig;
use rand::rngs::StdRng;

/// How a runtime moves envelopes: the one parameter of an [`Overlay`].
///
/// As a [`Transport`] the driver queues what the engine emits; on top
/// of that it queues what an operation injects, runs everything to
/// quiescence, and lends the runtime's one seeded RNG — entry nodes,
/// drawn peer identifiers and, where the transport samples them,
/// delays come from a single stream.
pub trait Driver: Transport + Sized {
    /// Queues an envelope an operation injects: a join, a registration,
    /// a request's entry or its retried origin. Whether it passes the
    /// fault gate is the runtime's fault model; by default it does
    /// ([`Engine::send`]).
    fn inject(&mut self, engine: &mut Engine, env: Envelope) {
        engine.send(self, env);
    }

    /// Delivers until nothing is in flight, including what a reordering
    /// plan held back ([`Engine::flush_deferred`]).
    fn quiesce(&mut self, engine: &mut Engine) -> Result<()>;

    /// The runtime's seeded RNG.
    fn rng(&mut self) -> &mut StdRng;
}

/// A DLPT overlay run by driver `D`. See the module docs.
///
/// Dereferences to the underlying [`Engine`], so introspection
/// (`peer_count`, `node_labels`, `host_of`, …), configuration, the fault
/// API, the invariant auditor and the counters are the engine's.
#[derive(Debug)]
pub struct Overlay<D> {
    config: SystemConfig,
    engine: Engine,
    driver: D,
}

impl<D> std::ops::Deref for Overlay<D> {
    type Target = Engine;
    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl<D> std::ops::DerefMut for Overlay<D> {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

impl<D: Driver> Overlay<D> {
    /// An empty overlay.
    pub fn with_driver(config: SystemConfig, driver: D) -> Self {
        Overlay {
            config,
            engine: Engine::default(),
            driver,
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The driver.
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Takes the overlay apart, e.g. to stop the driver's resources
    /// before inspecting the engine.
    pub fn into_parts(self) -> (Engine, D) {
        (self.engine, self.driver)
    }

    /// A uniformly random node label (the "random node of the tree"
    /// every request and registration enters through).
    pub fn random_node(&mut self) -> Option<Key> {
        self.engine.random_node(self.driver.rng())
    }

    /// Draws a fresh peer identifier not colliding with existing ones.
    pub fn draw_peer_id(&mut self) -> Key {
        loop {
            let len = self.config.peer_id_len;
            let id = self.config.alphabet.random_id(self.driver.rng(), len);
            if !self.engine.contains_peer(&id) {
                return id;
            }
        }
    }

    /// Runs the injected traffic to quiescence, then the eager replica
    /// flush it made necessary.
    pub(crate) fn settle(&mut self) -> Result<()> {
        self.driver.quiesce(&mut self.engine)?;
        self.engine.flush_replication(&mut self.driver);
        self.driver.quiesce(&mut self.engine)
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Joins a peer under a freshly drawn random identifier.
    pub fn add_peer(&mut self, capacity: u32) -> Result<Key> {
        let id = self.draw_peer_id();
        self.add_peer_with_id(id.clone(), capacity)?;
        Ok(id)
    }

    /// Joins a peer under the given identifier, routing the join
    /// through the tree (Algorithms 1 and 2) when the overlay is
    /// already populated.
    pub fn add_peer_with_id(&mut self, id: Key, capacity: u32) -> Result<()> {
        self.config.alphabet.validate(&id)?;
        if self.engine.contains_peer(&id) {
            return Err(DlptError::DuplicatePeer(id.to_string()));
        }
        self.engine.add_local_shard(id.clone(), capacity);
        if self.engine.peer_count() == 1 {
            return Ok(());
        }
        let env = self.engine.join_envelope(&id, self.driver.rng());
        self.driver.inject(&mut self.engine, env);
        self.settle()
    }

    /// Graceful departure: the peer hands its nodes to its successor
    /// and splices itself out (Section 4's churn model).
    pub fn leave_peer(&mut self, id: &Key) -> Result<()> {
        self.engine.leave_shard(id, &mut self.driver)?;
        self.settle()
    }

    /// Non-graceful departure (`Engine::crash_shard`): returns the
    /// labels of the nodes lost for want of a live follower copy. Call
    /// [`Overlay::repair_tree`] afterwards to re-attach the subtrees
    /// they orphaned.
    pub fn crash_peer(&mut self, id: &Key) -> Result<Vec<Key>> {
        self.engine.crash_shard(id)
    }

    /// Crash repair: each orphaned subtree re-enters through the
    /// insertion protocol (`Engine::send_orphan`), one orphan per
    /// quiescence.
    pub fn repair_tree(&mut self) -> RepairReport {
        let report = self.engine.repair_scan();
        for orphan in &report.reattached {
            self.engine.send_orphan(&mut self.driver, orphan.clone());
            self.driver
                .quiesce(&mut self.engine)
                .expect("repair traffic is reliable-class");
        }
        report
    }

    /// One self-healing anti-entropy pass (`protocol::repair`): counts
    /// nodes whose live follower set is short of `min(k - 1, |P| - 1)`,
    /// garbage-collects stale copies, refreshes the follower
    /// bookkeeping, then — unless nothing is missing — kicks every peer
    /// with `SyncReplicas` so each re-clones its nodes along the ring.
    /// No-op at `k = 1`.
    pub fn anti_entropy(&mut self) -> Result<AntiEntropyReport> {
        let (mut report, kicked) = self.engine.anti_entropy_scan(&mut self.driver);
        if !kicked {
            return Ok(report);
        }
        let before = self.engine.repl_stats.replication_messages;
        self.driver.quiesce(&mut self.engine)?;
        report.messages_sent = (self.engine.repl_stats.replication_messages - before) as usize;
        Ok(report)
    }

    /// Moves one node to another peer. Used by the balancers; counted
    /// as balance traffic.
    pub fn migrate_node(&mut self, label: &Key, to: &Key) -> Result<()> {
        self.engine.migrate_shard_node(label, to)?;
        self.settle()
    }

    /// Moves the nodes of `from` whose labels `pick` selects to `to` as
    /// one run ([`Engine::migrate_run`]), then settles once. Returns
    /// how many moved.
    pub(crate) fn migrate_run(
        &mut self,
        from: &Key,
        to: &Key,
        pick: impl FnMut(&Key) -> bool,
    ) -> Result<usize> {
        let moved = self.engine.migrate_run(from, to, pick)?;
        self.settle()?;
        Ok(moved)
    }

    /// Changes a peer's identifier in place (the MLT boundary move:
    /// "finding the best distribution is equivalent to find the best
    /// position of P moving along the ring").
    pub fn rename_peer(&mut self, old: &Key, new: Key) -> Result<()> {
        if old == &new {
            return Ok(());
        }
        self.config.alphabet.validate(&new)?;
        self.engine.rename_shard(old, new)?;
        self.settle()
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Registers a service key, entering the tree at a random node
    /// (Algorithm 3). The first registration has no tree to route
    /// through: its node becomes the root on the peer the mapping rule
    /// designates.
    pub fn insert_data(&mut self, key: impl Into<Key>) -> Result<()> {
        let key = key.into();
        self.config.alphabet.validate(&key)?;
        if self.engine.peer_count() == 0 {
            return Err(DlptError::EmptyRing);
        }
        match self.random_node() {
            Some(entry) => {
                let env = Envelope::to_node(entry, NodeMsg::DataInsertion { key });
                self.driver.inject(&mut self.engine, env);
            }
            None => self.engine.install_root(key),
        }
        self.settle()
    }

    /// Deregisters a service key (extension over the paper — see
    /// `protocol::data_removal`). Nodes left redundant dissolve, so the
    /// overlay keeps converging to the sequential oracle of the
    /// remaining keys. No-op if the key is absent.
    pub fn remove_data(&mut self, key: &Key) -> Result<()> {
        if self.engine.peer_count() == 0 {
            return Err(DlptError::EmptyRing);
        }
        let Some(entry) = self.random_node() else {
            return Ok(()); // empty tree: nothing registered
        };
        let env = Envelope::to_node(entry, NodeMsg::DataRemoval { key: key.clone() });
        self.driver.inject(&mut self.engine, env);
        self.settle()
    }

    /// Issues a discovery request from a random entry node and runs it
    /// to completion.
    pub fn request(&mut self, query: QueryKind) -> Result<LookupOutcome> {
        let entry = self.random_node().ok_or(DlptError::EmptyTree)?;
        self.request_from(&entry, query)
    }

    /// Issues a discovery request from a chosen entry node. Cache
    /// consultation, shortcut learning and scatter/gather aggregation
    /// are the engine's ([`Engine::begin_request`]).
    pub fn request_from(&mut self, entry: &Key, query: QueryKind) -> Result<LookupOutcome> {
        let (id, mut env) = self.engine.begin_request(entry, query)?;
        loop {
            self.driver.inject(&mut self.engine, env);
            self.driver.quiesce(&mut self.engine)?;
            if let Some(out) = self.engine.take_finished(id) {
                return Ok(out);
            }
            // Not finalized at quiescence — a response was lost, or the
            // request is judged late: re-send the origin while the
            // engine's retry policy says so, then take the verdict,
            // which is the explicit failure if a branch is still
            // stranded. A request never hangs and never silently
            // vanishes.
            match self.engine.retry_origin(id) {
                Some(origin) => env = origin,
                None => return Ok(self.engine.finish_request(id)),
            }
        }
    }

    /// Runs a batch of discovery requests: [`Overlay::request`] once per
    /// query, in order, stopping at the first error. Outcomes are
    /// returned in input order. `workers` is accepted and ignored; the
    /// signature stays because the repo benchmark calls it.
    pub fn discover_batch(
        &mut self,
        queries: Vec<QueryKind>,
        _workers: usize,
    ) -> Result<Vec<LookupOutcome>> {
        queries.into_iter().map(|q| self.request(q)).collect()
    }

    /// Exact lookup of one key.
    pub fn lookup(&mut self, key: &Key) -> LookupOutcome {
        self.request(QueryKind::Exact(key.clone()))
            .unwrap_or_else(|_| empty_outcome())
    }

    /// Range query over `[lo, hi]`.
    pub fn range(&mut self, lo: &Key, hi: &Key) -> LookupOutcome {
        self.request(QueryKind::range(lo.clone(), hi.clone()))
            .unwrap_or_else(|_| empty_outcome())
    }

    /// Automatic completion of a partial search string.
    pub fn complete(&mut self, prefix: &Key) -> LookupOutcome {
        self.request(QueryKind::Complete(prefix.clone()))
            .unwrap_or_else(|_| empty_outcome())
    }
}
