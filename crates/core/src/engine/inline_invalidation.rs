//! Inline termination ≡ the message path (ISSUE 12).
//!
//! On a synchronous transport [`Engine::queue_invalidations`] applies
//! an eager invalidation to every peer's cache on the spot; everywhere
//! else it sends one `InvalidateCached` per peer. The claim is that the
//! shortcut changes nothing observable. This drives one seeded plan —
//! registration churn, Zipf-skewed lookups, joins, leaves and
//! `migrate_node` — through the sync pump twice: on the plain
//! `FifoTransport`, and behind a fault gate that can drop nothing (a
//! partition over the empty key range `[ε, ε)` arms the gate, which
//! rules inline work out, without severing any address). Outcomes,
//! counters and every peer's cache must agree.
//!
//! It lives inside the engine module because the per-peer caches are
//! private state.

use super::slab_props::key_pool;
use super::{Engine, LookupOutcome};
use crate::alphabet::Alphabet;
use crate::cache::{CacheStats, Shortcut};
use crate::key::Key;
use crate::metrics::SystemStats;
use crate::obs::health::Violation;
use crate::system::DlptSystem;
use crate::transport::FaultStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything the two runs must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<LookupOutcome>,
    stats: SystemStats,
    cache_stats: CacheStats,
    /// Per peer in ring order: its shortcuts in MRU order.
    caches: Vec<(Key, Vec<(Key, Shortcut)>)>,
    audit: Vec<Violation>,
    faults: FaultStats,
}

fn shortcuts_by_peer(e: &Engine) -> Vec<(Key, Vec<(Key, Shortcut)>)> {
    e.peer_ids()
        .into_iter()
        .map(|id| {
            let pid = e.directory.id_of(&id).expect("members are interned");
            let cache = &e.peers.get(pid).expect("members have slots").cache;
            let entries = cache
                .iter_shortcuts()
                .map(|(t, sc)| (t.clone(), sc.clone()))
                .collect();
            (id, entries)
        })
        .collect()
}

fn run_plan(seed: u64, message_path: bool) -> Observed {
    let pool = key_pool();
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::new(b"012", "inline"))
        .seed(seed)
        .peer_id_len(6)
        .cache_capacity(8) // small: LRU evictions interleave with invalidations
        .bootstrap_peers(16)
        .build();
    if message_path {
        sys.partition(Key::epsilon(), Key::epsilon());
    }
    let mut plan = StdRng::seed_from_u64(seed ^ 0x12);
    let mut registered: Vec<Key> = Vec::new();
    for k in pool.iter().step_by(2) {
        sys.insert_data(k.clone()).expect("registration");
        registered.push(k.clone());
    }
    // Zipf(1)-shaped rank: P(rank <= r) = ln(r + 1) / ln(n + 1).
    let zipf = |rng: &mut StdRng, n: usize| ((n + 1) as f64).powf(rng.gen::<f64>()) as usize - 1;
    let mut outcomes = Vec::new();
    for step in 0..700 {
        match plan.gen_range(0..100) {
            0..=44 => {
                let k = &pool[zipf(&mut plan, pool.len())];
                outcomes.push(sys.lookup(k));
            }
            45..=64 if registered.len() > 8 => {
                let k = registered.swap_remove(plan.gen_range(0..registered.len()));
                sys.remove_data(&k).expect("deregistration");
            }
            45..=84 => {
                let k = pool[plan.gen_range(0..pool.len())].clone();
                sys.insert_data(k.clone()).expect("registration");
                if !registered.contains(&k) {
                    registered.push(k);
                }
            }
            85..=89 => {
                sys.add_peer(u32::MAX).expect("join");
            }
            90..=94 if sys.peer_count() > 8 => {
                let peers = sys.peer_ids();
                let id = &peers[plan.gen_range(0..peers.len())];
                sys.leave_peer(id).expect("graceful leave");
            }
            _ => {
                // Off the mapping-rule host and back (the audit wants
                // the rule to hold at the end): two broadcasts, with
                // lookups against the moved node in between.
                let label = sys.random_node().expect("tree is never empty");
                let home = sys.host_of(&label).expect("live label").clone();
                let peers = sys.peer_ids();
                let away = &peers[plan.gen_range(0..peers.len())];
                sys.migrate_node(&label, away).expect("migration");
                for _ in 0..4 {
                    outcomes.push(sys.lookup(&label));
                }
                sys.migrate_node(&label, &home).expect("migration home");
            }
        }
        if step % 64 == 63 {
            sys.end_time_unit();
        }
    }
    Observed {
        outcomes,
        stats: sys.stats.clone(),
        cache_stats: sys.cache_stats.clone(),
        caches: shortcuts_by_peer(&sys),
        audit: sys.audit(),
        faults: sys.fault_stats(),
    }
}

#[test]
fn inline_termination_equals_the_message_path() {
    for seed in [12, 2008] {
        let inline = run_plan(seed, false);
        let queued = run_plan(seed, true);
        for run in [&inline, &queued] {
            let c = &run.cache_stats;
            assert!(c.invalidations_sent > 1000, "the plan must dissolve nodes");
            assert_eq!(c.invalidations_sent, c.invalidations_delivered);
            assert!(c.hits > 0 && c.stale_hits > 0 && c.learned > 0);
            assert!(run.caches.iter().any(|(_, entries)| !entries.is_empty()));
            assert_eq!(run.audit, Vec::new());
            assert_eq!(run.faults, FaultStats::default(), "nothing was lost");
        }
        assert_eq!(inline, queued, "seed {seed}");
    }
}
