//! Experiment configuration: every knob of the Section-4 loop.

use dlpt_core::alphabet::Alphabet;
use dlpt_core::balance::{KChoices, LoadBalancer, MaxLocalThroughput, NoBalancing};
use dlpt_core::key::Key;
use dlpt_workloads::churn::ChurnModel;
use dlpt_workloads::corpus::Corpus;
use dlpt_workloads::popularity::{HotspotSchedule, Phase, Popularity, Uniform, Zipf};
use rand::RngCore;

/// Which load-balancing strategy a run uses (the three curves of
/// Figures 4–8).
#[derive(Debug, Clone, PartialEq)]
pub enum LbKind {
    /// "No LB".
    None,
    /// "MLT enabled": the given fraction of peers rebalance per unit.
    Mlt {
        /// Fraction of peers running MLT each unit.
        fraction: f64,
    },
    /// "KC enabled" with the given number of candidates (paper: 4).
    Kc {
        /// Candidates evaluated per join.
        k: usize,
    },
}

impl LbKind {
    /// Instantiates the strategy.
    pub fn build(&self) -> Box<dyn LoadBalancer> {
        match self {
            LbKind::None => Box::new(NoBalancing),
            LbKind::Mlt { fraction } => Box::new(MaxLocalThroughput::with_fraction(*fraction)),
            LbKind::Kc { k } => Box::new(KChoices::with_k(*k)),
        }
    }

    /// Curve label used in charts and CSV headers.
    pub fn label(&self) -> &'static str {
        match self {
            LbKind::None => "NoLB",
            LbKind::Mlt { .. } => "MLT",
            LbKind::Kc { .. } => "KC",
        }
    }
}

/// How requests pick targets.
#[derive(Debug, Clone, PartialEq)]
pub enum PopKind {
    /// "services requested were randomly picked among the set of
    /// available services".
    Uniform,
    /// Zipf-skewed popularity (ablation).
    Zipf(f64),
    /// The Figure 8 hot-spot timeline with the given burst intensity.
    Figure8 {
        /// Fraction of burst-phase requests aimed at the hot prefix.
        hot_fraction: f64,
    },
    /// A single sustained hot-prefix phase (figC): uniform traffic
    /// until `from`, then `fraction` of requests aimed at keys
    /// extending `prefix` for the rest of the horizon.
    HotPrefix {
        /// The hot lexicographic region.
        prefix: String,
        /// Fraction of burst-phase requests aimed at it.
        fraction: f64,
        /// First unit of the burst phase.
        from: u32,
    },
}

impl PopKind {
    /// Instantiates the model.
    pub fn build(&self) -> Box<dyn Popularity> {
        match self {
            PopKind::Uniform => Box::new(Uniform),
            PopKind::Zipf(s) => Box::new(Zipf::new(*s)),
            PopKind::Figure8 { hot_fraction } => Box::new(HotspotSchedule::figure8(*hot_fraction)),
            PopKind::HotPrefix {
                prefix,
                fraction,
                from,
            } => Box::new(HotspotSchedule::new(vec![
                Phase::uniform(0, *from),
                Phase::burst(*from, u32::MAX, prefix.as_str(), *fraction),
            ])),
        }
    }
}

/// Which corpus the tree is built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusKind {
    /// The full grid corpus (≈1000 routine names) — the paper's setup.
    Grid,
    /// A deterministic spread sample of the grid corpus (scaled-down
    /// benches).
    GridSubset(usize),
}

impl CorpusKind {
    /// Materializes the key set. No corpus draws from `_rng`; the
    /// parameter stays because the repo benchmark passes one.
    pub fn build(&self, _rng: &mut dyn RngCore) -> Vec<Key> {
        match self {
            CorpusKind::Grid => Corpus::grid().keys,
            CorpusKind::GridSubset(n) => Corpus::grid().take_spread(*n),
        }
    }

    /// The digit alphabet matching the corpus.
    pub fn alphabet(&self) -> Alphabet {
        Alphabet::grid()
    }
}

/// A healable network partition scheduled within a run (fault
/// extension, `figA`): frames addressed to keys in `[lo, hi)` are
/// severed from unit `from` (inclusive) until unit `until`
/// (exclusive), then the cut heals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Lower bound (inclusive) of the severed key range.
    pub lo: String,
    /// Upper bound (exclusive) of the severed key range.
    pub hi: String,
    /// First time unit with the partition in place.
    pub from: u32,
    /// First time unit after the partition heals.
    pub until: u32,
}

/// Full description of one experiment (one curve of one figure).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Name used in file names and chart titles.
    pub name: String,
    /// Peers bootstrapped before unit 0 (paper: ~100).
    pub peers: usize,
    /// Key corpus (paper: routine names, tree ≈ 1000 nodes).
    pub corpus: CorpusKind,
    /// Simulated time units (Figures 4–7: 50; Figures 8–9: 160).
    pub time_units: u32,
    /// Units over which the corpus is registered ("the first 10 units
    /// correspond to the period where the prefix tree is growing").
    pub growth_units: u32,
    /// Load: offered work per unit as a fraction of the aggregated
    /// peer capacity (Table 1's row labels). In the paper's
    /// terminology every routing hop is a request *received* by a
    /// peer, so a discovery that traverses `h` nodes offers `h` units
    /// of work; the number of discoveries issued per unit is
    /// `load * Σ capacity / route_cost`.
    pub load: f64,
    /// Mean peer-visits one discovery costs (entry + up + down),
    /// used to convert `load` into a request count. Calibrated from
    /// measured logical route lengths on the grid corpus (≈ 9).
    pub route_cost: f64,
    /// Capacity of the weakest peer.
    pub base_capacity: u32,
    /// Max/min capacity ratio (paper: 4).
    pub capacity_ratio: u32,
    /// Churn model (stable vs dynamic network).
    pub churn: ChurnModel,
    /// Load-balancing strategy.
    pub lb: LbKind,
    /// Popularity model.
    pub popularity: PopKind,
    /// Seeded runs to average (30/50/100 in the paper).
    pub runs: usize,
    /// Base seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Digits per random peer identifier.
    pub peer_id_len: usize,
    /// Also compute Figure 9's random-mapping physical hops (costs one
    /// hash per path node per request).
    pub track_mapping_hops: bool,
    /// Replication factor `k` (replication extension, `figR`): each
    /// tree node lives on its primary plus `k - 1` ring-successor
    /// followers. `1` (the default) reproduces the paper's
    /// single-copy system byte-identically.
    pub replication: usize,
    /// Run the self-healing anti-entropy pass once per time unit
    /// (after the churn step). Only meaningful at `replication > 1`.
    pub anti_entropy: bool,
    /// Per-peer routing-shortcut cache capacity (caching extension,
    /// `figC`): hot query targets learned from completed discoveries
    /// route in one hop instead of the O(depth) up/down climb. `0`
    /// (the default) reproduces the uncached system byte-identically.
    pub cache_capacity: usize,
    /// Also record the per-depth visit histogram of satisfied routes
    /// (costs one O(nodes) depth map per unit plus one map probe per
    /// visited label) — the figC evidence that shortcuts relieve the
    /// upper tree.
    pub track_depth_hist: bool,
    /// Unread: nothing in the workspace looks at it, and discovery is
    /// always the one-at-a-time `request` loop. It stays because the
    /// repo benchmark's replica asserts it is `1`; it goes with the
    /// benchmark adapter (ROADMAP item 4(c)).
    pub workers: usize,
    /// Probability that a faultable message (discovery, client
    /// response) is lost in transit (fault
    /// extension, `figA`). `0.0` (the default) keeps the transport
    /// byte-identical to the fault-free system.
    pub loss_rate: f64,
    /// Probability that a faultable message is delivered twice.
    pub dup_rate: f64,
    /// Scheduled healable partition; `None` (the default) for a fully
    /// connected network.
    pub partition: Option<PartitionSpec>,
    /// Collect a [`dlpt_core::HealthSnapshot`] at every unit boundary
    /// (observability extension, `dlpt-core::obs::health`) and expose
    /// the per-run JSONL time series on [`crate::run::RunResult`].
    /// `false` (the default) skips collection entirely — snapshots are
    /// a pure read, so either setting leaves every simulated metric
    /// byte-identical.
    pub health_snapshots: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            name: "baseline".into(),
            peers: 100,
            corpus: CorpusKind::Grid,
            time_units: 50,
            growth_units: 10,
            load: 0.10,
            route_cost: 9.0,
            base_capacity: 10,
            capacity_ratio: 4,
            churn: ChurnModel::stable(),
            lb: LbKind::None,
            popularity: PopKind::Uniform,
            runs: 30,
            base_seed: 0x0D1B,
            peer_id_len: 12,
            track_mapping_hops: false,
            replication: 1,
            anti_entropy: false,
            cache_capacity: 0,
            track_depth_hist: false,
            workers: 1,
            loss_rate: 0.0,
            dup_rate: 0.0,
            partition: None,
            health_snapshots: false,
        }
    }
}

impl ExperimentConfig {
    /// Scales the experiment down by `factor` (fewer peers, keys and
    /// runs) for fast benches; load and dynamics stay put.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        let f = factor.max(1);
        self.peers = (self.peers / f).max(8);
        self.runs = (self.runs / f).max(2);
        self.corpus = match self.corpus {
            CorpusKind::Grid => CorpusKind::GridSubset((1000 / f).max(50)),
            CorpusKind::GridSubset(n) => CorpusKind::GridSubset((n / f).max(50)),
        };
        self.time_units = (self.time_units / f as u32).max(10);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lb_kinds_build_and_label() {
        assert_eq!(LbKind::None.label(), "NoLB");
        assert_eq!(LbKind::Mlt { fraction: 1.0 }.label(), "MLT");
        assert_eq!(LbKind::Kc { k: 4 }.label(), "KC");
        assert_eq!(LbKind::None.build().name(), "none");
        assert_eq!(LbKind::Mlt { fraction: 0.5 }.build().name(), "MLT");
        assert_eq!(LbKind::Kc { k: 4 }.build().name(), "KC");
    }

    #[test]
    fn corpus_kinds_materialize() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(CorpusKind::Grid.build(&mut rng).len() > 800);
        assert_eq!(CorpusKind::GridSubset(100).build(&mut rng).len(), 100);
    }

    #[test]
    fn scaled_down_shrinks_but_stays_valid() {
        let cfg = ExperimentConfig::default().scaled_down(5);
        assert_eq!(cfg.peers, 20);
        assert_eq!(cfg.runs, 6);
        assert_eq!(cfg.time_units, 10);
        assert!(matches!(cfg.corpus, CorpusKind::GridSubset(200)));
        assert_eq!(cfg.load, 0.10, "load is preserved");
    }
}
