//! Service discovery routing (Section 2 of the paper).
//!
//! "When a discovery request sent by a client enters the tree, on a
//! random node, the request moves upward until reaching a node whose
//! subtree contains the requested node and then moves \[downward\] to
//! this node. The DLPT system supports range queries and automatic
//! completion of partial search strings."
//!
//! Exact queries terminate at the node owning the key. Range and
//! completion queries route to the node *covering* the query's target
//! region (the GCP of the range bounds, resp. the partial string) and
//! then scatter over the covered subtree; every visited node reports
//! its matches directly to the client together with the number of
//! children it forwarded to, and the runtime aggregates until the
//! counter drains.
//!
//! Hop accounting: a node appends its label to the request's path
//! exactly once per visit; phase transitions are processed in place so
//! a visit costs one message. The hosting peer's capacity is charged by
//! the runtime at delivery (Section 4's model: requests arriving at an
//! exhausted peer are ignored).

use crate::key::Key;
use crate::messages::{DiscoveryMsg, DiscoveryOutcome, Envelope, NodeMsg, QueryKind, RoutePhase};
use crate::node::{Link, NodeState};
use crate::peer::PeerShard;
use crate::protocol::Effects;

/// Where one up/down visit sends the request next. Borrows only the
/// node, so the decision outlives the target it was taken against.
/// Children are named by their index in the node's child set.
enum Route<'a> {
    /// This node does not cover the target: climb to the father.
    Up(&'a Key),
    /// This node's label is the target.
    Here,
    /// Stay on the target's path: descend to this child.
    Down(usize),
    /// The target's own node does not exist, but this child's whole
    /// subtree extends the target region.
    Below(usize),
    /// Only reachable at the root: the target region starts above the
    /// whole tree, so the root's subtree is the covered region.
    Above,
    /// The target region is disjoint from every registered key: a
    /// child shares a longer prefix but diverges before the target,
    /// nothing extends it, or (root case) the labels diverge.
    Empty,
}

/// The downward decision at `node` for a query whose routing target is
/// `target`. The node is only inspected.
fn route_down<'a>(node: &'a NodeState, target: &Key) -> Route<'a> {
    if node.label == *target {
        Route::Here
    } else if node.label.is_proper_prefix_of(target) {
        match node.child_extending_at(target) {
            Some(i) if node.children()[i].is_prefix_of(target) => Route::Down(i),
            Some(i) if target.is_proper_prefix_of(&node.children()[i]) => Route::Below(i),
            _ => Route::Empty,
        }
    } else if target.is_proper_prefix_of(&node.label) {
        Route::Above
    } else {
        Route::Empty
    }
}

/// The routing core, over a borrowed node state: one visit of `msg`
/// at `node`. The node is only read, so the capacity-failover path can
/// serve the same visit from a follower replica copy
/// (`protocol::repair`). Returns the label the request moves on to —
/// up to the father, down to a child, or below the target into a
/// gather — and the link it followed, with `msg` rewritten for that
/// hop, so a caller that owns the message can forward it without
/// building an envelope. Every other output (reports, gather branches)
/// goes to `fx`, ahead of the forward. A visit that ends the route
/// returns `None` and leaves `msg` spent: its path has moved into the
/// report.
pub fn route_visit(
    node: &NodeState,
    msg: &mut DiscoveryMsg,
    fx: &mut Effects,
) -> Option<(Key, Link)> {
    // Gather-phase branch visits push no label: their envelopes
    // deliberately carry an empty path (the aggregator counts each
    // partial as one visit via `len().max(1)`, and a one-label branch
    // path can never beat the root report's routed path for
    // `best_path`), so pushing into that empty vector would be the
    // fan-out's only allocation.
    if matches!(msg.phase, RoutePhase::Gather) {
        gather(node, msg, fx);
        return None;
    }
    // One label per visit, for hop accounting.
    msg.path.push(node.label.clone());
    // One target serves the whole visit, borrowed from the query (only
    // a range computes one); the decision is taken before the message
    // is rewritten, so no hop clones it.
    let route = {
        let target = msg.query.target();
        match node.father() {
            Some(f) if msg.phase == RoutePhase::Up && !node.label.is_prefix_of(&target) => {
                Route::Up(f)
            }
            // This node covers the target's region (or is the root),
            // or the request is already descending.
            _ => route_down(node, &target),
        }
    };
    let exact = matches!(msg.query, QueryKind::Exact(_));
    // The single clone below is the label the next hop is addressed
    // to (inline: a memcpy).
    let child = |i: usize| Some((node.children()[i].clone(), Link::Child(i as u32)));
    match route {
        Route::Up(f) => return Some((f.clone(), Link::Father)),
        Route::Down(i) => {
            msg.phase = RoutePhase::Down;
            return child(i);
        }
        Route::Here => at_covering_node(node, msg, fx),
        Route::Below(_) | Route::Above | Route::Empty if exact => finish_exact(msg, false, fx),
        Route::Below(i) => {
            msg.phase = RoutePhase::Gather;
            // The down-phase walk is complete; report it so the
            // aggregator owns the full route, and treat the forward as
            // one outstanding branch.
            let report = DiscoveryOutcome {
                request_id: msg.request_id,
                satisfied: true,
                dropped: false,
                results: Vec::new(),
                path: std::mem::take(&mut msg.path),
                pending_children: 1,
            };
            fx.send(Envelope::to_client(report.request_id, report));
            return child(i);
        }
        Route::Above => at_covering_node(node, msg, fx),
        Route::Empty => finish_empty_region(msg, fx),
    }
    None
}

/// [`route_visit`] for callers that hand the forward to a queue: the
/// next hop, if any, becomes an envelope in `fx` behind the visit's
/// other output.
pub fn on_discovery_at(node: &NodeState, mut msg: DiscoveryMsg, fx: &mut Effects) {
    if let Some((next, _)) = route_visit(node, &mut msg, fx) {
        fx.send(Envelope::to_node(next, NodeMsg::Discovery(msg)));
    }
}

/// The request reached the node covering its target region.
fn at_covering_node(node: &NodeState, msg: &mut DiscoveryMsg, fx: &mut Effects) {
    match &msg.query {
        QueryKind::Exact(k) => {
            let found = node.data.contains(k);
            finish_exact(msg, found, fx);
        }
        _ => {
            // Start the scatter here; this visit is already paid for,
            // so run the gather step inline.
            msg.phase = RoutePhase::Gather;
            gather(node, msg, fx);
        }
    }
}

/// Terminal report for an exact query.
fn finish_exact(msg: &mut DiscoveryMsg, found: bool, fx: &mut Effects) {
    let key = match &msg.query {
        QueryKind::Exact(k) => k.clone(),
        _ => unreachable!("finish_exact on non-exact query"),
    };
    let outcome = DiscoveryOutcome {
        request_id: msg.request_id,
        satisfied: found,
        dropped: false,
        results: if found { vec![key] } else { Vec::new() },
        path: std::mem::take(&mut msg.path),
        pending_children: 0,
    };
    fx.send(Envelope::to_client(outcome.request_id, outcome));
}

/// Terminal report for a range/completion query whose target region is
/// provably empty. The walk still "reached its final destination" in
/// the paper's sense — there was nothing to find.
fn finish_empty_region(msg: &mut DiscoveryMsg, fx: &mut Effects) {
    let outcome = DiscoveryOutcome {
        request_id: msg.request_id,
        satisfied: true,
        dropped: false,
        results: Vec::new(),
        path: std::mem::take(&mut msg.path),
        pending_children: 0,
    };
    fx.send(Envelope::to_client(outcome.request_id, outcome));
}

/// Scatter phase of range/completion queries: report local matches and
/// fan out to the children whose subtrees can intersect the query.
///
/// The node is only inspected; branch envelopes are emitted directly
/// from the borrowed child set (no staging `Vec`, one extra counting
/// pass over the few children instead), and the visit path is moved —
/// not cloned — into the partial report. The report MUST precede the
/// branch forwards: the aggregator finalizes eagerly when its
/// outstanding counter drains, so a branch whose visit is refused
/// synchronously (capacity drop) would otherwise finalize the request
/// before this node's `pending_children` raise the counter, discarding
/// every surviving result as stale.
fn gather(node: &NodeState, msg: &mut DiscoveryMsg, fx: &mut Effects) {
    let results: Vec<Key> = node
        .data
        .iter()
        .filter(|k| msg.query.matches(k))
        .cloned()
        .collect();
    // Single pass over the children: emit the branch envelopes, then
    // splice the report in *front* of them (the aggregator must see
    // `pending_children` before any branch outcome, see above). The
    // splice shifts at most fan-out envelopes — cheaper than running
    // the prune predicate twice.
    let mark = fx.out.len();
    for c in node.children().iter() {
        if !subtree_may_match(&msg.query, c) {
            continue;
        }
        let branch = DiscoveryMsg {
            request_id: msg.request_id,
            query: msg.query.clone(),
            phase: RoutePhase::Gather,
            path: Vec::new(), // branch visits are counted via partials
        };
        fx.send(Envelope::to_node(c.clone(), NodeMsg::Discovery(branch)));
    }
    let pending_children = (fx.out.len() - mark) as u32;
    let outcome = DiscoveryOutcome {
        request_id: msg.request_id,
        satisfied: true,
        dropped: false,
        results,
        path: std::mem::take(&mut msg.path),
        pending_children,
    };
    fx.out
        .insert(mark, Envelope::to_client(outcome.request_id, outcome));
}

/// Conservative pruning: can the subtree rooted at `child` contain a
/// key matching the query? Subtree keys all have `child` as prefix.
fn subtree_may_match(query: &QueryKind, child: &Key) -> bool {
    match query {
        QueryKind::Exact(k) => child.is_prefix_of(k),
        QueryKind::Range(r) => {
            let (lo, hi) = &**r;
            // All subtree keys are >= child and start with child.
            if child > hi {
                return false;
            }
            // If child < lo, only keys extending toward lo can reach
            // the range; that requires child to prefix lo.
            child >= lo || child.is_prefix_of(lo)
        }
        QueryKind::Complete(p) => {
            // Subtree keys extend `child`; they can extend `p` iff the
            // two are prefix-comparable.
            p.is_prefix_of(child) || child.is_prefix_of(p)
        }
    }
}

/// Builds the entry envelope for a fresh discovery request; used by
/// runtimes.
pub fn entry_envelope(entry_node: Key, request_id: u64, query: QueryKind) -> Envelope {
    Envelope::to_node(
        entry_node,
        NodeMsg::Discovery(DiscoveryMsg {
            request_id,
            query,
            phase: RoutePhase::Up,
            // Pre-sized for the up/down route of a corpus-scale tree:
            // one allocation per request, regardless of hop count.
            path: Vec::with_capacity(16),
        }),
    )
}

/// Result of [`deliver_visit`]. The message stays with the caller,
/// so refusals carry nothing: it can requeue or report a drop from
/// what it already holds.
pub enum VisitGate {
    /// The node is not hosted here (hand-off in flight): retry later.
    Missing,
    /// Charged and routed; the next hop's label and link, as
    /// [`route_visit`] returned them.
    Delivered(Option<(Key, Link)>),
    /// The peer's capacity is exhausted; offered load was recorded but
    /// the request must be ignored (Section 4's model).
    Dropped,
}

/// One-lookup delivery for the runtime hot path: a single `nodes`
/// lookup — `slot` is the hint, and comes back as the node's slot —
/// serves the existence check, the capacity charge and the routing
/// visit itself. This is the one statement of the capacity model's
/// charging rule (Section 4): a visit to a hosted node counts toward
/// its offered load `l_n` — demand, so refused visits count too — and
/// consumes one unit of the peer's capacity; an exhausted peer ignores
/// the visit. A node that is not hosted here charges nothing.
#[inline]
pub fn deliver_visit(
    shard: &mut PeerShard,
    node_label: &Key,
    slot: &mut u32,
    msg: &mut DiscoveryMsg,
    fx: &mut Effects,
) -> VisitGate {
    let Some(found) = shard.nodes.find(node_label, *slot) else {
        return VisitGate::Missing;
    };
    *slot = found;
    let node = shard.nodes.at_mut(found);
    node.load += 1;
    if !shard.peer.try_accept() {
        return VisitGate::Dropped;
    }
    VisitGate::Delivered(route_visit(node, msg, fx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Address, Message};
    use crate::node::NodeState;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    /// Builds the Figure-1(a) tree on a single shard.
    fn paper_shard() -> PeerShard {
        let mut s = PeerShard::new(k("zz"), 1000);
        let spec: &[(&str, Option<&str>, &[&str], bool)] = &[
            ("", None, &["01", "101"], false),
            ("01", Some(""), &[], true),
            ("101", Some(""), &["10101", "10111"], false),
            ("10101", Some("101"), &[], true),
            ("10111", Some("101"), &["101111"], true),
            ("101111", Some("10111"), &[], true),
        ];
        for (label, father, children, has_data) in spec {
            let mut n = NodeState::new(k(label));
            n.set_father(father.map(k));
            for c in *children {
                n.add_child(k(c));
            }
            if *has_data {
                n.add_datum(k(label));
            }
            s.install(n);
        }
        s
    }

    fn msg(query: QueryKind, phase: RoutePhase) -> DiscoveryMsg {
        DiscoveryMsg {
            request_id: 7,
            query,
            phase,
            path: Vec::new(),
        }
    }

    fn client_outcomes(fx: &Effects) -> Vec<&DiscoveryOutcome> {
        fx.out
            .iter()
            .filter_map(|e| match &e.msg {
                Message::ClientResponse(o) => Some(o),
                _ => None,
            })
            .collect()
    }

    /// Drives a request to completion on a single shard, aggregating
    /// like the runtime does. Returns (satisfied, results, down-path,
    /// total visits).
    fn run_to_completion(
        s: &mut PeerShard,
        entry: &str,
        query: QueryKind,
    ) -> (bool, Vec<Key>, Vec<Key>, usize) {
        let mut queue = vec![(k(entry), msg(query, RoutePhase::Up))];
        let mut results = Vec::new();
        let mut down_path = Vec::new();
        let mut visits = 0usize;
        let mut outstanding = 1i64;
        let mut satisfied = true;
        while let Some((label, m)) = queue.pop() {
            let mut fx = Effects::default();
            on_discovery_at(&s.nodes[&label], m, &mut fx);
            for e in fx.out {
                match e.msg {
                    Message::ClientResponse(o) => {
                        outstanding += o.pending_children as i64 - 1;
                        satisfied &= o.satisfied;
                        results.extend(o.results);
                        visits += o.path.len().max(1);
                        if o.path.len() > down_path.len() {
                            down_path = o.path;
                        }
                    }
                    Message::Node(NodeMsg::Discovery(m2)) => {
                        if let Address::Node(l) = e.to {
                            queue.push((l, m2));
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(outstanding, 0, "aggregation must drain");
        results.sort();
        (satisfied, results, down_path, visits)
    }

    #[test]
    fn exact_lookup_up_then_down() {
        let mut s = paper_shard();
        let (sat, results, path, _) =
            run_to_completion(&mut s, "01", QueryKind::Exact(k("101111")));
        assert!(sat);
        assert_eq!(results, vec![k("101111")]);
        assert_eq!(
            path,
            vec![k("01"), Key::epsilon(), k("101"), k("10111"), k("101111")]
        );
    }

    #[test]
    fn exact_lookup_of_structural_label_is_unsatisfied() {
        let mut s = paper_shard();
        let (sat, results, _, _) = run_to_completion(&mut s, "01", QueryKind::Exact(k("101")));
        assert!(!sat, "structural node holds no data");
        assert!(results.is_empty());
    }

    #[test]
    fn exact_lookup_missing_key() {
        let mut s = paper_shard();
        let (sat, results, _, _) = run_to_completion(&mut s, "10101", QueryKind::Exact(k("111")));
        assert!(!sat);
        assert!(results.is_empty());
    }

    #[test]
    fn completion_gathers_subtree() {
        let mut s = paper_shard();
        let (sat, results, _, _) = run_to_completion(&mut s, "01", QueryKind::Complete(k("101")));
        assert!(sat);
        assert_eq!(results, vec![k("10101"), k("10111"), k("101111")]);
    }

    #[test]
    fn completion_with_target_between_nodes() {
        // "1011" has no node; covering child 10111 extends it.
        let mut s = paper_shard();
        let (sat, results, _, _) = run_to_completion(&mut s, "01", QueryKind::Complete(k("1011")));
        assert!(sat);
        assert_eq!(results, vec![k("10111"), k("101111")]);
    }

    #[test]
    fn completion_of_absent_prefix_is_empty() {
        let mut s = paper_shard();
        let (sat, results, _, _) = run_to_completion(&mut s, "10101", QueryKind::Complete(k("11")));
        assert!(sat, "reached the region; provably empty");
        assert!(results.is_empty());
    }

    #[test]
    fn range_query_collects_interval() {
        let mut s = paper_shard();
        let (sat, results, _, _) =
            run_to_completion(&mut s, "01", QueryKind::range(k("10"), k("10111")));
        assert!(sat);
        assert_eq!(results, vec![k("10101"), k("10111")]);
    }

    #[test]
    fn range_query_covering_everything() {
        let mut s = paper_shard();
        let (sat, results, _, _) =
            run_to_completion(&mut s, "10111", QueryKind::range(k("0"), k("2")));
        assert!(sat);
        assert_eq!(results, vec![k("01"), k("10101"), k("10111"), k("101111")]);
    }

    #[test]
    fn gather_reports_pending_children() {
        let s = paper_shard();
        let mut fx = Effects::default();
        on_discovery_at(
            &s.nodes[&k("101")],
            msg(QueryKind::Complete(k("101")), RoutePhase::Gather),
            &mut fx,
        );
        let outs = client_outcomes(&fx);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].pending_children, 2, "forwards to 10101 and 10111");
    }

    #[test]
    fn charge_visit_counts_demand_even_when_dropped() {
        let mut s = paper_shard();
        s.peer.capacity = 1;
        let mut fx = Effects::default();
        let mut visit = |s: &mut PeerShard, label: &str| {
            let (mut m, mut hint) = (msg(QueryKind::Exact(k("101")), RoutePhase::Up), u32::MAX);
            deliver_visit(s, &k(label), &mut hint, &mut m, &mut fx)
        };
        assert!(matches!(visit(&mut s, "101"), VisitGate::Delivered(None)));
        assert!(
            matches!(visit(&mut s, "101"), VisitGate::Dropped),
            "capacity exhausted"
        );
        assert_eq!(s.nodes[&k("101")].load, 2, "offered load counts drops");
        assert_eq!(s.peer.dropped_this_unit, 1);
        // An absent node charges nothing, not even the peer.
        assert!(matches!(visit(&mut s, "zzz"), VisitGate::Missing));
        assert_eq!(s.peer.dropped_this_unit, 1);
    }

    #[test]
    fn subtree_pruning() {
        assert!(subtree_may_match(&QueryKind::Complete(k("10")), &k("101")));
        assert!(subtree_may_match(
            &QueryKind::Complete(k("1011")),
            &k("101")
        ));
        assert!(!subtree_may_match(&QueryKind::Complete(k("11")), &k("101")));
        assert!(subtree_may_match(
            &QueryKind::range(k("10"), k("11")),
            &k("101")
        ));
        assert!(!subtree_may_match(
            &QueryKind::range(k("102"), k("11")),
            &k("101")
        ));
        assert!(subtree_may_match(
            &QueryKind::range(k("1010"), k("1011")),
            &k("101")
        ));
    }
}
