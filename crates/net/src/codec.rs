//! Binary wire format for the DLPT protocol.
//!
//! Every [`Envelope`] encodes to a length-prefixed frame:
//!
//! ```text
//! [frame_len u32le] [address] [message]
//! ```
//!
//! with keys as `u16le` length then digits, collections as `u32le`
//! count then elements, and one tag byte per enum variant. The format is what
//! the threaded runtime puts on its channels (and what a deployment
//! would put on TCP); decoding is fully bounds-checked so a truncated
//! or corrupt frame yields an error, never a panic.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dlpt_core::key::{Key, KEY_INLINE_CAP};
use dlpt_core::messages::{
    Address, DiscoveryMsg, DiscoveryOutcome, Envelope, JoinPhase, Message, NodeMsg, NodeSeed,
    PeerMsg, QueryKind, RoutePhase,
};
use dlpt_core::node::{key_set, NodeState};

/// Decoding failure: truncated frame or unknown tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}
impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

#[cold]
#[inline(never)]
fn err<T>(what: &str) -> Result<T> {
    Err(CodecError(what.to_string()))
}

#[cold]
#[inline(never)]
fn truncated<T>(what: &str) -> Result<T> {
    Err(CodecError(format!("truncated {what}")))
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

#[inline]
fn put_key(buf: &mut BytesMut, k: &Key) {
    buf.put_u16_le(k.len() as u16);
    buf.put_slice(k.as_bytes());
}

fn put_opt_key(buf: &mut BytesMut, k: &Option<Key>) {
    match k {
        Some(k) => {
            buf.put_u8(1);
            put_key(buf, k);
        }
        None => buf.put_u8(0),
    }
}

fn put_keys<'a>(buf: &mut BytesMut, ks: impl ExactSizeIterator<Item = &'a Key>) {
    buf.put_u32_le(ks.len() as u32);
    for k in ks {
        put_key(buf, k);
    }
}

fn put_node_state(buf: &mut BytesMut, n: &NodeState) {
    put_key(buf, &n.label);
    put_opt_key(buf, &n.father);
    put_keys(buf, n.children.iter());
    put_keys(buf, n.data.iter());
    buf.put_u64_le(n.load);
    buf.put_u64_le(n.prev_load);
}

fn put_seed(buf: &mut BytesMut, s: &NodeSeed) {
    put_key(buf, &s.label);
    put_opt_key(buf, &s.father);
    put_keys(buf, s.children.iter());
    put_keys(buf, s.data.iter());
}

fn put_query(buf: &mut BytesMut, q: &QueryKind) {
    match q {
        QueryKind::Exact(k) => {
            buf.put_u8(0);
            put_key(buf, k);
        }
        QueryKind::Range(r) => {
            buf.put_u8(1);
            put_key(buf, &r.0);
            put_key(buf, &r.1);
        }
        QueryKind::Complete(p) => {
            buf.put_u8(2);
            put_key(buf, p);
        }
    }
}

fn put_discovery(buf: &mut BytesMut, d: &DiscoveryMsg) {
    buf.put_u64_le(d.request_id);
    put_query(buf, &d.query);
    buf.put_u8(match d.phase {
        RoutePhase::Up => 0,
        RoutePhase::Down => 1,
        RoutePhase::Gather => 2,
    });
    put_keys(buf, d.path.iter());
}

fn put_outcome(buf: &mut BytesMut, o: &DiscoveryOutcome) {
    buf.put_u64_le(o.request_id);
    buf.put_u8(u8::from(o.satisfied) | (u8::from(o.dropped) << 1));
    put_keys(buf, o.results.iter());
    put_keys(buf, o.path.iter());
    buf.put_u32_le(o.pending_children);
}

fn put_node_msg(buf: &mut BytesMut, m: &NodeMsg) {
    match m {
        NodeMsg::PeerJoin { joining, phase } => {
            buf.put_u8(0);
            put_key(buf, joining);
            buf.put_u8(match phase {
                JoinPhase::Up => 0,
                JoinPhase::Down => 1,
            });
        }
        NodeMsg::DataInsertion { key } => {
            buf.put_u8(1);
            put_key(buf, key);
        }
        NodeMsg::SearchingHost { seed } => {
            buf.put_u8(2);
            put_seed(buf, seed);
        }
        NodeMsg::UpdateChild { old, new } => {
            buf.put_u8(3);
            put_key(buf, old);
            put_key(buf, new);
        }
        NodeMsg::Discovery(d) => {
            buf.put_u8(4);
            put_discovery(buf, d);
        }
        NodeMsg::DataRemoval { key } => {
            buf.put_u8(5);
            put_key(buf, key);
        }
        NodeMsg::RemoveChild { child } => {
            buf.put_u8(6);
            put_key(buf, child);
        }
        NodeMsg::SetFather { father } => {
            buf.put_u8(7);
            put_opt_key(buf, father);
        }
        NodeMsg::Reattach { label } => {
            buf.put_u8(8);
            put_key(buf, label);
        }
    }
}

fn put_peer_msg(buf: &mut BytesMut, m: &PeerMsg) {
    match m {
        PeerMsg::NewPredecessor { joining } => {
            buf.put_u8(0);
            put_key(buf, joining);
        }
        PeerMsg::YourInformation { pred, succ, nodes } => {
            buf.put_u8(1);
            put_key(buf, pred);
            put_key(buf, succ);
            buf.put_u32_le(nodes.len() as u32);
            for n in nodes.iter() {
                put_node_state(buf, n);
            }
        }
        PeerMsg::UpdateSuccessor { succ } => {
            buf.put_u8(2);
            put_key(buf, succ);
        }
        PeerMsg::UpdatePredecessor { pred } => {
            buf.put_u8(3);
            put_key(buf, pred);
        }
        PeerMsg::Host { seed } => {
            buf.put_u8(4);
            put_seed(buf, seed);
        }
        PeerMsg::TakeOver { pred, nodes } => {
            buf.put_u8(5);
            put_key(buf, pred);
            buf.put_u32_le(nodes.len() as u32);
            for n in nodes {
                put_node_state(buf, n);
            }
        }
        PeerMsg::SyncReplicas { k } => {
            buf.put_u8(6);
            buf.put_u32_le(*k);
        }
        PeerMsg::Replicate { primary, ttl, seed } => {
            buf.put_u8(7);
            put_key(buf, primary);
            buf.put_u32_le(*ttl);
            put_seed(buf, seed);
        }
        PeerMsg::DropReplica { label } => {
            buf.put_u8(8);
            put_key(buf, label);
        }
    }
}

/// Encodes an envelope into a length-prefixed frame. The body is
/// written once into the final buffer and the length prefix patched in
/// afterwards — no staging buffer, no copy.
pub fn encode(env: &Envelope) -> Bytes {
    let mut frame = BytesMut::with_capacity(96);
    frame.put_u32_le(0); // placeholder, patched below
    match &env.to {
        Address::Peer(k) => {
            frame.put_u8(0);
            put_key(&mut frame, k);
        }
        Address::Node(k) => {
            frame.put_u8(1);
            put_key(&mut frame, k);
        }
        Address::Client(id) => {
            frame.put_u8(2);
            frame.put_u64_le(*id);
        }
    }
    match &env.msg {
        Message::Node(m) => {
            frame.put_u8(0);
            put_node_msg(&mut frame, m);
        }
        Message::Peer(m) => {
            frame.put_u8(1);
            put_peer_msg(&mut frame, m);
        }
        Message::ClientResponse(o) => {
            frame.put_u8(2);
            put_outcome(&mut frame, o);
        }
    }
    let body_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame.freeze()
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

#[inline]
fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        truncated(what)
    } else {
        Ok(())
    }
}

#[inline]
fn get_key(buf: &mut impl Buf) -> Result<Key> {
    // Fast path: length prefix and digits contiguous in the cursor —
    // one chunk read and one bounds check cover both, and the key is
    // built straight into its inline (SSO) representation with no
    // intermediate buffer or allocation for short keys. Slice cursors
    // (every runtime decodes whole frames) always take this path on
    // well-formed input.
    let chunk = buf.chunk();
    if chunk.len() >= 2 {
        let len = u16::from_le_bytes([chunk[0], chunk[1]]) as usize;
        if chunk.len() - 2 >= len {
            // Short keys with a full-width window in the cursor land
            // straight in the inline repr via a fixed-size copy (no
            // variable-length memcpy, no 32-byte staging move).
            let key = if len <= KEY_INLINE_CAP && chunk.len() >= 2 + KEY_INLINE_CAP {
                let window: &[u8; KEY_INLINE_CAP] = chunk[2..2 + KEY_INLINE_CAP]
                    .try_into()
                    .expect("checked width");
                Key::from_inline_window(window, len)
            } else {
                Key::from_slice(&chunk[2..2 + len])
            };
            buf.advance(2 + len);
            return Ok(key);
        }
    }
    get_key_cold(buf)
}

/// Non-contiguous or truncated input: bounds-checked field reads with
/// precise error labels.
#[cold]
fn get_key_cold(buf: &mut impl Buf) -> Result<Key> {
    need(buf, 2, "key length")?;
    let len = buf.get_u16_le() as usize;
    need(buf, len, "key digits")?;
    let mut v = vec![0u8; len];
    buf.copy_to_slice(&mut v);
    Ok(Key::from_bytes(v))
}

fn get_opt_key(buf: &mut impl Buf) -> Result<Option<Key>> {
    need(buf, 1, "option flag")?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(get_key(buf)?)),
        t => err(&format!("option tag {t}")),
    }
}

fn get_keys(buf: &mut impl Buf) -> Result<Vec<Key>> {
    need(buf, 4, "key count")?;
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(get_key(buf)?);
    }
    Ok(out)
}

fn get_node_state(buf: &mut impl Buf) -> Result<NodeState> {
    let label = get_key(buf)?;
    let mut n = NodeState::new(label);
    n.father = get_opt_key(buf)?;
    n.children = key_set(get_keys(buf)?);
    n.data = key_set(get_keys(buf)?);
    need(buf, 16, "node load counters")?;
    n.load = buf.get_u64_le();
    n.prev_load = buf.get_u64_le();
    Ok(n)
}

fn get_seed(buf: &mut impl Buf) -> Result<Box<NodeSeed>> {
    Ok(Box::new(NodeSeed {
        label: get_key(buf)?,
        father: get_opt_key(buf)?,
        children: get_keys(buf)?,
        data: get_keys(buf)?,
    }))
}

fn get_query(buf: &mut impl Buf) -> Result<QueryKind> {
    need(buf, 1, "query tag")?;
    match buf.get_u8() {
        0 => Ok(QueryKind::Exact(get_key(buf)?)),
        1 => Ok(QueryKind::range(get_key(buf)?, get_key(buf)?)),
        2 => Ok(QueryKind::Complete(get_key(buf)?)),
        t => err(&format!("query tag {t}")),
    }
}

fn get_discovery(buf: &mut impl Buf) -> Result<DiscoveryMsg> {
    need(buf, 8, "request id")?;
    let request_id = buf.get_u64_le();
    let query = get_query(buf)?;
    need(buf, 1, "phase")?;
    let phase = match buf.get_u8() {
        0 => RoutePhase::Up,
        1 => RoutePhase::Down,
        2 => RoutePhase::Gather,
        t => return err(&format!("phase tag {t}")),
    };
    Ok(DiscoveryMsg {
        request_id,
        query,
        phase,
        path: get_keys(buf)?,
    })
}

fn get_outcome(buf: &mut impl Buf) -> Result<DiscoveryOutcome> {
    need(buf, 9, "outcome header")?;
    let request_id = buf.get_u64_le();
    let flags = buf.get_u8();
    let results = get_keys(buf)?;
    let path = get_keys(buf)?;
    need(buf, 4, "pending count")?;
    Ok(DiscoveryOutcome {
        request_id,
        satisfied: flags & 1 != 0,
        dropped: flags & 2 != 0,
        results,
        path,
        pending_children: buf.get_u32_le(),
    })
}

fn get_node_msg(buf: &mut impl Buf) -> Result<NodeMsg> {
    need(buf, 1, "node msg tag")?;
    match buf.get_u8() {
        0 => {
            let joining = get_key(buf)?;
            need(buf, 1, "join phase")?;
            let phase = match buf.get_u8() {
                0 => JoinPhase::Up,
                1 => JoinPhase::Down,
                t => return err(&format!("join phase {t}")),
            };
            Ok(NodeMsg::PeerJoin { joining, phase })
        }
        1 => Ok(NodeMsg::DataInsertion { key: get_key(buf)? }),
        2 => Ok(NodeMsg::SearchingHost {
            seed: get_seed(buf)?,
        }),
        3 => Ok(NodeMsg::UpdateChild {
            old: get_key(buf)?,
            new: get_key(buf)?,
        }),
        4 => Ok(NodeMsg::Discovery(get_discovery(buf)?)),
        5 => Ok(NodeMsg::DataRemoval { key: get_key(buf)? }),
        6 => Ok(NodeMsg::RemoveChild {
            child: get_key(buf)?,
        }),
        7 => Ok(NodeMsg::SetFather {
            father: get_opt_key(buf)?,
        }),
        8 => Ok(NodeMsg::Reattach {
            label: get_key(buf)?,
        }),
        t => err(&format!("node msg tag {t}")),
    }
}

fn get_peer_msg(buf: &mut impl Buf) -> Result<PeerMsg> {
    need(buf, 1, "peer msg tag")?;
    match buf.get_u8() {
        0 => Ok(PeerMsg::NewPredecessor {
            joining: get_key(buf)?,
        }),
        1 => {
            let pred = get_key(buf)?;
            let succ = get_key(buf)?;
            need(buf, 4, "node count")?;
            let n = buf.get_u32_le() as usize;
            let mut nodes = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                nodes.push(get_node_state(buf)?);
            }
            Ok(PeerMsg::YourInformation {
                pred,
                succ,
                nodes: Box::new(nodes),
            })
        }
        2 => Ok(PeerMsg::UpdateSuccessor {
            succ: get_key(buf)?,
        }),
        3 => Ok(PeerMsg::UpdatePredecessor {
            pred: get_key(buf)?,
        }),
        4 => Ok(PeerMsg::Host {
            seed: get_seed(buf)?,
        }),
        5 => {
            let pred = get_key(buf)?;
            need(buf, 4, "node count")?;
            let n = buf.get_u32_le() as usize;
            let mut nodes = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                nodes.push(get_node_state(buf)?);
            }
            Ok(PeerMsg::TakeOver { pred, nodes })
        }
        6 => {
            need(buf, 4, "replication factor")?;
            Ok(PeerMsg::SyncReplicas {
                k: buf.get_u32_le(),
            })
        }
        7 => {
            let primary = get_key(buf)?;
            need(buf, 4, "replicate ttl")?;
            let ttl = buf.get_u32_le();
            Ok(PeerMsg::Replicate {
                primary,
                ttl,
                seed: get_seed(buf)?,
            })
        }
        8 => Ok(PeerMsg::DropReplica {
            label: get_key(buf)?,
        }),
        // 9 was `PromoteReplica`: retired with the message, never reused.
        // 10 was `InvalidateCached`: retired with the message, never reused.
        t => err(&format!("peer msg tag {t}")),
    }
}

/// Decodes one length-prefixed frame (as produced by [`encode`]).
pub fn decode(frame: &[u8]) -> Result<Envelope> {
    let mut buf = frame;
    need(&buf, 4, "frame length")?;
    let len = buf.get_u32_le() as usize;
    if buf.remaining() != len {
        return err(&format!(
            "frame length mismatch: header {len}, body {}",
            buf.remaining()
        ));
    }
    need(&buf, 1, "address tag")?;
    let to = match buf.get_u8() {
        0 => Address::Peer(get_key(&mut buf)?),
        1 => Address::Node(get_key(&mut buf)?),
        2 => {
            need(&buf, 8, "client id")?;
            Address::Client(buf.get_u64_le())
        }
        t => return err(&format!("address tag {t}")),
    };
    need(&buf, 1, "message tag")?;
    let msg = match buf.get_u8() {
        0 => Message::Node(get_node_msg(&mut buf)?),
        1 => Message::Peer(get_peer_msg(&mut buf)?),
        2 => Message::ClientResponse(get_outcome(&mut buf)?),
        t => return err(&format!("message tag {t}")),
    };
    if buf.remaining() != 0 {
        return err(&format!("{} trailing bytes", buf.remaining()));
    }
    Ok(Envelope { to, msg })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn sample_envelopes() -> Vec<Envelope> {
        let mut node = NodeState::new(k("101"));
        node.father = Some(Key::epsilon());
        node.add_child(k("10101"));
        node.add_datum(k("101"));
        node.load = 7;
        node.prev_load = 3;
        vec![
            Envelope::to_node(
                k("10"),
                NodeMsg::PeerJoin {
                    joining: k("PEER01"),
                    phase: JoinPhase::Up,
                },
            ),
            Envelope::to_node(k("10"), NodeMsg::DataInsertion { key: k("10101") }),
            Envelope::to_node(
                k("10"),
                NodeMsg::SearchingHost {
                    seed: Box::new(NodeSeed {
                        label: k("101"),
                        father: Some(k("10")),
                        children: vec![k("10101"), k("10111")],
                        data: vec![k("101")],
                    }),
                },
            ),
            Envelope::to_node(
                k("10"),
                NodeMsg::UpdateChild {
                    old: k("10101"),
                    new: k("101"),
                },
            ),
            Envelope::to_node(k("10"), NodeMsg::DataRemoval { key: k("10101") }),
            Envelope::to_node(k("10"), NodeMsg::RemoveChild { child: k("10101") }),
            Envelope::to_node(
                k("10"),
                NodeMsg::SetFather {
                    father: Some(k("1")),
                },
            ),
            Envelope::to_node(k("10"), NodeMsg::SetFather { father: None }),
            Envelope::to_node(k("10"), NodeMsg::Reattach { label: k("10101") }),
            Envelope::to_node(
                k("10"),
                NodeMsg::Discovery(DiscoveryMsg {
                    request_id: 42,
                    query: QueryKind::range(k("A"), k("Z")),
                    phase: RoutePhase::Gather,
                    path: vec![k("ε-no"), k("10")],
                }),
            ),
            Envelope::to_peer(k("P1"), PeerMsg::NewPredecessor { joining: k("P0") }),
            Envelope::to_peer(
                k("P1"),
                PeerMsg::YourInformation {
                    pred: k("P0"),
                    succ: k("P2"),
                    nodes: Box::new(vec![node.clone()]),
                },
            ),
            Envelope::to_peer(k("P1"), PeerMsg::UpdateSuccessor { succ: k("P2") }),
            Envelope::to_peer(k("P1"), PeerMsg::UpdatePredecessor { pred: k("P0") }),
            Envelope::to_peer(
                k("P1"),
                PeerMsg::Host {
                    seed: Box::new(NodeSeed {
                        label: Key::epsilon(),
                        father: None,
                        children: vec![],
                        data: vec![],
                    }),
                },
            ),
            Envelope::to_peer(
                k("P1"),
                PeerMsg::TakeOver {
                    pred: k("P0"),
                    nodes: vec![node],
                },
            ),
            Envelope::to_peer(k("P1"), PeerMsg::SyncReplicas { k: 3 }),
            Envelope::to_peer(
                k("P1"),
                PeerMsg::Replicate {
                    primary: k("P0"),
                    ttl: 2,
                    seed: Box::new(NodeSeed {
                        label: k("101"),
                        father: Some(k("10")),
                        children: vec![k("10101")],
                        data: vec![k("101")],
                    }),
                },
            ),
            Envelope::to_peer(k("P1"), PeerMsg::DropReplica { label: k("101") }),
            Envelope::to_client(
                9,
                DiscoveryOutcome {
                    request_id: 9,
                    satisfied: true,
                    dropped: false,
                    results: vec![k("DGEMM")],
                    path: vec![k("D"), k("DGEMM")],
                    pending_children: 2,
                },
            ),
        ]
    }

    /// The discriminant of a message, as `(address-kind, payload-kind,
    /// variant)`. The `match`es are deliberately written without
    /// wildcards: adding a `NodeMsg`/`PeerMsg` variant fails to
    /// compile here until it is classified — and
    /// [`roundtrip_every_message_kind`] then fails until
    /// [`sample_envelopes`] actually covers it on the wire.
    fn variant_of(env: &Envelope) -> (u8, u8, u8) {
        let addr = match &env.to {
            Address::Peer(_) => 0,
            Address::Node(_) => 1,
            Address::Client(_) => 2,
        };
        match &env.msg {
            Message::Node(m) => {
                let v = match m {
                    NodeMsg::PeerJoin { .. } => 0,
                    NodeMsg::DataInsertion { .. } => 1,
                    NodeMsg::SearchingHost { .. } => 2,
                    NodeMsg::UpdateChild { .. } => 3,
                    NodeMsg::Discovery(_) => 4,
                    NodeMsg::DataRemoval { .. } => 5,
                    NodeMsg::RemoveChild { .. } => 6,
                    NodeMsg::SetFather { .. } => 7,
                    NodeMsg::Reattach { .. } => 8,
                };
                (addr, 0, v)
            }
            Message::Peer(m) => {
                let v = match m {
                    PeerMsg::NewPredecessor { .. } => 0,
                    PeerMsg::YourInformation { .. } => 1,
                    PeerMsg::UpdateSuccessor { .. } => 2,
                    PeerMsg::UpdatePredecessor { .. } => 3,
                    PeerMsg::Host { .. } => 4,
                    PeerMsg::TakeOver { .. } => 5,
                    PeerMsg::SyncReplicas { .. } => 6,
                    PeerMsg::Replicate { .. } => 7,
                    PeerMsg::DropReplica { .. } => 8,
                };
                (addr, 1, v)
            }
            Message::ClientResponse(_) => (addr, 2, 0),
        }
    }

    /// All `NodeMsg` and `PeerMsg` variants `variant_of` classifies —
    /// the counts the exhaustiveness test checks against. Keep in sync
    /// with the `match`es above (the compiler enforces the enums side;
    /// these constants enforce the sample-list side).
    const NODE_MSG_VARIANTS: u8 = 9;
    const PEER_MSG_VARIANTS: u8 = 9;

    #[test]
    fn sample_list_is_exhaustive_over_all_variants() {
        let seen: std::collections::BTreeSet<(u8, u8)> = sample_envelopes()
            .iter()
            .map(|e| {
                let (_, payload, v) = variant_of(e);
                (payload, v)
            })
            .collect();
        for v in 0..NODE_MSG_VARIANTS {
            assert!(seen.contains(&(0, v)), "NodeMsg variant {v} not sampled");
        }
        for v in 0..PEER_MSG_VARIANTS {
            assert!(seen.contains(&(1, v)), "PeerMsg variant {v} not sampled");
        }
        assert!(seen.contains(&(2, 0)), "ClientResponse not sampled");
    }

    #[test]
    fn roundtrip_every_message_kind() {
        for env in sample_envelopes() {
            let frame = encode(&env);
            let back = decode(&frame).unwrap_or_else(|e| panic!("{env:?}: {e}"));
            assert_eq!(back, env);
        }
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        for env in sample_envelopes() {
            let frame = encode(&env);
            for cut in 0..frame.len() {
                let sliced = &frame[..cut];
                assert!(decode(sliced).is_err(), "cut at {cut} of {env:?}");
            }
        }
    }

    #[test]
    fn corrupt_tags_are_errors() {
        let env = Envelope::to_peer(k("P"), PeerMsg::NewPredecessor { joining: k("Q") });
        let mut frame = encode(&env).to_vec();
        frame[4] = 9; // address tag
        assert!(decode(&frame).is_err());
        let mut frame = encode(&env).to_vec();
        let last = frame.len() - 1;
        frame.truncate(last); // trailing byte missing from key
        assert!(decode(&frame).is_err());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let env = Envelope::to_peer(k("P"), PeerMsg::UpdateSuccessor { succ: k("Q") });
        let mut frame = encode(&env).to_vec();
        frame.push(0xFF);
        assert!(decode(&frame).is_err(), "length prefix must pin the body");
    }

    #[test]
    fn empty_key_and_epsilon_roundtrip() {
        let env = Envelope::to_node(
            Key::epsilon(),
            NodeMsg::DataInsertion {
                key: Key::epsilon(),
            },
        );
        assert_eq!(decode(&encode(&env)).unwrap(), env);
    }
}
