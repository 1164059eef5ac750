//! Fuzz-style robustness of the wire codec: arbitrary byte soup must
//! decode to an error, never panic, and valid frames must survive any
//! reframing.

use dlpt_core::key::Key;
use dlpt_core::messages::{Address, Envelope, Message, NodeMsg, NodeSeed, PeerMsg};
use dlpt_net::codec::{decode, encode};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Keys over arbitrary bytes, of every length around the inline
    /// capacity, come back from the wire equal, canonical (the decoder
    /// builds short keys from a window that reaches into the bytes
    /// following them) and ordered as they went in.
    #[test]
    fn decoded_keys_are_canonical_and_keep_their_order(
        a in proptest::collection::vec(any::<u8>(), 0..40),
        b in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let (ka, kb) = (Key::from_slice(&a), Key::from_slice(&b));
        let env = Envelope::to_node(ka.clone(), NodeMsg::DataInsertion { key: kb.clone() });
        let back = decode(&encode(&env)).expect("well-formed frame");
        prop_assert_eq!(&back, &env);
        let Envelope { to: Address::Node(da), msg: Message::Node(NodeMsg::DataInsertion { key: db }) } = back
        else {
            panic!("decoded another message kind");
        };
        prop_assert!(da.is_canonical() && db.is_canonical());
        prop_assert_eq!(da.as_bytes(), &a[..]);
        prop_assert_eq!(db.as_bytes(), &b[..]);
        prop_assert_eq!(da.cmp(&db), a.cmp(&b));
        prop_assert_eq!(da.is_prefix_of(&db), b.starts_with(&a));
        prop_assert_eq!(da.cmp(&kb), a.cmp(&b));
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn arbitrary_bytes_do_not_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// Corrupting any single byte of a valid frame yields either an
    /// error or a (different or equal) well-formed envelope — never a
    /// panic.
    #[test]
    fn single_byte_corruption_is_safe(pos_seed in any::<usize>(), val in any::<u8>(), key in "[01]{1,12}") {
        let env = Envelope::to_node(
            Key::from(key.as_str()),
            NodeMsg::DataInsertion { key: Key::from(key.as_str()) },
        );
        let mut frame = encode(&env).to_vec();
        let pos = pos_seed % frame.len();
        frame[pos] = val;
        let _ = decode(&frame);
    }

    /// Replica-aware envelopes (`protocol::repair`) round-trip for
    /// arbitrary keys/ttls and survive single-byte corruption without
    /// panicking.
    #[test]
    fn replication_envelopes_roundtrip_and_corrupt_safely(
        primary in "[01]{1,12}",
        label in "[01]{1,12}",
        ttl in 0u32..16,
        pos_seed in any::<usize>(),
        val in any::<u8>(),
    ) {
        let envs = vec![
            Envelope::to_peer(Key::from(primary.as_str()), PeerMsg::SyncReplicas { k: ttl + 1 }),
            Envelope::to_peer(
                Key::from(primary.as_str()),
                PeerMsg::Replicate {
                    primary: Key::from(primary.as_str()),
                    ttl,
                    seed: Box::new(NodeSeed {
                        label: Key::from(label.as_str()),
                        father: Some(Key::from(primary.as_str())),
                        children: vec![Key::from(label.as_str())],
                        data: vec![Key::from(label.as_str())],
                    }),
                },
            ),
            Envelope::to_peer(Key::from(primary.as_str()), PeerMsg::DropReplica { label: Key::from(label.as_str()) }),
        ];
        for env in &envs {
            let frame = encode(env);
            prop_assert_eq!(&decode(&frame).unwrap(), env);
            let mut corrupted = frame.to_vec();
            let pos = pos_seed % corrupted.len();
            corrupted[pos] = val;
            let _ = decode(&corrupted); // error or envelope, never panic
        }
        // Peer-message tag 9 (its message carried one key, like
        // `DropReplica`) is retired: an error, never a panic or a reuse.
        let mut retired = encode(&envs[2]).to_vec();
        let tag = 4 + 1 + 2 + primary.len() + 1; // length, address, key, message kind
        prop_assert_eq!(retired[tag], 8);
        retired[tag] = 9;
        prop_assert!(decode(&retired).is_err());
    }

    /// Cache-invalidation envelopes (`dlpt_core::cache`) round-trip for
    /// arbitrary labels/epochs and survive single-byte corruption
    /// without panicking.
    #[test]
    fn cache_invalidation_envelopes_roundtrip_and_corrupt_safely(
        peer in "[01]{1,12}",
        label in "[01]{1,12}",
        epoch in any::<u64>(),
        pos_seed in any::<usize>(),
        val in any::<u8>(),
    ) {
        let envs = vec![
            Envelope::to_peer(
                Key::from(peer.as_str()),
                PeerMsg::InvalidateCached { label: Key::from(label.as_str()), epoch },
            ),
            Envelope::to_peer(
                Key::from(peer.as_str()),
                PeerMsg::InvalidateCached { label: Key::epsilon(), epoch },
            ),
        ];
        for env in envs {
            let frame = encode(&env);
            prop_assert_eq!(&decode(&frame).unwrap(), &env);
            let mut corrupted = frame.to_vec();
            let pos = pos_seed % corrupted.len();
            corrupted[pos] = val;
            let _ = decode(&corrupted); // error or envelope, never panic
        }
    }

    /// Concatenated frames decode individually after splitting on the
    /// length prefix (stream framing works).
    #[test]
    fn stream_framing(keys in proptest::collection::vec("[01]{1,10}", 1..6)) {
        let envs: Vec<Envelope> = keys
            .iter()
            .map(|k| Envelope::to_peer(
                Key::from(k.as_str()),
                PeerMsg::UpdateSuccessor { succ: Key::from(k.as_str()) },
            ))
            .collect();
        let mut stream = Vec::new();
        for e in &envs {
            stream.extend_from_slice(&encode(e));
        }
        // Re-split using the length prefixes.
        let mut at = 0usize;
        let mut decoded = Vec::new();
        while at < stream.len() {
            let len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
            let frame = &stream[at..at + 4 + len];
            decoded.push(decode(frame).unwrap());
            at += 4 + len;
        }
        prop_assert_eq!(decoded, envs);
    }
}
