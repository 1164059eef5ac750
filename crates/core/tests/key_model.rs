//! Differential property tests of the small-string-optimized [`Key`]
//! against a plain `Vec<u8>` reference model.
//!
//! `Key` stores short identifiers inline and compares two inline keys
//! word-wise over zero-padded big-endian words (see the module docs of
//! `dlpt_core::key`); longer ones spill to the heap and compare as
//! slices. Neither may change any *observable*: ordering, equality,
//! hashing and the prefix algebra are all defined over the digit string
//! alone. The generators here
//!
//! * draw digits over arbitrary bytes, `0x00` and `0xFF` included — a
//!   real `0x00` digit is indistinguishable from padding inside a
//!   word, so only the length tie-break orders `"a"` before `"a\0"`;
//! * pick lengths on both sides of every word boundary (7/8, 15/16)
//!   and of the inline/spill boundary (22/23/24);
//! * make prefix-related pairs common (a shared stem plus short
//!   tails), since two independent strings almost always differ in
//!   their first word;
//! * build every key through every constructor, so a constructor that
//!   leaves non-zero padding behind is caught by the comparisons.
//!
//! A failing case prints its replay line (`PROPTEST_CASE=N`, see the
//! vendored `proptest`).

use dlpt_core::key::{in_ring_interval, Key, KEY_INLINE_CAP};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Longest generated digit string.
const MAX_LEN: usize = 2 * KEY_INLINE_CAP + 3;

/// One digit: the two extreme bytes, a tiny alphabet (so equal runs
/// and prefix relations are common), or any byte at all.
fn digit() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(0x00u8),
        Just(0xFFu8),
        Just(b'0'),
        Just(b'1'),
        any::<u8>(),
    ]
}

/// A length in `0..=MAX_LEN`, half of the time right at a word or
/// representation boundary.
fn length() -> impl Strategy<Value = usize> {
    prop_oneof![
        0..=MAX_LEN,
        prop_oneof![
            Just(0usize),
            Just(7usize),
            Just(8usize),
            Just(9usize),
            Just(15usize),
            Just(16usize),
            Just(17usize),
            Just(KEY_INLINE_CAP - 1),
            Just(KEY_INLINE_CAP),
            Just(KEY_INLINE_CAP + 1),
        ],
    ]
}

/// Digit strings of every length up to `MAX_LEN`.
fn digits() -> impl Strategy<Value = Vec<u8>> {
    (proptest::collection::vec(digit(), MAX_LEN), length()).prop_map(|(mut v, n)| {
        v.truncate(n);
        v
    })
}

/// Two digit strings: independent, or a stem cut somewhere plus a
/// short tail (prefixes, extensions by `0x00`, late divergence).
fn pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let related = (
        digits(),
        any::<usize>(),
        proptest::collection::vec(digit(), 0..4),
    )
        .prop_map(|(a, cut, tail)| {
            let mut b = a[..cut % (a.len() + 1)].to_vec();
            b.extend_from_slice(&tail);
            b.truncate(MAX_LEN);
            (a, b)
        });
    prop_oneof![(digits(), digits()), related]
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// The reference model: every Key operation restated over `Vec<u8>`.
fn model_gcp(a: &[u8], b: &[u8]) -> Vec<u8> {
    let n = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    a[..n].to_vec()
}

fn model_in_ring(x: &[u8], a: &[u8], b: &[u8]) -> bool {
    match a.cmp(b) {
        Ordering::Less => x > a && x <= b,
        Ordering::Greater => x > a || x <= b,
        Ordering::Equal => true,
    }
}

/// The key with digits `v`, built through every constructor that can
/// produce it; `seed` varies the split points.
fn builds(v: &[u8], seed: usize) -> Vec<Key> {
    let mut out = vec![Key::from_slice(v), Key::from_bytes(v), Key::from(v)];
    // concat of two parts
    let mid = seed % (v.len() + 1);
    out.push(Key::from_slice(&v[..mid]).concat(&Key::from_slice(&v[mid..])));
    // child of the key minus its last digit
    if let Some((&last, init)) = v.split_last() {
        out.push(Key::from_slice(init).child(last));
    }
    // truncation of a longer key (dirty bytes beyond the cut)
    let mut longer = v.to_vec();
    longer.extend(std::iter::repeat_n(0xA5u8, 1 + seed % 9));
    out.push(Key::from_slice(&longer).truncated(v.len()));
    // gcp of two keys diverging right after `v`
    let (mut x, mut y) = (v.to_vec(), v.to_vec());
    x.extend_from_slice(&[0x00, 0x17]);
    y.push(0x80);
    out.push(Key::from_slice(&x).gcp(&Key::from_slice(&y)));
    out.push(Key::gcp_all([Key::from_slice(&x), Key::from_slice(&y)]).expect("two keys"));
    // the decoder's constructor, over a window of raw wire bytes
    if v.len() <= KEY_INLINE_CAP {
        let mut window = [0xA5u8; KEY_INLINE_CAP];
        window[..v.len()].copy_from_slice(v);
        out.push(Key::from_inline_window(&window, v.len()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Construction round-trips and the repr boundary sits exactly at
    /// `KEY_INLINE_CAP`.
    #[test]
    fn bytes_roundtrip_and_repr_boundary(v in digits()) {
        let k = Key::from_slice(&v);
        prop_assert_eq!(k.as_bytes(), &v[..]);
        prop_assert_eq!(k.len(), v.len());
        prop_assert_eq!(k.is_empty(), v.is_empty());
        prop_assert_eq!(k.is_inline(), v.len() <= KEY_INLINE_CAP);
        // Cloning preserves digits and representation.
        let c = k.clone();
        prop_assert_eq!(c.as_bytes(), &v[..]);
        prop_assert_eq!(c.is_inline(), k.is_inline());
    }

    /// Whatever built it, a key holds exactly its digits in the one
    /// canonical representation, and all builds are the same key.
    #[test]
    fn every_constructor_yields_the_canonical_key(v in digits(), seed in any::<usize>()) {
        let keys = builds(&v, seed);
        for k in &keys {
            prop_assert!(k.is_canonical(), "{:?} of {:?}", k, v);
            prop_assert_eq!(k.as_bytes(), &v[..]);
            prop_assert_eq!(k.is_inline(), v.len() <= KEY_INLINE_CAP);
            prop_assert_eq!(k, &keys[0]);
            prop_assert_eq!(k.cmp(&keys[0]), Ordering::Equal);
            prop_assert_eq!(hash_of(k), hash_of(&keys[0]), "Eq keys must hash alike");
        }
    }

    /// `Ord`/`Eq` agree with the byte-string model across the
    /// inline/spill boundary, for every way of building the two keys,
    /// and equal keys hash equal. (A key need not hash like its digit
    /// slice: nothing looks a `Key` map up by `&[u8]`.)
    #[test]
    fn ord_eq_hash_match_model((a, b) in pair(), seed in any::<usize>()) {
        for ka in &builds(&a, seed) {
            for kb in &builds(&b, seed / 7) {
                prop_assert_eq!(ka.cmp(kb), a.cmp(&b));
                prop_assert_eq!(ka.partial_cmp(kb), Some(a.cmp(&b)));
                prop_assert_eq!(ka == kb, a == b);
                if ka == kb {
                    prop_assert_eq!(hash_of(ka), hash_of(kb), "Eq keys must hash alike");
                }
            }
        }
    }

    /// The prefix algebra (`gcp`, `gcp_len`, `is_prefix_of`,
    /// `is_proper_prefix_of`, `digit_after`) matches the model.
    #[test]
    fn prefix_algebra_matches_model((a, b) in pair(), seed in any::<usize>()) {
        let gcp = model_gcp(&a, &b);
        for ka in &builds(&a, seed) {
            for kb in &builds(&b, seed / 7) {
                prop_assert_eq!(ka.gcp_len(kb), gcp.len());
                prop_assert_eq!(kb.gcp_len(ka), gcp.len());
                prop_assert_eq!(ka.is_prefix_of(kb), b.starts_with(&a));
                prop_assert_eq!(kb.is_prefix_of(ka), a.starts_with(&b));
                prop_assert_eq!(
                    ka.is_proper_prefix_of(kb),
                    b.starts_with(&a) && a.len() < b.len()
                );
                prop_assert_eq!(ka.digit_after(kb), a.get(b.len()).copied());
            }
        }
        let (ka, kb) = (Key::from_slice(&a), Key::from_slice(&b));
        let g = ka.gcp(&kb);
        prop_assert_eq!(g.as_bytes(), &gcp[..]);
        prop_assert!(g.is_canonical());
        prop_assert_eq!(Key::gcp_all([&ka, &kb]).expect("two keys"), g);
    }

    /// Circular-interval membership matches the model.
    #[test]
    fn ring_interval_matches_model((x, a) in pair(), (b, _) in pair(), seed in any::<usize>()) {
        let (kx, ka, kb) = (builds(&x, seed), builds(&a, seed / 3), builds(&b, seed / 5));
        let pick = |ks: &[Key], n: usize| ks[n % ks.len()].clone();
        for n in 0..8 {
            let (kx, ka, kb) = (pick(&kx, seed / 11 + n), pick(&ka, n), pick(&kb, seed + n));
            prop_assert_eq!(in_ring_interval(&kx, &ka, &kb), model_in_ring(&x, &a, &b));
            prop_assert_eq!(in_ring_interval(&kx, &kb, &ka), model_in_ring(&x, &b, &a));
            prop_assert_eq!(in_ring_interval(&ka, &kx, &kx), true);
        }
    }

    /// `concat`/`truncated`/`child` match the model, including results
    /// that cross the inline/spill boundary in either direction.
    #[test]
    fn concat_truncate_match_model((a, b) in pair(), n in 0usize..64) {
        let (ka, kb) = (Key::from_slice(&a), Key::from_slice(&b));
        let mut cat = a.clone();
        cat.extend_from_slice(&b);
        let kc = ka.concat(&kb);
        prop_assert_eq!(kc.as_bytes(), &cat[..]);
        prop_assert_eq!(kc.is_inline(), cat.len() <= KEY_INLINE_CAP);
        prop_assert!(kc.is_canonical());
        let kt = ka.truncated(n);
        prop_assert_eq!(kt.as_bytes(), &a[..n.min(a.len())]);
        prop_assert!(kt.is_canonical());
        let mut pushed = a.clone();
        pushed.push(b'7');
        prop_assert_eq!(ka.child(b'7').as_bytes(), &pushed[..]);
        let prefixes: Vec<Key> = ka.proper_prefixes().collect();
        prop_assert_eq!(prefixes.len(), a.len());
        for (i, p) in prefixes.iter().enumerate() {
            prop_assert_eq!(p.as_bytes(), &a[..i]);
            prop_assert!(p.is_canonical() && p.is_proper_prefix_of(&ka));
        }
        // Epsilon is neutral on both sides.
        prop_assert_eq!(Key::epsilon().concat(&ka), ka.clone());
        prop_assert_eq!(ka.concat(&Key::epsilon()), ka);
    }

    /// Ordered collections of mixed inline and spilled keys iterate in
    /// model order, whichever way each key was built.
    #[test]
    fn collections_cannot_tell_reprs_apart(
        pairs in proptest::collection::vec(pair(), 1..12),
        seed in any::<usize>(),
    ) {
        let vs: Vec<Vec<u8>> = pairs.into_iter().flat_map(|(a, b)| [a, b]).collect();
        let keys: Vec<Key> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let ks = builds(v, seed / (i + 1));
                ks[(seed / 13 + i) % ks.len()].clone()
            })
            .collect();
        let model: BTreeSet<&[u8]> = vs.iter().map(|v| &v[..]).collect();
        let set: BTreeSet<Key> = keys.iter().cloned().collect();
        prop_assert!(set.iter().map(Key::as_bytes).eq(model.iter().copied()));
        for v in &vs {
            prop_assert!(set.contains(&Key::from_slice(v)));
        }
        // Rebuild every key through concat of two halves, expect the
        // identical set.
        let rebuilt: BTreeSet<Key> = vs
            .iter()
            .map(|v| {
                let mid = v.len() / 2;
                Key::from_slice(&v[..mid]).concat(&Key::from_slice(&v[mid..]))
            })
            .collect();
        prop_assert_eq!(&set, &rebuilt);
        // Sorting (duplicates kept) and binary search agree too.
        let (mut sorted, mut sorted_model) = (keys, vs.clone());
        sorted.sort();
        sorted_model.sort();
        prop_assert!(sorted.iter().map(Key::as_bytes).eq(sorted_model.iter().map(|v| &v[..])));
        for v in &vs {
            let at = sorted.binary_search(&Key::from_slice(v));
            prop_assert!(at.is_ok_and(|i| sorted_model[i] == *v));
        }
    }
}

/// Every pair of strings from a small exhaustive family — all strings
/// over `{0x00, 0x01, 0xFF}` up to length 3, each also pushed past the
/// word and representation boundaries by a common stem — orders, equals
/// and prefixes like the model. The random cases above rarely put two
/// keys one `0x00` apart at position 8, 16 or 23; this always does.
#[test]
fn zero_digits_at_every_boundary_order_like_the_model() {
    let mut tails: Vec<Vec<u8>> = vec![vec![]];
    for len in 1..=3 {
        let shorter: Vec<Vec<u8>> = tails
            .iter()
            .filter(|t| t.len() == len - 1)
            .cloned()
            .collect();
        for t in shorter {
            for d in [0x00u8, 0x01, 0xFF] {
                let mut e = t.clone();
                e.push(d);
                tails.push(e);
            }
        }
    }
    for stem_len in [0usize, 5, 6, 7, 8, 13, 14, 15, 16, 20, 21, 22, 23, 24] {
        let stem = vec![0x01u8; stem_len];
        let strings: Vec<Vec<u8>> = tails.iter().map(|t| [&stem[..], &t[..]].concat()).collect();
        for a in &strings {
            for b in &strings {
                let (ka, kb) = (Key::from_slice(a), Key::from_slice(b));
                assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(ka == kb, a == b, "{a:?} vs {b:?}");
                assert_eq!(ka.is_prefix_of(&kb), b.starts_with(a), "{a:?} vs {b:?}");
                assert_eq!(
                    ka.is_proper_prefix_of(&kb),
                    b.starts_with(a) && a.len() < b.len(),
                    "{a:?} vs {b:?}"
                );
                assert_eq!(ka.gcp_len(&kb), model_gcp(a, b).len(), "{a:?} vs {b:?}");
            }
        }
    }
}
