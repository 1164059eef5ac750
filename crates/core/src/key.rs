//! Identifiers over a digit alphabet and their prefix algebra.
//!
//! Section 2 of the paper ("Greatest Common Prefix Tree") defines the
//! identifier space `I`: finite sequences of digits of an alphabet `A`,
//! ordered lexicographically, with the empty identifier `ε`. Both
//! *peers* (physical machines) and *nodes* (logical tree vertices) draw
//! their identifiers from `I`, which is what lets one structure serve
//! as both the tree and its mapping onto the ring.
//!
//! The two basic functions assumed by the protocol are implemented
//! here:
//!
//! * [`Key::proper_prefixes`] — the paper's `Prefixes(k)`, every proper
//!   prefix of `k` including `ε`;
//! * [`Key::gcp`] — the paper's `GCP(k1, k2)`, the greatest common
//!   prefix of two identifiers.
//!
//! # Representation: a comparison kernel
//!
//! The whole protocol is prefix algebra over identifiers — every tree
//! walk, map probe and ring test compares two of them — so the
//! representation is chosen for comparing. A [`Key`] is 32 bytes. Up
//! to [`KEY_INLINE_CAP`] = 23 digits it is stored *inline* as 24
//! bytes, 8-aligned:
//!
//! ```text
//! byte   0 ........ 7   8 ....... 15   16 ....... 22   23
//!        d0 d1 ... d7   d8 ...  d15    d16 ...   d22   len
//!        └─ word 0 ─┘   └─ word 1 ─┘   └──── word 2 ─────┘
//! ```
//!
//! with the **canonical-padding invariant**: digit bytes at positions
//! `>= len` are always `0x00` (every constructor guarantees it;
//! [`Key::is_canonical`] checks it). Reading the three words
//! big-endian makes integer order on a word equal to lexicographic
//! order on its bytes, so on two inline keys
//!
//! * `Eq` is three word XORs (the length byte rides in word 2);
//! * `Ord` compares the first differing word. Where the digit strings
//!   differ inside their common length this is their order; where one
//!   is a prefix of the other, the longer one's next digit is compared
//!   against the padding `0x00` and wins unless it is itself `0x00` —
//!   and then all digit bytes can agree (`"a"` vs `"a\0"`), the words
//!   tie down to the last byte, and the length there orders the
//!   shorter key first. So `0x00` digits order correctly without
//!   being special-cased;
//! * [`Key::is_prefix_of`] / [`Key::is_proper_prefix_of`] mask the XOR
//!   to the prefix's length (one table row) and compare the lengths;
//! * [`Key::gcp_len`] counts the leading zero bytes of the first
//!   non-zero XOR word, capped by the shorter length;
//! * [`in_ring_interval`] is three such `Ord`s.
//!
//! None of these calls into a library routine or loops. Longer keys
//! *spill* to a shared `Arc<[u8]>` and every operation involving one
//! falls back to the digit slices (out of line). A spilled key is
//! always longer than any inline key, so a digit string has exactly
//! one representation and the two never compare equal.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Digits that fit in a `Key` without touching the heap. Sized so the
/// whole `Key` is 32 bytes and every identifier the workloads generate
/// — service names of the grid corpus (≤ 21 digits) and peer ids (the
/// default `peer_id_len` is 16) — stays inline.
pub const KEY_INLINE_CAP: usize = 23;

/// Bytes of the inline form: the digits plus the length byte.
const INLINE_BYTES: usize = KEY_INLINE_CAP + 1;

/// The inline form: `KEY_INLINE_CAP` digit bytes, zero-padded, then
/// the length in the last byte — three 8-byte words. Aligned so each
/// word is one aligned load.
#[derive(Clone, Copy)]
#[repr(align(8))]
struct Inline([u8; INLINE_BYTES]);

/// The three words of an inline key, read big-endian, so that integer
/// order on a word is lexicographic order on its eight bytes.
type Words = [u64; 3];

/// `PREFIX_MASK[n]` selects the first `n` digit bytes of [`Words`]
/// (never the length byte). 32 rows so `n & 31` indexes it unchecked.
const PREFIX_MASK: [Words; 32] = {
    let mut table = [[0u64; 3]; 32];
    let mut n = 0;
    while n <= KEY_INLINE_CAP {
        let mut w = 0;
        while w < 3 {
            let bytes = n.saturating_sub(8 * w);
            table[n][w] = if bytes >= 8 {
                u64::MAX
            } else {
                !(u64::MAX >> (8 * bytes))
            };
            w += 1;
        }
        n += 1;
    }
    table
};

impl Inline {
    const EMPTY: Inline = Inline([0; INLINE_BYTES]);

    #[inline(always)]
    fn len(&self) -> usize {
        self.0[KEY_INLINE_CAP] as usize
    }

    #[inline(always)]
    fn digits(&self) -> &[u8] {
        &self.0[..self.len()]
    }

    #[inline(always)]
    fn words(&self) -> Words {
        let (w0, rest) = self.0.split_first_chunk::<8>().expect("24 bytes");
        let (w1, rest) = rest.split_first_chunk::<8>().expect("16 bytes");
        let w2: &[u8; 8] = rest.try_into().expect("8 bytes");
        [
            u64::from_be_bytes(*w0),
            u64::from_be_bytes(*w1),
            u64::from_be_bytes(*w2),
        ]
    }

    /// The digits `ab`, at most `KEY_INLINE_CAP` of them.
    #[inline(always)]
    fn concat(a: &[u8], b: &[u8]) -> Inline {
        let mut out = Inline::EMPTY;
        out.0[..a.len()].copy_from_slice(a);
        out.0[a.len()..a.len() + b.len()].copy_from_slice(b);
        out.0[KEY_INLINE_CAP] = (a.len() + b.len()) as u8;
        out
    }

    /// The first `len` bytes of `window` as an inline key; whatever
    /// follows them in the window is zeroed.
    #[inline(always)]
    fn from_window(window: &[u8; KEY_INLINE_CAP], len: usize) -> Inline {
        assert!(len <= KEY_INLINE_CAP, "inline key of {len} digits");
        let mut out = Inline::EMPTY;
        // Fixed trip count: compiles to a vector compare-and-mask.
        for (i, (dst, &src)) in out.0.iter_mut().zip(window).enumerate() {
            *dst = if i < len { src } else { 0 };
        }
        out.0[KEY_INLINE_CAP] = len as u8;
        out
    }

    /// The full digit window, padding included.
    #[inline(always)]
    fn window(&self) -> &[u8; KEY_INLINE_CAP] {
        self.0.first_chunk().expect("24 bytes")
    }

    /// Index of the first byte at which the two forms differ: a digit
    /// position, `KEY_INLINE_CAP` when only the lengths do, one more
    /// when nothing does. Never below the common prefix's length, so
    /// callers cap it by the lengths.
    #[inline(always)]
    fn first_difference(&self, other: &Inline) -> usize {
        let (a, b) = (self.words(), other.words());
        let (x0, x1, x2) = (a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2]);
        if x0 != 0 {
            (x0.leading_zeros() / 8) as usize
        } else if x1 != 0 {
            8 + (x1.leading_zeros() / 8) as usize
        } else {
            16 + (x2.leading_zeros() / 8) as usize
        }
    }

    /// True iff the first `self.len()` digit bytes of both windows
    /// agree. A prefix test still has to compare the lengths: the
    /// other key's padding matches any trailing `0x00` digits of ours.
    #[inline(always)]
    fn window_matches(&self, other: &Inline) -> bool {
        let (a, b, m) = (self.words(), other.words(), PREFIX_MASK[self.len() & 31]);
        ((a[0] ^ b[0]) & m[0]) | ((a[1] ^ b[1]) & m[1]) | ((a[2] ^ b[2]) & m[2]) == 0
    }
}

/// Storage behind a [`Key`]: inline digits for the common short case,
/// shared heap spill beyond [`KEY_INLINE_CAP`]. `Arc` (not `Box`) for
/// the spill so cloning a long key is a reference-count bump, never a
/// byte copy.
///
/// Invariant (the *canonical form*, checked by [`Key::is_canonical`]):
/// inline padding is always zero — the digit bytes past the length
/// hold only `0x00` — and a spilled key is always longer than
/// [`KEY_INLINE_CAP`], so a digit string has exactly one
/// representation. Every constructor establishes it; the word-wise
/// comparison paths are only correct because of it.
#[derive(Clone)]
enum Repr {
    Inline(Inline),
    Spill(Arc<[u8]>),
}

/// An identifier: a finite (possibly empty) sequence of digits.
///
/// `Key` is an immutable byte string with lexicographic `Ord`.
/// Identifiers up to [`KEY_INLINE_CAP`] digits — every service name and
/// peer id in the shipped workloads — are stored inline, so cloning
/// them (the routing hot path does it constantly) is a 32-byte memcpy
/// with no allocation, and comparing two of them is three word
/// operations (see the module docs); longer keys spill to a shared
/// heap buffer whose clone is a reference-count bump. All comparisons,
/// hashing and formatting are defined over the digit string alone, so
/// the two representations are observationally identical.
#[derive(Clone)]
pub struct Key(Repr);

// `results/footprint.csv` and every node's `bytes_estimate` count on it.
const _: () = assert!(std::mem::size_of::<Key>() == 32);

impl Key {
    /// The empty identifier `ε` (`|ε| = 0`), neutral for concatenation.
    pub fn epsilon() -> Self {
        Key(Repr::Inline(Inline::EMPTY))
    }

    /// Builds a key from raw digit bytes.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Self {
        Key::from_slice(bytes.as_ref())
    }

    /// Builds a key by copying a digit slice — inline (no allocation)
    /// whenever the digits fit in [`KEY_INLINE_CAP`].
    #[inline]
    pub fn from_slice(b: &[u8]) -> Self {
        if b.len() <= KEY_INLINE_CAP {
            Key(Repr::Inline(Inline::concat(b, &[])))
        } else {
            Key(Repr::Spill(Arc::from(b)))
        }
    }

    /// Builds an inline key whose digits are the first `len` bytes of a
    /// full-width window. The fixed-size copy compiles to a pair of
    /// vector moves instead of a variable-length `memcpy` call — the
    /// wire decoder's hot path. The window's bytes past `len` may hold
    /// anything (the decoder passes raw wire bytes); they are zeroed
    /// here, so the key is canonical.
    ///
    /// # Panics
    /// Panics when `len > KEY_INLINE_CAP`.
    #[inline]
    pub fn from_inline_window(window: &[u8; KEY_INLINE_CAP], len: usize) -> Key {
        Key(Repr::Inline(Inline::from_window(window, len)))
    }

    /// True iff the representation invariant holds: inline padding is
    /// all zero and a spilled key is longer than [`KEY_INLINE_CAP`].
    /// Always true for a key built through this module; exposed so
    /// tests can pin it per constructor and the comparison paths can
    /// `debug_assert!` it.
    pub fn is_canonical(&self) -> bool {
        match &self.0 {
            Repr::Inline(a) => {
                a.len() <= KEY_INLINE_CAP && a.window()[a.len()..].iter().all(|&b| b == 0)
            }
            Repr::Spill(a) => a.len() > KEY_INLINE_CAP,
        }
    }

    /// True iff the digits are stored inline (no heap involvement).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline(_))
    }

    /// The underlying digits.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(a) => a.digits(),
            Repr::Spill(a) => a,
        }
    }

    /// Length `|w|`: the number of digits (0 for `ε`).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline(a) => a.len(),
            Repr::Spill(a) => a.len(),
        }
    }

    /// True iff this is `ε`.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Concatenation `uv` of two identifiers.
    pub fn concat(&self, other: &Key) -> Key {
        let (a, b) = (self.as_bytes(), other.as_bytes());
        if a.len() + b.len() <= KEY_INLINE_CAP {
            return Key(Repr::Inline(Inline::concat(a, b)));
        }
        let mut v = Vec::with_capacity(a.len() + b.len());
        v.extend_from_slice(a);
        v.extend_from_slice(b);
        Key(Repr::Spill(v.into()))
    }

    /// The key extended by one digit.
    pub fn child(&self, digit: u8) -> Key {
        self.concat(&Key::from_slice(&[digit]))
    }

    /// The first `n` digits as a new key (`n` capped at `len`).
    #[inline]
    pub fn truncated(&self, n: usize) -> Key {
        match &self.0 {
            // Masking the window: no variable-length copy.
            Repr::Inline(a) => Key(Repr::Inline(Inline::from_window(
                a.window(),
                n.min(a.len()),
            ))),
            Repr::Spill(a) => Key::from_slice(&a[..n.min(a.len())]),
        }
    }

    /// True iff `self` is a prefix of `other` (possibly equal).
    #[inline]
    pub fn is_prefix_of(&self, other: &Key) -> bool {
        debug_assert!(self.is_canonical() && other.is_canonical());
        match (&self.0, &other.0) {
            (Repr::Inline(a), Repr::Inline(b)) => a.len() <= b.len() && a.window_matches(b),
            _ => spilled::is_prefix(self, other),
        }
    }

    /// True iff `self` is a *proper* prefix of `other`
    /// (prefix and `self != other`).
    #[inline]
    pub fn is_proper_prefix_of(&self, other: &Key) -> bool {
        debug_assert!(self.is_canonical() && other.is_canonical());
        match (&self.0, &other.0) {
            (Repr::Inline(a), Repr::Inline(b)) => a.len() < b.len() && a.window_matches(b),
            _ => self.len() < other.len() && spilled::is_prefix(self, other),
        }
    }

    /// The paper's `Prefixes(k)`: all proper prefixes of `k`, from `ε`
    /// up to `k` minus its last digit.
    ///
    /// `Prefixes(10101) = {ε, 1, 10, 101, 1010}`.
    pub fn proper_prefixes(&self) -> impl Iterator<Item = Key> + '_ {
        (0..self.len()).map(move |n| self.truncated(n))
    }

    /// The paper's `GCP(k1, k2)`: longest common prefix of the two keys.
    ///
    /// `GCP(101, 100) = 10`.
    pub fn gcp(&self, other: &Key) -> Key {
        self.truncated(self.gcp_len(other))
    }

    /// Length of the greatest common prefix, `|GCP(self, other)|`,
    /// without allocating. Two inline keys: `XOR` the words and count
    /// the leading zero bytes of the first non-zero one (padding equal
    /// to a real `0x00` digit is cut off by the shorter length).
    /// Otherwise the same in 8-byte chunks over the digit slices.
    #[inline]
    pub fn gcp_len(&self, other: &Key) -> usize {
        debug_assert!(self.is_canonical() && other.is_canonical());
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.0, &other.0) {
            return a.first_difference(b).min(a.len()).min(b.len());
        }
        spilled::gcp_len(self, other)
    }

    /// Greatest common prefix of a whole collection (`GCP(w1, w2, …)`).
    /// Returns `None` for an empty collection.
    pub fn gcp_all<I, K>(keys: I) -> Option<Key>
    where
        I: IntoIterator<Item = K>,
        K: Borrow<Key>,
    {
        let mut iter = keys.into_iter();
        let first = iter.next()?.borrow().clone();
        let mut len = first.len();
        for k in iter {
            len = len.min(first.gcp_len(k.borrow()));
            if len == 0 {
                break;
            }
        }
        Some(first.truncated(len))
    }

    /// The digit of `self` at position `|prefix|`, i.e. the digit that
    /// distinguishes this key within the subtree rooted at `prefix`.
    /// `None` if `self` is not longer than the prefix.
    pub fn digit_after(&self, prefix: &Key) -> Option<u8> {
        self.as_bytes().get(prefix.len()).copied()
    }

    /// Renders the key for display; `ε` shows as `"ε"`.
    pub fn display(&self) -> String {
        self.to_string()
    }
}

/// The comparisons over digit slices, for pairs with a spilled key.
/// Out of line, so that the word forms above stay small enough to
/// inline into every map probe and tree walk.
mod spilled {
    use super::Key;
    use std::cmp::Ordering;

    #[cold]
    pub(super) fn eq(a: &Key, b: &Key) -> bool {
        a.as_bytes() == b.as_bytes()
    }

    #[cold]
    pub(super) fn cmp(a: &Key, b: &Key) -> Ordering {
        a.as_bytes().cmp(b.as_bytes())
    }

    #[cold]
    pub(super) fn is_prefix(a: &Key, b: &Key) -> bool {
        b.as_bytes().starts_with(a.as_bytes())
    }

    /// 8-byte chunks: `XOR` plus `trailing_zeros` locates the first
    /// differing digit.
    #[cold]
    pub(super) fn gcp_len(a: &Key, b: &Key) -> usize {
        let (a, b) = (a.as_bytes(), b.as_bytes());
        let n = a.len().min(b.len());
        let mut i = 0;
        while i + 8 <= n {
            let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte window"))
                ^ u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte window"));
            if x != 0 {
                return i + (x.trailing_zeros() / 8) as usize;
            }
            i += 8;
        }
        while i < n && a[i] == b[i] {
            i += 1;
        }
        i
    }
}

impl Default for Key {
    fn default() -> Self {
        Key::epsilon()
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        debug_assert!(self.is_canonical() && other.is_canonical());
        match (&self.0, &other.0) {
            // The length byte is part of the last word.
            (Repr::Inline(a), Repr::Inline(b)) => {
                let (a, b) = (a.words(), b.words());
                (a[0] ^ b[0]) | (a[1] ^ b[1]) | (a[2] ^ b[2]) == 0
            }
            _ => spilled::eq(self, other),
        }
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        debug_assert!(self.is_canonical() && other.is_canonical());
        match (&self.0, &other.0) {
            // Zero-padded big-endian words order like the digit
            // strings wherever those differ; when all 23 padded digits
            // agree the shorter key is a prefix of the longer, and the
            // length byte — lowest in the last word — says which.
            (Repr::Inline(a), Repr::Inline(b)) => {
                let (a, b) = (a.words(), b.words());
                if a[0] != b[0] {
                    a[0].cmp(&b[0])
                } else if a[1] != b[1] {
                    a[1].cmp(&b[1])
                } else {
                    a[2].cmp(&b[2])
                }
            }
            _ => spilled::cmp(self, other),
        }
    }
}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.0 {
            // The canonical form makes equal keys equal words, length
            // included; a spilled key is never equal to an inline one,
            // so the two arms need not agree with each other.
            Repr::Inline(a) => {
                let [w0, w1, w2] = a.words();
                state.write_u64(w0);
                state.write_u64(w1);
                state.write_u64(w2);
            }
            Repr::Spill(a) => a.hash(state),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        match std::str::from_utf8(self.as_bytes()) {
            Ok(s) => f.write_str(s),
            Err(_) => {
                for b in self.as_bytes() {
                    write!(f, "\\x{b:02x}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({self})")
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::from_slice(s.as_bytes())
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key::from_slice(s.as_bytes())
    }
}

impl From<&[u8]> for Key {
    fn from(b: &[u8]) -> Self {
        Key::from_slice(b)
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// Circular-interval membership on the identifier ring.
///
/// The ring closes the total lexicographic order: the successor of the
/// greatest identifier wraps to the least. `in_ring_interval(x, a, b)`
/// is true iff walking clockwise (ascending) from just above `a` one
/// meets `x` no later than `b` — i.e. `x ∈ (a, b]` circularly. When
/// `a == b` the interval is the whole ring (every `x` qualifies),
/// matching the one-peer case where that peer owns everything.
#[inline]
pub fn in_ring_interval(x: &Key, a: &Key, b: &Key) -> bool {
    use std::cmp::Ordering::*;
    match a.cmp(b) {
        Less => x > a && x <= b,
        Greater => x > a || x <= b,
        Equal => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn epsilon_is_neutral_for_concat() {
        let w = k("10101");
        assert_eq!(Key::epsilon().concat(&w), w);
        assert_eq!(w.concat(&Key::epsilon()), w);
        assert_eq!(Key::epsilon().len(), 0);
        assert!(Key::epsilon().is_empty());
    }

    #[test]
    fn prefixes_matches_paper_example() {
        // Prefixes(10101) = {ε, 1, 10, 101, 1010}
        let got: Vec<Key> = k("10101").proper_prefixes().collect();
        let want = vec![Key::epsilon(), k("1"), k("10"), k("101"), k("1010")];
        assert_eq!(got, want);
    }

    #[test]
    fn gcp_matches_paper_example() {
        // GCP(101, 100) = 10
        assert_eq!(k("101").gcp(&k("100")), k("10"));
        assert_eq!(k("101").gcp_len(&k("100")), 2);
    }

    #[test]
    fn gcp_is_commutative_and_idempotent() {
        let a = k("10111");
        let b = k("101");
        assert_eq!(a.gcp(&b), b.gcp(&a));
        assert_eq!(a.gcp(&a), a);
        assert_eq!(a.gcp(&Key::epsilon()), Key::epsilon());
    }

    #[test]
    fn gcp_all_over_collection() {
        let keys = [k("10101"), k("10111"), k("101111")];
        assert_eq!(Key::gcp_all(keys.iter()), Some(k("101")));
        assert_eq!(Key::gcp_all(std::iter::empty::<Key>()), None);
        assert_eq!(Key::gcp_all([k("01"), k("10101")]), Some(Key::epsilon()));
        assert_eq!(Key::gcp_all([k("abc")]), Some(k("abc")));
    }

    #[test]
    fn prefix_predicates() {
        assert!(k("10").is_prefix_of(&k("10")));
        assert!(!k("10").is_proper_prefix_of(&k("10")));
        assert!(k("10").is_proper_prefix_of(&k("101")));
        assert!(Key::epsilon().is_prefix_of(&k("0")));
        assert!(!k("11").is_prefix_of(&k("10")));
    }

    #[test]
    fn lexicographic_order_includes_prefix_rule() {
        // A proper prefix sorts strictly before its extensions.
        assert!(k("10") < k("101"));
        assert!(k("101") < k("11"));
        assert!(Key::epsilon() < k("0"));
        assert!(k("DGEMM") < k("DTRSM"));
    }

    #[test]
    fn digit_after_prefix() {
        assert_eq!(k("10101").digit_after(&k("10")), Some(b'1'));
        assert_eq!(k("10").digit_after(&k("10")), None);
        assert_eq!(k("0").digit_after(&Key::epsilon()), Some(b'0'));
    }

    #[test]
    fn truncated_and_child() {
        assert_eq!(k("10101").truncated(3), k("101"));
        assert_eq!(k("10101").truncated(99), k("10101"));
        assert_eq!(k("10").child(b'1'), k("101"));
    }

    #[test]
    fn display_shows_epsilon() {
        assert_eq!(Key::epsilon().to_string(), "ε");
        assert_eq!(k("DGEMM").to_string(), "DGEMM");
        assert_eq!(format!("{:?}", k("01")), "Key(01)");
    }

    #[test]
    fn ring_interval_linear_case() {
        let (a, b) = (k("B"), k("M"));
        assert!(in_ring_interval(&k("C"), &a, &b));
        assert!(in_ring_interval(&k("M"), &a, &b)); // right-closed
        assert!(!in_ring_interval(&k("B"), &a, &b)); // left-open
        assert!(!in_ring_interval(&k("Z"), &a, &b));
    }

    #[test]
    fn ring_interval_wrapping_case() {
        let (a, b) = (k("M"), k("B")); // wraps through the maximum
        assert!(in_ring_interval(&k("Z"), &a, &b));
        assert!(in_ring_interval(&k("A"), &a, &b));
        assert!(in_ring_interval(&k("B"), &a, &b));
        assert!(!in_ring_interval(&k("C"), &a, &b));
        assert!(!in_ring_interval(&k("M"), &a, &b));
    }

    #[test]
    fn key_is_small_and_short_keys_stay_inline() {
        assert_eq!(std::mem::size_of::<Key>(), 32);
        assert!(Key::epsilon().is_inline());
        assert!(Key::from_bytes(vec![b'x'; KEY_INLINE_CAP]).is_inline());
        assert!(!Key::from_bytes(vec![b'x'; KEY_INLINE_CAP + 1]).is_inline());
        assert!(k("S3L_set_array_element").is_inline(), "longest corpus key");
    }

    #[test]
    fn inline_and_spilled_keys_are_observationally_identical() {
        let long = "X".repeat(KEY_INLINE_CAP + 9);
        let spilled = Key::from(long.as_str());
        assert_eq!(spilled.len(), KEY_INLINE_CAP + 9);
        assert_eq!(spilled.to_string(), long);
        // Operations crossing the boundary land in the right repr.
        let head = spilled.truncated(KEY_INLINE_CAP);
        assert!(head.is_inline());
        assert!(head.is_proper_prefix_of(&spilled));
        assert_eq!(head.concat(&spilled.truncated(9)), {
            let mut v = "X".repeat(KEY_INLINE_CAP);
            v.push_str(&"X".repeat(9));
            Key::from(v)
        });
        assert_eq!(spilled.gcp(&head), head);
        // Equality and ordering ignore the representation.
        let rebuilt = Key::from_slice(spilled.as_bytes());
        assert_eq!(spilled, rebuilt);
        assert_eq!(spilled.cmp(&rebuilt), Ordering::Equal);
    }

    #[test]
    fn inline_window_padding_is_zeroed() {
        // The decoder hands over raw wire bytes: whatever follows the
        // digits in the window must not survive into the key.
        let window = [0xA5u8; KEY_INLINE_CAP];
        for len in 0..=KEY_INLINE_CAP {
            let key = Key::from_inline_window(&window, len);
            assert!(key.is_canonical(), "len {len}");
            assert_eq!(key, Key::from_slice(&window[..len]));
        }
    }

    #[test]
    fn inline_boundary_ordering_matches_byte_order() {
        let a = Key::from_bytes(vec![b'a'; KEY_INLINE_CAP]); // inline
        let b = Key::from_bytes(vec![b'a'; KEY_INLINE_CAP + 1]); // spill
        assert!(a < b, "prefix sorts before its extension across reprs");
        assert!(a.is_prefix_of(&b));
        assert_eq!(a.gcp_len(&b), KEY_INLINE_CAP);
    }

    #[test]
    fn ring_interval_degenerate_is_full_ring() {
        let a = k("Q");
        assert!(in_ring_interval(&k("A"), &a, &a));
        assert!(in_ring_interval(&k("Q"), &a, &a));
        assert!(in_ring_interval(&k("Z"), &a, &a));
    }
}
