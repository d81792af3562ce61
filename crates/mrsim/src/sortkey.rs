//! Intermediate keys as sortable bytes (DESIGN.md §22).
//!
//! Grouping a job's map output is a sort of its keys, and a [`Value`] key
//! is a tree of reference-counted pointers: comparing two
//! `Pair(Text, Text)` keys chases three of them per side. A [`KeyArena`]
//! renders each key once, as it is emitted, into bytes whose
//! lexicographic order is `Value`'s order, and the sort, the grouping and
//! the distinct count read those bytes instead.
//!
//! | value | bytes |
//! |---|---|
//! | `Null` | `01` |
//! | `Int(i)`, `Float(x)` | `02`, then the eight big-endian bits of the value as an `f64`, sign-mapped (negative: all bits flipped; otherwise: sign bit set) so that unsigned byte order is IEEE total order |
//! | `Text(s)` | `03`, then the bytes of `s` with each `00` written `00 FF`, then `00` |
//! | `Pair(a, b)` | `04`, then `a`'s bytes, then `b`'s |
//! | `List(_)`, `Map(_)` | `05` / `06`, and the encoding ends: the key is *opaque* |
//!
//! An `Int` beyond ±2^53 is written as the `f64` it rounds to and ends the
//! encoding as well. Rounding is monotone, so for any two keys
//!
//! 1. if the bytes differ at a position both have, their order is the
//!    keys' order;
//! 2. if neither key is opaque, equal bytes mean `Ord`-equal keys (and a
//!    proper prefix — only `"a"` against `"a\0…"` — orders first, as the
//!    shorter text does);
//! 3. `Int(k)` and `Float(k)` are the same bytes, as `Value::cmp` has them
//!    share a group, while `Float(-0.0)` and `Int(0)` are not.
//!
//! Only where the bytes of an opaque key run out undecided does a
//! comparison fall back to [`Value::cmp`]. `Eq` is finer than `Ord`
//! exactly on numerics (`Int(1) != Float(1.0)`), so each key also records
//! whether its bytes contain one.
//!
//! A record carries the first eight bytes of its key (zero-padded) as one
//! big-endian word, so most comparisons are a `u64` compare that touches
//! nothing but the records being sorted. Zero padding is safe: no encoding
//! is another encoding followed only by zeros, and where an opaque key's
//! bytes end, every key sharing them ends too.

use std::cmp::Ordering;
use std::ops::{Index, RangeBounds};

use mrjobs::Value;

const NULL: u8 = 1;
const NUMERIC: u8 = 2;
const TEXT: u8 = 3;
const PAIR: u8 = 4;
const LIST: u8 = 5;
const MAP: u8 = 6;

/// The largest magnitude up to which every integer is an `f64`.
const EXACT_INT: u64 = 1 << 53;

/// `Value::cmp` must break a tie of this key's bytes.
const OPAQUE: usize = 0b01;
/// The bytes contain a numeric: equal bytes need not be `Eq` keys.
const HAS_NUMERIC: usize = 0b10;
const FLAG_BITS: u32 = 2;
const FLAGS: usize = OPAQUE | HAS_NUMERIC;

/// `KeyRec::tail` of a key that is whole in its prefix, with no flag set.
const NO_TAIL: u32 = u32::MAX;

/// Append `key`'s order-preserving bytes (module docs) to `out`; returns
/// its [`OPAQUE`] and [`HAS_NUMERIC`] flags.
fn encode(key: &Value, out: &mut Vec<u8>) -> usize {
    match key {
        Value::Null => {
            out.push(NULL);
            0
        }
        Value::Int(i) => {
            encode_f64(*i as f64, out);
            if i.unsigned_abs() > EXACT_INT {
                HAS_NUMERIC | OPAQUE
            } else {
                HAS_NUMERIC
            }
        }
        Value::Float(x) => {
            encode_f64(x.0, out);
            HAS_NUMERIC
        }
        Value::Text(s) => {
            out.push(TEXT);
            if s.as_bytes().contains(&0) {
                for &b in s.as_bytes() {
                    out.push(b);
                    if b == 0 {
                        out.push(0xFF);
                    }
                }
            } else {
                out.extend_from_slice(s.as_bytes());
            }
            out.push(0);
            0
        }
        Value::Pair(p) => {
            out.push(PAIR);
            let first = encode(&p.0, out);
            if first & OPAQUE != 0 {
                first
            } else {
                first | encode(&p.1, out)
            }
        }
        Value::List(_) => {
            out.push(LIST);
            OPAQUE
        }
        Value::Map(_) => {
            out.push(MAP);
            OPAQUE
        }
    }
}

fn encode_f64(x: f64, out: &mut Vec<u8>) {
    let bits = x.to_bits();
    let mapped = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    out.push(NUMERIC);
    out.extend_from_slice(&mapped.to_be_bytes());
}

/// One key of a [`KeyArena`]: sixteen bytes, and the unit the sort moves.
#[derive(Debug, Clone, Copy)]
pub struct KeyRec {
    /// The first eight bytes of the encoding, zero-padded, big-endian.
    prefix: u64,
    /// Which emitted pair this is.
    index: u32,
    /// Where in the arena the rest of the key starts, or [`NO_TAIL`].
    tail: u32,
}

impl KeyRec {
    /// The key's position in emission order.
    pub fn index(&self) -> usize {
        self.index as usize
    }
}

/// The pushed keys by index, which break the tie of two keys the bytes do
/// not order: a vector, or a map output kept in two segments.
pub trait Keys: Index<usize, Output = Value> {}

impl<K: Index<usize, Output = Value> + ?Sized> Keys for K {}

/// The arena holds more keys or bytes than a `u32` addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFull;

/// The emitted keys of one map output as sortable records plus one byte
/// arena; the records, once sorted, *are* the grouping order.
#[derive(Debug, Default)]
pub struct KeyArena {
    recs: Vec<KeyRec>,
    /// For each key that is opaque, contains a numeric or is longer than
    /// its prefix: a LEB128 header `(len << 2 | flags)`, then the `len`
    /// encoded bytes beyond the eighth.
    tails: Vec<u8>,
    /// The key being encoded.
    scratch: Vec<u8>,
}

/// Index or offset `n` as the `u32` a record stores.
fn slot(n: usize) -> Result<u32, ArenaFull> {
    u32::try_from(n)
        .ok()
        .filter(|&n| n != NO_TAIL)
        .ok_or(ArenaFull)
}

impl KeyArena {
    pub fn new() -> Self {
        KeyArena::default()
    }

    /// Bytes held beyond the records' prefixes.
    pub(crate) fn tail_bytes(&self) -> usize {
        self.tails.len()
    }

    /// Make room for `keys` more keys and `tail_bytes` more arena bytes in
    /// one allocation each.
    pub(crate) fn reserve_exact(&mut self, keys: usize, tail_bytes: usize) {
        self.recs.reserve_exact(keys);
        self.tails.reserve_exact(tail_bytes);
    }

    /// Append the next emitted key; its record's index is its position.
    pub fn push(&mut self, key: &Value) -> Result<(), ArenaFull> {
        self.scratch.clear();
        let flags = encode(key, &mut self.scratch);
        let mut prefix = [0u8; 8];
        let head = self.scratch.len().min(8);
        prefix[..head].copy_from_slice(&self.scratch[..head]);
        let rest = &self.scratch[head..];

        let index = slot(self.recs.len())?;
        let mut tail = NO_TAIL;
        if flags != 0 || !rest.is_empty() {
            tail = slot(self.tails.len())?;
            let mut header = rest.len() << FLAG_BITS | flags;
            while header >= 0x80 {
                self.tails.push(header as u8 | 0x80);
                header >>= 7;
            }
            self.tails.push(header as u8);
            self.tails.extend_from_slice(rest);
        }
        self.recs.push(KeyRec {
            prefix: u64::from_be_bytes(prefix),
            index,
            tail,
        });
        Ok(())
    }

    /// Append the records and tails of `next`, whose keys were emitted
    /// after this arena's, as if they had been pushed here: each record's
    /// index and tail offset move past this arena's and are checked as
    /// [`KeyArena::push`] checks them.
    pub(crate) fn append(&mut self, next: KeyArena) -> Result<(), ArenaFull> {
        let (base, tail_base) = (self.recs.len(), self.tails.len());
        self.recs.reserve_exact(next.recs.len());
        for rec in next.recs {
            let index = slot(base + rec.index())?;
            let tail = match rec.tail {
                NO_TAIL => NO_TAIL,
                tail => slot(tail_base + tail as usize)?,
            };
            self.recs.push(KeyRec { index, tail, ..rec });
        }
        self.tails.extend_from_slice(&next.tails);
        Ok(())
    }

    /// Stable-sort the records from position `from` on by key. `keys` are
    /// the pushed keys by index, read only to break an opaque key's tie.
    /// Stability is what makes this a grouping: among equal keys, records
    /// stay in emission order. Sorting a concatenation of already-sorted
    /// runs (the per-chunk orders the combiner left behind) is a merge of
    /// those runs.
    pub fn sort<K: Keys + ?Sized>(&mut self, from: usize, keys: &K) {
        let tails = &self.tails;
        self.recs[from..].sort_by(|a, b| {
            a.prefix
                .cmp(&b.prefix)
                .then_with(|| cmp_tails(tails, a, b, keys))
        });
    }

    /// The sorted records at positions `range`, split into groups of
    /// `Ord`-equal keys, in key order. The first record of a group is its
    /// first-emitted pair, whose key represents the group.
    pub fn groups<'a, K: Keys + ?Sized>(
        &'a self,
        range: impl RangeBounds<usize>,
        keys: &'a K,
    ) -> impl Iterator<Item = &'a [KeyRec]> {
        let range = (range.start_bound().cloned(), range.end_bound().cloned());
        self.recs[range].chunk_by(|a, b| same_group(&self.tails, a, b, keys))
    }

    /// The group boundary of the sorted records nearest position `at`, the
    /// lower one of two as near: a position no group of `Ord`-equal keys
    /// spans, `0` and the record count included.
    pub(crate) fn boundary_near<K: Keys + ?Sized>(&self, at: usize, keys: &K) -> usize {
        let len = self.recs.len();
        let cuts = |&i: &usize| {
            i == 0 || i == len || !same_group(&self.tails, &self.recs[i - 1], &self.recs[i], keys)
        };
        let below = (0..=at).rev().find(cuts).unwrap_or(0);
        let above = (at..=len).find(cuts).unwrap_or(len);
        if above - at < at - below {
            above
        } else {
            below
        }
    }

    /// Whether every key `Ord`-equal to this one is `Eq` to it as well:
    /// the bytes are the whole key and contain no numeric.
    pub(crate) fn ord_equal_is_eq(&self, rec: &KeyRec) -> bool {
        entry(&self.tails, rec.tail).0 == 0
    }
}

/// Flags and bytes beyond the prefix of the key whose entry is at `tail`.
fn entry(tails: &[u8], tail: u32) -> (usize, &[u8]) {
    if tail == NO_TAIL {
        return (0, &[]);
    }
    let bytes = &tails[tail as usize..];
    let mut header = 0usize;
    let mut read = 0;
    loop {
        let b = bytes[read];
        header |= usize::from(b & 0x7f) << (7 * read);
        read += 1;
        if b < 0x80 {
            break;
        }
    }
    let len = header >> FLAG_BITS;
    (header & FLAGS, &bytes[read..read + len])
}

/// Whether two records' keys are `Ord`-equal: one group.
fn same_group<K: Keys + ?Sized>(tails: &[u8], a: &KeyRec, b: &KeyRec, keys: &K) -> bool {
    a.prefix == b.prefix && cmp_tails(tails, a, b, keys).is_eq()
}

/// Order two keys whose prefixes tie.
fn cmp_tails<K: Keys + ?Sized>(tails: &[u8], a: &KeyRec, b: &KeyRec, keys: &K) -> Ordering {
    let (a_flags, a_rest) = entry(tails, a.tail);
    let (b_flags, b_rest) = entry(tails, b.tail);
    // Only as far as both have bytes: an opaque key's stop short of the
    // key. And never zero bytes: an empty slice may point at no mapped
    // page, where a vectorised `memcmp` of nothing costs a microcode
    // assist — a hundred nanoseconds on every tie of two short keys.
    let shared = a_rest.len().min(b_rest.len());
    if shared > 0 {
        let decided = a_rest[..shared].cmp(&b_rest[..shared]);
        if decided.is_ne() {
            return decided;
        }
    }
    if (a_flags | b_flags) & OPAQUE != 0 {
        keys[a.index()].cmp(&keys[b.index()])
    } else {
        a_rest.len().cmp(&b_rest.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const BIG: i64 = 1 << 53;

    /// A key's bytes and flags.
    fn bytes(v: &Value) -> (Vec<u8>, usize) {
        let mut out = Vec::new();
        let flags = encode(v, &mut out);
        (out, flags)
    }

    fn opaque(v: &Value) -> bool {
        bytes(v).1 & OPAQUE != 0
    }

    fn numeric(v: &Value) -> bool {
        bytes(v).1 & HAS_NUMERIC != 0
    }

    /// What the bytes alone say about two keys: an order where they differ
    /// at a position both have, or where neither is opaque.
    fn decided_by_bytes(a: &Value, b: &Value) -> Option<Ordering> {
        let (a_bytes, b_bytes) = (bytes(a).0, bytes(b).0);
        let shared = a_bytes.len().min(b_bytes.len());
        match a_bytes[..shared].cmp(&b_bytes[..shared]) {
            Ordering::Equal if opaque(a) || opaque(b) => None,
            Ordering::Equal => Some(a_bytes.len().cmp(&b_bytes.len())),
            decided => Some(decided),
        }
    }

    fn arena_of(keys: &[Value]) -> KeyArena {
        let mut arena = KeyArena::new();
        for key in keys {
            arena.push(key).unwrap();
        }
        arena
    }

    fn sorted_indices(keys: &[Value]) -> Vec<usize> {
        let mut arena = arena_of(keys);
        arena.sort(0, keys);
        arena.recs.iter().map(KeyRec::index).collect()
    }

    /// The leaves `golden_dataflow.rs`'s hostile job is made of.
    fn hostile_leaves() -> Vec<Value> {
        let t = Value::text;
        let f = Value::float;
        let map_of = |v: Value| Value::map(BTreeMap::from([("a".to_string(), v)]));
        vec![
            Value::Null,
            t(""),
            t("\0"),
            t("\0\0"),
            t("a"),
            t("a\0"),
            t("a\0\0"),
            t("a\0b"),
            t("a\0é"),
            t("a\u{1}"),
            t("ab"),
            t("é"),
            t("\u{10ffff}"),
            t("item1234"),
            t("item1234-shared"),
            t("item1234-shareD"),
            t("item1234-shared\0"),
            f(-f64::NAN),
            f(f64::NEG_INFINITY),
            Value::Int(i64::MIN),
            f(i64::MIN as f64),
            Value::Int(-BIG - 1),
            Value::Int(-BIG),
            f(-(BIG as f64)),
            Value::Int(-1),
            f(-1.0),
            f(-0.0),
            Value::Int(0),
            f(0.0),
            f(f64::MIN_POSITIVE),
            Value::Int(1),
            f(1.0),
            Value::Int(BIG - 1),
            Value::Int(BIG),
            f(BIG as f64),
            Value::Int(BIG + 1),
            Value::Int(BIG + 2),
            f((BIG + 2) as f64),
            f(i64::MAX as f64),
            Value::Int(i64::MAX),
            f(f64::INFINITY),
            f(f64::NAN),
            Value::list(vec![]),
            Value::list(vec![Value::Int(1)]),
            Value::list(vec![f(1.0)]),
            Value::list(vec![Value::Int(1), Value::Int(2)]),
            Value::map(BTreeMap::new()),
            map_of(Value::Int(1)),
            map_of(f(1.0)),
            map_of(t("\0")),
        ]
    }

    /// Hostile leaves, arbitrary short texts and numbers, nested in pairs
    /// to depth 3.
    fn arb_key() -> impl Strategy<Value = Value> {
        let leaves = hostile_leaves();
        let leaf = prop_oneof![
            6 => (0..leaves.len()).prop_map(move |i| leaves[i].clone()),
            1 => "[a-b\0]{0,10}".prop_map(Value::text),
            1 => any::<i64>().prop_map(Value::Int),
            1 => any::<u64>().prop_map(|bits| Value::float(f64::from_bits(bits))),
        ];
        leaf.prop_recursive(3, 8, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Value::pair(a, b))
        })
    }

    #[test]
    fn the_table_in_the_module_docs() {
        assert_eq!(bytes(&Value::Null).0, [1]);
        assert_eq!(bytes(&Value::text("a\0b")).0, [3, b'a', 0, 0xFF, b'b', 0]);
        assert_eq!(
            bytes(&Value::Int(1)).0,
            [2, 0xBF, 0xF0, 0, 0, 0, 0, 0, 0],
            "1.0 is 0x3FF0…, sign bit set"
        );
        assert_eq!(
            bytes(&Value::float(-1.0)).0,
            [2, 0x40, 0x0F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
            "-1.0 is 0xBFF0…, all bits flipped"
        );
        assert_eq!(
            bytes(&Value::pair(Value::text(""), Value::Null)).0,
            [4, 3, 0, 1]
        );
        let list_second = Value::pair(Value::text("p"), Value::list(vec![Value::Int(1)]));
        assert_eq!(bytes(&list_second).0, [4, 3, b'p', 0, 5]);
        let list_first = Value::pair(Value::list(vec![]), Value::text("never written"));
        assert_eq!(bytes(&list_first).0, [4, 5]);
        assert!(opaque(&list_first) && !numeric(&list_first));
    }

    #[test]
    fn an_int_and_the_float_it_equals_are_the_same_bytes() {
        for k in [0, 1, -1, 42, BIG, -BIG, BIG - 1] {
            let (int, float) = (Value::Int(k), Value::float(k as f64));
            assert_eq!(int.cmp(&float), Ordering::Equal);
            assert_eq!(bytes(&int), bytes(&float), "{k}");
            assert!(numeric(&int) && !opaque(&int));
        }
        // Negative zero is below the integer zero, in bytes as in `cmp`.
        let (neg_zero, zero) = (Value::float(-0.0), Value::Int(0));
        assert_eq!(neg_zero.cmp(&zero), Ordering::Less);
        assert!(bytes(&neg_zero).0 < bytes(&zero).0);
    }

    #[test]
    fn an_int_beyond_2_pow_53_is_its_rounded_bytes_and_opaque() {
        let (odd, even) = (Value::Int(BIG + 1), Value::float(BIG as f64));
        assert_eq!(bytes(&odd).0, bytes(&even).0, "2^53 + 1 rounds to 2^53");
        assert!(opaque(&odd) && !opaque(&even));
        assert_eq!(decided_by_bytes(&odd, &even), None);
        // The issue's example: the first components tie on bytes, so the
        // second component may not be consulted — it is not even written.
        let a = Value::pair(Value::Int(BIG + 1), Value::text("a"));
        let x = Value::pair(Value::Int(BIG), Value::text("x"));
        assert_eq!(decided_by_bytes(&a, &x), None);
        assert_eq!(a.cmp(&x), Ordering::Greater);
        assert_eq!(sorted_indices(&[a, x]), [1, 0]);
        // Where rounding separates them, the bytes do decide.
        let far = Value::Int(BIG + 3);
        assert_eq!(decided_by_bytes(&even, &far), Some(Ordering::Less));
    }

    #[test]
    fn the_hostile_leaves_sort_and_group_as_values_do() {
        let keys = hostile_leaves();
        let mut by_value: Vec<usize> = (0..keys.len()).collect();
        by_value.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        assert_eq!(sorted_indices(&keys), by_value);
    }

    #[test]
    fn a_key_that_is_whole_in_its_prefix_has_no_arena_entry() {
        let keys = [
            Value::text("the"),
            Value::text("sixchr"),
            Value::text("sevench"),
            Value::Int(7),
            Value::list(vec![]),
        ];
        let arena = arena_of(&keys);
        assert_eq!(arena.recs[0].tail, NO_TAIL);
        assert_eq!(arena.recs[1].tail, NO_TAIL, "class byte + 6 + terminator");
        assert_eq!(arena.recs[2].tail, 0, "the terminator is the ninth byte");
        assert_eq!(entry(&arena.tails, 0), (0, &[0u8][..]));
        assert_eq!(entry(&arena.tails, arena.recs[3].tail).0, HAS_NUMERIC);
        assert_eq!(entry(&arena.tails, arena.recs[4].tail), (OPAQUE, &[][..]));
        assert_eq!(arena.tail_bytes(), 2 + 2 + 1);
        assert!(arena.ord_equal_is_eq(&arena.recs[0]) && arena.ord_equal_is_eq(&arena.recs[2]));
        assert!(!arena.ord_equal_is_eq(&arena.recs[3]) && !arena.ord_equal_is_eq(&arena.recs[4]));
    }

    #[test]
    fn a_long_tail_gets_a_multi_byte_header() {
        let long = "x".repeat(300);
        let keys = [Value::text(long.as_str()), Value::text(long + "y")];
        let arena = arena_of(&keys);
        let (flags, rest) = entry(&arena.tails, arena.recs[0].tail);
        assert_eq!((flags, rest.len()), (0, 1 + 300 + 1 - 8));
        assert_eq!(sorted_indices(&keys), [0, 1]);
        assert_eq!(sorted_indices(&[keys[1].clone(), keys[0].clone()]), [1, 0]);
    }

    #[test]
    fn indices_and_offsets_beyond_u32_are_refused() {
        assert_eq!(slot(0), Ok(0));
        assert_eq!(slot(u32::MAX as usize - 1), Ok(u32::MAX - 1));
        assert_eq!(slot(u32::MAX as usize), Err(ArenaFull), "the NO_TAIL mark");
        assert_eq!(slot(u32::MAX as usize + 1), Err(ArenaFull));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Properties 1–3 of the module docs, on pairs of keys.
        #[test]
        fn bytes_order_as_values_do(a in arb_key(), b in arb_key()) {
            if let Some(order) = decided_by_bytes(&a, &b) {
                prop_assert_eq!(order, a.cmp(&b), "{:?} vs {:?}", a, b);
            }
            let (a_bytes, b_bytes) = (bytes(&a).0, bytes(&b).0);
            if !opaque(&a) && !opaque(&b) {
                prop_assert_eq!(a_bytes == b_bytes, a.cmp(&b).is_eq(), "{:?} vs {:?}", a, b);
            }
            if a == b {
                prop_assert_eq!(a_bytes, b_bytes);
            } else if a.cmp(&b).is_eq() {
                prop_assert!(numeric(&a) || opaque(&a), "{:?} vs {:?}", a, b);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The arena's sort is `sort_by(Value::cmp)`, ties in emission
        /// order, and its groups are the `BTreeMap` grouping that
        /// `golden_dataflow.rs` keeps as oracle — on the whole output, and
        /// on a tail of it sorted alone as a chunk is. An arena appended to
        /// another is the arena of both pushed in order.
        #[test]
        fn the_arena_sorts_and_groups_as_values_do(
            keys in prop::collection::vec(arb_key(), 0..40),
            from in 0usize..40,
        ) {
            let from = from.min(keys.len());
            let mut arena = arena_of(&keys);
            let mut appended = arena_of(&keys[..from]);
            appended.append(arena_of(&keys[from..])).unwrap();
            prop_assert_eq!(format!("{:?}", appended.recs), format!("{:?}", arena.recs));
            prop_assert_eq!(&appended.tails, &arena.tails);
            for start in [from, 0] {
                let mut by_value: Vec<usize> = (start..keys.len()).collect();
                by_value.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
                arena.sort(start, &keys);
                let by_arena: Vec<usize> = arena.recs[start..].iter().map(KeyRec::index).collect();
                prop_assert_eq!(&by_arena, &by_value);

                let mut oracle: BTreeMap<&Value, Vec<usize>> = BTreeMap::new();
                for (i, key) in keys.iter().enumerate().skip(start) {
                    oracle.entry(key).or_default().push(i);
                }
                let grouped: Vec<Vec<usize>> = arena
                    .groups(start.., &keys)
                    .map(|g| g.iter().map(KeyRec::index).collect())
                    .collect();
                prop_assert_eq!(grouped, oracle.values().cloned().collect::<Vec<_>>());
                for group in arena.groups(start.., &keys) {
                    if arena.ord_equal_is_eq(&group[0]) {
                        prop_assert!(group.iter().all(|r| keys[r.index()] == keys[group[0].index()]));
                    }
                }
            }
        }

        /// Two arenas sorted apart and appended sort, as one, into the
        /// records of the whole output sorted at once: a stable sort of two
        /// stably sorted runs. And the group boundary nearest any position
        /// is one `Value::cmp` sees, the nearest such (the lower of two),
        /// never inside a group of `Ord`-equal keys.
        #[test]
        fn halves_sorted_apart_merge_and_boundaries_cut_no_group(
            keys in prop::collection::vec(
                prop_oneof![2 => arb_key(), 3 => (0..twins().len()).prop_map(|i| twins()[i].clone())],
                0..40,
            ),
            from in 0usize..40,
        ) {
            let from = from.min(keys.len());
            let mut whole = arena_of(&keys);
            whole.sort(0, &keys);
            let mut halves = arena_of(&keys[..from]);
            halves.sort(0, &keys[..from]);
            let mut tail = arena_of(&keys[from..]);
            tail.sort(0, &keys[from..]);
            halves.append(tail).unwrap();
            halves.sort(0, &keys);
            prop_assert_eq!(format!("{:?}", halves.recs), format!("{:?}", whole.recs));

            let order: Vec<&Value> = whole.recs.iter().map(|r| &keys[r.index()]).collect();
            let len = keys.len();
            let cuts: Vec<usize> = (0..=len)
                .filter(|&i| i == 0 || i == len || order[i - 1].cmp(order[i]).is_ne())
                .collect();
            for at in 0..=len {
                let nearest = cuts.iter().copied().min_by_key(|&cut| (cut.abs_diff(at), cut));
                prop_assert_eq!(Some(whole.boundary_near(at, &keys)), nearest, "at {}", at);
            }
        }
    }

    /// Keys `Ord`-equal and not `Eq` to one another, so that groups of
    /// several spellings are common.
    fn twins() -> [Value; 8] {
        let list_of = |v: Value| Value::list(vec![v]);
        [
            Value::Int(1),
            Value::float(1.0),
            Value::Int(BIG + 1),
            Value::float(BIG as f64),
            list_of(Value::Int(1)),
            list_of(Value::float(1.0)),
            Value::pair(Value::Int(1), Value::text("a")),
            Value::pair(Value::float(1.0), Value::text("a")),
        ]
    }

    #[test]
    fn the_boundary_nearest_a_position_keeps_int_and_float_together() {
        let keys = [
            Value::Int(1),
            Value::float(1.0),
            Value::Int(2),
            Value::Int(1),
            Value::float(1.0),
        ];
        let mut arena = arena_of(&keys);
        arena.sort(0, &keys);
        // Sorted: the four spellings of 1, then 2. Boundaries 0, 4, 5.
        let nearest: Vec<usize> = (0..=5).map(|at| arena.boundary_near(at, &keys)).collect();
        assert_eq!(
            nearest,
            [0, 0, 0, 4, 4, 5],
            "2 is as near 0 as 4: the lower wins"
        );
    }
}
