//! The value model for MapReduce records.
//!
//! Hadoop jobs exchange `Writable` values (`LongWritable`, `Text`,
//! `PairOfStrings`, `MapWritable`, ...). This module provides a dynamically
//! typed equivalent with a total ordering (intermediate keys must be
//! sortable) and a serialized-size model that approximates Hadoop's
//! `Writable` wire format, which is what the simulator's byte counters and
//! the profile dataflow statistics are based on.
//!
//! The heap variants are shared-ownership: cloning a text, pair, list or
//! map bumps a reference count and copies nothing, so the interpreter can
//! read a variable, index a list, iterate and emit without a deep copy.
//! The in-place updates of the IR (`ListPush`, `MapAdd`, sorting) go
//! through [`Arc::make_mut`], which copies only when the value is shared.
//! `Arc` rather than `Rc` because `TuningService` workers share one
//! `Dataset` across threads.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A dynamically typed record value, the equivalent of a Hadoop `Writable`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Absent value (`NullWritable`).
    Null,
    /// 64-bit integer (`LongWritable` / `IntWritable`).
    Int(i64),
    /// 64-bit float (`DoubleWritable`). Ordered by IEEE total order.
    Float(OrderedF64),
    /// UTF-8 text (`Text`).
    Text(Arc<str>),
    /// A pair of values (`PairOfWritables`).
    Pair(Arc<(Value, Value)>),
    /// A list of values (`ArrayWritable`).
    List(Arc<Vec<Value>>),
    /// A string-keyed associative map (`MapWritable`), used by the
    /// "stripes" family of jobs.
    Map(Arc<BTreeMap<String, Value>>),
}

/// An `f64` wrapper with a total order (IEEE-754 `total_cmp`), so values can
/// serve as intermediate keys in the sort phase.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(pub f64);

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<Arc<str>>) -> Self {
        Value::Text(s.into())
    }

    /// Convenience constructor for float values.
    pub fn float(f: f64) -> Self {
        Value::Float(OrderedF64(f))
    }

    /// Convenience constructor for pairs.
    pub fn pair(a: Value, b: Value) -> Self {
        Value::Pair(Arc::new((a, b)))
    }

    /// Convenience constructor for lists.
    pub fn list(items: Vec<Value>) -> Self {
        Value::List(Arc::new(items))
    }

    /// Convenience constructor for maps.
    pub fn map(entries: BTreeMap<String, Value>) -> Self {
        Value::Map(Arc::new(entries))
    }

    /// Truthiness used by `if`/`while` conditions in the UDF IR.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Float(f) => f.0 != 0.0,
            Value::Text(s) => !s.is_empty(),
            Value::Pair(..) => true,
            Value::List(l) => !l.is_empty(),
            Value::Map(m) => !m.is_empty(),
        }
    }

    /// Approximate serialized size in bytes, mirroring the Hadoop
    /// `Writable` wire format closely enough for dataflow accounting:
    /// longs are 8 bytes, text is a vint length prefix plus the UTF-8
    /// bytes, containers carry a 4-byte cardinality.
    pub fn serialized_size(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Text(s) => vint_size(s.len() as u64) + s.len() as u64,
            Value::Pair(p) => p.0.serialized_size() + p.1.serialized_size(),
            Value::List(l) => 4 + l.iter().map(Value::serialized_size).sum::<u64>(),
            Value::Map(m) => {
                4 + m
                    .iter()
                    .map(|(k, v)| vint_size(k.len() as u64) + k.len() as u64 + v.serialized_size())
                    .sum::<u64>()
            }
        }
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Text(_) => ValueType::Text,
            Value::Pair(..) => ValueType::Pair,
            Value::List(_) => ValueType::List,
            Value::Map(_) => ValueType::Map,
        }
    }

    /// Integer view of the value, if it is numeric.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(f.0 as i64),
            _ => None,
        }
    }

    /// Float view of the value, if it is numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(f.0),
            _ => None,
        }
    }

    /// Text view of the value, if it is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Float(a), Float(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Pair(a), Pair(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (Map(a), Map(b)) => a.cmp(b),
            // Cross-type ordering falls back to a stable type rank so that
            // heterogeneous key streams still sort deterministically.
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

/// An integer against a float, exactly. Comparing `i as f64` alone would
/// call `2^53 + 1` equal to the float `2^53` and so to the integer `2^53`,
/// which it exceeds: not an order, and sorting by it (the simulator groups
/// intermediate keys by sorting them) is allowed to panic. Where the
/// rounded integer ties with the float, the float is that rounded integer
/// and the two are compared as integers.
fn cmp_int_float(i: i64, f: OrderedF64) -> Ordering {
    OrderedF64(i as f64)
        .cmp(&f)
        .then_with(|| i128::from(i).cmp(&(f.0 as i128)))
}

impl Value {
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Text(_) => 3,
            Value::Pair(..) => 4,
            Value::List(_) => 5,
            Value::Map(_) => 6,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", x.0),
            Value::Text(s) => write!(f, "{s}"),
            Value::Pair(p) => write!(f, "({}, {})", p.0, p.1),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Size of a Hadoop-style variable-length integer encoding a length prefix.
fn vint_size(n: u64) -> u64 {
    match n {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

/// The declared type of a key or value slot in a job spec. The display names
/// deliberately follow the Hadoop `Writable` class names, because in PStorM
/// these names are part of the static feature vector (Table 4.3 of the
/// paper: `MAP_IN_KEY`, `MAP_OUT_VAL`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueType {
    /// `NullWritable`
    Null,
    /// `LongWritable`
    Int,
    /// `DoubleWritable`
    Float,
    /// `Text`
    Text,
    /// `PairOfWritables`
    Pair,
    /// `ArrayWritable`
    List,
    /// `MapWritable`
    Map,
}

impl ValueType {
    /// The Hadoop class name this type corresponds to; this string is what
    /// enters the static feature vector.
    pub fn class_name(self) -> &'static str {
        match self {
            ValueType::Null => "NullWritable",
            ValueType::Int => "LongWritable",
            ValueType::Float => "DoubleWritable",
            ValueType::Text => "Text",
            ValueType::Pair => "PairOfWritables",
            ValueType::List => "ArrayWritable",
            ValueType::Map => "MapWritable",
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.class_name())
    }
}

/// A key-value record, the unit of data flowing through a MapReduce job.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Record {
    pub key: Value,
    pub value: Value,
}

impl Record {
    pub fn new(key: Value, value: Value) -> Self {
        Record { key, value }
    }

    /// Serialized size of the whole record.
    pub fn serialized_size(&self) -> u64 {
        self.key.serialized_size() + self.value.serialized_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ordering_is_numeric() {
        assert!(Value::Int(2) < Value::Int(10));
        assert!(Value::Int(-5) < Value::Int(0));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::float(f64::NAN);
        let one = Value::float(1.0);
        // total_cmp puts NaN above all numbers; the point is it does not panic
        // and is consistent.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_ne!(nan.cmp(&one), Ordering::Equal);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int(3).cmp(&Value::float(3.0)), Ordering::Equal);
        assert!(Value::Int(3) < Value::float(3.5));
    }

    #[test]
    fn mixed_numeric_order_is_transitive_beyond_2_pow_53() {
        let big = 1i64 << 53;
        let (a, b, c) = (
            Value::Int(big),
            Value::float(big as f64),
            Value::Int(big + 1),
        );
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a.cmp(&c), Ordering::Less);
        assert_eq!(b.cmp(&c), Ordering::Less);
        assert_eq!(c.cmp(&b), Ordering::Greater);
        assert_eq!(
            Value::Int(i64::MAX).cmp(&Value::float(i64::MAX as f64)),
            Ordering::Less
        );
        assert_eq!(Value::Int(0).cmp(&Value::float(-0.0)), Ordering::Greater);
        assert_eq!(Value::Int(1).cmp(&Value::float(f64::NAN)), Ordering::Less);
    }

    #[test]
    fn pair_ordering_is_lexicographic() {
        let a = Value::pair(Value::text("a"), Value::text("z"));
        let b = Value::pair(Value::text("b"), Value::text("a"));
        assert!(a < b);
        let c = Value::pair(Value::text("a"), Value::text("a"));
        assert!(c < a);
    }

    #[test]
    fn text_size_matches_vint_model() {
        assert_eq!(Value::text("abc").serialized_size(), 1 + 3);
        let long = "x".repeat(200);
        assert_eq!(Value::text(long).serialized_size(), 2 + 200);
    }

    #[test]
    fn container_sizes_include_cardinality() {
        let l = Value::list(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(l.serialized_size(), 4 + 16);
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Int(1));
        assert_eq!(Value::map(m).serialized_size(), 4 + 1 + 1 + 8);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::text("").is_truthy());
        assert!(Value::text("x").is_truthy());
        assert!(!Value::list(vec![]).is_truthy());
    }

    #[test]
    fn type_names_are_writable_classes() {
        assert_eq!(ValueType::Text.class_name(), "Text");
        assert_eq!(ValueType::Int.class_name(), "LongWritable");
        assert_eq!(
            Value::pair(Value::Null, Value::Null).value_type(),
            ValueType::Pair
        );
    }

    #[test]
    fn clones_share_and_values_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Value>();
        let words = Value::list(vec![Value::text("a"), Value::text("b")]);
        let copy = words.clone();
        match (&words, &copy) {
            (Value::List(a), Value::List(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn a_value_is_three_words() {
        // Every vector of pairs the simulator holds is sized by this.
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 24);
    }

    #[test]
    fn record_size_is_sum_of_parts() {
        let r = Record::new(Value::text("key"), Value::Int(7));
        assert_eq!(r.serialized_size(), 4 + 8);
    }
}
