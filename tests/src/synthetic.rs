//! The synthetic `analyze` cases of `golden_dataflow.rs` (DESIGN.md §18):
//! three jobs built to sit on the grouping's and the interpreter's sharp
//! edges. Written against `mrjobs` alone, so that `mrsim`'s own tests read
//! this file too and run the same cases with and without a helper thread.

use std::collections::BTreeMap;

use mrjobs::ir::build::*;
use mrjobs::{BinOp, Builtin, Dataset, JobSpec, Record, Udf, Value, ValueType};

/// The three synthetic cases, in the order `golden_dataflow.rs` pins them.
pub fn cases() -> [(JobSpec, Dataset); 3] {
    [
        synthetic_mixed_keys(),
        synthetic_hostile_keys(),
        synthetic_hostile_pieces(),
    ]
}

/// A job on the grouping's sharp edges.
///
/// * Intermediate keys mix `Int(k)` and `Float(k as f64)`: they compare
///   equal under `Ord`, so they share a reduce group whose representative
///   (hashed for the partition weights) is whichever was emitted first —
///   but they differ under `Eq`/`Hash`, so the Heaps-law distinct count
///   sees two keys.
/// * Values are non-representable decimals and both the combiner and the
///   reducer emit `to_text(sum(values))`, so a change in the order values
///   reach a group changes the sum's last bits, the printed length and
///   with it the byte counts.
/// * One emit per record lands in 50 saturating keys, the other in 5000
///   keys that keep growing, so the Heaps exponent is strictly inside its
///   clamp; and 5050 groups exceed the 4096-entry weight table while most
///   of them tie on weight, so the stable sort decides which survive.
pub fn synthetic_mixed_keys() -> (JobSpec, Dataset) {
    let numeric_key = |k: mrjobs::Expr| {
        if_else(
            eq(bin(BinOp::Mod, var("key"), c_int(3)), c_int(0)),
            vec![emit(mul(k.clone(), c_float(1.0)), var("x"))],
            vec![emit(k, var("x"))],
        )
    };
    let mapper = Udf::mapper(
        "MixedKeysMapper",
        vec![
            assign("x", mul(var("key"), c_float(0.1))),
            numeric_key(bin(BinOp::Mod, var("key"), c_int(50))),
            numeric_key(add(div(var("key"), c_int(4)), c_int(1000))),
        ],
    );
    let sum_as_text = |name: &str| {
        Udf::reducer(
            name,
            vec![emit(
                var("key"),
                call(
                    Builtin::ToText,
                    vec![call(Builtin::SumList, vec![var("values")])],
                ),
            )],
        )
    };
    let spec = JobSpec::builder("synthetic-mixed-keys")
        .map_types(ValueType::Int, ValueType::Text)
        .intermediate_types(ValueType::Float, ValueType::Float)
        .output_types(ValueType::Float, ValueType::Text)
        .mapper("MixedKeysMapper", mapper)
        .combiner("SumAsTextCombiner", sum_as_text("SumAsTextCombiner"))
        .reducer("SumAsTextReducer", sum_as_text("SumAsTextReducer"))
        .build();
    let records = (0..20_000)
        .map(|i| Record::new(Value::Int(i), Value::text("x")))
        .collect();
    (spec, Dataset::new("synthetic", records, 10 << 30))
}

/// Every key a byte-wise rendering of `Value`'s order can get wrong.
///
/// * Texts containing `\0` (alone, doubled, trailing, before a multi-byte
///   character), texts that are proper prefixes of each other and the
///   empty text: a terminator or an escape that does not order exactly
///   like the bytes it stands for moves a group boundary.
/// * `Pair(Text, Int)` against `Pair(Text, Float)` of equal value, pairs
///   whose first components share more than eight bytes, nested pairs.
/// * The numeric edges — `Int(2^53)`, `Int(2^53 + 1)`, `Float(2^53)`,
///   `Int(i64::MIN/MAX)`, `±0.0`, `±inf`, both NaNs — bare, and as first
///   components of pairs whose second components order the other way.
/// * `Null`, and `List` and `Map` keys that are `Ord`-equal and not `Eq`.
pub fn hostile_keys() -> Vec<Value> {
    let t = Value::text;
    let p = Value::pair;
    let f = Value::float;
    let big = 1i64 << 53;
    let map_of = |v: Value| Value::map(BTreeMap::from([("a".to_string(), v)]));
    let mut keys = vec![
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
        t("\0é"),
        t("é"),
        t("é\0"),
        t("a\0\u{10ffff}"),
        t("\u{10ffff}"),
        p(t("k"), Value::Int(3)),
        p(t("k"), f(3.0)),
        p(t("k"), f(3.5)),
        p(t("k"), Value::Int(4)),
        p(t("k\0"), Value::Int(1)),
        p(t("k"), t("\0")),
        p(t("k"), Value::Null),
        p(t("item1234-shared"), t("b")),
        p(t("item1234-shared"), t("a")),
        p(t("item1234-shared"), t("a\0")),
        p(t("item1234-shareD"), t("z")),
        p(t("item1234"), t("item5678")),
        p(t("item1234"), t("item5679")),
        p(p(t("a"), t("b")), t("c")),
        p(p(t("a"), t("b\0")), t("c")),
        p(p(t("a"), t("b")), t("")),
        p(t("a"), p(t("b"), t("c"))),
        p(p(t("a"), Value::Int(1)), p(f(1.0), t("x"))),
        p(p(t("a"), f(1.0)), p(Value::Int(1), t("x"))),
        p(Value::Null, Value::Null),
        p(Value::Null, t("")),
        p(t(""), Value::Null),
        Value::list(vec![]),
        Value::list(vec![Value::Int(1)]),
        Value::list(vec![f(1.0)]),
        Value::list(vec![Value::Int(1), Value::Int(2)]),
        Value::list(vec![t("a\0")]),
        p(t("p"), Value::list(vec![Value::Int(1)])),
        p(t("p"), Value::list(vec![f(1.0)])),
        p(t("p"), Value::list(vec![Value::Int(2)])),
        p(Value::list(vec![Value::Int(1)]), t("b")),
        p(Value::list(vec![f(1.0)]), t("a")),
        Value::map(BTreeMap::new()),
        map_of(Value::Int(1)),
        map_of(f(1.0)),
        map_of(t("\0")),
        p(map_of(Value::Int(1)), t("b")),
        p(map_of(f(1.0)), t("a")),
    ];
    // The numeric edges, bare and leading a pair. The second components
    // run against the first components' order, so a pair decided on a
    // truncated first component comes out on the wrong side.
    let numerics = [
        f(-f64::NAN),
        f(f64::NEG_INFINITY),
        Value::Int(i64::MIN),
        f(i64::MIN as f64),
        Value::Int(-big - 1),
        Value::Int(-big),
        f(-(big as f64)),
        Value::Int(-1),
        f(-1.0),
        f(-0.0),
        Value::Int(0),
        f(0.0),
        f(f64::MIN_POSITIVE),
        Value::Int(1),
        f(1.0),
        Value::Int(big - 1),
        Value::Int(big),
        f(big as f64),
        Value::Int(big + 1),
        Value::Int(big + 2),
        f((big + 2) as f64),
        f(i64::MAX as f64),
        Value::Int(i64::MAX),
        f(f64::INFINITY),
        f(f64::NAN),
    ];
    for (rank, n) in numerics.iter().enumerate() {
        keys.push(n.clone());
        let against = ["z", "y", "x", "a\0", "a"][rank % 5];
        keys.push(p(n.clone(), t(against)));
        keys.push(p(t("n"), n.clone()));
    }
    keys
}

/// The hostile keys, handed to an identity mapper through the dataset's
/// records in a scrambled, repeating order, so every group has members in
/// several chunks and its `Ord`-equal spellings take turns being first.
/// Values and UDFs are those of [`synthetic_mixed_keys`]: decimal floats
/// summed and printed as text by a combiner and a reducer, so both
/// groupings run and a reordering inside a group changes bytes.
pub fn synthetic_hostile_keys() -> (JobSpec, Dataset) {
    let sum_as_text = |name: &str| {
        Udf::reducer(
            name,
            vec![emit(
                var("key"),
                call(
                    Builtin::ToText,
                    vec![call(Builtin::SumList, vec![var("values")])],
                ),
            )],
        )
    };
    let spec = JobSpec::builder("synthetic-hostile-keys")
        .map_types(ValueType::Text, ValueType::Float)
        .intermediate_types(ValueType::Text, ValueType::Float)
        .output_types(ValueType::Text, ValueType::Text)
        .mapper(
            "IdentityMapper",
            Udf::mapper("IdentityMapper", vec![emit(var("key"), var("value"))]),
        )
        .combiner("SumAsTextCombiner", sum_as_text("SumAsTextCombiner"))
        .reducer("SumAsTextReducer", sum_as_text("SumAsTextReducer"))
        .build();
    let keys = hostile_keys();
    let records = (0..6_000usize)
        .map(|i| {
            let key = keys[(i * 37 + (i / keys.len()) * 11) % keys.len()].clone();
            Record::new(key, Value::float(i as f64 * 0.1))
        })
        .collect();
    (spec, Dataset::new("synthetic", records, 10 << 30))
}

/// Every way a UDF can hold, read and store the pieces of a text.
///
/// * The texts: separators leading, trailing and doubled (empty pieces),
///   absent, and empty (one piece, the text itself); a multi-byte
///   separator between multi-byte pieces; lines that are empty or all
///   whitespace.
/// * The reads: `index` below 0, past the end and by a `Float`; a `split`
///   of a piece; `len`, `not_empty`, `to_text`, `parse_int`/`parse_float`,
///   `contains`, `lower`, `substr`, `concat`, `+`, `==` and `<` on pieces
///   and on what `index` hands back when there is none.
/// * The stores: the list of pieces itself emitted as a key (the key
///   arena's opaque path) and as a value (`serialized_size` = 4 + Σ), a
///   piece as a `MapAdd` key and pushed to a list, `sort_list`, `hash` and
///   `to_text` of the whole list.
/// * The aliasing: a `for` over the list whose body reads, pushes to and
///   reassigns the variable it iterates (the loop is a snapshot), and a
///   copy `g = t` that a push to `g` must not show through.
///
/// Combiner and reducer split and tokenize again — the printed form of
/// whatever value the mapper emitted — so all three UDFs take the paths.
pub fn synthetic_hostile_pieces() -> (JobSpec, Dataset) {
    let split = |text: mrjobs::Expr, sep: &str| call(Builtin::Split, vec![text, c_text(sep)]);
    let on = |b: Builtin, x: mrjobs::Expr| call(b, vec![x]);
    let to_text = |x: mrjobs::Expr| call(Builtin::ToText, vec![x]);
    let push = |list: &'static str, x: mrjobs::Expr| mrjobs::Stmt::ListPush(list, x);
    let map_add = |map: &'static str, k: mrjobs::Expr| mrjobs::Stmt::MapAdd(map, k, c_int(1));
    let mapper = Udf::mapper(
        "HostilePiecesMapper",
        vec![
            assign("f", split(var("value"), " ")),
            assign("t", tokenize(var("value"))),
            emit(len(var("f")), len(var("t"))),
            assign("e", split(var("value"), "")),
            emit(index(var("e"), c_int(0)), len(var("e"))),
            assign("m", split(var("value"), "→")),
            emit(var("m"), index(var("m"), c_int(1))),
            emit(index(var("f"), c_int(-1)), index(var("f"), c_int(99))),
            emit(index(var("f"), c_float(1.9)), index(var("t"), c_float(0.2))),
            if_then(
                gt(len(var("f")), c_int(1)),
                vec![
                    assign("c", split(index(var("f"), c_int(1)), ",")),
                    emit(index(var("c"), c_int(0)), var("c")),
                    emit(
                        concat(index(var("f"), c_int(0)), index(var("f"), c_int(1))),
                        add(index(var("f"), c_int(0)), index(var("c"), c_int(0))),
                    ),
                ],
            ),
            emit(
                not_empty(index(var("t"), c_int(0))),
                on(Builtin::ParseInt, index(var("f"), c_int(2))),
            ),
            emit(
                on(Builtin::ParseFloat, index(var("t"), c_int(2))),
                call(
                    Builtin::Contains,
                    vec![to_text(index(var("t"), c_int(0))), c_text("a")],
                ),
            ),
            emit(
                on(Builtin::Lower, to_text(index(var("t"), c_int(0)))),
                call(
                    Builtin::Substr,
                    vec![to_text(index(var("t"), c_int(1))), c_int(0), c_int(2)],
                ),
            ),
            emit(
                len(to_text(index(var("t"), c_int(0)))),
                lt(index(var("t"), c_int(0)), index(var("t"), c_int(1))),
            ),
            assign("acc", call(Builtin::EmptyMap, vec![])),
            assign("l", call(Builtin::EmptyList, vec![])),
            map_add("acc", index(var("t"), c_int(0))),
            map_add("acc", index(var("f"), c_int(0))),
            push("l", index(var("t"), c_int(1))),
            push("l", var("t")),
            emit(var("l"), var("acc")),
            for_each(
                "p",
                var("f"),
                vec![
                    assign("n", len(var("f"))),
                    push("f", var("p")),
                    if_then(
                        eq(var("p"), c_text("b")),
                        vec![assign("f", tokenize(var("value")))],
                    ),
                    emit(var("p"), var("n")),
                ],
            ),
            emit(var("f"), len(var("f"))),
            assign("g", var("t")),
            push("g", c_text("z")),
            emit(eq(var("t"), var("g")), eq(var("t"), tokenize(var("value")))),
            emit(len(var("t")), len(var("g"))),
            emit(to_text(var("t")), on(Builtin::Hash, var("t"))),
            emit(on(Builtin::SortList, var("f")), not_empty(var("m"))),
            emit(
                on(Builtin::Hash, index(var("t"), c_int(0))),
                on(Builtin::ParseFloat, var("t")),
            ),
        ],
    );
    let combiner = Udf::reducer(
        "HostilePiecesCombiner",
        vec![
            assign("out", call(Builtin::EmptyList, vec![])),
            assign("acc", call(Builtin::EmptyMap, vec![])),
            for_each(
                "v",
                var("values"),
                vec![
                    assign("parts", split(to_text(var("v")), ",")),
                    push("out", index(var("parts"), c_int(0))),
                    push("out", len(tokenize(to_text(var("v"))))),
                    for_each(
                        "q",
                        var("parts"),
                        vec![if_then(not_empty(var("q")), vec![map_add("acc", var("q"))])],
                    ),
                ],
            ),
            emit(var("key"), var("out")),
            emit(to_text(var("key")), var("acc")),
        ],
    );
    let reducer = Udf::reducer(
        "HostilePiecesReducer",
        vec![
            assign("joined", c_text("")),
            assign("n", c_int(0)),
            for_each(
                "v",
                var("values"),
                vec![
                    assign("w", tokenize(to_text(var("v")))),
                    assign(
                        "joined",
                        concat(var("joined"), to_text(index(var("w"), c_int(0)))),
                    ),
                    assign("n", add(var("n"), len(split(to_text(var("v")), ", ")))),
                ],
            ),
            emit(var("key"), var("joined")),
            emit(split(to_text(var("key")), ""), var("n")),
        ],
    );
    let spec = JobSpec::builder("synthetic-hostile-pieces")
        .map_types(ValueType::Int, ValueType::Text)
        .intermediate_types(ValueType::Text, ValueType::Text)
        .output_types(ValueType::Text, ValueType::Text)
        .mapper("HostilePiecesMapper", mapper)
        .combiner("HostilePiecesCombiner", combiner)
        .reducer("HostilePiecesReducer", reducer)
        .build();
    let lines = [
        " a b  c ",
        "nosep",
        "",
        "  \t ",
        "b x,y,,z 3.5 tail",
        "é→ü→→ß",
        "→",
        "αβγ δ,ε ζ 7",
        "a,b c,d 12 b",
        "x  ",
        "b",
        " , ",
    ];
    let suffixes = ["", " 4", "→9,9"];
    let records = (0..1_200usize)
        .map(|i| {
            let line = lines[i % lines.len()];
            let suffix = suffixes[i / lines.len() % suffixes.len()];
            let tag = if i % 5 == 0 {
                format!(" r{}", i % 7)
            } else {
                String::new()
            };
            Record::new(
                Value::Int(i as i64),
                Value::text(format!("{line}{suffix}{tag}")),
            )
        })
        .collect();
    (spec, Dataset::new("synthetic", records, 10 << 30))
}
