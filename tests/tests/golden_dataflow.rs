//! Golden dataflow measurement (DESIGN.md §18).
//!
//! `mrsim::analyze` is what every sample and every run in this
//! reproduction costs, so it gets rewritten for speed — and every profile,
//! matcher decision, CBO recommendation and virtual runtime downstream is
//! a function of the `Dataflow` it returns. This suite pins that function:
//! for each of the 58 suite submissions, for two synthetic jobs built
//! to sit on the grouping's sharp edges (mixed numeric keys; keys hostile
//! to a byte encoding of the order) and for one built to sit on the
//! interpreter's (the pieces of a split text, held, read and stored every
//! way the IR allows), a digest over every `Dataflow` field by `to_bits` plus the summed `ExecStats` of the map, combine and
//! reduce UDFs. A diff in these literals is a change in what the simulator
//! measures, never a snapshot to regenerate for a refactor.
//!
//! The two halves are independent on purpose. The `Dataflow` digests go
//! through `analyze` and so pin its chunking, grouping, accumulation order
//! and extrapolation; the `ExecStats` sums drive the interpreter directly
//! and group with the `BTreeMap` below, so they pin the interpreter's op,
//! record and byte accounting whatever `analyze` does.

use std::collections::BTreeMap;

use mrjobs::ir::build::*;
use mrjobs::{
    run_map, run_reduce, BinOp, Builtin, Dataset, ExecStats, JobSpec, Record, Udf, Value, ValueType,
};
use mrsim::{analyze, Dataflow};
use pstorm_bench::harness;

/// `(job@dataset, [map side, combine, reduce scalars, key weights],
/// [map, combine, reduce] × [ops, records_out, bytes_out])`.
type Row = (&'static str, [u64; 4], [[u64; 3]; 3]);

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        fnv(&mut h, w);
    }
    h
}

/// Four digests that together cover every field of a [`Dataflow`], split
/// so a diff says which part of the measurement moved.
fn flow_digests(flow: &Dataflow) -> [u64; 4] {
    let mut map_side = vec![
        u64::from(flow.num_map_tasks),
        flow.input_bytes.to_bits(),
        flow.avg_intermediate_record_bytes.to_bits(),
        flow.per_task.len() as u64,
    ];
    for t in &flow.per_task {
        map_side.extend([
            t.input_records.to_bits(),
            t.input_bytes.to_bits(),
            t.out_records.to_bits(),
            t.out_bytes.to_bits(),
            t.map_ops.to_bits(),
        ]);
    }
    let combine = match &flow.combine {
        None => vec![0],
        Some(c) => vec![
            1,
            c.record_selectivity.to_bits(),
            c.size_selectivity.to_bits(),
            c.ops_per_record.to_bits(),
            c.ref_records.to_bits(),
            c.alpha.to_bits(),
        ],
    };
    let (reduce, key_weights) = match &flow.reduce {
        None => (vec![0], vec![0]),
        Some(r) => (
            vec![
                1,
                r.in_records.to_bits(),
                r.in_bytes.to_bits(),
                r.out_records.to_bits(),
                r.out_bytes.to_bits(),
                r.ops_per_record.to_bits(),
                r.distinct_keys.to_bits(),
                r.max_group_bytes.to_bits(),
                r.uniform_weight.to_bits(),
            ],
            std::iter::once(r.key_weights.len() as u64)
                .chain(r.key_weights.iter().flat_map(|(h, w)| [*h, w.to_bits()]))
                .collect(),
        ),
    };
    [
        digest(map_side),
        digest(combine),
        digest(reduce),
        digest(key_weights),
    ]
}

/// Today's grouping, kept here as the oracle: `Ord` decides membership,
/// the first-emitted key represents the group, groups come out in key
/// order and each group's values in emission order.
fn group(pairs: &[(Value, Value)]) -> BTreeMap<Value, Vec<Value>> {
    let mut grouped: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
    for (k, v) in pairs {
        grouped.entry(k.clone()).or_default().push(v.clone());
    }
    grouped
}

fn reduce_groups(spec: &JobSpec, udf: &Udf, pairs: &[(Value, Value)], total: &mut ExecStats) {
    let mut out = Vec::new();
    for (key, values) in group(pairs) {
        total.merge(run_reduce(udf, &spec.params, &key, values, &mut out).unwrap());
        out.clear();
    }
}

/// Summed interpreter statistics of one submission: the mapper over every
/// sample record, the combiner over each chunk's groups (the chunking is
/// `analyze`'s: `(records / 100).clamp(4, 20)` chunks), the reducer over
/// the groups of all map output.
fn exec_stats(spec: &JobSpec, ds: &Dataset) -> [[u64; 3]; 3] {
    let chunks = (ds.len() / 100).clamp(4, 20);
    let chunk_size = ds.len().div_ceil(chunks);
    let mut stats = [ExecStats::default(); 3];
    let mut all_pairs = Vec::new();
    for chunk in ds.records.chunks(chunk_size) {
        let mut out = Vec::new();
        for rec in chunk {
            stats[0].merge(
                run_map(&spec.map_udf, &spec.params, &rec.key, &rec.value, &mut out).unwrap(),
            );
        }
        if let Some(comb) = &spec.combine_udf {
            reduce_groups(spec, comb, &out, &mut stats[1]);
        }
        all_pairs.extend(out);
    }
    if let Some(red) = &spec.reduce_udf {
        reduce_groups(spec, red, &all_pairs, &mut stats[2]);
    }
    stats.map(|s| [s.ops, s.records_out, s.bytes_out])
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
fn synthetic_mixed_keys() -> (JobSpec, Dataset) {
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
fn hostile_keys() -> Vec<Value> {
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
fn synthetic_hostile_keys() -> (JobSpec, Dataset) {
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
fn synthetic_hostile_pieces() -> (JobSpec, Dataset) {
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

fn cases() -> Vec<(String, JobSpec, Dataset)> {
    let mut cases: Vec<_> = harness::all_submissions()
        .into_iter()
        .map(|s| {
            (
                format!("{}@{}", s.spec.job_id(), s.dataset.name),
                s.spec,
                s.dataset,
            )
        })
        .collect();
    for (spec, ds) in [
        synthetic_mixed_keys(),
        synthetic_hostile_keys(),
        synthetic_hostile_pieces(),
    ] {
        cases.push((format!("{}@{}", spec.job_id(), ds.name), spec, ds));
    }
    cases
}

/// Compare one column of the table; on a diff, print the whole computed
/// column as literals so the moved rows can be read off.
fn check<T: PartialEq>(
    what: &str,
    computed: Vec<(String, T)>,
    golden: impl Fn(&Row) -> T,
    show: impl Fn(&T) -> String,
) {
    let moved: Vec<&str> = computed
        .iter()
        .enumerate()
        .filter(|(i, (id, got))| {
            GOLDEN
                .get(*i)
                .is_none_or(|row| id != row.0 || *got != golden(row))
        })
        .map(|(_, (id, _))| id.as_str())
        .collect();
    assert!(
        moved.is_empty(),
        "{what} moved for {moved:?}; computed:\n{}",
        computed
            .iter()
            .map(|(id, got)| format!("    ({id:?}, {}),\n", show(got)))
            .collect::<String>()
    );
}

#[test]
fn the_suite_is_58_submissions_plus_the_synthetic_job() {
    assert_eq!(harness::all_submissions().len(), 58);
    assert_eq!(GOLDEN.len(), 61);
}

#[test]
fn every_dataflow_field_is_pinned_by_bits() {
    let cl = harness::cluster();
    let computed = cases()
        .into_iter()
        .map(|(id, spec, ds)| (id, flow_digests(&analyze(&spec, &ds, &cl).unwrap())))
        .collect();
    check("dataflow", computed, |row| row.1, |d| format!("{d:#018x?}"));
}

#[test]
fn summed_exec_stats_of_every_udf_are_pinned() {
    let computed = cases()
        .into_iter()
        .map(|(id, spec, ds)| (id, exec_stats(&spec, &ds)))
        .collect();
    check("exec stats", computed, |row| row.2, |s| format!("{s:?}"));
}

/// The synthetic job does sit on the edges it was built for: were the
/// grouping to stop merging `Int(k)` with `Float(k)`, or the Heaps count
/// to start, these would move along with the digests above.
#[test]
fn the_synthetic_job_merges_by_ord_and_counts_by_eq() {
    let (spec, ds) = synthetic_mixed_keys();
    let mut pairs = Vec::new();
    for rec in ds.records.iter() {
        run_map(
            &spec.map_udf,
            &spec.params,
            &rec.key,
            &rec.value,
            &mut pairs,
        )
        .unwrap();
    }
    let groups = group(&pairs);
    let distinct: std::collections::HashSet<&Value> = pairs.iter().map(|(k, _)| k).collect();
    assert_eq!(pairs.len(), 40_000);
    assert_eq!(groups.len(), 5_050);
    assert_eq!(distinct.len(), 10_100);
    // Key 0 is emitted first as `Float(0.0)` (record 0 is a multiple of
    // three), key 1 first as `Int(1)`.
    let mut keys = groups.keys();
    assert_eq!(keys.next(), Some(&Value::float(0.0)));
    assert!(matches!(keys.next(), Some(Value::Int(1))));

    let flow = analyze(&spec, &ds, &harness::cluster()).unwrap();
    let alpha = flow.combine.unwrap().alpha;
    assert!(alpha > 0.05 && alpha < 1.0, "alpha {alpha} is clamped");
    let red = flow.reduce.unwrap();
    assert_eq!(red.key_weights.len(), 4096);
    assert!(red.uniform_weight > 0.0);
}

/// The hostile job does carry what it was built to carry: every key in
/// the table reaches the grouping, and the table holds `Ord`-equal keys
/// that are not `Eq` — bare, inside pairs, and inside the list and map
/// keys no byte encoding renders.
#[test]
fn the_hostile_job_groups_fewer_keys_than_it_counts() {
    let (spec, ds) = synthetic_hostile_keys();
    let mut pairs = Vec::new();
    for rec in ds.records.iter() {
        run_map(
            &spec.map_udf,
            &spec.params,
            &rec.key,
            &rec.value,
            &mut pairs,
        )
        .unwrap();
    }
    let groups = group(&pairs);
    let distinct: std::collections::HashSet<&Value> = pairs.iter().map(|(k, _)| k).collect();
    assert_eq!(pairs.len(), 6_000);
    assert_eq!(distinct.len(), hostile_keys().len());
    assert_eq!((groups.len(), distinct.len()), (110, 129));
    let opaque = |k: &&Value| {
        let leaf = |v: &Value| matches!(v, Value::List(_) | Value::Map(_));
        leaf(k) || matches!(k, Value::Pair(p) if leaf(&p.0) || leaf(&p.1))
    };
    assert_eq!(groups.keys().filter(opaque).count(), 13);
    // Every key is emitted 46 or 47 times. `Int(2^53)` shares a group with
    // `Float(2^53)`, and `Int(2^53 + 2)` with its float; `Int(2^53 + 1)`,
    // which `as f64` rounds onto its neighbour, joins neither.
    let big = 1i64 << 53;
    let members = |k: i64| groups[&Value::Int(k)].len();
    assert!(members(big) >= 92 && members(big + 2) >= 92);
    assert!(members(big + 1) <= 47);

    let flow = analyze(&spec, &ds, &harness::cluster()).unwrap();
    let alpha = flow.combine.unwrap().alpha;
    assert_eq!(alpha, 0.05, "every key occurs in the first half");
    assert_eq!(flow.reduce.unwrap().key_weights.len(), groups.len());
}

/// The pieces job does reach what it was built to reach: lists of pieces
/// as keys and as values, empty pieces and `Null`s from an `index` that
/// found nothing as keys, maps keyed by pieces as values.
#[test]
fn the_pieces_job_emits_lists_empty_pieces_and_nulls() {
    let (spec, ds) = synthetic_hostile_pieces();
    let mut pairs = Vec::new();
    for rec in ds.records.iter() {
        run_map(
            &spec.map_udf,
            &spec.params,
            &rec.key,
            &rec.value,
            &mut pairs,
        )
        .unwrap();
    }
    let groups = group(&pairs);
    let count = |is: fn(&Value) -> bool| {
        (
            pairs.iter().filter(|(k, _)| is(k)).count(),
            pairs.iter().filter(|(_, v)| is(v)).count(),
        )
    };
    assert_eq!((pairs.len(), groups.len()), (25_000, 1_724));
    // (as keys, as values)
    assert_eq!(count(|v| matches!(v, Value::List(_))), (4_800, 932));
    assert_eq!(count(|v| matches!(v, Value::Map(_))), (0, 1_200));
    assert_eq!(count(|v| *v == Value::Null), (1_468, 1_924));
    assert_eq!(count(|v| *v == Value::text("")), (1_562, 327));

    let flow = analyze(&spec, &ds, &harness::cluster()).unwrap();
    assert!(flow.combine.is_some());
    assert_eq!(flow.reduce.unwrap().key_weights.len(), groups.len());
}

const GOLDEN: &[Row] = &[
    (
        "word-count@random-text-1g",
        [
            0x7a7d41c79ddb881e,
            0xe7bbe65618744c91,
            0x1d4212eb3c8657aa,
            0x34cdb4c42ecf3363,
        ],
        [
            [150545, 19911, 272884],
            [202752, 16894, 231569],
            [39788, 2994, 41041],
        ],
    ),
    (
        "word-count@wikipedia-35g",
        [
            0x28ebb36448f76185,
            0xe4363947d2b814cf,
            0x71e45955a755ff69,
            0x599372ae0e3af359,
        ],
        [
            [345412, 47879, 578008],
            [229499, 18599, 247301],
            [77685, 5655, 78233],
        ],
    ),
    (
        "word-cooccurrence-pairs[window=2]@random-text-1g",
        [
            0x7eec3212db62dd0a,
            0xa8c7f832281a39c5,
            0xf7ef833f93f105bf,
            0x30d3a5e8593a00c9,
        ],
        [
            [2087182, 67644, 1313258],
            [0, 0, 0],
            [807744, 67312, 1306764],
        ],
    ),
    (
        "word-cooccurrence-pairs[window=2]@wikipedia-35g",
        [
            0x65a35aefeaf90141,
            0xa8c7f832281a39c5,
            0x7030d0ba3a13804a,
            0x0ab1783066fe0d53,
        ],
        [
            [5082927, 167516, 2705302],
            [0, 0, 0],
            [1185966, 97664, 1677054],
        ],
    ),
    (
        "word-cooccurrence-stripes[window=2]@random-text-1g",
        [
            0xf8d1c06fe204abdb,
            0x29571d6a8752f8eb,
            0x38494f6a2b0a354e,
            0xeb2b1b98e2e4d953,
        ],
        [
            [1840606, 19911, 1120028],
            [881025, 16894, 1090007],
            [742025, 2994, 951695],
        ],
    ),
    (
        "bigram-relative-frequency@random-text-1g",
        [
            0x509ab2057f0100ae,
            0xa8c7f832281a39c5,
            0x9b5afb3b35e54d83,
            0x2bc9e6615f4ed1c5,
        ],
        [[526558, 17911, 347722], [0, 0, 0], [582142, 17885, 347214]],
    ),
    (
        "bigram-relative-frequency@wikipedia-35g",
        [
            0xd70011282534f774,
            0xa8c7f832281a39c5,
            0x8329a73eb29d3ce3,
            0xadf1cc3dd7bea9d4,
        ],
        [
            [1260486, 43879, 708598],
            [0, 0, 0],
            [1187753, 30701, 518513],
        ],
    ),
    (
        "inverted-index@random-docs-1g",
        [
            0x3e30db48ccc7c4ab,
            0xa8c7f832281a39c5,
            0x40367c7ea6857f6c,
            0x57c36dd80bc57edd,
        ],
        [[149134, 19702, 309416], [0, 0, 0], [120794, 2999, 226134]],
    ),
    (
        "inverted-index@wikipedia-docs-35g",
        [
            0x6f49747fdb37db47,
            0xa8c7f832281a39c5,
            0xd349587bad1bd60c,
            0x5d8455cd519aa7f0,
        ],
        [[347963, 48261, 679756], [0, 0, 0], [274048, 5786, 539567]],
    ),
    (
        "grep[pattern=ba]@random-text-1g",
        [
            0xa5a484189194788a,
            0xc69929ae69816539,
            0xec8e169a5e37bc9c,
            0x004034f120c77dbf,
        ],
        [[22344, 461, 5071], [346, 20, 220], [127, 1, 11]],
    ),
    (
        "grep[pattern=ba]@wikipedia-35g",
        [
            0x70ac2d11a179a768,
            0xc1f43fcc6a2661ed,
            0xa988a385c40effb9,
            0x7d5f46d354f8084b,
        ],
        [[53576, 3109, 34199], [1010, 20, 220], [789, 1, 11]],
    ),
    (
        "sort@teragen-1g",
        [
            0x31de96c0e52e8797,
            0xa8c7f832281a39c5,
            0x8381f748ba2b548c,
            0x3fe3c3916cfb7e73,
        ],
        [[15000, 3000, 306000], [0, 0, 0], [24000, 3000, 306000]],
    ),
    (
        "sort@teragen-35g",
        [
            0x592ff69a9ef4b2a5,
            0xa8c7f832281a39c5,
            0x201601baaa608290,
            0xa10e421991269130,
        ],
        [[25000, 5000, 510000], [0, 0, 0], [40000, 5000, 510000]],
    ),
    (
        "join@tpch-1g",
        [
            0xf4c749cef21ef164,
            0xa8c7f832281a39c5,
            0x6f864ec69f9c7e86,
            0xc4930b60230a7e8d,
        ],
        [[14000, 2800, 124400], [0, 0, 0], [60000, 2400, 196800]],
    ),
    (
        "join@tpch-35g",
        [
            0x37c4b02d9b8db0ea,
            0xa8c7f832281a39c5,
            0x2a0d502b61d181a5,
            0xfd7ed929a1b871bc,
        ],
        [[28000, 5600, 248800], [0, 0, 0], [120000, 4800, 393600]],
    ),
    (
        "fim-pass1[min_support=4]@webdocs-1.5g",
        [
            0xff429f413df593f8,
            0x2f53c5242281356c,
            0xd2df775efcd247ff,
            0x6737c054cd71725a,
        ],
        [
            [148864, 18636, 316812],
            [79070, 6391, 108647],
            [14000, 593, 10081],
        ],
    ),
    (
        "fim-pass2[min_support=4]@webdocs-1.5g",
        [
            0x28dd00d91b92b94b,
            0x347ddb8a7d6f7538,
            0x933aff5edbc2e32e,
            0x5ba66f946272dffd,
        ],
        [
            [1498995, 67228, 1747928],
            [654078, 54369, 1413594],
            [339361, 3225, 83850],
        ],
    ),
    (
        "fim-pass3@webdocs-rules",
        [
            0xe23a6b4ec0d6bc37,
            0xa8c7f832281a39c5,
            0xc6479939d169a436,
            0xc0e1b077397ce549,
        ],
        [[102000, 3000, 78000], [0, 0, 0], [89913, 2512, 65312]],
    ),
    (
        "cf-user-vectors@ratings-1m",
        [
            0x8163d382804946e6,
            0xa8c7f832281a39c5,
            0x429e8f694a99efbe,
            0xda373d314b0e2e99,
        ],
        [[102000, 3000, 63000], [0, 0, 0], [18986, 499, 47489]],
    ),
    (
        "cf-user-vectors@ratings-10m",
        [
            0x0d31abcf0a703e45,
            0xa8c7f832281a39c5,
            0x94486b27ae72829d,
            0x0018b95059c41882,
        ],
        [[170000, 5000, 105000], [0, 0, 0], [40272, 1448, 85928]],
    ),
    (
        "cf-item-similarity@user-lists-1m",
        [
            0xe8423cc736d59a79,
            0xefb23ef27b677d12,
            0xf9dd9544e37f3b4f,
            0x202b9e0788dc8c8f,
        ],
        [
            [639857, 27568, 551360],
            [287986, 23964, 479280],
            [197643, 16305, 326100],
        ],
    ),
    (
        "cf-item-similarity@user-lists-10m",
        [
            0x385f2d022e48a0c5,
            0x244ea6b790f7a5ef,
            0xee5b53ef2a6a69d0,
            0x162f75fee6f24e6d,
        ],
        [
            [1767567, 81308, 1626160],
            [870895, 72485, 1449700],
            [620812, 51287, 1025740],
        ],
    ),
    (
        "cloudburst[seed_len=12]@genome-sample",
        [
            0x62b105f1c36079e6,
            0xa8c7f832281a39c5,
            0x797658834d20dd0d,
            0xd176ff8ec54df945,
        ],
        [[573372, 23508, 681732], [0, 0, 0], [187936, 23492, 493332]],
    ),
    (
        "cloudburst[seed_len=12]@genome-lakewash",
        [
            0x81049f3c9397836a,
            0xa8c7f832281a39c5,
            0x3f72a5adb60b1f4f,
            0x8654f002010e602c,
        ],
        [
            [1146744, 47016, 1363464],
            [0, 0, 0],
            [375608, 46951, 985971],
        ],
    ),
    (
        "pigmix-l1[threshold=7]@pigmix-1g",
        [
            0xcc59a9af6a29881c,
            0xa8c7f832281a39c5,
            0x5b4408b8d3fbc701,
            0x96eeacd8ca437fbd,
        ],
        [[110816, 2801, 39214], [0, 0, 0], [19393, 199, 2786]],
    ),
    (
        "pigmix-l1[threshold=7]@pigmix-35g",
        [
            0x88a39038f48604f7,
            0xa8c7f832281a39c5,
            0xba0e0fa83fb9450c,
            0x8365285bdc99fbc5,
        ],
        [[184112, 4632, 64848], [0, 0, 0], [30392, 200, 2800]],
    ),
    (
        "pigmix-l2[threshold=14]@pigmix-1g",
        [
            0x292fd46aa924f1f0,
            0xa8c7f832281a39c5,
            0x33ad6ad8f96a478f,
            0xed2e03ecefe5ec76,
        ],
        [[107104, 2569, 38535], [0, 0, 0], [26477, 851, 12765]],
    ),
    (
        "pigmix-l2[threshold=14]@pigmix-35g",
        [
            0xc10322f907d507e4,
            0xa8c7f832281a39c5,
            0xa636eee173027238,
            0x5ca038e1bed0f3b5,
        ],
        [[178768, 4298, 64470], [0, 0, 0], [38190, 954, 14310]],
    ),
    (
        "pigmix-l3[threshold=21]@pigmix-1g",
        [
            0xb8dcffd9aff8f41c,
            0xa8c7f832281a39c5,
            0x598a51ebe2dc3832,
            0x23b488c2c0d6d9b3,
        ],
        [[104096, 2381, 30953], [0, 0, 0], [320, 40, 520]],
    ),
    (
        "pigmix-l3[threshold=21]@pigmix-35g",
        [
            0xe85a3d51cc59645a,
            0xa8c7f832281a39c5,
            0xb8fdb070259660a1,
            0x3c85d2876004a0eb,
        ],
        [[173120, 3945, 51285], [0, 0, 0], [320, 40, 520]],
    ),
    (
        "pigmix-l4[threshold=28]@pigmix-1g",
        [
            0xba06b4e0e0266361,
            0x00044140523f7654,
            0x18446742b7b7ec42,
            0xe15eac725bfe05aa,
        ],
        [
            [100752, 2172, 30408],
            [15366, 1269, 17766],
            [2829, 197, 2758],
        ],
    ),
    (
        "pigmix-l4[threshold=28]@pigmix-35g",
        [
            0xbb9e38f0f045fabe,
            0x42948c786a77f67c,
            0x97894889a04d5e36,
            0x4a5251d52daca4b8,
        ],
        [
            [167648, 3603, 50442],
            [21904, 1802, 25228],
            [3222, 200, 2800],
        ],
    ),
    (
        "pigmix-l5[threshold=35]@pigmix-1g",
        [
            0x1918328a8880289a,
            0xa8c7f832281a39c5,
            0xb7621d0514a7d893,
            0xe113a454ee0a8790,
        ],
        [[113304, 1971, 39420], [0, 0, 0], [35395, 1813, 36260]],
    ),
    (
        "pigmix-l5[threshold=35]@pigmix-35g",
        [
            0xa1e6426ee36f55bd,
            0xa8c7f832281a39c5,
            0xbbde56e31d0c7a01,
            0x0de41586328b931a,
        ],
        [[187352, 3223, 64460], [0, 0, 0], [55816, 2806, 56120]],
    ),
    (
        "pigmix-l6[threshold=42]@pigmix-1g",
        [
            0x89fdb28ac983c2da,
            0xa8c7f832281a39c5,
            0xf184055da984cdb4,
            0xe0cf1d913d3ed64a,
        ],
        [[82128, 1792, 23296], [0, 0, 0], [200, 40, 520]],
    ),
    (
        "pigmix-l6[threshold=42]@pigmix-35g",
        [
            0x6504703105a55be5,
            0xa8c7f832281a39c5,
            0xe20123950f761e43,
            0xcba6e263c5cd0add,
        ],
        [[136262, 2918, 37934], [0, 0, 0], [200, 40, 520]],
    ),
    (
        "pigmix-l7[threshold=49]@pigmix-1g",
        [
            0x2776435c4e4914a3,
            0xa8c7f832281a39c5,
            0x9aaa6c63f8c62947,
            0x1d0b292587bc7575,
        ],
        [[90688, 1543, 21602], [0, 0, 0], [1536, 192, 2688]],
    ),
    (
        "pigmix-l7[threshold=49]@pigmix-35g",
        [
            0x7b4a0b466e66a30a,
            0xa8c7f832281a39c5,
            0x89facf73c9a3111e,
            0x925ccc2b4026ac33,
        ],
        [[150368, 2523, 35322], [0, 0, 0], [1584, 198, 2772]],
    ),
    (
        "pigmix-l8[threshold=6]@pigmix-1g",
        [
            0xf438497c28d75d74,
            0xc1d9a8b7d2f517d8,
            0x7ea0a9623da5738d,
            0x9ea39f01ad6d116f,
        ],
        [
            [111152, 2822, 42330],
            [30080, 2506, 37590],
            [10749, 867, 13005],
        ],
    ),
    (
        "pigmix-l8[threshold=6]@pigmix-35g",
        [
            0x33edc0122f9dc9bd,
            0x67fe84310c9861d6,
            0x1427884f521a8376,
            0xa8886cf277c0e843,
        ],
        [
            [185232, 4702, 70530],
            [46852, 3901, 58515],
            [12331, 961, 14415],
        ],
    ),
    (
        "pigmix-l9[threshold=13]@pigmix-1g",
        [
            0x02f5125ca7a59c0b,
            0xa8c7f832281a39c5,
            0xe6ec6b30f809fa3f,
            0xb5f10784de53d850,
        ],
        [[108128, 2633, 34229], [0, 0, 0], [16318, 40, 520]],
    ),
    (
        "pigmix-l9[threshold=13]@pigmix-35g",
        [
            0x749378de80ac9698,
            0xa8c7f832281a39c5,
            0x2855612d15051d52,
            0x0981368a1fe5b857,
        ],
        [[178912, 4307, 55991], [0, 0, 0], [26362, 40, 520]],
    ),
    (
        "pigmix-l10[threshold=20]@pigmix-1g",
        [
            0x8912e26dbaaf92b9,
            0xa8c7f832281a39c5,
            0x1a78779350ebb13f,
            0xab03d1cd98ef67ac,
        ],
        [[123816, 2409, 50589], [0, 0, 0], [44380, 2302, 48342]],
    ),
    (
        "pigmix-l10[threshold=20]@pigmix-35g",
        [
            0x0d17e1e9987f178b,
            0xa8c7f832281a39c5,
            0x60be8d026978f9fb,
            0xa3269f27432d7716,
        ],
        [[205976, 3999, 83979], [0, 0, 0], [72549, 3735, 78435]],
    ),
    (
        "pigmix-l11[threshold=27]@pigmix-1g",
        [
            0x4aa489616beed93a,
            0xa8c7f832281a39c5,
            0x2559ae21bf8c1fa4,
            0x2774808c1fc241f6,
        ],
        [[101264, 2204, 33060], [0, 0, 0], [6472, 809, 12135]],
    ),
    (
        "pigmix-l11[threshold=27]@pigmix-35g",
        [
            0xdc0ec4181183bc3d,
            0xa8c7f832281a39c5,
            0x709dc344a06effc4,
            0x0acb291cb17bbbc8,
        ],
        [[168096, 3631, 54465], [0, 0, 0], [7408, 926, 13890]],
    ),
    (
        "pigmix-l12[threshold=34]@pigmix-1g",
        [
            0x0ac39d7201f73ff8,
            0xa8c7f832281a39c5,
            0x27c1790b2d9fab31,
            0x6deec55f9d1b3af1,
        ],
        [[84081, 2009, 26117], [0, 0, 0], [200, 40, 520]],
    ),
    (
        "pigmix-l12[threshold=34]@pigmix-35g",
        [
            0x1f4eca7b2dc67db3,
            0xa8c7f832281a39c5,
            0x5f71eb1fb881efc3,
            0xfee5a6527d8c01a2,
        ],
        [[139745, 3305, 42965], [0, 0, 0], [200, 40, 520]],
    ),
    (
        "pigmix-l13[threshold=41]@pigmix-1g",
        [
            0xb5c4c8f495b1820d,
            0xa8c7f832281a39c5,
            0x1fc632e780125da2,
            0x698dc73dcda2cf3f,
        ],
        [[94608, 1788, 25032], [0, 0, 0], [13263, 195, 2730]],
    ),
    (
        "pigmix-l13[threshold=41]@pigmix-35g",
        [
            0xd7f8aabac29f5d4c,
            0xa8c7f832281a39c5,
            0x62998fa9ad25bf06,
            0x42599d1db29ec15f,
        ],
        [[157008, 2938, 41132], [0, 0, 0], [20202, 198, 2772]],
    ),
    (
        "pigmix-l14[threshold=48]@pigmix-1g",
        [
            0x24c8c5e3bb5a9fe9,
            0xa8c7f832281a39c5,
            0x33e4d946b281c838,
            0x0671c4deec4dda47,
        ],
        [[91632, 1602, 24030], [0, 0, 0], [18738, 702, 10530]],
    ),
    (
        "pigmix-l14[threshold=48]@pigmix-35g",
        [
            0x6641a2a08f0e775b,
            0xa8c7f832281a39c5,
            0x2d527c07be3f969b,
            0x5e634f70c87f6aff,
        ],
        [[151632, 2602, 39030], [0, 0, 0], [26792, 860, 12900]],
    ),
    (
        "pigmix-l15[threshold=5]@pigmix-1g",
        [
            0x55eb260a4519ed66,
            0xa8c7f832281a39c5,
            0xc9fd960614d7f448,
            0xa486317ca79005d0,
        ],
        [[134760, 2865, 54435], [0, 0, 0], [13040, 1630, 30970]],
    ),
    (
        "pigmix-l15[threshold=5]@pigmix-35g",
        [
            0x6be03c5069696895,
            0xa8c7f832281a39c5,
            0xb59a23c7f7fb5ff4,
            0xfa767136315abcea,
        ],
        [[223688, 4737, 90003], [0, 0, 0], [18752, 2344, 44536]],
    ),
    (
        "pigmix-l16[threshold=12]@pigmix-1g",
        [
            0xa48c591e0e456653,
            0x02550ad737a9f9cf,
            0x91a2f4aad36c70b0,
            0xf7b340985b1bb6de,
        ],
        [
            [108096, 2631, 36834],
            [17452, 1439, 20146],
            [2946, 197, 2758],
        ],
    ),
    (
        "pigmix-l16[threshold=12]@pigmix-35g",
        [
            0x741ddd52d79bf1ff,
            0xa5fe787ffbbc6a20,
            0x01acf6b5a499832c,
            0x43e199182a7ea95d,
        ],
        [
            [180576, 4411, 61754],
            [24693, 2024, 28336],
            [3424, 200, 2800],
        ],
    ),
    (
        "pigmix-l17[threshold=19]@pigmix-1g",
        [
            0xc4ec5525515d07b3,
            0xa8c7f832281a39c5,
            0x6007dea5a59bfd06,
            0xa67b231dac9f4d09,
        ],
        [[105008, 2438, 36570], [0, 0, 0], [25431, 831, 12465]],
    ),
    (
        "pigmix-l17[threshold=19]@pigmix-35g",
        [
            0xd752c636f6e9bb47,
            0xa8c7f832281a39c5,
            0xce15e35ec84c59c2,
            0xa0f1662952c20ee6,
        ],
        [[174464, 4029, 60435], [0, 0, 0], [36394, 940, 14100]],
    ),
    (
        "synthetic-mixed-keys@synthetic",
        [
            0xc783d261ff8ffce2,
            0x1c8de19965c433c7,
            0x860078d23cf4fc76,
            0x0f59ce59decf669e,
        ],
        [
            [666668, 40000, 640000],
            [88000, 6000, 112299],
            [75650, 5050, 90484],
        ],
    ),
    (
        "synthetic-hostile-keys@synthetic",
        [
            0x6dfe43d7837f6e98,
            0xa0e884f24e933275,
            0xb2294601a2b9e2e5,
            0x0c8a603fec9c1116,
        ],
        [
            [30000, 6000, 103498],
            [28979, 2200, 43613],
            [2868, 110, 2498],
        ],
    ),
    (
        "synthetic-hostile-pieces@synthetic",
        [
            0x5efc3435fb89a2ee,
            0xbd2f4c6236cf996f,
            0xf7c116cb6a9f8a89,
            0x1db7c7d6f49a03e8,
        ],
        [
            [517908, 25000, 418906],
            [1148000, 9282, 589084],
            [1080208, 3448, 165575],
        ],
    ),
];
