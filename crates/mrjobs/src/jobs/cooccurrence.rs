//! The co-occurrence family from Lin & Dyer's *Data-Intensive Text
//! Processing with MapReduce*: word co-occurrence with "pairs" and
//! "stripes" formulations (Algorithm 2 of the paper), and the bigram
//! relative-frequency job whose profile PStorM reuses to tune the
//! co-occurrence job (Fig. 1.3).

use crate::ir::build::*;
use crate::ir::{Builtin, Stmt, Udf};
use crate::spec::{JobSpec, Partitioner};
use crate::value::{Value, ValueType};

use super::text::sum_reducer;

/// Word co-occurrence, pairs formulation. For every word `w[i]`, emits
/// `((w[i], w[j]), 1)` for every neighbour within `window` positions on
/// either side — the symmetric co-occurrence matrix of Lin & Dyer's
/// implementation. Matches Algorithm 2's shape: an outer loop over words,
/// an inner emptiness condition, and an inner loop over the window.
pub fn word_cooccurrence_pairs(window: i64) -> JobSpec {
    let mapper = Udf::mapper(
        "CooccurrencePairsMapper",
        vec![
            assign("words", tokenize(var("value"))),
            assign("n", len(var("words"))),
            for_each(
                "i",
                call(Builtin::Range, vec![c_int(0), var("n")]),
                vec![
                    assign("w_i", index(var("words"), var("i"))),
                    if_then(
                        not_empty(var("w_i")),
                        vec![
                            assign(
                                "lo",
                                call(
                                    Builtin::Max,
                                    vec![sub(var("i"), job_param("window")), c_int(0)],
                                ),
                            ),
                            assign(
                                "hi",
                                call(
                                    Builtin::Min,
                                    vec![
                                        add(add(var("i"), c_int(1)), job_param("window")),
                                        var("n"),
                                    ],
                                ),
                            ),
                            for_each(
                                "j",
                                call(Builtin::Range, vec![var("lo"), var("hi")]),
                                vec![if_then(
                                    ne(var("j"), var("i")),
                                    vec![emit(
                                        make_pair(var("w_i"), index(var("words"), var("j"))),
                                        c_int(1),
                                    )],
                                )],
                            ),
                        ],
                    ),
                ],
            ),
        ],
    );
    // The classic "pairs" formulation ships no combiner (its win over
    // "stripes" is simplicity); this is also what makes its default
    // configuration so slow on large data (Table 6.2) and its profile so
    // close to the bigram job's (Fig. 4.5).
    JobSpec::builder("word-cooccurrence-pairs")
        .mapper("CooccurrencePairsMapper", mapper)
        .reducer("SumReducer", sum_reducer("SumReducer"))
        .param("window", Value::Int(window))
        .map_types(ValueType::Int, ValueType::Text)
        .intermediate_types(ValueType::Pair, ValueType::Int)
        .output_types(ValueType::Pair, ValueType::Int)
        .build()
}

/// Word co-occurrence, stripes formulation: for every word, accumulate a
/// map (stripe) of neighbour counts and emit `(word, stripe)`; the reducer
/// element-wise merges stripes. Memory-hungry — the paper notes it failed
/// with OOM on the 35GB dataset, which the simulator reproduces via its
/// heap model.
pub fn word_cooccurrence_stripes(window: i64) -> JobSpec {
    let mapper = Udf::mapper(
        "CooccurrenceStripesMapper",
        vec![
            assign("words", tokenize(var("value"))),
            assign("n", len(var("words"))),
            for_each(
                "i",
                call(Builtin::Range, vec![c_int(0), var("n")]),
                vec![
                    assign("w_i", index(var("words"), var("i"))),
                    if_then(
                        not_empty(var("w_i")),
                        vec![
                            assign("stripe", call(Builtin::EmptyMap, vec![])),
                            assign(
                                "lo",
                                call(
                                    Builtin::Max,
                                    vec![sub(var("i"), job_param("window")), c_int(0)],
                                ),
                            ),
                            assign(
                                "hi",
                                call(
                                    Builtin::Min,
                                    vec![
                                        add(add(var("i"), c_int(1)), job_param("window")),
                                        var("n"),
                                    ],
                                ),
                            ),
                            for_each(
                                "j",
                                call(Builtin::Range, vec![var("lo"), var("hi")]),
                                vec![if_then(
                                    ne(var("j"), var("i")),
                                    vec![Stmt::MapAdd(
                                        "stripe",
                                        index(var("words"), var("j")),
                                        c_int(1),
                                    )],
                                )],
                            ),
                            emit(var("w_i"), var("stripe")),
                        ],
                    ),
                ],
            ),
        ],
    );
    let merge_stripes = |name: &str| {
        Udf::reducer(
            name,
            vec![
                assign("acc", call(Builtin::EmptyMap, vec![])),
                for_each(
                    "stripe",
                    var("values"),
                    vec![for_each(
                        "k",
                        call(Builtin::MapKeys, vec![var("stripe")]),
                        vec![Stmt::MapAdd(
                            "acc",
                            var("k"),
                            call(Builtin::MapGet, vec![var("stripe"), var("k")]),
                        )],
                    )],
                ),
                emit(var("key"), var("acc")),
            ],
        )
    };
    JobSpec::builder("word-cooccurrence-stripes")
        .mapper("CooccurrenceStripesMapper", mapper)
        .combiner("StripeMergeCombiner", merge_stripes("StripeMergeCombiner"))
        .reducer("StripeMergeReducer", merge_stripes("StripeMergeReducer"))
        .param("window", Value::Int(window))
        .map_types(ValueType::Int, ValueType::Text)
        .intermediate_types(ValueType::Text, ValueType::Map)
        .output_types(ValueType::Text, ValueType::Map)
        .build()
}

/// Bigram relative frequency: counts the frequency of each bigram
/// `(w1, w2)` relative to the frequency of `w1`. The mapper emits
/// `(w1, (w2, 1))`; the reducer aggregates per-`w1` neighbour counts and
/// divides by the marginal. With a co-occurrence window of 2 the map-side
/// dataflow is nearly identical to `word_cooccurrence_pairs`, which is the
/// profile-reuse opportunity the paper's introduction demonstrates.
pub fn bigram_relative_frequency() -> JobSpec {
    let mapper = Udf::mapper(
        "BigramMapper",
        vec![
            assign("words", tokenize(var("value"))),
            assign("n", len(var("words"))),
            for_each(
                "i",
                call(Builtin::Range, vec![c_int(0), sub(var("n"), c_int(1))]),
                vec![
                    assign("w1", index(var("words"), var("i"))),
                    if_then(
                        not_empty(var("w1")),
                        vec![emit(
                            var("w1"),
                            make_pair(index(var("words"), add(var("i"), c_int(1))), c_int(1)),
                        )],
                    ),
                ],
            ),
        ],
    );
    let reducer = Udf::reducer(
        "RelativeFrequencyReducer",
        vec![
            assign("counts", call(Builtin::EmptyMap, vec![])),
            assign("total", c_float(0.0)),
            for_each(
                "p",
                var("values"),
                vec![
                    Stmt::MapAdd("counts", first(var("p")), second(var("p"))),
                    assign("total", add(var("total"), second(var("p")))),
                ],
            ),
            for_each(
                "w2",
                call(Builtin::MapKeys, vec![var("counts")]),
                vec![emit(
                    make_pair(var("key"), var("w2")),
                    div(
                        call(Builtin::MapGet, vec![var("counts"), var("w2")]),
                        var("total"),
                    ),
                )],
            ),
        ],
    );
    JobSpec::builder("bigram-relative-frequency")
        .mapper("BigramMapper", mapper)
        .reducer("RelativeFrequencyReducer", reducer)
        .partitioner(Partitioner::FirstOfPair)
        .map_types(ValueType::Int, ValueType::Text)
        .intermediate_types(ValueType::Text, ValueType::Pair)
        .output_types(ValueType::Pair, ValueType::Float)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_map, run_reduce};

    #[test]
    fn pairs_window_two_emits_adjacent_pairs() {
        let spec = word_cooccurrence_pairs(2);
        let mut out = vec![];
        run_map(
            &spec.map_udf,
            &spec.params,
            &Value::Int(0),
            &Value::text("a b c"),
            &mut out,
        )
        .unwrap();
        // window=2, symmetric -> a:{b,c}, b:{a,c}, c:{a,b}
        assert_eq!(out.len(), 6);
        assert_eq!(out[0].0, Value::pair(Value::text("a"), Value::text("b")));
    }

    #[test]
    fn pairs_selectivity_grows_with_window() {
        let line = Value::text("w1 w2 w3 w4 w5 w6");
        let mut out2 = vec![];
        let mut out4 = vec![];
        let s2 = word_cooccurrence_pairs(2);
        let s4 = word_cooccurrence_pairs(4);
        run_map(&s2.map_udf, &s2.params, &Value::Int(0), &line, &mut out2).unwrap();
        run_map(&s4.map_udf, &s4.params, &Value::Int(0), &line, &mut out4).unwrap();
        assert!(out4.len() > out2.len());
    }

    #[test]
    fn stripes_merge_is_elementwise() {
        let spec = word_cooccurrence_stripes(2);
        let mut m1 = std::collections::BTreeMap::new();
        m1.insert("b".to_string(), Value::Int(2));
        let mut m2 = std::collections::BTreeMap::new();
        m2.insert("b".to_string(), Value::Int(3));
        m2.insert("c".to_string(), Value::Int(1));
        let mut out = vec![];
        run_reduce(
            spec.reduce_udf.as_ref().unwrap(),
            &spec.params,
            &Value::text("a"),
            vec![Value::map(m1), Value::map(m2)],
            &mut out,
        )
        .unwrap();
        match &out[0].1 {
            Value::Map(m) => {
                assert_eq!(m["b"], Value::Int(5));
                assert_eq!(m["c"], Value::Int(1));
            }
            other => panic!("expected map, got {other:?}"),
        }
    }

    #[test]
    fn bigram_reducer_computes_relative_frequency() {
        let spec = bigram_relative_frequency();
        let mut out = vec![];
        run_reduce(
            spec.reduce_udf.as_ref().unwrap(),
            &spec.params,
            &Value::text("the"),
            vec![
                Value::pair(Value::text("cat"), Value::Int(1)),
                Value::pair(Value::text("cat"), Value::Int(1)),
                Value::pair(Value::text("dog"), Value::Int(2)),
            ],
            &mut out,
        )
        .unwrap();
        let cat = out
            .iter()
            .find(|(k, _)| matches!(k, Value::Pair(p) if p.1.as_text() == Some("cat")))
            .unwrap();
        assert_eq!(cat.1, Value::float(0.5));
    }

    #[test]
    fn bigram_map_matches_coocc_window2_dataflow() {
        // Same number of emitted records per line.
        let line = Value::text("one two three four");
        let bigram = bigram_relative_frequency();
        let coocc = word_cooccurrence_pairs(2);
        let mut b_out = vec![];
        let mut c_out = vec![];
        run_map(
            &bigram.map_udf,
            &bigram.params,
            &Value::Int(0),
            &line,
            &mut b_out,
        )
        .unwrap();
        run_map(
            &coocc.map_udf,
            &coocc.params,
            &Value::Int(0),
            &line,
            &mut c_out,
        )
        .unwrap();
        // coocc emits a few records per word; bigram one per word: sizes
        // are the same order, and both scale linearly in line length.
        assert_eq!(b_out.len(), 3);
        assert!(c_out.len() >= b_out.len());
    }
}
