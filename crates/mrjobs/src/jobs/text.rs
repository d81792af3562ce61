//! Text-processing benchmark jobs: word count (for-loop and while-loop
//! variants), inverted index, and grep.

use crate::ir::build::*;
use crate::ir::{Builtin, Stmt, Udf};
use crate::spec::{formatters, JobSpec};
use crate::value::{Value, ValueType};

/// The shared sum reducer/combiner used by counting jobs: sums the grouped
/// values and emits `(key, total)`.
pub fn sum_reducer(name: &str) -> Udf {
    Udf::reducer(
        name,
        vec![
            assign("total", call(Builtin::SumList, vec![var("values")])),
            emit(var("key"), var("total")),
        ],
    )
}

/// Word count (Algorithm 1 of the paper): tokenize each line and emit
/// `(word, 1)`; combiner and reducer sum the counts.
pub fn word_count() -> JobSpec {
    let mapper = Udf::mapper(
        "WordCountMapper",
        vec![
            assign("tokens", tokenize(var("value"))),
            for_each("word", var("tokens"), vec![emit(var("word"), c_int(1))]),
        ],
    );
    JobSpec::builder("word-count")
        .mapper("WordCountMapper", mapper)
        .combiner("SumCombiner", sum_reducer("SumCombiner"))
        .reducer("SumReducer", sum_reducer("SumReducer"))
        .map_types(ValueType::Int, ValueType::Text)
        .intermediate_types(ValueType::Text, ValueType::Int)
        .output_types(ValueType::Text, ValueType::Int)
        .build()
}

/// A semantically identical word count whose mapper iterates with an
/// explicit `while` loop over an index instead of a `for` loop. Used to
/// verify that CFG matching is robust to this rewrite (§4.1.3): both
/// variants lower to the same loop-shaped CFG.
pub fn word_count_while_variant() -> JobSpec {
    let mapper = Udf::mapper(
        "WordCountWhileMapper",
        vec![
            assign("tokens", tokenize(var("value"))),
            assign("i", c_int(0)),
            assign("n", len(var("tokens"))),
            while_loop(
                lt(var("i"), var("n")),
                vec![
                    emit(index(var("tokens"), var("i")), c_int(1)),
                    assign("i", add(var("i"), c_int(1))),
                ],
            ),
        ],
    );
    JobSpec::builder("word-count-while")
        .mapper("WordCountWhileMapper", mapper)
        .combiner("SumCombiner", sum_reducer("SumCombiner"))
        .reducer("SumReducer", sum_reducer("SumReducer"))
        .map_types(ValueType::Int, ValueType::Text)
        .intermediate_types(ValueType::Text, ValueType::Int)
        .output_types(ValueType::Text, ValueType::Int)
        .build()
}

/// Inverted index: input records are `(doc-id, text)`; the mapper emits
/// `(word, doc-id)` and the reducer emits the sorted postings list.
pub fn inverted_index() -> JobSpec {
    let mapper = Udf::mapper(
        "InvertedIndexMapper",
        vec![
            assign("tokens", tokenize(var("value"))),
            for_each("word", var("tokens"), vec![emit(var("word"), var("key"))]),
        ],
    );
    let reducer = Udf::reducer(
        "PostingsReducer",
        vec![emit(
            var("key"),
            call(Builtin::SortList, vec![var("values")]),
        )],
    );
    JobSpec::builder("inverted-index")
        .input_formatter(formatters::KEY_VALUE_TEXT_INPUT)
        .mapper("InvertedIndexMapper", mapper)
        .reducer("PostingsReducer", reducer)
        .driver_reduce_tasks(27)
        .map_types(ValueType::Text, ValueType::Text)
        .intermediate_types(ValueType::Text, ValueType::Text)
        .output_types(ValueType::Text, ValueType::List)
        .build()
}

/// Grep: emit `(pattern, 1)` for every line containing the user-provided
/// pattern; the reducer sums match counts. Different patterns produce
/// different dynamic profiles from identical static features (§7.2.1).
pub fn grep(pattern: &str) -> JobSpec {
    let mapper = Udf::mapper(
        "GrepMapper",
        vec![Stmt::If {
            cond: call(Builtin::Contains, vec![var("value"), job_param("pattern")]),
            then_branch: vec![emit(job_param("pattern"), c_int(1))],
            else_branch: vec![],
        }],
    );
    JobSpec::builder("grep")
        .mapper("GrepMapper", mapper)
        .combiner("SumCombiner", sum_reducer("SumCombiner"))
        .reducer("SumReducer", sum_reducer("SumReducer"))
        .param("pattern", Value::text(pattern))
        .map_types(ValueType::Int, ValueType::Text)
        .intermediate_types(ValueType::Text, ValueType::Int)
        .output_types(ValueType::Text, ValueType::Int)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_map, run_reduce};

    #[test]
    fn word_count_variants_agree() {
        let a = word_count();
        let b = word_count_while_variant();
        let line = Value::text("to be or not to be");
        let mut out_a = vec![];
        let mut out_b = vec![];
        run_map(&a.map_udf, &a.params, &Value::Int(0), &line, &mut out_a).unwrap();
        run_map(&b.map_udf, &b.params, &Value::Int(0), &line, &mut out_b).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(out_a.len(), 6);
    }

    #[test]
    fn inverted_index_emits_doc_ids() {
        let spec = inverted_index();
        let mut out = vec![];
        run_map(
            &spec.map_udf,
            &spec.params,
            &Value::text("doc7"),
            &Value::text("alpha beta"),
            &mut out,
        )
        .unwrap();
        assert_eq!(out[0], (Value::text("alpha"), Value::text("doc7")));
        assert_eq!(out[1], (Value::text("beta"), Value::text("doc7")));

        let mut red = vec![];
        run_reduce(
            spec.reduce_udf.as_ref().unwrap(),
            &spec.params,
            &Value::text("alpha"),
            vec![Value::text("doc9"), Value::text("doc1")],
            &mut red,
        )
        .unwrap();
        assert_eq!(
            red[0].1,
            Value::list(vec![Value::text("doc1"), Value::text("doc9")])
        );
    }

    #[test]
    fn grep_filters_lines() {
        let spec = grep("needle");
        let mut out = vec![];
        run_map(
            &spec.map_udf,
            &spec.params,
            &Value::Int(0),
            &Value::text("hay hay hay"),
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty());
        run_map(
            &spec.map_udf,
            &spec.params,
            &Value::Int(1),
            &Value::text("hay needle hay"),
            &mut out,
        )
        .unwrap();
        assert_eq!(out, vec![(Value::text("needle"), Value::Int(1))]);
    }

    #[test]
    fn grep_pattern_lands_in_job_id() {
        assert_eq!(grep("x").job_id(), "grep[pattern=x]");
    }
}
