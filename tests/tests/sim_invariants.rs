//! Simulator invariants across the whole benchmark suite, plus property
//! tests on the phase cost model and interpreter/value layer.

use datagen::{corpus, SizeClass};
use mrjobs::{Value, ValueType};
use mrsim::{analyze, simulate_with_dataflow, ClusterSpec, CombineFlow, JobConfig, SimError};
use proptest::prelude::*;

fn cl() -> ClusterSpec {
    ClusterSpec::ec2_c1_medium_16()
}

#[test]
fn whole_suite_simulates_with_sane_invariants() {
    let cluster = cl();
    for spec in mrjobs::jobs::standard_suite() {
        let ds = corpus::input_for(&spec.name, SizeClass::Small);
        let flow = analyze(&spec, &ds, &cluster).expect("dataflow");
        let report = match simulate_with_dataflow(
            &spec,
            &flow,
            &ds.name,
            &cluster,
            &JobConfig::submitted(&spec),
            42,
        ) {
            Ok(r) => r,
            Err(SimError::OutOfMemory { .. }) => continue,
            Err(e) => panic!("{}: {e}", spec.job_id()),
        };
        let id = spec.job_id();
        assert!(report.runtime_ms > 0.0, "{id}");
        assert_eq!(report.map_tasks.len() as u32, flow.num_map_tasks, "{id}");
        // Tasks never overlap on a slot more than slot capacity allows:
        // at any map task's start, fewer than `slots` tasks are running.
        for t in &report.map_tasks {
            let concurrent = report
                .map_tasks
                .iter()
                .filter(|o| o.start_ms < t.start_ms && o.end_ms > t.start_ms)
                .count();
            assert!(
                concurrent < cluster.map_slots() as usize,
                "{id}: {concurrent} concurrent at {}",
                t.start_ms
            );
        }
        // Reducers never finish before the maps are done.
        for r in &report.reduce_tasks {
            assert!(r.end_ms >= report.maps_done_ms, "{id}");
        }
        // Phase times are non-negative and sum to the task durations.
        for t in &report.map_tasks {
            let sum: f64 = t.phases.iter().map(|(_, ns)| ns / 1e6).sum();
            assert!((sum - t.duration_ms()).abs() < 1e-6, "{id}");
            assert!(t.phases.iter().all(|(_, ns)| *ns >= 0.0), "{id}");
        }
    }
}

#[test]
fn reduce_runtime_decreases_with_reducers_for_shuffle_heavy_jobs() {
    let cluster = cl();
    let spec = mrjobs::jobs::word_cooccurrence_pairs(2);
    let ds = corpus::wikipedia_35g();
    let flow = analyze(&spec, &ds, &cluster).unwrap();
    let mut prev = f64::INFINITY;
    for r in [1u32, 4, 16, 27] {
        let cfg = JobConfig {
            num_reduce_tasks: r,
            ..JobConfig::default()
        };
        let runtime = simulate_with_dataflow(&spec, &flow, &ds.name, &cluster, &cfg, 3)
            .unwrap()
            .runtime_ms;
        assert!(
            runtime < prev * 1.05,
            "more reducers should not make it much slower: R={r} {runtime} vs {prev}"
        );
        prev = runtime;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_costs_monotone_in_output_volume(
        out_records in 1_000.0f64..5_000_000.0,
        ratio in 1.05f64..3.0,
    ) {
        use mrsim::phases::{map_task_costs, MapTaskInputs};
        let mk = |records: f64| MapTaskInputs {
            input_bytes: 64e6,
            input_records: 100_000.0,
            out_records: records,
            out_bytes: records * 40.0,
            map_cpu_ops: 1e6,
            combine: None,
        };
        let cfg = JobConfig::default();
        let rates = cl().rates;
        let small = map_task_costs(&cfg, &rates, &mk(out_records));
        let large = map_task_costs(&cfg, &rates, &mk(out_records * ratio));
        prop_assert!(large.total_ns() > small.total_ns());
        prop_assert!(large.final_out_bytes > small.final_out_bytes);
    }

    #[test]
    fn combine_selectivity_scaling_is_monotone_and_bounded(
        sel in 0.01f64..1.0,
        alpha in 0.05f64..1.0,
        n1 in 100.0f64..1e6,
        growth in 1.0f64..100.0,
    ) {
        let c = CombineFlow {
            record_selectivity: sel,
            size_selectivity: sel,
            ops_per_record: 1.0,
            ref_records: 1_000.0,
            alpha,
        };
        let s1 = c.record_selectivity_at(n1);
        let s2 = c.record_selectivity_at(n1 * growth);
        prop_assert!((0.0..=1.0).contains(&s1));
        // Bigger groups dedup at least as well.
        prop_assert!(s2 <= s1 + 1e-12);
    }

    #[test]
    fn value_ordering_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        let ab = a.cmp(&b);
        let ba = b.cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            prop_assert_eq!(ba, Ordering::Equal);
        }
    }

    #[test]
    fn value_serialized_size_is_stable(v in arb_value()) {
        prop_assert_eq!(v.serialized_size(), v.clone().serialized_size());
        prop_assert!(v.serialized_size() >= 1);
        prop_assert_eq!(v.value_type(), v.clone().value_type());
    }
}

/// A generator over the Writable-like value model.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::float),
        "[a-z]{0,12}".prop_map(Value::text),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Value::pair(a, b)),
            prop::collection::vec(inner, 0..4).prop_map(Value::list),
        ]
    })
}

#[test]
fn value_type_names_cover_all_variants() {
    for vt in [
        ValueType::Null,
        ValueType::Int,
        ValueType::Float,
        ValueType::Text,
        ValueType::Pair,
        ValueType::List,
        ValueType::Map,
    ] {
        assert!(!vt.class_name().is_empty());
    }
}
