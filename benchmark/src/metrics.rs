//! The metric catalogue — the names every later change is judged by —
//! and the result a workload run produces. `BENCHMARK.json` lists the
//! same metrics; a unit test keeps the two in step.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spans::Span;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a submitter, an operator or whoever pays for the box sees. Every
/// workload reports every one of them (the benchmark contract asks for
/// that), which is why each workload ends with an ingest-flush-reopen
/// tail even when its measured phase only reads.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("submit_per_s", "1/s", Higher),
    def("submit_p50_ms", "ms", Lower),
    def("submit_p95_ms", "ms", Lower),
    def("ingest_p50_ms", "ms", Lower),
    def("reopen_s", "s", Lower),
    def("disk_bytes_per_profile", "bytes", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("tuned_frac", "frac", Higher),
    def("match_accuracy", "frac", Higher),
    def("tuned_speedup_geomean", "x", Higher),
];

/// One or more numbers per layer, from the traced run. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("daemon.unattributed_frac", "frac", Lower),
    def("staticanalysis.extract_us", "us", Lower),
    def("profiler.sample_ms", "ms", Lower),
    def("mrsim.simulate_ms", "ms", Lower),
    def("mrsim.analyze_ms", "ms", Lower),
    def("mrsim.tasks_per_s", "1/s", Higher),
    def("optimizer.optimize_ms", "ms", Lower),
    def("optimizer.wif_calls", "count", Lower),
    def("optimizer.memo_hit_frac", "frac", Higher),
    def("optimizer.candidates_per_s", "1/s", Higher),
    def("whatif.plan_us", "us", Lower),
    def("whatif.predict_us", "us", Lower),
    def("matcher.match_ms", "ms", Lower),
    def("matcher.stage1_sweep_us", "us", Lower),
    def("matcher.stage1_pass_frac", "frac", Lower),
    def("matcher.stage2_pass_frac", "frac", Lower),
    def("matcher.stage3_pass_frac", "frac", Lower),
    def("matcher.unattributed_frac", "frac", Lower),
    def("store.is_empty_ms", "ms", Lower),
    def("store.normalization_bounds_us", "us", Lower),
    def("store.columnar_index_us", "us", Lower),
    def("store.index_rebuild_ms", "ms", Lower),
    def("store.index_rebuilds", "count", Lower),
    def("store.get_profile_us", "us", Lower),
    def("store.put_profile_p50_ms", "ms", Lower),
    def("store.put_profile_p95_ms", "ms", Lower),
    def("store.tenant_view_us", "us", Lower),
    def("cfstore.get_us", "us", Lower),
    def("cfstore.scan_prefix_ms", "ms", Lower),
    def("cfstore.rows_scanned_per_submit", "count", Lower),
    def("cfstore.scan_read_amp", "x", Lower),
    def("cfstore.block_cache_hit_rate", "frac", Higher),
    def("cfstore.block_cache_evictions", "count", Lower),
    def("cfstore.block_cache_fill_bytes", "bytes", Lower),
    def("cfstore.wal_bytes_per_ingest", "bytes", Lower),
    def("cfstore.shard_wal_bytes_per_ingest", "bytes", Lower),
    def("cfstore.flush_ms", "ms", Lower),
    def("cfstore.flush_stall_max_ms", "ms", Lower),
    def("cfstore.segments_written", "count", Lower),
    def("cfstore.segments_reused", "count", Higher),
    def("cfstore.reopen_records_replayed", "count", Lower),
    def("cfstore.reopen_blocks_read", "count", Lower),
    def("cfstore.heal_repairs", "count", Lower),
    def("service.enqueue_us", "us", Lower),
    def("service.scaling_x", "x", Higher),
    def("service.ticket_over_solo", "x", Lower),
    def("service.peak_queue_depth", "count", Lower),
    def("service.shed", "count", Lower),
    def("obs.trace_overhead_frac", "frac", Lower),
];

/// How many failure messages a result keeps (the count is always exact).
const KEPT_FAILURES: usize = 20;

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-pass (or per-cycle, per-repetition) values behind a metric:
    /// `compare` reads the spread inside a run from them.
    pub rounds: BTreeMap<&'static str, Vec<f64>>,
    /// How many samples a percentile was taken over.
    pub samples: BTreeMap<&'static str, usize>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn set_rounds(&mut self, name: &'static str, rounds: Vec<f64>) {
        self.rounds.insert(name, rounds);
    }

    /// Count one operation; `Err` makes it a failed one.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// A failed output check: counts against `failed` like a failed op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metrics_json(&self, defs: &[MetricDef]) -> Json {
        Json::Object(
            defs.iter()
                .map(|d| {
                    let value = self.metrics.get(d.name).copied().unwrap_or(0.0);
                    let entry = Json::object([
                        ("value", Json::Number(value)),
                        ("unit", Json::string(d.unit)),
                    ]);
                    (d.name.to_string(), entry)
                })
                .collect(),
        )
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self, defs: &[MetricDef]) -> Json {
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("metrics", self.metrics_json(defs)),
        ])
    }

    /// Everything else a run knows, for `run --out` and `compare`.
    pub fn detail_json(&self, defs: &[MetricDef]) -> Json {
        let rounds = self
            .rounds
            .iter()
            .map(|(k, v)| {
                let values = v.iter().map(|x| Json::Number(*x)).collect();
                (k.to_string(), Json::Array(values))
            })
            .collect();
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Number(*v as f64)))
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::object([
                    ("name", Json::string(s.name)),
                    ("start_ns", Json::Number(s.start_ns as f64)),
                    ("end_ns", Json::Number(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Number(f64::from(p))),
                    ),
                    ("submission", Json::Number(f64::from(s.submission))),
                ])
            })
            .collect();
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            (
                "failures",
                Json::Array(self.failures.iter().map(|f| Json::string(f)).collect()),
            ),
            ("metrics", self.metrics_json(defs)),
            ("rounds", Json::Object(rounds)),
            ("samples", Json::Object(samples)),
            ("spans", Json::Array(spans)),
        ])
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the catalogue name the same metrics, with the
    /// same units and directions, in the same order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(d.better.as_str())
                );
            }
        }
        let workloads = spec.get("workloads").and_then(Json::as_array).unwrap();
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
