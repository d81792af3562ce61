//! The PStorM-rs benchmark: four submission-level workloads, end-to-end
//! metrics measured with tracing off, and a traced run whose per-layer
//! ledger adds up. See `benchmark/README.md`.
//!
//! ```text
//! pstorm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <file>]
//! pstorm-benchmark run --seed <n> --out <file> [--seconds <s>] [--quick]
//! pstorm-benchmark compare <a.json> <b.json> [--spec <BENCHMARK.json>]
//! ```

mod compare;
mod corpus;
mod gen;
mod json;
mod metrics;
mod pipeline;
mod reference;
mod run_all;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use workloads::{RunArgs, Scale};

/// Flags of a command line: `--name value` pairs, bare `--quick`, and
/// positional words.
pub struct Flags {
    pairs: Vec<(String, String)>,
    pub quick: bool,
    pub positional: Vec<String>,
}

impl Flags {
    fn parse(args: impl Iterator<Item = String>) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("quick") => flags.quick = true,
                Some(name) => {
                    let value = args.next().ok_or(format!("--{name} needs a value"))?;
                    flags.pairs.push((name.to_string(), value));
                }
                None => flags.positional.push(arg),
            }
        }
        Ok(flags)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: bad value {v:?}")))
            .transpose()
    }

    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.number(name)?.ok_or(format!("--{name} is required"))
    }
}

/// Removes the run's store directory on every way out, a failed check or
/// a panic included.
struct TempRoot(PathBuf);

impl TempRoot {
    /// A fresh directory beside the executable — inside the build
    /// directory, so inside the checkout and already ignored by git.
    fn create(label: &str) -> Result<TempRoot, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let parent = exe.parent().ok_or("the executable has no directory")?;
        let dir = parent.join(format!("bench-tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempRoot(dir))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn print_metrics(outcome: &Outcome, defs: &[MetricDef]) {
    for d in defs {
        let value = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
        let samples = outcome
            .samples
            .get(d.name)
            .map_or(String::new(), |n| format!("  n={n}"));
        println!(
            "  {:<36} {:>16.4} {:<6} ({} is better){samples}",
            d.name,
            value,
            d.unit,
            d.better.as_str()
        );
    }
}

/// Run one workload once; the contract's result object is the last line
/// of standard output.
fn run_workload(flags: &Flags) -> Result<bool, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let seed: u64 = flags.require("seed")?;
    let seconds: f64 = flags.require("seconds")?;
    let trace = match flags.get("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds: {seconds} is not a measuring time"));
    }
    let tmp = TempRoot::create(name)?;
    let args = RunArgs {
        seed,
        measure: Duration::from_secs_f64(seconds),
        trace,
        scale: if flags.quick {
            Scale::quick()
        } else {
            Scale::full()
        },
        tmp: tmp.0.clone(),
    };
    let outcome = workloads::run(name, &args).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; the workloads are {:?}",
            workloads::NAMES
        )
    })?;
    drop(tmp);

    let defs = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "{name}  seed={seed}  seconds={seconds}  trace={}  quick={}  nproc={}",
        u8::from(trace),
        flags.quick,
        workloads::nproc()
    );
    print_metrics(&outcome, defs);
    println!(
        "  attempted={} failed={} failed_frac={}",
        outcome.attempted,
        outcome.failed,
        stats::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    for why in &outcome.failures {
        println!("  FAILED: {why}");
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(path, format!("{}\n", outcome.detail_json(defs)))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.result_json(defs));
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let command = match args.peek().map(String::as_str) {
        Some("run") | Some("compare") => args.next(),
        _ => None,
    };
    let result = Flags::parse(args).and_then(|flags| match command.as_deref() {
        Some("run") => run_all::run(&flags),
        Some("compare") => compare::run(&flags),
        _ => run_workload(&flags),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("pstorm-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
