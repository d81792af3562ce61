//! `run`: every workload, untraced and traced, each in its own child
//! process; every metric printed by name; one results file.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::workloads;
use crate::Flags;

/// The commit of the checkout, if it is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The box and the program defaults the numbers were taken under. The
/// benchmark leaves every default as shipped; recording them makes a
/// changed default visible in a comparison.
fn environment() -> Json {
    let cbo = optimizer::CboOptions::default();
    let store = cfstore::StoreOptions::default();
    let shards = cfstore::ShardOptions::default();
    let flusher = |bytes: Option<u64>| bytes.map_or(Json::Null, |b| Json::Number(b as f64));
    Json::object([
        ("nproc", Json::Number(workloads::nproc() as f64)),
        ("commit", Json::String(commit())),
        ("cbo_parallel", Json::Bool(cbo.parallel)),
        ("cbo_budget", Json::Number(cbo.budget as f64)),
        ("cbo_rounds", Json::Number(cbo.rounds as f64)),
        ("store_sync", Json::String(format!("{:?}", store.sync))),
        (
            "store_block_cache_bytes",
            Json::Number(store.block_cache_bytes as f64),
        ),
        (
            "store_background_flush_wal_bytes",
            flusher(store.background_flush_wal_bytes),
        ),
        ("shards", Json::Number(f64::from(shards.shards))),
        ("replication", Json::Number(f64::from(shards.replication))),
        (
            "shard_background_flush_wal_bytes",
            flusher(shards.background_flush_wal_bytes),
        ),
        ("service_workers", Json::Number(workloads::nproc() as f64)),
        (
            "service_outstanding_tickets",
            Json::Number(2.0 * workloads::nproc() as f64),
        ),
    ])
}

/// Run one workload in a child process; its standard output passes
/// through. Returns the child's detail object and whether it exited 0.
fn child(
    exe: &Path,
    name: &str,
    trace: bool,
    flags: &Flags,
    seed: u64,
    seconds: f64,
) -> Result<(Json, bool), String> {
    let detail_path = exe.with_file_name(format!(
        "bench-detail-{}-{name}-{}.json",
        std::process::id(),
        u8::from(trace)
    ));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&detail_path);
    if flags.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let text = std::fs::read_to_string(&detail_path);
    let _ = std::fs::remove_file(&detail_path);
    let text = text.map_err(|e| format!("{name}: the child left no result ({status}): {e}"))?;
    Ok((Json::parse(&text)?, status.success()))
}

pub fn run(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.require("seed")?;
    let out_path = flags.get("out").ok_or("--out is required")?;
    let default_seconds = if flags.quick { 0.5 } else { 10.0 };
    let seconds: f64 = flags.number("seconds")?.unwrap_or(default_seconds);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut all_ok = true;
    let mut results = Vec::new();
    for name in workloads::NAMES {
        let (untraced, ok0) = child(&exe, name, false, flags, seed, seconds)?;
        let (traced, ok1) = child(&exe, name, true, flags, seed, seconds)?;
        all_ok &= ok0 && ok1;
        results.push((
            name.to_string(),
            Json::object([("untraced", untraced), ("traced", traced)]),
        ));
    }
    let doc = Json::object([
        ("benchmark", Json::string("pstorm-benchmark")),
        ("seed", Json::String(seed.to_string())),
        ("seconds", Json::Number(seconds)),
        ("quick", Json::Bool(flags.quick)),
        ("env", environment()),
        ("workloads", Json::Object(results)),
    ]);
    std::fs::write(out_path, format!("{doc}\n")).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "{}: results written to {out_path}",
        if all_ok {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_ok)
}
