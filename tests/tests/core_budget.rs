//! One core budget per process (DESIGN.md §31): an `analyze` call and a
//! store scan hold their caller's core while they run, whoever the caller
//! is — a `TuningService` worker or any other thread — and are lent helper
//! threads only for cores no call holds. So calls that fill the cores
//! never run a helper beside them.
//!
//! A test binary of its own, and one test: the budget is the process's, and
//! tests beside it in one process would hold cores too.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use bytes::Bytes;
use cfstore::{MiniStore, PredicateFilter, Put, RowView, Scan};
use datagen::corpus::{self, SizeClass};
use mrjobs::jobs;
use mrsim::ClusterSpec;
use pstorm::{ProfileStore, ServiceConfig, ServiceOutcome, TuningService};

/// What `work` returns when it runs while this thread holds `others`
/// cores, the way other busy calls would, and the most cores lent beyond
/// those meanwhile, as a thread beside it reads the budget every 100 µs.
fn lent_beside<T>(others: usize, work: impl FnOnce() -> T) -> (T, usize) {
    let busy = (others > 0).then(|| obs::cores::try_lend(others - 1));
    assert_eq!(obs::cores::held(), others);
    let theirs = obs::cores::lent();
    let done = AtomicBool::new(false);
    let seen = std::thread::scope(|s| {
        let peak = s.spawn(|| {
            let mut lent = 0;
            while !done.load(Ordering::Relaxed) {
                lent = lent.max(obs::cores::lent() - theirs);
                std::thread::sleep(Duration::from_micros(100));
            }
            lent
        });
        let out = work();
        done.store(true, Ordering::Relaxed);
        (out, peak.join().unwrap())
    });
    drop(busy);
    seen
}

/// A one-worker service serves three tenants' submissions, all outstanding
/// together: the `cores.held` and `cores.lent` gauges at the last claim.
fn serve() -> (f64, f64) {
    let reg = obs::Registry::new();
    let svc = TuningService::with_obs(
        ProfileStore::new().unwrap(),
        ClusterSpec::ec2_c1_medium_16(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        reg.clone(),
    );
    let mut tickets = Vec::new();
    for tenant in ["acme", "zen", "umbra"] {
        for spec in [
            jobs::word_cooccurrence_pairs(2),
            jobs::word_count(),
            jobs::bigram_relative_frequency(),
        ] {
            let ds = corpus::input_for(&spec.name, SizeClass::Small);
            tickets.push(svc.submit(tenant, &spec, &ds, 7).unwrap());
        }
    }
    for ticket in tickets {
        assert!(matches!(ticket.wait(), ServiceOutcome::Served(_)));
    }
    let gauges = reg.snapshot().gauges;
    (gauges["cores.held"], gauges["cores.lent"])
}

/// This thread runs three `analyze` calls and then scans a store of 200
/// rows in at least 20 regions: the threads the scan's filter ran on.
fn analyze_then_scan() -> HashSet<ThreadId> {
    let ds = corpus::random_text_1g();
    for _ in 0..3 {
        let spec = jobs::word_cooccurrence_pairs(2);
        mrsim::analyze(&spec, &ds, &ClusterSpec::ec2_c1_medium_16()).unwrap();
    }
    let store = MiniStore::new();
    store.create_table_with_threshold("t", &["f"], 8).unwrap();
    for i in 0..200 {
        let row = Bytes::from(format!("k{i:03}"));
        let put = Put::new(row, "f", Bytes::from_static(b"c"), Bytes::from_static(b"v"));
        store.put("t", put).unwrap();
    }
    assert!(store.region_count("t").unwrap() >= 20);
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let record = Arc::clone(&seen);
    let scan = Scan::all().with_filter(Box::new(PredicateFilter {
        pred: move |_: &RowView<'_>| {
            record.lock().unwrap().insert(std::thread::current().id());
            true
        },
    }));
    assert_eq!(store.scan("t", &scan).unwrap().0.len(), 200);
    let threads = seen.lock().unwrap().clone();
    threads
}

#[test]
fn a_call_that_fans_out_holds_its_callers_core() {
    let cores = obs::cores::count();
    let me = std::thread::current().id();
    // Every other core busy: a service worker's calls, and this thread's
    // own, run on the last one, which they hold, and find none free to
    // lend. Between its calls an idle worker holds nothing.
    let last = cores - 1;
    let (gauges, lent) = lent_beside(last, serve);
    assert_eq!((gauges.0, lent), (last as f64, 0));
    assert_eq!(lent_beside(last, analyze_then_scan), ([me].into(), 0));
    assert_eq!(obs::cores::held(), 0);
    // With the other cores free the same calls are lent them, so the
    // readings above are not blind to a lease.
    if cores >= 2 {
        let ((held, free), lent) = lent_beside(0, serve);
        assert_eq!((held, free, lent >= 1), (0.0, 0.0, true));
        let (threads, lent) = lent_beside(0, analyze_then_scan);
        assert!(threads.len() >= 2 && lent >= 1, "{threads:?}, {lent} lent");
    }
    assert_eq!(obs::cores::held(), 0);
}
