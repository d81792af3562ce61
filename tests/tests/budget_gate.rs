//! Budget regression gate (run by `scripts/ci.sh`): hard thresholds over
//! the golden trace's counters. The golden file is byte-pinned by the
//! `trace_snapshot` test, so these assertions gate *semantic drift at
//! regeneration time* — whoever reruns `UPDATE_TRACE_SNAPSHOT=1` after an
//! instrumentation or algorithm change still has to stay inside the
//! search-budget and filter-funnel envelopes asserted here.
//!
//! Scenario behind the numbers (see `trace_snapshot.rs`): one store miss
//! (profile-and-store) then one match-and-tune of `word_count`, fixed
//! seeds 1 and 2, then one listing of the store.

use std::collections::BTreeMap;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/trace_snapshot.json");

/// Extract the flat `"counters":{...}` object from the golden trace. The
/// emitter (`obs::Snapshot::to_json`) writes only string keys and bare
/// unsigned integers there, so a tiny scanner beats a JSON dependency.
fn golden_counters() -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(GOLDEN).expect(
        "golden trace missing — regenerate with UPDATE_TRACE_SNAPSHOT=1 \
         cargo test -p pstorm-tests --test trace_snapshot",
    );
    let start = text.find("\"counters\":{").expect("counters object") + "\"counters\":{".len();
    let body = &text[start
        ..text[start..]
            .find('}')
            .map(|i| start + i)
            .expect("closing brace")];
    let mut out = BTreeMap::new();
    for pair in body.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once(':').expect("key:value");
        out.insert(
            key.trim_matches('"').to_string(),
            value.parse::<u64>().expect("integer counter"),
        );
    }
    out
}

fn get(c: &BTreeMap<String, u64>, key: &str) -> u64 {
    *c.get(key)
        .unwrap_or_else(|| panic!("counter {key} missing from golden trace"))
}

/// CBO search budget: every candidate the search considers is a what-if
/// call, priced unless validation rejects it, and the total search effort
/// must stay inside the default budget envelope.
#[test]
fn cbo_search_stays_inside_its_budget() {
    let c = golden_counters();
    let evals = get(&c, "cbo.evals");
    let wif = get(&c, "cbo.wif_calls");
    let invalid = get(&c, "cbo.invalid_configs");
    // Accounting: a call is a prediction or a rejected candidate, nothing
    // else.
    assert_eq!(
        evals + invalid,
        wif,
        "cbo.evals + cbo.invalid_configs must equal cbo.wif_calls"
    );
    // Hard ceiling: one tuned submission may spend at most 350 what-if
    // calls (golden: 297 under the default budget/rounds). Raising this
    // means the search got more expensive for the same result — a
    // regression unless argued for in the PR.
    assert!(wif <= 350, "cbo.wif_calls {wif} blew the 350-call budget");
    assert!(
        wif >= 50,
        "cbo.wif_calls {wif} suspiciously low — search gutted?"
    );
    // The generator must not spend budget on configs the validator
    // rejects.
    assert_eq!(invalid, 0);
}

/// The matcher's filter funnel: stage survivors can only shrink, the
/// funnel must end in exactly the scenario's one match + one miss, and
/// stage 1 must see every stored candidate.
#[test]
fn matcher_stage_survivor_funnel_holds() {
    let c = golden_counters();
    let s1_in = get(&c, "matcher.stage1.candidates_in");
    let s1 = get(&c, "matcher.stage1.survivors");
    let s2 = get(&c, "matcher.stage2.survivors");
    let s3 = get(&c, "matcher.stage3.survivors");
    assert_eq!(s1_in, 2, "scenario stores 1 profile, queried twice");
    assert!(s1 <= s1_in, "stage 1 cannot create candidates");
    assert!(s2 <= s1, "stage 2 must filter, not grow: {s2} > {s1}");
    assert!(s3 <= s2, "stage 3 must filter, not grow: {s3} > {s2}");
    assert_eq!(get(&c, "matcher.matched"), 1);
    assert_eq!(get(&c, "matcher.no_match"), 1);
    assert!(
        s3 >= get(&c, "matcher.matched"),
        "a match needs a stage-3 survivor"
    );
}

/// Block cache and flush/compaction accounting ceilings (PR 6). The
/// golden trace is in-memory, so this gate drives its own deterministic
/// durable workload and asserts the three envelopes the hot-path work
/// bought:
///
/// 1. **Compaction**: after a one-row touch, a flush rewrites exactly one
///    segment and reuses every other one by reference.
/// 2. **Reopen read amplification**: a clean reopen reads zero segment
///    block bodies.
/// 3. **Scans read around the cache** (DESIGN.md §42): only a point get
///    admits a block, so a warm re-scan fetches exactly the blocks the
///    cold one did and neither leaves an entry.
#[test]
fn block_cache_and_compaction_budgets_hold() {
    use cfstore::{MiniStore, Put, Scan, StoreError};

    let dir = std::env::temp_dir().join(format!("pstorm-budget-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Session 1: 96 rows over a small split threshold (so several
    // regions and several segments exist), flushed twice.
    let obs = obs::Registry::new();
    {
        let (mut store, _) = MiniStore::open(&dir).unwrap();
        store.set_obs(obs.clone());
        match store.create_table_with_threshold("t", &["f"], 8) {
            Ok(()) | Err(StoreError::TableExists(_)) => {}
            Err(e) => panic!("create_table: {e}"),
        }
        for i in 0..96u32 {
            store
                .put(
                    "t",
                    Put::new(format!("row-{i:04}"), "f", "c", i.to_be_bytes().to_vec()),
                )
                .unwrap();
        }
        store.flush().unwrap();
        let c = obs.snapshot().counters;
        let first_written = *c.get("cfstore.flush.segments_written").unwrap();
        assert!(
            first_written >= 4,
            "split threshold 8 over 96 rows must yield several segments, got {first_written}"
        );
        assert_eq!(
            c.get("cfstore.flush.segments_reused").copied().unwrap_or(0),
            0
        );

        // Touch one existing row, flush again: the compaction ceiling.
        store
            .put("t", Put::new("row-0000", "f", "c", vec![0xFF]))
            .unwrap();
        store.flush().unwrap();
        let c = obs.snapshot().counters;
        assert_eq!(
            *c.get("cfstore.flush.segments_written").unwrap() - first_written,
            1,
            "a one-row touch must rewrite exactly one segment"
        );
        assert_eq!(
            *c.get("cfstore.flush.segments_reused").unwrap(),
            first_written - 1,
            "every untouched segment must be reused by reference"
        );
    }

    // Session 2: reopen lazily and measure the read path.
    let (mut store, report) = MiniStore::open(&dir).unwrap();
    assert_eq!(
        report.segment_blocks_read, 0,
        "clean reopen must not read segment block bodies"
    );
    assert!(report.segment_blocks >= 4);
    let obs = obs::Registry::new();
    store.set_obs(obs.clone());

    let cold = store.scan("t", &Scan::all()).unwrap().0;
    assert_eq!(cold.len(), 96);
    let c = obs.snapshot().counters;
    let cold_misses = *c.get("cfstore.block_cache.misses").unwrap();
    assert!(
        cold_misses >= report.segment_blocks,
        "cold scan must fetch every block ({cold_misses} < {})",
        report.segment_blocks
    );
    assert_eq!(store.cache_stats().entries, 0, "a scan admits no block");

    let warm = store.scan("t", &Scan::all()).unwrap().0;
    assert_eq!(warm, cold);
    let c = obs.snapshot().counters;
    assert_eq!(
        *c.get("cfstore.block_cache.misses").unwrap(),
        2 * cold_misses,
        "warm scan must fetch exactly the blocks the cold scan fetched"
    );
    assert_eq!(c.get("cfstore.block_cache.hits"), None);
    assert_eq!(store.cache_stats().entries, 0, "a scan admits no block");

    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Self-healing budget ceilings (PR 7). Healing is a repair path, not a
/// steady state: a healthy sharded store must count **zero** heals, one
/// injected corruption must cost exactly one heal read and one repair,
/// and one lost shard must cost exactly one rebuild. A regression that
/// makes reads heal spuriously (or rebuilds run twice) blows these
/// envelopes long before it shows up as a performance problem.
#[test]
fn shard_heal_budgets_hold() {
    use cfstore::{Put, Scan, ShardOptions, ShardedStore};

    let dir = std::env::temp_dir().join(format!("pstorm-heal-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let heal_counters = |reg: &obs::Registry| -> BTreeMap<String, u64> {
        reg.snapshot()
            .counters
            .into_iter()
            .filter(|(k, _)| k.starts_with("cfstore.shard.") && k.contains(".heal."))
            .collect()
    };
    // The store-level rollups (`cfstore.shard.heal.<what>`, PR 9) must
    // equal the per-shard sums exactly — they exist for low-cardinality
    // alerting, never as an independent count.
    let rollups_match = |c: &BTreeMap<String, u64>| {
        for what in ["reads", "repairs", "rows", "rebuilds"] {
            let rollup = format!("cfstore.shard.heal.{what}");
            let sum: u64 = c
                .iter()
                .filter(|(k, _)| k.ends_with(&format!(".heal.{what}")) && **k != rollup)
                .map(|(_, v)| *v)
                .sum();
            assert_eq!(
                c.get(&rollup).copied().unwrap_or(0),
                sum,
                "rollup {rollup} must equal the per-shard sum: {c:?}"
            );
        }
    };

    // 1. A healthy store heals nothing: writes, scans, flush, reopen —
    //    not one heal counter may move.
    let rows = 48u32;
    let reg = obs::Registry::new();
    {
        let (store, _) = ShardedStore::open(&dir, ShardOptions::default(), reg.clone()).unwrap();
        store.create_table_with_threshold("t", &["f"], 8).unwrap();
        for i in 0..rows {
            store
                .put(
                    "t",
                    Put::new(format!("row-{i:04}"), "f", "c", i.to_be_bytes().to_vec()),
                )
                .unwrap();
        }
        store.flush().unwrap();
        assert_eq!(
            store.scan("t", &Scan::all()).unwrap().0.len(),
            rows as usize
        );
        assert!(
            heal_counters(&reg).is_empty(),
            "healthy operation must not heal: {:?}",
            heal_counters(&reg)
        );
    }

    // 2. One corrupt cell costs exactly one heal read + one repair, and
    //    the repaired rows stay within the victim shard's replica count.
    let reg = obs::Registry::new();
    let (store, report) = ShardedStore::open(&dir, ShardOptions::default(), reg.clone()).unwrap();
    assert!(report.lost_shards.is_empty());
    assert!(heal_counters(&reg).is_empty(), "clean reopen must not heal");
    let victim_row = b"row-0007";
    let g = store.topology().replicas_of_row(victim_row)[0];
    assert!(store.corrupt_cell("t", victim_row, "f", b"c").unwrap());
    store
        .get("t", victim_row)
        .unwrap()
        .expect("failed-over read");
    store.scrub().unwrap();
    let c = heal_counters(&reg);
    assert_eq!(c[&format!("cfstore.shard.{g}.heal.reads")], 1);
    assert_eq!(c[&format!("cfstore.shard.{g}.heal.repairs")], 1);
    let healed = c[&format!("cfstore.shard.{g}.heal.rows")];
    assert!(
        healed >= 1 && healed <= rows as u64,
        "heal copied {healed} rows — outside [1, {rows}]"
    );
    rollups_match(&c);
    // The heal is durable: a full scan afterwards repairs nothing more.
    assert_eq!(
        store.scan("t", &Scan::all()).unwrap().0.len(),
        rows as usize
    );
    assert_eq!(heal_counters(&reg), c, "scan after heal must be heal-free");
    let victim_dir = store.shard_dir((g + 1) % store.shard_count());
    let lost = (g + 1) % store.shard_count();
    drop(store);

    // 3. One lost shard costs exactly one rebuild — and after it, reads
    //    are heal-free again.
    std::fs::remove_dir_all(&victim_dir).unwrap();
    let reg = obs::Registry::new();
    let (store, report) = ShardedStore::open(&dir, ShardOptions::default(), reg.clone()).unwrap();
    assert_eq!(report.lost_shards, vec![lost]);
    let c = heal_counters(&reg);
    assert_eq!(c[&format!("cfstore.shard.{lost}.heal.rebuilds")], 1);
    let rebuild_rows = c[&format!("cfstore.shard.{lost}.heal.rows")];
    assert!(
        rebuild_rows >= 1 && rebuild_rows <= rows as u64,
        "rebuild copied {rebuild_rows} rows — outside [1, {rows}]"
    );
    assert_eq!(
        c.iter()
            .filter(|(k, _)| k.ends_with(".heal.rebuilds") && *k != "cfstore.shard.heal.rebuilds")
            .count(),
        1,
        "exactly one shard may rebuild: {c:?}"
    );
    rollups_match(&c);
    assert!(!c.contains_key(&format!("cfstore.shard.{lost}.heal.reads")));
    let before = heal_counters(&reg);
    assert_eq!(
        store.scan("t", &Scan::all()).unwrap().0.len(),
        rows as usize
    );
    assert_eq!(
        heal_counters(&reg),
        before,
        "post-rebuild scan must be heal-free"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cross-tenant scan ceiling (PR 8): a tenant's match may scan only its
/// own namespace. Tenant `b` holds several times tenant `a`'s rows; a
/// full matcher run for `a` must cost a number of scanned rows bounded
/// by `a`'s own physical row count — and strictly below `b`'s row count
/// alone, so any prefix leak across the `t/<tenant>/` envelope blows the
/// gate immediately.
#[test]
fn cross_tenant_rows_scanned_stays_inside_the_tenant() {
    use mrsim::{ClusterSpec, JobConfig};
    use profiler::SampleSize;
    use pstorm::matcher::{match_profile, MatcherConfig, SubmittedJob};
    use pstorm::ProfileStore;
    use staticanalysis::StaticFeatures;

    let cluster = ClusterSpec::ec2_c1_medium_16();
    let ds = datagen::corpus::random_text_1g();
    let reg = obs::Registry::new();
    let mut base = ProfileStore::new().unwrap();
    // Attach before creating views so backend counters land in `reg`.
    base.set_obs(reg.clone());
    let a = base.tenant_view("a").unwrap();
    let b = base.tenant_view("b").unwrap();

    let put = |view: &ProfileStore, spec: &mrjobs::JobSpec| {
        let config = JobConfig::submitted(spec);
        let (profile, _) = profiler::collect_full_profile(spec, &ds, &cluster, &config, 7).unwrap();
        view.put_profile(&StaticFeatures::extract(spec), &profile)
            .unwrap();
    };
    put(&a, &mrjobs::jobs::word_count());
    put(&a, &mrjobs::jobs::sort());
    for window in 1..=12 {
        put(&b, &mrjobs::jobs::word_cooccurrence_pairs(window));
    }

    // Physical rows per namespace, straight off the backing store.
    let rows_in = |pfx: &str| {
        base.inner()
            .scan("Jobs", &cfstore::Scan::prefix(pfx.as_bytes()))
            .unwrap()
            .0
            .len() as u64
    };
    let a_rows = rows_in("t/a/");
    let b_rows = rows_in("t/b/");
    assert!(
        b_rows >= 5 * a_rows,
        "scenario needs a lopsided store: a={a_rows} b={b_rows}"
    );

    let spec = mrjobs::jobs::word_count();
    let config = JobConfig::submitted(&spec);
    let sample =
        profiler::collect_sample_profile(&spec, &ds, &cluster, &config, SampleSize::OneTask, 3)
            .unwrap();
    let q = SubmittedJob {
        spec: spec.clone(),
        statics: StaticFeatures::extract(&spec),
        sample: sample.profile,
        input_bytes: ds.logical_bytes,
    };
    let scanned = || {
        reg.snapshot()
            .counters
            .get("cfstore.rows_scanned")
            .copied()
            .unwrap_or(0)
    };
    let before = scanned();
    match_profile(&a, &q, &MatcherConfig::default())
        .unwrap()
        .expect("a's own stored job must match");
    let delta = scanned() - before;

    assert!(delta >= 1, "a match must scan something");
    // Ceiling: the whole multi-stage match may visit each of the
    // tenant's rows a bounded number of times (emptiness probe, stage-1
    // dynamic sweep, columnar index build, cost-factor fallback).
    assert!(
        delta <= 8 * a_rows,
        "tenant a's match scanned {delta} rows — over its 8x-own-rows ceiling ({a_rows} rows)"
    );
    // The leak detector: scanning even one neighbour namespace in full
    // would clear b's row count on its own.
    assert!(
        delta < b_rows,
        "tenant a's match scanned {delta} rows — at least one cross-tenant \
         scan leaked past the t/a/ envelope (b alone holds {b_rows})"
    );
}

/// The read budget of a match (DESIGN.md §17): on a store whose index is
/// built, `match_profile` reads the backend only to fetch the winners'
/// profiles — no scan, at most two point-gets — and a `put_profile` costs
/// the next match one merge of its delta, never a rebuild, however many
/// put→match cycles run.
#[test]
fn a_warm_match_scans_nothing_and_a_put_never_forces_a_rebuild() {
    use mrsim::{ClusterSpec, JobConfig};
    use profiler::SampleSize;
    use pstorm::matcher::{match_profile, MatcherConfig, SubmittedJob};
    use pstorm::ProfileStore;
    use staticanalysis::StaticFeatures;

    let cluster = ClusterSpec::ec2_c1_medium_16();
    let ds = datagen::corpus::random_text_1g();
    let spec = mrjobs::jobs::word_count();
    let config = JobConfig::submitted(&spec);
    let statics = StaticFeatures::extract(&spec);
    let (profile, _) = profiler::collect_full_profile(&spec, &ds, &cluster, &config, 7).unwrap();
    let sample =
        profiler::collect_sample_profile(&spec, &ds, &cluster, &config, SampleSize::OneTask, 3)
            .unwrap();
    let q = SubmittedJob {
        spec: spec.clone(),
        statics: statics.clone(),
        sample: sample.profile,
        input_bytes: ds.logical_bytes,
    };
    let variant = |i: usize| {
        let mut p = profile.clone();
        p.job_id = format!("word-count#v{i:02}");
        p.map.size_selectivity *= 1.0 + i as f64 / 100.0;
        p
    };

    let reg = obs::Registry::new();
    let mut store = ProfileStore::new().unwrap();
    store.set_obs(reg.clone());
    let counter = |name: &str| reg.snapshot().counters.get(name).copied().unwrap_or(0);
    let matched = || {
        match_profile(&store, &q, &MatcherConfig::default())
            .unwrap()
            .expect("word-count matches its own profiles")
    };
    for i in 0..3 {
        store.put_profile(&statics, &variant(i)).unwrap();
    }
    matched(); // first use: the one scan-built index of this store's life
    let rebuilds = counter("store.index_rebuilds");
    assert_eq!(rebuilds, 1);

    let (scans, rows, gets) = (
        counter("cfstore.scans"),
        counter("cfstore.rows_scanned"),
        counter("cfstore.gets"),
    );
    matched();
    assert_eq!(
        counter("cfstore.scans"),
        scans,
        "a warm match scans nothing"
    );
    assert_eq!(counter("cfstore.rows_scanned"), rows);
    let compose_gets = counter("cfstore.gets") - gets;
    assert!(
        (1..=2).contains(&compose_gets),
        "compose fetches the winners' profiles and nothing else: {compose_gets} gets"
    );

    let (deltas, merges) = (counter("store.index_deltas"), counter("store.index_merges"));
    for i in 3..53 {
        store.put_profile(&statics, &variant(i)).unwrap();
        matched();
    }
    assert_eq!(
        counter("store.index_rebuilds"),
        rebuilds,
        "no put forces a rebuild"
    );
    assert_eq!(
        counter("store.index_deltas") - deltas,
        50,
        "one delta a put"
    );
    assert_eq!(
        counter("store.index_merges") - merges,
        50,
        "one merge a put→match"
    );
    assert_eq!(
        counter("cfstore.scans"),
        scans,
        "50 put→match cycles scan nothing"
    );
    assert_eq!(store.len().unwrap(), 53);
}

/// Per-region read amplification (PR 4): the per-region counters must be
/// present in enabled traces and must sum to the store-wide totals.
#[test]
fn per_region_counters_sum_to_store_totals() {
    let c = golden_counters();
    let sum = |suffix: &str| {
        c.iter()
            .filter(|(k, _)| k.starts_with("cfstore.region.") && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum::<u64>()
    };
    let scanned = sum(".rows_scanned");
    let returned = sum(".rows_returned");
    assert!(
        scanned > 0,
        "no per-region scan counters in the golden trace"
    );
    assert_eq!(scanned, get(&c, "cfstore.rows_scanned"));
    assert_eq!(returned, get(&c, "cfstore.rows_returned"));
    assert!(
        returned <= scanned,
        "regions cannot return more rows than they scan"
    );
}
