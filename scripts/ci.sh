#!/usr/bin/env bash
# Local CI: the exact gate a change must pass before merging.
#   ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Wall seconds per gate step, printed as one table at the end: every
# simulator-backed suite runs the UDF interpreter in a debug build, so
# this is where a slow kernel (or a slow new suite) shows first.
step_names=()
step_secs=()
step_started=$SECONDS

# Host CPU steal over the run, printed beside the table (ROADMAP F4): on a
# shared VM the host can take a third of the vCPUs, and then the seconds
# below, and any timing gate, say little. `total steal` from /proc/stat.
cpu_times() { awk '/^cpu / { print $2 + $3 + $4 + $5 + $6 + $7 + $8 + $9, $9 }' /proc/stat 2>/dev/null; }
read -r cpu_total0 cpu_steal0 < <(cpu_times) || true
step() {
  if [ ${#step_names[@]} -gt ${#step_secs[@]} ]; then
    step_secs+=($((SECONDS - step_started)))
  fi
  if [ $# -gt 0 ]; then
    step_names+=("$1")
    step_started=$SECONDS
    echo "==> $1"
  fi
}

step "cargo build --release"
cargo build --release

step "cargo test -q"
cargo test -q

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Documentation gate: first-party crates must build rustdoc warning-free
# (broken intra-doc links, missing code-block languages, ...). Scoped with
# -p so the vendored dependency stand-ins are not held to the same bar.
step "cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p obs -p mrjobs -p datagen -p staticanalysis -p mrsim -p profiler \
  -p whatif -p optimizer -p cfstore -p mlmatch -p pstorm -p pstorm-bench

step "trace snapshot (fixed-seed trace must be bit-identical)"
cargo test -q -p pstorm-tests --test trace_snapshot

# Budget regression gate: hard thresholds over the golden trace's
# counters — CBO what-if accounting and ceiling, the matcher's
# per-stage survivor funnel, per-region read-amplification sums, and
# the block-cache hit-rate / flush-compaction accounting ceilings.
# Regenerating the snapshot does NOT loosen these; see budget_gate.rs.
step "budget gate (search budget + matcher funnel + cache/flush envelopes)"
cargo test -q -p pstorm-tests --test budget_gate

# Block-cache oracle: lazy segment-backed reads through the bounded
# cache must be bit-identical to full materialization at every budget
# (including 0 bytes), and a crash injected into the background flusher
# mid-segment-write must lose nothing.
step "block cache property tests (cached reads vs materialized oracle)"
cargo test -q -p pstorm-tests --test property_block_cache

# Sharded-store gate (PR 7): crash/loss/heal properties — any single
# shard killed at every WAL byte, whole-shard loss rebuilding an
# identical META catalog, on-disk segment corruption healed from a
# replica, matcher output unchanged across shard loss. The heal-counter
# ceilings themselves are part of the budget gate above.
step "shard property tests (crash sweep + loss rebuild + heal)"
cargo test -q -p pstorm-tests --test property_shards

# Bounded shard-chaos sweep: each shard killed once at a sampled WAL
# offset across several workload seeds. (The exhaustive every-byte sweep
# already runs in the suite above; this keeps a second, differently
# seeded pass in the gate without the full enumeration cost.)
step "bounded shard-chaos sweep"
cargo test -q -p pstorm-tests --test property_shards -- --ignored

# Multi-tenant isolation sweep (PR 8): ≥1000 seeds of interleaved
# tenants — hostile, flooding, and cell-corrupting — with every clean
# tenant's outcomes pinned bit-identical to a solo single-tenant daemon
# and every acked profile served back. The flood/durable tests run in
# the plain suite above; the `--ignored` test is the full sweep.
step "multi-tenant isolation sweep"
cargo test -q -p pstorm-tests --test property_tenants -- --ignored

# Elastic-resharding gate (PR 9): crash at every TOPOLOGY journal byte
# and at swept mid-migration WAL bytes for grow/shrink/R-change plans,
# pause-at-every-step fsck/resume checks, override placement, matcher
# stability mid-migration, and fsck exit codes — all in the plain suite
# above; the `--ignored` test is the bounded randomized chaos pass.
step "bounded reshard-chaos sweep"
cargo test -q -p pstorm-tests --test property_reshard -- --ignored

# One framing, one cursor (DESIGN.md §16): checksums over file bytes are
# computed in frame.rs only (encoding.rs defines crc32, kv.rs stamps
# cells), and the field helpers every decoder shares are defined there
# and nowhere else under crates/. Test modules are exempt.
step "source gate (one framing, one decode cursor)"
nontest() { awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { print FILENAME ":" FNR ": " $0 }' "$@"; }
if nontest $(find crates/cfstore/src -name '*.rs' ! -name frame.rs ! -name encoding.rs ! -name kv.rs) | grep -F 'crc32('; then exit 1; fi
if nontest $(find crates -name '*.rs' ! -path crates/cfstore/src/frame.rs) | grep -E 'fn (take_(u[0-9]|str|bytes)|get_u|put_bytes|put_str)'; then exit 1; fi

# One production path per operation (DESIGN.md §19): the twins ROADMAP
# item 4 named do not come back as shipped code. Test modules, where
# `predict_runtime_ms_unplanned` lives on as an oracle, are exempt.
step "source gate (no shipped twins)"
if nontest $(find crates -name '*.rs') | grep -E 'fn simulate_clean|use_columnar_index|fn predict_runtime_ms_unplanned|"legacy"'; then exit 1; fi

# One of each mechanism in the shard layer (DESIGN.md §20): one flusher
# (its condition variable lives in flusher.rs; the only other one is the
# block cache's, which readers of a block being filled wait on), one installer, one
# owned-row-set builder (the sole caller of `export_slot_from_peers`), no
# catalog wrapper kept for its own test — and `store_fsck` takes its
# sharded verdict from `ShardedStore::recovery_plan`: it neither parses
# `shard-NNN` names nor resolves the journal itself.
step "source gate (one of each in the shard layer)"
cfstore_src=$(find crates/cfstore/src -name '*.rs')
count() { nontest $cfstore_src | grep -cE "$1" || true; }
if nontest $(find crates/cfstore/src -name '*.rs' ! -name flusher.rs ! -name blockcache.rs) | grep -F 'Condvar'; then exit 1; fi
if [ "$(count 'Condvar::new')" -gt 2 ]; then echo "more than two Condvar::new in cfstore"; exit 1; fi
if [ "$(count 'fn .*flusher_loop|fn run_flusher')" -gt 1 ]; then echo "more than one flusher loop"; exit 1; fi
if nontest $cfstore_src | grep -E 'fn heal_table|fn merge_table_rows|fn read_shards_file'; then exit 1; fi
if [ "$(nontest $cfstore_src | grep -F 'export_slot_from_peers(' | grep -vcF 'fn export_slot_from_peers(')" -gt 1 ]; then
  echo "export_slot_from_peers has more than one call site"; exit 1
fi
if grep -nE 'strip_prefix\("shard-"\)|resolve_against_catalog' crates/bench/src/fsck.rs; then exit 1; fi
shard_layer_files="crates/cfstore/src/store.rs crates/cfstore/src/shard.rs crates/cfstore/src/shard/resharding.rs crates/cfstore/src/flusher.rs crates/bench/src/fsck.rs"
shard_layer_lines=$(nontest $shard_layer_files | wc -l)

# cfstore's threads and panic sites (DESIGN.md §26): a scan's regions run
# on `std::thread::scope` threads, not through a vendored stand-in; the
# flusher has no panic site, and each one left in store.rs (one) and
# shard.rs (two) names the invariant that guarantees it.
step "source gate (cfstore: std threads, audited panic sites)"
if nontest $cfstore_src | grep -F 'crossbeam::'; then exit 1; fi
panics() { nontest "crates/cfstore/src/$1" | grep -cE 'expect\(|unwrap\(\)|panic!|unreachable!' || true; }
if [ "$(panics flusher.rs)" -gt 0 ] || [ "$(panics store.rs)" -gt 1 ] || [ "$(panics shard.rs)" -gt 2 ]; then
  echo "cfstore panic sites: flusher.rs $(panics flusher.rs) (max 0), store.rs $(panics store.rs) (max 1), shard.rs $(panics shard.rs) (max 2)"
  exit 1
fi

# Store reads run in parallel (DESIGN.md §28): a scan fans its regions out
# to the cores, not one thread per region — cfstore has exactly one
# `thread::scope` and one `available_parallelism`, both in store.rs; a
# block fill reads, checks and decodes with no cache lock held
# (`read_block(` sits in a blockcache.rs function that takes no lock); and
# only a segment block is decoded into slices of its buffer
# (`slice_ref(` is used in frame.rs and segment.rs and nowhere else).
step "source gate (store reads: scans on the cores, fills off the cache lock)"
for site in 'thread::scope' 'available_parallelism'; do
  if [ "$(nontest $cfstore_src | grep -cF "$site" || true)" -ne 1 ] ||
    [ "$(nontest crates/cfstore/src/store.rs | grep -cF "$site" || true)" -ne 1 ]; then
    echo "cfstore must have exactly one $site, in store.rs"; exit 1
  fi
done
if nontest crates/cfstore/src/blockcache.rs | awk '
  /fn [a-z_]+/ { f = $0 }
  /read_block\(/ { reads[f] = 1 }
  /\.lock\(\)/ { locks[f] = 1 }
  END { for (f in reads) if (f in locks) { print "read_block under the cache lock in: " f; found = 1 } exit !found }'; then
  exit 1
fi
if [ "$(nontest crates/cfstore/src/frame.rs crates/cfstore/src/segment.rs | grep -cF 'slice_ref(' || true)" -lt 1 ] ||
  nontest $(find crates -name '*.rs' ! -path crates/cfstore/src/frame.rs ! -path crates/cfstore/src/segment.rs) | grep -F 'slice_ref('; then
  echo "slice_ref( belongs to frame.rs and segment.rs alone"; exit 1
fi

# Replay is apply (DESIGN.md §24): a WAL record is applied to the live
# `Table`/`Region` objects by one piece of code, whether a write just
# logged it, a sharded batch did, or a reopen found it. No shadow region
# model to replay into, no second mutation enum to lower from, no
# resolver beside `resolve_against_catalog`, no plan type beside
# `Topology` — and outside wal.rs exactly one match arm takes a
# `RegionSplit` apart.
step "source gate (replay is apply)"
if nontest $cfstore_src | grep -E 'struct Recovered(Region|Table)|fn apply_record|fn from_parts|enum ShardOp|fn apply_sharded_records|\benum Resolution\b|\bstruct Reshard\b'; then exit 1; fi
if [ "$(nontest $(find crates/cfstore/src -name '*.rs' ! -name wal.rs) | grep -cE ': +WalRecord::RegionSplit \{' || true)" -gt 1 ]; then
  echo "more than one RegionSplit destructuring outside wal.rs"; exit 1
fi

# One routing step (DESIGN.md §29): every single-row operation finds its
# region through `owner_index`, a binary search over the table's sorted
# region list, so that is the one non-test function of store.rs that
# asks a region `contains_key(` (`tables.contains_key(` is the catalog
# map's). The walk of the list from the front lives on as a test oracle.
step "source gate (one routing step, by binary search)"
routes=$(nontest crates/cfstore/src/store.rs |
  awk '/fn [a-z_]+/ { f = $0 } /contains_key\(/ && !/tables\.contains_key\(/ { print f }')
if [ "$(printf '%s\n' "$routes" | grep -c 'fn owner_index(' || true)" -ne 1 ] ||
  [ "$(printf '%s\n' "$routes" | grep -c . || true)" -ne 1 ]; then
  echo "store.rs must ask a region contains_key( once, in fn owner_index; it does in:"
  printf '%s\n' "$routes"
  exit 1
fi
store_core_files="crates/cfstore/src/store.rs crates/cfstore/src/recovery.rs crates/cfstore/src/region.rs"
store_core_lines=$(nontest $store_core_files | wc -l)

# One prediction path, no fan-out (DESIGN.md §21): the optimizer spawns
# no thread — a round of closed-form predictions costs less than one
# spawn, and a service worker's search must stay on its own core — and
# the runtime-only entry of the engine keeps no per-task slot replay
# beside the closed form (non-uniform inputs go to the one scheduler).
step "source gate (closed-form what-if, CBO on the caller's thread)"
if nontest $(find crates/optimizer/src -name '*.rs') | grep -E 'thread::|crossbeam::'; then exit 1; fi
if nontest crates/mrsim/src/engine.rs | grep -E 'fn earliest_slot|share_costs'; then exit 1; fi

# One grouping, on bytes (DESIGN.md §22): `analyze` sorts, groups and
# counts distinct keys on the key arena; `Value::cmp` is reached from the
# simulator only to break the tie of a key the arena could not render
# (one call site, in sortkey.rs), and no `Value`-comparing sort comes
# back beside it.
step "source gate (one grouping, on the key arena)"
mrsim_src=$(find crates/mrsim/src -name '*.rs')
if [ "$(nontest $mrsim_src | grep -cF '.cmp(&keys[' || true)" -gt 1 ]; then
  echo "more than one Value comparison of keys in mrsim"; exit 1
fi
if nontest $mrsim_src | grep -F 'fn sort_by_key'; then exit 1; fi

# One lent helper, no pool (DESIGN.md §27): `analyze` maps the second half
# of its chunks on one scoped thread while fewer calls and helpers than
# cores are busy. The simulator has exactly one `thread::scope` and one
# `available_parallelism`, both in dataflow.rs, and the layers that call
# `analyze` spawn nothing for it.
step "source gate (analyze lends one helper, gated on load)"
for site in 'thread::scope' 'available_parallelism'; do
  if [ "$(nontest $mrsim_src | grep -cF "$site" || true)" -ne 1 ] ||
    [ "$(nontest crates/mrsim/src/dataflow.rs | grep -cF "$site" || true)" -ne 1 ]; then
    echo "mrsim must have exactly one $site, in dataflow.rs"; exit 1
  fi
done
if nontest crates/core/src/daemon.rs crates/core/src/service.rs $(find crates/profiler/src -name '*.rs') |
  grep -E 'thread::scope|available_parallelism'; then exit 1; fi

# The lent helper works through the whole call (DESIGN.md §30): dataflow.rs
# runs `beside(` at two sites, the map half and the upper half of the key
# groups, and the reducer reads the map output in place, by clone, so that
# both halves read it at once — no value is moved out of it.
step "source gate (the lent helper maps and reduces, values read in place)"
besides=$(nontest crates/mrsim/src/dataflow.rs | grep -F 'beside(' | grep -vcF 'fn beside(' || true)
if [ "$besides" -ne 2 ]; then
  echo "dataflow.rs must call beside( at exactly two sites (the map half, the reduce half), not $besides"; exit 1
fi
if nontest crates/mrsim/src/dataflow.rs | grep -F 'mem::replace(&mut values'; then exit 1; fi

# Pieces of a text are views until stored (DESIGN.md §25): `split` and
# `tokenize` build no text per piece and no list — the two
# `.map(Value::text).collect()` of the walker before are not back — and a
# list of texts is built from a split in one place.
step "source gate (pieces are views)"
if nontest crates/mrjobs/src/interp.rs | grep -F '.map(Value::text).collect()'; then exit 1; fi
if [ "$(nontest crates/mrjobs/src/interp.rs | grep -cE 'fn to_list\b' || true)" -ne 1 ]; then
  echo "interp.rs must define exactly one fn to_list"; exit 1
fi

# The serving path owns its state (DESIGN.md §23): the service keeps
# everything it schedules on behind one mutex, reached through one helper
# (a worker takes it twice per ticket: claim and completion), with no
# per-tenant lock, no semaphore and no panic site beyond its two queue
# invariants (the third match is the doc example's); a submission has one
# degraded exit that walks the ladder and one that does not; and the CBO
# is a search, not a cache.
step "source gate (one service lock, one degraded exit, no prediction memo)"
service_count() { nontest crates/core/src/service.rs | grep -cE "$1" || true; }
if [ "$(service_count 'Mutex<')" -ne 1 ]; then echo "service.rs must declare exactly one Mutex"; exit 1; fi
if [ "$(service_count '\.lock\(\)')" -gt 2 ]; then echo "more than two .lock() sites in service.rs"; exit 1; fi
if [ "$(service_count '\.unwrap\(\)|\.expect\(|unreachable!|panic!')" -gt 3 ]; then
  echo "more than three unwrap/expect/unreachable!/panic! in service.rs"; exit 1
fi
if nontest crates/core/src/service.rs | grep -E 'struct (TenantState|Semaphore)'; then exit 1; fi
if [ "$(nontest $(find crates/core/src -name '*.rs') | grep -cE 'SubmissionOutcome::Degraded \{$' || true)" -gt 2 ]; then
  echo "more than two Degraded report constructions in crates/core/src"; exit 1
fi
if nontest $(find crates/optimizer/src -name '*.rs') | grep -E 'HashMap|config_key|memo_hits|[Mm]emoiz'; then exit 1; fi
serving_path_files="crates/core/src/service.rs crates/core/src/daemon.rs crates/optimizer/src/cbo.rs crates/whatif/src/lib.rs"
serving_path_lines=$(nontest $serving_path_files | wc -l)

# One timing tool (DESIGN.md §26): every wall-clock row is a `perf_report`
# row, built by its one `Entry` constructor.
step "source gate (one timing tool, one perf_report row constructor)"
if [ -e crates/bench/benches ]; then echo "crates/bench/benches is back"; exit 1; fi
if [ "$(nontest crates/bench/src/bin/perf_report.rs | grep -cE '(\(|: +)Entry \{$' || true)" -ne 1 ]; then
  echo "perf_report.rs must construct Entry in exactly one place"; exit 1
fi

# The reproduction is a golden: every experiment binary prints, byte for
# byte, the capture EXPERIMENTS.md quotes from (`fig6_2` at the GBRT scale
# it was captured at). A change that moves a figure regenerates the
# capture in a commit of its own and says so.
step "reproduction is a golden (13 experiment binaries vs results/)"
for capture in results/*.txt; do
  bin=$(basename "$capture" .txt)
  if ! PSTORM_GBRT_SCALE=0.1 "target/release/$bin" 2>/dev/null | cmp -s - "$capture"; then
    echo "$bin no longer prints $capture"; exit 1
  fi
done

# The benchmark harness at 1/20 scale: every workload, untraced and
# traced, every output check on (benchmark/README.md). Catches a change
# that breaks what BENCHMARK.json runs before the driver does.
step "benchmark smoke"
./benchmark/smoke.sh

# Documentation gate 2: every `DESIGN.md §N` reference in the repo must
# resolve to a real section, and relative doc links must not dangle.
step "doc link check"
./scripts/check_docs.sh

step
echo
echo "wall seconds per step"
for i in "${!step_names[@]}"; do
  printf '%6d  %s\n' "${step_secs[$i]}" "${step_names[$i]}"
done
printf '%6d  total\n' "$SECONDS"
read -r cpu_total1 cpu_steal1 < <(cpu_times) || true
if [ -n "${cpu_total0:-}" ] && [ -n "${cpu_total1:-}" ] && [ "$cpu_total1" -gt "$cpu_total0" ]; then
  awk -v s=$((cpu_steal1 - cpu_steal0)) -v t=$((cpu_total1 - cpu_total0)) \
    'BEGIN { printf "%6.1f  %% of CPU time stolen by the host (steal in /proc/stat)\n", 100 * s / t }'
else
  echo "   n/a  % of CPU time stolen by the host (no /proc/stat)"
fi
# Whether a second core is there in fact (DESIGN.md §29): a low steal share
# does not say so. Hash 256 MiB of zeros once, then twice at once, three
# times each in turn, keeping each one's fastest; the speed-up is two
# hashes' throughput over one's — ≈ 2.0 on two free cores, ≈ 1.0 where the
# two threads share one, and then no parallel gain (a lent `analyze`
# helper, a scan on two threads) can show.
hash_secs() {
  local t0 pids=()
  t0=$(date +%s.%N)
  for _ in $(seq "$1"); do
    head -c 256M /dev/zero | sha256sum >/dev/null &
    pids+=($!)
  done
  wait "${pids[@]}"
  awk -v t0="$t0" -v t1="$(date +%s.%N)" 'BEGIN { print t1 - t0 }'
}
one=; two=
for _ in 1 2 3; do
  one="$one $(hash_secs 1)"
  two="$two $(hash_secs 2)"
done
least() { printf '%s\n' $1 | sort -g | head -1; }
one=$(least "$one")
two=$(least "$two")
awk -v one="$one" -v two="$two" \
  'BEGIN { printf "%6.2f  two-thread speed-up of sha256sum over 256 MiB (%.2f s alone, %.2f s two at once)\n", 2 * one / two, one, two }'
# Not seconds: the size ROADMAP item 4 tracks (4369 before PR 16).
printf '%6d  non-test lines in store.rs + shard.rs + shard/resharding.rs + flusher.rs + bench/src/fsck.rs\n' "$shard_layer_lines"
# 1997 before the serving path owned its state (DESIGN.md §23).
printf '%6d  non-test lines in service.rs + daemon.rs + optimizer/src/cbo.rs + whatif/src/lib.rs\n' "$serving_path_lines"
# 2357 before replay was apply (DESIGN.md §24).
printf '%6d  non-test lines in store.rs + recovery.rs + region.rs\n' "$store_core_lines"
echo "CI OK"
