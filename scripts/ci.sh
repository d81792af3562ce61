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
# (including 0 bytes), and a crash injected into a flush mid-segment-write
# must lose nothing.
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

# One log (DESIGN.md §48): the WAL and the TOPOLOGY journal are walked by
# `frame::scan_log`, which stops with its one `Truncation` and returns its
# `LogScan`; both logs append through `frame::CrashWriter`. No per-log
# scan, stop or writer type comes back beside them, and the walk has two
# callers, `read_wal` and `read_journal`.
step "source gate (one log: one scan, one truncation, one writer)"
if nontest $(find crates -name '*.rs') | grep -E '\b(WalTruncation|WalScan|JournalScan|JournalWriter|ScanStop)\b'; then
  echo "non-test crates/ must not name WalTruncation, WalScan, JournalScan, JournalWriter or ScanStop"; exit 1
fi
log_scanners=$(nontest $(find crates -name '*.rs') |
  awk '/ fn [a-z_]+/ { f = $0; sub(/.* fn /, "", f); sub(/[<(].*/, "", f) } /scan_log\(/ && !/fn scan_log\(/ { print f }' |
  sort | tr '\n' ' ')
if [ "$log_scanners" != "read_journal read_wal " ]; then
  echo "scan_log( must have two non-test callers, read_wal and read_journal; it has: $log_scanners"; exit 1
fi

# One production path per operation (DESIGN.md §19): the twins ROADMAP
# item 4 named do not come back as shipped code. Test modules, where
# `predict_runtime_ms_unplanned` lives on as an oracle, are exempt.
step "source gate (no shipped twins)"
if nontest $(find crates -name '*.rs') | grep -E 'fn simulate_clean|use_columnar_index|fn predict_runtime_ms_unplanned|"legacy"'; then exit 1; fi

# One of each mechanism in the shard layer (DESIGN.md §20): no condition
# variable anywhere in cfstore (no reader waits for another's block fill,
# DESIGN.md §47), one installer, one
# owned-row-set builder (the sole caller of `export_slot_from_peers`), no
# catalog wrapper kept for its own test — and `store_fsck` takes its
# sharded verdict from `ShardedStore::recovery_plan`: it neither parses
# `shard-NNN` names nor resolves the journal itself.
step "source gate (one of each in the shard layer)"
cfstore_src=$(find crates/cfstore/src -name '*.rs')
if nontest $cfstore_src | grep -F 'Condvar'; then echo "non-test cfstore must not name Condvar"; exit 1; fi
if nontest $cfstore_src | grep -E 'fn heal_table|fn merge_table_rows|fn read_shards_file'; then exit 1; fi
if [ "$(nontest $cfstore_src | grep -F 'export_slot_from_peers(' | grep -vcF 'fn export_slot_from_peers(')" -gt 1 ]; then
  echo "export_slot_from_peers has more than one call site"; exit 1
fi
# One cover rule (DESIGN.md §49): a walk's shards are chosen by
# `read_cover`, defined once, in shard.rs, and called by `read_slots` alone.
cover_callers=$(nontest $cfstore_src | awk '/fn [a-z_]+/ { match($0, /fn [a-z_]+/); f = substr($0, RSTART + 3, RLENGTH - 3) }
  /read_cover\(/ && !/fn read_cover\(/ { print f }')
if [ "$(nontest crates/cfstore/src/shard.rs | grep -cF 'fn read_cover(')" -ne 1 ] \
  || [ "$(nontest $cfstore_src | grep -cF 'fn read_cover(')" -ne 1 ] || [ "$cover_callers" != read_slots ]; then
  echo "read_cover must be defined once, in shard.rs, and called by read_slots alone (callers: $cover_callers)"; exit 1
fi
if grep -nE 'strip_prefix\("shard-"\)|resolve_against_catalog' crates/bench/src/fsck.rs; then exit 1; fi
# One placement type, one opener (DESIGN.md §50): where a row lives is
# `Topology`'s to say. No free slot or replica-set function, no second
# snapshot of the placement, no per-row placement accessor on the store,
# and no hot-slot planner reading per-region counters whose region ids
# every shard reuses; and `ShardedStore` opens one way, `open(dir, opts,
# reg)`.
if nontest $(find crates -name '*.rs') |
  grep -E '\brebalance_hot_slots\b|\bShardedMeta\b|fn slot_of\(|fn replica_set\(|fn primary_shard\b|fn replica_shards\b'; then
  echo "non-test crates/ must not name rebalance_hot_slots, ShardedMeta, fn slot_of(, fn replica_set(, fn primary_shard or fn replica_shards"
  exit 1
fi
if nontest crates/cfstore/src/shard.rs | grep -E 'fn (open_with_opts|open_traced)\b'; then
  echo "shard.rs must define one opener, fn open"; exit 1
fi
shard_layer_files="crates/cfstore/src/store.rs crates/cfstore/src/shard.rs crates/cfstore/src/shard/resharding.rs crates/bench/src/fsck.rs"
shard_layer_lines=$(nontest $shard_layer_files | wc -l)

# cfstore's threads and panic sites (DESIGN.md §26, §36): a scan's regions
# run on `std::thread::scope` threads, not through a vendored stand-in;
# shard.rs has no panic site, and the one left in store.rs names the
# invariant that guarantees it.
step "source gate (cfstore: std threads, audited panic sites)"
if nontest $cfstore_src | grep -F 'crossbeam::'; then exit 1; fi
panics() { nontest "crates/cfstore/src/$1" | grep -cE 'expect\(|unwrap\(\)|panic!|unreachable!' || true; }
if [ "$(panics store.rs)" -gt 1 ] || [ "$(panics shard.rs)" -gt 0 ]; then
  echo "cfstore panic sites: store.rs $(panics store.rs) (max 1), shard.rs $(panics shard.rs) (max 0)"
  exit 1
fi

# The caller flushes (DESIGN.md §43): cfstore starts no thread of its own
# (its only threads are a scan's `thread::scope` ones, above), so no
# store is split into a handle and an `Arc`'d half to share with one.
step "source gate (the caller flushes: no cfstore thread, no shared store half)"
if nontest $cfstore_src | grep -E 'thread::spawn|thread::Builder|\bStoreInner\b|\bShardedInner\b'; then
  echo "non-test cfstore must not name thread::spawn, thread::Builder, StoreInner or ShardedInner"; exit 1
fi

# Store reads run in parallel (DESIGN.md §28): a scan fans its regions out
# to the cores the budget lends it, not one thread per region — cfstore has
# exactly one `thread::scope`, in store.rs (the budget is the one-process
# gate below); a block fill reads, checks and decodes with no cache lock
# held (`read_block(` sits in a blockcache.rs function that takes no lock).
step "source gate (store reads: scans on lent cores, fills off the cache lock)"
if [ "$(nontest $cfstore_src | grep -cF 'thread::scope' || true)" -ne 1 ] ||
  [ "$(nontest crates/cfstore/src/store.rs | grep -cF 'thread::scope' || true)" -ne 1 ]; then
  echo "cfstore must have exactly one thread::scope, in store.rs"; exit 1
fi
if nontest crates/cfstore/src/blockcache.rs | awk '
  /fn [a-z_]+/ { f = $0 }
  /read_block\(/ { reads[f] = 1 }
  /\.lock\(\)/ { locks[f] = 1 }
  END { for (f in reads) if (f in locks) { print "read_block under the cache lock in: " f; found = 1 } exit !found }'; then
  exit 1
fi

# A region has one lock (DESIGN.md §47): its start never moves, and its
# end, memstore, base and clean file sit behind one `RwLock`.
step "source gate (one lock a region)"
if [ "$(nontest crates/cfstore/src/region.rs | grep -cE '(RwLock|Mutex)<' || true)" -ne 1 ]; then
  echo "region.rs must declare exactly one lock"; exit 1
fi

# Walks read around the block cache (DESIGN.md §42): only a point read
# admits a block, so cfstore calls `get_or_load(` at one site, the
# `Keys::One` arm of `Region::walk`; scans, flushes, deletes and the
# scrub read through `peek_or_read(`, and a split check reads no block.
step "source gate (walks read around the block cache)"
loads=$(nontest $cfstore_src | grep -F 'get_or_load(' | grep -vF 'fn get_or_load(' || true)
walk_body=$(nontest crates/cfstore/src/region.rs |
  awk '/: +fn walk\(/ && !done { on = 1 } on { print } on && /:     }$/ { on = 0; done = 1 }')
if [ "$(printf '%s\n' "$loads" | grep -c . || true)" -ne 1 ] ||
  ! printf '%s\n' "$loads" | grep -qE '^crates/cfstore/src/region\.rs:[0-9]+: +Keys::One\(_\) => ' ||
  ! printf '%s\n' "$walk_body" | grep -qF "$loads"; then
  echo "cfstore must call get_or_load( at one site, the Keys::One arm of Region::walk; it calls it at:"
  printf '%s\n' "$loads"; exit 1
fi

# Blocks decode flat (DESIGN.md §32): a segment block decodes into one
# table of cell versions whose fields are offsets into the block's one
# buffer, so `decode_block` builds no `BTreeMap` and no `RowData`, and the
# cache holds no `BlockRows` alias of nested rows; and a field of a block
# becomes `Bytes` in one place, `Block::cut` in segment.rs, the one
# `slice_ref(` call under crates/.
step "source gate (blocks decode flat, their fields cut in one place)"
# The awk reads to the end: one that exits early can leave the writer a
# SIGPIPE, which pipefail turns into this step's failure.
decode_body=$(nontest crates/cfstore/src/segment.rs |
  awk '/: fn decode_block\(/ && !done { on = 1 } on { print } on && /: }$/ { on = 0; done = 1 }')
if [ -z "$decode_body" ] || printf '%s\n' "$decode_body" | grep -E 'BTreeMap|RowData'; then
  echo "segment.rs must have a fn decode_block that builds no BTreeMap or RowData"; exit 1
fi
if grep -rn 'BlockRows' crates; then echo "the BlockRows alias is back"; exit 1; fi
cuts=$(nontest $(find crates -name '*.rs') | awk '/fn [a-z_]+/ { f = $0 } /slice_ref\(/ { print f }')
if [ "$(printf '%s\n' "$cuts" | grep -c . || true)" -ne 1 ] ||
  ! printf '%s\n' "$cuts" | grep -q '^crates/cfstore/src/segment.rs:.*fn cut('; then
  echo "slice_ref( must be called once under crates/, in segment.rs's fn cut; it is in:"
  printf '%s\n' "$cuts"
  exit 1
fi

# One row layout (DESIGN.md §38): a stored row is a sorted `Vec` of
# families, each a sorted `Vec` of `(column, versions)`, every `Vec` sized
# exactly — in the memstore, a promoted region, a flush, a heal export and
# `kv::first_bad_version` alike. No map of columns comes back into
# non-test cfstore (the segment tests' nested oracle builds one).
step "source gate (one row layout)"
if [ "$(nontest $cfstore_src | grep -cF 'BTreeMap<Bytes, Vec<CellVersion>>' || true)" -ne 0 ]; then
  echo "non-test cfstore must not name BTreeMap<Bytes, Vec<CellVersion>>: a row is flat (DESIGN.md §38)"; exit 1
fi

# The index is built from the stored cells (DESIGN.md §33): a reopen parses
# the `Dynamic/`, `Static/` and `CostFactor/` rows where the backend walks
# them, so the non-test `build_columnar_index` neither scans nor names a
# `RowResult`; and a region's rows are read by one walk, whose rows a get
# hands out through region.rs's one call of `materialize` (a scan keeps
# them through store.rs's `keep`). The profile
# store's panic sites are counted as cfstore's are: `inner()` on a sharded
# backend (its documented contract), `Default`'s new in-memory store (a
# named invariant) and the `put_profile` doc example's `unwrap()`.
step "source gate (the index is built from the stored cells, rows read by one walk)"
# (awk reads to the end: store.rs outgrows a pipe buffer, and an early exit
# would fail the pipeline with SIGPIPE.)
build_body=$(nontest crates/core/src/store.rs |
  awk '/: +pub fn build_columnar_index\(/ && !done { on = 1 } on { print } on && /:     }$/ { on = 0; done = 1 }')
if [ -z "$build_body" ] || printf '%s\n' "$build_body" | grep -E '\.scan\(|RowResult'; then
  echo "core/store.rs must have a fn build_columnar_index that calls no .scan( and names no RowResult"; exit 1
fi
if [ "$(nontest crates/cfstore/src/region.rs | grep -F 'materialize(' | grep -vcF 'fn materialize(' || true)" -ne 1 ]; then
  echo "region.rs must call materialize( at exactly one site"; exit 1
fi
core_panics=$(nontest crates/core/src/store.rs | grep -cE 'expect\(|unwrap\(\)|panic!|unreachable!' || true)
if [ "$core_panics" -gt 3 ]; then
  echo "core/store.rs panic sites: $core_panics (max 3)"; exit 1
fi

# One index layout (DESIGN.md §41): each dynamic feature is held once, as
# one column per dimension, with no lane-blocked copy beside it and no
# scalar twin of the sweep; and the index, its builder, its row parsers
# and the fold of pending writes live in core/index.rs, not in the store.
step "source gate (one index layout)"
if nontest $(find crates -name '*.rs') | grep -E 'LaneMatrix|from_row_major|sweep_map_dyn_scalar'; then
  echo "crates/ must not name LaneMatrix, from_row_major or sweep_map_dyn_scalar"; exit 1
fi
if nontest crates/core/src/store.rs | grep -E 'IndexBuilder|overlay_cells|CellSets'; then
  echo "core/store.rs must not name IndexBuilder, overlay_cells or CellSets"; exit 1
fi
index_lines=$(nontest crates/core/src/store.rs crates/core/src/index.rs | wc -l)

# A sharded index build walks each shard's rows in place (DESIGN.md §34):
# `Backend::visit` forwards to the store's own walk on either backend and
# scans nothing.
step "source gate (a sharded visit walks the shards in place)"
visit_body=$(nontest crates/core/src/store.rs |
  awk '/: +fn visit</ && !done { on = 1 } on { print } on && /:     }$/ { on = 0; done = 1 }')
if [ -z "$visit_body" ] || printf '%s\n' "$visit_body" | grep -F '.scan('; then
  echo "core/store.rs must have a Backend::visit that calls no .scan("; exit 1
fi

# A scan is a visit that keeps its rows (DESIGN.md §35): each layer has one
# range read, and its filter runs on the walked row. A region reads a range
# only through `visit` (no `scan`, `read` or `visit_row` beside it); the
# profile store reads through `Backend::visit` and calls no `.scan(` outside
# its tests; the sharded store's `scan` folds over its `visit`, so a shard's
# own `.scan(` is called only by the `shard_scan` test hook; and which
# replica serves which slot, failover included, is resolved by one function
# with one caller, the sharded `visit`.
step "source gate (one range read per layer, slots resolved once)"
if nontest crates/cfstore/src/region.rs | grep -E 'fn (scan|read)\(|fn visit_row\b'; then
  echo "region.rs must read a range only through fn visit"; exit 1
fi
if nontest crates/core/src/store.rs | grep -F '.scan('; then
  echo "core/store.rs must read rows through Backend::visit, not .scan("; exit 1
fi
scanners=$(nontest crates/cfstore/src/shard.rs |
  awk '/ fn [a-z_]+/ { f = $0; sub(/.* fn /, "", f); sub(/[<(].*/, "", f) } /\.scan\(/ { print f }' | tr '\n' ' ')
if [ "$scanners" != "shard_scan " ]; then
  echo "shard.rs must call a shard's .scan( only in shard_scan; it does in: $scanners"; exit 1
fi
resolvers=$(nontest crates/cfstore/src/shard.rs | grep -c 'fn read_slots<' || true)
callers=$(nontest crates/cfstore/src/shard.rs |
  awk '/ fn [a-z_]+/ { f = $0; sub(/.* fn /, "", f); sub(/[<(].*/, "", f) } /read_slots\(/ { print f }' | tr '\n' ' ')
if [ "$resolvers" -ne 1 ] || [ "$callers" != "visit " ]; then
  echo "shard.rs must have one fn read_slots, called once, by visit; callers: $callers"; exit 1
fi

# Reads never write (DESIGN.md §36): a sharded read takes the state lock
# shared and fails over, marking a shard suspect; it never repairs. A
# shard's copy of a table is repaired by one function, called by
# `repair_suspects` (flush, a flush that met rot, `delete_row` and `scrub`)
# and by nothing else: a put reads no segment, so it has nothing to repair
# (DESIGN.md §44); the heal-and-retry wrapper that every read went through
# is gone.
step "source gate (reads never write: one repair, one caller)"
if nontest crates/cfstore/src/shard.rs | grep -E '\bwith_heal\b|\bUnhealed\b'; then
  echo "shard.rs must not bring back with_heal or Unhealed"; exit 1
fi
repairers=$(nontest crates/cfstore/src/shard.rs |
  awk '/ fn [a-z_]+/ { f = $0; sub(/.* fn /, "", f); sub(/[<(].*/, "", f) }
    /[^a-z_]repair\(/ && !/fn repair\(/ && !/: +\/\// { print f }' | sort -u | tr '\n' ' ')
if [ "$repairers" != "repair_suspects " ]; then
  echo "shard.rs must call repair( only from repair_suspects; it does from: $repairers"; exit 1
fi
read_sigs=$(nontest crates/cfstore/src/shard.rs |
  awk '/ fn (get_inner|read_slots)[<(]/ { on = 1; n++ } on { print } on && /\{$/ { on = 0 } END { print "fns " n }')
if [ "${read_sigs##*$'\n'}" != "fns 2" ] || printf '%s\n' "$read_sigs" | grep -F '&mut GlobalState'; then
  echo "shard.rs must have a fn get_inner and a fn read_slots, neither taking &mut GlobalState"; exit 1
fi
# (grep -c, not -q: an early exit would fail the pipeline with SIGPIPE.)
if [ "$(nontest crates/cfstore/src/shard.rs | grep -cF 'state: RwLock<GlobalState>' || true)" -ne 1 ]; then
  echo "shard.rs must keep its state behind an RwLock (state: RwLock<GlobalState>)"; exit 1
fi

# A region is a memstore over its segment (DESIGN.md §44): one state, an
# optional segment base under a memstore of the rows written since. No
# write promotes a region into memory, so no path to promote one, no put
# pre-pass that promoted ahead of the log, and no lazy state to ask about
# come back into non-test cfstore.
step "source gate (a region is a memstore over its segment)"
if nontest $cfstore_src | grep -E 'ensure_materialized|prepare_for_write|prepare_rows|is_lazy'; then
  echo "non-test cfstore must not name ensure_materialized, prepare_for_write, prepare_rows or is_lazy"; exit 1
fi
cfstore_lines=$(nontest $cfstore_src | wc -l)

# A split reads no block (DESIGN.md §46): its cut comes from the base's
# block index and its memstore, so no keys-only read of a segment comes
# back into non-test cfstore.
step "source gate (a split reads no block)"
if nontest $cfstore_src | grep -E 'peek_keys\(|read_keys\(|keys_in\('; then echo "a split check reads keys again"; exit 1; fi

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

# A put is framed once (DESIGN.md §40): a batch's puts reach the log and
# the applier as row runs borrowed from the caller, so neither store's
# `put_batch` builds a `WalRecord`, the shard layer copies no cell into a
# `WalRecord::Put` of its own, and one function of non-test cfstore writes a
# put's record (`TAG_PUT`), whoever holds the cell.
step "source gate (a put is framed once)"
if [ "$(nontest crates/cfstore/src/shard.rs | grep -c 'WalRecord::Put' || true)" -ne 0 ]; then
  echo "non-test shard.rs must construct no WalRecord::Put"; exit 1
fi
if [ "$(nontest $cfstore_src | grep -c 'put_u8(TAG_PUT)' || true)" -ne 1 ]; then
  echo "non-test cfstore must write a put's log record (put_u8(TAG_PUT)) at exactly one site"; exit 1
fi
for f in crates/cfstore/src/store.rs crates/cfstore/src/shard.rs; do
  put_body=$(nontest "$f" | awk '/: +pub fn put_batch\(/ && !done { on = 1 } on { print } on && /:     }$/ { on = 0; done = 1 }')
  if [ -z "$put_body" ] || printf '%s\n' "$put_body" | grep -F 'WalRecord'; then
    echo "$f must have a pub fn put_batch that builds no WalRecord"; exit 1
  fi
done

# One durability rule (DESIGN.md §37): an acknowledged write is in the
# log. Every WAL append writes its frame before it returns; no mode buffers
# one past its call, so nothing names one, test modules included.
# `StoreOptions::sync` stays while the benchmark records it: a one-variant
# `SyncPolicy` that no file but wal.rs and store.rs names. The check of
# every retained cell version has one home, `kv::first_bad_version`, which
# `store_fsck`'s deep pass and a heal donor's export share.
step "source gate (one durability rule)"
all_src=$(find crates tests examples -name '*.rs')
if [ "$(cat $all_src | grep -cE 'GroupCommit|pending_frames|fn open_with\(' || true)" -ne 0 ]; then
  echo "crates/, tests/ and examples/ must not name GroupCommit, pending_frames or fn open_with("; exit 1
fi
if [ "$(grep -lF 'SyncPolicy' $all_src | grep -vcE '^crates/cfstore/src/(wal|store)\.rs$' || true)" -ne 0 ] ||
  [ "$(awk '/^pub enum SyncPolicy \{/ { on = 1; next } on && /^\}/ { exit } on && /^    [A-Z]/ { n++ } END { print n + 0 }' crates/cfstore/src/wal.rs)" -ne 1 ]; then
  echo "SyncPolicy must have one variant and be named only in cfstore's wal.rs and store.rs"; exit 1
fi
if [ "$(nontest $(find crates -name '*.rs') | grep -cF '.verify()' || true)" -ne 1 ]; then
  echo "crates/ must call .verify() at exactly one non-test site"; exit 1
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
# of its chunks on one scoped thread when the core budget lends it a core.
# The simulator has exactly one `thread::scope`, in dataflow.rs, and the
# layers that call `analyze` spawn nothing for it.
step "source gate (analyze lends one helper, from the core budget)"
if [ "$(nontest $mrsim_src | grep -cF 'thread::scope' || true)" -ne 1 ] ||
  [ "$(nontest crates/mrsim/src/dataflow.rs | grep -cF 'thread::scope' || true)" -ne 1 ]; then
  echo "mrsim must have exactly one thread::scope, in dataflow.rs"; exit 1
fi
if nontest crates/core/src/daemon.rs crates/core/src/service.rs $(find crates/profiler/src -name '*.rs') |
  grep -F 'thread::scope'; then exit 1; fi

# One core budget per process (DESIGN.md §31): the workspace reads the core
# count once, in obs/src/cores.rs, and the two calls that fan out, an
# `analyze` and a store scan, each take their caller's and their helpers'
# cores from it at one `try_lend(` site. No count of cores or of busy calls
# comes back beside it.
step "source gate (one core budget per process)"
workspace_src=$(find crates examples tests/src vendor -name '*.rs')
if [ "$(nontest $workspace_src | grep -cF 'available_parallelism' || true)" -ne 1 ] ||
  [ "$(nontest crates/obs/src/cores.rs | grep -cF 'available_parallelism' || true)" -ne 1 ]; then
  echo "the workspace must read available_parallelism exactly once, in crates/obs/src/cores.rs"; exit 1
fi
lenders=$(nontest $workspace_src | grep -F 'obs::cores::try_lend(' | cut -d: -f1 | sort | tr '\n' ' ')
if [ "$lenders" != "crates/cfstore/src/store.rs crates/mrsim/src/dataflow.rs " ]; then
  echo "obs::cores::try_lend( must be called once in dataflow.rs and once in cfstore's store.rs, not in: $lenders"; exit 1
fi
if nontest $workspace_src | grep -E 'static (BUSY|CORES)\b|struct Load\b'; then exit 1; fi

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
# Not seconds: the size ROADMAP item 4 tracks (4369 before PR 16; 4359,
# flusher.rs included, before the caller flushed, DESIGN.md §43; 4089
# before a region was a memstore over its segment, DESIGN.md §44; 3957
# before a walk read the fewest shards that serve every slot, DESIGN.md
# §49; 4001 before one placement type, DESIGN.md §50).
printf '%6d  non-test lines in store.rs + shard.rs + shard/resharding.rs + bench/src/fsck.rs\n' "$shard_layer_lines"
# 1997 before the serving path owned its state (DESIGN.md §23).
printf '%6d  non-test lines in service.rs + daemon.rs + optimizer/src/cbo.rs + whatif/src/lib.rs\n' "$serving_path_lines"
# 7306 before a region was a memstore over its segment (DESIGN.md §44);
# 7371 before a split read no block (DESIGN.md §46); 7309 before each
# lock earned its number (DESIGN.md §47); 7254 before one log (DESIGN.md
# §48); 7203 before a walk read the fewest shards (DESIGN.md §49); 7247
# before one placement type (DESIGN.md §50).
printf '%6d  non-test lines in crates/cfstore/src\n' "$cfstore_lines"
# 2357 before replay was apply (DESIGN.md §24); 2333 before a region was
# a memstore over its segment (DESIGN.md §44).
printf '%6d  non-test lines in store.rs + recovery.rs + region.rs\n' "$store_core_lines"
# 1886 before the index left the store with one layout (DESIGN.md §41).
printf '%6d  non-test lines in core/src/store.rs + index.rs\n' "$index_lines"
echo "CI OK"
