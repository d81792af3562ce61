#!/usr/bin/env bash
# Smoke-run the benchmark: every workload at 1/20 scale, untraced and
# traced, every output check on; under 20 s once built. Exits non-zero on
# any check failure. Run from anywhere; CI can call it as is.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/target"
out="$here/target/smoke-$$.json"
trap 'rm -f "$out"' EXIT
cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    run --quick --seed "${1:-1}" --out "$out"
