#!/usr/bin/env bash
# Smoke check for CI: the package's unit tests, then two quick runs of all
# six workloads (1 s and at least 3 units each) compared with --compare.
# Fails if a test fails, a workload's outputs are wrong, or anything on the
# simulated clock differs between the two runs; quick runs are too short to
# resolve host-clock bounds, so those are reported but never fail.
# Run from anywhere; writes only under benchmark/out.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline --quiet
run() { cargo run --release --offline --quiet -- "$@"; }
mkdir -p out
run --quick --out out/smoke-a.json > out/smoke-a.log
run --quick --out out/smoke-b.json > out/smoke-b.log
run --compare out/smoke-a.json out/smoke-b.json
