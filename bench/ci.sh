#!/usr/bin/env bash
# The benchmark's own gate: unit tests, a full run at the baseline's
# seed, and `compare` against the committed baseline.  Run from anywhere;
# exits non-zero on a failed test, a wrong answer, or a `regressed` row.
# Numbers are a property of the machine — compare only against a
# baseline measured on the same box (see README.md).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
manifest="$here/Cargo.toml"

cargo test --release --offline --manifest-path "$manifest"
cargo run --release --offline --manifest-path "$manifest" -- run --seed 42
cargo run --release --offline --manifest-path "$manifest" -- \
  compare "$here/baseline.json" "$here/out/result.json"
