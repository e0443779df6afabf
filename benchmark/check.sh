#!/usr/bin/env bash
# The benchmark's own gate (ci.sh at the root does not know this package):
# format, lints, unit tests, and a --smoke run of all six workloads, traced
# and untraced, each of which must report every check passed.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo build --release --offline

bin="${CARGO_TARGET_DIR:-target}/release/elbench"
start=$SECONDS
for workload in steady churn backlog search recover tenants; do
    for trace in 0 1; do
        last=$("$bin" --workload "$workload" --smoke --trace "$trace" | tail -n 1)
        case "$last" in
        '{"correct": true, '*) echo "smoke $workload --trace $trace: ok" ;;
        *)
            echo "smoke $workload --trace $trace: FAILED: $last" >&2
            exit 1
            ;;
        esac
    done
done
echo "check.sh: all green (smoke runs took $((SECONDS - start)) s)"
