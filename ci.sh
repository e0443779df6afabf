#!/usr/bin/env bash
# Full local CI gate, entirely offline: formatting, lints, release build,
# tests. Run before every push; any failure fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
# A broken or private intra-doc link is a warning rustdoc only prints here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== no external crates =="
# The workspace depends on nothing outside crates/: every package on a
# normal, dev or build edge of the tree is an elog-* crate.
TREE=$(cargo tree --offline --workspace -e normal,dev,build --prefix none)
STRAY=$(echo "$TREE" | awk 'NF && $1 !~ /^elog-/ {print $1}' | sort -u)
if [ -n "$STRAY" ]; then
    echo "external crates in the dependency tree:" $STRAY >&2
    exit 1
fi

echo "== unsafe inventory =="
# `unsafe` code lives in two files: the counting allocator
# (sim/src/perfstats.rs) and the CRC-32 carry-less-multiply kernel
# (storage/src/checksum.rs). Both crates warn on
# clippy::undocumented_unsafe_blocks, which the clippy step denies, so each
# block there carries a `// SAFETY:` comment. The pattern is the keyword in
# code (a block, fn, impl, trait, extern or attribute), not the word in
# comments and report strings ("unsafe drops").
UNSAFE_FILES=$(grep -rlE '\bunsafe\s*(\{|\(|fn\b|impl\b|trait\b|extern\b)' crates/*/src --include='*.rs' |
    grep -vxF -e crates/sim/src/perfstats.rs -e crates/storage/src/checksum.rs || true)
if [ -n "$UNSAFE_FILES" ]; then
    echo "unsafe outside sim/src/perfstats.rs and storage/src/checksum.rs:" $UNSAFE_FILES >&2
    exit 1
fi

echo "== one log manager =="
# ElManager (EL and the FW baseline) is the only production LogManager.
# Substitutes that plug into the trait (test recorders and mirrors, the
# benchmark's timing wrapper) live in crates/harness, tests/ and benchmark/,
# not in crates/core.
LM_IMPLS=$(grep -rnE '\bimpl\b.*\bLogManager\s+for\b' crates/core/src --include='*.rs' || true)
if [ "$(echo "$LM_IMPLS" | grep -c .)" -ne 1 ] ||
    ! echo "$LM_IMPLS" | grep -qE 'LogManager\s+for\s+(crate::)?ElManager\b'; then
    echo "crates/core must implement LogManager for ElManager alone:" >&2
    echo "${LM_IMPLS:-no impl found}" >&2
    exit 1
fi

echo "== frozen names =="
# `benchmark/` is frozen, so the API names it still calls outlive their
# code as `#[doc(hidden)]` shims ("Frozen name, owed to the next benchmark
# re-record"). The set is closed: a new shim, or a shim deleted without
# this list, fails here. ROADMAP item 1(a) deletes them all at the re-record.
FROZEN_WANT='crates/core/src/traits.rs:last_gen_allocated
crates/harness/src/latsearch.rs:LatticeLimits
crates/harness/src/latsearch.rs:jobs
crates/harness/src/latsearch.rs:lattice
crates/harness/src/latsearch.rs:probe_jobs
crates/harness/src/runner.rs:run_capture
crates/harness/src/runner.rs:shards
crates/sim/src/perfstats.rs:analytic_rejections
crates/sim/src/perfstats.rs:cancelled
crates/sim/src/perfstats.rs:compactions
crates/sim/src/perfstats.rs:memo_hits
crates/sim/src/perfstats.rs:replay_probes
crates/sim/src/perfstats.rs:resume_probes
crates/sim/src/perfstats.rs:resume_saved_events
crates/sim/src/perfstats.rs:tombstones_discarded
crates/workload/src/driver.rs:WorkloadTrace
crates/workload/src/driver.rs:replay'
# Each `#[doc(hidden)]` line names the first item after it (other
# attributes and comments skipped): `fn`/`enum`/... NAME, or a field NAME:.
FROZEN_HAVE=$(find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { want = 0 }
    want && !/^[ \t]*(#\[|\/\/)/ {
        if (match($0, /(fn|enum|struct|trait|type|const|static|mod)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr($0, RSTART, RLENGTH); sub(/^[a-z]+[ \t]+/, "", name)
        } else if (match($0, /[A-Za-z_][A-Za-z0-9_]*[ \t]*:/)) {
            name = substr($0, RSTART, RLENGTH); sub(/[ \t]*:$/, "", name)
        } else {
            name = "?" $0
        }
        print FILENAME ":" name; want = 0
    }
    /^[ \t]*#\[doc\(hidden\)\][ \t]*$/ { want = 1 }' | sort)
if [ "$FROZEN_HAVE" != "$FROZEN_WANT" ]; then
    echo "#[doc(hidden)] items differ from the frozen-name list:" >&2
    diff <(echo "$FROZEN_WANT") <(echo "$FROZEN_HAVE") >&2 || true
    exit 1
fi

echo "== doc names =="
# Every name README.md, DESIGN.md and EXPERIMENTS.md put in backticks as
# code — an
# identifier, or a path of them joined by `::` or `.` (`Type::method`,
# `file.rs`) — must be made of identifiers that occur in the code, its
# tests, ci.sh or their file names. A deletion that leaves its name in a
# doc fails here. DOC_ALLOW lists the names that are meant to name no
# code (paper terms, benchmark metric names, file names outside the
# searched tree), one a line; every one of them resolves today, so it is
# empty.
DOC_ALLOW=''
DOC_NAMES=$(grep -ohE '`[A-Za-z_][A-Za-z0-9_]*((::|\.)[A-Za-z_][A-Za-z0-9_]*)*(\(\))?`' README.md DESIGN.md EXPERIMENTS.md |
    tr -d '`()' | tr ':.' '\n\n' | grep . | sort -u)
TREE_NAMES=$({
    find crates tests examples benchmark/src -type f
    cat ci.sh
    find crates tests examples benchmark/src -type f -name '*.rs' -exec cat {} +
} | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
STALE=$(comm -23 <(echo "$DOC_NAMES") <(printf '%s\n%s\n' "$TREE_NAMES" "$DOC_ALLOW" | sort -u))
if [ -n "$STALE" ]; then
    echo "README.md / DESIGN.md / EXPERIMENTS.md name code that does not exist:" $STALE >&2
    exit 1
fi

echo "== doc map =="
# "doc names" accepts a path whose every segment occurs somewhere; this
# step checks where the docs point. (a) A backticked path that starts at a
# workspace crate (`core::…` or `elog_core::…`) must name, as its second
# segment, a module file of that crate or a `pub` name of its lib.rs; a
# brace list (`core::{cell, lot}`) counts member by member. (b) DESIGN.md
# §7 lists every file under crates/*/src, each under its `crates/X/src/`
# line, and no other.
DOC_CRATES=$(ls crates | paste -sd'|')
MAP_BAD=$(grep -ohE "\`(elog_)?($DOC_CRATES)::[^\`]*\`" README.md DESIGN.md EXPERIMENTS.md | sort -u |
    while read -r path; do
        p=${path//\`/}
        crate=${p%%::*}
        crate=${crate#elog_}
        rest=${p#*::}
        case $rest in
            "{"*) members=${rest#\{} && members=${members%%\}*} ;;
            *) members=${rest%%::*} ;;
        esac
        pubs=$(grep -vE '^[[:space:]]*//' "crates/$crate/src/lib.rs" | tr '\n' ' ' | tr ';' '\n' |
            grep -E '^[[:space:]]*pub\b' | grep -oE '[A-Za-z_][A-Za-z0-9_]*' || true)
        echo "$members" | tr ',' '\n' | while read -r m; do
            m=$(echo "${m%%::*}" | grep -oE '^[A-Za-z_][A-Za-z0-9_]*' || true)
            if [ -z "$m" ] || { [ ! -f "crates/$crate/src/$m.rs" ] &&
                [ ! -f "crates/$crate/src/$m/mod.rs" ] && ! grep -qxF "$m" <<<"$pubs"; }; then
                echo "$path"
            fi
        done
    done | sort -u)
if [ -n "$MAP_BAD" ]; then
    echo "README.md / DESIGN.md / EXPERIMENTS.md point at no module or pub name:" $MAP_BAD >&2
    exit 1
fi
LAYOUT_HAVE=$(awk '
    /^## / { in7 = /^## 7\./ }
    in7 && /^crates\/[a-z]+\/src\/$/ { dir = $1; next }
    in7 { while (match($0, /[A-Za-z0-9_\/]+\.rs/)) { print dir substr($0, RSTART, RLENGTH); $0 = substr($0, RSTART + RLENGTH) } }
' DESIGN.md | sort)
LAYOUT_WANT=$(find crates/*/src -name '*.rs' | sort)
if [ "$LAYOUT_HAVE" != "$LAYOUT_WANT" ]; then
    echo "DESIGN.md §7 and crates/*/src list different files (< files, > DESIGN.md):" >&2
    diff <(echo "$LAYOUT_WANT") <(echo "$LAYOUT_HAVE") >&2 || true
    exit 1
fi

echo "== cargo build --release =="
cargo build --offline --release --workspace --bins --examples

echo "== repro --quick stdout pin =="
# Every PR that claims "no model change" claims this md5; it used to live
# only in prose. stdout carries the tables and notes, nothing host- or
# time-dependent (progress and timing go to stderr), and is the same at any
# --jobs. A deliberate model change re-pins it in the same commit.
REPRO_PIN=8e0aaf8e9b5ca40e0b8a5fc00e1f633a
REPRO_MD5=$(./target/release/repro --quick --jobs 1 2>/dev/null | md5sum | cut -d' ' -f1)
if [ "$REPRO_MD5" != "$REPRO_PIN" ]; then
    echo "repro --quick stdout md5 is $REPRO_MD5, pinned $REPRO_PIN:" >&2
    echo "the model's results moved. If that is the point of the change, re-pin." >&2
    exit 1
fi

echo "== benchmark/check.sh =="
# benchmark/ is its own workspace that path-depends on these crates, so
# nothing else here compiles it. It runs first after the build so a broken
# frozen name fails in the first minute, not after the whole test run.
./benchmark/check.sh

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== 3-gen lattice smoke =="
# A small-basket N-generation minimum-space search end to end: exercises
# the lattice search (first bound, running-bound walk, column
# certificates) through the public CLI. Any panic fails CI.
./target/release/elsim --gens 10,8,8 --runtime 20 --min-space

echo "== running-bound pin =="
# The 2-gen lattice search's geometry and probe count, pinned: a change
# that loses the running bound (each column capped by the best geometry
# found before it — DESIGN.md §5f) spends more probes, and one that moves
# the minimum prints another geometry.
LATTICE_PIN='minimum EL log: [18, 16] = 34 blocks (48 probes)'
LATTICE_OUT=$(./target/release/elsim --gens 18,16 --runtime 60 --min-space)
if [ "$LATTICE_OUT" != "$LATTICE_PIN" ]; then
    echo "elsim --gens 18,16 --runtime 60 --min-space printed \`$LATTICE_OUT\`," >&2
    echo "pinned \`$LATTICE_PIN\`" >&2
    exit 1
fi

echo "== overload pin =="
# The flush-limited overload run end to end (199 580 flushes, mean oid
# distance 248 238, backlog 175 970): every drive's pick order over 500 s
# of deep queues, expedites and unsafe drops. tests/integration_overload.rs
# pins 60 s; a pick-order slip in the pending-flush index (DESIGN.md §5h)
# shows here first. A change that means to move the model re-pins it.
OVERLOAD_PIN=0be1c66c7661fc319167bf90154f7636
OVERLOAD_MD5=$(./target/release/elsim --tps 400 --gens 60,50 --runtime 500 | md5sum | cut -d' ' -f1)
if [ "$OVERLOAD_MD5" != "$OVERLOAD_PIN" ]; then
    echo "elsim --tps 400 --gens 60,50 --runtime 500 stdout md5 is $OVERLOAD_MD5," >&2
    echo "pinned $OVERLOAD_PIN" >&2
    exit 1
fi

echo "== certificate equivalence smoke =="
# The probe accelerator (consumption certificates — DESIGN.md §5g) must
# be pure: the same search run with and without them (`--no-cert`
# simulates every probe) has to print the same geometry and probe counts.
# Event counters legitimately differ, so compare the full stdout of a
# quick min-space search, which reports geometry and probes but not
# event volume.
CERT_ON=$(./target/release/elsim --gens 10,8,8 --runtime 20 --min-space)
CERT_OFF=$(./target/release/elsim --gens 10,8,8 --runtime 20 --min-space --no-cert)
if [ "$CERT_ON" != "$CERT_OFF" ]; then
    echo "certified and probe-only searches disagree:" >&2
    diff <(echo "$CERT_ON") <(echo "$CERT_OFF") >&2 || true
    exit 1
fi

echo "== adaptive controller smoke =="
# The online generation controller (DESIGN.md §5j) must be invisible on
# a well-provisioned static workload: the same measured run with
# `--adaptive` has to print byte-identical stdout (the controller's
# summary goes to stderr). On a drifting workload it must actually
# act: the stderr summary has to report at least one reshape.
AD_OFF=$(./target/release/elsim --gens 18,16 --runtime 30)
AD_ON=$(./target/release/elsim --gens 18,16 --runtime 30 --adaptive 2>/dev/null)
if [ "$AD_OFF" != "$AD_ON" ]; then
    echo "adaptive run diverged on a static workload:" >&2
    diff <(echo "$AD_OFF") <(echo "$AD_ON") >&2 || true
    exit 1
fi
AD_DRIFT=$(./target/release/elsim --gens 18,6 --runtime 60 \
    --phases 0:0.05,10:0.4 --adaptive 2>&1 >/dev/null | grep '\[adaptive\]' || true)
case "$AD_DRIFT" in
    *"reshapes 0 "*|"")
        echo "drifting workload produced no reshape: ${AD_DRIFT:-no [adaptive] line}" >&2
        exit 1
        ;;
esac

echo "== hostile CLI =="
# Bad input is a typed error from harness::cli, never a backtrace. Each
# exit-2 value below would trip a constructor's panic further in (or,
# unchecked, run the wrong thing: an unknown --mode as EL, tenant 65536
# aliased onto tenant 0), so each must exit 2 with one stderr line naming
# the flag. The `repro --csv` row names a directory: an unwritable one
# must fail here, before the basket runs, not after it. The 4294967295
# rows would, unchecked, size the ring's allocation (--gens, --fw-blocks:
# 240 GB, abort) or trip FlushArray's assert (--drives). The exit-1 rows
# are well-formed searches that still kill at the doubling stop (1 024
# blocks a generation): one stderr line naming that search limit instead
# of an abort (or the stop geometry printed as a minimum).
# The --probe-cache, `elsim --jobs`, `repro --adaptive` and --no-analytic
# (now --no-cert) rows are deleted flags: they must be rejected by name, not silently
# accepted. The 1e12 / 1e300 rows
# ask for arrivals finer than the 1 µs clock, which unchecked never
# advance it; `--only nosuch` must fail before repro prints its header.
# The crash_recovery rows are the example's one argument: unchecked, `abc`
# silently crashes at the default instant, `-5` recovers an empty log, and
# `inf` saturates the clock so that arrivals never stop. The other example
# rows, unchecked, abort in an assert (`frac_long` 2 or nan, `g0` 0 or 2),
# silently run the defaults (`abc`) or sweep zero seconds (`runtime_secs`
# 0). `--tenants 2 --min-space` and `--budget 8 --adaptive` ask a served
# run to search or adapt, which it does not. A pattern with `.*` must
# match the one stderr line whole: the flag and the limit it broke.
# An exit-2 row prints nothing to stdout, and every row runs under a
# timeout so one that regresses to a hang fails here with its command.
HOSTILE_ERR=$(mktemp)
HOSTILE_OUT=$(mktemp)
while read -r want flag cmd; do
    status=0
    # shellcheck disable=SC2086
    timeout 60 ./target/release/$cmd >"$HOSTILE_OUT" 2>"$HOSTILE_ERR" || status=$?
    if [ "$status" -ne "$want" ] || grep -q panicked "$HOSTILE_ERR" ||
        [ "$(wc -l <"$HOSTILE_ERR")" -ne 1 ] || ! grep -q -- "$flag" "$HOSTILE_ERR" ||
        { [ "$want" -eq 2 ] && [ -s "$HOSTILE_OUT" ]; }; then
        echo "\`$cmd\`: want exit $want and one line naming $flag, got exit $status:" >&2
        cat "$HOSTILE_ERR" >&2
        [ "$want" -ne 2 ] || head -3 "$HOSTILE_OUT" >&2
        exit 1
    fi
done <<'HOSTILE'
2 --gens elsim --gens 0
2 --gens elsim --gens 18,0
2 --gens elsim --tenants 3 --gens 0
2 --gens elsim --gens 4294967295,4294967295 --runtime 1
2 --fw-blocks elsim --fw-blocks 4294967295 --runtime 1
2 --drives elsim --drives 4294967295 --runtime 1
2 --drives elsim --tenants 2 --drives 4294967295 --runtime 1
2 --tps elsim --tps 0
2 --tps elsim --tps 1e12 --runtime 1
2 --tps elsim --tenants 2 --tps 1e12 --runtime 1
2 --phases elsim --phases 0:0.1@1e300 --runtime 5
2 --mode elsim --mode bogus
2 --tenants.*65536 elsim --tenants 65537
2 --tenants.*objects elsim --tenants 99999999
2 --tenants.*--min-space elsim --tenants 2 --min-space
2 --budget.*--adaptive elsim --budget 8 --adaptive
2 --csv repro --quick --csv /proc/nope
2 --gens repro --gens 9
2 --probe-cache elsim --min-space --probe-cache /tmp/x
2 --jobs elsim --min-space --jobs 2
2 --probe-cache repro --quick --probe-cache /tmp/x
2 --adaptive repro --quick --adaptive
2 --no-analytic elsim --no-analytic
2 --only repro --quick --only nosuch
2 crash_at_secs examples/crash_recovery abc
2 crash_at_secs examples/crash_recovery -5
2 crash_at_secs examples/crash_recovery inf
2 frac_long examples/compare_fw_el 2
2 frac_long examples/compare_fw_el nan
2 frac_long examples/compare_fw_el abc 5
2 g0 examples/tune_generations 0 5
2 g0 examples/tune_generations 2 5
2 runtime_secs examples/tune_generations 18 0
2 runtime_secs examples/scarce_flush abc
2 runtime_secs examples/scarce_flush 0
1 --min-space elsim --fw-blocks 100 --tps 20000 --runtime 5 --min-space
1 --min-space elsim --gens 18,16 --tps 6000 --runtime 5 --min-space
HOSTILE
# A reader that closes the pipe early is not an error either: repro must
# exit 0 without a panic, not die of SIGABRT in `println!`.
status=0
./target/release/repro --quick --only rate 2>"$HOSTILE_ERR" | head -1 >/dev/null || status=${PIPESTATUS[0]}
if [ "$status" -ne 0 ] || grep -q panicked "$HOSTILE_ERR"; then
    echo "\`repro --quick --only rate | head -1\`: want exit 0 and no panic, got exit $status:" >&2
    cat "$HOSTILE_ERR" >&2
    exit 1
fi
rm -f "$HOSTILE_ERR" "$HOSTILE_OUT"

echo "== crash_recovery example smoke =="
# The example crashes a run, restarts it from the bytes of its log surface
# and verifies the result against the acknowledged commits.
if ! ./target/release/examples/crash_recovery | grep -q '^ok: '; then
    echo "crash_recovery printed no ok: line" >&2
    exit 1
fi

echo "== multi-tenant smoke =="
# Two tenants: the [serve] summary must land on stderr with a committed
# count.
SERVE_ERR=$(mktemp)
./target/release/elsim --tenants 2 --runtime 30 >/dev/null 2>"$SERVE_ERR"
if ! grep -q '^\[serve\] tenants 2, committed [1-9]' "$SERVE_ERR"; then
    echo "elsim --tenants 2 printed no [serve] summary (or committed nothing):" >&2
    cat "$SERVE_ERR" >&2
    exit 1
fi
rm -f "$SERVE_ERR"

echo "== budget smoke =="
# A budget refuses arrivals, which the plain run report has no line for:
# one tenant under a budget prints the per-tenant report, refusals
# included.
BUDGET_OUT=$(./target/release/elsim --tenants 1 --budget 1 --runtime 5 2>/dev/null)
case "$BUDGET_OUT" in
    *refused*) ;;
    *)
        echo "elsim --tenants 1 --budget 1 printed no refused count:" >&2
        echo "$BUDGET_OUT" >&2
        exit 1
        ;;
esac

echo "CI green."
