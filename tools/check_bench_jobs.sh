#!/usr/bin/env sh
# Pin peibench's job set without simulating anything.
#
# `--list` prints one job label per line: each distinct run once,
# under the first label it was submitted with.  The paper's grid and
# the repo's extension studies submit 311 jobs for 225 distinct runs;
# under `--cubes 2`, fig14's 2-cube 16-core Host-Only and
# Locality-Aware runs equal fig06's PR/medium ones, leaving 223.
# The static tables submit none, nor does fig15 on a backend without
# PIM units, and an unknown artifact or flag is fatal.
#
# Usage: tools/check_bench_jobs.sh path/to/peibench

set -eu

bench="$1"
status=0

fail() {
    echo "check_bench_jobs: $*" >&2
    status=1
}

labels=$("$bench" --list)
count=$(printf '%s\n' "$labels" | wc -l)
[ "$count" -eq 225 ] || fail "--list printed $count lines, want 225"
# A label is one word with at least one '/'; a banner line is not.
bad=$(printf '%s\n' "$labels" | grep -Ev '^[^[:space:]/]+(/[^[:space:]/]+)+$' || true)
[ -z "$bad" ] || fail "--list printed non-label lines: $bad"
dups=$(printf '%s\n' "$labels" | sort | uniq -d)
[ -z "$dups" ] || fail "--list printed duplicate labels: $dups"

tables=$("$bench" --only tab01_operations,tab02_config --list)
[ -z "$tables" ] || fail "the static tables listed jobs: $tables"

ddr=$("$bench" --only fig15_batching --mem-backend ddr --list)
[ -z "$ddr" ] || fail "fig15 listed jobs on a backend without PIM: $ddr"

count=$("$bench" --cubes 2 --list | wc -l)
[ "$count" -eq 223 ] || fail "--cubes 2 --list printed $count lines, want 223"

if err=$("$bench" --only fig99_missing --list 2>&1); then
    fail "an unknown --only name did not fail"
fi
for name in tab01_operations tab02_config fig02_pagerank_potential \
            fig06_speedup fig07_offchip_traffic fig08_input_sweep \
            fig09_multiprog fig10_balanced_dispatch fig11_pcu_design \
            tab76_pmu_overhead fig12_energy fig14_scaleout \
            fig15_batching; do
    case "$err" in
        *"$name"*) ;;
        *) fail "the unknown-name error does not list $name: $err" ;;
    esac
done

# The deleted serving study's name and baseline flag (DESIGN entry
# 22) are unknown arguments.
if "$bench" --serving-json serving.json --list >/dev/null 2>&1; then
    fail "--serving-json was accepted"
fi
if "$bench" --only fig13_serving --list >/dev/null 2>&1; then
    fail "--only fig13_serving was accepted"
fi

exit $status
