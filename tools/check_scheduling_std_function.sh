#!/usr/bin/env sh
# Fail if std::function or std::deque creeps back into the scheduling paths.
#
# The event & continuation refactor replaced every scheduling/callback
# seam in src/sim, src/cache, src/mem and src/pim with inline-storage
# pei::Continuation / InlineFunction types; a std::function there
# reintroduces a heap allocation per event.  src/mem includes every
# MemoryBackend implementation (hmc, ddr, ideal and any future
# registrant), so new backends inherit the discipline automatically;
# src/energy and src/check sit downstream of backend callbacks and
# are scanned for the same reason.  Deliberately cold uses (the
# event-boundary probe hook, stats invariants) carry a
# `stdfunction-allowed:` comment on the same line or the line above.
#
# It also fails on any std::deque in src/sim, src/cache, src/mem,
# src/net, src/pim, src/cpu or src/runtime.  A continuation waiting
# for a window slot, a lock, a buffer entry, an MSHR or a barrier
# parks in the event arena through an EventQueue::WaitList, which
# never allocates; a deque allocates a map and a node as it grows,
# and the simulator's wait queues once made nearly all of its heap
# allocations that way.  Queues that are not simulated waits (the
# BFS reference's std::queue in src/workloads) are not scanned.
#
# Usage: tools/check_scheduling_std_function.sh [repo-root]

set -eu

root="${1:-$(dirname "$0")/..}"
cd "$root"

status=0
for dir in src/sim src/cache src/mem src/net src/pim src/energy \
           src/check; do
    # `grep -n` per file keeps the output clickable; a match is only
    # a violation when neither its own line nor the preceding line
    # carries the stdfunction-allowed tag.
    for f in $(grep -rl 'std::function' "$dir" 2>/dev/null || true); do
        violations=$(awk '
            /stdfunction-allowed:/ { allow = NR + 1 }
            /^[[:space:]]*(\*|\/\/|\/\*)/ { next } # prose in comments
            /std::function/ && NR > allow {
                print FILENAME ":" NR ": " $0
            }
        ' "$f")
        if [ -n "$violations" ]; then
            echo "$violations"
            status=1
        fi
    done
done

deque_status=0
for dir in src/sim src/cache src/mem src/net src/pim src/cpu \
           src/runtime; do
    for f in $(grep -rl 'std::deque' "$dir" 2>/dev/null || true); do
        violations=$(awk '
            /^[[:space:]]*(\*|\/\/|\/\*)/ { next } # prose in comments
            /std::deque/ { print FILENAME ":" NR ": " $0 }
        ' "$f")
        if [ -n "$violations" ]; then
            echo "$violations"
            deque_status=1
        fi
    done
done

if [ "$status" -ne 0 ]; then
    echo ""
    echo "error: untagged std::function on a scheduling path." >&2
    echo "Use pei::Continuation / pei::InlineFunction, or tag a" >&2
    echo "deliberately cold use with a 'stdfunction-allowed: <why>'" >&2
    echo "comment on the same or preceding line." >&2
fi
if [ "$deque_status" -ne 0 ]; then
    echo ""
    echo "error: std::deque on a simulation path." >&2
    echo "Park waiting continuations in an EventQueue::WaitList." >&2
fi
if [ "$status" -ne 0 ] || [ "$deque_status" -ne 0 ]; then
    exit 1
fi
echo "check_scheduling_std_function: OK"
