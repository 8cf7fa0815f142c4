#!/bin/sh
# A recorded trace replays as the run it was recorded from: for cg and
# jacobi on 4 nodes (scale 0.05), `socbench replay` must print the same
# runtime, GFLOP/s and network GB as `socbench run`, and cg's runtime is
# pinned.  A node count the trace's ranks cannot be placed on, a --ranks
# the cluster cannot place, and a flag that would change what the trace
# already fixes (problem size, scenario) are usage errors (exit 2).
#
# Usage: socbench_replay_test.sh <socbench binary> <scratch directory>
set -u
socbench=$1
dir=$2
mkdir -p "$dir" || exit 1
status=0

for workload in cg jacobi; do
  trace="$dir/$workload.soctrace"
  "$socbench" trace --workload "$workload" --nodes 4 --scale 0.05 \
    --out "$trace" > /dev/null || { echo "trace failed: $workload"; exit 1; }
  run=$("$socbench" run --workload "$workload" --nodes 4 --scale 0.05) ||
    { echo "run failed: $workload"; exit 1; }
  want=$(printf '%s\n' "$run" | awk '
    /^runtime/ { s = $3 } /^throughput/ { g = $3 } /^network traffic/ { n = $3 }
    END { print s, g, n }')
  replay=$("$socbench" replay --trace "$trace" --nodes 4) ||
    { echo "replay failed: $workload"; exit 1; }
  got=$(printf '%s\n' "$replay" | sed -n \
    's/^replayed .*: \([0-9.]*\) s, \([0-9.]*\) GFLOP\/s, \([0-9.]*\) GB over the network$/\1 \2 \3/p')
  if [ "$got" != "$want" ]; then
    echo "$workload: replay printed '$got', run printed '$want'"
    status=1
  fi
  if [ "$workload" = cg ] && [ "${want%% *}" != 12.506 ]; then
    echo "cg@4 runtime moved: $want"
    status=1
  fi
done

expect_usage_error() {
  "$@" > /dev/null 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "exit $code, not a usage error: $*"
    status=1
  fi
}
expect_usage_error "$socbench" replay --trace "$dir/cg.soctrace" --nodes 3
expect_usage_error "$socbench" replay --trace "$dir/cg.soctrace" --nodes 1
expect_usage_error "$socbench" replay --trace "$dir/cg.soctrace" --nodes 4 \
  --scale 3
expect_usage_error "$socbench" replay --trace "$dir/cg.soctrace" --nodes 4 \
  --fault straggler:rank=1,slowdown=4
expect_usage_error "$socbench" decompose --workload cg --nodes 4 --ranks 6
exit $status
