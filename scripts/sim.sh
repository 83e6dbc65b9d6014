#!/usr/bin/env bash
# Run one of the deterministic simulators (crates/sim) through its
# experiment binary.
#
#   scripts/sim.sh <exp>           full run: the default seed range under
#                                  the faithful discipline must report
#                                  zero invariant violations, then the
#                                  planted bug is caught and shrunk to a
#                                  minimal repro
#   scripts/sim.sh <exp> --smoke   print the smoke JSON and diff it
#                                  against crates/sim/tests/golden/
#
# where <exp> is one of
#
#   e15   worker crashes and journal recovery        (e15_simulation)
#   e16   node failover and partitions               (e16_cluster)
#   e17   open-loop traffic and admission control    (e17_slo)
#   e18   admission-coupled ring rebalancing         (e18_rebalance)
#
# Exits nonzero if any invariant violation survives the faithful run,
# if an experiment's own acceptance check fails (e17: a missed SLO
# target; e18: no hot shard relieved), if the planted bug goes uncaught
# or fails to shrink, or if the smoke output drifts from the committed
# golden.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/sim.sh <e15|e16|e17|e18> [--smoke]"
case "${1:-}" in
    e15) bin=e15_simulation ;;
    e16) bin=e16_cluster ;;
    e17) bin=e17_slo ;;
    e18) bin=e18_rebalance ;;
    *) echo "$usage" >&2; exit 2 ;;
esac

case "${2:-}" in
    --smoke)
        out="$(mktemp)"
        trap 'rm -f "$out"' EXIT
        cargo run -q --release -p lcakp-bench --bin "$bin" -- --smoke > "$out"
        diff -u "crates/sim/tests/golden/$1_smoke.json" "$out"
        echo "$1 smoke output matches the committed golden"
        ;;
    "") cargo run -q --release -p lcakp-bench --bin "$bin" ;;
    *) echo "$usage" >&2; exit 2 ;;
esac
