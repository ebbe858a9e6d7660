#!/usr/bin/env bash
# Runs every workload once end to end and once traced, printing each
# run's metrics with their units on standard error. Extra arguments go to
# run.sh and override the defaults, e.g.
#
#   bash perfbench/all.sh --seconds 5
#
# BENCHMARK.json lists only nested-enum and query-churn: on a shared
# 2-core host, contacts-batch and sparse-corpus, which stream through
# large documents, vary from run to run by more than any bound it allows.
set -euo pipefail

for w in contacts-batch sparse-corpus nested-enum query-churn; do
  for t in 0 1; do
    echo "== $w --trace $t" >&2
    bash perfbench/run.sh --workload "$w" --seed 1 --seconds 25 --trace "$t" "$@" >/dev/null
  done
done
