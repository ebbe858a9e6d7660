#!/bin/sh
# Regenerates BENCH_spanner.json: runs the spanner benchmarks and records
# throughput (MB/s) and per-result delay numbers as the perf baseline.
# OUT overrides the output path (scripts/benchgate.sh writes to a temp file
# to compare a fresh run against the committed baseline).
set -e
cd "$(dirname "$0")/.."
OUT="${OUT:-BENCH_spanner.json}"

go test -run='^$' -bench=. -benchtime="${BENCHTIME:-500ms}" ./spanner/ ./spanner/cache/ ./engine/ ./corpus/ ./cluster/ ./cmd/spannerd/ |
awk -v go="$(go version | awk '{print $3}')" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^cpu:/ {
  cpu = $0
  sub(/^cpu:[ \t]*/, "", cpu)
}
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  row = sprintf("{\"name\":\"%s\",\"iterations\":%s", name, $2)
  for (i = 3; i < NF; i += 2) {
    unit = $(i + 1)
    gsub(/\//, "_per_", unit)
    row = row sprintf(",\"%s\":%s", unit, $i)
  }
  row = row "}"
  rows[n++] = row
}
END {
  printf "{\n"
  printf "  \"generated\": \"%s\",\n", date
  printf "  \"go\": \"%s\",\n", go
  printf "  \"cpu\": \"%s\",\n", cpu
  printf "  \"benchmarks\": [\n"
  for (i = 0; i < n; i++)
    printf "    %s%s\n", rows[i], (i < n - 1 ? "," : "")
  printf "  ]\n}\n"
}' > "$OUT"

cat "$OUT"
