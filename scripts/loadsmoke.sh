#!/bin/sh
# Warn-only serving smoke: builds spannerd, starts it on a scratch port,
# drives it with scripts/loadsmoke.go — first mixed enumerate/count
# traffic against the compiled-query cache, then the corpus phase
# (register a corpus, mixed enumerate/count load over it, the corpus's
# matches_served gauge) — and prints the latency/QPS summaries in
# the job log. Like scripts/benchgate.sh it never fails the build — CI
# runners are noisy and absolute numbers are hardware-bound; it exists so
# a human can spot a serving regression in the log.
#
#   PORT=18230 N=300 C=8 CORPUS_DOCS=64 ./scripts/loadsmoke.sh
set -e
cd "$(dirname "$0")/.."

PORT="${PORT:-18230}"
N="${N:-300}"
C="${C:-8}"
CORPUS_DOCS="${CORPUS_DOCS:-64}"

tmp="$(mktemp -d)"
trap 'kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null; rm -rf "$tmp"' EXIT

go build -o "$tmp/spannerd" ./cmd/spannerd
"$tmp/spannerd" -addr "127.0.0.1:$PORT" > "$tmp/spannerd.log" 2>&1 &
pid=$!

if ! go run scripts/loadsmoke.go -addr "http://127.0.0.1:$PORT" -n "$N" -c "$C" \
        -corpus-docs "$CORPUS_DOCS"; then
    echo "::warning title=load smoke::spannerd load smoke reported failures (see log above)"
    sed 's/^/spannerd: /' "$tmp/spannerd.log" >&2 || true
fi

exit 0
