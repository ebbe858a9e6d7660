#!/usr/bin/env bash
# lint.sh — the repo's one-command static gate, run by CI and usable
# locally before every push:
#
#   1. gofmt        — formatting gate over the whole tree
#   2. go vet       — the stock analyzers
#   3. spanlint     — the custom multichecker (cmd/spanlint) as a
#                     vettool over ./..., hard-failing on any finding
#   4. ignore audit — print every //spanlint:ignore waiver with its
#                     justification and fail on stale ones, so
#                     suppressions stay reviewable and never outlive
#                     the finding they waived
#   5. analyzer fixture tests — the analyzers' own test suites
#
# Usage:
#   ./scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
  echo "usage: $0" >&2
  exit 2
fi

echo "==> gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "gofmt needed on:"
  echo "$out"
  exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> spanlint (vettool, hard fail)"
spanlint_bin=$(mktemp -d)/spanlint
trap 'rm -rf "$(dirname "$spanlint_bin")"' EXIT
go build -o "$spanlint_bin" ./cmd/spanlint
go vet -vettool="$spanlint_bin" ./...

echo "==> spanlint ignore audit"
"$spanlint_bin" -ignores ./... || {
  echo "ignore audit failed" >&2
  exit 1
}

echo "==> analyzer fixture tests"
go test ./internal/analysis/... ./internal/analyzers/... ./cmd/spanlint/

echo "lint: all gates passed"
