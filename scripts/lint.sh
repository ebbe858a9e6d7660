#!/usr/bin/env bash
# lint.sh — the repo's one-command static gate, run by CI and usable
# locally before every push:
#
#   1. gofmt        — formatting gate over the whole tree
#   2. go vet       — the stock analyzers
#   3. spanlint     — the custom multichecker (cmd/spanlint) over ./...,
#                     test files included, in one run: it fails on any
#                     finding and on any stale //spanlint:ignore, and
#                     prints every waiver with its justification, so
#                     suppressions stay reviewable and never outlive
#                     the finding they waived
#   4. analyzer fixture tests — the analyzers' own test suites
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

echo "==> spanlint (findings and stale ignores fail; waivers listed)"
go run ./cmd/spanlint -ignores ./...

echo "==> analyzer fixture tests"
go test ./internal/analysis/... ./internal/analyzers/... ./cmd/spanlint/

echo "lint: all gates passed"
