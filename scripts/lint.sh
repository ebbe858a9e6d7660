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
#   ./scripts/lint.sh             full run over ./... (what CI executes)
#   ./scripts/lint.sh --changed   fast mode for pre-commit hooks: scope
#                                 every gate to the packages with
#                                 uncommitted .go changes (vs HEAD, plus
#                                 untracked files). Cross-package facts
#                                 still flow — go vet rebuilds dependency
#                                 summaries from the build cache — but
#                                 only the changed packages are re-checked
#                                 and the fixture tests run only when the
#                                 analyzers themselves changed. CI must
#                                 keep the full run: fast mode cannot see
#                                 a changed summary breaking an UNchanged
#                                 downstream hot path.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
if [ "${1:-}" = "--changed" ]; then
  mode=changed
elif [ -n "${1:-}" ]; then
  echo "usage: $0 [--changed]" >&2
  exit 2
fi

# Targets for each gate: the whole tree, or just the changed packages.
fmt_targets=(.)
pkg_targets=(./...)
test_targets=(./internal/analysis/... ./internal/analyzers/... ./cmd/spanlint/)
if [ "$mode" = changed ]; then
  changed_files=$(
    { git diff --name-only HEAD -- '*.go'
      git ls-files --others --exclude-standard -- '*.go'; } | sort -u
  )
  fmt_targets=() pkg_dirs=() pkg_targets=() test_targets=()
  analyzers_changed=false
  if [ -n "$changed_files" ]; then
    while IFS= read -r f; do
      # Classify before checking existence: a change made only of
      # deletions must still re-run the analyzer tests.
      case $f in
        internal/analysis/*|internal/analyzers/*|cmd/spanlint/*) analyzers_changed=true ;;
      esac
      if [ -f "$f" ]; then
        fmt_targets+=("$f")
      fi
      # testdata trees hold the analyzers' deliberate-violation fixtures;
      # go vet ./... never descends into them, so a fixture change checks
      # the package owning the tree. A deleted file's package is checked
      # if its directory survives.
      dir=$(dirname "$f")
      dir=${dir%%/testdata/*}
      dir=${dir%/testdata}
      if [ -d "$dir" ]; then
        pkg_dirs+=("$dir")
      fi
    done <<<"$changed_files"
  fi
  if [ "$analyzers_changed" = true ]; then
    # cmd/spanlint imports every analyzer, so vetting it also catches a
    # deleted or broken analyzer package.
    pkg_dirs+=(cmd/spanlint)
    test_targets=(./internal/analysis/... ./internal/analyzers/... ./cmd/spanlint/)
  fi
  if [ "${#pkg_dirs[@]}" -eq 0 ]; then
    echo "lint (--changed): no changed Go files, nothing to do"
    exit 0
  fi
  mapfile -t pkg_targets < <(printf '%s\n' "${pkg_dirs[@]}" | sort -u | sed 's|^|./|')
  echo "lint (--changed): scoping to ${pkg_targets[*]}"
fi

echo "==> gofmt"
out=""
if [ "${#fmt_targets[@]}" -gt 0 ]; then
  out=$(gofmt -l "${fmt_targets[@]}")
fi
if [ -n "$out" ]; then
  echo "gofmt needed on:"
  echo "$out"
  exit 1
fi

echo "==> go vet"
go vet "${pkg_targets[@]}"

echo "==> spanlint (vettool, hard fail)"
spanlint_bin=$(mktemp -d)/spanlint
trap 'rm -rf "$(dirname "$spanlint_bin")"' EXIT
go build -o "$spanlint_bin" ./cmd/spanlint
go vet -vettool="$spanlint_bin" "${pkg_targets[@]}"

echo "==> spanlint ignore audit"
"$spanlint_bin" -ignores "${pkg_targets[@]}" || {
  echo "ignore audit failed" >&2
  exit 1
}

if [ "${#test_targets[@]}" -gt 0 ]; then
  echo "==> analyzer fixture tests"
  go test "${test_targets[@]}"
else
  echo "==> analyzer fixture tests skipped (no analyzer sources changed)"
fi

echo "lint: all gates passed"
