#!/usr/bin/env sh
# bench.sh — run the repository benchmark suite and emit a JSON snapshot.
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Environment:
#   COUNT     repetitions per benchmark (default 3)
#   BENCH     benchmark regexp (default '.'); e.g. BENCH=Table1 for the
#             Table 1 pair (original vs energy-cached) alone
#   BASELINE  prior raw `go test -bench` output to diff against; the JSON
#             then carries a per-benchmark ns/op speedup section
#   BENCHTIME passed through as -benchtime when set
#
# The raw text output is kept next to the JSON (same name, .txt suffix) so
# future runs can use it as a BASELINE.
set -eu

cd "$(dirname "$0")/.."

OUT=${1:-BENCH.json}
RAW=${OUT%.json}.txt
COUNT=${COUNT:-3}
BENCH=${BENCH:-.}

ARGS="-run ^$ -bench $BENCH -benchmem -count $COUNT"
if [ -n "${BENCHTIME:-}" ]; then
    ARGS="$ARGS -benchtime $BENCHTIME"
fi

# shellcheck disable=SC2086
go test $ARGS . | tee "$RAW"

# Stamp the commit into the artifact metadata so baselines are attributable.
REV=$(git rev-parse --short=12 HEAD 2>/dev/null || true)
if [ -n "$REV" ] && ! git diff --quiet HEAD 2>/dev/null; then
    REV="$REV-dirty"
fi

if [ -n "${BASELINE:-}" ]; then
    go run ./cmd/benchjson -rev "$REV" -baseline "$BASELINE" -o "$OUT" "$RAW"
else
    go run ./cmd/benchjson -rev "$REV" -o "$OUT" "$RAW"
fi
echo "bench: wrote $OUT (raw: $RAW)" >&2
