#!/usr/bin/env sh
# run_all.sh — one-command reproduction of the paper's evaluation: Figs 1,
# 3, 4, 6 and 7, Tables 1-3, the partition and quality studies, serving
# warmth and peak power.
#
# Runs the full experiments.json grid through cmd/paperrun, writing a
# timestamped provenance-carrying run directory under paper_runs/ and
# checking it against the committed baseline.
#
# Usage:
#   scripts/paper/run_all.sh                 # full grid + baseline check
#   SPEC=scripts/paper/experiments_smoke.json scripts/paper/run_all.sh
#
# Environment:
#   SPEC      experiments grid (default scripts/paper/experiments.json)
#   BASELINE  baseline run directory to -check against
#             (default paper_runs/baseline; empty string skips the check)
#   STAMP     fixed run id instead of a UTC timestamp
#   REPEATS   override the spec's repeat count
set -eu

cd "$(dirname "$0")/../.."

SPEC=${SPEC:-scripts/paper/experiments.json}
BASELINE=${BASELINE:-paper_runs/baseline}

ARGS="-spec $SPEC"
if [ -n "${STAMP:-}" ]; then
    ARGS="$ARGS -stamp $STAMP"
fi
if [ -n "${REPEATS:-}" ]; then
    ARGS="$ARGS -repeats $REPEATS"
fi
if [ -n "$BASELINE" ]; then
    ARGS="$ARGS -check $BASELINE"
fi

# shellcheck disable=SC2086
go run ./cmd/paperrun $ARGS
