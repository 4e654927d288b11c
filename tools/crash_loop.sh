#!/usr/bin/env bash
# Crash-recovery loop (docs/DURABILITY.md): repeatedly start a write-dominated
# mvstm run with a durable redo log, kill -9 it at a pseudo-random offset, and
# replay whatever survived under two different backends. Every iteration must
# recover (torn tails are expected, corruption is not: a replay that prints
# "shutdown: corrupt" fails the iteration, though --recover exits 0 for it)
# and both replays must print the same "fingerprint:" line — the
# content-based world fingerprint is backend-independent, so a disagreement
# means the log or the replay is wrong.
#
# usage: crash_loop.sh <stmbench7-binary> [iterations] [artifact-dir]
#
# On failure the surviving redo log and every captured output land in
# <artifact-dir> (default /tmp/sb7_crash_loop_artifacts) for CI to upload.
# CRASH_LOOP_SEED varies the run seeds and kill offsets (default 20070326).
set -u

BIN=${1:?usage: crash_loop.sh <stmbench7-binary> [iterations] [artifact-dir]}
ITERS=${2:-10}
ARTIFACTS=${3:-/tmp/sb7_crash_loop_artifacts}
SEED=${CRASH_LOOP_SEED:-20070326}

WORK=$(mktemp -d /tmp/sb7_crash_loop.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

fail() {
  mkdir -p "$ARTIFACTS"
  cp "$WORK"/*.redo "$WORK"/*.out "$ARTIFACTS/" 2>/dev/null || true
  echo "crash_loop: FAIL: $1 (artifacts in $ARTIFACTS)" >&2
  exit 1
}

fingerprint_of() {
  # The terminal report's fingerprint line; crash_loop greps, never parses.
  grep '^fingerprint:' "$1" | head -n 1
}

for i in $(seq 1 "$ITERS"); do
  log=$WORK/run$i.redo
  "$BIN" -g mvstm -w w -s tiny -t 4 -l 30 --seed $((SEED + i)) \
      --redo-log "$log" --durability group >"$WORK/run$i.out" 2>&1 &
  pid=$!

  # 30-329 ms after launch: early kills land mid-structure-build (header-only
  # or empty logs), late ones mid-storm (torn group tails). Both must recover.
  offset_ms=$(( (SEED + i * 7919) % 300 + 30 ))
  sleep "0.$(printf '%03d' "$offset_ms")"
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null

  [ -e "$log" ] || fail "iteration $i: run died before creating $log"

  "$BIN" --recover "$log" -g mvstm >"$WORK/run$i.mvstm.out" 2>&1 ||
    fail "iteration $i: mvstm replay failed (run$i.mvstm.out)"
  "$BIN" --recover "$log" -g tl2 >"$WORK/run$i.tl2.out" 2>&1 ||
    fail "iteration $i: tl2 replay failed (run$i.tl2.out)"

  for backend in mvstm tl2; do
    if grep -q '^shutdown: corrupt' "$WORK/run$i.$backend.out"; then
      fail "iteration $i: $backend replay read the log as corrupt: $(grep '^shutdown:' "$WORK/run$i.$backend.out")"
    fi
  done

  fp_mvstm=$(fingerprint_of "$WORK/run$i.mvstm.out")
  fp_tl2=$(fingerprint_of "$WORK/run$i.tl2.out")
  [ -n "$fp_mvstm" ] || fail "iteration $i: mvstm replay printed no fingerprint"
  if [ "$fp_mvstm" != "$fp_tl2" ]; then
    fail "iteration $i: replay fingerprints disagree: mvstm '$fp_mvstm' vs tl2 '$fp_tl2'"
  fi
  echo "crash_loop: iteration $i ok (killed at +${offset_ms}ms, $fp_mvstm)"
done

echo "crash_loop: $ITERS iterations recovered consistently"
