#!/usr/bin/env bash
# End-to-end smoke of the `proof serve` daemon over a unix socket:
#  1. start the daemon, wait for its "listening <endpoint>" ready line;
#  2. drive it with concurrent clients (two analyzes + a stats call);
#  3. check the daemon's analyze output matches the single-shot CLI after
#     normalizing the two wall-clock-dependent timing fields;
#  4. warm vs cold: one `profile` of a model the daemon has not loaded, then
#     repeats; the daemon's own `stats` latency (client start-up excluded)
#     must show the cold request (max_s) >= 3x the warm median (p50_s);
#  5. graceful shutdown via the `shutdown` method; the daemon must drain
#     and exit 0.
#
# Usage: scripts/serve_smoke.sh [path/to/proof]
set -euo pipefail

cd "$(dirname "$0")/.."

PROOF="${1:-build/tools/proof}"
SOCK="/tmp/proof_smoke_$$.sock"
OUT="$(mktemp -d)"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$OUT" "$SOCK"' EXIT

# Zero the fields that legitimately differ run to run (analysis wall time).
normalize() {
  sed -E 's/"(analysis_time_s|counter_profiling_time_s)":[0-9.eE+-]+/"\1":0/g' "$1"
}

"$PROOF" serve --listen "unix:$SOCK" --preload resnet50 \
  > "$OUT/serve.log" 2> "$OUT/serve.err" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  grep -q '^listening ' "$OUT/serve.log" 2>/dev/null && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$OUT/serve.err"; exit 1; }
  sleep 0.1
done
grep -q '^listening ' "$OUT/serve.log"
echo "daemon ready: $(cat "$OUT/serve.log")"

# Concurrent traffic: two heavy analyzes race a stats call.
"$PROOF" client --connect "unix:$SOCK" --method analyze \
  --model resnet50 --platform a100 --dtype fp16 --batch 4 --mode predicted \
  --json "$OUT/daemon_resnet50.json" > /dev/null &
A=$!
"$PROOF" client --connect "unix:$SOCK" --method analyze \
  --model shufflenetv2_10 --platform a100 --dtype fp16 --batch 4 \
  --mode predicted --json "$OUT/daemon_shufflenet.json" > /dev/null &
B=$!
"$PROOF" client --connect "unix:$SOCK" --method stats > "$OUT/stats.json"
wait "$A" "$B"
test -s "$OUT/daemon_resnet50.json"
test -s "$OUT/daemon_shufflenet.json"
grep -q '"model_pool"' "$OUT/stats.json"
grep -q '"prep_cache"' "$OUT/stats.json"

# The daemon's analyze must match the single-shot CLI (PROOF_OBS=0 keeps the
# wall-clock self-profile section out of the single-shot report, matching the
# daemon's determinism contract).
PROOF_OBS=0 "$PROOF" profile --model resnet50 --platform a100 --dtype fp16 \
  --batch 4 --mode predicted --json "$OUT/single_resnet50.json" > /dev/null
normalize "$OUT/daemon_resnet50.json" > "$OUT/daemon_norm.json"
normalize "$OUT/single_resnet50.json" > "$OUT/single_norm.json"
cmp "$OUT/daemon_norm.json" "$OUT/single_norm.json"
echo "daemon analyze matches single-shot CLI (normalized)"

# Warm vs cold: the first bert_base profile pays the model build and the
# engine preparation; the next 8 hit the ModelPool and the PrepCache.
for _ in $(seq 1 9); do
  "$PROOF" client --connect "unix:$SOCK" --method profile --model bert_base \
    --platform a100 > /dev/null
done
"$PROOF" client --connect "unix:$SOCK" --method stats > "$OUT/stats_profile.json"
row="$(grep -o '"profile":{[^}]*}' "$OUT/stats_profile.json" || true)"
field() { sed -E "s/.*\"$1\":([^,}]+).*/\1/" <<< "$row"; }
if [ "$(field count)" != 9 ]; then
  echo "stats should time 9 profile requests, got: ${row:-no profile row}"
  exit 1
fi
awk -v cold="$(field max_s)" -v warm="$(field p50_s)" 'BEGIN {
  printf "profile: cold %.3f ms, warm p50 %.3f ms, %.1fx\n",
         cold * 1e3, warm * 1e3, cold / warm
  exit !(cold >= 3 * warm)
}' || { echo "warm profiles are not >= 3x faster than the cold one"; exit 1; }

# Graceful shutdown: ack first, then drain; daemon exits 0.
"$PROOF" client --connect "unix:$SOCK" --method shutdown > /dev/null
wait "$SERVER_PID"
SERVER_PID=""
echo "serve smoke: ok"
