#!/usr/bin/env bash
# Full reproduction pipeline: build, test, regenerate every table/figure.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build
cmake --build build
ctest --test-dir build --output-on-failure

echo
echo "=== regenerating all tables and figures (artifacts -> proof_artifacts/) ==="
# The bench list CMake wrote, not a glob: a build tree keeps the binaries of
# benches deleted since it was first configured.
for b in $(<build/bench/benches.txt); do
  "build/bench/$b"
done

echo
echo "=== examples ==="
for e in build/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] && "$e"
done
