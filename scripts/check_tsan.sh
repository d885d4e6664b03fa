#!/usr/bin/env bash
# Builds the suite with ThreadSanitizer (-DPROOF_SANITIZE=thread) into
# build-tsan/ and runs the concurrency-sensitive tests: the thread pool, the
# parallel-sweep determinism suite, the preparation cache (including its
# dedicated concurrency suite), the observability layer's sharded
# metrics/trace buffer, and the serve daemon (protocol framing over real
# sockets plus the full client/server e2e suite — acceptor, sessions,
# admission ledger, drain), and the critical-path engine (multi-stream
# schedule + DAG reconstruction from several threads over one shared built
# engine), and the guarded optimizer (variants measured concurrently on the
# pool against a shared incumbent graph, plus its jobs-1-vs-4 byte-identity
# suite), and the LLM decode sweep (batch x position grid fanned out over
# the pool with index-written points, plus its own jobs-1-vs-4 byte-identity
# test; every platform's plan builds run concurrently in its first pass, and
# the gpt2/llama7b decode oracle checks those grids against the uncached
# path), and the shape-polymorphic AnalysisPlan cache (mixed batch sizes
# instantiating one shared frozen plan concurrently, and eviction under a
# capacity bound).  Any data race in the
# pool, the cache's shared PreparedEngine entries, the graphs' lazy index
# maps, the obs shards or the daemon's session teardown fails the run.
#
# Usage: scripts/check_tsan.sh [extra gtest filter]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
FILTER="${1:-ThreadPool.*:ParallelDeterminism.*:PrepCache.*:BatchSweep.*:SweepText.*:Obs.*:ServeJson.*:ServeFraming.*:ServeEnvelope.*:ServeDeadline.*:ServeE2e.*:*ServeGolden*:CriticalPathConcurrency.*:CriticalPath.ReconstructsProgramOrderAndSyncEdges:OptGuard.*:OptDeterminism.*:DecodeSweep.*:CacheOracleDecode.*:PlanCache.*}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPROOF_SANITIZE=thread \
  -DPROOF_BUILD_BENCH=OFF \
  -DPROOF_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j"$(nproc)" --target proof_tests

# halt_on_error: fail fast on the first race report.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "$BUILD_DIR/tests/proof_tests" --gtest_filter="$FILTER"

echo "TSan clean: $FILTER"
