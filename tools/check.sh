#!/usr/bin/env bash
# Tier-1 verification: plain Release build + ctest and the bench gates,
# then a 5 s bit-exact audit run of each control-tick benchmark workload
# (perfbench/run.py, as CI runs it), then an ASan/UBSan build
# (READS_SANITIZE=ON, assert() compiled in) running ctest and the
# chaos-cluster gates, then a ThreadSanitizer build (READS_TSAN=ON) of the
# concurrency-heavy targets running the serve/queue/thread-pool tests. Run
# from the repo root:
#
#   tools/check.sh [extra ctest args...]
#
# Build trees: build/ (plain), build-perfbench/ (control-tick benchmark),
# build-asan/ and build-tsan/ (sanitized). All are incremental across runs.
#
# Every bench phase also runs its artifact through python3 -m json.tool,
# which fails the phase on malformed JSON that the exit code alone would
# not catch.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)" "$@")

echo "== chaos campaign (fault-injection gates) =="
# Every fault scenario plus the replica-crash audit; exits non-zero on a
# skipped tick, a lost/duplicated frame, or unbounded recovery.
(cd build && ./bench/bench_chaos --quick --out=BENCH_chaos.json \
  && python3 -m json.tool BENCH_chaos.json >/dev/null)

echo "== lifecycle campaign (drift -> requalify -> hot-swap gates) =="
# Drives >=3 drift/requalify/swap cycles plus a shadow promote and a shadow
# rollback; exits non-zero on a lost/duplicated/late frame, an uncovered
# reconfiguration window, or an unqualified candidate reaching traffic.
(cd build && ./bench/bench_lifecycle --quick --out=BENCH_lifecycle.json \
  && python3 -m json.tool BENCH_lifecycle.json >/dev/null)

echo "== autotune campaign (Pareto front / dominance / surrogate gates) =="
# Surrogate-guided precision/reuse search on the deployed U-Net; exits
# non-zero when the validated front is too small, the selected point fails
# to dominate the layer_based_config baseline under the Arria-10 budget and
# the 3 ms deadline, or the surrogate's predicted-vs-measured Spearman rank
# correlation drops below 0.7.
(cd build && ./bench/bench_autotune --tune_quick --out=BENCH_autotune.json \
  && python3 -m json.tool BENCH_autotune.json >/dev/null)

echo "== kernel engine gates (bit-identity / speedup / narrow lanes) =="
# Fast path must stay bit-identical to the reference executor, beat it by
# >= 8x (committed artifact: 0.393 ms per frame, ~48.8x; the lower bar
# absorbs CI host noise), prove >= half the MAC layers onto narrow int16
# lanes, and split the frame into per-layer rows that sum to within 5% of
# it (0.383 of 0.385 ms in the artifact, 85% in the MAC layers).
(cd build && ./bench/bench_kernels --min_speedup=8 --min_narrow_fraction=0.5 \
  --out=BENCH_kernels.json && python3 -m json.tool BENCH_kernels.json >/dev/null)

echo "== serving gates (exactness / overload / zero-allocation frames) =="
# Poisson sweep gates plus the allocation audit: 1024 steady-state frames
# through assemble -> submit_into -> replica -> slot with exactly 0 heap
# allocations (counted by util::allocguard's global operator new).
(cd build && ./bench/bench_serve --replicas=1 --out=BENCH_serve.json \
  && python3 -m json.tool BENCH_serve.json >/dev/null)

echo "== cluster gates (multi-process exactness / live resharding) =="
# An in-process router + replica child processes over both TCP and
# Unix-domain sockets; exits non-zero on a lost/duplicated/bit-divergent
# accepted frame or a reshard that fails to drain exactly-once. The >= 3x
# goodput scaling gate self-skips (recorded in the artifact) on hosts with
# < 4 hardware threads or < 4 replica processes.
(cd build && ./bench/bench_cluster --quick --out=BENCH_cluster.json \
  && python3 -m json.tool BENCH_cluster.json >/dev/null)

echo "== chaos-cluster gates (network faults / failover / exactly-once) =="
# The same tier with a hostile wire and dying processes, the router now a
# child process: every client-side socket-fault scenario (torn,
# short_write, eagain, corrupt, refuse, stall), a replica SIGKILL, a router
# SIGKILL + journal recovery on the same endpoint, and a router-side
# net_storm, over both transports. Exits non-zero on a lost/duplicated/
# bit-divergent accepted frame, a scenario that failed to inject, a client
# that never had to reconnect, or a restart that failed to recover
# journaled membership. Both cluster benches share one harness
# (bench/cluster_harness.*): replica/router roles, oracle, audit, fleet.
(cd build && ./bench/bench_chaos_cluster --quick --out=BENCH_chaos_cluster.json \
  && python3 -m json.tool BENCH_chaos_cluster.json >/dev/null)

echo "== control-tick benchmark runs (bit-exact audit per workload) =="
# run.py exits non-zero when a run's audit reads correct: false.
# 5 s is the shortest run that fills cluster_uds's 1,000-tick window.
for w in edge_nominal edge_overload cluster_uds; do
  CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py \
    --workload "$w" --seed 1 --seconds 5 --trace 0 || exit 1
done

echo "== sanitizer build (address,undefined) =="
# Release's flags without -DNDEBUG, so this tree also compiles assert().
cmake -B build-asan -S . -DREADS_SANITIZE=ON -DCMAKE_CXX_FLAGS_RELEASE=-O3 \
  >/dev/null
cmake --build build-asan -j"$(nproc)"
(cd build-asan && ctest --output-on-failure -j"$(nproc)" "$@")

echo "== chaos-cluster gates under ASan/UBSan (journal recovery) =="
# The router SIGKILL + journal replay of a really killed process, and every
# socket-fault path, with the sanitizers watching the parsers of outside
# bytes. It runs from build/ to load the plain benches' model cache, and
# writes its artifact into build-asan/.
(cd build && ../build-asan/bench/bench_chaos_cluster --quick \
  --out=../build-asan/BENCH_chaos_cluster.json \
  && python3 -m json.tool ../build-asan/BENCH_chaos_cluster.json >/dev/null)

echo "== thread sanitizer build (serve / concurrency tests) =="
cmake -B build-tsan -S . -DREADS_TSAN=ON >/dev/null
cmake --build build-tsan -j"$(nproc)" \
  --target test_serve test_util test_fault test_lifecycle test_cluster \
  test_autotune
# Model-cache-backed integration tests (FaultPipeline) are
# covered by the plain and ASan runs; under TSan we run the
# pure-concurrency suites, including the scheduled-crash recovery path,
# the lifecycle registry/requalifier publication races, the router's
# connection table (admin add/remove + stats concurrent with traffic), and
# the failover machinery (stall quarantine + redispatch, journal recovery
# across an in-process restart, resilient-client reconnect/resubmit).
(cd build-tsan && ctest --output-on-failure -j"$(nproc)" \
  -R 'BoundedQueue|Replica|GatewayTest|ServeMetrics|ThreadPool|Stats|Histogram|Percentiles|FaultPlan|FaultInjector|NetPlan|NetInjector|ChaosServe|ModelRegistry|Requalifier|DriftMonitor|RouterCluster|RouterAdmin|RouterFailover|RouterJournal|ClusterProtocol|HashRing|Surrogate|ParetoFront|Autotuner')

echo "== all checks passed =="
