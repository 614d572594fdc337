// Machinery shared by bench_cluster and bench_chaos_cluster: the replica
// and router child roles, the tick oracle, the exactly-once audit, the tick
// runner and the process fleet. Each bench keeps only its phases, gates and
// artifact writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/proc.hpp"
#include "cluster/protocol.hpp"
#include "cluster/resilient_client.hpp"
#include "common.hpp"
#include "net/packet.hpp"
#include "train/standardize.hpp"

namespace reads::bench {

using Clock = std::chrono::steady_clock;

inline double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Reading counts -> raw floats -> standardize. Bit-identity of the whole
/// cluster path reduces to the replica and the oracle both running this.
tensor::Tensor decode_frame(std::span<const std::uint32_t> readings,
                            const train::Standardizer& standardizer);

/// Runs this process as a cluster child when `--role` is `replica` (one
/// deployed U-Net behind a kByStream gateway) or `router` (fast reconnect,
/// 1.5 s stall timeout, optional journal and socket chaos) and returns its
/// exit code; std::nullopt for the bench role.
std::optional<int> run_role(util::Cli& cli);

/// Sixteen seeded frames of BLM counts, the seven hub packets of any tick,
/// and the direct single-process output of every frame.
struct TickSet {
  TickSet(const hls::QuantizedModel& direct,
          const train::Standardizer& standardizer, std::uint64_t seed);

  std::size_t frame_of(std::uint64_t stream, std::uint32_t seq) const;
  std::vector<net::BlmPacket> packets_for(std::uint64_t stream,
                                          std::uint32_t seq) const;

  /// Per hub: first monitor and monitor count.
  std::vector<std::pair<std::uint16_t, std::uint16_t>> layout;
  std::vector<std::vector<std::uint32_t>> enc;  ///< [frame][monitor] counts
  std::vector<tensor::Tensor> oracle;           ///< direct-inference outputs
};

/// Every submitted tick must end in exactly one terminal reply (result or
/// shed), and every result must equal the oracle bit for bit.
struct Audit {
  std::size_t submitted = 0;
  std::size_t results = 0;
  std::size_t sheds = 0;
  std::size_t duplicated = 0;
  std::size_t mismatched = 0;
  std::size_t terminal = 0;

  std::size_t lost() const { return submitted - terminal; }  ///< pending
  bool exact() const {
    return lost() == 0 && duplicated == 0 && mismatched == 0 && results > 0;
  }

  void expect(std::uint64_t req_id, std::size_t frame);
  void note(const TickSet& ticks, const cluster::Message& msg);
  /// "N ticks: a results, b sheds, c lost, d duplicated, e divergent".
  std::string summary() const;
  /// The artifact's "verify" object.
  std::string json() const;

 private:
  struct TickState {
    std::size_t frame = 0;
    bool terminal = false;
  };
  std::unordered_map<std::uint64_t, TickState> ledger_;  ///< by req_id
};

/// Submits ticks through one cluster::ResilientClient at a time into an
/// Audit; audit and sequence numbers outlive a client, so each phase may
/// connect a fresh one. On a clean wire it never reconnects or resubmits.
class TickRunner {
 public:
  TickRunner(const TickSet& ticks, Audit& audit, std::size_t streams)
      : ticks_(ticks), audit_(audit), streams_(streams) {}

  cluster::ResilientClient& connect(const std::string& endpoint,
                                    std::uint64_t jitter_seed);

  /// One tick of `stream` at `seq` (streams 0, 4, ... are hard-RT).
  void submit(std::uint64_t stream, std::uint32_t seq);
  /// One tick per stream at the next sequence number, not drained.
  void submit_round();
  /// `n` closed-loop rounds, at most four in flight.
  void rounds(std::size_t n);
  /// Audit whatever has arrived; the first poll may wait `wait_ms`.
  void drain(double wait_ms);
  /// Drain until nothing is pending or `timeout_s` passes.
  void drain_all(double timeout_s);

  std::uint32_t seq = 0;  ///< next sequence number

 private:
  const TickSet& ticks_;
  Audit& audit_;
  std::size_t streams_;
  std::optional<cluster::ResilientClient> client_;
};

/// The children of one transport run. Destruction SIGKILLs any still
/// running and unlinks the uds sockets and the router journal.
class Fleet {
 public:
  /// `listen` overrides the router endpoint (empty = auto per transport).
  Fleet(std::string transport, double deadline_ms, std::string listen = {});
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Spawn `n` replica children; false (after saying so) if one fails.
  bool spawn_replicas(std::size_t n);
  /// One more replica child; its endpoint, or "" if it never listened.
  std::string spawn_replica();
  /// The router's listen spec: the override, a uds path, or tcp port 0.
  std::string router_listen() const;
  /// (Re)spawn the router child over all replicas with the run's journal,
  /// on its first endpoint; `extra` appends flags (router-side chaos).
  bool spawn_router(const std::vector<std::string>& extra = {});
  /// SIGTERM router, then replicas; true when none needed a SIGKILL.
  bool shutdown();

  std::vector<cluster::ChildProcess> replicas;
  std::vector<std::string> endpoints;  ///< of the replicas, spawn order
  std::optional<cluster::ChildProcess> router;
  std::string router_endpoint;  ///< resolved by the first spawn_router

 private:
  std::string tmp_path(const std::string& suffix) const;

  std::string transport_;
  double deadline_ms_;
  std::string listen_;
  std::string journal_;
};

/// Adds the named counters of one stats reply into their slots. A missing
/// key or an empty reply returns an error for a gate; it never throws.
std::string add_counters(
    const std::string& stats_json,
    std::initializer_list<std::pair<const char*, std::uint64_t*>> counters);

/// Stats JSON of the router or replica at `endpoint`; "" if it is silent.
std::string stats_of(const std::string& endpoint);

/// `--transport` as runs: both = tcp, then uds.
std::vector<std::string> transports(const StandardFlags& flags);

inline const char* gate(bool pass) { return pass ? "\"pass\"" : "\"fail\""; }

/// Write the artifact, print the verdict, and return the exit code.
int finish(const std::string& out_path, const std::string& json, bool ok);

}  // namespace reads::bench
