// Cluster tier tests: endpoint parsing, the consistent-hash ring, envelope
// framing under adversarial read() chunking, the replica server's wire
// contract, and the router's core guarantees — exactly-once terminal
// replies, live resharding, crash redispatch, and close-then-drain
// shutdown — exercised over real sockets with cheap synthetic backends.
//
// The router/replica suites here run the full multi-component stack in one
// process (real TCP connections, real poll loops, no forking) so they stay
// fast and debuggable; the multi-process path is bench_cluster's job. The
// RouterAdmin suite drives the thread-safe admin API concurrently with
// traffic and is a ThreadSanitizer target (tools/check.sh).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/io.hpp"
#include "cluster/journal.hpp"
#include "cluster/protocol.hpp"
#include "cluster/replica_server.hpp"
#include "cluster/resilient_client.hpp"
#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "mutate.hpp"
#include "net/hub.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"
#include "serve/backend.hpp"
#include "serve/metrics.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace reads;
using namespace std::chrono_literals;
using tensor::Tensor;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMonitors = 21;
constexpr std::size_t kHubs = 7;

double elapsed_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- Endpoint ------------------------------------------------------------

TEST(Endpoint, ParsesTcpAndUdsSpecs) {
  const auto tcp = cluster::Endpoint::parse("tcp:127.0.0.1:8700");
  EXPECT_EQ(tcp.transport, cluster::Transport::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8700);
  EXPECT_EQ(tcp.str(), "tcp:127.0.0.1:8700");

  const auto uds = cluster::Endpoint::parse("uds:/tmp/reads-test.sock");
  EXPECT_EQ(uds.transport, cluster::Transport::kUds);
  EXPECT_EQ(uds.path, "/tmp/reads-test.sock");
  EXPECT_EQ(uds.str(), "uds:/tmp/reads-test.sock");
}

TEST(Endpoint, RejectsMalformedSpecs) {
  for (const char* bad :
       {"127.0.0.1:80", "tcp:", "tcp:host", "tcp:host:", "tcp:host:x",
        "tcp:host:70000", "uds:", "http:host:80"}) {
    EXPECT_THROW(cluster::Endpoint::parse(bad), std::invalid_argument) << bad;
  }
}

// ---- HashRing ------------------------------------------------------------

TEST(HashRing, OwnershipIsDeterministicAndCoversAllNodes) {
  cluster::HashRing a(64);
  cluster::HashRing b(64);
  for (std::uint64_t n : {1u, 2u, 3u}) {
    a.add(n);
    b.add(n);
  }
  std::map<std::uint64_t, std::size_t> owned;
  for (std::uint64_t s = 0; s < 200; ++s) {
    EXPECT_EQ(a.owner(s), b.owner(s));  // identical across instances
    ++owned[a.owner(s)];
  }
  // Every node owns a share (64 vnodes spread 3 nodes well over 200 keys).
  EXPECT_EQ(owned.size(), 3u);
}

TEST(HashRing, PlacementIsPinned) {
  // Recorded placements: ring positions feed live resharding across
  // processes, so a change to the hash (FNV-1a + util::mix64) must show up
  // here rather than silently moving streams.
  cluster::HashRing ring(64);
  for (std::uint64_t n : {1u, 2u, 3u}) ring.add(n);
  const std::map<std::uint64_t, std::uint64_t> expected = {
      {0, 2}, {1, 2}, {2, 3}, {3, 3}, {4, 3},
      {5, 2}, {6, 3}, {7, 3}, {42, 2}, {1000, 1}};
  for (const auto& [stream, owner] : expected) {
    EXPECT_EQ(ring.owner(stream), owner) << "stream " << stream;
  }
  EXPECT_EQ(cluster::HashRing::stream_hash(0), 0x813f0174a2367c13ULL);
}

TEST(HashRing, RemovingANodeMovesOnlyItsStreams) {
  cluster::HashRing ring(64);
  ring.add(1);
  ring.add(2);
  ring.add(3);
  std::map<std::uint64_t, std::uint64_t> before;
  for (std::uint64_t s = 0; s < 200; ++s) before[s] = ring.owner(s);
  ring.remove(2);
  EXPECT_FALSE(ring.contains(2));
  for (std::uint64_t s = 0; s < 200; ++s) {
    if (before[s] == 2) {
      EXPECT_NE(ring.owner(s), 2u);  // moved somewhere live
    } else {
      EXPECT_EQ(ring.owner(s), before[s]);  // everything else stays put
    }
  }
}

TEST(HashRing, EmptyRingThrowsOnOwnership) {
  cluster::HashRing ring(8);
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW(ring.owner(7), std::logic_error);
  ring.add(5);
  EXPECT_EQ(ring.owner(7), 5u);
  ring.remove(5);
  EXPECT_THROW(ring.owner(7), std::logic_error);
}

// ---- protocol codecs + MessageReader ------------------------------------

net::BlmPacket sealed_packet(std::uint8_t hub, std::uint32_t seq,
                             std::uint16_t first, std::size_t count,
                             std::uint32_t base) {
  net::BlmPacket p;
  p.hub_id = hub;
  p.sequence = seq;
  p.first_monitor = first;
  for (std::size_t i = 0; i < count; ++i) {
    p.readings.push_back(base + static_cast<std::uint32_t>(i));
  }
  net::seal_packet(p);
  return p;
}

TEST(ClusterProtocol, SubmitRoundTripsThroughOneByteChunks) {
  cluster::Submit s;
  s.stream = 0x1234'5678'9abcULL;
  s.req_id = 42;
  s.slo = 0;
  s.packets.push_back(sealed_packet(0, 7, 0, 3, 1600));
  s.packets.push_back(sealed_packet(1, 7, 3, 4, 1700));
  std::vector<std::uint8_t> bytes;
  cluster::append_submit(bytes, s);

  cluster::MessageReader reader;
  std::size_t got = 0;
  for (const auto b : bytes) {
    ASSERT_TRUE(reader.feed(&b, 1));
    while (auto m = reader.next()) {
      ASSERT_EQ(m->type, cluster::MsgType::kSubmit);
      const auto back = cluster::decode_submit(m->payload);
      EXPECT_EQ(back.stream, s.stream);
      EXPECT_EQ(back.req_id, s.req_id);
      EXPECT_EQ(back.slo, s.slo);
      ASSERT_EQ(back.packets.size(), 2u);
      EXPECT_EQ(back.packets[0].readings, s.packets[0].readings);
      EXPECT_EQ(back.packets[1].crc, s.packets[1].crc);
      EXPECT_TRUE(net::packet_crc_ok(back.packets[1]));
      ++got;
    }
  }
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(ClusterProtocol, CoalescedMessagesSplitMidEnvelopeReassemble) {
  std::vector<std::uint8_t> bytes;
  cluster::append_hello(bytes, cluster::Hello{cluster::Role::kReplica,
                                              cluster::kProtocolVersion});
  cluster::Result r;
  r.id = 99;
  r.deadline_met = 0;
  r.model_epoch = 3;
  r.dims = {static_cast<std::uint32_t>(kMonitors), 1u};
  r.data = {-0.0f, 1.5f, 3.25e-40f};  // signed zero + denormal stay bit-exact
  cluster::append_result(bytes, r);
  cluster::Shed sh;
  sh.id = 100;
  sh.reason = cluster::ShedReason::kHeldTooLong;
  cluster::append_shed(bytes, sh);

  // One read() delivering everything up to mid-way through the last
  // envelope's length field, then the rest.
  const std::size_t cut = bytes.size() - 8;
  cluster::MessageReader reader;
  ASSERT_TRUE(reader.feed(bytes.data(), cut));
  ASSERT_TRUE(reader.feed(bytes.data() + cut, bytes.size() - cut));

  auto m1 = reader.next();
  ASSERT_TRUE(m1 && m1->type == cluster::MsgType::kHello);
  EXPECT_EQ(cluster::decode_hello(m1->payload).role, cluster::Role::kReplica);
  auto m2 = reader.next();
  ASSERT_TRUE(m2 && m2->type == cluster::MsgType::kResult);
  const auto rb = cluster::decode_result(m2->payload);
  EXPECT_EQ(rb.id, 99u);
  EXPECT_EQ(rb.deadline_met, 0);
  EXPECT_EQ(rb.model_epoch, 3u);
  EXPECT_EQ(rb.dims, r.dims);
  ASSERT_EQ(rb.data.size(), 3u);
  EXPECT_EQ(std::signbit(rb.data[0]), true);
  EXPECT_EQ(rb.data[1], 1.5f);
  EXPECT_EQ(rb.data[2], 3.25e-40f);
  auto m3 = reader.next();
  ASSERT_TRUE(m3 && m3->type == cluster::MsgType::kShed);
  EXPECT_EQ(cluster::decode_shed(m3->payload).reason,
            cluster::ShedReason::kHeldTooLong);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(ClusterProtocol, ImplausibleEnvelopeLengthBreaksTheStream) {
  std::vector<std::uint8_t> bytes(cluster::kEnvelopeHeader, 0);
  bytes[0] = 0xff;  // payload_len LE = 0xffffffff
  bytes[1] = 0xff;
  bytes[2] = 0xff;
  bytes[3] = 0xff;
  bytes[4] = static_cast<std::uint8_t>(cluster::MsgType::kSubmit);
  cluster::MessageReader reader;
  EXPECT_FALSE(reader.feed(bytes.data(), bytes.size()));
  EXPECT_TRUE(reader.broken());
  std::vector<std::uint8_t> fine;
  cluster::append_stats_request(fine);
  EXPECT_FALSE(reader.feed(fine.data(), fine.size()));
  EXPECT_FALSE(reader.next().has_value());
}

TEST(ClusterProtocol, FuzzedCorruptionNeverMisframesOrHangs) {
  // A clean multi-message stream, then 300 seeded mutations of it: random
  // bit flips, truncation, or both, fed through the reader in random read()
  // chunk sizes. The contract under arbitrary damage: whatever parses must
  // be an exact prefix of the original message sequence (the envelope CRC
  // rejects everything downstream of the first damaged record by latching
  // broken()), and the reader never crashes, hangs, or invents a message.
  std::vector<std::uint8_t> clean;
  cluster::append_hello(clean, {cluster::Role::kClient,
                                cluster::kProtocolVersion});
  cluster::Result r;
  r.id = 7;
  r.model_epoch = 2;
  r.dims = {3u, 1u};
  r.data = {0.5f, -2.0f, 1e-20f};
  cluster::append_result(clean, r);
  cluster::Submit s;
  s.stream = 11;
  s.req_id = (11ull << 32) | 4u;
  s.slo = 1;
  s.packets.push_back(sealed_packet(0, 4, 0, 9, 1500));
  cluster::append_submit(clean, s);
  cluster::append_shed(clean, {9, cluster::ShedReason::kQueueFull});
  cluster::append_stats_request(clean);

  std::vector<cluster::Message> originals;
  {
    cluster::MessageReader ref;
    ASSERT_TRUE(ref.feed(clean.data(), clean.size()));
    while (auto m = ref.next()) originals.push_back(std::move(*m));
    ASSERT_EQ(originals.size(), 5u);
  }

  util::Xoshiro256 rng(0xF022u);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::uint8_t> bytes = clean;
    const auto mode = rng.uniform_int(3);  // 0: flips, 1: truncate, 2: both
    if (mode != 0) {
      bytes.resize(1 + rng.uniform_int(bytes.size() - 1));
    }
    if (mode != 1) {
      const auto flips = 1 + rng.uniform_int(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const auto at = rng.uniform_int(bytes.size());
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
      }
    }

    cluster::MessageReader reader;
    std::size_t parsed = 0;
    bool refused = false;
    std::size_t off = 0;
    while (off < bytes.size() && !refused) {
      const std::size_t chunk =
          std::min(bytes.size() - off,
                   static_cast<std::size_t>(1 + rng.uniform_int(16)));
      refused = !reader.feed(bytes.data() + off, chunk);
      off += chunk;
      while (auto m = reader.next()) {
        ASSERT_LT(parsed, originals.size()) << "iter " << iter;
        EXPECT_EQ(m->type, originals[parsed].type) << "iter " << iter;
        EXPECT_EQ(m->payload, originals[parsed].payload) << "iter " << iter;
        ++parsed;
      }
    }
    if (refused) {
      EXPECT_TRUE(reader.broken());
      // Latched: clean bytes afterwards must not revive the stream.
      EXPECT_FALSE(reader.feed(clean.data(), clean.size()));
      EXPECT_FALSE(reader.next().has_value());
    }
  }
}

TEST(ClusterProtocol, AdminCodecsRoundTrip) {
  // The wire admin is stats and shutdown only; their type values stay
  // where they were when membership messages still held 6-8.
  EXPECT_EQ(static_cast<int>(cluster::MsgType::kStatsRequest), 9);
  EXPECT_EQ(static_cast<int>(cluster::MsgType::kStatsReply), 10);
  EXPECT_EQ(static_cast<int>(cluster::MsgType::kShutdown), 11);
  std::vector<std::uint8_t> bytes;
  cluster::append_stats_request(bytes);
  cluster::append_stats_reply(bytes, {"{\"ok\": true}"});
  cluster::append_shutdown(bytes);
  cluster::MessageReader reader;
  ASSERT_TRUE(reader.feed(bytes.data(), bytes.size()));
  auto request = reader.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->type, cluster::MsgType::kStatsRequest);
  EXPECT_TRUE(request->payload.empty());
  auto reply = reader.next();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, cluster::MsgType::kStatsReply);
  EXPECT_EQ(cluster::decode_stats_reply(reply->payload).json,
            "{\"ok\": true}");
  auto shutdown = reader.next();
  ASSERT_TRUE(shutdown.has_value());
  EXPECT_EQ(shutdown->type, cluster::MsgType::kShutdown);
  EXPECT_TRUE(shutdown->payload.empty());
  EXPECT_FALSE(reader.next().has_value());
}

// ---- shared cluster harness ---------------------------------------------

/// Deterministic stand-in for the quantized model: out = 2 * in + 1,
/// element-wise. Bit-exact across "replicas" like QuantizedBackend is.
class SyntheticBackend final : public serve::Backend {
 public:
  explicit SyntheticBackend(std::chrono::microseconds service = 0us)
      : service_(service) {}
  std::string_view name() const noexcept override { return "synthetic"; }
  Tensor infer(const Tensor& frame) override {
    if (service_ > 0us) std::this_thread::sleep_for(service_);
    Tensor out = frame;
    for (auto& v : out.flat()) v = 2.0f * v + 1.0f;
    return out;
  }

 private:
  std::chrono::microseconds service_;
};

cluster::FrameDecoder raw_decoder() {
  return [](std::span<const std::uint32_t> readings, Tensor& out) {
    out.resize({readings.size(), 1});
    auto dst = out.flat();
    for (std::size_t i = 0; i < readings.size(); ++i) {
      dst[i] = static_cast<float>(net::decode_reading(readings[i]));
    }
  };
}

/// One in-process "replica process": a real socket server on its own thread.
struct ReplicaProc {
  std::unique_ptr<cluster::ReplicaServer> server;
  std::thread thread;
  std::string endpoint;

  ReplicaProc(std::size_t monitors, std::chrono::microseconds service,
              const std::string& listen = "tcp:127.0.0.1:0") {
    cluster::ReplicaServerConfig cfg;
    cfg.listen = cluster::Endpoint::parse(listen);
    cfg.monitors = monitors;
    cfg.gateway.sharding = serve::ShardPolicy::kByStream;
    cfg.gateway.deadline_ms = 1000.0;
    std::vector<std::unique_ptr<serve::Backend>> backends;
    backends.push_back(std::make_unique<SyntheticBackend>(service));
    server = std::make_unique<cluster::ReplicaServer>(
        std::move(cfg), std::move(backends), raw_decoder());
    endpoint = server->bound().str();
    thread = std::thread([s = server.get()] { s->run(); });
  }
  ~ReplicaProc() { stop(); }
  void stop() {
    if (server) server->request_stop();
    if (thread.joinable()) thread.join();
  }
};

/// Router on its own thread, stopped (and drained) on destruction.
struct RouterRun {
  cluster::Router router;
  std::thread thread;
  explicit RouterRun(cluster::RouterConfig cfg)
      : router(std::move(cfg)),
        thread([this] { router.run(); }) {}
  ~RouterRun() {
    router.request_stop();
    if (thread.joinable()) thread.join();
  }
};

cluster::RouterConfig router_config(const std::vector<std::string>& replicas) {
  cluster::RouterConfig cfg;
  cfg.listen = cluster::Endpoint::parse("tcp:127.0.0.1:0");
  cfg.replicas = replicas;
  cfg.assembler.monitors = kMonitors;
  cfg.assembler.hubs = kHubs;
  // Logical-property tests must not time out on a loaded 1-core CI host.
  cfg.best_effort_deadline_ms = 5000.0;
  return cfg;
}

/// Per-tick readings: a deterministic function of (stream, seq, monitor).
std::vector<std::uint32_t> tick_counts(std::uint64_t stream,
                                       std::uint32_t seq) {
  std::vector<std::uint32_t> counts(kMonitors);
  for (std::size_t m = 0; m < kMonitors; ++m) {
    counts[m] = net::encode_reading(
        100'000.0 + static_cast<double>(stream * 131 + seq * 7 + m));
  }
  return counts;
}

std::vector<float> expected_output(const std::vector<std::uint32_t>& counts) {
  std::vector<float> out(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out[i] =
        2.0f * static_cast<float>(net::decode_reading(counts[i])) + 1.0f;
  }
  return out;
}

cluster::Submit make_tick(std::uint64_t stream, std::uint32_t seq,
                          std::uint8_t slo = 1) {
  const auto counts = tick_counts(stream, seq);
  const auto layout = net::hub_layout(kMonitors, kHubs);
  cluster::Submit s;
  s.stream = stream;
  s.req_id = (stream << 32) | seq;
  s.slo = slo;
  for (std::size_t h = 0; h < kHubs; ++h) {
    net::BlmPacket p;
    p.hub_id = static_cast<std::uint8_t>(h);
    p.sequence = seq;
    p.first_monitor = layout[h].first;
    p.readings.assign(counts.begin() + layout[h].first,
                      counts.begin() + layout[h].first + layout[h].second);
    net::seal_packet(p);
    s.packets.push_back(std::move(p));
  }
  return s;
}

/// Client-side exactly-once audit.
struct Ledger {
  std::map<std::uint64_t, int> replies;  ///< req_id -> terminal replies seen
  std::size_t submitted = 0;
  std::size_t results = 0;
  std::size_t sheds = 0;
  std::size_t mismatched = 0;
  std::map<std::uint64_t, std::int64_t> last_seq;  ///< per-stream FIFO check
  bool fifo_ok = true;

  std::size_t terminal() const { return results + sheds; }
  std::size_t duplicated() const {
    std::size_t dup = 0;
    for (const auto& [id, n] : replies) {
      dup += n > 1 ? static_cast<std::size_t>(n - 1) : 0u;
    }
    return dup;
  }
};

void submit_tick(cluster::ClusterClient& client, Ledger& led,
                 std::uint64_t stream, std::uint32_t seq,
                 std::uint8_t slo = 1) {
  ASSERT_TRUE(client.submit(make_tick(stream, seq, slo)));
  ++led.submitted;
}

void note_reply(Ledger& led, const cluster::Message& msg) {
  if (msg.type == cluster::MsgType::kResult) {
    const auto r = cluster::decode_result(msg.payload);
    ++led.replies[r.id];
    ++led.results;
    const std::uint64_t stream = r.id >> 32;
    const auto seq = static_cast<std::int64_t>(r.id & 0xffffffffu);
    auto [it, fresh] = led.last_seq.try_emplace(stream, -1);
    if (!fresh && seq <= it->second) led.fifo_ok = false;
    it->second = seq;
    const auto want =
        expected_output(tick_counts(stream, static_cast<std::uint32_t>(seq)));
    const std::vector<std::uint32_t> want_dims{
        static_cast<std::uint32_t>(kMonitors), 1u};
    if (r.data != want || r.dims != want_dims) ++led.mismatched;
  } else if (msg.type == cluster::MsgType::kShed) {
    ++led.replies[cluster::decode_shed(msg.payload).id];
    ++led.sheds;
  }
}

/// Poll until every submitted tick has a terminal reply (or `timeout_ms`).
void drain_all(cluster::ClusterClient& client, Ledger& led,
               double timeout_ms = 30000.0) {
  const auto t0 = Clock::now();
  while (led.terminal() < led.submitted && elapsed_ms(t0) < timeout_ms) {
    if (auto msg = client.poll(100.0)) {
      note_reply(led, *msg);
    } else if (!client.connected()) {
      break;
    }
  }
}

std::uint64_t scan_counter(const std::string& json, const std::string& key) {
  return util::JsonScan(json, "stats").count(key);
}

// ---- ReplicaServer wire contract ----------------------------------------

std::optional<cluster::Message> read_message(int fd,
                                             cluster::MessageReader& reader,
                                             double timeout_ms) {
  const auto t0 = Clock::now();
  for (;;) {
    if (auto m = reader.next()) return m;
    if (elapsed_ms(t0) > timeout_ms) return std::nullopt;
    cluster::Poller poller;
    poller.want(fd, true, false);
    poller.wait(50);
    std::uint8_t buf[4096];
    const auto n = cluster::read_some(fd, buf, sizeof(buf));
    if (n < 0) return std::nullopt;
    if (n > 0) reader.feed(buf, static_cast<std::size_t>(n));
  }
}

TEST(ReplicaServerWire, AnswersJobsAndShedsBadFrames) {
  ReplicaProc replica(kMonitors, 0us);
  auto fd = cluster::connect_to(cluster::Endpoint::parse(replica.endpoint),
                                2000.0);
  std::vector<std::uint8_t> out;
  cluster::append_hello(out, {cluster::Role::kClient,
                              cluster::kProtocolVersion});

  // A valid jumbo job: one whole-ring packet.
  const auto counts = tick_counts(3, 9);
  cluster::Job job;
  job.gid = 501;
  job.stream = 3;
  job.slo = 1;
  job.deadline_ms = 1000.0;
  job.packet.hub_id = 0;
  job.packet.sequence = 9;
  job.packet.first_monitor = 0;
  job.packet.readings = counts;
  net::seal_packet(job.packet);
  cluster::append_job(out, job);

  // Wrong monitor count: framing-level refusal.
  cluster::Job runt = job;
  runt.gid = 502;
  runt.packet.readings.resize(5);
  net::seal_packet(runt.packet);
  cluster::append_job(out, runt);

  // Corrupt content: CRC refusal.
  cluster::Job corrupt = job;
  corrupt.gid = 503;
  corrupt.packet.readings[2] ^= 1u;  // break the seal
  cluster::append_job(out, corrupt);

  ASSERT_TRUE(cluster::write_all(fd.get(), out.data(), out.size(), 2000.0));

  // Sheds are written by the event loop, results by the completion thread —
  // arrival order across the two is not guaranteed, so match by id.
  std::map<std::uint64_t, cluster::Message> by_id;
  cluster::MessageReader reader;
  while (by_id.size() < 3) {
    auto msg = read_message(fd.get(), reader, 10000.0);
    ASSERT_TRUE(msg.has_value());
    const std::uint64_t id = msg->type == cluster::MsgType::kResult
                                 ? cluster::decode_result(msg->payload).id
                                 : cluster::decode_shed(msg->payload).id;
    by_id.emplace(id, std::move(*msg));
  }
  ASSERT_EQ(by_id.at(501).type, cluster::MsgType::kResult);
  const auto r = cluster::decode_result(by_id.at(501).payload);
  EXPECT_EQ(r.data, expected_output(counts));
  ASSERT_EQ(by_id.at(502).type, cluster::MsgType::kShed);
  EXPECT_EQ(cluster::decode_shed(by_id.at(502).payload).reason,
            cluster::ShedReason::kBadFrame);
  ASSERT_EQ(by_id.at(503).type, cluster::MsgType::kShed);
  EXPECT_EQ(cluster::decode_shed(by_id.at(503).payload).reason,
            cluster::ShedReason::kBadFrame);
}

// ---- Router end-to-end ---------------------------------------------------

TEST(RouterCluster, ServesExactlyOnceBitIdenticalInStreamOrder) {
  ReplicaProc a(kMonitors, 0us);
  ReplicaProc b(kMonitors, 0us);
  RouterRun run(router_config({a.endpoint, b.endpoint}));

  cluster::ClusterClient client(run.router.bound().str());
  Ledger led;
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    for (std::uint64_t stream = 0; stream < 6; ++stream) {
      submit_tick(client, led, stream, seq);
    }
  }
  drain_all(client, led);

  EXPECT_EQ(led.terminal(), led.submitted);
  EXPECT_EQ(led.results, 48u);  // nothing shed at these budgets
  EXPECT_EQ(led.sheds, 0u);
  EXPECT_EQ(led.duplicated(), 0u);
  EXPECT_EQ(led.mismatched, 0u);
  EXPECT_TRUE(led.fifo_ok);  // per-stream response order = submit order
}

TEST(RouterCluster, MalformedTickIsShedNotServed) {
  ReplicaProc a(kMonitors, 0us);
  RouterRun run(router_config({a.endpoint}));
  cluster::ClusterClient client(run.router.bound().str());

  auto tick = make_tick(1, 0);
  tick.packets[2].readings[0] ^= 1u;  // breaks that packet's CRC
  ASSERT_TRUE(client.submit(tick));
  auto msg = client.poll(10000.0);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, cluster::MsgType::kShed);
  const auto shed = cluster::decode_shed(msg->payload);
  EXPECT_EQ(shed.id, tick.req_id);
  EXPECT_EQ(shed.reason, cluster::ShedReason::kBadFrame);
}

// The replica's gateway is the one admission point for hard-RT ticks: the
// router stamps the remaining budget and forwards. An idle replica never
// sheds (work-conservation floor), so serial hard-RT ticks are all served.
TEST(RouterCluster, HardRtTicksReachAnIdleReplica) {
  ReplicaProc a(kMonitors, 0us);
  RouterRun run(router_config({a.endpoint}));
  cluster::ClusterClient client(run.router.bound().str());

  Ledger led;
  for (std::uint32_t seq = 0; seq < 20; ++seq) {
    submit_tick(client, led, 5, seq, /*slo=*/0);
    drain_all(client, led);  // one at a time: the replica is idle each time
  }
  EXPECT_EQ(led.results, 20u);
  EXPECT_EQ(led.sheds, 0u);
  EXPECT_EQ(led.mismatched, 0u);
  const auto stats = run.router.stats_json();
  EXPECT_EQ(scan_counter(stats, "predicted_late"), 0u);
  EXPECT_EQ(scan_counter(stats, "replica_sheds"), 0u);
}

// A hard-RT tick behind a busy backend is shed by the replica's gateway,
// and that shed reaches the client exactly once through the router.
TEST(RouterCluster, BusyReplicaShedsHardRtTickExactlyOnce) {
  ReplicaProc a(kMonitors, 200ms);
  RouterRun run(router_config({a.endpoint}));
  cluster::ClusterClient client(run.router.bound().str());
  const auto before = scan_counter(run.router.stats_json(), "replica_sheds");

  // The best-effort tick occupies the replica's only backend for ~200 ms.
  // Wait until it is in service: between the queue pop and the start of
  // service the gateway still sees an idle replica and would admit.
  Ledger led;
  submit_tick(client, led, 2, 0, /*slo=*/1);
  auto& worker = a.server->gateway().replica(0);
  const auto t_busy = Clock::now();
  while (!worker.busy() && elapsed_ms(t_busy) < 10000.0) {
    std::this_thread::sleep_for(100us);
  }
  ASSERT_TRUE(worker.busy());
  const auto hard = make_tick(2, 1, /*slo=*/0);
  ASSERT_TRUE(client.submit(hard));
  ++led.submitted;

  std::optional<cluster::Shed> hard_shed;
  const auto t0 = Clock::now();
  while (led.terminal() < led.submitted && elapsed_ms(t0) < 30000.0) {
    auto msg = client.poll(100.0);
    if (!msg) continue;
    note_reply(led, *msg);
    if (msg->type == cluster::MsgType::kShed) {
      hard_shed = cluster::decode_shed(msg->payload);
    }
  }
  // Nothing further may arrive for either tick.
  while (auto msg = client.poll(300.0)) note_reply(led, *msg);

  ASSERT_TRUE(hard_shed.has_value());
  EXPECT_EQ(hard_shed->id, hard.req_id);
  EXPECT_EQ(hard_shed->reason, cluster::ShedReason::kPredictedLate);
  EXPECT_EQ(led.replies[hard.req_id], 1);
  EXPECT_EQ(led.results, 1u);
  EXPECT_EQ(led.sheds, 1u);
  EXPECT_EQ(led.duplicated(), 0u);
  EXPECT_EQ(led.mismatched, 0u);
  const auto stats = run.router.stats_json();
  EXPECT_EQ(scan_counter(stats, "replica_sheds"), before + 1);
  EXPECT_EQ(scan_counter(stats, "predicted_late"), 0u);
}

TEST(RouterCluster, LiveReshardingDrainsExactlyOnce) {
  ReplicaProc a(kMonitors, 200us);
  ReplicaProc b(kMonitors, 200us);
  RouterRun run(router_config({a.endpoint, b.endpoint}));

  // The ring is deterministic: confirm node 1 owns at least one of our
  // streams once node 3 joined, so the removal below must move pins.
  cluster::HashRing sim(64);
  sim.add(1);
  sim.add(2);
  sim.add(3);
  bool node1_owns = false;
  for (std::uint64_t s = 0; s < 12; ++s) node1_owns |= sim.owner(s) == 1;
  ASSERT_TRUE(node1_owns);

  cluster::ClusterClient client(run.router.bound().str());
  Ledger led;
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    for (std::uint64_t stream = 0; stream < 12; ++stream) {
      submit_tick(client, led, stream, seq);
    }
  }

  // Grow the fleet, then drain node 1 out while traffic keeps flowing.
  ReplicaProc c(kMonitors, 200us);
  EXPECT_NE(run.router.add_replica(c.endpoint), 0u);
  std::atomic<bool> removed{false};
  std::thread remover([&] {
    removed.store(run.router.remove_replica(1));
  });
  for (std::uint32_t seq = 4; seq < 8; ++seq) {
    for (std::uint64_t stream = 0; stream < 12; ++stream) {
      submit_tick(client, led, stream, seq);
    }
    while (auto msg = client.poll(0.0)) note_reply(led, *msg);
  }
  remover.join();
  EXPECT_TRUE(removed.load());
  EXPECT_FALSE(run.router.remove_replica(99));  // unknown node

  drain_all(client, led);
  EXPECT_EQ(led.terminal(), led.submitted);
  EXPECT_EQ(led.results, led.submitted);
  EXPECT_EQ(led.duplicated(), 0u);
  EXPECT_EQ(led.mismatched, 0u);

  const auto stats = run.router.stats_json();
  EXPECT_GE(scan_counter(stats, "resharded_streams"), 1u);
}

/// A replica-shaped black hole: accepts the router's connection, swallows
/// jobs without ever answering, then slams the connection shut — the crash
/// the router must detect and redispatch around.
class SilentReplica {
 public:
  SilentReplica()
      : listener_(cluster::listen_on(
            cluster::Endpoint::parse("tcp:127.0.0.1:0"))),
        wake_(cluster::make_wake_pipe()),
        thread_([this] { swallow(); }) {}

  ~SilentReplica() { crash(); }

  std::string endpoint() const { return listener_.bound.str(); }

  void crash() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    wake_.wake();
    thread_.join();
  }

 private:
  void swallow() {
    cluster::Fd conn;
    std::uint8_t buf[4096];
    while (!stop_.load()) {
      cluster::Poller poller;
      poller.want(listener_.fd.get(), true, false);
      poller.want(wake_.r.get(), true, false);
      if (conn.valid()) poller.want(conn.get(), true, false);
      poller.wait(100);
      wake_.drain();
      if (poller.readable(listener_.fd.get())) {
        auto c = cluster::accept_conn(listener_.fd.get());
        if (c.valid()) conn = std::move(c);
      }
      if (conn.valid() && poller.readable(conn.get())) {
        while (cluster::read_some(conn.get(), buf, sizeof(buf)) > 0) {
        }
      }
    }
    conn.reset();  // abrupt EOF at the router
    listener_.fd.reset();
  }

  cluster::Listener listener_;
  cluster::WakePipe wake_;
  std::atomic<bool> stop_{false};
  // Last: the thread reads stop_, so everything it touches must be
  // initialized before it starts.
  std::thread thread_;
};

TEST(RouterCluster, ReplicaCrashRedispatchesOutstandingJobs) {
  ReplicaProc real(kMonitors, 0us);
  SilentReplica sink;

  // Node ids follow config order: real = 1, sink = 2. Pick streams the
  // deterministic ring pins to the sink, so its crash is load-bearing.
  cluster::HashRing sim(64);
  sim.add(1);
  sim.add(2);
  std::vector<std::uint64_t> streams;
  for (std::uint64_t s = 0; s < 32 && streams.size() < 6; ++s) {
    if (sim.owner(s) == 2) streams.push_back(s);
  }
  ASSERT_FALSE(streams.empty());

  auto cfg = router_config({real.endpoint, sink.endpoint()});
  cfg.reconnect_attempts = 1;  // quarantine gives up fast
  cfg.reconnect_backoff_initial_ms = 10.0;
  cfg.reconnect_backoff_max_ms = 20.0;
  RouterRun run(std::move(cfg));

  cluster::ClusterClient client(run.router.bound().str());
  Ledger led;
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    for (const auto stream : streams) submit_tick(client, led, stream, seq);
  }
  // Give the router time to dispatch into the sink, then crash it with the
  // jobs still unanswered.
  std::this_thread::sleep_for(100ms);
  sink.crash();

  for (std::uint32_t seq = 3; seq < 5; ++seq) {
    for (const auto stream : streams) submit_tick(client, led, stream, seq);
  }
  drain_all(client, led);

  EXPECT_EQ(led.terminal(), led.submitted);
  EXPECT_EQ(led.results, led.submitted);  // re-executed, not lost
  EXPECT_EQ(led.duplicated(), 0u);
  EXPECT_EQ(led.mismatched, 0u);  // re-execution is bit-identical
  EXPECT_TRUE(led.fifo_ok);

  const auto stats = run.router.stats_json();
  EXPECT_GE(scan_counter(stats, "replica_crashes"), 1u);
  EXPECT_GE(scan_counter(stats, "redispatched_jobs"), 1u);
}

TEST(RouterCluster, GracefulShutdownLosesNoAcceptedFrame) {
  ReplicaProc a(kMonitors, 300us);
  RouterRun run(router_config({a.endpoint}));
  cluster::ClusterClient client(run.router.bound().str());

  Ledger led;
  for (std::uint32_t seq = 0; seq < 24; ++seq) {
    submit_tick(client, led, /*stream=*/5, seq);
  }
  // Wait for the first answer (the router has certainly accepted work),
  // then pull the plug with the rest still in flight.
  auto first = client.poll(10000.0);
  ASSERT_TRUE(first.has_value());
  note_reply(led, *first);
  run.router.request_stop();

  drain_all(client, led);
  // Close-then-drain: every accepted frame is answered (kResult) and every
  // frame read after the stop decision is terminally shed (kShutdown) —
  // nothing just vanishes.
  EXPECT_EQ(led.terminal(), led.submitted);
  EXPECT_GE(led.results, 1u);
  EXPECT_EQ(led.duplicated(), 0u);
  EXPECT_EQ(led.mismatched, 0u);
  EXPECT_TRUE(led.fifo_ok);
}

// ---- RouterJournal -------------------------------------------------------

std::string journal_path(const char* tag) {
  return "/tmp/reads-test-journal-" + std::to_string(::getpid()) + "-" + tag;
}

TEST(RouterJournal, RecordReplayRoundTrips) {
  const auto path = journal_path("roundtrip");
  ::unlink(path.c_str());
  {
    cluster::RouterJournal j(path);
    ASSERT_TRUE(j.open());
    j.record_node({1, "tcp:127.0.0.1:9001", true});
    j.record_node({2, "tcp:127.0.0.1:9002", true});
    j.record_node({2, "", false});  // removed: last writer wins
    j.record_node({3, "uds:/tmp/r3.sock", true});
    j.record_reply(5, 42, {1, 2, 3, 4});
    j.record_reply(6, 43, {9, 8});
  }
  const auto state = cluster::RouterJournal::replay(path);
  ASSERT_EQ(state.nodes.size(), 2u);  // node 2's removal erased it
  EXPECT_EQ(state.nodes[0].node, 1u);
  EXPECT_EQ(state.nodes[0].endpoint, "tcp:127.0.0.1:9001");
  EXPECT_EQ(state.nodes[1].node, 3u);
  EXPECT_EQ(state.nodes[1].endpoint, "uds:/tmp/r3.sock");
  EXPECT_EQ(state.max_node_id, 3u);
  ASSERT_EQ(state.replies.size(), 2u);
  EXPECT_EQ(state.replies[0].stream, 5u);
  EXPECT_EQ(state.replies[0].req_id, 42u);
  EXPECT_EQ(state.replies[0].reply, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(state.replies[1].req_id, 43u);
  ::unlink(path.c_str());
}

/// One sealed journal record: [type][len][payload][seal_crc].
std::vector<std::uint8_t> journal_record(
    std::uint8_t type, const std::vector<std::uint8_t>& payload,
    std::uint32_t len_field) {
  std::vector<std::uint8_t> rec;
  net::put_u8(rec, type);
  net::put_u32(rec, len_field);
  rec.insert(rec.end(), payload.begin(), payload.end());
  net::put_u32(rec,
               cluster::seal_crc(type, payload.data(), payload.size()));
  return rec;
}

/// The SLO record older routers journaled (type 2): hard and best-effort
/// budgets, then, before the admission margin was dropped, a third double.
std::vector<std::uint8_t> legacy_slo_record(
    std::initializer_list<double> fields) {
  std::vector<std::uint8_t> payload;
  for (const double v : fields) {
    net::put_u64(payload, std::bit_cast<std::uint64_t>(v));
  }
  return journal_record(2, payload,
                        static_cast<std::uint32_t>(payload.size()));
}

void append_file(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  std::uint8_t buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  ::unlink(path.c_str());
  append_file(path, bytes);
}

bool same_state(const cluster::JournalState& a,
                const cluster::JournalState& b) {
  if (a.max_node_id != b.max_node_id || a.nodes.size() != b.nodes.size() ||
      a.replies.size() != b.replies.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].node != b.nodes[i].node ||
        a.nodes[i].endpoint != b.nodes[i].endpoint ||
        a.nodes[i].alive != b.nodes[i].alive) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.replies.size(); ++i) {
    if (a.replies[i].stream != b.replies[i].stream ||
        a.replies[i].req_id != b.replies[i].req_id ||
        a.replies[i].reply != b.replies[i].reply) {
      return false;
    }
  }
  return true;
}

// Budgets come from RouterConfig alone, so the SLO records older routers
// journaled (two or three doubles) are skipped, and the records around
// them still replay.
TEST(RouterJournal, LegacySloRecordIsSkipped) {
  const auto path = journal_path("slo-legacy");
  ::unlink(path.c_str());
  {
    cluster::RouterJournal j(path);
    j.record_node({1, "tcp:127.0.0.1:9001", true});
  }
  append_file(path, legacy_slo_record({2.5, 80.0, 0.8}));
  append_file(path, legacy_slo_record({2.5, 80.0}));
  {
    cluster::RouterJournal j(path);
    j.record_reply(5, 42, {1, 2, 3});
  }

  const auto state = cluster::RouterJournal::replay(path);
  ASSERT_EQ(state.nodes.size(), 1u);
  EXPECT_EQ(state.nodes[0].endpoint, "tcp:127.0.0.1:9001");
  ASSERT_EQ(state.replies.size(), 1u);
  EXPECT_EQ(state.replies[0].req_id, 42u);
  EXPECT_EQ(state.replies[0].reply, (std::vector<std::uint8_t>{1, 2, 3}));
  ::unlink(path.c_str());
}

TEST(RouterJournal, LengthsNearTwoToThe32DoNotWrap) {
  // A u32 length within 20 of 2^32 used to wrap the bounds checks (9 + len,
  // 13 + endpoint length, 20 + reply length) and send replay reading ~4 GiB
  // past its buffer. Each such record must end replay where it stands.
  const auto path = journal_path("wrap");
  ::unlink(path.c_str());
  {
    cluster::RouterJournal j(path);
    j.record_node({1, "tcp:127.0.0.1:9001", true});
    j.record_reply(5, 42, {1, 2, 3});
  }
  const auto good = read_file(path);
  const auto before = cluster::RouterJournal::replay(path);
  ASSERT_EQ(before.nodes.size(), 1u);
  ASSERT_EQ(before.replies.size(), 1u);

  for (const std::uint32_t huge : {0xFFFFFFF7u, 0xFFFFFFF8u, 0xFFFFFFFFu}) {
    // The record header's length: no seal can follow it.
    std::vector<std::uint8_t> header = good;
    net::put_u8(header, 3);
    net::put_u32(header, huge);
    header.resize(header.size() + 16, 0);

    // A sealed kNode record whose endpoint length overruns it.
    std::vector<std::uint8_t> node_payload;
    net::put_u64(node_payload, 9);
    net::put_u8(node_payload, 1);
    net::put_u32(node_payload, huge);
    node_payload.insert(node_payload.end(), {'t', 'c', 'p', ':', 'x'});
    std::vector<std::uint8_t> node = good;
    const auto node_rec = journal_record(
        1, node_payload, static_cast<std::uint32_t>(node_payload.size()));
    node.insert(node.end(), node_rec.begin(), node_rec.end());

    // A sealed kReply record whose reply length overruns it.
    std::vector<std::uint8_t> reply_payload;
    net::put_u64(reply_payload, 5);
    net::put_u64(reply_payload, 43);
    net::put_u32(reply_payload, huge);
    reply_payload.insert(reply_payload.end(), {7, 7, 7, 7});
    std::vector<std::uint8_t> reply = good;
    const auto reply_rec = journal_record(
        3, reply_payload, static_cast<std::uint32_t>(reply_payload.size()));
    reply.insert(reply.end(), reply_rec.begin(), reply_rec.end());

    const std::pair<const char*, const std::vector<std::uint8_t>*> cases[] =
        {{"header", &header}, {"endpoint", &node}, {"reply", &reply}};
    for (const auto& [site, bytes] : cases) {
      write_file(path, *bytes);
      const auto got = cluster::RouterJournal::replay(path);
      EXPECT_TRUE(same_state(got, before))
          << "length " << huge << " in the " << site << " length";
    }
  }
  ::unlink(path.c_str());
}

TEST(RouterJournal, FuzzedJournalReplaysARecordPrefix) {
  // 1,000 seeded flip/insert/delete mutations of a real journal (node adds
  // and a removal, replies, a legacy SLO record). The CRC seal and the
  // bounds checks allow one outcome only: replay returns what the original
  // journal replays when cut at some record boundary.
  const auto path = journal_path("fuzz");
  ::unlink(path.c_str());
  {
    cluster::RouterJournal j(path);
    j.record_node({1, "tcp:127.0.0.1:9001", true});
    j.record_node({2, "uds:/tmp/r2.sock", true});
    j.record_reply(5, 42, {1, 2, 3, 4});
  }
  append_file(path, legacy_slo_record({3.0, 100.0}));
  {
    cluster::RouterJournal j(path);
    j.record_node({2, "", false});
    j.record_reply(6, 43, {9, 8});
    j.record_node({3, "tcp:127.0.0.1:9003", true});
    j.record_reply(5, 44, {});
  }
  const auto original = read_file(path);

  // The replay of every record-boundary prefix, empty journal included.
  std::vector<cluster::JournalState> prefixes;
  for (std::size_t off = 0;;) {
    write_file(path, std::vector<std::uint8_t>(
                         original.begin(),
                         original.begin() + static_cast<std::ptrdiff_t>(off)));
    prefixes.push_back(cluster::RouterJournal::replay(path));
    if (off == original.size()) break;
    off += 9 + net::get_u32(original.data() + off + 1);
  }
  ASSERT_EQ(prefixes.size(), 9u);  // 8 records
  ASSERT_EQ(prefixes.back().nodes.size(), 2u);
  ASSERT_EQ(prefixes.back().replies.size(), 3u);

  const std::string valid(original.begin(), original.end());
  util::Xoshiro256 rng(23);
  std::size_t shortened = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const std::string m = test::mutate(valid, rng);
    write_file(path, std::vector<std::uint8_t>(m.begin(), m.end()));
    const auto got = cluster::RouterJournal::replay(path);
    std::size_t match = prefixes.size();
    for (std::size_t k = 0; k < prefixes.size(); ++k) {
      if (same_state(got, prefixes[k])) {
        match = k;
        break;
      }
    }
    ASSERT_LT(match, prefixes.size())
        << "trial " << trial << ": replay is no record prefix";
    if (!same_state(got, prefixes.back())) ++shortened;
  }
  EXPECT_GT(shortened, 0u);
  ::unlink(path.c_str());
}

TEST(RouterJournal, TornTailIsDiscardedNotTrusted) {
  const auto path = journal_path("torn");
  ::unlink(path.c_str());
  {
    cluster::RouterJournal j(path);
    j.record_reply(1, 10, {0xAA, 0xBB});
    j.record_reply(1, 11, {0xCC});
    j.record_reply(1, 12, {0xDD, 0xEE, 0xFF});
  }
  // A SIGKILL mid-append leaves a short final record: chop off its tail.
  struct ::stat st = {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 3), 0);

  const auto state = cluster::RouterJournal::replay(path);
  ASSERT_EQ(state.replies.size(), 2u);  // the torn third is dropped
  EXPECT_EQ(state.replies[0].req_id, 10u);
  EXPECT_EQ(state.replies[1].req_id, 11u);
  ::unlink(path.c_str());
}

TEST(RouterJournal, MissingFileReplaysEmpty) {
  const auto state =
      cluster::RouterJournal::replay(journal_path("never-written"));
  EXPECT_TRUE(state.nodes.empty());
  EXPECT_TRUE(state.replies.empty());
}

// ---- RouterFailover: dedup, rebind, stall defense, journal recovery ------

TEST(RouterFailover, DuplicateSubmitIsServedIdenticalBytesFromDedup) {
  ReplicaProc a(kMonitors, 0us);
  RouterRun run(router_config({a.endpoint}));
  cluster::ClusterClient client(run.router.bound().str());

  const auto tick = make_tick(4, 0);
  ASSERT_TRUE(client.submit(tick));
  auto first = client.poll(10000.0);
  ASSERT_TRUE(first && first->type == cluster::MsgType::kResult);

  // Same (stream, req_id) again: the answer must come from the dedup
  // window, byte-for-byte identical — the tick is NOT re-executed.
  ASSERT_TRUE(client.submit(tick));
  auto second = client.poll(10000.0);
  ASSERT_TRUE(second && second->type == cluster::MsgType::kResult);
  EXPECT_EQ(second->payload, first->payload);

  EXPECT_GE(scan_counter(run.router.stats_json(), "dedup_hits"), 1u);
}

TEST(RouterFailover, DedupWindowHoldsExactlyTheNewestReplies) {
  ReplicaProc a(kMonitors, 0us);
  RouterRun run(router_config({a.endpoint}));
  cluster::ClusterClient client(run.router.bound().str());

  // One stream, more ticks than the window holds, drained in batches small
  // enough that no tick is shed for a full replica queue.
  const auto ticks = static_cast<std::uint32_t>(cluster::kDedupWindow + 40);
  Ledger led;
  for (std::uint32_t seq = 0; seq < ticks; ++seq) {
    submit_tick(client, led, 6, seq);
    if (led.submitted % 32 == 0) drain_all(client, led);
  }
  drain_all(client, led);
  ASSERT_EQ(led.results, led.submitted);

  auto stats = run.router.stats_json();
  EXPECT_EQ(scan_counter(stats, "dedup_entries"), cluster::kDedupWindow);
  EXPECT_EQ(scan_counter(stats, "dedup_hits"), 0u);

  // The newest tick is still inside the bound: answered from the window.
  const auto newest = make_tick(6, ticks - 1);
  ASSERT_TRUE(client.submit(newest));
  auto again = client.poll(10000.0);
  ASSERT_TRUE(again && again->type == cluster::MsgType::kResult);
  EXPECT_EQ(cluster::decode_result(again->payload).id, newest.req_id);
  stats = run.router.stats_json();
  EXPECT_EQ(scan_counter(stats, "dedup_hits"), 1u);
  EXPECT_EQ(scan_counter(stats, "dedup_entries"), cluster::kDedupWindow);
}

TEST(RouterFailover, ResubmissionAfterClientDeathRebindsOrDedups) {
  ReplicaProc a(kMonitors, 20ms);  // slow enough that the job is in flight
  RouterRun run(router_config({a.endpoint}));

  const auto tick = make_tick(2, 0);
  {
    cluster::ClusterClient doomed(run.router.bound().str());
    ASSERT_TRUE(doomed.submit(tick));
    // Give the router time to read + dispatch, then vanish unannounced.
    std::this_thread::sleep_for(5ms);
  }
  cluster::ClusterClient heir(run.router.bound().str());
  ASSERT_TRUE(heir.submit(tick));
  auto msg = heir.poll(10000.0);
  ASSERT_TRUE(msg && msg->type == cluster::MsgType::kResult);
  const auto r = cluster::decode_result(msg->payload);
  EXPECT_EQ(r.id, tick.req_id);
  EXPECT_EQ(r.data, expected_output(tick_counts(2, 0)));

  // Depending on timing the duplicate lands while the job is in flight
  // (rebind) or after it finished (dedup); either path is exactly-once.
  const auto stats = run.router.stats_json();
  EXPECT_GE(scan_counter(stats, "inflight_rebinds") +
                scan_counter(stats, "dedup_hits"),
            1u);
}

TEST(RouterFailover, StalledReplicaIsQuarantinedAndJobsRedispatched) {
  ReplicaProc real(kMonitors, 0us);
  SilentReplica sink;  // reads jobs forever, never answers, never closes

  // Pick streams the ring pins to the sink (node 2) so the stall defense is
  // the only thing that can save them.
  cluster::HashRing sim(64);
  sim.add(1);
  sim.add(2);
  std::vector<std::uint64_t> streams;
  for (std::uint64_t s = 0; s < 32 && streams.size() < 4; ++s) {
    if (sim.owner(s) == 2) streams.push_back(s);
  }
  ASSERT_FALSE(streams.empty());

  auto cfg = router_config({real.endpoint, sink.endpoint()});
  cfg.stall_timeout_ms = 200.0;  // a slow-loris peer is cut off quickly
  cfg.reconnect_attempts = 1;
  cfg.reconnect_backoff_initial_ms = 10.0;
  cfg.reconnect_backoff_max_ms = 20.0;
  RouterRun run(std::move(cfg));

  cluster::ClusterClient client(run.router.bound().str());
  Ledger led;
  for (std::uint32_t seq = 0; seq < 2; ++seq) {
    for (const auto stream : streams) submit_tick(client, led, stream, seq);
  }
  drain_all(client, led);

  EXPECT_EQ(led.terminal(), led.submitted);
  EXPECT_EQ(led.results, led.submitted);  // re-executed on the live node
  EXPECT_EQ(led.duplicated(), 0u);
  EXPECT_EQ(led.mismatched, 0u);

  const auto stats = run.router.stats_json();
  EXPECT_GE(scan_counter(stats, "stalled_peers"), 1u);
  EXPECT_GE(scan_counter(stats, "redispatched_jobs"), 1u);
}

TEST(RouterFailover, MalformedEnvelopeGetsDisconnected) {
  ReplicaProc a(kMonitors, 0us);
  RouterRun run(router_config({a.endpoint}));

  auto fd = cluster::connect_to(run.router.bound(), 2000.0);
  std::vector<std::uint8_t> out;
  cluster::append_hello(out, {cluster::Role::kClient,
                              cluster::kProtocolVersion});
  // An envelope claiming a 4 GiB payload: implausible, instant disconnect.
  const std::size_t at = out.size();
  out.resize(out.size() + cluster::kEnvelopeHeader, 0);
  out[at] = 0xff;
  out[at + 1] = 0xff;
  out[at + 2] = 0xff;
  out[at + 3] = 0xff;
  ASSERT_TRUE(cluster::write_all(fd.get(), out.data(), out.size(), 2000.0));

  // The router must hang up on us (EOF), not keep buffering garbage.
  const auto t0 = Clock::now();
  bool hung_up = false;
  std::uint8_t buf[256];
  while (elapsed_ms(t0) < 10000.0 && !hung_up) {
    cluster::Poller poller;
    poller.want(fd.get(), true, false);
    poller.wait(50);
    hung_up = cluster::read_some(fd.get(), buf, sizeof(buf)) < 0;
  }
  EXPECT_TRUE(hung_up);
  EXPECT_GE(scan_counter(run.router.stats_json(), "malformed_disconnects"),
            1u);
}

TEST(RouterFailover, JournalRecoveryServesDedupAcrossRestart) {
  const auto path = journal_path("recovery");
  ::unlink(path.c_str());
  ReplicaProc a(kMonitors, 0us);
  const auto tick = make_tick(8, 1);

  std::string endpoint;
  std::vector<std::uint8_t> first_payload;
  {
    auto cfg = router_config({a.endpoint});
    cfg.journal_path = path;
    RouterRun run(std::move(cfg));
    endpoint = run.router.bound().str();
    cluster::ClusterClient client(endpoint);
    ASSERT_TRUE(client.submit(tick));
    auto msg = client.poll(10000.0);
    ASSERT_TRUE(msg && msg->type == cluster::MsgType::kResult);
    first_payload = msg->payload;
  }  // router gone; journal remembers the replica and the answer

  auto cfg = router_config({});  // membership comes from the journal alone
  cfg.listen = cluster::Endpoint::parse(endpoint);
  cfg.journal_path = path;
  RouterRun run(std::move(cfg));

  cluster::ClusterClient client(endpoint);
  ASSERT_TRUE(client.submit(tick));  // the resubmission a real client sends
  auto msg = client.poll(10000.0);
  ASSERT_TRUE(msg && msg->type == cluster::MsgType::kResult);
  EXPECT_EQ(msg->payload, first_payload);  // bit-identical across death

  const auto stats = run.router.stats_json();
  EXPECT_GE(scan_counter(stats, "journal_recovered_nodes"), 1u);
  EXPECT_GE(scan_counter(stats, "journal_recovered_replies"), 1u);
  EXPECT_GE(scan_counter(stats, "dedup_hits"), 1u);
  ::unlink(path.c_str());
}

TEST(RouterFailover, RestartTakesBudgetsFromItsConfigNotAJournaledSlo) {
  // A journal from an older router may still hold an SLO record. The
  // restarted router must serve with the budgets its own config gives
  // (5,000 ms best-effort here), not the journal's 1 us.
  const auto path = journal_path("config-budgets");
  ::unlink(path.c_str());
  ReplicaProc a(kMonitors, 0us);
  std::string endpoint;
  {
    auto cfg = router_config({a.endpoint});
    cfg.journal_path = path;
    RouterRun run(std::move(cfg));
    endpoint = run.router.bound().str();
  }  // the journal now holds the replica
  append_file(path, legacy_slo_record({0.001, 0.001}));

  auto cfg = router_config({});
  cfg.listen = cluster::Endpoint::parse(endpoint);
  cfg.journal_path = path;
  RouterRun run(std::move(cfg));
  cluster::ClusterClient client(endpoint);
  ASSERT_TRUE(client.submit(make_tick(9, 0)));
  auto msg = client.poll(10000.0);
  ASSERT_TRUE(msg && msg->type == cluster::MsgType::kResult);
  EXPECT_EQ(cluster::decode_result(msg->payload).deadline_met, 1u);

  const auto stats = run.router.stats_json();
  EXPECT_EQ(scan_counter(stats, "journal_recovered_nodes"), 1u);
  EXPECT_EQ(scan_counter(stats, "deadline_misses"), 0u);
  ::unlink(path.c_str());
}

TEST(RouterFailover, ResilientClientRidesThroughRouterRestart) {
  const auto path = journal_path("resilient");
  ::unlink(path.c_str());
  ReplicaProc a(kMonitors, 0us);

  cluster::ResilientClientConfig ccfg;
  ccfg.connect_timeout_ms = 300.0;
  ccfg.backoff_initial_ms = 5.0;
  ccfg.backoff_max_ms = 50.0;
  std::string endpoint;
  {
    auto cfg = router_config({a.endpoint});
    cfg.journal_path = path;
    RouterRun run(std::move(cfg));
    endpoint = run.router.bound().str();
    cluster::ResilientClient rc(endpoint, ccfg);
    for (std::uint32_t seq = 0; seq < 3; ++seq) {
      ASSERT_TRUE(rc.submit(make_tick(7, seq)));
      auto msg = rc.poll(10000.0);
      ASSERT_TRUE(msg && msg->type == cluster::MsgType::kResult);
    }
    EXPECT_EQ(rc.unacked(), 0u);

    // Router dies between scopes; the client keeps the next tick queued.
    run.router.request_stop();
    run.thread.join();
    rc.submit(make_tick(7, 3));  // router is down: queued, not lost
    EXPECT_EQ(rc.unacked(), 1u);

    auto cfg2 = router_config({});
    cfg2.listen = cluster::Endpoint::parse(endpoint);
    cfg2.journal_path = path;
    RouterRun revived(std::move(cfg2));

    std::optional<cluster::Message> msg;
    const auto t0 = Clock::now();
    while (!msg && elapsed_ms(t0) < 15000.0) msg = rc.poll(250.0);
    ASSERT_TRUE(msg && msg->type == cluster::MsgType::kResult);
    const auto r = cluster::decode_result(msg->payload);
    EXPECT_EQ(r.id, make_tick(7, 3).req_id);
    EXPECT_EQ(r.data, expected_output(tick_counts(7, 3)));
    EXPECT_GE(rc.reconnects(), 2u);   // initial connect + post-restart
    EXPECT_GE(rc.resubmissions(), 1u);
    EXPECT_EQ(rc.unacked(), 0u);
  }
  ::unlink(path.c_str());
}

// ---- RouterAdmin: thread-safe API under concurrent traffic (TSan) -------

TEST(RouterAdmin, StatsReplyDoesNotDropInterleavedResults) {
  // Regression: waiting for an admin reply on a connection that also
  // carries traffic used to discard any result that arrived first. The
  // client now buffers non-matching messages and serves them from the
  // next poll().
  ReplicaProc a(kMonitors, 0us);
  RouterRun run(router_config({a.endpoint}));
  cluster::ClusterClient client(run.router.bound().str());

  const auto tick = make_tick(1, 0);
  ASSERT_TRUE(client.submit(tick));
  // Let the result land in our socket before the stats request goes out,
  // so wait_for(kStatsReply) must read past it.
  std::this_thread::sleep_for(100ms);
  const auto stats = client.stats(10000.0);
  EXPECT_NE(stats.find("cluster_counters"), std::string::npos);

  auto msg = client.poll(5000.0);
  ASSERT_TRUE(msg.has_value());  // the result survived the admin exchange
  ASSERT_EQ(msg->type, cluster::MsgType::kResult);
  EXPECT_EQ(cluster::decode_result(msg->payload).id, tick.req_id);
}

// The router runs no backend: its stats carry no replica row, and every
// answered tick lands in its e2e histogram, however late.
TEST(RouterAdmin, StatsCountEveryAnsweredTickWithoutAReplicaRow) {
  ReplicaProc a(kMonitors, 50ms);
  RouterRun run(router_config({a.endpoint}));
  cluster::ClusterClient client(run.router.bound().str());

  constexpr std::size_t kTicks = 4;
  Ledger led;
  for (std::uint32_t seq = 0; seq < kTicks; ++seq) {
    submit_tick(client, led, 3, seq);
    drain_all(client, led);
  }
  ASSERT_EQ(led.results, kTicks);

  const std::string stats = run.router.stats_json();
  const util::JsonScan scan(stats, "stats");
  const std::string router = scan.enclosed(scan.value_pos("router"));
  EXPECT_NE(router.find("\"replicas\": []"), std::string::npos) << router;
  const auto snap = serve::MetricsSnapshot::from_json(router);
  EXPECT_TRUE(snap.replicas.empty());
  EXPECT_EQ(snap.completed, kTicks);
  EXPECT_EQ(snap.e2e_samples.total(), kTicks);
  EXPECT_EQ(snap.queue_ms.total(), kTicks);
  // Each best-effort tick waited out the 50 ms backend, many times the
  // 3 ms deadline, and was counted in range, not in the overflow bucket.
  EXPECT_GE(snap.e2e_samples.percentile(0.0), 50.0);
  EXPECT_EQ(snap.e2e_samples.count(util::Histogram::kBuckets - 1), 0u);
}

TEST(RouterAdmin, StatsJsonEscapesOutsideEndpointBytes) {
  // An add_replica endpoint is outside input, and a UDS path may hold any
  // byte: a quote or a bracket in it must end neither the endpoint string
  // nor the nodes array.
  const std::string path =
      "/tmp/reads-test-" + std::to_string(::getpid()) + "-q\"b]";
  ReplicaProc a(kMonitors, 0us);
  ReplicaProc odd(kMonitors, 0us, "uds:" + path);
  RouterRun run(router_config({a.endpoint}));
  ASSERT_NE(run.router.add_replica("uds:" + path), 0u);

  const std::string stats = run.router.stats_json();
  const util::JsonScan scan(stats, "stats");
  const std::size_t pos = scan.value_pos("nodes");
  const std::string nodes = scan.enclosed(pos);
  // "nodes" is the last key, so its array runs to the closing brace.
  EXPECT_EQ(nodes, stats.substr(pos, stats.size() - 1 - pos));
  EXPECT_NE(nodes.find("\"endpoint\": \"uds:/tmp/reads-test-" +
                       std::to_string(::getpid()) + "-q\\\"b]\""),
            std::string::npos)
      << nodes;
  odd.stop();
  ::unlink(path.c_str());
}

TEST(RouterAdmin, StatsAndMembershipConcurrentWithTraffic) {
  ReplicaProc a(kMonitors, 0us);
  ReplicaProc b(kMonitors, 0us);
  ReplicaProc extra(kMonitors, 0us);
  RouterRun run(router_config({a.endpoint, b.endpoint}));

  std::atomic<bool> done{false};
  Ledger led;
  std::thread traffic([&] {
    cluster::ClusterClient client(run.router.bound().str());
    for (std::uint32_t seq = 0; seq < 40; ++seq) {
      for (std::uint64_t stream = 0; stream < 4; ++stream) {
        submit_tick(client, led, stream, seq);
      }
      while (auto msg = client.poll(0.0)) note_reply(led, *msg);
    }
    drain_all(client, led);
    done.store(true);
  });
  std::thread stats([&] {
    while (!done.load()) {
      EXPECT_NE(run.router.stats_json().find("cluster_counters"),
                std::string::npos);
      std::this_thread::sleep_for(1ms);
    }
  });
  std::thread membership([&] {
    for (int i = 0; i < 3 && !done.load(); ++i) {
      const auto node = run.router.add_replica(extra.endpoint);
      EXPECT_NE(node, 0u);
      EXPECT_TRUE(run.router.remove_replica(node));
    }
  });
  traffic.join();
  membership.join();
  stats.join();

  EXPECT_EQ(led.terminal(), led.submitted);
  EXPECT_EQ(led.duplicated(), 0u);
  EXPECT_EQ(led.mismatched, 0u);
}

}  // namespace
