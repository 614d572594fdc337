// Fault-injection harness tests: Plan determinism and scheduling, Injector
// packet/IP/replica fault semantics, and the self-healing serving path
// under scheduled backend crashes.
//
// The ChaosServe suite is pure concurrency (synthetic backends, no model
// cache) and runs under ThreadSanitizer via tools/check.sh. The
// FaultPipeline suite stands up the full FacilityNode (pretrained model
// cache) and runs in the plain/ASan builds only.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "cluster/io.hpp"
#include "core/facility_node.hpp"
#include "fault/chaos_backend.hpp"
#include "fault/injector.hpp"
#include "fault/net_chaos.hpp"
#include "fault/net_plan.hpp"
#include "fault/plan.hpp"
#include "net/assembler.hpp"
#include "net/hub.hpp"
#include "net/packet.hpp"
#include "serve/gateway.hpp"
#include "util/rng.hpp"

namespace {

using namespace reads;
using fault::FaultEvent;
using fault::FaultKind;
using fault::Injector;
using fault::Plan;
using tensor::Tensor;

// ------------------------------------------------------------------ Plan

TEST(FaultPlan, ScenarioIsDeterministicInSeedAndName) {
  const fault::ScenarioParams p{.seed = 42, .ticks = 600};
  for (const auto& name : Plan::scenario_names()) {
    EXPECT_EQ(Plan::scenario(name, p).events(),
              Plan::scenario(name, p).events())
        << name;
  }
  // A different seed must move the storm's windows (replayability means the
  // seed is the only thing that does).
  const fault::ScenarioParams q{.seed = 43, .ticks = 600};
  EXPECT_NE(Plan::scenario("storm", p).events(),
            Plan::scenario("storm", q).events());
}

TEST(FaultPlan, ScenariosLeaveWarmupAndRecoveryTails) {
  const fault::ScenarioParams p{.seed = 7, .ticks = 600};
  for (const auto& name : Plan::scenario_names()) {
    const auto plan = Plan::scenario(name, p);
    if (name == "none") {
      EXPECT_TRUE(plan.empty());
      continue;
    }
    EXPECT_FALSE(plan.empty()) << name;
    EXPECT_LT(plan.last_fault_tick(), p.ticks) << name;
    for (const auto& e : plan.events()) {
      EXPECT_GE(e.start, p.ticks / 10) << name;  // clean warm-up
    }
  }
}

TEST(FaultPlan, CrashScenarioCoversEveryReplica) {
  fault::ScenarioParams p{.seed = 7, .ticks = 200};
  p.replicas = 3;
  const auto plan = Plan::scenario("crash", p);
  std::set<std::size_t> sites;
  for (const auto& e : plan.events()) {
    EXPECT_EQ(e.kind, FaultKind::kReplicaCrash);
    sites.insert(e.site);
  }
  EXPECT_EQ(sites, (std::set<std::size_t>{0, 1, 2}));
}

TEST(FaultPlan, UnknownScenarioThrows) {
  EXPECT_THROW(Plan::scenario("gremlins", {}), std::invalid_argument);
}

// Exact placements and decision bits, recorded from the engines before they
// shared fault/schedule.hpp: a refactor that moves one window or one bit
// changes every replayed campaign, so it must fail here.
TEST(FaultPlan, SeededScenariosAndDecisionBitsArePinned) {
  const std::vector<FaultEvent> outage = {
      {FaultKind::kHubOutage, 6, 164, 100}, {FaultKind::kHubOutage, 6, 388, 2}};
  EXPECT_EQ(Plan::scenario("outage", {.seed = 11}).events(), outage);
  using fault::NetFaultKind;
  const std::vector<fault::NetFaultEvent> torn = {
      {NetFaultKind::kConnReset, 0, 120, 2},
      {NetFaultKind::kConnReset, 0, 212, 2},
      {NetFaultKind::kConnReset, 1, 68, 2},
      {NetFaultKind::kConnReset, 1, 146, 2}};
  EXPECT_EQ(fault::NetPlan::scenario("torn", {.seed = 11}).events(), torn);
  EXPECT_EQ(fault::decision_bits(7, NetFaultKind::kByteCorrupt, 2, 42),
            14530693341289907470ull);
  EXPECT_EQ(fault::decision_bits(11, FaultKind::kPacketCorrupt, 0, 0),
            2434511260189532301ull);
}

TEST(FaultPlan, ActiveMatchesKindSiteAndWindow) {
  Plan plan;
  plan.add({FaultKind::kHubOutage, 2, 10, 5});
  EXPECT_FALSE(plan.active(FaultKind::kHubOutage, 2, 9));
  EXPECT_TRUE(plan.active(FaultKind::kHubOutage, 2, 10));
  EXPECT_TRUE(plan.active(FaultKind::kHubOutage, 2, 14));
  EXPECT_FALSE(plan.active(FaultKind::kHubOutage, 2, 15));
  EXPECT_FALSE(plan.active(FaultKind::kHubOutage, 3, 12));
  EXPECT_FALSE(plan.active(FaultKind::kPacketCorrupt, 2, 12));
  EXPECT_TRUE(plan.any(FaultKind::kHubOutage));
  EXPECT_FALSE(plan.any(FaultKind::kNnIpWedge));
  EXPECT_EQ(plan.last_fault_tick(), 14u);
}

// -------------------------------------------------------------- Injector

std::vector<net::Delivery> clean_deliveries(std::uint32_t seq,
                                            std::size_t monitors = 21,
                                            std::size_t hubs = 7) {
  const auto layout = net::hub_layout(monitors, hubs);
  std::vector<net::Delivery> ds;
  for (std::size_t h = 0; h < hubs; ++h) {
    net::Delivery d;
    d.packet.hub_id = static_cast<std::uint8_t>(h);
    d.packet.sequence = seq;
    d.packet.first_monitor = layout[h].first;
    for (std::uint16_t i = 0; i < layout[h].second; ++i) {
      d.packet.readings.push_back(
          net::encode_reading(5.0 + static_cast<double>(h)));
    }
    net::seal_packet(d.packet);
    d.arrival_us = 20.0 + static_cast<double>(h);
    ds.push_back(std::move(d));
  }
  return ds;
}

TEST(FaultInjector, EmptyPlanPerturbsNothing) {
  Injector inj(Plan{}, 7);
  auto ds = clean_deliveries(0);
  const auto before = ds;
  inj.apply(0, ds);
  ASSERT_EQ(ds.size(), before.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds[i].packet.readings, before[i].packet.readings);
    EXPECT_EQ(ds[i].packet.crc, before[i].packet.crc);
    EXPECT_FALSE(ds[i].dropped);
  }
  EXPECT_EQ(inj.injected_total(), 0u);
}

TEST(FaultInjector, OutageSilencesExactlyTheScheduledHub) {
  Plan plan;
  plan.add({FaultKind::kHubOutage, 3, 0, 2});
  Injector inj(plan, 7);
  auto ds = clean_deliveries(0);
  inj.apply(0, ds);
  for (std::size_t h = 0; h < ds.size(); ++h) {
    EXPECT_EQ(ds[h].dropped, h == 3) << h;
  }
  auto later = clean_deliveries(2);
  inj.apply(2, later);  // window over: everything flows again
  for (const auto& d : later) EXPECT_FALSE(d.dropped);
  EXPECT_EQ(inj.injected(FaultKind::kHubOutage), 1u);
}

TEST(FaultInjector, CorruptionBreaksTheCrcButNothingElse) {
  Plan plan;
  plan.add({FaultKind::kPacketCorrupt, 1, 0, 1});
  Injector inj(plan, 7);
  auto ds = clean_deliveries(0);
  inj.apply(0, ds);
  for (std::size_t h = 0; h < ds.size(); ++h) {
    EXPECT_EQ(net::packet_crc_ok(ds[h].packet), h != 1) << h;
  }
}

TEST(FaultInjector, MalformedPacketStaysWellChecksummed) {
  Plan plan;
  plan.add({FaultKind::kPacketMalform, 0, 0, 1});
  Injector inj(plan, 7);
  auto ds = clean_deliveries(0);
  const auto before = ds[0].packet;
  inj.apply(0, ds);
  // A firmware-bug packet is internally coherent (CRC passes) but its
  // header or span no longer matches the layout.
  EXPECT_TRUE(net::packet_crc_ok(ds[0].packet));
  EXPECT_TRUE(ds[0].packet.hub_id != before.hub_id ||
              ds[0].packet.first_monitor != before.first_monitor ||
              ds[0].packet.readings.size() != before.readings.size());
}

TEST(FaultInjector, DuplicateAppendsABitIdenticalCopy) {
  Plan plan;
  plan.add({FaultKind::kPacketDuplicate, 4, 0, 1});
  Injector inj(plan, 7);
  auto ds = clean_deliveries(0);
  const auto n = ds.size();
  inj.apply(0, ds);
  ASSERT_EQ(ds.size(), n + 1);
  EXPECT_EQ(ds.back().packet.hub_id, 4);
  EXPECT_EQ(ds.back().packet.crc, ds[4].packet.crc);
  EXPECT_EQ(ds.back().packet.readings, ds[4].packet.readings);
}

TEST(FaultInjector, SaturateAndNanStayWireValid) {
  Plan plan;
  plan.add({FaultKind::kReadingSaturate, 0, 0, 1});
  plan.add({FaultKind::kReadingNan, 1, 0, 1});
  Injector inj(plan, 7);
  auto ds = clean_deliveries(0);
  inj.apply(0, ds);
  // Content faults are the hub faithfully reporting a broken digitizer:
  // the CRC must still pass — only the plausibility gate can catch them.
  EXPECT_TRUE(net::packet_crc_ok(ds[0].packet));
  EXPECT_TRUE(net::packet_crc_ok(ds[1].packet));
  for (auto r : ds[0].packet.readings) EXPECT_EQ(r, 0xFFFFFFFFu);
  for (auto r : ds[1].packet.readings) EXPECT_EQ(r, 0u);
}

TEST(FaultInjector, ReorderIsASeedDeterministicPermutation) {
  Plan plan;
  plan.add({FaultKind::kPacketReorder, 0, 0, 1});
  Injector a(plan, 7);
  Injector b(plan, 7);
  auto da = clean_deliveries(0);
  auto db = clean_deliveries(0);
  a.apply(0, da);
  b.apply(0, db);
  std::vector<std::uint8_t> order_a;
  std::vector<std::uint8_t> order_b;
  for (const auto& d : da) order_a.push_back(d.packet.hub_id);
  for (const auto& d : db) order_b.push_back(d.packet.hub_id);
  EXPECT_EQ(order_a, order_b);  // same seed, same shuffle
  auto sorted = order_a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint8_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(FaultInjector, HangHookWedgesFirstAttemptAndYieldsToTheRetry) {
  Plan plan;
  plan.add({FaultKind::kNnIpHang, 0, 5, 1});
  Injector inj(plan, 7);
  auto hook = inj.ip_hang_hook();
  auto ds = clean_deliveries(5);
  inj.apply(5, ds);          // advances the injector's tick
  EXPECT_TRUE(hook(1));      // first attempt wedges
  EXPECT_FALSE(hook(2));     // the watchdog's retry succeeds
  auto clean = clean_deliveries(6);
  inj.apply(6, clean);
  EXPECT_FALSE(hook(3));     // outside the window: no wedge at all
}

TEST(FaultInjector, WedgeHookWedgesEveryAttempt) {
  Plan plan;
  plan.add({FaultKind::kNnIpWedge, 0, 0, 1});
  Injector inj(plan, 7);
  auto hook = inj.ip_hang_hook();
  auto ds = clean_deliveries(0);
  inj.apply(0, ds);
  EXPECT_TRUE(hook(1));
  EXPECT_TRUE(hook(2));
  EXPECT_TRUE(hook(3));  // retries exhausted -> HPS fallback territory
}

TEST(FaultInjector, CrashNextWalksThePerSiteOpAxis) {
  Plan plan;
  plan.add({FaultKind::kReplicaCrash, 0, 2, 2});
  Injector inj(plan, 7, /*replicas=*/2);
  // Site 0: ops 0,1 clean; 2,3 crash; 4 clean again.
  EXPECT_FALSE(inj.crash_next(0));
  EXPECT_FALSE(inj.crash_next(0));
  EXPECT_TRUE(inj.crash_next(0));
  EXPECT_TRUE(inj.crash_next(0));
  EXPECT_FALSE(inj.crash_next(0));
  // Site 1 has no events; site 9 is out of range.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(inj.crash_next(1));
  EXPECT_FALSE(inj.crash_next(9));
  EXPECT_EQ(inj.injected(FaultKind::kReplicaCrash), 2u);
}

// ---------------------------------------------- ChaosServe (TSan target)

/// Deterministic affine backend (same contract as test_serve's synthetic
/// one) so crash-recovery exactness is checkable without the model cache.
class AffineBackend final : public serve::Backend {
 public:
  std::string_view name() const noexcept override { return "affine"; }
  Tensor infer(const Tensor& frame) override {
    Tensor out = frame;
    for (auto& v : out.flat()) v = 2.0f * v + 1.0f;
    return out;
  }
};

Tensor chaos_frame(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Tensor t({n, 1});
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

TEST(ChaosServe, ScheduledCrashesNeverLoseOrForkAFrame) {
  Plan plan;
  plan.add({FaultKind::kReplicaCrash, 0, 1, 3});  // replica 0: ops 1-3 crash
  auto injector = std::make_shared<Injector>(plan, 7, 2);

  serve::GatewayConfig cfg;
  cfg.deadline_ms = 0.0;  // audit every frame: no shedding
  cfg.max_batch = 2;
  cfg.quarantine_after = 2;
  cfg.backoff_initial_ms = 0.25;
  cfg.backoff_max_ms = 1.0;
  std::vector<std::unique_ptr<serve::Backend>> backends;
  for (std::size_t r = 0; r < 2; ++r) {
    backends.push_back(std::make_unique<fault::ChaosBackend>(
        std::make_unique<AffineBackend>(), r, injector));
  }
  serve::Gateway gateway(std::move(backends), cfg);

  AffineBackend oracle;
  constexpr std::size_t kFrames = 32;
  std::vector<serve::Ticket> tickets;
  std::vector<Tensor> expected;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto frame = chaos_frame(8, 500 + i);
    expected.push_back(oracle.infer(frame));
    tickets.push_back(gateway.submit(frame, i));
  }
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(tickets[i].admitted);
    auto resp = tickets[i].response.get();  // throws if the frame was lost
    EXPECT_TRUE(seen.insert(resp.id).second) << "duplicate response " << i;
    EXPECT_EQ(resp.output, expected[i]) << "frame " << i;
  }
  gateway.stop();

  const auto snap = gateway.metrics().snapshot();
  EXPECT_EQ(snap.completed, kFrames);
  EXPECT_EQ(snap.backend_faults, injector->injected(FaultKind::kReplicaCrash));
  EXPECT_GT(snap.backend_faults, 0u);
  // Ops 1-3 crash with quarantine_after = 2: the streak must have tripped
  // at least one quarantine/restart cycle, visible in the metrics.
  EXPECT_GE(snap.quarantines, 1u);
  EXPECT_GE(snap.restarts, 1u);
  EXPECT_EQ(gateway.replica(0).health(), serve::ReplicaHealth::kHealthy);
}

TEST(ChaosServe, GatewayRoutesAroundAPermanentlyCrashingReplica) {
  Plan plan;
  plan.add({FaultKind::kReplicaCrash, 0, 0, 100000});  // replica 0 never works
  auto injector = std::make_shared<Injector>(plan, 7, 2);

  serve::GatewayConfig cfg;
  cfg.deadline_ms = 0.0;
  cfg.quarantine_after = 1;
  cfg.backoff_initial_ms = 0.25;
  cfg.backoff_max_ms = 1.0;
  std::vector<std::unique_ptr<serve::Backend>> backends;
  for (std::size_t r = 0; r < 2; ++r) {
    backends.push_back(std::make_unique<fault::ChaosBackend>(
        std::make_unique<AffineBackend>(), r, injector));
  }
  serve::Gateway gateway(std::move(backends), cfg);

  AffineBackend oracle;
  constexpr std::size_t kFrames = 24;
  std::vector<serve::Ticket> tickets;
  std::vector<Tensor> expected;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto frame = chaos_frame(8, 900 + i);
    expected.push_back(oracle.infer(frame));
    tickets.push_back(gateway.submit(frame, i));
  }
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(tickets[i].admitted);
    auto resp = tickets[i].response.get();
    EXPECT_EQ(resp.output, expected[i]) << "frame " << i;
    // Replica 0 can never complete a batch, so every answer is replica 1's.
    EXPECT_EQ(resp.replica, 1u);
  }
  gateway.stop();

  const auto snap = gateway.metrics().snapshot();
  EXPECT_EQ(snap.completed, kFrames);
  EXPECT_GT(snap.backend_faults, 0u);
  EXPECT_GE(snap.quarantines, 1u);
  // Work originally sharded to the sick replica must have been re-homed.
  EXPECT_GE(snap.redispatched, 1u);
}

// ---------------------------------------------- FaultPipeline (heavy)

TEST(FaultPipeline, OutageDegradesThenRejoinsTheReferenceBitForBit) {
  core::FacilityNodeConfig cfg;
  cfg.seed = 11;
  cfg.facility.assembler.max_stale_ticks = 2;
  constexpr std::uint64_t kTicks = 12;

  auto ref_node = core::FacilityNode::build(cfg);
  std::vector<core::TickReport> ref;
  for (std::uint64_t t = 0; t < kTicks; ++t) ref.push_back(ref_node.tick());

  Plan plan;
  plan.add({FaultKind::kHubOutage, 3, 3, 4});  // hub 3 dark, ticks 3-6
  auto injector = std::make_shared<Injector>(plan, cfg.seed);
  auto node = core::FacilityNode::build(cfg);
  node.facility_mutable().set_delivery_tap(
      [injector](std::uint32_t seq, std::vector<net::Delivery>& ds) {
        injector->apply(seq, ds);
      });

  for (std::uint64_t t = 0; t < kTicks; ++t) {
    const auto rep = node.tick();
    ASSERT_GT(rep.decision.probabilities.numel(), 0u) << t;  // never skipped
    if (t < 3) {
      EXPECT_EQ(rep.decision.probabilities, ref[t].decision.probabilities)
          << t;
      EXPECT_FALSE(rep.degraded) << t;
    } else if (t >= 3 + 2 && t < 7) {
      // Past the LKV staleness bound with the hub still dark: the decision
      // continues (on last-known data) but is flagged degraded.
      EXPECT_TRUE(rep.degraded) << t;
      EXPECT_GE(rep.stale_hubs, 1u) << t;
    } else if (t >= 8) {
      // One clean tick after the outage the LKV ages reset and the faulted
      // timeline rejoins the reference exactly.
      EXPECT_EQ(rep.decision.probabilities, ref[t].decision.probabilities)
          << t;
      EXPECT_EQ(rep.decision.target, ref[t].decision.target) << t;
      EXPECT_FALSE(rep.degraded) << t;
    }
  }
  EXPECT_GT(node.facility().assembler().counters().dropped_packets, 0u);
}

TEST(FaultPipeline, WatchdogRetryIsBitIdenticalAndWedgeFallsBackDegraded) {
  core::FacilityNodeConfig cfg;
  cfg.seed = 13;
  constexpr std::uint64_t kTicks = 6;

  auto ref_node = core::FacilityNode::build(cfg);
  std::vector<core::TickReport> ref;
  for (std::uint64_t t = 0; t < kTicks; ++t) ref.push_back(ref_node.tick());

  // Hang (first attempt wedges, retry succeeds): bit-identical, not
  // degraded, watchdog accounted.
  {
    Plan plan;
    plan.add({FaultKind::kNnIpHang, 0, 2, 2});
    auto injector = std::make_shared<Injector>(plan, cfg.seed);
    auto node = core::FacilityNode::build(cfg);
    node.facility_mutable().set_delivery_tap(
        [injector](std::uint32_t seq, std::vector<net::Delivery>& ds) {
          injector->apply(seq, ds);
        });
    node.deblender().soc().set_ip_hang_hook(injector->ip_hang_hook());
    for (std::uint64_t t = 0; t < kTicks; ++t) {
      const auto rep = node.tick();
      EXPECT_EQ(rep.decision.probabilities, ref[t].decision.probabilities)
          << t;
      EXPECT_FALSE(rep.degraded) << t;
      EXPECT_EQ(rep.nn_source, core::DecisionSource::kNnIp) << t;
      EXPECT_EQ(rep.watchdog_timeouts, t == 2 || t == 3 ? 1u : 0u) << t;
    }
    EXPECT_EQ(node.deblender().soc().watchdog_timeouts(), 2u);
    EXPECT_EQ(node.deblender().soc().fallback_frames(), 0u);
  }

  // Wedge (every attempt wedges): the HPS float fallback still delivers a
  // decision on every tick, flagged degraded and attributed.
  {
    Plan plan;
    plan.add({FaultKind::kNnIpWedge, 0, 2, 1});
    auto injector = std::make_shared<Injector>(plan, cfg.seed);
    auto node = core::FacilityNode::build(cfg);
    node.facility_mutable().set_delivery_tap(
        [injector](std::uint32_t seq, std::vector<net::Delivery>& ds) {
          injector->apply(seq, ds);
        });
    node.deblender().soc().set_ip_hang_hook(injector->ip_hang_hook());
    for (std::uint64_t t = 0; t < kTicks; ++t) {
      const auto rep = node.tick();
      ASSERT_GT(rep.decision.probabilities.numel(), 0u) << t;
      if (t == 2) {
        EXPECT_TRUE(rep.degraded);
        EXPECT_EQ(rep.nn_source, core::DecisionSource::kHpsFloatFallback);
      } else {
        EXPECT_EQ(rep.decision.probabilities, ref[t].decision.probabilities)
            << t;
        EXPECT_EQ(rep.nn_source, core::DecisionSource::kNnIp) << t;
      }
    }
    EXPECT_EQ(node.deblender().soc().fallback_frames(), 1u);
  }
}

// --------------------------------------------------------------- NetPlan

TEST(NetPlan, ScenarioIsDeterministicInSeedAndName) {
  fault::NetScenarioParams p;
  p.seed = 99;
  p.ops = 200;
  p.sites = 3;
  for (const auto& name : fault::NetPlan::scenario_names()) {
    EXPECT_EQ(fault::NetPlan::scenario(name, p).events(),
              fault::NetPlan::scenario(name, p).events())
        << name;
  }
  auto p2 = p;
  p2.seed = 100;
  EXPECT_NE(fault::NetPlan::scenario("torn", p).events(),
            fault::NetPlan::scenario("torn", p2).events());
}

TEST(NetPlan, WindowsStayInsideTheMiddleBand) {
  // Every scheduled window leaves a clean ramp before op ops/10 and a
  // clean tail after 8*ops/10 — a reconnected site must get fault-free
  // ops to resubmit through.
  fault::NetScenarioParams p;
  p.seed = 7;
  p.ops = 400;
  p.sites = 4;
  for (const char* name :
       {"torn", "short_write", "eagain", "corrupt", "stall", "net_storm"}) {
    const auto plan = fault::NetPlan::scenario(name, p);
    EXPECT_FALSE(plan.empty()) << name;
    for (const auto& e : plan.events()) {
      EXPECT_GE(e.start, p.ops / 10) << name;
      EXPECT_LE(e.start + e.duration, (8 * p.ops) / 10 + 1) << name;
      EXPECT_LT(e.site, p.sites) << name;
    }
  }
}

TEST(NetPlan, EverySiteParticipatesAndStormHasAllKinds) {
  fault::NetScenarioParams p;
  p.seed = 3;
  p.ops = 300;
  p.sites = 5;
  const auto torn = fault::NetPlan::scenario("torn", p);
  std::set<std::size_t> sites;
  for (const auto& e : torn.events()) sites.insert(e.site);
  EXPECT_EQ(sites.size(), p.sites);

  const auto storm = fault::NetPlan::scenario("net_storm", p);
  for (const auto kind :
       {fault::NetFaultKind::kConnReset, fault::NetFaultKind::kShortWrite,
        fault::NetFaultKind::kEagainStorm, fault::NetFaultKind::kByteCorrupt,
        fault::NetFaultKind::kStall}) {
    EXPECT_TRUE(storm.any(kind)) << to_string(kind);
  }
  EXPECT_TRUE(fault::NetPlan::scenario("net_none", p).empty());
  EXPECT_THROW(fault::NetPlan::scenario("bogus", p), std::invalid_argument);
}

// ----------------------------------------------------------- NetInjector

TEST(NetInjector, DecisionsAreAPureFunctionOfSeedSiteAndOp) {
  // Two injectors with the same plan and seed, driven through the same
  // fd open order and op sequence, make bit-identical verdicts — no
  // sockets needed, the IoTap surface is plain calls.
  fault::NetScenarioParams p;
  p.seed = 21;
  p.ops = 100;
  p.sites = 2;
  const auto plan = fault::NetPlan::scenario("short_write", p);
  fault::NetInjector x(plan, p.seed);
  fault::NetInjector y(plan, p.seed);
  x.on_open(10, true);
  y.on_open(44, true);  // different fd, same open order = same site
  for (std::uint64_t op = 0; op < p.ops; ++op) {
    EXPECT_EQ(x.gate_write(10, 64), y.gate_write(44, 64)) << op;
  }
  EXPECT_EQ(x.injected_total(), y.injected_total());
  EXPECT_GT(x.injected(fault::NetFaultKind::kShortWrite), 0u);
}

TEST(NetInjector, UntrackedFdsAndDisabledTapPassThrough) {
  fault::NetScenarioParams p;
  p.seed = 5;
  p.ops = 50;
  p.sites = 1;
  fault::NetInjector inj(fault::NetPlan::scenario("eagain", p), p.seed);

  // Never on_open()ed: transparent regardless of the plan.
  for (std::uint64_t op = 0; op < p.ops; ++op) {
    EXPECT_EQ(inj.gate_write(99, 128), 128);
    EXPECT_TRUE(inj.gate_read(99));
  }
  EXPECT_EQ(inj.injected_total(), 0u);

  // Tracked but disabled: ops still advance (site clocks keep ticking so a
  // re-enable lands where the schedule says), yet nothing is injected.
  inj.on_open(7, true);
  inj.enable(false);
  for (std::uint64_t op = 0; op < p.ops; ++op) {
    EXPECT_EQ(inj.gate_write(7, 128), 128);
    EXPECT_TRUE(inj.gate_read(7));
  }
  EXPECT_EQ(inj.injected_total(), 0u);
}

TEST(NetInjector, TornConnectionFragmentsThenTears) {
  // kConnReset windows are two ops wide: the first hit lets a short
  // fragment through (the tear must land mid-envelope on the peer), the
  // second returns kTear.
  fault::NetPlan plan;
  plan.add({fault::NetFaultKind::kConnReset, 0, 4, 2});
  fault::NetInjector inj(plan, 77);
  inj.on_open(3, true);
  for (std::uint64_t op = 0; op < 4; ++op) {
    EXPECT_EQ(inj.gate_write(3, 100), 100) << op;
  }
  const auto fragment = inj.gate_write(3, 100);  // op 4: armed, short
  EXPECT_GT(fragment, 0);
  EXPECT_LT(fragment, 100);
  EXPECT_EQ(inj.gate_write(3, 100), fault::NetInjector::kTear);  // op 5
  EXPECT_EQ(inj.gate_write(3, 100), 100);  // past the window: clean again
  EXPECT_EQ(inj.injected(fault::NetFaultKind::kConnReset), 1u);
}

TEST(NetInjector, RefusalScheduleTracksConnectAttempts) {
  fault::NetPlan plan;
  // Refuse the first two connect attempts against the first endpoint seen.
  plan.add({fault::NetFaultKind::kConnectRefuse, 0, 0, 2});
  fault::NetInjector inj(plan, 13);
  const auto ep = cluster::Endpoint::parse("tcp:127.0.0.1:9999");
  EXPECT_TRUE(inj.refuse_connect(ep));
  EXPECT_TRUE(inj.refuse_connect(ep));
  EXPECT_FALSE(inj.refuse_connect(ep));  // third attempt goes through
  // A different endpoint is a different connect-site: untouched by site 0.
  const auto other = cluster::Endpoint::parse("tcp:127.0.0.1:9998");
  EXPECT_FALSE(inj.refuse_connect(other));
  EXPECT_EQ(inj.injected(fault::NetFaultKind::kConnectRefuse), 2u);
}

TEST(NetInjector, CorruptionFlipsBitsOnlyInsideTheWindow) {
  fault::NetPlan plan;
  plan.add({fault::NetFaultKind::kByteCorrupt, 0, 0, 64});
  fault::NetInjector inj(plan, 31);
  inj.on_open(8, true);
  std::size_t flipped = 0;
  for (std::uint64_t op = 0; op < 64; ++op) {
    std::vector<std::uint8_t> buf(32, 0xA5);
    ASSERT_EQ(inj.gate_write(8, buf.size()),
              static_cast<std::ptrdiff_t>(buf.size()));
    inj.mangle_write(8, buf.data(), buf.size());
    std::size_t diff = 0;
    for (const auto b : buf) {
      if (b != 0xA5) ++diff;
    }
    EXPECT_LE(diff, 1u) << op;  // at most one bit in one byte per write
    flipped += diff;
  }
  EXPECT_GT(flipped, 0u);
  EXPECT_EQ(inj.injected(fault::NetFaultKind::kByteCorrupt), flipped);

  // Outside any window nothing is ever touched.
  std::vector<std::uint8_t> clean(32, 0x5A);
  ASSERT_EQ(inj.gate_write(8, clean.size()),
            static_cast<std::ptrdiff_t>(clean.size()));
  inj.mangle_write(8, clean.data(), clean.size());
  EXPECT_TRUE(std::all_of(clean.begin(), clean.end(),
                          [](std::uint8_t b) { return b == 0x5A; }));
}

}  // namespace
