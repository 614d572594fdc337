// Network substrate tests: packet encoding, hub layout/transmission, frame
// assembly (including loss and straggler handling), ACNET journaling, and
// the facility link end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "mutate.hpp"

#include "net/acnet.hpp"
#include "net/assembler.hpp"
#include "net/facility.hpp"
#include "net/hub.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace reads;

TEST(Packet, ReadingCodecRoundTripsWithinQuantum) {
  for (double v : {0.0, 1.5, 104'987.25, 119'999.9375}) {
    EXPECT_NEAR(net::decode_reading(net::encode_reading(v)), v,
                1.0 / net::kCountScale);
  }
}

TEST(Packet, CodecClampsNegativeAndHuge) {
  EXPECT_EQ(net::encode_reading(-5.0), 0u);
  EXPECT_EQ(net::encode_reading(1e12), 4294967295u);
}

TEST(Packet, CodecEncodesNanAsZeroCounts) {
  // A glitched digitizer front-end can emit NaN; the cast to unsigned would
  // be UB without the guard.
  EXPECT_EQ(net::encode_reading(std::numeric_limits<double>::quiet_NaN()), 0u);
}

TEST(Packet, WireBytesIncludeFramingAndCrc) {
  net::BlmPacket p;
  p.readings.resize(37);
  EXPECT_EQ(p.wire_bytes(), 12u + 37u * 4u + 42u);
}

TEST(Packet, CrcDetectsCorruption) {
  net::BlmPacket p;
  p.hub_id = 3;
  p.sequence = 41;
  p.first_monitor = 100;
  p.readings = {1u, 2u, 3u};
  net::seal_packet(p);
  EXPECT_TRUE(net::packet_crc_ok(p));
  p.readings[1] ^= 0x00010000u;  // single flipped bit in flight
  EXPECT_FALSE(net::packet_crc_ok(p));
  p.readings[1] ^= 0x00010000u;
  EXPECT_TRUE(net::packet_crc_ok(p));
  p.sequence ^= 1u;  // header corruption is caught too
  EXPECT_FALSE(net::packet_crc_ok(p));
}

TEST(HubLayout, CoversRingExactlyOnce) {
  const auto spans = net::hub_layout(260, 7);
  ASSERT_EQ(spans.size(), 7u);
  std::size_t covered = 0;
  std::uint16_t cursor = 0;
  for (const auto& [first, count] : spans) {
    EXPECT_EQ(first, cursor);
    covered += count;
    cursor = static_cast<std::uint16_t>(cursor + count);
  }
  EXPECT_EQ(covered, 260u);
  // 260 = 7*37 + 1: one hub gets an extra monitor.
  EXPECT_EQ(spans[0].second, 38u);
  EXPECT_EQ(spans[1].second, 37u);
}

TEST(HubLayout, RejectsDegenerateRequests) {
  EXPECT_THROW(net::hub_layout(3, 7), std::invalid_argument);
  EXPECT_THROW(net::hub_layout(10, 0), std::invalid_argument);
}

TEST(BlmHub, TransmitsItsSpan) {
  net::BlmHub hub(2, 10, 5, net::LinkParams{}, 1);
  std::vector<double> frame(260, 0.0);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = 100'000.0 + static_cast<double>(i);
  }
  const auto d = hub.transmit(7, frame);
  EXPECT_FALSE(d.dropped);
  EXPECT_EQ(d.packet.hub_id, 2);
  EXPECT_EQ(d.packet.sequence, 7u);
  EXPECT_EQ(d.packet.first_monitor, 10);
  ASSERT_EQ(d.packet.readings.size(), 5u);
  EXPECT_NEAR(net::decode_reading(d.packet.readings[0]), 100'010.0, 0.1);
  EXPECT_GT(d.arrival_us, 0.0);
  EXPECT_EQ(hub.packets_sent(), 1u);
}

TEST(BlmHub, DropProbabilityOneDropsEverything) {
  net::LinkParams link;
  link.drop_probability = 1.0;
  net::BlmHub hub(0, 0, 4, link, 2);
  const std::vector<double> frame(4, 1.0);
  const auto d = hub.transmit(0, frame);
  EXPECT_TRUE(d.dropped);
  EXPECT_EQ(hub.packets_dropped(), 1u);
}

TEST(BlmHub, ArrivalIncludesSerializationTime) {
  net::LinkParams slow;
  slow.bandwidth_gbps = 0.001;  // make wire time dominate
  slow.jitter_sigma_us = 0.0;
  net::BlmHub hub(0, 0, 100, slow, 3);
  const std::vector<double> frame(100, 1.0);
  const auto d = hub.transmit(0, frame);
  const double wire_us =
      static_cast<double>(d.packet.wire_bytes()) * 8.0 / (0.001 * 1e3);
  EXPECT_NEAR(d.arrival_us, slow.base_latency_us + wire_us, 1.0);
}

std::vector<net::Delivery> make_deliveries(std::uint32_t seq,
                                           std::size_t monitors,
                                           std::size_t hubs, double value) {
  const auto layout = net::hub_layout(monitors, hubs);
  std::vector<net::Delivery> ds;
  for (std::size_t h = 0; h < hubs; ++h) {
    net::Delivery d;
    d.packet.hub_id = static_cast<std::uint8_t>(h);
    d.packet.sequence = seq;
    d.packet.first_monitor = layout[h].first;
    for (std::uint16_t i = 0; i < layout[h].second; ++i) {
      d.packet.readings.push_back(net::encode_reading(value));
    }
    net::seal_packet(d.packet);
    d.arrival_us = 20.0 + static_cast<double>(h);
    ds.push_back(std::move(d));
  }
  return ds;
}

TEST(FrameAssembler, CompleteFrameUsesLatestArrival) {
  net::FrameAssembler asm_({.monitors = 21, .hubs = 7, .deadline_us = 400.0});
  const auto frame = asm_.assemble(0, make_deliveries(0, 21, 7, 5.0));
  EXPECT_TRUE(frame.complete());
  EXPECT_EQ(frame.packets_used, 7u);
  EXPECT_DOUBLE_EQ(frame.assembly_us, 26.0);  // slowest hub
  for (std::size_t m = 0; m < 21; ++m) EXPECT_NEAR(frame.raw[m], 5.0f, 0.1f);
}

TEST(FrameAssembler, LostPacketFallsBackToLastKnown) {
  net::FrameAssembler asm_({.monitors = 21, .hubs = 7, .deadline_us = 400.0});
  asm_.assemble(0, make_deliveries(0, 21, 7, 9.0));  // prime last-known
  auto ds = make_deliveries(1, 21, 7, 3.0);
  ds[2].dropped = true;
  const auto frame = asm_.assemble(1, ds);
  EXPECT_FALSE(frame.complete());
  EXPECT_EQ(frame.packets_missing, 1u);
  // Hub 2's monitors (6..8) keep the previous value 9; others update to 3.
  EXPECT_NEAR(frame.raw[6], 9.0f, 0.1f);
  EXPECT_NEAR(frame.raw[0], 3.0f, 0.1f);
  // We held the line until the deadline for the missing packet.
  EXPECT_DOUBLE_EQ(frame.assembly_us, 400.0);
}

TEST(FrameAssembler, StragglerBeyondDeadlineCountsAsLost) {
  net::FrameAssembler asm_({.monitors = 14, .hubs = 7, .deadline_us = 100.0});
  auto ds = make_deliveries(0, 14, 7, 2.0);
  ds[5].arrival_us = 250.0;
  const auto frame = asm_.assemble(0, ds);
  EXPECT_EQ(frame.packets_missing, 1u);
  EXPECT_EQ(asm_.packets_lost(), 1u);
}

TEST(FrameAssembler, RejectsStaleSequenceWithoutSkippingTheTick) {
  // A stale (or replayed) packet must not crash the tick — it is counted,
  // its hub falls back to last-known values, and the frame still goes out.
  net::FrameAssembler asm_({.monitors = 14, .hubs = 7, .deadline_us = 100.0});
  auto ds = make_deliveries(3, 14, 7, 2.0);
  const auto frame = asm_.assemble(4, ds);
  EXPECT_EQ(frame.packets_used, 0u);
  EXPECT_EQ(frame.packets_missing, 7u);
  EXPECT_EQ(frame.packets_rejected, 7u);
  EXPECT_EQ(asm_.counters().sequence_rejects, 7u);
}

TEST(FrameAssembler, RejectsCorruptPacket) {
  net::FrameAssembler asm_({.monitors = 14, .hubs = 7, .deadline_us = 100.0});
  auto ds = make_deliveries(0, 14, 7, 2.0);
  ds[3].packet.readings[0] ^= 0x40u;  // bit flip on the wire; CRC now stale
  const auto frame = asm_.assemble(0, ds);
  EXPECT_EQ(frame.packets_used, 6u);
  EXPECT_EQ(frame.packets_missing, 1u);
  EXPECT_EQ(asm_.counters().crc_rejects, 1u);
}

TEST(FrameAssembler, RejectsDuplicateHubDelivery) {
  // A duplicated datagram must not double-count packets_used or overwrite
  // the span twice.
  net::FrameAssembler asm_({.monitors = 14, .hubs = 7, .deadline_us = 100.0});
  auto ds = make_deliveries(0, 14, 7, 2.0);
  ds.push_back(ds[4]);  // exact duplicate of hub 4
  const auto frame = asm_.assemble(0, ds);
  EXPECT_TRUE(frame.complete());
  EXPECT_EQ(frame.packets_used, 7u);
  EXPECT_EQ(frame.packets_rejected, 1u);
  EXPECT_EQ(asm_.counters().duplicate_rejects, 1u);
}

TEST(FrameAssembler, MalformedPacketIsCountedNotIndexed) {
  // hub_id/first_monitor/readings.size() are attacker-controlled from the
  // assembler's point of view; a packet disagreeing with the canonical
  // layout must be refused before any indexing happens.
  net::FrameAssembler asm_({.monitors = 14, .hubs = 7, .deadline_us = 100.0});
  auto ds = make_deliveries(0, 14, 7, 2.0);
  ds[1].packet.first_monitor = 9000;  // far beyond the ring
  net::seal_packet(ds[1].packet);     // valid CRC: malformation is upstream
  ds[2].packet.hub_id = 200;
  net::seal_packet(ds[2].packet);
  ds[6].packet.readings.resize(1);  // truncated payload
  net::seal_packet(ds[6].packet);
  const auto frame = asm_.assemble(0, ds);
  EXPECT_EQ(frame.packets_used, 4u);
  EXPECT_EQ(asm_.counters().malformed_rejects, 3u);
}

TEST(FrameAssembler, ReorderedDeliveriesAssembleIdentically) {
  net::FrameAssembler a({.monitors = 14, .hubs = 7, .deadline_us = 100.0});
  net::FrameAssembler b({.monitors = 14, .hubs = 7, .deadline_us = 100.0});
  auto ds = make_deliveries(0, 14, 7, 2.0);
  auto reversed = ds;
  std::reverse(reversed.begin(), reversed.end());
  const auto fa = a.assemble(0, ds);
  const auto fb = b.assemble(0, reversed);
  EXPECT_EQ(fa.raw, fb.raw);
  EXPECT_EQ(fb.packets_used, 7u);
}

TEST(FrameAssembler, MultiTickOutageAgesThenRecovers) {
  // Sustained hub outage: last-known substitution holds for max_stale_ticks,
  // then the frame is flagged degraded; the first good packet clears it.
  net::AssemblerParams params{.monitors = 14, .hubs = 7, .deadline_us = 100.0};
  params.max_stale_ticks = 2;
  net::FrameAssembler asm_(params);
  asm_.assemble(0, make_deliveries(0, 14, 7, 9.0));  // prime last-known
  EXPECT_EQ(asm_.hub_age(3), 0u);

  for (std::uint32_t t = 1; t <= 4; ++t) {
    auto ds = make_deliveries(t, 14, 7, 3.0);
    ds[3].dropped = true;
    const auto frame = asm_.assemble(t, ds);
    EXPECT_EQ(frame.packets_missing, 1u);
    EXPECT_EQ(asm_.hub_age(3), t);
    EXPECT_EQ(frame.max_staleness_ticks, t);
    // Hub 3's span (monitors 6..7) still carries the primed value.
    EXPECT_NEAR(frame.raw[6], 9.0f, 0.1f);
    EXPECT_NEAR(frame.raw[0], 3.0f, 0.1f);
    // Within the bound the substitution is trusted; beyond it, degraded.
    if (t <= params.max_stale_ticks) {
      EXPECT_FALSE(frame.degraded) << "tick " << t;
      EXPECT_EQ(frame.stale_hubs, 0u);
    } else {
      EXPECT_TRUE(frame.degraded) << "tick " << t;
      EXPECT_EQ(frame.stale_hubs, 1u);
    }
  }

  // Recovery on the first good packet: age resets, degraded clears, and the
  // hub's monitors snap to live data.
  const auto frame = asm_.assemble(5, make_deliveries(5, 14, 7, 4.0));
  EXPECT_TRUE(frame.complete());
  EXPECT_FALSE(frame.degraded);
  EXPECT_EQ(asm_.hub_age(3), 0u);
  EXPECT_NEAR(frame.raw[6], 4.0f, 0.1f);
}

TEST(FrameAssembler, ImplausibleReadingsAreSubstituted) {
  // With a plausibility window configured, saturated counts (all-ones from
  // a dead ADC) keep the monitor's last-known value instead of poisoning
  // the standardized frame.
  net::AssemblerParams params{.monitors = 14, .hubs = 7, .deadline_us = 100.0};
  params.plausible_min = 1.0;
  params.plausible_max = 1e6;
  net::FrameAssembler asm_(params);
  asm_.assemble(0, make_deliveries(0, 14, 7, 9.0));
  auto ds = make_deliveries(1, 14, 7, 3.0);
  ds[0].packet.readings[0] = 0xFFFFFFFFu;  // ~268e6 decoded: saturated
  net::seal_packet(ds[0].packet);
  const auto frame = asm_.assemble(1, ds);
  EXPECT_TRUE(frame.complete());
  EXPECT_NEAR(frame.raw[0], 9.0f, 0.1f);  // substituted
  EXPECT_NEAR(frame.raw[1], 3.0f, 0.1f);  // live
  EXPECT_EQ(asm_.counters().implausible_readings, 1u);
}

TEST(AcnetPublisher, JournalsAndCountsTrips) {
  net::AcnetPublisher acnet({.uplink_latency_us = 45.0, .journal_depth = 2});
  acnet.publish(0, "RR", 1.0, 9.0);
  acnet.publish(1, "none", 0.1, 0.2);
  const auto& msg = acnet.publish(2, "MI", 7.0, 1.0);
  EXPECT_EQ(msg.publish_latency_us, 45.0);
  EXPECT_EQ(acnet.published(), 3u);
  EXPECT_EQ(acnet.trips_mi(), 1u);
  EXPECT_EQ(acnet.trips_rr(), 1u);
  EXPECT_EQ(acnet.journal().size(), 2u);  // bounded
  EXPECT_EQ(acnet.journal().front().sequence, 1u);
}

TEST(FacilityLink, TicksProduceSequencedFrames) {
  net::FacilityParams params;
  net::FacilityLink link(params, 5);
  ASSERT_EQ(link.hubs().size(), 7u);
  const auto f0 = link.tick();
  const auto f1 = link.tick();
  EXPECT_EQ(f0.sequence, 0u);
  EXPECT_EQ(f1.sequence, 1u);
  EXPECT_EQ(f0.raw.shape(), (std::vector<std::size_t>{260, 1}));
  EXPECT_TRUE(f0.complete());
  EXPECT_GT(f0.assembly_us, 0.0);
  EXPECT_LT(f0.assembly_us, params.assembler.deadline_us);
  // Raw magnitudes in the facility regime.
  EXPECT_GT(f0.raw.max_abs(), 100'000.0f);
}

TEST(FacilityLink, DeterministicPerSeed) {
  net::FacilityParams params;
  net::FacilityLink a(params, 9);
  net::FacilityLink b(params, 9);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.tick().raw, b.tick().raw);
  }
}

TEST(FacilityLink, LossyLinkStillDeliversFrames) {
  net::FacilityParams params;
  params.link.drop_probability = 0.5;
  net::FacilityLink link(params, 11);
  std::size_t incomplete = 0;
  for (int i = 0; i < 20; ++i) {
    if (!link.tick().complete()) ++incomplete;
  }
  EXPECT_GT(incomplete, 0u);  // losses happened...
  EXPECT_EQ(link.assembler().frames_assembled(), 20u);  // ...frames kept coming
}

// ---- PacketDecoder: adversarial read() chunking --------------------------
// A TCP/UDS read() returns whatever the kernel has: a packet may arrive one
// byte at a time, split inside any header field, or coalesced with its
// neighbors. Framing must reassemble the identical packet in every case.

std::vector<std::uint8_t> wire_stream(
    const std::vector<net::BlmPacket>& packets) {
  std::vector<std::uint8_t> bytes;
  for (const auto& p : packets) net::append_packet(bytes, p);
  return bytes;
}

std::vector<net::BlmPacket> sealed_ring(std::uint32_t seq, std::size_t monitors,
                                        std::size_t hubs) {
  std::vector<net::BlmPacket> packets;
  const auto layout = net::hub_layout(monitors, hubs);
  for (std::size_t h = 0; h < hubs; ++h) {
    net::BlmPacket p;
    p.hub_id = static_cast<std::uint8_t>(h);
    p.sequence = seq;
    p.first_monitor = layout[h].first;
    for (std::uint16_t i = 0; i < layout[h].second; ++i) {
      p.readings.push_back(net::encode_reading(
          100'000.0 + static_cast<double>(layout[h].first + i)));
    }
    net::seal_packet(p);
    packets.push_back(std::move(p));
  }
  return packets;
}

void expect_same_packet(const net::BlmPacket& got, const net::BlmPacket& want) {
  EXPECT_EQ(got.hub_id, want.hub_id);
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.first_monitor, want.first_monitor);
  EXPECT_EQ(got.crc, want.crc);
  EXPECT_EQ(got.readings, want.readings);
  EXPECT_TRUE(net::packet_crc_ok(got));
}

TEST(PacketDecoder, OneByteReadsDecodeIdentically) {
  const auto packets = sealed_ring(3, 21, 7);
  const auto bytes = wire_stream(packets);
  net::PacketDecoder dec;
  std::size_t got = 0;
  for (const auto b : bytes) {
    ASSERT_TRUE(dec.feed(&b, 1));
    while (auto p = dec.next()) {
      expect_same_packet(*p, packets[got]);
      ++got;
    }
  }
  EXPECT_EQ(got, packets.size());
  EXPECT_EQ(dec.pending_bytes(), 0u);
  EXPECT_FALSE(dec.broken());
}

TEST(PacketDecoder, SplitInsideCrcFieldReassembles) {
  const auto packets = sealed_ring(4, 21, 3);
  const auto bytes = wire_stream(packets);
  // The CRC occupies wire bytes [7, 11) of each packet; cut the stream in
  // the middle of the first packet's CRC and again inside its length field.
  for (const std::size_t cut : {9u, 12u}) {
    net::PacketDecoder dec;
    ASSERT_TRUE(dec.feed(bytes.data(), cut));
    EXPECT_EQ(dec.ready(), 0u);  // nothing complete yet
    EXPECT_GT(dec.pending_bytes(), 0u);
    ASSERT_TRUE(dec.feed(bytes.data() + cut, bytes.size() - cut));
    for (const auto& want : packets) {
      auto p = dec.next();
      ASSERT_TRUE(p.has_value());
      expect_same_packet(*p, want);
    }
    EXPECT_FALSE(dec.next().has_value());
  }
}

TEST(PacketDecoder, CoalescedPacketsPlusPartialTailDecodeInOrder) {
  const auto packets = sealed_ring(5, 40, 4);
  auto bytes = wire_stream(packets);
  // One read() delivering three whole packets plus half of the fourth.
  const std::size_t tail = net::packet_wire_size(packets[3]) / 2;
  const std::size_t head = bytes.size() - tail;
  net::PacketDecoder dec;
  ASSERT_TRUE(dec.feed(bytes.data(), head));
  EXPECT_EQ(dec.ready(), 3u);
  ASSERT_TRUE(dec.feed(bytes.data() + head, tail));
  for (const auto& want : packets) {
    auto p = dec.next();
    ASSERT_TRUE(p.has_value());
    expect_same_packet(*p, want);
  }
  EXPECT_EQ(dec.packets_decoded(), 4u);
}

TEST(PacketDecoder, ImplausibleLengthFieldBreaksTheStreamPermanently) {
  net::BlmPacket p = sealed_ring(6, 21, 3)[0];
  std::vector<std::uint8_t> bytes;
  net::append_packet(bytes, p);
  // Corrupt the reading-count field (wire bytes [11, 15)) to an absurd
  // value: framing has no boundaries left to trust after that.
  bytes[11] = 0xff;
  bytes[12] = 0xff;
  bytes[13] = 0xff;
  bytes[14] = 0x7f;
  net::PacketDecoder dec;
  EXPECT_FALSE(dec.feed(bytes.data(), bytes.size()));
  EXPECT_TRUE(dec.broken());
  EXPECT_FALSE(dec.next().has_value());
  // Even pristine further input is refused — the caller must drop the
  // connection, not resynchronize.
  net::BlmPacket fresh = sealed_ring(7, 21, 3)[0];
  std::vector<std::uint8_t> more;
  net::append_packet(more, fresh);
  EXPECT_FALSE(dec.feed(more.data(), more.size()));
  EXPECT_EQ(dec.ready(), 0u);
}

TEST(PacketDecoder, ChunkedStreamFeedsAssemblerToIdenticalFrame) {
  // End-to-end: the same tick's packets, once assembled from pristine
  // deliveries and once rebuilt from a 1-byte-at-a-time wire stream, must
  // produce bit-identical frames.
  const std::size_t monitors = 21;
  const std::size_t hubs = 7;
  const auto packets = sealed_ring(1, monitors, hubs);

  const net::AssemblerParams params{.monitors = monitors, .hubs = hubs};
  net::FrameAssembler direct(params);
  std::vector<net::Delivery> ds;
  for (const auto& p : packets) {
    ds.push_back(net::Delivery{p, 25.0, false});
  }
  const auto want = direct.assemble(1, ds);
  ASSERT_TRUE(want.complete());

  const auto bytes = wire_stream(packets);
  net::PacketDecoder dec;
  std::vector<net::Delivery> rebuilt;
  for (const auto b : bytes) {
    ASSERT_TRUE(dec.feed(&b, 1));
    while (auto p = dec.next()) {
      rebuilt.push_back(net::Delivery{std::move(*p), 25.0, false});
    }
  }
  ASSERT_EQ(rebuilt.size(), hubs);
  net::FrameAssembler chunked(params);
  const auto got = chunked.assemble(1, rebuilt);
  ASSERT_TRUE(got.complete());
  EXPECT_EQ(got.raw, want.raw);
}

TEST(PacketDecoder, MutatedTickYieldsOriginalFrameOrCountedDamage) {
  // 1,000 seeded flip/insert/delete mutations of a real encoded tick (the
  // seven hub packets of the 260-monitor ring), each fed in random chunks
  // through PacketDecoder -> FrameAssembler. Only two outcomes are allowed:
  // the original frame bit-for-bit, or an incomplete frame whose damage is
  // on record — refused packets in AssemblerCounters, a broken decoder, or
  // the bytes of a truncated packet still pending in the decoder. A
  // complete frame with other values, or a missing hub nobody counted,
  // fails the test.
  const std::uint32_t seq = 42;
  const auto layout = net::hub_layout(260, 7);
  util::Xoshiro256 frame_rng(5);
  std::vector<double> readings(260);
  for (auto& r : readings) r = 105'000.0 + 15'000.0 * frame_rng.uniform();
  std::vector<net::Delivery> pristine;
  std::vector<std::uint8_t> bytes;
  for (std::size_t h = 0; h < layout.size(); ++h) {
    net::BlmHub hub(static_cast<std::uint8_t>(h), layout[h].first,
                    layout[h].second, net::LinkParams{}, 11 + h);
    auto d = hub.transmit(seq, readings);
    ASSERT_FALSE(d.dropped);
    net::append_packet(bytes, d.packet);
    pristine.push_back(net::Delivery{d.packet, 25.0, false});
  }
  const net::AssemblerParams params{};  // 260 monitors, 7 hubs
  const auto want = net::FrameAssembler(params).assemble(seq, pristine);
  ASSERT_TRUE(want.complete());

  const std::string valid(bytes.begin(), bytes.end());
  util::Xoshiro256 rng(2024);
  std::size_t intact = 0;
  std::size_t damaged = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const std::string m = test::mutate(valid, rng);
    net::PacketDecoder dec;
    std::vector<net::Delivery> ds;
    for (std::size_t off = 0; off < m.size();) {
      const std::size_t len =
          std::min<std::size_t>(m.size() - off, 1 + rng.uniform_int(300));
      dec.feed(reinterpret_cast<const std::uint8_t*>(m.data()) + off, len);
      off += len;
      while (auto p = dec.next()) {
        ds.push_back(net::Delivery{std::move(*p), 25.0, false});
      }
    }
    net::FrameAssembler assembler(params);
    const auto got = assembler.assemble(seq, ds);
    if (got.complete()) {
      ASSERT_EQ(got.raw, want.raw) << "trial " << trial
                                   << ": a complete frame with other values";
      ++intact;
      continue;
    }
    ASSERT_TRUE(assembler.counters().total_rejects() > 0 || dec.broken() ||
                dec.pending_bytes() > 0)
        << "trial " << trial << ": " << got.packets_missing
        << " hubs missing and no damage counted";
    ++damaged;
  }
  EXPECT_EQ(intact + damaged, 1000u);
  EXPECT_GT(damaged, 0u);
}

}  // namespace
