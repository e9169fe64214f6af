// Unit tests for the FlowMonitor facade.
#include "flowtable/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/synthetic.hpp"
#include "util/math.hpp"

namespace disco::flowtable {
namespace {

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0x0a000000u + i, 0xc0a80001u,
                   static_cast<std::uint16_t>(1024 + i), 443, 17};
}

FlowMonitor::Config small_config() {
  FlowMonitor::Config c;
  c.max_flows = 512;
  c.counter_bits = 12;
  c.max_flow_bytes = 1 << 24;
  c.max_flow_packets = 1 << 16;
  c.seed = 99;
  return c;
}

TEST(FlowMonitor, QueryUnknownFlowIsEmpty) {
  FlowMonitor monitor(small_config());
  EXPECT_FALSE(monitor.query(tuple(0)).has_value());
}

TEST(FlowMonitor, TracksBytesAndPackets) {
  FlowMonitor monitor(small_config());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(monitor.ingest(tuple(1), 500));
  const auto est = monitor.query(tuple(1));
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->bytes, 500.0 * 1000, 500.0 * 1000 * 0.25);
  EXPECT_NEAR(est->packets, 1000.0, 1000.0 * 0.25);
  EXPECT_EQ(monitor.packets_seen(), 1000u);
}

TEST(FlowMonitor, RejectsWhenTableFull) {
  auto config = small_config();
  config.max_flows = 8;
  FlowMonitor monitor(config);
  for (std::uint32_t i = 0; i < 8; ++i) ASSERT_TRUE(monitor.ingest(tuple(i), 100));
  EXPECT_FALSE(monitor.ingest(tuple(100), 100));
  EXPECT_EQ(monitor.table().rejected_flows(), 1u);
  EXPECT_EQ(monitor.packets_seen(), 8u);  // rejected packet not counted
}

TEST(FlowMonitor, TopKOrderingAndSize) {
  FlowMonitor monitor(small_config());
  // Flow volumes 1x, 5x, 25x.
  for (int i = 0; i < 20; ++i) (void)monitor.ingest(tuple(0), 200);
  for (int i = 0; i < 100; ++i) (void)monitor.ingest(tuple(1), 200);
  for (int i = 0; i < 500; ++i) (void)monitor.ingest(tuple(2), 200);
  const auto top = monitor.top_k(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].flow, tuple(2));
  EXPECT_EQ(top[1].flow, tuple(1));
  EXPECT_GE(top[0].bytes, top[1].bytes);
  // k larger than population clips.
  EXPECT_EQ(monitor.top_k(50).size(), 3u);
}

TEST(FlowMonitor, TotalsApproximateTruth) {
  FlowMonitor monitor(small_config());
  util::Rng rng(3);
  const auto flows = trace::scenario1().make_flows(100, rng);
  std::uint64_t truth_bytes = 0;
  std::uint64_t truth_packets = 0;
  for (const auto& f : flows) {
    for (auto l : f.lengths) (void)monitor.ingest(tuple(f.id), l);
    truth_bytes += f.bytes();
    truth_packets += f.packets();
  }
  const auto totals = monitor.totals();
  EXPECT_EQ(totals.flows, 100u);
  EXPECT_NEAR(totals.bytes, static_cast<double>(truth_bytes),
              static_cast<double>(truth_bytes) * 0.1);
  EXPECT_NEAR(totals.packets, static_cast<double>(truth_packets),
              static_cast<double>(truth_packets) * 0.1);
}

TEST(FlowMonitor, MemoryReportScalesWithBudget) {
  auto config = small_config();
  const FlowMonitor monitor(config);
  const auto memory = monitor.memory();
  EXPECT_EQ(memory.volume_counter_bits,
            config.max_flows * static_cast<std::size_t>(config.counter_bits));
  EXPECT_EQ(memory.size_counter_bits, memory.volume_counter_bits);
  EXPECT_GT(memory.flow_table_bits, 0u);
  EXPECT_EQ(memory.total(), memory.volume_counter_bits +
                                memory.size_counter_bits + memory.flow_table_bits);
}

TEST(FlowMonitor, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    auto config = small_config();
    config.seed = seed;
    FlowMonitor monitor(config);
    for (int i = 0; i < 5000; ++i) {
      (void)monitor.ingest(tuple(static_cast<std::uint32_t>(i % 37)),
                           64 + static_cast<std::uint32_t>(i % 1400));
    }
    return monitor.totals().bytes;
  };
  EXPECT_DOUBLE_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(FlowMonitor, IngestBatchMatchesSequentialBursts) {
  // The batch API's contract is exact equivalence under every admission
  // policy: same accepted count, same counters, same evictions, same RNG
  // stream positions (measurement and pressure) as per-element
  // ingest_burst.  max_flows = 512 < 600 distinct flows, so the table
  // fills: Drop rejects the tail bursts, while RAP and EvictSmallest send
  // them through the victim path, which the batched walk must reach with
  // every earlier burst's update already applied.
  std::vector<FlowBurst> bursts;
  util::Rng source(7);
  for (int i = 0; i < 3000; ++i) {
    bursts.push_back(FlowBurst{tuple(static_cast<std::uint32_t>(i % 600)),
                               source.uniform_u64(64, 90'000),
                               source.uniform_u64(1, 60),
                               static_cast<std::uint64_t>(i) * 1000});
  }

  for (const AdmissionPolicy admission :
       {AdmissionPolicy::Drop, AdmissionPolicy::RandomizedAdmission,
        AdmissionPolicy::EvictSmallest}) {
    SCOPED_TRACE(static_cast<int>(admission));
    FlowMonitor::Config config = small_config();
    config.pressure.admission = admission;
    FlowMonitor batched(config);
    FlowMonitor sequential(config);
    std::size_t accepted_batched = batched.ingest_batch(bursts);
    std::size_t accepted_seq = 0;
    for (const FlowBurst& b : bursts) {
      accepted_seq += sequential.ingest_burst(b.flow, b.bytes, b.packets,
                                              b.last_ns)
                          ? 1
                          : 0;
    }
    EXPECT_EQ(accepted_batched, accepted_seq);
    EXPECT_EQ(batched.packets_seen(), sequential.packets_seen());
    EXPECT_EQ(batched.pressure().flows_rejected,
              sequential.pressure().flows_rejected);
    EXPECT_EQ(batched.pressure().flows_evicted,
              sequential.pressure().flows_evicted);
    if (admission == AdmissionPolicy::Drop) {
      EXPECT_LT(accepted_batched, bursts.size());
    } else {
      EXPECT_GT(batched.pressure().flows_evicted, 0u);
    }
    for (std::uint32_t i = 0; i < 600; ++i) {
      const auto eb = batched.query(tuple(i));
      const auto es = sequential.query(tuple(i));
      ASSERT_EQ(eb.has_value(), es.has_value()) << "flow " << i;
      if (eb) {
        ASSERT_EQ(eb->bytes, es->bytes) << "flow " << i;
        ASSERT_EQ(eb->packets, es->packets) << "flow " << i;
      }
    }
    // RNG streams still in lockstep: one more identical ingest on each side
    // must stay bit-identical.
    ASSERT_EQ(batched.ingest(tuple(3), 999), sequential.ingest(tuple(3), 999));
    const auto eb = batched.query(tuple(3));
    const auto es = sequential.query(tuple(3));
    ASSERT_EQ(eb.has_value(), es.has_value());
    if (eb) {
      EXPECT_EQ(eb->bytes, es->bytes);
    }
    EXPECT_EQ(batched.pressure().flows_evicted,
              sequential.pressure().flows_evicted);
  }
}

/// The full "estimate all, sort all" top-k that FlowMonitor::top_k replaced,
/// kept only as this test's oracle: every tracked flow's estimates, fully
/// sorted by (bytes desc, tuple_less), cut to k.
std::vector<FlowMonitor::FlowEstimate> estimate_all_sort_all(
    const FlowMonitor& monitor, std::size_t k) {
  std::vector<FlowMonitor::FlowEstimate> all;
  monitor.table().for_each([&](std::uint32_t, const FiveTuple& key) {
    all.push_back(*monitor.query(key));
  });
  std::sort(all.begin(), all.end(),
            [](const FlowMonitor::FlowEstimate& a,
               const FlowMonitor::FlowEstimate& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return tuple_less(a.flow, b.flow);
            });
  if (all.size() > k) all.resize(k);
  return all;
}

/// top_k(k) must equal the oracle bit for bit for k in {0, 1, a cut inside
/// the planted ties, size, > size}.
void expect_top_k_matches_oracle(const FlowMonitor& monitor) {
  const std::size_t size = monitor.table().size();
  ASSERT_GT(size, 20u);
  for (const std::size_t k :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, size / 2, size,
        size + 3}) {
    const auto expected = estimate_all_sort_all(monitor, k);
    const auto actual = monitor.top_k(k);
    ASSERT_EQ(actual.size(), expected.size()) << "k=" << k;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].flow, expected[i].flow) << "k=" << k << " i=" << i;
      EXPECT_EQ(actual[i].bytes, expected[i].bytes) << "k=" << k << " i=" << i;
      EXPECT_EQ(actual[i].packets, expected[i].packets)
          << "k=" << k << " i=" << i;
    }
  }
}

/// Mixed traffic with planted counter ties: flows 0..59 each receive the
/// same single burst, so many share one raw volume counter and only the
/// tuple order separates them; flows 60..199 get varied traffic.
void feed_with_ties(FlowMonitor& monitor, std::uint64_t seed,
                    std::uint64_t now_ns = 0) {
  util::Rng rng(seed);
  for (std::uint32_t f = 0; f < 60; ++f) {
    (void)monitor.ingest_burst(tuple(f), 1500, 1, now_ns);
  }
  for (int i = 0; i < 4000; ++i) {
    const auto f = static_cast<std::uint32_t>(rng.uniform_u64(60, 199));
    (void)monitor.ingest_burst(tuple(f), rng.uniform_u64(40, 1500), 1, now_ns);
  }
}

TEST(FlowMonitorTopK, MatchesOracleUnderDisco) {
  FlowMonitor monitor(small_config());
  feed_with_ties(monitor, 1);
  // The planted ties are real: some neighbours in the full order share a
  // byte estimate, so the tuple tie-break is exercised.
  const auto all = estimate_all_sort_all(monitor, monitor.table().size());
  std::size_t ties = 0;
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i].bytes == all[i - 1].bytes) ++ties;
  }
  EXPECT_GT(ties, 5u);
  expect_top_k_matches_oracle(monitor);
}

TEST(FlowMonitorTopK, MatchesOracleAfterMidEpochRescaleB) {
  FlowMonitor::Config config = small_config();
  config.counter_bits = 8;
  config.max_flow_bytes = 1 << 16;
  config.pressure.saturation = SaturationPolicy::RescaleB;
  FlowMonitor monitor(config);
  feed_with_ties(monitor, 3);
  const double b_before = monitor.rotate().volume_b;  // epoch 0 at base b
  feed_with_ties(monitor, 4);
  // One elephant drives the volume array past its width mid-epoch: b grows
  // for every counter already in the table, and more traffic follows.
  for (int i = 0; i < 600; ++i) (void)monitor.ingest_burst(tuple(500), 9000, 1);
  feed_with_ties(monitor, 5);
  EXPECT_GT(monitor.pressure().rescale_events, 0u);
  EXPECT_EQ(monitor.top_k(1).front().flow, tuple(500));
  expect_top_k_matches_oracle(monitor);
  EXPECT_LT(b_before, monitor.rotate().volume_b);
}

TEST(FlowMonitorTopK, MatchesOracleWithSlotHolesAfterEvictIdle) {
  FlowMonitor monitor(small_config());
  feed_with_ties(monitor, 7, /*now_ns=*/1'000);
  // Refresh half the flows, then evict the stale half: freed slots leave
  // holes in slot order, and a few new flows reuse some of them.
  for (std::uint32_t f = 0; f < 200; f += 2) {
    (void)monitor.ingest_burst(tuple(f), 100, 1, 5'000);
  }
  const auto evicted = monitor.evict_idle(6'000, 2'000);
  EXPECT_EQ(evicted.size(), 100u);
  for (std::uint32_t f = 1000; f < 1030; ++f) {
    (void)monitor.ingest_burst(tuple(f), 1500, 1, 7'000);
  }
  expect_top_k_matches_oracle(monitor);
}

}  // namespace
}  // namespace disco::flowtable
