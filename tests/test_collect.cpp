// Unit + adversarial coverage for the aggregation tier (src/collect):
//
//   * DRPT v3 wire format: site-id / error-metadata round-trip, strict
//     rejection of other versions, non-finite / negative values and
//     nonzero reserved fields, streaming ReportReader semantics (clean EOF
//     vs mid-report truncation, poisoning);
//   * Collector merge semantics: disjoint-site sums, cross-site key fusion
//     with variance-accounted intervals, duplicate / reordered / late /
//     lagging-site stream hygiene (traffic counted at most once, always),
//     reports without error metadata, PressureStats reconciliation,
//     subscriber + ModuleHost integration;
//   * transports: spool files and the loopback socket path, each with
//     torn streams (including DISCO_FAULTS short-write injection on the
//     spool) and rejected-but-whole reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "collect/collector.hpp"
#include "collect/transport.hpp"
#include "core/estimate_merge.hpp"
#include "core/theory.hpp"
#include "flowtable/report_io.hpp"
#include "modules/host.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace disco::collect {
namespace {

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0x0a000000u + i, 0xc0a80001u,
                   static_cast<std::uint16_t>(1024 + i), 443, 6};
}

struct FlowSpec {
  std::uint32_t id;
  double bytes;
  double packets;
};

/// Hand-built epoch report with known estimates and error metadata --
/// deterministic input for merge-semantics tests.
EpochReport make_report(std::uint64_t epoch, double b,
                        const std::vector<FlowSpec>& flows) {
  EpochReport report;
  report.epoch = epoch;
  report.volume_b = b;
  report.size_b = b;
  for (const FlowSpec& f : flows) {
    report.flows.push_back({tuple(f.id), f.bytes, f.packets});
    report.totals.bytes += f.bytes;
    report.totals.packets += f.packets;
  }
  report.totals.flows = report.flows.size();
  return report;
}

// --- wire format -------------------------------------------------------------

TEST(ReportIoV3, SiteIdAndErrorMetadataRoundTrip) {
  auto report = make_report(4, 1.0625, {{1, 1000.0, 10.0}, {2, 500.0, 5.0}});
  report.pressure = flowtable::PressureStats{3, 2, 1, 4};
  std::stringstream buf;
  flowtable::write_report(buf, report, /*site_id=*/9);

  flowtable::ReportReader reader(buf);
  const auto item = reader.next();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->site_id, 9u);
  EXPECT_EQ(item->report.epoch, 4u);
  EXPECT_DOUBLE_EQ(item->report.volume_b, 1.0625);
  EXPECT_DOUBLE_EQ(item->report.size_b, 1.0625);
  EXPECT_EQ(item->report.pressure.flows_rejected, 3u);
  ASSERT_EQ(item->report.flows.size(), 2u);
  EXPECT_EQ(item->report.flows[0].flow, tuple(1));
  EXPECT_DOUBLE_EQ(item->report.flows[0].bytes, 1000.0);
  EXPECT_FALSE(reader.next().has_value());  // clean EOF
  EXPECT_EQ(reader.items_read(), 1u);
}

/// Byte layouts the reader must refuse, each after one valid report: the
/// two retired wire versions (v1: epoch, totals, flows; v2: v1 plus the
/// pressure block), a newer version header, v3 reports carrying values
/// no estimator produces, and v3 reports with a nonzero reserved field
/// (offsets 92 and 100, docs/collector.md).
std::vector<std::pair<std::string, std::string>> rejected_streams() {
  const auto v3 = [](const EpochReport& report) {
    std::stringstream buf;
    flowtable::write_report(buf, report, /*site_id=*/2);
    return buf.str();
  };
  const auto legacy = [](std::uint32_t version) {
    std::string out;
    const auto put = [&out](const auto& v) {
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(flowtable::kReportMagic);
    put(version);
    put(std::uint64_t{1});                     // epoch
    put(10.0);                                 // totals.bytes
    put(1.0);                                  // totals.packets
    put(std::uint64_t{1});                     // totals.flows
    if (version == 2) {
      for (int i = 0; i < 4; ++i) put(std::uint64_t{0});  // PressureStats
    }
    put(std::uint64_t{0});                     // flow records
    return out;
  };
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  std::string v4 = v3(make_report(1, 1.05, {{2, 20.0, 1.0}}));
  const std::uint32_t four = 4;
  std::memcpy(v4.data() + sizeof(flowtable::kReportMagic), &four,
              sizeof(four));
  auto negative_total = make_report(1, 1.05, {{2, 20.0, 1.0}});
  negative_total.totals.bytes = -20.0;
  auto infinite_base = make_report(1, 1.05, {{2, 20.0, 1.0}});
  infinite_base.size_b = inf;
  const auto reserved = [&v3](std::size_t offset, double value) {
    std::string bytes = v3(make_report(1, 1.05, {{2, 20.0, 1.0}}));
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  return {
      {"NaN flow bytes", v3(make_report(1, 1.05, {{2, nan, 1.0}}))},
      {"negative flow packets", v3(make_report(1, 1.05, {{2, 20.0, -1.0}}))},
      {"negative total", v3(negative_total)},
      {"infinite base", v3(infinite_base)},
      {"NaN reserved field at 92", reserved(92, nan)},
      {"nonzero reserved field at 100", reserved(100, 4.0)},
      {"v1 record", legacy(1)},
      {"v2 record", legacy(2)},
      {"version-4 header", v4},
  };
}

TEST(ReportIoV3, ReaderRejectsOtherVersionsAndOutOfRangeValues) {
  std::stringstream valid;
  flowtable::write_report(valid, make_report(0, 1.05, {{1, 10.0, 1.0}}));
  for (const auto& [name, bad] : rejected_streams()) {
    std::stringstream buf(valid.str() + bad);
    flowtable::ReportReader reader(buf);
    ASSERT_TRUE(reader.next().has_value()) << name;
    EXPECT_THROW((void)reader.next(), std::runtime_error) << name;
    // Poisoned: nothing after the rejected report is ever delivered.
    EXPECT_THROW((void)reader.next(), std::runtime_error) << name;
    EXPECT_EQ(reader.items_read(), 1u) << name;

    std::stringstream alone(bad);
    EXPECT_THROW((void)flowtable::read_report(alone), std::runtime_error)
        << name;
  }
}

TEST(ReportIoV3, ReaderThrowsOnTruncationAndStaysPoisoned) {
  std::stringstream buf;
  flowtable::write_report(buf, make_report(0, 1.05, {{1, 10.0, 1.0}}));
  flowtable::write_report(buf, make_report(1, 1.05, {{2, 20.0, 2.0}}));
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 5);  // tear the second report mid-record
  std::stringstream cut(bytes);

  flowtable::ReportReader reader(cut);
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_THROW((void)reader.next(), std::runtime_error);
  // Poisoned: no resync attempts that could smuggle in a half-read report.
  EXPECT_THROW((void)reader.next(), std::runtime_error);
  EXPECT_EQ(reader.items_read(), 1u);
}

// --- collector merge semantics ----------------------------------------------

TEST(Collector, DisjointSitesSumExactly) {
  Collector collector;
  EXPECT_EQ(collector.ingest(0, make_report(0, 1.05, {{1, 100.0, 2.0}})),
            Collector::IngestResult::Accepted);
  EXPECT_EQ(collector.ingest(1, make_report(0, 1.05, {{2, 300.0, 4.0}})),
            Collector::IngestResult::Accepted);
  collector.finalize_all();

  const auto totals = collector.totals();
  EXPECT_DOUBLE_EQ(totals.bytes, 400.0);
  EXPECT_DOUBLE_EQ(totals.packets, 6.0);
  EXPECT_EQ(totals.flows, 2u);
  EXPECT_TRUE(totals.interval_valid);

  const auto top = collector.top_k(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].flow, tuple(2));  // descending by bytes
  EXPECT_DOUBLE_EQ(top[0].bytes, 300.0);
  EXPECT_EQ(top[0].sites, 1u);
  EXPECT_EQ(top[1].flow, tuple(1));
}

TEST(Collector, KeyFusionPoolsVarianceAcrossSites) {
  // The same flow measured independently at two sites: the merged estimate
  // sums, and the pooled interval is NARROWER than a single-site estimate
  // of the same total would be (sum of squares < square of sum).
  Collector collector;
  (void)collector.ingest(0, make_report(0, 1.05, {{1, 1000.0, 10.0}}));
  (void)collector.ingest(1, make_report(0, 1.05, {{1, 1000.0, 10.0}}));
  collector.finalize_all();

  const auto top = collector.top_k(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].sites, 2u);
  EXPECT_DOUBLE_EQ(top[0].bytes, 2000.0);
  EXPECT_TRUE(top[0].interval_valid);

  const double e = core::theory::cv_bound(1.05);
  const double z = core::theory::normal_quantile(0.5 + 0.95 / 2.0);
  const double pooled_half = z * std::sqrt(2.0 * e * e * 1000.0 * 1000.0);
  const double single_half = z * e * 2000.0;
  EXPECT_NEAR(top[0].bytes_high - top[0].bytes, pooled_half,
              1e-9 * pooled_half);
  EXPECT_LT(top[0].bytes_high - top[0].bytes, single_half);
}

TEST(Collector, DuplicateReportRejectedWithoutDoubleCount) {
  Collector collector;
  const auto report = make_report(0, 1.05, {{1, 100.0, 2.0}});
  EXPECT_EQ(collector.ingest(0, report), Collector::IngestResult::Accepted);
  EXPECT_EQ(collector.ingest(0, report), Collector::IngestResult::Duplicate);
  collector.finalize_all();

  EXPECT_DOUBLE_EQ(collector.totals().bytes, 100.0);
  EXPECT_EQ(collector.reports_ingested(), 1u);
  const auto sites = collector.sites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].duplicates, 1u);
  EXPECT_EQ(sites[0].reports, 1u);
}

TEST(Collector, ReorderedDeliveryConvergesToInOrderState) {
  const auto e0 = make_report(0, 1.05, {{1, 10.0, 1.0}});
  const auto e1 = make_report(1, 1.05, {{1, 20.0, 1.0}, {2, 5.0, 1.0}});
  const auto e2 = make_report(2, 1.05, {{2, 40.0, 2.0}});

  Collector in_order;
  (void)in_order.ingest(0, e0);
  (void)in_order.ingest(0, e1);
  (void)in_order.ingest(0, e2);
  in_order.finalize_all();

  Collector shuffled;
  (void)shuffled.ingest(0, e2);
  (void)shuffled.ingest(0, e0);
  (void)shuffled.ingest(0, e1);
  shuffled.finalize_all();

  EXPECT_DOUBLE_EQ(shuffled.totals().bytes, in_order.totals().bytes);
  EXPECT_EQ(shuffled.totals().flows, in_order.totals().flows);
  const auto a = in_order.top_k(10);
  const auto b = shuffled.top_k(10);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flow, b[i].flow) << i;
    EXPECT_DOUBLE_EQ(a[i].bytes, b[i].bytes) << i;
  }
  ASSERT_EQ(shuffled.sites().size(), 1u);
  EXPECT_EQ(shuffled.sites()[0].reordered, 2u);
  EXPECT_EQ(shuffled.sites()[0].duplicates, 0u);
}

TEST(Collector, LateReportFoldsOnceAndIsNotReEmitted) {
  Collector collector;
  std::vector<std::uint64_t> emitted;
  collector.subscribe(
      [&emitted](const EpochReport& r) { emitted.push_back(r.epoch); });

  // Site 0 races ahead: epochs 0 and 1 finalise (2 stays open as the
  // fleet highwater).
  (void)collector.ingest(0, make_report(0, 1.05, {{1, 10.0, 1.0}}));
  (void)collector.ingest(0, make_report(1, 1.05, {{1, 10.0, 1.0}}));
  (void)collector.ingest(0, make_report(2, 1.05, {{1, 10.0, 1.0}}));
  ASSERT_EQ(collector.epochs_finalized(), 2u);

  // A site the collector has never seen shows up with the finalised epoch
  // 0: late.  Its traffic still counts exactly once, but epoch 0 is not
  // re-emitted to subscribers.
  EXPECT_EQ(collector.ingest(1, make_report(0, 1.05, {{2, 50.0, 1.0}})),
            Collector::IngestResult::Late);
  collector.finalize_all();

  EXPECT_DOUBLE_EQ(collector.totals().bytes, 80.0);
  EXPECT_EQ(emitted, (std::vector<std::uint64_t>{0, 1, 2}));
  const auto sites = collector.sites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[1].late, 1u);
  EXPECT_EQ(sites[1].reports, 1u);
}

TEST(Collector, NewestEpochStaysOpenUntilFinalizeAll) {
  // Watermark rule: with every site current, nothing below highwater is
  // missing, but the newest epoch itself must stay open -- an unknown site
  // may still contribute to it.
  Collector collector;
  (void)collector.ingest(0, make_report(0, 1.05, {{1, 10.0, 1.0}}));
  (void)collector.ingest(1, make_report(0, 1.05, {{2, 10.0, 1.0}}));
  EXPECT_EQ(collector.epochs_finalized(), 0u);
  (void)collector.ingest(2, make_report(0, 1.05, {{3, 10.0, 1.0}}));
  EXPECT_EQ(collector.epochs_finalized(), 0u);
  collector.finalize_all();
  EXPECT_EQ(collector.epochs_finalized(), 1u);
  for (const auto& site : collector.sites()) {
    EXPECT_EQ(site.late, 0u) << site.site_id;
  }
}

TEST(Collector, LaggingSiteStopsGatingFinalisation) {
  CollectorConfig config;
  config.liveness_window = 2;
  Collector collector(config);
  // Site 1 delivers epoch 0 then goes quiet; site 0 keeps rotating.
  (void)collector.ingest(1, make_report(0, 1.05, {{9, 5.0, 1.0}}));
  for (std::uint64_t epoch = 0; epoch <= 5; ++epoch) {
    (void)collector.ingest(0, make_report(epoch, 1.05, {{1, 10.0, 1.0}}));
  }
  // Epochs 1+ cannot wait forever on site 1: once its lag exceeds the
  // window it stops gating, and epochs below the highwater finalise.
  EXPECT_GE(collector.epochs_finalized(), 3u);

  const auto sites = collector.sites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_FALSE(sites[0].lagging);
  EXPECT_TRUE(sites[1].lagging);
  EXPECT_EQ(sites[1].lag_epochs, 5u);
  EXPECT_GE(sites[1].epoch_gaps, 3u);
  collector.finalize_all();
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 65.0);
}

TEST(Collector, ReportsWithoutErrorMetadataInvalidateInterval) {
  // An in-process report whose bases were never set: no interval can be
  // derived, so none is guessed.
  auto bare = make_report(0, 0.0, {{1, 100.0, 2.0}});
  Collector collector;
  (void)collector.ingest(0, bare);
  collector.finalize_all();
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 100.0);  // still unbiased
  EXPECT_FALSE(collector.totals().interval_valid);
  EXPECT_FALSE(collector.top_k(1)[0].interval_valid);
}

TEST(Collector, PressureReconciliationSumsLatestPerSite) {
  Collector collector;
  auto a0 = make_report(0, 1.05, {{1, 1.0, 1.0}});
  a0.pressure = flowtable::PressureStats{10, 0, 0, 1};
  auto a1 = make_report(1, 1.05, {{1, 1.0, 1.0}});
  a1.pressure = flowtable::PressureStats{25, 3, 0, 2};  // cumulative
  auto b0 = make_report(0, 1.05, {{2, 1.0, 1.0}});
  b0.pressure = flowtable::PressureStats{0, 0, 7, 0};
  (void)collector.ingest(0, a0);
  (void)collector.ingest(0, a1);
  (void)collector.ingest(1, b0);
  collector.finalize_all();

  // Per-site counters are cumulative: fleet pressure is the sum of each
  // site's LATEST values, not the sum over reports.
  const auto pressure = collector.pressure();
  EXPECT_EQ(pressure.flows_rejected, 25u);
  EXPECT_EQ(pressure.flows_evicted, 3u);
  EXPECT_EQ(pressure.counters_saturated, 7u);
  EXPECT_EQ(pressure.rescale_events, 2u);
}

TEST(Collector, TrackedFlowCapKeepsTotalsExact) {
  CollectorConfig config;
  config.max_tracked_flows = 4;
  Collector collector(config);
  std::vector<FlowSpec> flows;
  for (std::uint32_t i = 0; i < 10; ++i) {
    flows.push_back({i, 100.0, 1.0});
  }
  (void)collector.ingest(0, make_report(0, 1.05, flows));
  collector.finalize_all();

  EXPECT_EQ(collector.tracked_flows(), 4u);
  EXPECT_EQ(collector.flows_dropped(), 6u);
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 1000.0);  // exact past the cap
}

TEST(Collector, SubscribersAndModuleHostSeeMergedReports) {
  Collector collector;
  modules::ModuleHost host("collector_modules_test");
  host.attach(modules::make_module("topports"));
  host.subscribe_to(collector);  // duck-typed: same surface as a monitor

  (void)collector.ingest(0, make_report(0, 1.05, {{1, 100.0, 2.0}}));
  (void)collector.ingest(1, make_report(0, 1.05, {{1, 50.0, 1.0}}));
  (void)collector.ingest(0, make_report(1, 1.05, {{2, 10.0, 1.0}}));
  (void)collector.ingest(1, make_report(1, 1.05, {{3, 20.0, 1.0}}));
  collector.finalize_all();

  EXPECT_EQ(host.epochs_dispatched(), 2u);
  std::stringstream out;
  host.export_text(out);
  EXPECT_NE(out.str().find("topports"), std::string::npos);
}

/// The pre-selection Collector::top_k, kept only as this test's oracle:
/// build every key's GlobalEstimate (merged sums, Theorem-2 interval, site
/// count), sort them all by (bytes desc, tuple_less), keep k.  The keys are
/// re-merged here from the same reports in the same order, so every double
/// must match bit for bit.
std::vector<GlobalEstimate> full_sort_top_k(
    const std::vector<std::pair<std::uint32_t, EpochReport>>& reports,
    double confidence, std::size_t k) {
  struct Key {
    core::MixedEstimateAccumulator bytes;
    core::MixedEstimateAccumulator packets;
    std::uint64_t sites = 0;
  };
  std::unordered_map<FiveTuple, Key> keys;
  for (const auto& [site, report] : reports) {
    for (const auto& flow : report.flows) {
      Key& key = keys[flow.flow];
      key.bytes.add_multiplicative(flow.bytes, report.volume_b);
      key.packets.add_multiplicative(flow.packets, report.size_b);
      key.sites |= std::uint64_t{1} << site;
    }
  }
  std::vector<GlobalEstimate> all;
  for (const auto& [flow, key] : keys) {
    GlobalEstimate g;
    g.flow = flow;
    g.bytes = key.bytes.sum();
    g.packets = key.packets.sum();
    const core::MergedInterval interval = key.bytes.interval(confidence);
    g.bytes_low = interval.low;
    g.bytes_high = interval.high;
    g.interval_valid = interval.valid;
    g.sites = static_cast<std::uint32_t>(std::bitset<64>(key.sites).count());
    all.push_back(g);
  }
  std::sort(all.begin(), all.end(),
            [](const GlobalEstimate& a, const GlobalEstimate& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return flowtable::tuple_less(a.flow, b.flow);
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(Collector, TopKMatchesFullSortOracle) {
  // Three sites (site ids = registration order, so the oracle's site bits
  // line up), overlapping keys, different bases, and planted ties: 40 flows
  // share one byte value, so the tuple tie-break decides the cut.
  util::Rng rng(515);
  std::vector<std::pair<std::uint32_t, EpochReport>> reports;
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    for (std::uint32_t site = 0; site < 3; ++site) {
      std::vector<FlowSpec> flows;
      for (std::uint32_t id = 0; id < 300; ++id) {
        if (!rng.bernoulli(0.5)) continue;
        const double bytes =
            id < 40 ? 777.0 : static_cast<double>(rng.uniform_u64(1, 5000));
        flows.push_back({id, bytes, 1.0 + static_cast<double>(id % 7)});
      }
      reports.emplace_back(site,
                           make_report(epoch, 1.02 + 0.01 * site, flows));
    }
  }
  Collector collector;
  for (const auto& [site, report] : reports) collector.ingest(site, report);

  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                              std::size_t{45}, collector.tracked_flows(),
                              collector.tracked_flows() + 5}) {
    const auto expected =
        full_sort_top_k(reports, collector.config().confidence, k);
    const auto actual = collector.top_k(k);
    ASSERT_EQ(actual.size(), expected.size()) << "k=" << k;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].flow, expected[i].flow) << "k=" << k << " i=" << i;
      EXPECT_EQ(actual[i].bytes, expected[i].bytes) << "k=" << k << " i=" << i;
      EXPECT_EQ(actual[i].packets, expected[i].packets) << "k=" << k;
      EXPECT_EQ(actual[i].bytes_low, expected[i].bytes_low) << "k=" << k;
      EXPECT_EQ(actual[i].bytes_high, expected[i].bytes_high) << "k=" << k;
      EXPECT_EQ(actual[i].interval_valid, expected[i].interval_valid);
      EXPECT_EQ(actual[i].sites, expected[i].sites) << "k=" << k;
    }
  }
}

TEST(Collector, MergedEpochReportFusesDuplicateKeys) {
  Collector collector;
  std::vector<EpochReport> emitted;
  collector.subscribe(
      [&emitted](const EpochReport& r) { emitted.push_back(r); });
  (void)collector.ingest(0, make_report(0, 1.04, {{1, 100.0, 2.0}}));
  (void)collector.ingest(1, make_report(0, 1.08, {{1, 60.0, 1.0},
                                                     {2, 40.0, 1.0}}));
  collector.finalize_all();

  ASSERT_EQ(emitted.size(), 1u);
  const EpochReport& merged = emitted[0];
  EXPECT_EQ(merged.epoch, 0u);
  ASSERT_EQ(merged.flows.size(), 2u);  // flow 1 fused, not duplicated
  double flow1 = 0.0;
  for (const auto& f : merged.flows) {
    if (f.flow == tuple(1)) flow1 = f.bytes;
  }
  EXPECT_DOUBLE_EQ(flow1, 160.0);
  EXPECT_DOUBLE_EQ(merged.totals.bytes, 200.0);
  EXPECT_EQ(merged.totals.flows, 2u);
  EXPECT_DOUBLE_EQ(merged.volume_b, 1.08);  // conservative max across sites
}

// --- spool transport ---------------------------------------------------------

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void append_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string serialized(const EpochReport& report, std::uint32_t site_id) {
  std::stringstream buf;
  flowtable::write_report(buf, report, site_id);
  return buf.str();
}

/// Report `epoch` of the four-report streams the transport tests send: the
/// flows of epochs 0, 2 and 3 sum to 140 bytes, and only epoch 3 carries
/// flow 7.
EpochReport stream_report(std::uint64_t epoch) {
  const std::uint32_t id = epoch == 3 ? 7 : 1;
  const double bytes =
      epoch == 3 ? 100.0 : 10.0 * static_cast<double>(epoch + 1);
  return make_report(epoch, 1.05, {{id, bytes, 1.0}});
}

TEST(SpoolSource, TornTailFreezesOffsetThenResumes) {
  TempFile spool("collect_spool_torn.bin");
  const std::string first = serialized(make_report(0, 1.05, {{1, 10.0, 1.0}}), 0);
  const std::string second =
      serialized(make_report(1, 1.05, {{2, 20.0, 1.0}}), 0);
  append_bytes(spool.path(), first);
  append_bytes(spool.path(), second.substr(0, second.size() / 2));

  Collector collector;
  SpoolSource source({spool.path()});
  auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 1u);
  EXPECT_EQ(stats.truncated_tails, 1u);

  // The monitor finishes its flush: the tail completes in place and the
  // next poll picks up exactly the missing report -- no double count.
  append_bytes(spool.path(), second.substr(second.size() / 2));
  stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 1u);
  EXPECT_EQ(stats.truncated_tails, 0u);
  EXPECT_EQ(source.reports_delivered(), 2u);

  collector.finalize_all();
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 30.0);
  ASSERT_EQ(collector.sites().size(), 1u);
  EXPECT_EQ(collector.sites()[0].duplicates, 0u);
}

TEST(SpoolSource, RejectedReportIsSkippedNotTreatedAsTornTail) {
  // Four whole reports from one site; the second carries a NaN flow.  The
  // reader rejects it, but its frame is complete, so the poller counts it
  // once, skips exactly those bytes, and still delivers report 4 (a torn
  // tail would have frozen the file before report 2 forever).
  TempFile spool("collect_spool_rejected.bin");
  for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
    EpochReport report = stream_report(epoch);
    if (epoch == 1) report.flows[0].bytes = std::nan("");
    append_bytes(spool.path(), serialized(report, 0));
  }
  Collector collector;
  SpoolSource source({spool.path()});
  auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.truncated_tails, 0u);
  EXPECT_EQ(source.reports_delivered(), 3u);

  // The rejection is not re-counted, and nothing is re-delivered.
  stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.truncated_tails, 0u);

  collector.finalize_all();
  EXPECT_EQ(collector.reports_ingested(), 3u);
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 10.0 + 30.0 + 100.0);
  const auto top = collector.top_k(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].flow, tuple(7));  // report 4's flow arrived
}

TEST(SpoolSource, RejectedReportMidFileThenTornTail) {
  // A rejection followed by a torn tail: the rejection is skipped, the tear
  // freezes the offset right after it, and the completed tail resumes.
  TempFile spool("collect_spool_rejected_torn.bin");
  append_bytes(spool.path(),
               serialized(make_report(0, 1.05, {{1, -5.0, 1.0}}), 0));
  const std::string whole =
      serialized(make_report(1, 1.05, {{2, 20.0, 1.0}}), 0);
  append_bytes(spool.path(), whole.substr(0, 7));
  Collector collector;
  SpoolSource source({spool.path()});
  auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.truncated_tails, 1u);

  append_bytes(spool.path(), whole.substr(7));
  stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.truncated_tails, 0u);
  collector.finalize_all();
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 20.0);
}

TEST(SpoolSource, MissingFileRetriesWithoutFailing) {
  TempFile spool("collect_spool_missing.bin");
  Collector collector;
  SpoolSource source({spool.path()});
  auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 0u);
  EXPECT_EQ(stats.unreadable, 1u);

  append_bytes(spool.path(),
               serialized(make_report(0, 1.05, {{1, 10.0, 1.0}}), 0));
  stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 1u);
  EXPECT_EQ(stats.unreadable, 0u);
}

TEST(SpoolSource, RoundRobinInterleavesFleetEpochs) {
  // Two spool files, three epochs each: round-robin delivery means the
  // watermark advances fleet-wide and nothing is misclassified late.
  TempFile a("collect_spool_a.bin");
  TempFile b("collect_spool_b.bin");
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    append_bytes(a.path(), serialized(
        make_report(epoch, 1.05, {{1, 10.0, 1.0}}), 0));
    append_bytes(b.path(), serialized(
        make_report(epoch, 1.05, {{2, 10.0, 1.0}}), 1));
  }
  Collector collector;
  SpoolSource source({a.path(), b.path()});
  const auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 6u);
  collector.finalize_all();
  EXPECT_EQ(collector.epochs_finalized(), 3u);
  for (const auto& site : collector.sites()) {
    EXPECT_EQ(site.late, 0u) << site.site_id;
    EXPECT_EQ(site.reports, 3u) << site.site_id;
  }
}

#if DISCO_FAULTS
TEST(SpoolSource, InjectedShortWriteLeavesRecoverableSpool) {
  TempFile spool("collect_spool_fault.bin");
  const auto report = make_report(0, 1.05, {{1, 10.0, 1.0}, {2, 20.0, 2.0}});
  {
    // The monitor's write dies mid-report (disk full / kill -9 mid-flush).
    util::fault::Plan plan;
    plan.start_after = 5;
    plan.fail_count = 1;
    util::fault::arm(util::fault::Point::kShortWrite, plan);
    std::ofstream out(spool.path(), std::ios::binary);
    EXPECT_THROW(flowtable::write_report(out, report, 0), std::runtime_error);
    util::fault::disarm_all();
  }
  Collector collector;
  SpoolSource source({spool.path()});
  auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 0u);
  EXPECT_EQ(stats.truncated_tails, 1u);
  EXPECT_EQ(collector.reports_ingested(), 0u);  // nothing half-counted

  // The monitor restarts and rewrites its spool from the frozen offset.
  {
    std::ofstream out(spool.path(), std::ios::binary | std::ios::trunc);
    flowtable::write_report(out, report, 0);
  }
  stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 1u);
  collector.finalize_all();
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 30.0);
}
#endif  // DISCO_FAULTS

// --- socket transport --------------------------------------------------------

TEST(SocketTransport, ClientServerRoundTrip) {
  // Handler threads drain each connection at their own pace: one site can
  // race every epoch in before another site's first report.  Known fleet
  // => pre-register it (and keep the liveness window wider than the run),
  // so finalisation waits instead of misclassifying the slow site late.
  CollectorConfig config;
  config.liveness_window = 8;
  Collector collector(config);
  collector.expect_site(0);
  collector.expect_site(1);
  std::unique_ptr<ReportServer> server;
  try {
    server = std::make_unique<ReportServer>(collector);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind loopback socket: " << e.what();
  }

  {
    ReportClient c0("127.0.0.1", server->port());
    ReportClient c1("127.0.0.1", server->port());
    for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
      c0.send(make_report(epoch, 1.05, {{1, 10.0, 1.0}}), 0);
      c1.send(make_report(epoch, 1.05, {{2, 20.0, 1.0}}), 1);
    }
  }  // destructors flush + close

  // Wait for all 6 reports to drain through the handler threads.
  for (int spins = 0; spins < 1000; ++spins) {
    {
      util::MutexLock lock(server->ingest_mutex());
      if (collector.reports_ingested() == 6) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server->stop();
  EXPECT_EQ(server->connections_accepted(), 2u);
  EXPECT_EQ(server->truncated_streams(), 0u);

  collector.finalize_all();
  EXPECT_EQ(collector.reports_ingested(), 6u);
  EXPECT_EQ(collector.epochs_finalized(), 3u);
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 90.0);
  for (const auto& site : collector.sites()) {
    EXPECT_EQ(site.late, 0u) << site.site_id;
    EXPECT_EQ(site.duplicates, 0u) << site.site_id;
  }
}

/// Starts a loopback server, lets `send` stream four reports from site 0
/// whose second is malformed, and checks that the server skipped exactly
/// that report and kept reading the connection.
void expect_second_report_skipped(
    const std::function<void(std::uint16_t port)>& send) {
  Collector collector;
  std::unique_ptr<ReportServer> server;
  try {
    server = std::make_unique<ReportServer>(collector);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind loopback socket: " << e.what();
  }
  send(server->port());
  for (int spins = 0; spins < 1000; ++spins) {
    {
      util::MutexLock lock(server->ingest_mutex());
      if (collector.reports_ingested() + server->rejected_reports() >= 4) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server->stop();
  EXPECT_EQ(server->connections_accepted(), 1u);
  EXPECT_EQ(server->rejected_reports(), 1u);
  EXPECT_EQ(server->truncated_streams(), 0u);

  collector.finalize_all();
  EXPECT_EQ(collector.reports_ingested(), 3u);
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 10.0 + 30.0 + 100.0);
  const auto top = collector.top_k(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].flow, tuple(7));  // report 4's flow arrived
}

TEST(SocketTransport, RejectedReportIsSkippedConnectionKeepsReading) {
  // One client, four reports, the second with a NaN flow: the server
  // counts it as rejected (not as a torn stream) and ingests the rest.
  expect_second_report_skipped([](std::uint16_t port) {
    ReportClient client("127.0.0.1", port);
    for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
      EpochReport report = stream_report(epoch);
      if (epoch == 1) report.flows[0].bytes = std::nan("");
      client.send(report, 0);
    }
  });
}

TEST(SocketTransport, NonzeroReservedFieldIsSkippedConnectionKeepsReading) {
  // The same stream as raw bytes, the second report carrying 1.0 in the
  // reserved field at offset 92 -- a frame ReportClient cannot produce.
  expect_second_report_skipped([](std::uint16_t port) {
    std::string bytes;
    for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
      std::string frame = serialized(stream_report(epoch), 0);
      if (epoch == 1) {
        const double one = 1.0;
        std::memcpy(frame.data() + 92, &one, sizeof(one));
      }
      bytes += frame;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      std::size_t sent = 0;
      while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
      }
      EXPECT_EQ(sent, bytes.size());
    } else {
      ADD_FAILURE() << "connect failed";
    }
    ::close(fd);
  });
}

TEST(SocketTransport, StopCutsLiveConnectionsCleanly) {
  Collector collector;
  std::unique_ptr<ReportServer> server;
  try {
    server = std::make_unique<ReportServer>(collector);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind loopback socket: " << e.what();
  }
  ReportClient client("127.0.0.1", server->port());
  client.send(make_report(0, 1.05, {{1, 10.0, 1.0}}), 0);
  for (int spins = 0; spins < 1000; ++spins) {
    {
      util::MutexLock lock(server->ingest_mutex());
      if (collector.reports_ingested() == 1) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server->stop();  // connection still open: shutdown must not hang
  server->stop();  // idempotent
  EXPECT_EQ(collector.reports_ingested(), 1u);
}

}  // namespace
}  // namespace disco::collect
