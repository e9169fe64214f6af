// End-to-end benchmark driver: seeded traffic through the production chain,
// using only the library's public functions.
//
//   pcap bytes -> trace::read_pcap -> PipelineMonitor::ingest_batch
//   (or FlowMonitor::ingest_batch per site) -> drain / rotate ->
//   flowtable::write_report into per-site spool files ->
//   collect::SpoolSource::poll into a collect::Collector ->
//   modules::ModuleHost with the seven built-in modules, plus live top_k.
//
// The load is closed-loop: the driver thread is the only producer (Block
// backpressure) and also issues the queries and polls the collector.  The
// pipeline runs two workers, so a run uses at most three threads.
//
//   disco_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out DIR] [--git-sha SHA]
//   disco_perfbench --smoke [--out DIR]
//
// --trace 0 prints the end-to-end metrics (tracing and telemetry off);
// --trace 1 runs an untraced phase and then a traced one, and prints the
// per-layer ledger.  The last stdout line is the JSON result.  perfbench/
// README.md has the metric catalogue.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "collect/collector.hpp"
#include "collect/transport.hpp"
#include "core/theory.hpp"
#include "flowtable/monitor.hpp"
#include "flowtable/report_io.hpp"
#include "flowtable/tag_probe.hpp"
#include "ledger.hpp"
#include "modules/host.hpp"
#include "pipeline/pipeline.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "trace/pcap.hpp"
#include "traffic.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using disco::collect::Collector;
using disco::collect::SpoolSource;
using disco::flowtable::FlowBurst;
using disco::flowtable::FlowMonitor;
using disco::modules::ModuleHost;
using disco::pipeline::PipelineMonitor;
using disco::trace::PacketRecord;
using EpochReport = FlowMonitor::EpochReport;

constexpr unsigned kWorkers = 2;
constexpr std::size_t kIngestBatch = 512;  ///< packets per ingest call: one rx burst
constexpr std::size_t kQueryK = 100;
constexpr std::size_t kGateTopFlows = 10;
constexpr double kGateConfidence = 1.0 - 1e-6;
/// Set-up is timed over many constructions spread across this many seconds.
/// On a shared 4-vCPU KVM guest its cost moves by 20-30 % over spells of a
/// few tenths of a second, so a short burst of repeats reads whichever spell it
/// lands in, while a median over seconds is steady from run to run.
constexpr double kSetupSeconds = 3.0;
constexpr int kSetupMinRepeats = 21;
constexpr unsigned kMinEpochs = 5;        ///< sampled epochs, even past the deadline
constexpr double kUntracedShare = 0.4;    ///< of --seconds, in a --trace 1 run
constexpr std::uint64_t kSpoolRollBytes = std::uint64_t{64} << 20;

/// Read-only istream buffer over bytes already in memory (the capture).
class MemoryBuf : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Monotone totals the driver keeps in every run; a traced phase reads
/// their difference across the phase.
struct Counts {
  std::uint64_t packets = 0;          ///< offered
  std::uint64_t bursts = 0;           ///< FlowBursts handed to FlowMonitor
  std::uint64_t flows_rotated = 0;    ///< records in site reports
  std::uint64_t reports_written = 0;  ///< one per site and epoch
  std::uint64_t spool_bytes = 0;
  std::uint64_t merged_flows = 0;     ///< flow records delivered to modules
  std::uint64_t coalesced = 0;        ///< pipeline coalescer merges
};

Counts operator-(Counts a, const Counts& b) {
  a.packets -= b.packets;
  a.bursts -= b.bursts;
  a.flows_rotated -= b.flows_rotated;
  a.reports_written -= b.reports_written;
  a.spool_bytes -= b.spool_bytes;
  a.merged_flows -= b.merged_flows;
  a.coalesced -= b.coalesced;
  return a;
}

struct Samples {
  std::vector<double> mpps;      ///< per epoch cycle
  std::vector<double> close_ms;  ///< per site and epoch
  std::vector<double> merge_ms;  ///< per poll that finalised an epoch
  std::vector<double> query_us;  ///< per live top_k
};

double median(std::vector<double> v) { return summarize(std::move(v)).p50; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class Bench {
 public:
  Bench(const WorkloadSpec& spec, std::vector<EpochInput> inputs, std::uint64_t seed,
        Tracer& tracer, fs::path dir)
      : spec_(spec), inputs_(std::move(inputs)), seed_(seed), tracer_(tracer),
        dir_(std::move(dir)), pool_uses_(inputs_.size(), 0) {
    fs::create_directories(dir_);
  }

  ~Bench() {
    sys_.reset();
    std::error_code ignored;
    for (const std::string& path : spool_paths_) fs::remove(path, ignored);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Constructs the monitors, collector, module host and spools over and
  /// over for kSetupSeconds (at least kSetupMinRepeats times); keeps the last
  /// and returns each construction's seconds.
  std::vector<double> setup() {
    std::vector<double> seconds;
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(kSetupSeconds * 1e9);
    for (int i = 0; i < kSetupMinRepeats || now_ns() < deadline; ++i) {
      sys_.reset();
      remove_spools();
      const std::uint64_t t0 = now_ns();
      sys_ = build();
      seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    return seconds;
  }

  /// One epoch cycle: parse, ingest with live queries, close every site,
  /// poll the spools into the collector (modules run on finalisation).
  void run_epoch(bool keep) {
    const std::size_t p = epoch_index_ % inputs_.size();
    tracer_.set_epoch(epoch_index_);
    cycle_check_ns_ = 0;
    keep_ = keep;
    std::uint64_t ns = 0;
    {
      Span epoch(tracer_, "bench.epoch", true);
      if (spec_.pipeline()) {
        pipeline_epoch(p);
      } else {
        fleet_epoch(p);
      }
      ns = epoch.stop();
    }
    const std::uint64_t cycle = ns - cycle_check_ns_;
    std::uint64_t packets = 0;
    for (const SiteEpoch& s : inputs_[p].sites) packets += s.packets;
    if (keep) samples_.mpps.push_back(static_cast<double>(packets) * 1e3 / static_cast<double>(cycle));
    ++pool_uses_[p];
    ++epoch_index_;
    if (spool_bytes_ > kSpoolRollBytes) roll_spools();
  }

  /// Ends collection: finalises every open epoch (delivering it to the
  /// modules and the accuracy check).
  void finish() { sys_->collector->finalize_all(); }

  /// Starts / ends the traced phase: spans and registry telemetry on.
  void begin_trace() {
    disco::telemetry::Registry::global().reset_values();
    disco::telemetry::set_enabled(true);
    tracer_.set_enabled(true);
    occupancy_.clear();
    if (spec_.pipeline()) {
      for (unsigned w = 0; w < kWorkers; ++w) {
        occupancy_.push_back(&disco::telemetry::Registry::global().gauge(
            "pipeline.worker_" + std::to_string(w) + ".ring_occupancy"));
      }
    }
    occupancy_max_ = 0;
    trace_start_ = snapshot_counts();
  }
  void end_trace() {
    trace_counts_ = snapshot_counts() - trace_start_;
    tracer_.set_enabled(false);
    disco::telemetry::set_enabled(false);
  }

  [[nodiscard]] Samples take_samples() { return std::exchange(samples_, {}); }

  /// The correctness gate; returns the failed checks (empty = pass).
  [[nodiscard]] std::vector<std::string> gate(double* loss_frac, double* rel_err);

  [[nodiscard]] double bits_per_flow() const;
  [[nodiscard]] std::uint64_t packets_offered() const noexcept { return counts_.packets; }
  [[nodiscard]] std::uint64_t packets_lost() const noexcept { return packets_lost_; }

  /// Bytes of generated input the driver holds for the whole run: captures,
  /// parsed events and ground truth.
  [[nodiscard]] std::uint64_t input_bytes() const noexcept {
    std::uint64_t bytes = 0;
    for (const EpochInput& in : inputs_) {
      bytes += in.truth.size() * sizeof(FlowBytes) + in.top.size() * sizeof(FlowBytes) +
               in.top_rank.size() * sizeof(std::int16_t);
      for (const SiteEpoch& site : in.sites) {
        bytes += site.pcap.size() + site.events.size() * sizeof(PacketEvent);
      }
    }
    return bytes;
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(double untraced_mpps, double traced_mpps) const;

 private:
  struct Spools {
    std::vector<std::ofstream> out;  ///< one per site
    std::unique_ptr<SpoolSource> source;
  };

  struct System {
    // Destroyed bottom-up: the collector (which holds the module host's
    // subscriber) goes before the host.
    std::unique_ptr<ModuleHost> host;
    std::unique_ptr<PipelineMonitor> pipeline;
    std::vector<std::unique_ptr<FlowMonitor>> monitors;
    std::unique_ptr<Collector> collector;
    Spools spools;
  };

  std::unique_ptr<System> build() {
    auto sys = std::make_unique<System>();
    if (spec_.pipeline()) {
      PipelineMonitor::Config config;
      config.base.max_flows = spec_.max_flows;
      config.base.seed = seed_;
      config.workers = kWorkers;
      config.producers = 1;
      config.backpressure = disco::pipeline::Backpressure::Block;
      sys->pipeline = std::make_unique<PipelineMonitor>(config);
    } else {
      for (unsigned s = 0; s < spec_.sites; ++s) {
        FlowMonitor::Config config;
        config.max_flows = spec_.max_flows;
        config.seed = seed_ * 131 + s;
        config.telemetry_prefix = "site_" + std::to_string(s);
        sys->monitors.push_back(std::make_unique<FlowMonitor>(config));
      }
    }
    disco::collect::CollectorConfig config;
    // The gate checks the true byte total against Collector::totals().  At
    // the default 95 % a correct, unbiased run would fail one time in 20;
    // at 1 - 1e-6 a failure means bias or a wrong interval.
    config.confidence = kGateConfidence;
    config.max_tracked_flows = std::size_t{1} << 21;
    sys->collector = std::make_unique<Collector>(config);
    for (unsigned s = 0; s < spec_.sites; ++s) sys->collector->expect_site(s);
    sys->host = std::make_unique<ModuleHost>();
    for (auto& module : disco::modules::make_modules("all")) {
      sys->host->attach(std::move(module));
    }
    sys->collector->subscribe([this, host = sys->host.get()](const EpochReport& r) {
      Span span(tracer_, "modules.on_epoch");
      counts_.merged_flows += r.flows.size();
      host->on_epoch(r);
    });
    sys->collector->subscribe([this](const EpochReport& r) { check_epoch(r); });
    sys->spools = open_spools();
    return sys;
  }

  Spools open_spools() {
    Spools spools;
    std::vector<std::string> paths;
    for (unsigned s = 0; s < spec_.sites; ++s) {
      paths.push_back((dir_ / ("spool_" + std::to_string(segment_) + "_site" +
                               std::to_string(s) + ".drpt"))
                          .string());
      spools.out.emplace_back(paths.back(), std::ios::binary | std::ios::trunc);
      if (!spools.out.back()) throw std::runtime_error("cannot open spool " + paths.back());
      spool_paths_.push_back(paths.back());
    }
    spools.source = std::make_unique<SpoolSource>(std::move(paths));
    ++segment_;
    return spools;
  }

  void remove_spools() {
    std::error_code ignored;
    for (const std::string& path : spool_paths_) fs::remove(path, ignored);
    spool_paths_.clear();
    spool_bytes_ = 0;
  }

  /// Starts fresh spool files once the current ones are large.  Every poll
  /// consumes all complete reports, so nothing unread is discarded; the
  /// gate still counts truncated tails.
  void roll_spools() {
    sys_->spools = Spools{};
    remove_spools();
    sys_->spools = open_spools();
  }

  [[nodiscard]] Counts snapshot_counts() const {
    Counts c = counts_;
    if (sys_->pipeline) c.coalesced = sys_->pipeline->coalesced();
    return c;
  }

  void pipeline_epoch(std::size_t p) {
    const SiteEpoch& site = inputs_[p].sites[0];
    if (spec_.pcap()) {
      const std::vector<PacketRecord> records = parse(site, p);
      batch_.resize(kIngestBatch);
      for (std::size_t i = 0; i < records.size(); i += kIngestBatch) {
        const std::size_t n = std::min(kIngestBatch, records.size() - i);
        for (std::size_t j = 0; j < n; ++j) {
          const PacketRecord& r = records[i + j];
          batch_[j] = {tuple_for_flow(r.flow_id), r.length, r.timestamp_ns};
        }
        pipeline_ingest(batch_.data(), n);
      }
    } else {
      for (std::size_t i = 0; i < site.events.size(); i += kIngestBatch) {
        pipeline_ingest(site.events.data() + i, std::min(kIngestBatch, site.events.size() - i));
      }
    }
    EpochReport report;
    {
      Span close(tracer_, "bench.close", true);
      {
        Span span(tracer_, "pipeline.drain");
        sys_->pipeline->drain();
      }
      {
        Span span(tracer_, "pipeline.rotate");
        report = sys_->pipeline->rotate();
      }
      write(0, report);
      keep_close(close.stop());
    }
    note_report(report, p);
    poll();
  }

  void pipeline_ingest(const PacketEvent* events, std::size_t n) {
    {
      Span span(tracer_, "pipeline.ingest_batch");
      sys_->pipeline->ingest_batch(0, events, n);
    }
    counts_.packets += n;
    if (tracer_.enabled()) {
      for (const auto* gauge : occupancy_) occupancy_max_ = std::max(occupancy_max_, gauge->value());
    }
    since_query_ += n;
    if (spec_.query_every != 0 && since_query_ >= spec_.query_every) {
      since_query_ -= spec_.query_every;
      Span query(tracer_, "pipeline.top_k", true);
      (void)sys_->pipeline->top_k(kQueryK);
      const std::uint64_t ns = query.stop();
      if (keep_) samples_.query_us.push_back(static_cast<double>(ns) * 1e-3);
    }
  }

  void fleet_epoch(std::size_t p) {
    for (unsigned s = 0; s < spec_.sites; ++s) {
      FlowMonitor& monitor = *sys_->monitors[s];
      const std::vector<PacketRecord> records = parse(inputs_[p].sites[s], p);
      bursts_.resize(records.size());
      for (std::size_t j = 0; j < records.size(); ++j) {
        const PacketRecord& r = records[j];
        bursts_[j] = {tuple_for_flow(r.flow_id), r.length, 1, r.timestamp_ns};
      }
      for (std::size_t i = 0; i < bursts_.size(); i += kIngestBatch) {
        const std::size_t n = std::min(kIngestBatch, bursts_.size() - i);
        Span span(tracer_, "flowtable.ingest_batch");
        fleet_rejected_ += n - monitor.ingest_batch(std::span<const FlowBurst>(bursts_.data() + i, n));
      }
      counts_.packets += records.size();
      counts_.bursts += records.size();
      EpochReport report;
      {
        Span close(tracer_, "bench.close", true);
        {
          Span span(tracer_, "flowtable.rotate");
          report = monitor.rotate();
        }
        write(s, report);
        keep_close(close.stop());
      }
      note_report(report, p);
    }
    poll();
    Span query(tracer_, "collect.top_k", true);
    (void)sys_->collector->top_k(kQueryK);
    const std::uint64_t ns = query.stop();
    if (keep_) samples_.query_us.push_back(static_cast<double>(ns) * 1e-3);
  }

  std::vector<PacketRecord> parse(const SiteEpoch& site, std::size_t p) {
    std::vector<PacketRecord> records;
    {
      Span span(tracer_, "trace.read_pcap");
      MemoryBuf buf(site.pcap);
      std::istream in(&buf);
      records = disco::trace::read_pcap(in);
    }
    if (pool_uses_[p] == 0) {  // first use of this input: check the parse
      std::uint64_t bytes = 0;
      for (const PacketRecord& r : records) bytes += r.length;
      if (records.size() != site.packets || bytes != site.bytes) {
        failures_.push_back("read_pcap returned other packets than were written");
      }
    }
    return records;
  }

  void write(unsigned site, const EpochReport& report) {
    std::ofstream& out = sys_->spools.out[site];
    const auto before = out.tellp();
    {
      Span span(tracer_, "flowtable.write_report");
      disco::flowtable::write_report(out, report, site);
    }
    const auto bytes = static_cast<std::uint64_t>(out.tellp() - before);
    counts_.spool_bytes += bytes;
    spool_bytes_ += bytes;
  }

  void keep_close(std::uint64_t ns) {
    if (keep_) samples_.close_ms.push_back(static_cast<double>(ns) * 1e-6);
  }

  void note_report(const EpochReport& report, std::size_t p) {
    if (epoch_pool_.size() <= report.epoch) epoch_pool_.resize(report.epoch + 1, SIZE_MAX);
    if (epoch_pool_[report.epoch] != SIZE_MAX && epoch_pool_[report.epoch] != p) {
      failures_.push_back("sites disagree on epoch " + std::to_string(report.epoch));
    }
    epoch_pool_[report.epoch] = p;
    counts_.flows_rotated += report.flows.size();
    ++counts_.reports_written;
  }

  void poll() {
    check_ns_ = 0;
    const std::uint64_t finalized = sys_->collector->epochs_finalized();
    SpoolSource::PollStats stats;
    std::uint64_t ns = 0;
    {
      Span span(tracer_, "collect.poll", true);
      stats = sys_->spools.source->poll(*sys_->collector);
      ns = span.stop();
    }
    truncated_ += stats.truncated_tails;
    unreadable_ += stats.unreadable;
    cycle_check_ns_ += check_ns_;
    if (keep_ && sys_->collector->epochs_finalized() > finalized) {
      samples_.merge_ms.push_back(static_cast<double>(ns - check_ns_) * 1e-6);
    }
  }

  /// Collector subscriber: relative error of the merged byte estimates of
  /// the epoch's largest true flows.  Its time is excluded from every
  /// end-to-end metric.
  void check_epoch(const EpochReport& report) {
    Span span(tracer_, "bench.check", true);
    if (report.epoch >= epoch_pool_.size() || epoch_pool_[report.epoch] == SIZE_MAX) {
      failures_.push_back("collector emitted unknown epoch " + std::to_string(report.epoch));
      return;
    }
    const EpochInput& in = inputs_[epoch_pool_[report.epoch]];
    std::vector<double> estimate(in.top.size(), 0.0);
    std::vector<bool> found(in.top.size(), false);
    for (const auto& flow : report.flows) {
      const std::uint32_t id = flow_of_tuple(flow.flow);
      if (id >= in.top_rank.size() || in.top_rank[id] < 0) continue;
      const auto rank = static_cast<std::size_t>(in.top_rank[id]);
      estimate[rank] += flow.bytes;
      found[rank] = true;
    }
    for (std::size_t r = 0; r < in.top.size(); ++r) {
      const double truth = static_cast<double>(in.top[r].bytes);
      err_sum_ += found[r] ? std::abs(estimate[r] - truth) / truth : 1.0;
      ++err_n_;
    }
    ++epochs_checked_;
    check_ns_ += span.stop();
  }

  const WorkloadSpec spec_;
  const std::vector<EpochInput> inputs_;
  const std::uint64_t seed_;
  Tracer& tracer_;
  const fs::path dir_;

  std::unique_ptr<System> sys_;
  std::vector<std::string> spool_paths_;
  unsigned segment_ = 0;
  std::uint64_t spool_bytes_ = 0;

  std::vector<std::uint64_t> pool_uses_;
  std::vector<std::size_t> epoch_pool_;  ///< epoch id -> input index
  std::uint64_t epoch_index_ = 0;
  bool keep_ = false;
  std::vector<PacketEvent> batch_;
  std::vector<FlowBurst> bursts_;
  std::uint64_t since_query_ = 0;

  Counts counts_;
  Samples samples_;
  std::uint64_t check_ns_ = 0;        ///< accuracy checks inside the current poll
  std::uint64_t cycle_check_ns_ = 0;  ///< and inside the current epoch cycle
  std::uint64_t fleet_rejected_ = 0;
  std::uint64_t truncated_ = 0;
  std::uint64_t unreadable_ = 0;
  std::uint64_t packets_lost_ = 0;
  double err_sum_ = 0.0;
  std::uint64_t err_n_ = 0;
  std::uint64_t epochs_checked_ = 0;
  std::vector<std::string> failures_;

  std::vector<const disco::telemetry::Gauge*> occupancy_;
  std::int64_t occupancy_max_ = 0;
  Counts trace_start_;
  Counts trace_counts_;
};

std::vector<std::string> Bench::gate(double* loss_frac, double* rel_err) {
  std::vector<std::string> fail = failures_;
  auto expect = [&fail](bool ok, const std::string& what) {
    if (!ok) fail.push_back(what);
  };
  Collector& collector = *sys_->collector;

  // Packets: offered = counted + dropped + rejected, exactly.
  std::uint64_t counted = 0, dropped = 0, rejected = 0;
  if (sys_->pipeline) {
    counted = sys_->pipeline->packets_seen();
    dropped = sys_->pipeline->dropped();
    rejected = sys_->pipeline->pressure().flows_rejected;
  } else {
    for (const auto& m : sys_->monitors) {
      counted += m->packets_seen();
      rejected += m->pressure().flows_rejected;
    }
    expect(rejected == fleet_rejected_, "FlowMonitor rejections disagree with ingest_batch");
  }
  expect(counts_.packets == counted + dropped + rejected,
         "offered != counted + dropped + rejected (" + std::to_string(counts_.packets) +
             " vs " + std::to_string(counted) + " + " + std::to_string(dropped) + " + " +
             std::to_string(rejected) + ")");
  packets_lost_ = counts_.packets - std::min(counts_.packets, counted);

  // Reports: every one written is ingested once; no duplicates, late
  // reports or torn tails.
  std::uint64_t duplicates = 0, late = 0;
  for (const auto& site : collector.sites()) {
    duplicates += site.duplicates;
    late += site.late;
  }
  const std::uint64_t ingested = collector.reports_ingested();
  const std::uint64_t reports_lost =
      counts_.reports_written - std::min(counts_.reports_written, ingested) + duplicates +
      late + truncated_ + unreadable_;
  expect(duplicates == 0 && late == 0, "collector saw duplicate or late reports");
  expect(truncated_ == 0 && unreadable_ == 0, "spool polls saw truncated or unreadable files");
  expect(ingested == counts_.reports_written, "reports written != reports ingested");
  *loss_frac = ratio(static_cast<double>(packets_lost_), static_cast<double>(counts_.packets)) +
               ratio(static_cast<double>(reports_lost),
                     static_cast<double>(counts_.reports_written));
  expect(*loss_frac == 0.0, "loss_frac is not 0");
  expect(epochs_checked_ == epoch_index_, "not every epoch reached the collector's subscribers");

  // Merged totals inside the collector's Theorem-2 interval.
  double true_total = 0.0;
  std::size_t universe = 0;
  for (std::size_t p = 0; p < inputs_.size(); ++p) {
    true_total += static_cast<double>(pool_uses_[p]) * static_cast<double>(inputs_[p].bytes);
    universe = std::max(universe, inputs_[p].top_rank.size());
  }
  const auto totals = collector.totals();
  expect(totals.interval_valid && totals.bytes_low <= true_total && true_total <= totals.bytes_high,
         "true byte total " + std::to_string(true_total) + " outside the collector's Theorem-2 "
         "interval [" + std::to_string(totals.bytes_low) + ", " + std::to_string(totals.bytes_high) +
             "] around " + std::to_string(totals.bytes));

  // The true cumulative top-10 flows are in the collector's top-k.
  std::vector<double> cumulative(universe, 0.0);
  for (std::size_t p = 0; p < inputs_.size(); ++p) {
    for (const FlowBytes& f : inputs_[p].truth) {
      cumulative[f.id] += static_cast<double>(pool_uses_[p]) * static_cast<double>(f.bytes);
    }
  }
  std::vector<std::uint32_t> ids(universe);
  for (std::uint32_t i = 0; i < universe; ++i) ids[i] = i;
  const std::size_t k = std::min(kGateTopFlows, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k), ids.end(),
                    [&](std::uint32_t a, std::uint32_t b) { return cumulative[a] > cumulative[b]; });
  std::vector<std::uint32_t> got;
  for (const auto& g : collector.top_k(kQueryK)) got.push_back(flow_of_tuple(g.flow));
  for (std::size_t i = 0; i < k; ++i) {
    expect(std::find(got.begin(), got.end(), ids[i]) != got.end(),
           "true top-" + std::to_string(kGateTopFlows) + " flow " + std::to_string(ids[i]) +
               " missing from the collector's top-" + std::to_string(kQueryK));
  }

  // Accuracy under the Theorem-2 CV bound of the effective base.
  *rel_err = ratio(err_sum_, static_cast<double>(err_n_));
  const double bound = disco::core::theory::cv_bound(collector.volume_b());
  expect(err_n_ > 0 && *rel_err < bound,
         "vol_rel_err " + std::to_string(*rel_err) + " not under cv_bound(b) " +
             std::to_string(bound));
  return fail;
}

double Bench::bits_per_flow() const {
  std::size_t bits = 0;
  if (sys_->pipeline) {
    bits = sys_->pipeline->memory().total();
  } else {
    for (const auto& m : sys_->monitors) bits += m->memory().total();
  }
  double flows = 0.0;
  for (const EpochInput& in : inputs_) {
    for (const SiteEpoch& s : in.sites) flows += s.distinct;
  }
  return static_cast<double>(bits) / (flows / static_cast<double>(inputs_.size()));
}

std::vector<Metric> Bench::layer_metrics(double untraced_mpps, double traced_mpps) const {
  auto& registry = disco::telemetry::Registry::global();
  const Counts& c = trace_counts_;
  const double packets = static_cast<double>(c.packets);
  auto ns = [this](const char* name) { return static_cast<double>(tracer_.total(name).ns); };
  auto median_ms = [this](const char* name) { return median(tracer_.durations(name)) * 1e-6; };

  std::vector<std::string> shards;
  if (spec_.pipeline()) {
    for (unsigned w = 0; w < kWorkers; ++w) shards.push_back("pipeline.worker_" + std::to_string(w));
  } else {
    for (unsigned s = 0; s < spec_.sites; ++s) shards.push_back("site_" + std::to_string(s));
  }
  auto shard_sum = [&](const char* suffix) {
    double sum = 0.0;
    for (const std::string& p : shards) sum += static_cast<double>(registry.counter(p + suffix).value());
    return sum;
  };
  disco::telemetry::LatencyHistogram pop_batch;
  if (spec_.pipeline()) {
    for (const std::string& p : shards) pop_batch.merge_from(registry.histogram(p + ".pop_batch"));
  }
  const auto& probe = registry.histogram("flow_table.probe_length");
  const std::uint64_t bursts_applied =
      spec_.pipeline() ? c.packets - c.coalesced : c.bursts;

  // Ledger: traced wall time (accuracy checks excluded) against the sum of
  // layer self times; bench.* self time is the unattributed remainder.
  const Tracer::Total epochs = tracer_.total("bench.epoch");
  const Tracer::Total checks = tracer_.total("bench.check");
  const double wall = static_cast<double>(epochs.ns - checks.ns);
  double attributed = 0.0;
  for (const auto& [layer, self] : tracer_.layer_self_ns()) {
    if (layer != "bench") attributed += static_cast<double>(self);
  }
  const Tracer::Total poll = tracer_.total("collect.poll");
  const double poll_self = static_cast<double>(poll.self_ns);

  std::uint64_t anomalies = truncated_;
  for (const auto& site : sys_->collector->sites()) anomalies += site.duplicates + site.late;

  std::vector<Metric> m = {
      {"trace.parse_ns_per_pkt", ratio(ns("trace.read_pcap"), packets), "ns"},
      {"pipeline.enqueue_ns_per_pkt", ratio(ns("pipeline.ingest_batch"), packets), "ns"},
      {"pipeline.blocked_per_mpkt",
       ratio(static_cast<double>(registry.counter("pipeline.blocked_total").value()) * 1e6, packets),
       "1/Mpkt"},
      {"pipeline.coalesce_ratio", ratio(static_cast<double>(c.coalesced), packets), "frac"},
      {"pipeline.pop_batch_p50", pop_batch.quantile(0.5), "count"},
      {"pipeline.ring_occupancy_max", static_cast<double>(occupancy_max_), "count"},
      {"pipeline.drain_ms", median_ms("pipeline.drain"), "ms"},
      {"pipeline.rotate_ms", median_ms("pipeline.rotate"), "ms"},
      {"flowtable.probe_len_mean", ratio(static_cast<double>(probe.sum()), static_cast<double>(probe.count())), "probes"},
      {"flowtable.probe_len_p99", probe.quantile(0.99), "probes"},
      {"flowtable.load_factor",
       ratio(static_cast<double>(c.flows_rotated),
             static_cast<double>(c.reports_written) * static_cast<double>(spec_.max_flows)),
       "frac"},
      {"flowtable.rejected_frac", ratio(shard_sum(".ingest_rejected_total"), packets), "frac"},
      {"flowtable.encode_ns_per_rec", ratio(ns("flowtable.write_report"), static_cast<double>(c.flows_rotated)), "ns"},
      {"flowtable.report_bytes_per_rec",
       ratio(static_cast<double>(c.spool_bytes), static_cast<double>(c.flows_rotated)), "B"},
      {"core.updates_per_pkt", ratio(static_cast<double>(bursts_applied), packets), "count"},
      {"core.saturations_per_mpkt", ratio(shard_sum(".counters_saturated_total") * 1e6, packets), "1/Mpkt"},
      {"core.rescales_total", shard_sum(".rescale_events_total"), "count"},
      {"collect.poll_ns_per_rec", ratio(poll_self, static_cast<double>(c.flows_rotated)), "ns"},
      {"collect.flows_tracked", static_cast<double>(sys_->collector->tracked_flows()), "count"},
      {"collect.anomalies_total", static_cast<double>(anomalies), "count"},
      {"modules.on_epoch_ns_per_flow",
       ratio(ns("modules.on_epoch"), static_cast<double>(c.merged_flows)), "ns"},
  };
  if (!spec_.pipeline()) {
    // Only the FlowMonitor workload (fleet_epochs) makes these calls; on the
    // pipeline workloads they would read 0 however the code changes.
    m.push_back({"flowtable.ingest_ns_per_burst",
                 ratio(ns("flowtable.ingest_batch"), static_cast<double>(c.bursts)), "ns"});
    m.push_back({"flowtable.rotate_ns_per_flow",
                 ratio(ns("flowtable.rotate"), static_cast<double>(c.flows_rotated)), "ns"});
    m.push_back({"collect.topk_us", median_ms("collect.top_k") * 1e3, "us"});
  }
  for (const std::string& name : disco::modules::available_modules()) {
    std::string metric = name;
    std::replace(metric.begin(), metric.end(), '-', '_');
    m.push_back({"modules." + metric + ".epoch_ns_p50",
                 registry.histogram("modules." + metric + ".epoch_ns").quantile(0.5), "ns"});
  }
  m.push_back({"ledger.unattributed_frac", ratio(wall - attributed, wall), "frac"});
  m.push_back({"ledger.trace_overhead_frac", 1.0 - ratio(traced_mpps, untraced_mpps), "frac"});
  return m;
}

// --- driver -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string out = ".";
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "disco_perfbench: " << why
            << "\nusage: disco_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--out DIR] [--git-sha SHA]\n       disco_perfbench --smoke [--out DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--out") a.out = v;
      else if (flag == "--git-sha") a.git_sha = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!a.smoke && a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(in, line)) return "unknown";
  const auto open = line.find('['), close = line.find(']');
  return open != std::string::npos && close > open ? line.substr(open + 1, close - open - 1) : line;
}

/// A "Vm...:  N kB" line of /proc/self/status, in bytes.
std::uint64_t proc_status_bytes(std::string_view field) {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      return std::stoull(line.substr(field.size() + 1)) * 1024;
    }
  }
  throw std::runtime_error("no " + std::string(field) + " in /proc/self/status");
}

/// Restarts the peak-RSS mark (VmHWM) at the current resident set, after
/// handing freed heap back to the kernel, so that the peak the run reports
/// is not set by input generation.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  if (!out) throw std::runtime_error("cannot reset the peak RSS mark via /proc/self/clear_refs");
}

constexpr double kMiB = 1024.0 * 1024.0;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::string> notes;  ///< tail percentiles and sample counts
};

Result run_workload(const WorkloadSpec& spec, const Args& args, double scale) {
  Tracer tracer;
  Bench bench(spec, generate(spec, args.seed, scale), args.seed, tracer,
              fs::path(args.out) / spec.name);
  reset_peak_rss();
  const std::uint64_t held = bench.input_bytes();
  const std::vector<double> setup_s = bench.setup();
  for (unsigned i = 0; i < spec.warmup; ++i) bench.run_epoch(false);
  (void)bench.take_samples();
  const std::uint64_t hwm_warm = proc_status_bytes("VmHWM");

  auto run_for = [&](double seconds) {
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (unsigned n = 0; n < kMinEpochs || now_ns() < deadline; ++n) bench.run_epoch(true);
    return bench.take_samples();
  };

  Result r;
  std::uint64_t origin = now_ns();
  if (args.trace == 0) {
    const Samples s = run_for(args.seconds);
    // Tails are printed with their percentile and sample count but are not
    // bounded metrics: on a shared host their run-to-run spread exceeds
    // any usable bound (STEADINESS.md).
    auto add_summary = [&r](const std::string& base, const char* unit, const std::vector<double>& v) {
      const Summary sum = summarize(v);
      r.metrics.push_back({base + "_p50_" + unit, sum.p50, unit});
      char note[200];
      std::snprintf(note, sizeof(note), "%s_tail_%s = %s %s (p%.2f of %zu samples)", base.c_str(),
                    unit, json_number(sum.tail).c_str(), unit, sum.tail_pct, sum.n);
      r.notes.push_back(note);
    };
    r.metrics.push_back({"e2e_mpps", median(s.mpps), "Mpkt/s"});
    add_summary("epoch_close", "ms", s.close_ms);
    add_summary("merge", "ms", s.merge_ms);
    add_summary("query", "us", s.query_us);
  } else {
    const double untraced = median(run_for(args.seconds * kUntracedShare).mpps);
    bench.begin_trace();
    origin = now_ns();
    const double traced = median(run_for(args.seconds * (1.0 - kUntracedShare)).mpps);
    bench.end_trace();
    r.metrics = bench.layer_metrics(untraced, traced);
    const fs::path spans = fs::path(args.out) / spec.name / "spans.jsonl";
    tracer.write_jsonl(spans.string(), origin);
    r.notes.push_back("spans: " + spans.string() + " (" +
                      std::to_string(tracer.spans().size()) + " spans)");
  }
  bench.finish();
  const std::uint64_t hwm_end = proc_status_bytes("VmHWM");

  double loss = 0.0, rel_err = 0.0;
  r.failures = bench.gate(&loss, &rel_err);
  r.correct = r.failures.empty();
  r.attempted = bench.packets_offered();
  r.failed = bench.packets_lost();
  r.notes.push_back("loss_frac: " + json_number(loss) + " frac");
  if (args.trace == 0) {
    r.metrics.push_back({"vol_rel_err", rel_err, "frac"});
    r.metrics.push_back({"bits_per_flow", bench.bits_per_flow(), "bit"});
    r.metrics.push_back({"peak_rss_mb", static_cast<double>(hwm_end - held) / kMiB, "MB"});
    r.metrics.push_back({"setup_s", median(setup_s), "s"});
  }
  r.notes.push_back("peak_rss: VmHWM " + json_number(static_cast<double>(hwm_warm) / kMiB) +
                    " MB after set-up and warm-up, " +
                    json_number(static_cast<double>(hwm_end) / kMiB) + " MB at the end; " +
                    json_number(static_cast<double>(held) / kMiB) + " MB of inputs excluded");
  r.notes.push_back("setup_s: median of " + std::to_string(setup_s.size()) + " constructions");
  return r;
}

std::string provenance(const Args& args, const WorkloadSpec& spec) {
  const unsigned cpus = affinity_cpus();
  const unsigned threads = spec.pipeline() ? 1 + kWorkers : 1;
  std::ostringstream o;
  o << "{\"provenance\": {\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
    << ", \"seconds\": " << json_number(args.seconds) << ", \"trace\": " << args.trace
    << ", \"cpus\": " << cpus << ", \"threads\": " << threads
    << ", \"threads_exceed_cpus\": " << (threads > cpus ? "true" : "false")
    << ", \"git_sha\": \"" << args.git_sha << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\", \"thp\": \"" << thp_mode() << "\", \"tag_probe_isa\": \""
    << disco::flowtable::tagprobe::isa_name() << "\", \"disco_telemetry\": " << DISCO_TELEMETRY
    << "}}";
  return o.str();
}

void print_result(const Result& r) {
  for (const std::string& note : r.notes) std::cout << "# " << note << "\n";
  for (const Metric& m : r.metrics) {
    std::cout << "# " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }
  for (const std::string& f : r.failures) std::cout << "# GATE FAILED: " << f << "\n";
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

int smoke(const Args& args) {
  constexpr double kScale = 0.01;
  bool ok = true;
  for (const std::string& name : workload_names()) {
    for (int trace = 0; trace <= 1; ++trace) {
      Args a = args;
      a.workload = name;
      a.seconds = 0.2;
      a.trace = trace;
      const Result r = run_workload(find_workload(name, kScale), a, kScale);
      std::cout << "smoke " << name << " trace=" << trace << ": "
                << (r.correct ? "pass" : "FAIL") << "\n";
      for (const std::string& f : r.failures) std::cout << "  " << f << "\n";
      ok = ok && r.correct;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "disco_perfbench: refusing to run a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  try {
    if (args.smoke) return smoke(args);
    const WorkloadSpec spec = find_workload(args.workload, 1.0);
    std::cout << provenance(args, spec) << "\n";
    print_result(run_workload(spec, args, 1.0));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "disco_perfbench: " << e.what() << "\n";
    return 1;
  }
}
