// Seeded traffic for the end-to-end benchmark: the three workloads, their
// epoch inputs, and the exact ground truth the correctness gate checks.
//
// Everything here runs before the timed windows.  A workload's inputs are a
// pure function of (workload, seed, scale).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "flowtable/flow_key.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {

using disco::flowtable::FiveTuple;
using PacketEvent = disco::pipeline::PipelineMonitor::PacketEvent;

/// Dense flow id <-> 5-tuple.  trace::write_pcap carries the id in the
/// source address, so a parsed record maps back to the same tuple; the
/// destination side spreads ids over a few hosts and services so the
/// analysis modules (top ports, destinations, applications, autofocus)
/// see structure rather than one aggregate.
[[nodiscard]] FiveTuple tuple_for_flow(std::uint32_t id) noexcept;
[[nodiscard]] std::uint32_t flow_of_tuple(const FiveTuple& tuple) noexcept;

struct FlowBytes {
  std::uint32_t id = 0;
  std::uint64_t bytes = 0;
};

/// One site's packets for one epoch.
struct SiteEpoch {
  std::string pcap;                 ///< pcap bytes (pcap-fed workloads)
  std::vector<PacketEvent> events;  ///< pre-parsed packets (flow_churn)
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint32_t distinct = 0;       ///< distinct flows offered to this site
};

/// One epoch over every site, with its exact ground truth.
struct EpochInput {
  std::vector<SiteEpoch> sites;
  std::uint64_t bytes = 0;           ///< summed over sites
  std::vector<FlowBytes> truth;      ///< per flow summed over sites, by id
  std::vector<FlowBytes> top;        ///< the kTopFlows largest, descending
  /// top_rank[id] = index of flow `id` in `top`, or -1.
  std::vector<std::int16_t> top_rank;
};

inline constexpr std::size_t kTopFlows = 100;

enum class Kind { LinkBursty, FlowChurn, FleetEpochs };

struct WorkloadSpec {
  const char* name = "";
  Kind kind = Kind::LinkBursty;
  unsigned sites = 1;
  std::uint64_t epoch_packets = 0;  ///< per site
  unsigned pool = 1;                ///< distinct epoch inputs, cycled
  std::size_t max_flows = 0;        ///< flow-table budget per site
  std::uint64_t query_every = 0;    ///< packets between live pipeline top_k
  unsigned warmup = 2;              ///< epochs run before samples are kept

  /// PipelineMonitor (2 workers), else a FlowMonitor per site on the driver.
  [[nodiscard]] bool pipeline() const noexcept { return kind != Kind::FleetEpochs; }
  /// Fed pcap bytes, else pre-parsed events.
  [[nodiscard]] bool pcap() const noexcept { return kind != Kind::FlowChurn; }
};

/// The workload called `name`, scaled down by `scale` (1 = full size; the
/// smoke mode uses a small fraction).  Throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] WorkloadSpec find_workload(std::string_view name, double scale);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The workload's epoch inputs (spec.pool of them) for `seed`.
[[nodiscard]] std::vector<EpochInput> generate(const WorkloadSpec& spec,
                                               std::uint64_t seed,
                                               double scale);

}  // namespace perfbench
