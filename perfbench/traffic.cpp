#include "traffic.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "trace/distributions.hpp"
#include "trace/packet.hpp"
#include "trace/pcap.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using disco::trace::PacketRecord;
using disco::trace::ZipfCount;
using disco::util::Rng;

/// Zipf rank in 0..n-1 (rank 0 heaviest).
std::uint32_t zipf_rank(const ZipfCount& zipf, Rng& rng) {
  return static_cast<std::uint32_t>(zipf.sample(rng) - 1);  // ZipfCount ranks are 1-based
}

/// Simple Internet mix: 7 : 4 : 1 of 64 / 576 / 1500-byte packets.
std::uint32_t imix(Rng& rng) {
  const std::uint64_t r = rng.uniform_u64(0, 11);
  return r < 7 ? 64u : r < 11 ? 576u : 1500u;
}

/// Bimodal minimum / jumbo sizes (Ben Basat et al.'s packet-size variance).
std::uint32_t jumbo_mix(Rng& rng) { return rng.bernoulli(0.3) ? 9000u : 64u; }

std::uint32_t scaled(double base, double scale, double floor) {
  return static_cast<std::uint32_t>(std::max(floor, std::round(base * scale)));
}

/// Fills the ground truth of `epoch` from per-site packet lists.
void add_truth(EpochInput& epoch, const std::vector<std::vector<PacketRecord>>& sites,
               std::uint32_t universe) {
  std::vector<std::uint64_t> bytes(universe, 0);
  std::vector<std::uint32_t> seen_by(universe, UINT32_MAX);
  for (std::size_t s = 0; s < sites.size(); ++s) {
    SiteEpoch& site = epoch.sites[s];
    for (const PacketRecord& p : sites[s]) {
      bytes[p.flow_id] += p.length;
      if (seen_by[p.flow_id] != s) {
        seen_by[p.flow_id] = static_cast<std::uint32_t>(s);
        ++site.distinct;
      }
    }
    site.packets = sites[s].size();
    for (const PacketRecord& p : sites[s]) site.bytes += p.length;
    epoch.bytes += site.bytes;
  }
  for (std::uint32_t id = 0; id < universe; ++id) {
    if (bytes[id] != 0) epoch.truth.push_back({id, bytes[id]});
  }
  epoch.top = epoch.truth;
  const std::size_t k = std::min(kTopFlows, epoch.top.size());
  std::partial_sort(epoch.top.begin(), epoch.top.begin() + static_cast<std::ptrdiff_t>(k),
                    epoch.top.end(), [](const FlowBytes& a, const FlowBytes& b) {
                      return a.bytes != b.bytes ? a.bytes > b.bytes : a.id < b.id;
                    });
  epoch.top.resize(k);
  epoch.top_rank.assign(universe, -1);
  for (std::size_t r = 0; r < k; ++r) {
    epoch.top_rank[epoch.top[r].id] = static_cast<std::int16_t>(r);
  }
}

std::string to_pcap(const std::vector<PacketRecord>& packets) {
  std::ostringstream out(std::ios::binary);
  disco::trace::write_pcap(out, packets);
  return std::move(out).str();
}

// link_bursty: one link, Zipf(1.1) over ~32 K flows, same-flow runs of 1-16
// packets, Internet-mix sizes.
std::vector<EpochInput> link_bursty(const WorkloadSpec& spec, Rng& rng, double scale) {
  const std::uint32_t universe = scaled(32768, scale, 256);
  const ZipfCount zipf(1.1, universe);
  std::vector<EpochInput> epochs(spec.pool);
  std::uint64_t ts = 0;
  for (EpochInput& epoch : epochs) {
    std::vector<std::vector<PacketRecord>> sites(1);
    auto& packets = sites[0];
    packets.reserve(spec.epoch_packets);
    while (packets.size() < spec.epoch_packets) {
      const std::uint32_t id = zipf_rank(zipf, rng);
      const std::uint64_t run = rng.uniform_u64(1, 16);
      for (std::uint64_t i = 0; i < run && packets.size() < spec.epoch_packets; ++i) {
        packets.push_back({id, imix(rng), ts += 100});
      }
    }
    epoch.sites.resize(1);
    add_truth(epoch, sites, universe);
    epoch.sites[0].pcap = to_pcap(packets);
  }
  return epochs;
}

// flow_churn: parsed events, no same-flow runs.  A fifth of the packets go
// to 1000 Zipf(1.0) heavy flows (so the top flows are well separated for
// the accuracy checks); the rest are uniform over 2^15 mice, so about
// 3.3 x 10^4 distinct flows reach the table each epoch.  Sizes are bimodal
// 64 B / 9000 B.
std::vector<EpochInput> flow_churn(const WorkloadSpec& spec, Rng& rng, double scale) {
  const std::uint32_t heavy = scaled(1000, scale, 32);
  const std::uint32_t mice = scaled(1 << 15, scale, 256);
  const std::uint32_t universe = heavy + mice;
  const ZipfCount zipf(1.0, heavy);
  std::vector<EpochInput> epochs(spec.pool);
  std::uint64_t ts = 0;
  for (EpochInput& epoch : epochs) {
    std::vector<std::vector<PacketRecord>> sites(1);
    auto& packets = sites[0];
    packets.reserve(spec.epoch_packets);
    for (std::uint64_t i = 0; i < spec.epoch_packets; ++i) {
      const std::uint32_t id =
          rng.bernoulli(0.2) ? zipf_rank(zipf, rng)
                             : heavy + static_cast<std::uint32_t>(rng.uniform_u64(0, mice - 1));
      packets.push_back({id, jumbo_mix(rng), ts += 10});
    }
    epoch.sites.resize(1);
    add_truth(epoch, sites, universe);
    auto& events = epoch.sites[0].events;
    events.reserve(packets.size());
    for (const PacketRecord& p : packets) {
      events.push_back({tuple_for_flow(p.flow_id), p.length, p.timestamp_ns});
    }
  }
  return epochs;
}

// fleet_epochs: eight sites see one shared window of flows (so the
// collector fuses keys across sites); the window slides by a quarter each
// epoch, so a quarter of the flows are new.  Zipf(0.9) inside the window,
// short epochs, Internet-mix sizes.
std::vector<EpochInput> fleet_epochs(const WorkloadSpec& spec, Rng& rng, double scale) {
  const std::uint32_t window = scaled(8000, scale, 256);
  const std::uint32_t slide = window / 4;
  const std::uint32_t universe = window + slide * (spec.pool - 1);
  const ZipfCount zipf(0.9, window);
  std::vector<EpochInput> epochs(spec.pool);
  std::uint64_t ts = 0;
  for (unsigned e = 0; e < spec.pool; ++e) {
    std::vector<std::vector<PacketRecord>> sites(spec.sites);
    for (auto& packets : sites) {
      packets.reserve(spec.epoch_packets);
      for (std::uint64_t i = 0; i < spec.epoch_packets; ++i) {
        packets.push_back({e * slide + zipf_rank(zipf, rng), imix(rng), ts += 100});
      }
    }
    epochs[e].sites.resize(spec.sites);
    add_truth(epochs[e], sites, universe);
    for (unsigned s = 0; s < spec.sites; ++s) epochs[e].sites[s].pcap = to_pcap(sites[s]);
  }
  return epochs;
}

}  // namespace

FiveTuple tuple_for_flow(std::uint32_t id) noexcept {
  static constexpr std::uint16_t kPorts[] = {443, 80, 53, 22, 8080, 123, 3478};
  FiveTuple t;
  t.src_ip = 0x0a000000u | id;                        // 10.0.0.0/8, as in pcap
  t.dst_ip = 0xc0a80000u | ((id * 2654435761u) >> 24);  // 192.168.0.x
  t.src_port = static_cast<std::uint16_t>(1024 + (id & 0x7fff));
  t.dst_port = kPorts[id % 7];
  t.protocol = (id % 7 == 2 || id % 7 == 5) ? 17 : 6;
  return t;
}

std::uint32_t flow_of_tuple(const FiveTuple& tuple) noexcept {
  return tuple.src_ip & 0x00ffffffu;
}

WorkloadSpec find_workload(std::string_view name, double scale) {
  WorkloadSpec spec;
  auto packets = [scale](double n) { return std::uint64_t{scaled(n, scale, 64)}; };
  auto flows = [scale](double n) { return std::size_t{scaled(n, scale, 512)}; };
  if (name == "link_bursty") {
    spec = {.name = "link_bursty", .kind = Kind::LinkBursty, .sites = 1,
            .epoch_packets = packets(1 << 20),
            .pool = 1, .max_flows = flows(65536),
            .query_every = packets(3 << 18), .warmup = 2};
  } else if (name == "flow_churn") {
    spec = {.name = "flow_churn", .kind = Kind::FlowChurn, .sites = 1,
            .epoch_packets = packets(160'000),
            .pool = 1, .max_flows = flows(49152),
            .query_every = packets(1 << 17), .warmup = 2};
  } else if (name == "fleet_epochs") {
    spec = {.name = "fleet_epochs", .kind = Kind::FleetEpochs, .sites = 8,
            .epoch_packets = packets(12'000),
            .pool = 4, .max_flows = flows(16384), .query_every = 0, .warmup = 4};
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  return spec;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"link_bursty", "flow_churn",
                                                 "fleet_epochs"};
  return names;
}

std::vector<EpochInput> generate(const WorkloadSpec& spec, std::uint64_t seed,
                                 double scale) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(spec.kind));
  switch (spec.kind) {
    case Kind::LinkBursty: return link_bursty(spec, rng, scale);
    case Kind::FlowChurn: return flow_churn(spec, rng, scale);
    case Kind::FleetEpochs: return fleet_epochs(spec, rng, scale);
  }
  throw std::logic_error("unreachable workload kind");
}

}  // namespace perfbench
