// Flow identity: the classic 5-tuple and its hash.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

namespace disco::flowtable {

/// IPv4 5-tuple.  Ports are host byte order; protocol is the IP protocol
/// number (6 = TCP, 17 = UDP, ...).
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;
};

/// Field-wise lexicographic order (src_ip, dst_ip, src_port, dst_port,
/// protocol).  The tie-break of every top-k in the system -- FlowMonitor,
/// PipelineMonitor and Collector all rank by (bytes desc, tuple_less), so
/// equal estimates come out in the same order on every run and platform.
[[nodiscard]] constexpr bool tuple_less(const FiveTuple& a,
                                        const FiveTuple& b) noexcept {
  if (a.src_ip != b.src_ip) return a.src_ip < b.src_ip;
  if (a.dst_ip != b.dst_ip) return a.dst_ip < b.dst_ip;
  if (a.src_port != b.src_port) return a.src_port < b.src_port;
  if (a.dst_port != b.dst_port) return a.dst_port < b.dst_port;
  return a.protocol < b.protocol;
}

/// 64-bit mix of the tuple fields (xorshift-multiply avalanche, the same
/// family as SplitMix64's finaliser).  Deterministic across runs -- flow
/// placement in the table is part of an experiment's reproducible state.
[[nodiscard]] constexpr std::uint64_t hash_tuple(const FiveTuple& t) noexcept {
  std::uint64_t h = (static_cast<std::uint64_t>(t.src_ip) << 32) | t.dst_ip;
  h ^= (static_cast<std::uint64_t>(t.src_port) << 24) ^
       (static_cast<std::uint64_t>(t.dst_port) << 8) ^ t.protocol;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// IPv6 5-tuple.  Addresses are 16 raw bytes in network order.
struct FiveTupleV6 {
  std::array<std::uint8_t, 16> src_ip{};
  std::array<std::uint8_t, 16> dst_ip{};
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  friend bool operator==(const FiveTupleV6&, const FiveTupleV6&) = default;
};

/// 64-bit mix of the IPv6 tuple: fold the addresses through the same
/// multiply-xorshift avalanche, 8 bytes at a time.
[[nodiscard]] inline std::uint64_t hash_tuple(const FiveTupleV6& t) noexcept {
  auto fold = [](std::uint64_t h, const std::uint8_t* p) {
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i) w = (w << 8) | p[i];
    h ^= w;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  };
  std::uint64_t h = (static_cast<std::uint64_t>(t.src_port) << 40) ^
                    (static_cast<std::uint64_t>(t.dst_port) << 8) ^ t.protocol;
  h = fold(h, t.src_ip.data());
  h = fold(h, t.src_ip.data() + 8);
  h = fold(h, t.dst_ip.data());
  h = fold(h, t.dst_ip.data() + 8);
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace disco::flowtable

template <>
struct std::hash<disco::flowtable::FiveTuple> {
  std::size_t operator()(const disco::flowtable::FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(disco::flowtable::hash_tuple(t));
  }
};

template <>
struct std::hash<disco::flowtable::FiveTupleV6> {
  std::size_t operator()(const disco::flowtable::FiveTupleV6& t) const noexcept {
    return static_cast<std::size_t>(disco::flowtable::hash_tuple(t));
  }
};
