#include "flowtable/report_io.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/fault.hpp"

namespace disco::flowtable {
namespace {

template <typename T>
void put(std::ostream& out, const T& value) {
  // kShortWrite models the collector socket / spool disk failing mid-report:
  // the sink stops taking bytes, which on a std::ostream manifests as badbit.
  // Compiles to the bare write() when DISCO_FAULTS is off.
  if (util::fault::fires(util::fault::Point::kShortWrite)) {
    out.setstate(std::ios::badbit);
    return;
  }
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
[[nodiscard]] T get(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("report_io: truncated input");
  return value;
}

// Body shared by read_report and ReportReader: everything after the magic.
// The whole frame is read before any value is judged -- its length depends
// only on the record count -- so a report that is complete but wrong leaves
// the stream at its framed end (ReportRejected), while missing bytes stay a
// plain truncation error.
[[nodiscard]] ReportReader::Item read_after_magic(std::istream& in) {
  const bool known_version = get<std::uint32_t>(in) == kReportVersion;
  // A decoded total, estimate or base: finite and non-negative, or the whole
  // report is malformed.  One NaN would otherwise poison every sum the
  // collector serves while its interval still reads valid.
  bool in_range = true;
  const auto amount = [&in, &in_range] {
    const auto value = get<double>(in);
    in_range = in_range && std::isfinite(value) && value >= 0.0;
    return value;
  };
  ReportReader::Item item;
  FlowMonitor::EpochReport& report = item.report;
  report.epoch = get<std::uint64_t>(in);
  item.site_id = get<std::uint32_t>(in);
  report.totals.bytes = amount();
  report.totals.packets = amount();
  report.totals.flows = static_cast<std::size_t>(get<std::uint64_t>(in));
  report.pressure.flows_rejected = get<std::uint64_t>(in);
  report.pressure.flows_evicted = get<std::uint64_t>(in);
  report.pressure.counters_saturated = get<std::uint64_t>(in);
  report.pressure.rescale_events = get<std::uint64_t>(in);
  report.volume_b = amount();
  report.size_b = amount();
  // Two reserved fields (offsets 92 and 100), written as 0.0: a nonzero
  // byte there is a report this reader does not understand.
  const bool reserved_zero = get<std::uint64_t>(in) == 0;
  const bool reserved_zero_too = get<std::uint64_t>(in) == 0;
  const auto count = get<std::uint64_t>(in);
  report.flows.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, std::uint64_t{1} << 20)));
  for (std::uint64_t i = 0; i < count; ++i) {
    FlowMonitor::FlowEstimate flow;
    flow.flow.src_ip = get<std::uint32_t>(in);
    flow.flow.dst_ip = get<std::uint32_t>(in);
    flow.flow.src_port = get<std::uint16_t>(in);
    flow.flow.dst_port = get<std::uint16_t>(in);
    flow.flow.protocol = get<std::uint8_t>(in);
    flow.bytes = amount();
    flow.packets = amount();
    report.flows.push_back(flow);
  }
  if (!known_version) throw ReportRejected("report_io: unsupported version");
  if (!in_range) {
    throw ReportRejected("report_io: non-finite or negative value");
  }
  if (!reserved_zero || !reserved_zero_too) {
    throw ReportRejected("report_io: nonzero reserved field");
  }
  return item;
}

}  // namespace

void write_report(std::ostream& out, const FlowMonitor::EpochReport& report,
                  std::uint32_t site_id) {
  put(out, kReportMagic);
  put(out, kReportVersion);
  put(out, report.epoch);
  put(out, site_id);
  put(out, report.totals.bytes);
  put(out, report.totals.packets);
  put(out, static_cast<std::uint64_t>(report.totals.flows));
  put(out, report.pressure.flows_rejected);
  put(out, report.pressure.flows_evicted);
  put(out, report.pressure.counters_saturated);
  put(out, report.pressure.rescale_events);
  put(out, report.volume_b);
  put(out, report.size_b);
  put(out, std::uint64_t{0});  // reserved
  put(out, std::uint64_t{0});  // reserved
  put(out, static_cast<std::uint64_t>(report.flows.size()));
  for (const auto& flow : report.flows) {
    put(out, flow.flow.src_ip);
    put(out, flow.flow.dst_ip);
    put(out, flow.flow.src_port);
    put(out, flow.flow.dst_port);
    put(out, flow.flow.protocol);
    put(out, flow.bytes);
    put(out, flow.packets);
  }
  // A buffered sink can swallow every write() above and only hit the device
  // at flush time; flushing here makes short/failed writes THIS call's
  // exception instead of a silently truncated report discovered by the
  // collector.
  out.flush();
  if (!out) throw std::runtime_error("report_io: write failed");
}

FlowMonitor::EpochReport read_report(std::istream& in) {
  if (get<std::uint32_t>(in) != kReportMagic) {
    throw std::runtime_error("report_io: bad magic (not a DRPT report)");
  }
  return read_after_magic(in).report;
}

std::optional<ReportReader::Item> ReportReader::next() {
  if (poisoned_) {
    throw std::runtime_error("report_io: reader poisoned by earlier error");
  }
  // Clean end-of-stream is only clean BETWEEN reports: probe for the magic
  // byte-by-byte so EOF before any magic byte means "no more reports" while
  // EOF inside the magic -- or anywhere after it -- means truncation.
  std::uint32_t magic = 0;
  char* bytes = reinterpret_cast<char*>(&magic);
  for (std::size_t i = 0; i < sizeof(magic); ++i) {
    if (!in_->read(bytes + i, 1)) {
      if (i == 0 && in_->eof()) return std::nullopt;
      poisoned_ = true;
      throw std::runtime_error("report_io: truncated input");
    }
  }
  try {
    if (magic != kReportMagic) {
      throw std::runtime_error("report_io: bad magic (not a DRPT report)");
    }
    Item item = read_after_magic(*in_);
    ++items_;
    return item;
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

void write_report_csv(std::ostream& out, const FlowMonitor::EpochReport& report) {
  out << "src_ip,dst_ip,src_port,dst_port,protocol,bytes,packets\n";
  for (const auto& flow : report.flows) {
    out << flow.flow.src_ip << ',' << flow.flow.dst_ip << ','
        << flow.flow.src_port << ',' << flow.flow.dst_port << ','
        << static_cast<int>(flow.flow.protocol) << ',' << flow.bytes << ','
        << flow.packets << '\n';
  }
  out.flush();  // same short-write rationale as write_report
  if (!out) throw std::runtime_error("report_io: CSV write failed");
}

FlowMonitor::EpochReport combine_reports(const FlowMonitor::EpochReport& a,
                                         const FlowMonitor::EpochReport& b) {
  FlowMonitor::EpochReport merged = a;
  merged.flows.insert(merged.flows.end(), b.flows.begin(), b.flows.end());
  merged.merge_summary(b);
  return merged;
}

}  // namespace disco::flowtable
