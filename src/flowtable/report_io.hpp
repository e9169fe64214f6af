// Epoch-report serialisation: the export half of a measurement pipeline.
//
// A monitoring appliance rotates epochs and ships each interval's per-flow
// records to a collector.  This module defines the wire format ("DRPT"): a
// fixed header (epoch id, totals) followed by per-flow records (5-tuple,
// estimated bytes, estimated packets).  Binary for collectors, CSV for
// humans.  The collector side (src/collect, docs/collector.md) re-aggregates
// reports from several appliances at the estimate level; counter-level
// aggregation is core/disco.hpp's merge.
//
// One wire version, kReportVersion (docs/collector.md has the byte-level
// table): magic, version, epoch, site id, totals, the cumulative
// PressureStats, the effective bases volume_b/size_b -- everything a
// collector needs to attach Theorem 2 confidence intervals to estimates
// merged across sites -- two reserved 8-byte fields, then the flow records.
// Readers are strict: any other version, any non-finite or negative total,
// estimate or base, and any reserved field that is not all-zero bytes, is
// rejected as malformed rather than merged.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>

#include "flowtable/monitor.hpp"

namespace disco::flowtable {

inline constexpr std::uint32_t kReportMagic = 0x54505244;  // "DRPT" LE
inline constexpr std::uint32_t kReportVersion = 3;

/// Thrown for a report whose every byte arrived but which the reader refuses:
/// a version other than kReportVersion, a non-finite or negative amount, or
/// a nonzero reserved field.
/// Unlike truncation, the stream is left at the report's framed end (its
/// frame is read as a v3 frame), so a poller can resume there with a fresh
/// reader and still deliver the reports after it (collect::SpoolSource).
class ReportRejected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes one epoch report.  `site_id` identifies the producing monitor
/// process in a multi-site deployment.  Throws std::runtime_error on I/O
/// failure -- including short writes a buffered sink only surfaces at flush
/// time: the stream is flushed before this returns, so a report that came
/// back without an exception is fully on the wire.
void write_report(std::ostream& out, const FlowMonitor::EpochReport& report,
                  std::uint32_t site_id = 0);

/// Reads a report written by write_report.  Throws std::runtime_error on
/// malformed input (see the strictness rules above); the site id is not
/// surfaced here (use ReportReader).
[[nodiscard]] FlowMonitor::EpochReport read_report(std::istream& in);

/// Streaming reader for a concatenated sequence of reports -- a spool file
/// a monitor appends to, or a collector socket.  next() distinguishes the
/// two ways a stream can end: cleanly BETWEEN reports (nullopt) versus
/// mid-report (std::runtime_error), so a truncated spool tail or a torn
/// socket write is detected, never silently dropped.
class ReportReader {
 public:
  explicit ReportReader(std::istream& in) : in_(&in) {}

  struct Item {
    std::uint32_t site_id = 0;
    FlowMonitor::EpochReport report;
  };

  /// The next report, or nullopt at a clean end-of-stream.  Throws
  /// std::runtime_error on truncation or malformed bytes -- ReportRejected
  /// when the report was whole but carried a wrong version, an out-of-range
  /// value or a nonzero reserved field; the reader is then poisoned (every
  /// later call rethrows) because resynchronising inside a torn binary
  /// stream would risk double-counting.  After ReportRejected the stream itself sits at
  /// the rejected report's end, where a fresh reader may pick up.
  [[nodiscard]] std::optional<Item> next();

  /// Reports returned so far (spool-offset bookkeeping for pollers).
  [[nodiscard]] std::uint64_t items_read() const noexcept { return items_; }

 private:
  std::istream* in_;
  std::uint64_t items_ = 0;
  bool poisoned_ = false;
};

/// Human-readable CSV: header row then "src_ip,dst_ip,src_port,dst_port,
/// protocol,bytes,packets" per flow.
void write_report_csv(std::ostream& out, const FlowMonitor::EpochReport& report);

/// Collector-side aggregation: concatenates the flow records of two reports
/// and merges the rest with EpochReport::merge_summary (same-key flows from different appliances appear
/// as separate records; key-level fusion is the collector's policy choice
/// -- collect::Collector implements it with per-key accumulators).
[[nodiscard]] FlowMonitor::EpochReport combine_reports(
    const FlowMonitor::EpochReport& a, const FlowMonitor::EpochReport& b);

}  // namespace disco::flowtable
