// Streaming analysis modules: the repo's user-extensible answer layer.
//
// The monitors produce per-flow estimates once per epoch (rotate()); what a
// production user wants is *answers* -- top ports, per-application
// breakdowns, scan alarms, hierarchical heavy hitters.  An AnalysisModule
// is a streaming consumer of epoch reports: it subscribes (via ModuleHost,
// host.hpp) to rotate() on either monitor, keeps its own state
// across epochs, and exports its current answer as text and JSON.
//
// One ingest pipeline, many concurrent questions: every module attached to
// a host sees the same EpochReport, so adding a question never costs a
// second pass over the packet stream.
//
// Lifecycle (the contract a module author implements -- the full guide with
// a worked example is docs/modules.md):
//
//   construct -> [attach to ModuleHost] -> on_epoch() per rotate()
//             -> flush() at end of stream -> export_text()/export_json()
//             -> reset() to drop state and go again
//
// Threading: on_epoch() is invoked synchronously on whichever thread calls
// rotate() (the control-plane thread for PipelineMonitor), one epoch at a
// time.  A module therefore needs no internal locking as long as exports
// also happen on that thread between rotations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "flowtable/monitor.hpp"

namespace disco::modules {

using flowtable::FiveTuple;
using EpochReport = flowtable::FlowMonitor::EpochReport;
using FlowEstimate = flowtable::FlowMonitor::FlowEstimate;

/// Tuning knobs shared by the built-in modules (each documents which fields
/// it reads).  Defaults are sane for a 10k-100k flow link; docs/modules.md
/// tabulates them per module.
struct ModuleOptions {
  /// How many keys top-k style modules report (topports, topdest, scanner).
  std::size_t top_k = 10;
  /// Confidence level for every DISCO interval a module attaches.
  double confidence = 0.95;
  /// autofocus: a prefix is reported when its unexplained (residual) traffic
  /// reaches this share of the epoch's total bytes.
  double heavy_share = 0.05;
  /// anomaly-ewma / active-flows: smoothing factor in (0, 1]; higher reacts
  /// faster.
  double ewma_alpha = 0.3;
  /// anomaly-ewma: alarm when an epoch aggregate deviates from its EWMA by
  /// more than this many EW standard deviations.
  double alarm_sigmas = 3.0;
  /// anomaly-ewma: epochs observed before alarms may fire (the EWMA needs a
  /// baseline first).
  std::uint64_t alarm_warmup_epochs = 3;
  /// scanner-detector: minimum distinct (dst ip, dst port) targets touched
  /// by one source in one epoch to qualify as a scan candidate.
  std::size_t scanner_min_fanout = 32;
  /// scanner-detector: candidates must also average at most this many
  /// estimated packets per touched target (scans are thin).
  double scanner_max_packets_per_flow = 4.0;
};

/// Base class of every streaming analysis module.
///
/// Implementations own all their state; the host never inspects it.  The
/// export pair must be callable at any point between epochs (including
/// before the first one) and must not mutate state.
class AnalysisModule {
 public:
  virtual ~AnalysisModule() = default;

  /// Stable identifier: lowercase, [a-z0-9-], unique per host.  Used for
  /// CLI selection (--modules=topports,...), JSON export, and -- with '-'
  /// mapped to '_' -- telemetry naming (modules.<name>.*; docs/modules.md).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Consumes one epoch report.  Called once per rotate(), in epoch order,
  /// on the rotating thread.  The report outlives the call only until the
  /// next rotation: copy what you keep.
  virtual void on_epoch(const EpochReport& report) = 0;

  /// End of stream: finalise any cumulative state (e.g. close an open
  /// window).  Exports stay valid afterwards; further epochs may follow (a
  /// flush is a checkpoint, not a terminal state).
  virtual void flush() {}

  /// Drops all state, as if freshly constructed.
  virtual void reset() = 0;

  /// Human-readable report of the module's current answer.
  virtual void export_text(std::ostream& out) const = 0;

  /// Machine-readable report: one self-contained JSON object, shaped
  /// {"module": "<name>", "epochs": N, ...} -- the host stitches these into
  /// its combined document (docs/modules.md documents each built-in's
  /// schema).
  [[nodiscard]] virtual std::string export_json() const = 0;
};

}  // namespace disco::modules
