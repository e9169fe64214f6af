// In-memory span tracing and summary statistics for the benchmark driver.
//
// Spans are recorded by the driver around its calls into the library's
// public functions, never inside the library.  All spans are opened and
// closed on the driver thread, so the open-span stack gives each span its
// parent.  A span's self time is its duration minus its children's; the
// ledger groups self time by layer, the span-name prefix before the first
// '.' ("pipeline.rotate" -> pipeline).  Spans named "bench.*" are the
// driver's own work, which the ledger reports as unattributed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] std::uint64_t now_ns() noexcept;

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t epoch = 0;   ///< driver epoch the span belongs to
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_epoch(std::uint64_t epoch) noexcept { epoch_ = epoch; }

  /// Opens a span starting at `start`; returns its id (-1 when disabled).
  std::int32_t open(const char* name, std::uint64_t start);
  void close(std::int32_t id, std::uint64_t end) noexcept;

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Sum of durations and of self times of spans named `name`.
  struct Total {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
    std::uint64_t self_ns = 0;
  };
  [[nodiscard]] Total total(std::string_view name) const;
  /// Durations in ns of spans named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Self time per layer (name prefix before the first '.').
  [[nodiscard]] std::map<std::string, std::uint64_t> layer_self_ns() const;

  /// Writes every span as one JSON object per line; times are relative to
  /// `origin_ns`.  Throws std::runtime_error when the file cannot be written.
  void write_jsonl(const std::string& path, std::uint64_t origin_ns) const;

 private:
  [[nodiscard]] std::vector<std::uint64_t> child_ns() const;

  bool enabled_ = false;
  std::uint64_t epoch_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// Scoped span.  A `timed` span always reads the clock, so stop() returns
/// its duration with tracing off too (the end-to-end metrics use this); an
/// untimed span costs nothing while the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, bool timed = false);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (once) and returns its duration in ns; 0 for an untimed
  /// span while tracing is off.
  std::uint64_t stop() noexcept;

 private:
  Tracer& tracer_;
  std::int32_t id_ = -1;
  std::uint64_t start_ = 0;
  std::uint64_t duration_ = 0;
  bool clocked_ = false;
  bool stopped_ = false;
};

/// Median and tail of a sample.  The tail is the highest percentile with at
/// least ten samples beyond it: the 11th-largest value, at percentile
/// 100 * (n - 10) / n.  With ten or fewer samples the tail is the maximum.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);

}  // namespace perfbench
