#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::int32_t Tracer::open(const char* name, std::uint64_t start) {
  if (!enabled_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, start, start, stack_.empty() ? -1 : stack_.back(), epoch_});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id, std::uint64_t end) noexcept {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = end;
  stack_.pop_back();
}

std::vector<std::uint64_t> Tracer::child_ns() const {
  std::vector<std::uint64_t> child(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  return child;
}

Tracer::Total Tracer::total(std::string_view name) const {
  const std::vector<std::uint64_t> child = child_ns();
  Total t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const std::uint64_t d = spans_[i].end_ns - spans_[i].start_ns;
    ++t.count;
    t.ns += d;
    t.self_ns += d - child[i];
  }
  return t;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::map<std::string, std::uint64_t> Tracer::layer_self_ns() const {
  const std::vector<std::uint64_t> child = child_ns();
  std::map<std::string, std::uint64_t> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string_view name = spans_[i].name;
    layers[std::string(name.substr(0, name.find('.')))] +=
        spans_[i].end_ns - spans_[i].start_ns - child[i];
  }
  return layers;
}

void Tracer::write_jsonl(const std::string& path, std::uint64_t origin_ns) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "w"),
                                                       &std::fclose);
  if (!file) throw std::runtime_error("cannot write span file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(file.get(),
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%d,\"epoch\":%llu}\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns - origin_ns),
                 static_cast<unsigned long long>(s.end_ns - origin_ns), s.parent,
                 static_cast<unsigned long long>(s.epoch));
  }
  if (std::ferror(file.get())) throw std::runtime_error("short write to " + path);
}

Span::Span(Tracer& tracer, const char* name, bool timed) : tracer_(tracer) {
  clocked_ = timed || tracer.enabled();
  if (!clocked_) return;
  start_ = now_ns();
  id_ = tracer_.open(name, start_);
}

std::uint64_t Span::stop() noexcept {
  if (stopped_) return duration_;
  stopped_ = true;
  if (!clocked_) return 0;
  const std::uint64_t end = now_ns();
  tracer_.close(id_, end);
  duration_ = end - start_;
  return duration_;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.p50 = n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  const std::size_t tail_index = n > 10 ? n - 11 : n - 1;
  s.tail = samples[tail_index];
  s.tail_pct = n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n) : 100.0;
  return s;
}

}  // namespace perfbench
