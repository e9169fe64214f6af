// Bounded top-k selection: the one ranking primitive behind every top-k
// read (FlowMonitor, PipelineMonitor, Collector).
//
// A size-k heap keeps the k best elements offered so far under a strict
// weak order `ahead(a, b)` ("a ranks before b"); its front is the worst of
// them, so a candidate that cannot make the cut costs one comparison.
// Selecting k of n costs O(n log k) comparisons and O(k) memory, so the
// caller can rank on cheap keys (raw counters, merged sums) and build its
// expensive per-row answer (estimates, intervals) for the winners only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace disco::flowtable {

template <typename T, typename Ahead>
class TopK {
 public:
  /// `expected` bounds the offers to come; it only sizes the heap, so an
  /// unbounded k (say SIZE_MAX, "everything") never over-allocates.
  TopK(std::size_t k, std::size_t expected, Ahead ahead)
      : k_(k), ahead_(std::move(ahead)) {
    heap_.reserve(std::min(k, expected));
  }

  void offer(const T& candidate) {
    if (heap_.size() < k_) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), ahead_);
    } else if (k_ > 0 && ahead_(candidate, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), ahead_);
      heap_.back() = candidate;
      std::push_heap(heap_.begin(), heap_.end(), ahead_);
    }
  }

  /// The winners, best first.
  [[nodiscard]] std::vector<T> take() && {
    std::sort_heap(heap_.begin(), heap_.end(), ahead_);
    return std::move(heap_);
  }

 private:
  std::size_t k_;
  Ahead ahead_;
  std::vector<T> heap_;
};

}  // namespace disco::flowtable
