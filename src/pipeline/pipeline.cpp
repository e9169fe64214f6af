#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "flowtable/top_k.hpp"
#include "telemetry/registry.hpp"
#include "util/fault.hpp"

namespace disco::pipeline {

// A synchronous control-plane message, shared by every worker of one
// fan-out.  The caller builds it on its own stack, pushes the same pointer
// through each target worker's command ring, and waits once; each worker
// runs the borrowed callable on its FlowMonitor and counts the latch down.
// Fan-outs are serialised by control_mutex_, so at most one command is in
// flight per worker, and the callable may write straight into the caller's
// frame (each worker into its own slot): the latch orders those writes
// before the caller reads them.
struct PipelineMonitor::Command {
  /// What the worker does around the callable.  Every kind first flushes
  /// the coalescer's open bursts so the monitor sees recent packets; Drain
  /// and Stop also absorb everything already queued in the packet rings,
  /// and Stop then ends the worker loop.
  enum class Kind : std::uint8_t { Run, Drain, Stop };

  Command(Kind k, std::size_t workers) : kind(k), pending(workers) {}
  /// Borrows `fn` (no heap, no copy): it must outlive the command, which it
  /// does because the caller waits for completion before returning.
  /// fn(worker index, monitor) runs once per target worker.
  template <typename Fn>
  Command(const Fn& fn, std::size_t workers)
      : call([](const void* target, unsigned worker,
                flowtable::FlowMonitor& monitor) {
          (*static_cast<const Fn*>(target))(worker, monitor);
        }),
        callable(&fn),
        pending(workers) {}

  Kind kind = Kind::Run;
  void (*call)(const void* target, unsigned worker,
               flowtable::FlowMonitor& monitor) = nullptr;
  const void* callable = nullptr;
  // Completion latch.  Deliberately a plain std::mutex, not the annotated
  // util::Mutex: the condition-variable wait needs the std type, and Thread
  // Safety Analysis cannot model a cv handshake anyway.  The latch is
  // stack-local to one fan-out and touched only by its requester and target
  // workers, so the invariant is structural.
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t pending;

  void count_down() {
    // Notify UNDER the lock: the waiter owns this object (its stack) and
    // destroys it the moment wait() returns, so the notify must complete
    // before the waiter can re-acquire the mutex and wake.
    const std::lock_guard<std::mutex> lock(mutex);
    if (--pending == 0) cv.notify_one();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return pending == 0; });
  }
};

// One shard: a FlowMonitor owned exclusively by one thread, its input rings
// (one per producer plus the command ring at index `producers`), and its
// coalescer.  Only the owning worker thread touches `monitor` and
// `coalescer` while the pipeline runs; after stop() the control plane
// inherits them (the join is the handover).
struct PipelineMonitor::Worker {
  Worker(unsigned worker_index,
         const flowtable::FlowMonitor::Config& monitor_config,
         const BurstCoalescer::Config& coalescer_config, unsigned producers,
         std::size_t ring_capacity)
      : index(worker_index), monitor(monitor_config), coalescer(coalescer_config) {
    rings.reserve(producers + 1);
    for (unsigned p = 0; p <= producers; ++p) {
      rings.push_back(std::make_unique<SpscRing<Message>>(ring_capacity));
    }
  }

  unsigned index;  ///< position in workers_: the answer slot of a fan-out
  flowtable::FlowMonitor monitor;
  BurstCoalescer coalescer;
  /// Scratch buffer: bursts emitted by the coalescer for one popped batch,
  /// applied in one monitor.ingest_batch() call so the DISCO decision
  /// tables stay hot across the whole batch.  Emission order is preserved,
  /// so the RNG stream is identical to per-burst ingest.
  std::vector<flowtable::FlowBurst> bursts;
  /// Pop buffer for the packet rings, shared by the worker loop and the
  /// Drain/Stop ring absorb (never live across a command), so neither the
  /// steady state nor a command allocates.  Sized by the worker thread
  /// itself, so it lives in that thread's malloc arena.
  std::vector<Message> batch;
  std::vector<std::unique_ptr<SpscRing<Message>>> rings;
  bool stop_requested = false;         ///< worker-thread-local exit flag
  std::uint64_t merged_reported = 0;   ///< coalescer.merged() already exported

  /// Race-free mirror of coalescer.merged() for cross-thread reads.
  /// Relaxed store/load: a monotonic statistic read by coalesced(); readers
  /// need a recent value, not ordering against other memory.
  alignas(kCacheLine) util::atomic<std::uint64_t> merged_mirror{0};

  telemetry::Gauge* occupancy = nullptr;
  telemetry::LatencyHistogram* pop_batch = nullptr;
  telemetry::Counter* coalesced = nullptr;
  telemetry::Counter* commands = nullptr;
};

namespace {

/// Producer-side wait: a short spin for the worker to free a slot, then
/// yield -- on an oversubscribed host the worker needs the cpu more than
/// the spinner does.
inline void backoff(unsigned& spins) noexcept {
  if (++spins < 16) return;
  std::this_thread::yield();
}

}  // namespace

flowtable::FlowMonitor::Config PipelineMonitor::shard_config(
    const Config& config, unsigned worker) {
  flowtable::FlowMonitor::Config shard = config.base;
  // Per-shard share plus 25% headroom, because hashing is not perfectly
  // balanced and a shard rejecting flows while siblings have room would be
  // a silent capacity loss.
  shard.max_flows = std::max<std::size_t>(
      16, (config.base.max_flows / config.workers) * 5 / 4);
  shard.seed = config.base.seed + 0x9e3779b97f4a7c15ULL * (worker + 1);
  shard.telemetry_prefix =
      config.telemetry_prefix + ".worker_" + std::to_string(worker);
  return shard;
}

PipelineMonitor::PipelineMonitor(const Config& config)
    : config_(config), producers_(config.producers) {
  if (config.workers == 0 || config.workers > 256) {
    throw std::invalid_argument("PipelineMonitor: workers must be in [1, 256]");
  }
  if (config.producers == 0 || config.producers > 256) {
    throw std::invalid_argument("PipelineMonitor: producers must be in [1, 256]");
  }
  if (config.pop_batch == 0) {
    throw std::invalid_argument("PipelineMonitor: pop_batch must be >= 1");
  }
  auto& registry = telemetry::Registry::global();
  dropped_metric_ = &registry.counter(config.telemetry_prefix + ".dropped_total");
  blocked_metric_ = &registry.counter(config.telemetry_prefix + ".blocked_total");

  workers_.reserve(config.workers);
  for (unsigned w = 0; w < config.workers; ++w) {
    const auto shard = shard_config(config, w);
    workers_.push_back(std::make_unique<Worker>(
        w, shard, config.coalescer, producers_, config.ring_capacity));
    Worker& worker = *workers_.back();
    // One coalescer add() emits at most two bursts (collision close + cap
    // close), so this bound makes the steady-state batch loop allocation-free.
    worker.bursts.reserve(config.pop_batch * 2);
    const std::string& prefix = shard.telemetry_prefix;
    worker.occupancy = &registry.gauge(prefix + ".ring_occupancy");
    worker.pop_batch = &registry.histogram(prefix + ".pop_batch");
    worker.coalesced = &registry.counter(prefix + ".coalesced_total");
    worker.commands = &registry.counter(prefix + ".commands_total");
  }
  producer_stats_.reserve(producers_);
  for (unsigned p = 0; p < producers_; ++p) {
    producer_stats_.push_back(std::make_unique<ProducerStats>());
  }
  threads_.reserve(config.workers);
  for (unsigned w = 0; w < config.workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(*workers_[w]); });
  }
  running_ = true;
}

PipelineMonitor::~PipelineMonitor() { stop(); }

bool PipelineMonitor::ingest(unsigned producer, const FiveTuple& flow,
                             std::uint32_t length, std::uint64_t now_ns) {
  if (producer >= producers_) {
    throw std::invalid_argument("PipelineMonitor::ingest: bad producer id");
  }
  if (!accepting_.load(std::memory_order_acquire)) return false;
  // One hash serves routing (high bits, as worker_of), the worker's
  // coalescer slot, and the flow-table probe (low bits) -- it rides in the
  // message so no downstream stage rehashes.
  const std::uint64_t hash = hash_tuple(flow);
  Worker& worker = *workers_[(hash >> 32) % workers_.size()];
  SpscRing<Message>& ring = *worker.rings[producer];
  // Fault points (compile to nothing without DISCO_FAULTS): kClockSkew
  // perturbs the timestamp feeding burst-boundary decisions downstream;
  // kRingFull fails the FIRST push attempt as if the worker had fallen
  // behind, exercising the real Drop/Block backpressure paths.  The Block
  // retry loop is deliberately un-faulted, or an always-firing plan would
  // spin the producer forever.
  Message msg{flow, length, util::fault::skew_clock(now_ns), {}};
  msg.hash = hash;
  if (!util::fault::fires(util::fault::Point::kRingFull) &&
      ring.try_push(msg)) [[likely]] {
    return true;
  }

  if (config_.backpressure == Backpressure::Drop) {
    producer_stats_[producer]->dropped.fetch_add(1, std::memory_order_relaxed);
    dropped_metric_->inc();
    return false;
  }
  blocked_metric_->inc();
  unsigned spins = 0;
  while (!ring.try_push(msg)) {
    if (!accepting_.load(std::memory_order_acquire)) return false;
    backoff(spins);
  }
  return true;
}

std::size_t PipelineMonitor::ingest_batch(unsigned producer,
                                          const PacketEvent* packets,
                                          std::size_t n) {
  if (producer >= producers_) {
    throw std::invalid_argument("PipelineMonitor::ingest_batch: bad producer id");
  }
  if (n == 0) return 0;
  if (!accepting_.load(std::memory_order_acquire)) return 0;
  ProducerStats& stats = *producer_stats_[producer];
  const unsigned workers = static_cast<unsigned>(workers_.size());

  // Phase 1 -- hash the whole batch up front and bucket by owning worker
  // (same routing as ingest(): high hash bits).  With one worker the bucket
  // step is skipped and messages are built straight into the ring span.
  if (stats.buckets.size() != workers) stats.buckets.resize(workers);
  if (workers > 1) {
    for (auto& bucket : stats.buckets) bucket.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t hash = hash_tuple(packets[i].flow);
      Message msg{packets[i].flow, packets[i].length,
                  util::fault::skew_clock(packets[i].now_ns), {}};
      msg.hash = hash;
      stats.buckets[(hash >> 32) % workers].push_back(msg);
    }
  }

  // Phase 2 -- per worker, reserve a contiguous span of ring slots, write
  // the bucket into it, and publish the whole span with one release store.
  std::size_t accepted = 0;
  for (unsigned w = 0; w < workers; ++w) {
    const Message* bucket = nullptr;
    std::size_t remaining = 0;
    if (workers > 1) {
      bucket = stats.buckets[w].data();
      remaining = stats.buckets[w].size();
      if (remaining == 0) continue;
    } else {
      remaining = n;
    }
    SpscRing<Message>& ring = *workers_[w]->rings[producer];
    unsigned spins = 0;
    std::size_t offset = 0;
    while (remaining > 0) {
      std::size_t granted = remaining;
      // auto*: the span is util::shared<Message>* (== Message* in normal
      // builds; race-checked slots under DISCO_MODELCHECK).
      auto* slots = util::fault::fires(util::fault::Point::kRingFull)
                        ? nullptr
                        : ring.push_prepare(granted);
      if (slots == nullptr) {
        if (config_.backpressure == Backpressure::Drop) {
          stats.dropped.fetch_add(remaining, std::memory_order_relaxed);
          dropped_metric_->inc(remaining);
          break;
        }
        blocked_metric_->inc();
        do {
          if (!accepting_.load(std::memory_order_acquire)) return accepted;
          backoff(spins);
          granted = remaining;
        } while ((slots = ring.push_prepare(granted)) == nullptr);
      }
      if (bucket != nullptr) {
        std::copy(bucket + offset, bucket + offset + granted, slots);
      } else {
        for (std::size_t i = 0; i < granted; ++i) {
          const PacketEvent& pkt = packets[offset + i];
          Message msg{pkt.flow, pkt.length, util::fault::skew_clock(pkt.now_ns),
                      {}};
          msg.hash = hash_tuple(pkt.flow);
          slots[i] = msg;
        }
      }
      ring.push_commit(granted);
      offset += granted;
      accepted += granted;
      remaining -= granted;
    }
  }
  return accepted;
}

void PipelineMonitor::process_batch(Worker& worker, const Message* batch,
                                    std::size_t n) {
  // Collect the coalescer's emissions for the whole popped batch, then apply
  // them as one batched ingest.  Same bursts in the same order as calling
  // ingest_burst per emission, so estimates and the RNG stream are
  // bit-identical -- the batch form only amortises per-call overhead and
  // keeps the decision tables resident in cache.
  worker.bursts.clear();
  auto buffer = [&worker](const BurstUpdate& burst) {
    worker.bursts.push_back(burst);
  };
  for (std::size_t i = 0; i < n; ++i) {
    // Packet-ring messages carry the producer's hash (see Message): the
    // coalescer reuses it instead of rehashing the tuple per packet.
    worker.coalescer.add(batch[i].flow, batch[i].hash, batch[i].length,
                         batch[i].now_ns, buffer);
  }
  (void)worker.monitor.ingest_batch(worker.bursts);
  const std::uint64_t merged = worker.coalescer.merged();
  if (merged != worker.merged_reported) {
    worker.coalesced->inc(merged - worker.merged_reported);
    worker.merged_reported = merged;
    worker.merged_mirror.store(merged, std::memory_order_relaxed);
  }
}

void PipelineMonitor::handle_command(Worker& worker, Command& command) {
  worker.commands->inc();
  auto apply = [&worker](const BurstUpdate& burst) {
    (void)worker.monitor.ingest_burst(burst.flow, burst.bytes, burst.packets,
                                      burst.last_ns);
  };
  if (command.kind != Command::Kind::Run) {
    bool again = true;
    while (again) {
      again = false;
      for (unsigned p = 0; p < producers_; ++p) {
        const std::size_t n =
            worker.rings[p]->pop_batch(worker.batch.data(), worker.batch.size());
        if (n > 0) {
          process_batch(worker, worker.batch.data(), n);
          again = true;
        }
      }
    }
  }
  worker.coalescer.flush(apply);
  if (command.call != nullptr) {
    command.call(command.callable, worker.index, worker.monitor);
  }
  if (command.kind == Command::Kind::Stop) worker.stop_requested = true;
  command.count_down();
}

void PipelineMonitor::worker_loop(Worker& worker) {
  std::vector<Message>& batch = worker.batch;
  batch.resize(config_.pop_batch);
  SpscRing<Message>& command_ring = *worker.rings[producers_];
  auto apply = [&worker](const BurstUpdate& burst) {
    (void)worker.monitor.ingest_burst(burst.flow, burst.bytes, burst.packets,
                                      burst.last_ns);
  };
  unsigned idle = 0;
  for (;;) {
    // Commands first: they are rare and latency-sensitive (a rotate must not
    // wait behind a deep packet backlog sweep).
    Message command_msg;
    while (command_ring.pop_batch(&command_msg, 1) == 1) {
      handle_command(worker, *command_msg.command);
      if (worker.stop_requested) return;
    }

    bool any = false;
    std::size_t backlog = 0;
    for (unsigned p = 0; p < producers_; ++p) {
      SpscRing<Message>& ring = *worker.rings[p];
      const std::size_t n = ring.pop_batch(batch.data(), batch.size());
      if (n > 0) {
        any = true;
        worker.pop_batch->record(n);
        process_batch(worker, batch.data(), n);
        backlog += ring.size_approx();
      }
    }
    if (any) {
      worker.occupancy->set(static_cast<std::int64_t>(backlog));
      idle = 0;
      continue;
    }
    // Idle: back off -- briefly spin (a packet may be nanoseconds away),
    // then yield so producers and sibling workers get the core.  Open bursts
    // are closed only after a sustained idle streak: flushing on every empty
    // sweep would defeat coalescing whenever the worker outpaces its
    // producers (it would see each packet alone).  Control-plane commands
    // flush unconditionally, so queries are never stale.
    worker.occupancy->set(0);
    ++idle;
    if (idle == 64) worker.coalescer.flush(apply);
    if (idle >= 16) std::this_thread::yield();
  }
}

void PipelineMonitor::post(Worker& worker, Command& command) {
  if (!running_) {
    // Workers joined (stop() happened-before): safe to run inline.
    handle_command(worker, command);
    return;
  }
  SpscRing<Message>& ring = *worker.rings[producers_];
  Message msg;
  msg.command = &command;
  unsigned spins = 0;
  while (!ring.try_push(msg)) backoff(spins);
}

void PipelineMonitor::fan_out(Command& command) {
  for (auto& worker : workers_) post(*worker, command);
  command.wait();
}

template <typename Ask>
auto PipelineMonitor::for_each_worker(const Ask& ask)
    -> std::vector<std::invoke_result_t<const Ask&, flowtable::FlowMonitor&>> {
  std::vector<std::invoke_result_t<const Ask&, flowtable::FlowMonitor&>>
      answers(workers_.size());
  auto run = [&](unsigned w, flowtable::FlowMonitor& monitor) {
    answers[w] = ask(monitor);
  };
  Command command(run, workers_.size());
  fan_out(command);
  return answers;
}

void PipelineMonitor::subscribe(
    flowtable::FlowMonitor::EpochSubscriber subscriber) {
  if (!subscriber) return;
  const util::MutexLock lock(control_mutex_);
  subscribers_.push_back(std::move(subscriber));
}

PipelineMonitor::EpochReport PipelineMonitor::rotate() {
  const util::MutexLock lock(control_mutex_);
  std::vector<EpochReport> parts =
      for_each_worker([](flowtable::FlowMonitor& m) { return m.rotate(); });
  // Shards hold disjoint flows, so their reports concatenate in worker
  // order.  Worker 0's records seed the merged vector and each part is freed
  // as it is folded, so no flow is held twice for longer than its own copy.
  std::size_t total = 0;
  for (const EpochReport& part : parts) total += part.flows.size();
  EpochReport merged;
  merged.flows = std::exchange(parts.front().flows, {});
  merged.flows.reserve(total);
  for (EpochReport& part : parts) {
    merged.epoch = part.epoch;  // shards rotate in lockstep
    merged.flows.insert(merged.flows.end(), part.flows.begin(),
                        part.flows.end());
    std::vector<FlowEstimate>().swap(part.flows);
    merged.merge_summary(part);
  }
  // Subscribers run on the rotating (control-plane) thread while ingest
  // continues on the workers; module work never stalls the packet path.
  for (const auto& subscriber : subscribers_) subscriber(merged);
  return merged;
}

PipelineMonitor::PressureStats PipelineMonitor::pressure() {
  const util::MutexLock lock(control_mutex_);
  PressureStats sum;
  for (const PressureStats& part : for_each_worker(
           [](const flowtable::FlowMonitor& m) { return m.pressure(); })) {
    sum += part;
  }
  return sum;
}

PipelineMonitor::Totals PipelineMonitor::totals() {
  const util::MutexLock lock(control_mutex_);
  Totals sum;
  for (const Totals& part : for_each_worker(
           [](const flowtable::FlowMonitor& m) { return m.totals(); })) {
    sum += part;
  }
  return sum;
}

std::optional<PipelineMonitor::FlowEstimate> PipelineMonitor::query(
    const FiveTuple& flow) {
  const util::MutexLock lock(control_mutex_);
  std::optional<FlowEstimate> estimate;
  auto lookup = [&](unsigned, const flowtable::FlowMonitor& m) {
    estimate = m.query(flow);
  };
  Command command(lookup, 1);
  post(*workers_[worker_of(flow, static_cast<unsigned>(workers_.size()))],
       command);
  command.wait();
  return estimate;
}

std::vector<PipelineMonitor::FlowEstimate> PipelineMonitor::top_k(std::size_t k) {
  const util::MutexLock lock(control_mutex_);
  const std::vector<std::vector<FlowEstimate>> parts = for_each_worker(
      [k](const flowtable::FlowMonitor& m) { return m.top_k(k); });
  // Every worker's winners are its own top k, so the global top k is among
  // them; rank them in the same (bytes desc, tuple_less) order.
  const auto ahead = [](const FlowEstimate& a, const FlowEstimate& b) {
    if (a.bytes != b.bytes) return a.bytes > b.bytes;
    return flowtable::tuple_less(a.flow, b.flow);
  };
  std::size_t offered = 0;
  for (const auto& part : parts) offered += part.size();
  flowtable::TopK<FlowEstimate, decltype(ahead)> best(k, offered, ahead);
  for (const auto& part : parts) {
    for (const FlowEstimate& flow : part) best.offer(flow);
  }
  return std::move(best).take();
}

PipelineMonitor::MemoryReport PipelineMonitor::memory() {
  const util::MutexLock lock(control_mutex_);
  MemoryReport sum;
  for (const MemoryReport& part : for_each_worker(
           [](const flowtable::FlowMonitor& m) { return m.memory(); })) {
    sum += part;
  }
  return sum;
}

std::uint64_t PipelineMonitor::packets_seen() {
  const util::MutexLock lock(control_mutex_);
  std::uint64_t sum = 0;
  for (const std::uint64_t part : for_each_worker(
           [](const flowtable::FlowMonitor& m) { return m.packets_seen(); })) {
    sum += part;
  }
  return sum;
}

std::vector<PipelineMonitor::FlowEstimate> PipelineMonitor::evict_idle(
    std::uint64_t now_ns, std::uint64_t idle_timeout_ns) {
  const util::MutexLock lock(control_mutex_);
  std::vector<FlowEstimate> evicted;
  for (const auto& part : for_each_worker(
           [now_ns, idle_timeout_ns](flowtable::FlowMonitor& m) {
             return m.evict_idle(now_ns, idle_timeout_ns);
           })) {
    evicted.insert(evicted.end(), part.begin(), part.end());
  }
  return evicted;
}

void PipelineMonitor::drain() {
  const util::MutexLock lock(control_mutex_);
  Command command(Command::Kind::Drain, workers_.size());
  fan_out(command);
}

void PipelineMonitor::stop() {
  const util::MutexLock lock(control_mutex_);
  if (!running_) return;
  accepting_.store(false, std::memory_order_release);
  Command command(Command::Kind::Stop, workers_.size());
  fan_out(command);
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  running_ = false;
}

std::uint64_t PipelineMonitor::dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& stats : producer_stats_) {
    total += stats->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t PipelineMonitor::coalesced() const noexcept {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->merged_mirror.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace disco::pipeline
