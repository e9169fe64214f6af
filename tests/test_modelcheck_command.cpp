// Model-check drivers for the pipeline's command protocols
// (src/pipeline/pipeline.cpp): commands travel IN-BAND through the same
// SpscRing as data, so their ordering against surrounding messages is the
// correctness property -- a rotate lands exactly between the packets pushed
// before and after it.  The completion side (worker fills a result the
// issuer then reads) is a publish/subscribe handshake on a flag; a fan-out
// to several workers shares one countdown latch.
//
// Compiled with DISCO_MODELCHECK=1; see test_modelcheck_ring.cpp for the
// harness conventions.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "pipeline/packet_ring.hpp"
#include "util/atomic.hpp"
#include "verify/model.hpp"

namespace verify = disco::verify;
namespace util = disco::util;
using disco::pipeline::SpscRing;

namespace {

/// In-band control marker, mirroring pipeline.cpp's convention of pushing
/// command tokens through the data ring.
constexpr std::uint64_t kRotate = ~std::uint64_t{0};

}  // namespace

TEST(ModelCheckCommand, InBandRotateBoundaryIsExact) {
  // Producer: 1, 2, ROTATE, 3.  Consumer accumulates per epoch; the rotate
  // must cut exactly after 1+2 in EVERY schedule -- that is the whole point
  // of in-band commands (no separate control channel to race with the
  // data).
  verify::Options opts;
  opts.exhaustive = true;
  opts.preemption_bound = 2;
  opts.max_executions = 500000;
  verify::Result r = verify::explore(opts, [] {
    SpscRing<std::uint64_t> ring(4);
    std::uint64_t epoch0 = 0;
    std::uint64_t epoch1 = 0;
    verify::run_threads({
        [&] {
          const std::uint64_t feed[] = {1, 2, kRotate, 3};
          for (std::uint64_t v : feed) {
            while (!ring.try_push(v)) verify::spin_yield();
          }
        },
        [&] {
          std::uint64_t buf[4];
          bool rotated = false;
          std::uint64_t acc = 0;
          std::size_t popped = 0;
          while (popped < 4) {
            const std::size_t got = ring.pop_batch(buf, 4);
            if (got == 0) {
              verify::spin_yield();
              continue;
            }
            popped += got;
            for (std::size_t i = 0; i < got; ++i) {
              if (buf[i] == kRotate) {
                epoch0 = acc;
                acc = 0;
                rotated = true;
              } else {
                acc += buf[i];
              }
            }
          }
          verify::mc_check(rotated, "the rotate marker must arrive");
          epoch1 = acc;
        },
    });
    verify::mc_check(epoch0 == 3, "epoch 0 must hold exactly 1+2");
    verify::mc_check(epoch1 == 3, "epoch 1 must hold exactly the tail");
  });
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.pruned, 0u);
}

namespace {

/// The synchronous command handshake from pipeline.cpp, reduced to its
/// memory protocol: the issuer stack-allocates the command, passes a
/// POINTER through the ring, and waits on a completion flag; the worker
/// writes the result through the pointer and releases the flag.  The
/// issuer's read of `result` is only safe because of that release/acquire
/// pair -- which is exactly what the buggy variant severs.
struct Command {
  util::shared<std::uint64_t> arg;
  util::shared<std::uint64_t> result;
  util::atomic<std::uint64_t> done{0};
};

template <bool kBuggy>
verify::Result explore_handshake() {
  verify::Options opts;
  opts.exhaustive = true;
  opts.preemption_bound = 2;
  opts.max_executions = 500000;
  return verify::explore(opts, [] {
    SpscRing<Command*> ring(2);
    Command cmd;
    verify::label(&cmd.done, "cmd.done");
    verify::label(&cmd.result, "cmd.result");
    std::uint64_t answer = 0;
    verify::run_threads({
        [&] {  // issuer
          cmd.arg = 7;
          while (!ring.try_push(&cmd)) verify::spin_yield();
          while (cmd.done.load(std::memory_order_acquire) == 0) {
            verify::spin_yield();
          }
          answer = cmd.result;
        },
        [&] {  // worker
          Command* c = nullptr;
          while (ring.pop_batch(&c, 1) == 0) verify::spin_yield();
          c->result = static_cast<std::uint64_t>(c->arg) * 2;
          c->done.store(1, kBuggy ? std::memory_order_relaxed
                                  : std::memory_order_release);
        },
    });
    verify::mc_check(answer == 14, "issuer must read the worker's result");
  });
}

}  // namespace

TEST(ModelCheckCommand, CompletionHandshakeExhaustive) {
  verify::Result r = explore_handshake<false>();
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.pruned, 0u);
}

TEST(ModelCheckCommand, CompletionHandshakeRelaxedDoneIsFlagged) {
  verify::Result r = explore_handshake<true>();
  ASSERT_TRUE(r.failed)
      << "a relaxed completion store must be reported as a race on result";
  EXPECT_NE(r.report.find("DATA RACE"), std::string::npos) << r.report;
  EXPECT_NE(r.report.find("cmd.result"), std::string::npos) << r.report;
}

namespace {

/// The fan-out handshake from pipeline.cpp (for_each_worker), reduced to
/// its memory protocol: the requester posts ONE command to both workers
/// before it waits, then waits on one countdown latch; each worker writes
/// its own answer slot and counts the latch down (acq_rel, so the last
/// count carries every earlier worker's write with it).  The requester
/// reads the answers only once the latch is at zero.  The buggy twin reads
/// as soon as ONE worker has counted down -- before the other worker's
/// completion is published.  The post itself is the thread-create edge
/// here (the command is written before the workers start): the ring push
/// that carries it in pipeline.cpp is the handshake that
/// CompletionHandshakeExhaustive already explores, and three threads
/// spinning on rings would multiply the tree far past the execution cap.
struct FanOut {
  util::shared<std::uint64_t> arg;
  util::shared<std::uint64_t> answer[2];
  util::atomic<std::uint64_t> pending{2};
};

template <bool kBuggy>
verify::Result explore_fan_out() {
  verify::Options opts;
  opts.exhaustive = true;
  opts.preemption_bound = 2;
  opts.max_executions = 500000;
  return verify::explore(opts, [] {
    FanOut cmd;
    verify::label(&cmd.pending, "fanout.pending");
    verify::label(&cmd.answer[0], "fanout.answer0");
    verify::label(&cmd.answer[1], "fanout.answer1");
    cmd.arg = 7;  // the command, posted to both workers
    std::uint64_t sum = 0;
    const auto worker = [&cmd](unsigned w) {
      cmd.answer[w] = static_cast<std::uint64_t>(cmd.arg) * (w + 2);
      cmd.pending.fetch_sub(1, std::memory_order_acq_rel);
    };
    verify::run_threads({
        [&] {  // requester: one wait for the whole fan-out
          const std::uint64_t done_at = kBuggy ? 1 : 0;
          while (cmd.pending.load(std::memory_order_acquire) > done_at) {
            verify::spin_yield();
          }
          sum = static_cast<std::uint64_t>(cmd.answer[0]) +
                static_cast<std::uint64_t>(cmd.answer[1]);
        },
        [&] { worker(0); },
        [&] { worker(1); },
    });
    verify::mc_check(sum == 7 * 2 + 7 * 3,
                     "requester must read both workers' answers");
  });
}

}  // namespace

TEST(ModelCheckCommand, FanOutLatchExhaustive) {
  verify::Result r = explore_fan_out<false>();
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.pruned, 0u);
}

TEST(ModelCheckCommand, FanOutReadBeforeLastCompletionIsFlagged) {
  verify::Result r = explore_fan_out<true>();
  ASSERT_TRUE(r.failed)
      << "reading an answer before its worker counted down must be flagged";
  EXPECT_NE(r.report.find("fanout.answer"), std::string::npos) << r.report;
}
