// cellstream tests: the command ring (wraparound, batch-of-one cost
// parity, metrics), the streaming engine (bit-exact with per-call
// analyze, guarded per-request recovery, throughput, the per-request
// balanced pipeline), and TaskPool's batched doorbell dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/faults.h"
#include "guard/policy.h"
#include "img/color.h"
#include "img/synth.h"
#include "kernels/ch_kernel.h"
#include "kernels/messages.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "marvel/stream_engine.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "port/taskpool.h"
#include "probe/request_trace.h"
#include "sim/invariants.h"
#include "sim/machine.h"
#include "sim/report.h"
#include "sim/spu_mfcio.h"
#include "support/aligned.h"
#include "support/error.h"
#include "testutil.h"

namespace cellport {
namespace {

using check::FaultMsg;
using marvel::AnalysisResult;

/// Minimal kernel with real DMA traffic: fetches 64 bytes from msg->ea
/// and returns their sum.
port::KernelModule& ring_sum_module() {
  static port::KernelModule mod("stream_sum", 4096);
  static bool init = (mod.add_function(1, +[](std::uint64_t ea) {
                        auto* msg = reinterpret_cast<FaultMsg*>(ea);
                        auto* buf = static_cast<std::uint8_t*>(
                            sim::spu_ls_alloc(64, 16));
                        sim::mfc_get(buf, msg->ea, 64, 1);
                        sim::mfc_write_tag_mask(1u << 1);
                        sim::mfc_read_tag_status_all();
                        int sum = 0;
                        for (int i = 0; i < 64; ++i) sum += buf[i];
                        return sum;
                      }),
                      true);
  (void)init;
  return mod;
}

/// Task-pool kernel with an output: sums 64 bytes from in_ea and puts
/// the result at out_ea (16-byte store).
struct alignas(16) SumTaskMsg {
  std::uint64_t in_ea = 0;
  std::uint64_t out_ea = 0;
};

port::KernelModule& sum_task_module() {
  static port::KernelModule mod("stream_sum_task", 4096);
  static bool init =
      (mod.add_function(1, +[](std::uint64_t ea) {
         auto* msg = reinterpret_cast<SumTaskMsg*>(ea);
         auto* buf =
             static_cast<std::uint8_t*>(sim::spu_ls_alloc(64, 16));
         sim::mfc_get(buf, msg->in_ea, 64, 1);
         sim::mfc_write_tag_mask(1u << 1);
         sim::mfc_read_tag_status_all();
         auto* out = static_cast<std::uint32_t*>(sim::spu_ls_alloc(16, 16));
         out[0] = 0;
         for (int i = 0; i < 64; ++i) out[0] += buf[i];
         sim::mfc_put(out, msg->out_ea, 16, 2);
         sim::mfc_write_tag_mask(1u << 2);
         sim::mfc_read_tag_status_all();
         return 0;
       }),
       true);
  (void)init;
  return mod;
}

void expect_identical(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(a.color_histogram.values, b.color_histogram.values);
  EXPECT_EQ(a.color_correlogram.values, b.color_correlogram.values);
  EXPECT_EQ(a.texture.values, b.texture.values);
  EXPECT_EQ(a.edge_histogram.values, b.edge_histogram.values);
  EXPECT_EQ(a.ch_detect.values, b.ch_detect.values);
  EXPECT_EQ(a.cc_detect.values, b.cc_detect.values);
  EXPECT_EQ(a.tx_detect.values, b.tx_detect.values);
  EXPECT_EQ(a.eh_detect.values, b.eh_detect.values);
}

// ---- SPEInterface command ring ----

TEST(Ring, WraparoundDeliversEveryResultInOrder) {
  sim::Machine machine;
  port::SPEInterface iface(ring_sum_module(), 0);
  iface.set_ring_capacity(4);

  cellport::AlignedBuffer<std::uint8_t> bufs[3] = {
      cellport::AlignedBuffer<std::uint8_t>(64),
      cellport::AlignedBuffer<std::uint8_t>(64),
      cellport::AlignedBuffer<std::uint8_t>(64)};
  port::WrappedMessage<FaultMsg> msgs[3];
  for (int j = 0; j < 3; ++j) {
    msgs[j]->ea = reinterpret_cast<std::uint64_t>(bufs[j].data());
  }

  // Three batches of three through a 4-slot ring: the head wraps after
  // every batch and the results must still come back in enqueue order.
  for (int b = 0; b < 3; ++b) {
    for (int j = 0; j < 3; ++j) {
      auto v = static_cast<std::uint8_t>(b * 3 + j + 1);
      for (int i = 0; i < 64; ++i) bufs[j][static_cast<std::size_t>(i)] = v;
      iface.Enqueue(1, msgs[j].ea());
    }
    EXPECT_EQ(iface.FlushBatch(), 3);
    std::vector<int> res;
    ASSERT_TRUE(iface.WaitBatch(&res));
    ASSERT_EQ(res.size(), 3u);
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(res[static_cast<std::size_t>(j)], 64 * (b * 3 + j + 1));
    }
  }
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

TEST(Ring, MultipleBatchesInFlightRetireInFifoOrder) {
  sim::Machine machine;
  port::SPEInterface iface(ring_sum_module(), 0);
  iface.set_ring_capacity(4);

  cellport::AlignedBuffer<std::uint8_t> bufs[4] = {
      cellport::AlignedBuffer<std::uint8_t>(64),
      cellport::AlignedBuffer<std::uint8_t>(64),
      cellport::AlignedBuffer<std::uint8_t>(64),
      cellport::AlignedBuffer<std::uint8_t>(64)};
  port::WrappedMessage<FaultMsg> msgs[4];
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 64; ++i) {
      bufs[j][static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(j + 1);
    }
    msgs[j]->ea = reinterpret_cast<std::uint64_t>(bufs[j].data());
  }

  iface.Enqueue(1, msgs[0].ea());
  iface.Enqueue(1, msgs[1].ea());
  EXPECT_EQ(iface.FlushBatch(), 2);
  iface.Enqueue(1, msgs[2].ea());
  iface.Enqueue(1, msgs[3].ea());
  EXPECT_EQ(iface.FlushBatch(), 2);
  EXPECT_EQ(iface.ring_batches_in_flight(), 2u);
  // A fifth enqueue would overfill the 4-slot ring while both batches
  // are still in flight.
  EXPECT_THROW(iface.Enqueue(1, msgs[0].ea()), ConfigError);

  std::vector<int> res;
  ASSERT_TRUE(iface.WaitBatch(&res));
  ASSERT_TRUE(iface.WaitBatch(&res));
  ASSERT_EQ(res.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(res[static_cast<std::size_t>(j)], 64 * (j + 1));
  }
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

TEST(Ring, DrainOnCloseRetiresInFlightBatches) {
  sim::Machine machine;
  {
    // The buffers outlive the interface: its destructor drains the
    // in-flight batch, whose kernels still read them.
    cellport::AlignedBuffer<std::uint8_t> host(64);
    port::WrappedMessage<FaultMsg> msg;
    port::SPEInterface iface(ring_sum_module(), 0);
    iface.set_ring_capacity(8);
    msg->ea = reinterpret_cast<std::uint64_t>(host.data());
    iface.Enqueue(1, msg.ea());
    iface.Enqueue(1, msg.ea());
    iface.FlushBatch();
    iface.Enqueue(1, msg.ea());  // never doorbelled: rolled back on close
    // Destructor must drain the in-flight batch and exit cleanly.
  }
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

TEST(Ring, BatchOfOneCostsWithinOnePercentOfLegacy) {
  // The acceptance bar for the protocol itself: driving a kernel through
  // one-request ring batches must cost (simulated) within 1% of the
  // legacy two-mailbox-word call — the ring only pays two extra staging
  // DMAs per batch against one saved mailbox word.
  img::RgbImage image = img::synth_image(img::SceneKind::kGradient, 7,
                                         352, 240);
  const int kCalls = 8;
  auto run = [&](bool use_ring) {
    sim::Machine machine;
    port::SPEInterface iface(kernels::ch_module(), 0);
    cellport::AlignedBuffer<float> out(
        cellport::round_up(static_cast<std::size_t>(img::kHsvBins), 8));
    port::WrappedMessage<kernels::ImageMsg> msg;
    msg->pixels_ea = reinterpret_cast<std::uint64_t>(image.data());
    msg->width = image.width();
    msg->height = image.height();
    msg->stride = image.stride();
    msg->buffering = kernels::kDoubleBuffer;
    msg->out_ea = reinterpret_cast<std::uint64_t>(out.data());
    msg->out_count = img::kHsvBins;
    if (use_ring) iface.set_ring_capacity(2);
    sim::SimTime t0 = machine.ppe().now_ns();
    for (int i = 0; i < kCalls; ++i) {
      if (use_ring) {
        iface.Enqueue(static_cast<int>(kernels::SPU_Run), msg.ea());
        iface.FlushBatch();
        std::vector<int> res;
        EXPECT_TRUE(iface.WaitBatch(&res));
      } else {
        iface.SendAndWait(static_cast<int>(kernels::SPU_Run), msg.ea());
      }
    }
    return machine.ppe().now_ns() - t0;
  };
  sim::SimTime legacy = run(false);
  sim::SimTime ring = run(true);
  EXPECT_LE(ring, legacy * 1.01);
  EXPECT_GE(ring, legacy * 0.99);
}

TEST(Ring, FlushRecordsDoorbellAndOccupancyMetrics) {
  sim::Machine machine;
  port::SPEInterface iface(ring_sum_module(), 0);
  iface.set_ring_capacity(8);
  cellport::AlignedBuffer<std::uint8_t> host(64);
  port::WrappedMessage<FaultMsg> msg;
  msg->ea = reinterpret_cast<std::uint64_t>(host.data());
  for (int j = 0; j < 4; ++j) iface.Enqueue(1, msg.ea());
  iface.FlushBatch();
  std::vector<int> res;
  ASSERT_TRUE(iface.WaitBatch(&res));

  trace::MetricsRegistry& m = machine.metrics();
  EXPECT_EQ(m.value("spe0.ring.doorbells"), 1.0);
  EXPECT_EQ(m.value("spe0.ring.commands"), 4.0);
  const trace::Histogram* batch = m.find_histogram("spe0.ring.batch_size");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->count(), 1u);
  EXPECT_EQ(batch->max(), 4.0);
  const trace::Histogram* occ = m.find_histogram("spe0.ring.occupancy");
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->max(), 0.5);  // 4 in flight of 8 slots
}

// ---- streaming engine ----

class Stream : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ =
        new testutil::TempLibrary("cellport_stream_models.bin", 0);
    dataset_ = new marvel::Dataset(marvel::make_dataset(6, 4242));
  }
  static void TearDownTestSuite() {
    delete library_;
    delete dataset_;
  }
  static const std::string& library_path() { return library_->path(); }

  static std::vector<AnalysisResult> per_call_reference(
      marvel::Scenario scenario) {
    sim::Machine machine;
    marvel::CellEngine engine(machine, library_path(), scenario);
    std::vector<AnalysisResult> out;
    for (const auto& image : dataset_->images) {
      out.push_back(engine.analyze(image));
    }
    return out;
  }

  static testutil::TempLibrary* library_;
  static marvel::Dataset* dataset_;
};

testutil::TempLibrary* Stream::library_ = nullptr;
marvel::Dataset* Stream::dataset_ = nullptr;

TEST_F(Stream, BitExactWithPerCallAnalyzeInEveryScenario) {
  for (auto scenario :
       {marvel::Scenario::kSingleSPE, marvel::Scenario::kMultiSPE,
        marvel::Scenario::kMultiSPE2}) {
    std::vector<AnalysisResult> want = per_call_reference(scenario);
    sim::Machine machine;
    marvel::CellEngine engine(machine, library_path(), scenario);
    marvel::StreamStats stats;
    std::vector<AnalysisResult> got =
        engine.analyze_stream(dataset_->images, {/*batch=*/4}, &stats);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_identical(got[i], want[i]);
    }
    EXPECT_EQ(stats.images, dataset_->images.size());
    EXPECT_GT(stats.doorbells, 0u);
    EXPECT_GT(stats.images_per_sec, 0.0);
    EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
  }
}

TEST_F(Stream, BatchOfOneIsBitExactToo) {
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  std::vector<AnalysisResult> got =
      engine.analyze_stream(dataset_->images, {/*batch=*/1}, nullptr);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_identical(got[i], want[i]);
  }
}

TEST_F(Stream, BatchedStreamingBeatsPerCallThroughput) {
  sim::Machine m1;
  marvel::CellEngine percall(m1, library_path(),
                             marvel::Scenario::kMultiSPE);
  sim::SimTime t0 = m1.ppe().now_ns();
  for (const auto& image : dataset_->images) percall.analyze(image);
  sim::SimTime percall_ns = m1.ppe().now_ns() - t0;

  sim::Machine m2;
  marvel::CellEngine streamed(m2, library_path(),
                              marvel::Scenario::kMultiSPE);
  marvel::StreamStats stats;
  streamed.analyze_stream(dataset_->images, {/*batch=*/3}, &stats);
  EXPECT_LT(stats.elapsed_ns, percall_ns);
}

TEST_F(Stream, GuardFaultMidBatchRetriesOnlyTheAffectedRequest) {
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE,
                            kernels::kDoubleBuffer, false, guard);
  // One transient DMA fault deep inside the color-histogram SPE's second
  // streamed window: exactly one request of the batch fails, the others
  // must land untouched.
  sim::FaultInjection f;
  f.dma_error_after = 50;
  machine.spe(0).inject_fault(f);

  marvel::StreamStats stats;
  std::vector<AnalysisResult> got =
      engine.analyze_stream(dataset_->images, {/*batch=*/3}, &stats);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_identical(got[i], want[i]);
    EXPECT_TRUE(got[i].degraded.empty());
  }
  EXPECT_EQ(stats.request_retries, 1u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST_F(Stream, CloseReportsATerminalStatusForEveryRequest) {
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  marvel::StreamEngine se(engine, {/*batch=*/2});
  // Three drained requests complete; two queued-but-unstarted ones must
  // surface as cancelled rather than silently vanish on close().
  for (int i = 0; i < 3; ++i) se.submit(dataset_->images[std::size_t(i)]);
  std::vector<AnalysisResult> got = se.drain();
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_identical(got[i], want[i]);
  }
  se.submit(dataset_->images[3]);
  se.submit(dataset_->images[4]);

  std::vector<marvel::StreamEngine::RequestEnd> ends = se.close();
  ASSERT_EQ(ends.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ends[i], marvel::StreamEngine::RequestEnd::kCompleted);
  }
  for (std::size_t i = 3; i < 5; ++i) {
    EXPECT_EQ(ends[i], marvel::StreamEngine::RequestEnd::kCancelled);
  }
  EXPECT_EQ(se.stats().cancelled, 2u);
  EXPECT_EQ(machine.metrics().counter("stream.cancelled").value(), 2u);

  // close() is idempotent and submit-after-close is a hard error.
  EXPECT_EQ(se.close(), ends);
  EXPECT_EQ(se.stats().cancelled, 2u);
  EXPECT_THROW(se.submit(dataset_->images[0]), cellport::Error);
}

TEST_F(Stream, CloseWithNothingPendingCancelsNothing) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  marvel::StreamEngine se(engine, {/*batch=*/2});
  se.submit(dataset_->images[0]);
  (void)se.drain();
  std::vector<marvel::StreamEngine::RequestEnd> ends = se.close();
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0], marvel::StreamEngine::RequestEnd::kCompleted);
  EXPECT_EQ(se.stats().cancelled, 0u);
}

// ---- TaskPool batched dispatch ----

// ---- cellflow: the per-request balanced pipeline ----

/// Records when each streamed request's decode began (the pipeline's
/// "decode[r]" spans).
class DecodeStarts : public probe::ProbeSink {
 public:
  void on_request(const probe::RequestTrace& rt) override {
    for (const probe::Span& span : rt.spans()) {
      if (span.phase == probe::Phase::kDecode &&
          span.label.rfind("decode[", 0) == 0) {
        starts.push_back(span.begin);
      }
    }
  }
  std::vector<sim::SimTime> starts;
};

struct FlowRun {
  std::vector<AnalysisResult> results;
  std::vector<sim::SimTime> done;
  std::vector<sim::SimTime> decode_starts;
};

/// One fault-free guarded + balanced stream (the production shape).
FlowRun run_flow(const std::string& library, marvel::Scenario scenario,
                 const std::vector<img::SicEncoded>& images,
                 bool sequential = false) {
  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  marvel::CellEngine engine(machine, library, scenario,
                            kernels::kDoubleBuffer, false, guard);
  engine.set_balanced(true);
  DecodeStarts sink;
  engine.set_probe(&sink);
  marvel::StreamOptions opts;
  opts.batch = 4;
  opts.sequential = sequential;
  marvel::StreamEngine stream(engine, opts);
  FlowRun run;
  run.results = stream.run(images);
  run.done = stream.completion_ns();
  run.decode_starts = sink.starts;
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
  return run;
}

TEST_F(Stream, GuardedBalancedStreamIsBitIdenticalToPerCallAnalyze) {
  for (auto scenario :
       {marvel::Scenario::kMultiSPE, marvel::Scenario::kSharded}) {
    std::vector<AnalysisResult> want = per_call_reference(scenario);
    for (bool sequential : {false, true}) {
      FlowRun run =
          run_flow(library_path(), scenario, dataset_->images, sequential);
      ASSERT_EQ(run.results.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        expect_identical(run.results[i], want[i]);
        EXPECT_TRUE(run.results[i].degraded.empty());
      }
    }
  }
}

TEST_F(Stream, BalancedRequestsRetireOneByOneWhileTheNextDecodes) {
  FlowRun run = run_flow(library_path(), marvel::Scenario::kMultiSPE,
                         dataset_->images);
  const std::size_t n = dataset_->images.size();
  ASSERT_EQ(run.done.size(), n);
  ASSERT_EQ(run.decode_starts.size(), n);
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_LT(run.done[i - 1], run.done[i]) << "request " << i;
  }
  // Request 0 retires before request 2's decode begins (no window
  // barrier), yet request 1's decode began before request 0 retired
  // (decode-ahead).
  EXPECT_LE(run.done[0], run.decode_starts[2]);
  EXPECT_LT(run.decode_starts[1], run.done[0]);

  // opts.sequential keeps meaning "no decode-ahead".
  FlowRun seq = run_flow(library_path(), marvel::Scenario::kMultiSPE,
                         dataset_->images, /*sequential=*/true);
  ASSERT_EQ(seq.decode_starts.size(), n);
  EXPECT_GE(seq.decode_starts[1], seq.done[0]);
  EXPECT_LT(run.done.back(), seq.done.back());
}

TEST_F(Stream, BalancedPipelineStampsIgnoreHostLoad) {
  const std::vector<img::SicEncoded> images(dataset_->images.begin(),
                                            dataset_->images.begin() + 4);
  FlowRun idle =
      run_flow(library_path(), marvel::Scenario::kMultiSPE, images);
  FlowRun loaded;
  {
    // Busy host threads change which SPE thread finishes first on the
    // host; the simulated schedule must not notice.
    std::vector<std::jthread> burners;
    const unsigned n = std::max(2u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      burners.emplace_back([](std::stop_token stop) {
        volatile std::uint64_t x = 0;
        while (!stop.stop_requested()) x = x + 1;
      });
    }
    loaded = run_flow(library_path(), marvel::Scenario::kMultiSPE, images);
  }
  EXPECT_EQ(idle.done, loaded.done);
  EXPECT_EQ(idle.decode_starts, loaded.decode_starts);
  ASSERT_EQ(idle.results.size(), loaded.results.size());
  for (std::size_t i = 0; i < idle.results.size(); ++i) {
    expect_identical(idle.results[i], loaded.results[i]);
  }
}

TEST_F(Stream, MalformedImageMidPipelineLeavesTheEngineUsable) {
  // Request 2's decode fails while request 1's tasks are on the lanes:
  // the stream throws the decode error, and the lanes are drained so the
  // same engine analyzes the next image exactly like a fresh one.
  std::vector<img::SicEncoded> images(dataset_->images.begin(),
                                      dataset_->images.begin() + 4);
  images[2].bytes.resize(images[2].bytes.size() / 2);
  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE,
                            kernels::kDoubleBuffer, false, guard);
  engine.set_balanced(true);
  EXPECT_THROW(engine.analyze_stream(images, {/*batch=*/4}, nullptr),
               IoError);
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);
  expect_identical(engine.analyze(dataset_->images[3]), want[3]);
}

TEST_F(Stream, AbortedWindowStreamLeavesTheEngineUsable) {
  // The window flow keeps window w-1's ring batches in flight while it
  // decodes window w; a carrier that fails there must not strand them.
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  img::SicEncoded truncated = dataset_->images[1];
  truncated.bytes.resize(truncated.bytes.size() / 2);
  EXPECT_THROW(engine.analyze_stream({dataset_->images[0], truncated},
                                     {/*batch=*/1}, nullptr),
               IoError);
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);
  expect_identical(engine.analyze(dataset_->images[0]), want[0]);
  expect_identical(engine.analyze_stream({dataset_->images[2]}, {1})[0],
                   want[2]);
}

// ---- celldecode: SIC block rows as steal-loop tasks ----

/// A balanced engine (guarded with the production deadline when asked)
/// on its own machine.
struct BalancedRun {
  BalancedRun(const std::string& library, bool guarded, int spes = 8)
      : machine(sim::Machine::Config{spes}) {
    guard::GuardPolicy guard;
    guard.enabled = guarded;
    guard.retry.deadline_ns = 50e6;
    engine = std::make_unique<marvel::CellEngine>(
        machine, library, marvel::Scenario::kMultiSPE,
        kernels::kDoubleBuffer, false, guard);
    engine->set_balanced(true);
  }
  std::uint64_t counter(const char* name) {
    return machine.metrics().counter(name).value();
  }
  sim::Machine machine;
  std::unique_ptr<marvel::CellEngine> engine;
};

std::uint64_t block_rows(const std::vector<img::SicEncoded>& images) {
  std::uint64_t rows = 0;
  for (const auto& image : images) {
    rows += static_cast<std::uint64_t>((image.height + 7) / 8);
  }
  return rows;
}

TEST_F(Stream, BalancedStreamDecodesEveryBlockRowOnTheSpes) {
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);
  BalancedRun run(library_path(), /*guarded=*/true);
  std::vector<AnalysisResult> got =
      run.engine->analyze_stream(dataset_->images, {/*batch=*/4});
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_identical(got[i], want[i]);
  }
  EXPECT_EQ(run.counter("decode.spe_rows"), block_rows(dataset_->images));
  EXPECT_EQ(run.counter("decode.ppe_fallbacks"), 0u);
  // Decode tasks ride the steal loop with the fused tasks.
  EXPECT_EQ(run.counter("steal.tasks"),
            run.counter("steal.arms") + run.counter("steal.steals"));
  EXPECT_GT(run.counter("steal.tasks"), block_rows(dataset_->images));
}

TEST_F(Stream, MalformedCarrierFailsInTheScanBeforeAnyDecodeTask) {
  img::SicEncoded magic = dataset_->images[0];
  magic.bytes[0] = 'X';
  img::SicEncoded truncated = dataset_->images[0];
  truncated.bytes.resize(truncated.bytes.size() / 2);
  const std::vector<img::SicEncoded> bad = {
      magic, truncated,
      testutil::sic_with_tokens(8, 8, {0x80, 0x80, 0x80, 0x80, 0x80, 0x01}),
      testutil::sic_with_tokens(8, 8, {0x00, 64, 0x02, 0x00})};
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    std::string want;
    try {
      img::sic_decode(bad[i]);
    } catch (const IoError& e) {
      want = e.what();
    }
    ASSERT_FALSE(want.empty());
    BalancedRun run(library_path(), /*guarded=*/false);
    std::string got;
    try {
      run.engine->analyze(bad[i]);
    } catch (const IoError& e) {
      got = e.what();
    }
    EXPECT_EQ(got, want);
    // No SPE ever ran a task: the scan rejects the carrier first.
    for (int s = 0; s < run.machine.num_spes(); ++s) {
      EXPECT_EQ(run.machine.spe(s).busy_ns(), 0) << "spe" << s;
    }
    EXPECT_EQ(run.counter("decode.spe_rows"), 0u);
    // And the engine decodes the next carrier normally.
    expect_identical(run.engine->analyze(dataset_->images[0]),
                     per_call_reference(marvel::Scenario::kMultiSPE)[0]);
  }
}

TEST_F(Stream, GuardedHungLaneDecodesItsBlockRowsOnThePpe) {
  // kMultiSPE on 5 SPEs has no spare: the hung lane's first decode task
  // exhausts the guard and its block row decodes on the PPE mirror.
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);
  BalancedRun run(library_path(), /*guarded=*/true, /*spes=*/5);
  sim::FaultInjection hang;
  hang.hang_after = 0;
  hang.hang_sticky = true;
  hang.clears_on_restart = false;
  run.machine.spe(0).inject_fault(hang);
  std::vector<AnalysisResult> got =
      run.engine->analyze_stream(dataset_->images, {/*batch=*/4});
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_identical(got[i], want[i]);
  }
  ASSERT_FALSE(got[0].degraded.empty());
  EXPECT_EQ(got[0].degraded[0], "decode:rows");
  EXPECT_GE(run.counter("decode.ppe_fallbacks"), 1u);
  EXPECT_EQ(run.counter("decode.spe_rows") +
                run.counter("decode.ppe_fallbacks"),
            block_rows(dataset_->images));
  EXPECT_EQ(run.counter("guard.quarantined_spes"), 1u);
}

TEST_F(Stream, CarrierOverTheDecodeBudgetDecodesOnThePpe) {
  // The token rows of 960 pixels of white noise at quality 100 exceed
  // the decode kernel's LS budget: the balanced engine scans the
  // carrier, builds no task and decodes every block row on the PPE, with
  // the plain decode's results.
  const img::SicEncoded dense =
      img::sic_encode(testutil::noise_image(3, 960, 24), 100);
  sim::Machine machine;
  marvel::CellEngine plain(machine, library_path(),
                           marvel::Scenario::kMultiSPE);
  const AnalysisResult want = plain.analyze(dense);
  BalancedRun run(library_path(), /*guarded=*/true);
  expect_identical(run.engine->analyze(dense), want);
  EXPECT_TRUE(want.degraded.empty());
  EXPECT_EQ(run.counter("decode.ppe_images"), 1u);
  EXPECT_EQ(run.counter("decode.spe_rows"), 0u);
  EXPECT_EQ(run.counter("decode.ppe_fallbacks"), 0u);
  // The next carrier that fits goes to the SPEs again.
  expect_identical(run.engine->analyze(dataset_->images[0]),
                   per_call_reference(marvel::Scenario::kMultiSPE)[0]);
  EXPECT_GT(run.counter("decode.spe_rows"), 0u);
}

TEST_F(Stream, UnguardedDecodeTaskFaultLeavesTheEngineUsable) {
  // SPE 1's first task is a block-row decode of request 0; its third DMA
  // faults. The stream throws, every other task is collected, and the
  // same engine then streams bit-exactly.
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);
  BalancedRun run(library_path(), /*guarded=*/false);
  sim::FaultInjection f;
  f.dma_error_after = 2;
  run.machine.spe(1).inject_fault(f);
  EXPECT_THROW(run.engine->analyze_stream(dataset_->images, {4}),
               cellport::Error);
  EXPECT_EQ(run.counter("decode.spe_rows"), 0u);
  for (int again = 0; again < 2; ++again) {
    std::vector<AnalysisResult> got;
    ASSERT_NO_THROW(got = run.engine->analyze_stream(dataset_->images, {4}));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_identical(got[i], want[i]);
    }
  }
}

TEST_F(Stream, FreshRing16StreamsGiveEqualMailboxMetrics) {
  // Every mailbox series a bench artifact carries is simulated: two
  // fresh ring16 streams must agree on all of them (the functional
  // queue's high-water mark, in_max_depth, is host-timed and left out
  // of the artifacts).
  auto mailbox = [&] {
    sim::Machine machine;
    marvel::CellEngine engine(machine, library_path(),
                              marvel::Scenario::kMultiSPE);
    engine.analyze_stream(dataset_->images, {/*batch=*/16});
    sim::collect_metrics(machine, machine.metrics());
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [name, c] : machine.metrics().counters()) {
      if (name.find(".mbox.") != std::string::npos) {
        out.emplace_back(name, static_cast<double>(c->value()));
      }
    }
    for (const auto& [name, g] : machine.metrics().gauges()) {
      if (name.find(".mbox.") != std::string::npos &&
          !name.ends_with(".mbox.in_max_depth")) {
        out.emplace_back(name, g->value());
      }
    }
    return out;
  };
  const auto first = mailbox();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, mailbox());
}

TEST(TaskPoolBatch, BatchedSubmitMatchesLegacyWithFewerDoorbells) {
  constexpr int kTasks = 12;
  struct Run {
    std::vector<std::uint32_t> sums;
    sim::SimTime makespan_ns = 0;
    double doorbells = 0;
  };
  auto run = [&](int batch) {
    sim::Machine machine;
    std::vector<cellport::AlignedBuffer<std::uint8_t>> ins;
    std::vector<cellport::AlignedBuffer<std::uint32_t>> outs;
    std::vector<port::WrappedMessage<SumTaskMsg>> msgs(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      ins.emplace_back(64);
      outs.emplace_back(4);
      for (int i = 0; i < 64; ++i) {
        ins.back()[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(t + 1);
      }
      msgs[static_cast<std::size_t>(t)]->in_ea =
          reinterpret_cast<std::uint64_t>(ins.back().data());
      msgs[static_cast<std::size_t>(t)]->out_ea =
          reinterpret_cast<std::uint64_t>(outs.back().data());
    }
    Run r;
    {
      port::TaskPool pool(machine, 2);
      pool.set_dispatch_batch(batch);
      for (int t = 0; t < kTasks; ++t) {
        pool.submit(sum_task_module(), 1,
                    msgs[static_cast<std::size_t>(t)].ea());
      }
      pool.wait_all();
      for (int t = 0; t < kTasks; ++t) {
        EXPECT_FALSE(pool.task_failed(static_cast<std::size_t>(t)));
      }
      r.makespan_ns = pool.stats().makespan_ns;
    }
    for (int t = 0; t < kTasks; ++t) {
      r.sums.push_back(outs[static_cast<std::size_t>(t)][0]);
    }
    r.doorbells = machine.metrics().value("taskpool.doorbells");
    return r;
  };

  Run legacy = run(1);
  Run batched = run(4);
  ASSERT_EQ(legacy.sums.size(), batched.sums.size());
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(legacy.sums[static_cast<std::size_t>(t)],
              static_cast<std::uint32_t>(64 * (t + 1)));
    EXPECT_EQ(batched.sums[static_cast<std::size_t>(t)],
              legacy.sums[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(legacy.doorbells, 0.0);
  EXPECT_GT(batched.doorbells, 0.0);
  // 12 tasks over 2 workers in blocks of 4: three doorbells replace 48
  // mailbox words, so the batched run must not be slower.
  EXPECT_LE(batched.makespan_ns, legacy.makespan_ns);
}

TEST(TaskPoolBatch, RejectsBatchChangesWithWorkOutstanding) {
  sim::Machine machine;
  port::TaskPool pool(machine, 1);
  EXPECT_THROW(pool.set_dispatch_batch(0), ConfigError);
  EXPECT_THROW(pool.set_dispatch_batch(1000), ConfigError);
  pool.set_dispatch_batch(4);
  EXPECT_EQ(pool.dispatch_batch(), 4);
}

}  // namespace
}  // namespace cellport
