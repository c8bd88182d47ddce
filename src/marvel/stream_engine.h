// cellstream: the streaming throughput engine behind
// CellEngine::analyze_stream().
//
// Where analyze() pays the stub protocol per call (one mailbox
// round-trip per kernel invocation), StreamEngine admits a queue of
// encoded images and drives every scheduled SPE through its DMA-resident
// command ring: a window of `batch` requests is enqueued with plain
// stores and doorbelled with ONE mailbox word, and the SPE dispatcher
// overlaps each request's output DMA with the next request's input DMA.
// In the unguarded parallel scenarios two windows are kept in flight per
// ring — the PPE decodes window w+1 while the SPEs extract window w — so
// the rings stay non-empty and the protocol cost amortizes to ~1/batch
// of a per-call run.
//
// cellflow: balanced engines (guarded or not) pipeline per REQUEST
// instead. One task queue rolls across the whole stream; while the SPE
// lanes extract request i, the PPE decodes request i+1 and, between its
// decode slices, finishes every lane whose task is already done and
// hands it the next task — stealing into request i+1's tasks once they
// are queued. Request i retires (reduce, detect, collect, completion
// stamp) as soon as its own tasks finish, not at the end of a window.
// celldecode: request i+1's SIC block rows decode as tasks in the same
// queue (behind request i's extraction), so the PPE keeps only the disk
// read, the Huffman pass and the token scan of each request.
// Results are bit-exact with per-call analyze() on every path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "marvel/cell_engine.h"

namespace cellport::marvel {

class StreamEngine {
 public:
  /// Borrows `engine`'s SPE placement (rings are armed lazily on its
  /// interfaces). `opts.batch` must be 1..128.
  StreamEngine(CellEngine& engine, const StreamOptions& opts);

  /// Streams the queue through the engine; one AnalysisResult per image,
  /// in order, bit-exact with per-call analyze().
  std::vector<AnalysisResult> run(const std::vector<img::SicEncoded>& images);

  /// Terminal state of one submitted request. A request is kPending from
  /// submit() until the drain() that services it (kCompleted) or the
  /// close() that cancels it (kCancelled) — close() never discards a
  /// queued-but-unstarted request silently.
  enum class RequestEnd : std::uint8_t { kPending, kCompleted, kCancelled };

  /// cellserve: incremental admission. Queues one encoded image for the
  /// next drain() and returns its request index. The caller keeps the
  /// image alive until that drain. Throws after close().
  std::size_t submit(const img::SicEncoded& image);
  /// Services every queued request in submit order (same schedule run()
  /// would charge for the same queue) and marks them kCompleted.
  std::vector<AnalysisResult> drain();
  /// Early shutdown: marks every queued-but-unstarted request
  /// kCancelled (counted in stats().cancelled and the stream.cancelled
  /// metric) and returns the terminal state of EVERY submitted request,
  /// in submit order. Idempotent; submit() after close() throws.
  std::vector<RequestEnd> close();

  const StreamStats& stats() const { return stats_; }
  /// Per-request terminal states so far (index = submit order).
  const std::vector<RequestEnd>& request_ends() const { return ends_; }
  /// Simulated completion time of each request of the last run()/drain():
  /// its own collect time on a balanced engine (requests retire one by
  /// one, in order), the collect time of its window otherwise (windows
  /// retire in order). With the engine's content cache enabled, a hit
  /// completes at its up-front lookup instead, so the stamps are NOT
  /// necessarily non-decreasing when hits and misses interleave.
  /// Index-aligned with the returned results.
  const std::vector<sim::SimTime>& completion_ns() const {
    return completions_;
  }

 private:
  /// Per-image working set: the kernels of different in-flight images
  /// must not share output buffers, so each window slot carries its own
  /// messages and result areas (the model descriptors stay shared,
  /// read-only, with the engine).
  struct SlotBuf {
    port::WrappedMessage<kernels::ImageMsg> msg;
    cellport::AlignedBuffer<float> out;
    port::WrappedMessage<kernels::DetectMsg> detect_msg;
    cellport::AlignedBuffer<double> scores;
    // cellshard (kSharded only): per-shard messages and raw-partial
    // buffers, plus per-model-block detection staging — each in-flight
    // image reduces its own partials, so nothing is shared between
    // windows. `shard_rows` is recomputed per image in prepare_window.
    std::vector<port::WrappedMessage<kernels::ImageMsg>> shard_msgs;
    std::vector<cellport::AlignedBuffer<std::uint8_t>> shard_parts;
    std::vector<shard::Range> shard_rows;
    std::vector<port::WrappedMessage<kernels::DetectMsg>> block_msgs;
    std::vector<cellport::AlignedBuffer<double>> block_scores;
  };
  struct PerImage {
    img::RgbImage pixels;
    std::vector<std::string> degraded;
    SlotBuf sb[4];
    // cellfuse (engine_.fused()): per-lane single-pass messages, partial
    // blobs, and row ranges — each in-flight image reduces its own lane
    // blobs, like the shard partials above.
    std::vector<port::WrappedMessage<kernels::ImageMsg>> fused_msgs;
    std::vector<cellport::AlignedBuffer<std::uint8_t>> fused_parts;
    std::vector<shard::Range> fused_rows;
  };

  /// The images one ring window (or one pipelined request) carries, in
  /// request order.
  using Window = std::vector<PerImage*>;

  /// Arms (or re-arms after a guard migration) a ring of >= `cap` slots;
  /// null when the guarded interface is currently closed.
  port::SPEInterface* ensure_ring(port::SPEInterface* iface,
                                  std::uint32_t cap);

  /// The buffers of window `w` of a `total`-request queue.
  Window window(std::size_t w, std::size_t total);

  /// The shared streaming loop behind run() and drain().
  std::vector<AnalysisResult> run_queue(
      const std::vector<const img::SicEncoded*>& images);
  /// The window loop (per-feature, sharded and fused engines).
  void run_windows(const std::vector<const img::SicEncoded*>& images,
                   std::vector<AnalysisResult>* out);
  /// Decodes one image into `pi` and fills its messages (the PPE-side
  /// work that overlaps in-flight extraction in the pipelined flows).
  /// `between_slices` runs between the PPE decode slices; with `loop`, a
  /// SIC carrier's block rows decode as owner `owner`'s tasks on it.
  void prepare_image(PerImage& pi, const img::SicEncoded& image,
                     const std::function<void()>& between_slices = {},
                     StealLoop* loop = nullptr, std::size_t owner = 0);
  int flush_ring(port::SPEInterface* iface);
  /// Collects every batch still in flight on the engine's rings (best
  /// effort): an aborted window stream's teardown.
  void abandon_rings();
  /// Collects the oldest in-flight batch of `n` requests on `iface` and
  /// re-runs request i through `rerun(i)` when the ring could not
  /// deliver it: every request on a missed batch deadline or a closed
  /// (null) guarded interface, just the faulted ones otherwise (a fault
  /// on an unguarded ring throws).
  template <typename Rerun>
  void wait_batch(port::SPEInterface* iface, std::size_t n,
                  const char* stage, const Rerun& rerun);
  /// Enqueues + doorbells the window's requests for slot `s`'s extract
  /// ring (one doorbell).
  void flush_extract_slot(const Window& win, int s);
  /// Waits slot `s`'s extract batch for the window and resolves
  /// per-request faults.
  void wait_extract_slot(const Window& win, int s);
  /// Merges fused/balanced blobs or shard partials, then runs the
  /// window's detection batch(es) and resolves faults.
  void run_detect(const Window& win);

  // ---- cellshard flows (kSharded only) ----
  /// Enqueues + doorbells the window's requests on every shard ring of
  /// slot `s` (one doorbell per shard).
  void flush_shard_slot(const Window& win, int s);
  /// Waits slot `s`'s shard rings for the window; a faulted request is
  /// re-run alone, dropping to the PPE mirror partial when the guard
  /// gives up.
  void wait_shard_slot(const Window& win, int s);
  /// Merges every image's raw partials into its feature buffers (between
  /// the extract wait and detection).
  void reduce_window(const Window& win);
  /// Block-parallel detection over the shard detection rings.
  void run_detect_sharded(const Window& win);
  void rerun_shard(int s, int k, PerImage& pi);
  void rerun_detect_block(int s, int b, PerImage& pi);

  // ---- cellfuse flows (engine_.fused() only) ----
  /// Enqueues + doorbells the window's requests on every fused lane ring
  /// (one doorbell per lane); extraction rides the lanes instead of the
  /// per-feature slots.
  void flush_fused_window(const Window& win);
  /// Waits every lane ring for the window; a faulted request is re-run
  /// alone, dropping to the PPE mirror partials when the guard gives up.
  void wait_fused_window(const Window& win);
  /// Merges every image's lane (or task) blob sections into its four
  /// feature buffers (between the extract wait and detection).
  void reduce_fused_window(const Window& win);
  void rerun_fused_lane(std::size_t k, PerImage& pi);
  /// PPE mirror for fused range `k` of `pi` (a lane's or a task's), into
  /// the four sections of its blob, after the guard gave up.
  void fallback_fused_range(PerImage& pi, std::size_t k,
                            const std::string& label);
  void collect_window(const Window& win, std::vector<AnalysisResult>* out);

  // ---- cellflow: the per-request balanced pipeline ----
  /// Streams `images` through the rolling task queue (see the header
  /// comment); appends one result per image to `out`, in order.
  void run_balanced(const std::vector<const img::SicEncoded*>& images,
                    std::vector<AnalysisResult>* out);
  PerImage& request_buf(std::size_t r);

  // Per-request recovery (guarded engine): re-run just the affected
  // request through the guard's retry loop, dropping to the PPE
  // reference path when it gives up.
  void rerun_extract(int s, PerImage& pi);
  void rerun_detect(int s, PerImage& pi);
  void fallback_extract(int s, PerImage& pi);
  void fallback_detect(int s, PerImage& pi);
  void note_degraded(const char* stage, int s, PerImage& pi);
  [[noreturn]] void throw_ring_fault(const char* stage,
                                     port::SPEInterface* iface);

  CellEngine& engine_;
  StreamOptions opts_;
  StreamStats stats_;
  /// When true (unguarded parallel window flows) two windows are in
  /// flight per extract ring; the guarded and single-SPE window flows
  /// retire each window before the next doorbell.
  bool pipelined_ = false;
  /// Balanced engines: decode request i+1 while request i extracts.
  bool decode_ahead_ = false;
  sim::SimTime guard_deadline_ns_ = 0;
  /// Per-image buffers, one per request in flight: 2 x batch (pipelined
  /// windows), batch (sequential windows), 2 or 1 (balanced pipeline).
  /// Each decode reuses its buffer's pixel storage, so after the largest
  /// shape has passed a stream allocates no image memory.
  std::vector<std::unique_ptr<PerImage>> bufs_;
  /// kSharded: slot s's detection model blocks (fixed per engine — they
  /// depend only on the model count and the plan's detect_spes).
  std::vector<shard::Range> cd_blocks_[4];
  /// Models actually scored per slot (opts_.max_models clamp; the full
  /// set when the knob is 0).
  int scored_models_[4] = {0, 0, 0, 0};
  /// Incremental-admission state (submit/drain/close).
  std::vector<const img::SicEncoded*> pending_;
  std::vector<RequestEnd> ends_;
  std::vector<sim::SimTime> completions_;
  bool closed_ = false;
};

}  // namespace cellport::marvel
