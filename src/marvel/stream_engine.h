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
//
// StreamEngine keeps no per-image state or per-strategy code of its own:
// it holds CellEngine working sets (one per request in flight) and is
// the command-ring transport over their kernel-call lists — the lists
// analyze() sends over the mailbox — plus the window and per-request
// schedules. Results are bit-exact with per-call analyze() on every path.
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
  using Work = CellEngine::Work;
  using KernelCall = CellEngine::KernelCall;
  /// One of a working set's call lists (Work::extract or Work::detect).
  using CallList = std::vector<KernelCall> Work::*;
  /// The working sets one ring window (or one pipelined request)
  /// carries, in request order.
  using Window = std::vector<Work*>;

  /// Arms (or re-arms after a guard migration) a ring of >= `cap` slots;
  /// null when the guarded interface is currently closed.
  port::SPEInterface* ensure_ring(port::SPEInterface* iface,
                                  std::uint32_t cap);

  /// The working sets of window `w` of a `total`-request queue.
  Window window(std::size_t w, std::size_t total);

  /// The shared streaming loop behind run() and drain().
  std::vector<AnalysisResult> run_queue(
      const std::vector<const img::SicEncoded*>& images);
  /// The window loop (per-feature, sharded and fused engines).
  void run_windows(const std::vector<const img::SicEncoded*>& images,
                   std::vector<AnalysisResult>* out);
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

  // ---- the ring transport over the engine's call lists ----
  /// The distinct lanes the window's `list` rides (only slot `slot`'s
  /// calls when >= 0), in list order.
  std::vector<const Lane*> lanes(const Window& win, CallList list,
                                 int slot = -1) const;
  /// Enqueues every call of the window's `list` that rides `lane`
  /// (request-major, list order) behind ONE doorbell, on a ring sized for
  /// `windows` windows in flight. A lane the window gives no call stays
  /// unarmed: arming costs the SPE a descriptor fetch nobody waits for.
  void flush(const Window& win, CallList list, const Lane& lane,
             std::uint32_t windows);
  /// Collects the batch flush() rang on `lane`; each call the ring lost
  /// re-runs alone through the engine's guard-call helper (same label
  /// and PPE mirror as the mailbox transport).
  void wait(const Window& win, CallList list, const Lane& lane);
  /// Merges the window's partials, then runs its detection calls lane
  /// by lane (flush, wait) and concatenates kSharded model blocks.
  void run_detect(const Window& win);
  /// Copies the window's results out, in request order, and stamps each
  /// request's completion.
  void collect_window(const Window& win, std::vector<AnalysisResult>* out);

  // ---- cellflow: the per-request balanced pipeline ----
  /// Streams `images` through the rolling task queue (see the header
  /// comment); appends one result per image to `out`, in order.
  void run_balanced(const std::vector<const img::SicEncoded*>& images,
                    std::vector<AnalysisResult>* out);
  Work& request_buf(std::size_t r);

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
  /// The engine's working sets, one per request in flight: 2 x batch
  /// (pipelined windows), batch (sequential windows), 2 or 1 (balanced
  /// pipeline), each scoring at most opts_.max_models models per slot.
  /// Each decode reuses its buffer's pixel storage, so after the largest
  /// shape has passed a stream allocates no image memory.
  std::vector<std::unique_ptr<Work>> bufs_;
  /// Incremental-admission state (submit/drain/close).
  std::vector<const img::SicEncoded*> pending_;
  std::vector<RequestEnd> ends_;
  std::vector<sim::SimTime> completions_;
  bool closed_ = false;
};

}  // namespace cellport::marvel
