// cellsteal: the one work-stealing loop behind every balanced entry path.
//
// A balanced engine splits each image into more tile-aligned fused tasks
// than it has lanes (balance::split_tasks). Every entry path drives the
// same loop over them:
//
//   - CellEngine::analyze(): one owner (the image); push, drain.
//   - CellEngine::analyze_batch_pipelined(): one owner per image; the
//     push precedes the overlapped decode of the next image, the drain
//     follows it.
//   - StreamEngine's balanced pipeline: one owner per request; the queue
//     rolls across the stream, service() runs between decode slices and
//     each request drains on its own.
//
// A task is {opcode, owner, index}: the fused extraction of one row
// range (SPU_Run_Fused), or, for a SIC carrier, the decode of one block
// row (SPU_Run_Decode, celldecode). An owner's decode tasks are pushed
// and drained before its fused tasks are pushed, so they join the queue
// behind the previous owner's extraction.
//
// Each lane holds at most one task (Send/Finish). Whichever lane's task
// completes first takes the next one; every in-flight task's completion
// is peeked once (one MMIO charge) and cached until the task retires. A
// guarded task the guard gives up on drops to the caller's PPE mirror.
// A guarded lane that is stranded (its interface closed, no healthy
// candidate SPE to reopen on) gets no task while any other lane is
// live — it reads the guard's state, so a quarantine discovered by one
// call holds for every later call. When every lane is stranded, tasks
// still flow to them and each one fails straight to the PPE mirror.
//
// Reduction order is the caller's business (tasks in ascending row
// order), so results are bit-identical whichever lane ran which task.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "balance/steal.h"
#include "marvel/lane.h"
#include "probe/request_trace.h"
#include "sim/scalar_context.h"

namespace cellport::marvel {

class StealLoop {
 public:
  /// PPE mirror for task `task` of owner `owner`, called once the guard
  /// gave up on it.
  using Fallback = std::function<void(std::size_t owner, std::size_t task)>;

  /// `rt` receives the loop's spans (null: probing off). `lanes` (the
  /// engine's fused extraction lanes) must outlive the loop. `fallback`
  /// mirrors every task pushed without one of its own.
  StealLoop(sim::ScalarContext& ppe, probe::RequestTrace* rt,
            const std::vector<Lane>& lanes, Fallback fallback);
  /// Collects every task still on a lane (best effort: a kernel error is
  /// swallowed), so an aborted call leaves the lanes free for the next.
  ~StealLoop();

  StealLoop(const StealLoop&) = delete;
  StealLoop& operator=(const StealLoop&) = delete;

  /// Queues owner `owner`'s tasks behind the queued ones and arms every
  /// idle lane: task t runs `op` on message `eas[t]` (0: no task t).
  /// Owners are small consecutive indices. A non-null `fallback` mirrors
  /// these tasks instead of the loop's; it must stay alive until they
  /// are finished (drain(owner)) or collected (abandon()).
  void push(std::size_t owner, int op, std::span<const std::uint64_t> eas,
            const Fallback* fallback = nullptr);
  /// Finishes every lane whose task completed by the PPE's now, earliest
  /// first, re-issuing each.
  void service();
  /// Finishes every task of `owner`, letting live lanes finish earlier
  /// tasks of later owners on the way; a hung lane is waited only when
  /// it holds one of `owner`'s tasks. The wait is a `phase` span.
  void drain(std::size_t owner,
             probe::Phase phase = probe::Phase::kExtract);
  /// Collects every task still on a lane and drops it (best effort: a
  /// kernel error is swallowed): an aborted call frees the lanes, and
  /// the buffers the tasks read, before it propagates.
  void abandon();

  const balance::TaskQueue& queue() const { return q_; }
  /// Guard retries spent inside Finish() so far.
  std::size_t retries() const { return retries_; }

 private:
  struct Task {
    bool done = false;
    int op = 0;
    const Fallback* fallback = nullptr;
    std::size_t owner = 0;
    std::size_t index = 0;  // the owner's task number
    std::uint64_t ea = 0;
    sim::SimTime sent = 0;
  };

  bool stranded(std::size_t k) const;
  /// Hands every idle lane the next unissued task.
  void arm();
  /// Hands lane `k` the next unissued task, if any (the stranded-lane
  /// rule applies).
  void issue(std::size_t k);
  /// The cached completion stamp of lane `k`'s task (peeked once).
  sim::SimTime stamp(std::size_t k);
  /// The busy lane whose task completes earliest, no later than `by`
  /// (balance::pick_earliest: ties toward the lowest lane); a hung lane
  /// qualifies only while it holds a task of `owner`. kNone when no lane
  /// qualifies.
  std::size_t earliest(sim::SimTime by, std::size_t owner);
  /// Collects lane `k`'s task (guard verdict, PPE mirror on give-up).
  void finish(std::size_t k);

  sim::ScalarContext& ppe_;
  probe::RequestTrace* rt_;
  const std::vector<Lane>& lanes_;
  Fallback fallback_;
  balance::TaskQueue q_;
  /// Queue index i is tasks_[i - base_]; finished tasks at the front are
  /// dropped, so a long stream keeps only the tasks still in play.
  Task& task(std::size_t i) { return tasks_[i - base_]; }
  /// Marks queue index `i` finished and drops the finished front.
  void retire(std::size_t i);

  std::deque<Task> tasks_;
  std::size_t base_ = 0;
  std::vector<sim::SimTime> stamp_;  // per lane: cached peek (< 0: none)
  std::vector<sim::SimTime> peeks_;  // per lane: earliest()'s argmin input
  std::vector<std::size_t> left_;    // per owner: unfinished tasks
  std::size_t retries_ = 0;
};

}  // namespace cellport::marvel
