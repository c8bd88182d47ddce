#include "marvel/steal_loop.h"

#include <limits>
#include <string>
#include <utility>

#include "support/error.h"

namespace cellport::marvel {

StealLoop::StealLoop(sim::ScalarContext& ppe, probe::RequestTrace* rt,
                     const std::vector<Lane>& lanes, Fallback fallback)
    : ppe_(ppe),
      rt_(rt),
      lanes_(lanes),
      fallback_(std::move(fallback)),
      q_(0, lanes_.size()),
      stamp_(lanes_.size(), -1),
      peeks_(lanes_.size(), 0) {}

StealLoop::~StealLoop() {
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (q_.busy(k)) lanes_[k].abandon();
  }
}

void StealLoop::push(
    std::size_t owner, const std::vector<shard::Range>& rows,
    const std::vector<port::WrappedMessage<kernels::ImageMsg>>& msgs) {
  probe::ProbeSpan span(rt_, probe::Phase::kDispatch, ppe_, "issue");
  std::size_t n = 0;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (rows[t].empty()) continue;
    tasks_.push_back({owner, t, msgs[t].ea(), 0});
    ++n;
  }
  q_.add(n);
  if (left_.size() <= owner) left_.resize(owner + 1, 0);
  left_[owner] = n;
  arm();
}

bool StealLoop::stranded(std::size_t k) const {
  return lanes_[k].stranded();
}

void StealLoop::arm() {
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (!q_.busy(k)) issue(k);
  }
}

void StealLoop::issue(std::size_t k) {
  if (stranded(k)) {
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      if (!stranded(j)) return;  // live lanes take this lane's share
    }
  }
  const std::size_t i = q_.issue(k);
  if (i == balance::TaskQueue::kNone) return;
  tasks_[i].sent = ppe_.now_ns();
  stamp_[k] = -1;
  lanes_[k].send(static_cast<int>(kernels::SPU_Run_Fused), tasks_[i].ea);
}

sim::SimTime StealLoop::stamp(std::size_t k) {
  if (stamp_[k] < 0) {
    // Non-destructive: a hung or stranded lane reports kNeverNs.
    probe::ProbeSpan span(rt_, probe::Phase::kSteal, ppe_, "peek");
    stamp_[k] = lanes_[k].peek();
  }
  return stamp_[k];
}

std::size_t StealLoop::earliest(sim::SimTime by, std::size_t owner) {
  // A lane that may not go now peeks as +inf, so it loses the argmin to
  // every lane that may.
  constexpr sim::SimTime kBarred =
      std::numeric_limits<sim::SimTime>::infinity();
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (!q_.busy(k)) continue;
    const sim::SimTime ts = stamp(k);
    const bool hung_elsewhere =
        ts >= sim::kNeverNs && tasks_[q_.task_of(k)].owner != owner;
    peeks_[k] = ts > by || hung_elsewhere ? kBarred : ts;
  }
  const std::size_t k = balance::pick_earliest(peeks_, q_);
  return k != balance::TaskQueue::kNone && peeks_[k] < kBarred
             ? k
             : balance::TaskQueue::kNone;
}

void StealLoop::finish(std::size_t k) {
  const Task& task = tasks_[q_.task_of(k)];
  const bool probed = rt_ != nullptr;
  const std::string tag =
      probed ? "task[" + std::to_string(task.owner) + "." +
                   std::to_string(task.index) + "]"
             : std::string();
  // A plain kernel fault propagates; the destructor collects the rest.
  retries_ += static_cast<std::size_t>(lanes_[k].finish(
      ppe_, rt_, [&] { return tag; },
      [&] { fallback_(task.owner, task.index); }));
  if (probed) {
    rt_->add_spe_span(probe::Phase::kExtract, tag, task.sent, ppe_.now_ns());
  }
  q_.complete(k);
  --left_[task.owner];
}

void StealLoop::service() {
  for (;;) {
    const std::size_t k = earliest(ppe_.now_ns(), balance::TaskQueue::kNone);
    if (k == balance::TaskQueue::kNone) return;
    finish(k);
    issue(k);
  }
}

void StealLoop::drain(std::size_t owner) {
  probe::ProbeSpan span(rt_, probe::Phase::kExtract, ppe_, "drain");
  while (left_[owner] > 0) {
    std::size_t k = earliest(sim::kNeverNs, owner);
    if (k == balance::TaskQueue::kNone) {
      // Only reachable when a stranded lane refused a task while the
      // live lane that should take it sat idle: arm the idle lanes.
      arm();
      k = earliest(sim::kNeverNs, owner);
      if (k == balance::TaskQueue::kNone) {
        throw cellport::Error("StealLoop: no lane holds a pending task");
      }
    }
    finish(k);
    issue(k);
  }
}

}  // namespace cellport::marvel
