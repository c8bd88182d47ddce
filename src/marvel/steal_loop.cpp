#include "marvel/steal_loop.h"

#include <limits>
#include <string>
#include <utility>

#include "kernels/messages.h"
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

StealLoop::~StealLoop() { abandon(); }

void StealLoop::abandon() {
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (!q_.busy(k)) continue;
    lanes_[k].abandon();
    const std::size_t i = q_.task_of(k);
    --left_[task(i).owner];
    q_.complete(k);
    retire(i);
  }
}

void StealLoop::retire(std::size_t i) {
  task(i).done = true;
  while (!tasks_.empty() && tasks_.front().done) {
    tasks_.pop_front();
    ++base_;
  }
}

void StealLoop::push(std::size_t owner, int op,
                     std::span<const std::uint64_t> eas,
                     const Fallback* fallback) {
  probe::ProbeSpan span(rt_, probe::Phase::kDispatch, ppe_, "issue");
  std::size_t n = 0;
  for (std::size_t t = 0; t < eas.size(); ++t) {
    if (eas[t] == 0) continue;
    tasks_.push_back(
        {false, op, fallback != nullptr ? fallback : &fallback_, owner, t,
         eas[t], 0});
    ++n;
  }
  q_.add(n);
  if (left_.size() <= owner) left_.resize(owner + 1, 0);
  left_[owner] += n;
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
  Task& t = task(i);
  t.sent = ppe_.now_ns();
  stamp_[k] = -1;
  lanes_[k].send(t.op, t.ea);
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
        ts >= sim::kNeverNs && task(q_.task_of(k)).owner != owner;
    peeks_[k] = ts > by || hung_elsewhere ? kBarred : ts;
  }
  const std::size_t k = balance::pick_earliest(peeks_, q_);
  return k != balance::TaskQueue::kNone && peeks_[k] < kBarred
             ? k
             : balance::TaskQueue::kNone;
}

void StealLoop::finish(std::size_t k) {
  const std::size_t i = q_.task_of(k);
  const Task& task = this->task(i);
  const bool probed = rt_ != nullptr;
  const bool decode = task.op == static_cast<int>(kernels::SPU_Run_Decode);
  const std::string tag =
      probed ? (decode ? "decode[" : "task[") + std::to_string(task.owner) +
                   "." + std::to_string(task.index) + "]"
             : std::string();
  // A plain kernel fault propagates; the destructor collects the rest.
  retries_ += static_cast<std::size_t>(lanes_[k].finish(
      ppe_, rt_, [&] { return tag; },
      [&] { (*task.fallback)(task.owner, task.index); }));
  if (probed) {
    rt_->add_spe_span(
        decode ? probe::Phase::kFeedDma : probe::Phase::kExtract, tag,
        task.sent, ppe_.now_ns());
  }
  q_.complete(k);
  --left_[task.owner];
  retire(i);
}

void StealLoop::service() {
  for (;;) {
    const std::size_t k = earliest(ppe_.now_ns(), balance::TaskQueue::kNone);
    if (k == balance::TaskQueue::kNone) return;
    finish(k);
    issue(k);
  }
}

void StealLoop::drain(std::size_t owner, probe::Phase phase) {
  probe::ProbeSpan span(rt_, phase, ppe_, "drain");
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
