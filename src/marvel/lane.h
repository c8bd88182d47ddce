// Lane: one SPE placement the engine schedules a kernel call on.
//
// The paper puts every kernel behind one SPEInterface stub so the PPE
// flow stays one program whichever SPE runs the kernel. A Lane extends
// that to the guard: the engine opens each placement once, either as a
// plain SPEInterface or behind a cellguard GuardedInterface, and every
// schedule drives both through send()/finish(). Guarding is the lane's
// completion policy, not a second copy of the schedule:
//
//   - guarded: finish() runs the guard's retry loop, records the retry
//     interval, and runs the caller's PPE mirror when the guard gives up;
//   - plain: finish() waits; a kernel fault first collects every other
//     call still in flight, then propagates, so the engine stays usable.
//
// A command ring that loses a guarded call (a missed batch deadline, a
// faulted request, a closed interface) re-runs it alone through call(),
// under the same label and PPE mirror finish() would use.
//
// Non-owning: the engine owns the interfaces behind its lanes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "guard/guarded_interface.h"
#include "port/spe_interface.h"
#include "probe/request_trace.h"
#include "sim/scalar_context.h"
#include "support/error.h"

namespace cellport::marvel {

struct Lane {
  port::SPEInterface* iface = nullptr;    // plain placement
  guard::GuardedInterface* gi = nullptr;  // guarded placement

  void send(int op, std::uint64_t ea) const {
    if (gi != nullptr) {
      gi->Send(op, ea);
    } else {
      iface->Send(op, ea);
    }
  }

  /// The pending call's delivery timestamp, non-consuming (sim::kNeverNs
  /// for a guarded send that found no healthy SPE).
  sim::SimTime peek() const {
    return gi != nullptr ? gi->peek_ns() : iface->peek_completion_ns();
  }

  /// A guarded lane whose interface is closed with no healthy SPE left
  /// to reopen on: a send now fails straight to the PPE mirror.
  bool stranded() const { return gi != nullptr && gi->stranded(); }

  /// The interface command rings are armed on; null while a guarded
  /// lane is closed.
  port::SPEInterface* ring() const {
    return gi != nullptr ? gi->iface() : iface;
  }

  /// Collects the pending call and returns the guard retries it took.
  /// Guarded: a call that needed more than one attempt lands in `rt` as
  /// a kGuardRetry span named `label()`, and `mirror()` recomputes the
  /// call's output on the PPE when the guard gives up. Plain: a kernel
  /// fault first collects every call still pending on `pending` (best
  /// effort), then propagates.
  template <typename Label, typename Mirror>
  int finish(sim::ScalarContext& ppe, probe::RequestTrace* rt,
             const Label& label, const Mirror& mirror,
             std::span<const Lane> pending = {}) const {
    if (gi == nullptr) {
      try {
        iface->Wait();
      } catch (const cellport::Error&) {
        for (const Lane& other : pending) other.abandon();
        throw;
      }
      return 0;
    }
    const sim::SimTime t0 = ppe.now_ns();
    const guard::GuardedInterface::Result r = gi->Finish();
    if (r.attempts > 1 && rt != nullptr) {
      rt->add_closed(probe::Phase::kGuardRetry, label(), t0, ppe.now_ns());
    }
    if (!r.ok) mirror();
    return std::max(r.attempts - 1, 0);
  }

  /// Runs one call a command ring lost, alone, through the guard's retry
  /// loop (guarded lanes only). The interval lands in `rt` as a
  /// kGuardRetry span named `label()`; `mirror()` recomputes the call's
  /// output on the PPE when the guard gives up.
  template <typename Label, typename Mirror>
  void call(sim::ScalarContext& ppe, probe::RequestTrace* rt, int op,
            std::uint64_t ea, const Label& label,
            const Mirror& mirror) const {
    const sim::SimTime t0 = ppe.now_ns();
    const guard::GuardedInterface::Result r = gi->Call(op, ea);
    if (rt != nullptr) {
      rt->add_closed(probe::Phase::kGuardRetry, label(), t0, ppe.now_ns());
    }
    if (!r.ok) mirror();
  }

  /// Two lanes are the same placement when they share an interface (the
  /// slots of a shared detection SPE hold copies of one lane).
  friend bool operator==(const Lane&, const Lane&) = default;

  /// Collects a pending call and drops its verdict (best effort: a
  /// kernel error is swallowed). Teardown after an aborted schedule.
  void abandon() const {
    if (gi != nullptr) {
      gi->Finish();
    } else if (iface != nullptr && iface->busy()) {
      try {
        iface->Wait();
      } catch (const cellport::Error&) {
      }
    }
  }
};

}  // namespace cellport::marvel
