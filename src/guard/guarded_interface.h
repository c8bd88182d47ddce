// GuardedInterface: a supervised SPEInterface.
//
// Wraps one kernel module's SPE call path with the cellguard policy:
// per-call simulated-time deadlines, bounded exponential backoff, retry
// on a *different* SPE when one is available, a single context restart
// before quarantine, and a clean "no healthy SPE" verdict the caller
// (marvel::CellEngine) turns into a PPE fallback. The Send/Finish split
// mirrors SPEInterface's so the engine's parallel scenarios keep their
// overlap structure — a fault-free guarded run charges exactly what an
// unguarded run charges.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "guard/health.h"
#include "guard/policy.h"
#include "port/spe_interface.h"

namespace cellport::guard {

class GuardedInterface {
 public:
  /// Opens `module` on `primary_spe`. `alternates` are the spare SPEs a
  /// retry may migrate to (often empty: every SPE pinned); the primary
  /// itself is always a candidate.
  GuardedInterface(SpeHealth& health, const port::KernelModule& module,
                   int primary_spe, std::vector<int> alternates = {});
  ~GuardedInterface();

  GuardedInterface(const GuardedInterface&) = delete;
  GuardedInterface& operator=(const GuardedInterface&) = delete;

  struct Result {
    bool ok = false;
    int value = 0;
    int attempts = 0;
    std::string error;
  };

  /// Asynchronous half: sends the command (re-opening on a healthy SPE
  /// first if the interface was lost). A send with no healthy SPE left
  /// is recorded and surfaces as a failed Finish().
  void Send(int opcode, std::uint64_t ea);

  /// Collects the pending call, running the retry/restart/quarantine
  /// loop on fault or timeout. Never throws for kernel faults or
  /// deadline misses — they are verdicts, not exceptions.
  Result Finish();

  /// Synchronous guarded call.
  Result Call(int opcode, std::uint64_t ea) {
    Send(opcode, ea);
    return Finish();
  }

  /// The SPE currently hosting the module; -1 when none (all candidates
  /// quarantined or busy).
  int spe() const { return spe_; }

  /// cellbalance: the delivery timestamp of the pending call's completion
  /// (sim::kNeverNs when the send found no healthy SPE — such a lane can
  /// never deliver and must lose every steal argmin). Non-consuming and
  /// clock-safe like SPEInterface::peek_completion_ns; Finish() later
  /// resolves the call, including the retry/fallback verdict.
  sim::SimTime peek_ns();

  /// Statistics passthrough for the engine (pipe counters, DMA traffic).
  /// Null when the interface is currently closed.
  port::SPEInterface* iface() { return iface_.get(); }

  /// True when the interface is closed and no candidate SPE could host
  /// the module again: a Send() now fails straight to the PPE fallback.
  bool stranded() const {
    return iface_ == nullptr && health_.pick(candidates_, -1) < 0;
  }

 private:
  void open_on(int spe);
  void close_current();
  /// Fault bookkeeping + possible restart; returns false when no healthy
  /// SPE remains to retry on.
  bool recover();

  SpeHealth& health_;
  const port::KernelModule* module_;
  std::vector<int> candidates_;
  std::unique_ptr<port::SPEInterface> iface_;
  int spe_ = -1;
  int pending_opcode_ = 0;
  std::uint64_t pending_ea_ = 0;
  bool pending_ = false;
};

}  // namespace cellport::guard
