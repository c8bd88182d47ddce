// cellbench workloads: inputs from a seed, the system under test, one
// measured pass of each named workload through the public entry points
// (CellEngine::analyze, StreamEngine::run, ServeBroker::run), and the
// reference oracle that scores a pass.
//
// Every simulated quantity a pass produces is a pure function of the
// workload and the seed; host quantities are measured around it by the
// caller.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "img/codec.h"
#include "marvel/cell_engine.h"
#include "marvel/result.h"
#include "serve/request.h"
#include "sim/machine.h"

namespace cellbench {

enum class Workload { kStream, kPercall, kServe };

/// Parses a workload name ("stream", "percall", "serve"); throws
/// std::invalid_argument on anything else.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// The workload's requests, generated from `seed`.
std::vector<cellport::img::SicEncoded> make_inputs(Workload w,
                                                   std::uint64_t seed);

/// The reference oracle's answer for every request (ReferenceEngine on
/// the Cell PPE model, each distinct image scored once). This is the
/// benchmark's own cost and is never timed.
std::vector<cellport::marvel::AnalysisResult> reference_results(
    const std::vector<cellport::img::SicEncoded>& images,
    const std::string& library_path);

/// The system under test: a fresh machine and an engine with the
/// workload's knobs set (and, for `percall`, SPE 0 hung persistently).
struct System {
  std::unique_ptr<cellport::sim::Machine> machine;
  std::unique_ptr<cellport::marvel::CellEngine> engine;
};
System make_system(Workload w, const std::string& library_path);

/// What one request came back with.
struct Response {
  cellport::marvel::AnalysisResult result;
  /// The system reports a completed analysis (ok or degraded service).
  bool completed = false;
  /// A guard fallback or a serve ladder level shaped the result.
  bool degraded = false;
  /// Counted in the latency percentiles and throughput (false for the
  /// percall quarantine-discovery warm-up).
  bool sampled = true;
  /// Scores per feature the result carries (0 = every model): a serve
  /// ladder level returns the exact prefix of the full result.
  int scored_models = 0;
  double latency_ns = 0;
};

/// One pass: every field is deterministic for a fixed (workload, seed).
struct Pass {
  std::vector<Response> responses;
  /// Simulated time the sampled requests spanned (throughput base).
  double span_ns = 0;
  /// percall: simulated time of the quarantine-discovery request.
  double discovery_ns = 0;
  /// serve: broker tallies and per-request queue waits.
  cellport::serve::ServeStats serve;
  std::vector<double> queue_wait_ns;
};

/// Runs the workload once on `sys`.
Pass run_pass(Workload w, System& sys,
              const std::vector<cellport::img::SicEncoded>& images);

/// True when two passes agree in every simulated value and result.
bool same_pass(const Pass& a, const Pass& b);

/// A pass scored against the oracle.
struct Score {
  std::size_t attempted = 0;
  std::size_t completed = 0;   // completed AND matching the oracle
  std::size_t degraded = 0;
  std::size_t mismatches = 0;  // completed but wrong
  std::string first_mismatch;
  std::vector<double> latency_ns;  // sampled, correct completions
  std::size_t sampled_completed = 0;
};
Score score(const Pass& pass,
            const std::vector<cellport::marvel::AnalysisResult>& expected);

}  // namespace cellbench
