// cellbench per-layer measurements, taken from outside the program:
// (a) the counters the simulator and engines already keep plus the
//     probe::Attribution sink, read after a traced pass;
// (b) host timers around isolated replays of each layer's public
//     function on the workload's own inputs.
#pragma once

#include <string>
#include <vector>

#include "probe/attribution.h"
#include "trace/metrics.h"
#include "workloads.h"

namespace cellbench {

/// One named metric with its unit and clock: "sim" for values derived
/// from simulated Cell time or simulated counters (identical on every
/// run at a fixed seed), "host" for what the simulator costs to run.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;
};
using Metrics = std::vector<Metric>;

/// Attribution plus the per-request facts the aggregate drops: how many
/// requests spent any time in a guard retry or a PPE fallback.
class RequestSink : public cellport::probe::ProbeSink {
 public:
  void on_request(const cellport::probe::RequestTrace& rt) override;
  const cellport::probe::Attribution& attribution() const { return attr_; }
  std::size_t requests() const { return requests_; }
  std::size_t first_try() const { return first_try_; }

 private:
  cellport::probe::Attribution attr_;
  std::size_t requests_ = 0;
  std::size_t first_try_ = 0;
};

/// Layer metrics read from a finished traced pass on `sys`: simulator
/// counters (as deltas from `before`, a collect_metrics snapshot taken
/// just before the pass), engine counters, attribution phases, the
/// critical-kernel census, guard/steal/cache/serve tallies.
Metrics counter_metrics(System& sys, const Pass& pass,
                        const RequestSink& sink,
                        const cellport::trace::MetricsRegistry& before);

/// Host timers around isolated replays of each layer's public function
/// (codec decode, SPE kernels via SPEInterface::SendAndWait, SPU
/// intrinsics, mailbox and DMA, the model-library load) on the
/// workload's inputs, plus the simulated time of each kernel call.
Metrics replay_metrics(
    const std::vector<cellport::img::SicEncoded>& images,
    const std::vector<cellport::marvel::AnalysisResult>& expected,
    const std::string& library_path);

/// Table 1 fidelity: SingleSPE-vs-PPE kernel speed-ups on the paper's
/// 352x240 SIC set, as the absolute error against the published values
/// (the measured and published speed-ups are printed beside them).
Metrics fidelity_metrics(const std::string& library_path);

}  // namespace cellbench
