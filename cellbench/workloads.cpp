#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>
#include <thread>

#include "balance/digest.h"
#include "check/oracle.h"
#include "marvel/dataset.h"
#include "marvel/reference_engine.h"
#include "marvel/stream_engine.h"
#include "serve/broker.h"
#include "sim/core_model.h"

namespace cellbench {

using namespace cellport;

namespace {

// Sizing (see README.md for why each workload exists). The request
// counts give p90 at least ten samples beyond it; the stream queue is
// several ring windows long so window overlap is exercised.
constexpr int kStreamBatch = 64;
constexpr int kStreamImages = 3 * kStreamBatch;
constexpr int kPercallImages = 1 + 110;  // discovery warm-up + samples
constexpr int kServeRequests = 144;
constexpr double kServeDupFraction = 0.3;
constexpr std::uint64_t kServeShapeSeed = 2007;
constexpr sim::SimTime kServeInterarrivalNs = 500'000;  // 2,000 req/s
constexpr sim::SimTime kServeDeadlineNs = 20'000'000;
constexpr sim::SimTime kGuardDeadlineNs = 50'000'000;
constexpr std::size_t kCacheBytes = 8u << 20;
constexpr std::size_t kOracleThreads = 3;

guard::GuardPolicy guarded() {
  guard::GuardPolicy g;
  g.enabled = true;
  g.retry.deadline_ns = kGuardDeadlineNs;
  return g;
}

/// For each image, the index of its first byte-identical copy.
std::vector<std::size_t> first_copies(
    const std::vector<img::SicEncoded>& images) {
  std::vector<std::size_t> first(images.size());
  std::map<std::uint64_t, std::size_t> seen;  // digest -> first index
  for (std::size_t i = 0; i < images.size(); ++i) {
    const std::vector<std::uint8_t>& b = images[i].bytes;
    auto [it, fresh] = seen.emplace(balance::fnv1a64(b.data(), b.size()), i);
    const std::vector<std::uint8_t>& a = images[it->second].bytes;
    first[i] = !fresh && a.size() == b.size() &&
                       std::memcmp(a.data(), b.data(), b.size()) == 0
                   ? it->second
                   : i;
  }
  return first;
}

Pass run_stream(System& sys, const std::vector<img::SicEncoded>& images) {
  Pass p;
  sim::Machine& m = *sys.machine;
  marvel::StreamOptions opts;
  opts.batch = kStreamBatch;
  marvel::StreamEngine stream(*sys.engine, opts);
  const double t0 = m.ppe().now_ns();
  std::vector<marvel::AnalysisResult> out = stream.run(images);
  p.span_ns = m.ppe().now_ns() - t0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    Response r;
    r.completed = true;  // run() services the whole queue
    r.degraded = !out[i].degraded.empty();
    r.latency_ns = stream.completion_ns()[i] - t0;
    r.result = std::move(out[i]);
    p.responses.push_back(std::move(r));
  }
  return p;
}

Pass run_percall(System& sys, const std::vector<img::SicEncoded>& images) {
  Pass p;
  sim::ScalarContext& ppe = sys.machine->ppe();
  double first_sampled = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    const double t0 = ppe.now_ns();
    if (i == 1) first_sampled = t0;
    Response r;
    r.result = sys.engine->analyze(images[i]);
    r.latency_ns = ppe.now_ns() - t0;
    r.completed = true;
    r.degraded = !r.result.degraded.empty();
    r.sampled = i > 0;
    if (i == 0) p.discovery_ns = r.latency_ns;  // reported, not sampled
    p.responses.push_back(std::move(r));
  }
  p.span_ns = ppe.now_ns() - first_sampled;
  return p;
}

Pass run_serve(System& sys, const std::vector<img::SicEncoded>& images) {
  Pass p;
  serve::ServeConfig cfg;
  cfg.tenants.push_back({"alpha", 1, 64});
  cfg.tenants.push_back({"beta", 1, 64});
  cfg.batch = 4;
  cfg.cycle_windows = 1;
  cfg.global_budget = 16;
  cfg.default_deadline_ns = kServeDeadlineNs;

  // Arrivals are absolute simulated stamps at a fixed rate from the
  // clock after engine construction, so the generator is never late.
  const sim::SimTime base = sys.machine->ppe().now_ns();
  std::vector<serve::ServeRequest> reqs(images.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].tenant = static_cast<int>(i % 2);
    reqs[i].priority = static_cast<serve::Priority>(i % 3);
    reqs[i].image = images[i];
    reqs[i].arrival_ns =
        base + static_cast<sim::SimTime>(i) * kServeInterarrivalNs;
  }
  serve::ServeBroker broker(*sys.engine, std::move(cfg));
  std::vector<serve::ServeResponse> out = broker.run(std::move(reqs));
  p.serve = broker.stats();
  sim::SimTime last_done = base;
  for (serve::ServeResponse& sr : out) {
    Response r;
    r.completed = sr.served && (sr.status == serve::ServeStatus::kOk ||
                                sr.status == serve::ServeStatus::kDegraded);
    r.degraded = sr.status == serve::ServeStatus::kDegraded ||
                 (sr.served && !sr.result.degraded.empty());
    r.scored_models = broker.level_max_models(sr.degrade_level);
    r.latency_ns = static_cast<double>(sr.latency_ns());  // from due stamp
    if (r.completed) last_done = std::max(last_done, sr.done_ns);
    p.queue_wait_ns.push_back(static_cast<double>(sr.queue_wait_ns()));
    r.result = std::move(sr.result);
    p.responses.push_back(std::move(r));
  }
  p.span_ns = static_cast<double>(last_done - base);
  return p;
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "stream") return Workload::kStream;
  if (name == "percall") return Workload::kPercall;
  if (name == "serve") return Workload::kServe;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected stream, percall or serve)");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kStream: return "stream";
    case Workload::kPercall: return "percall";
    case Workload::kServe: return "serve";
  }
  return "?";
}

std::vector<img::SicEncoded> make_inputs(Workload w, std::uint64_t seed) {
  switch (w) {
    case Workload::kStream:
      return marvel::make_mixed_size_dataset(kStreamImages, seed).images;
    case Workload::kPercall:
      return marvel::make_mixed_size_ppm_dataset(kPercallImages, seed).images;
    case Workload::kServe: {
      // The traffic shape -- which requests repeat which earlier upload
      // -- is the one the reference seed gives; the run's seed varies
      // the content. Near capacity, queueing amplifies any change in
      // the cache-hit pattern, so a seed-dependent shape would swamp
      // the service-time changes this workload exists to show.
      const std::vector<std::size_t> copy_of =
          first_copies(marvel::make_mixed_size_ppm_dataset(
                           kServeRequests, kServeShapeSeed, kServeDupFraction)
                           .images);
      std::vector<img::SicEncoded> images =
          marvel::make_mixed_size_ppm_dataset(kServeRequests, seed).images;
      for (std::size_t i = 0; i < images.size(); ++i) {
        images[i] = images[copy_of[i]];
      }
      return images;
    }
  }
  throw std::logic_error("unreachable workload");
}

std::vector<marvel::AnalysisResult> reference_results(
    const std::vector<img::SicEncoded>& images,
    const std::string& library_path) {
  const std::vector<std::size_t> source = first_copies(images);
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < source.size(); ++i) {
    if (source[i] == i) distinct.push_back(i);
  }
  std::vector<marvel::AnalysisResult> expected(images.size());
  const std::size_t workers = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kOracleThreads);
  std::vector<std::exception_ptr> errors(workers);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back([&, t] {
        try {
          marvel::ReferenceEngine ref(sim::cell_ppe(), library_path);
          for (std::size_t k = t; k < distinct.size(); k += workers) {
            expected[distinct[k]] = ref.analyze(images[distinct[k]]);
          }
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (source[i] != i) expected[i] = expected[source[i]];
  }
  return expected;
}

System make_system(Workload w, const std::string& library_path) {
  System sys;
  sys.machine = std::make_unique<sim::Machine>();
  switch (w) {
    case Workload::kStream:
      sys.engine = std::make_unique<marvel::CellEngine>(
          *sys.machine, library_path, marvel::Scenario::kMultiSPE,
          kernels::kDoubleBuffer, false, guarded());
      sys.engine->set_balanced(true);
      break;
    case Workload::kPercall: {
      sim::FaultInjection hang;
      hang.hang_after = 0;
      hang.hang_sticky = true;
      hang.clears_on_restart = false;
      sys.machine->spe(0).inject_fault(hang);
      sys.engine = std::make_unique<marvel::CellEngine>(
          *sys.machine, library_path, marvel::Scenario::kSharded,
          kernels::kDoubleBuffer, false, guarded());
      sys.engine->set_balanced(true);
      sys.engine->set_feed(true);
      break;
    }
    case Workload::kServe:
      sys.engine = std::make_unique<marvel::CellEngine>(
          *sys.machine, library_path, marvel::Scenario::kSharded);
      sys.engine->set_fused(true);
      sys.engine->set_feed(true);
      break;
  }
  sys.engine->set_cache(kCacheBytes);
  return sys;
}

Pass run_pass(Workload w, System& sys,
              const std::vector<img::SicEncoded>& images) {
  switch (w) {
    case Workload::kStream: return run_stream(sys, images);
    case Workload::kPercall: return run_percall(sys, images);
    case Workload::kServe: return run_serve(sys, images);
  }
  throw std::logic_error("unreachable workload");
}

bool same_pass(const Pass& a, const Pass& b) {
  if (a.responses.size() != b.responses.size() || a.span_ns != b.span_ns ||
      a.discovery_ns != b.discovery_ns ||
      a.queue_wait_ns != b.queue_wait_ns) {
    return false;
  }
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const Response& x = a.responses[i];
    const Response& y = b.responses[i];
    if (x.completed != y.completed || x.degraded != y.degraded ||
        x.scored_models != y.scored_models || x.latency_ns != y.latency_ns ||
        check::canonical_result_json(x.result) !=
            check::canonical_result_json(y.result)) {
      return false;
    }
  }
  return true;
}

Score score(const Pass& pass,
            const std::vector<marvel::AnalysisResult>& expected) {
  Score s;
  s.attempted = pass.responses.size();
  for (std::size_t i = 0; i < pass.responses.size(); ++i) {
    const Response& r = pass.responses[i];
    if (r.degraded) ++s.degraded;
    if (!r.completed) continue;
    marvel::AnalysisResult want = expected.at(i);
    if (r.scored_models > 0) {
      const auto n = static_cast<std::size_t>(r.scored_models);
      for (auto* d : {&want.ch_detect, &want.cc_detect, &want.tx_detect,
                      &want.eh_detect}) {
        if (d->values.size() > n) d->values.resize(n);
      }
    }
    const std::string err = check::compare_results(r.result, want);
    if (!err.empty()) {
      if (s.mismatches++ == 0) {
        s.first_mismatch = "request " + std::to_string(i) + ": " + err;
      }
      continue;
    }
    ++s.completed;
    if (r.sampled) {
      s.latency_ns.push_back(r.latency_ns);
      ++s.sampled_completed;
    }
  }
  return s;
}

}  // namespace cellbench
