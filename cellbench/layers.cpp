#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "img/codec.h"
#include "img/ppm.h"
#include "kernels/cc_kernel.h"
#include "kernels/cd_kernel.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_kernel.h"
#include "kernels/messages.h"
#include "kernels/tx_kernel.h"
#include "learn/model_store.h"
#include "marvel/dataset.h"
#include "marvel/reference_engine.h"
#include "port/dispatcher.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "sim/calibration.h"
#include "sim/core_model.h"
#include "sim/mailbox.h"
#include "sim/report.h"
#include "sim/spu_mfcio.h"
#include "spu/spu.h"
#include "support/aligned.h"
#include "support/stats.h"

namespace cellbench {

using namespace cellport;

namespace {

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Keeps `v` observable so a timed loop is not folded away.
template <typename T>
void keep(T const& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- (a) counters and attribution ----

struct PhaseName {
  probe::Phase phase;
  const char* name;
};
constexpr PhaseName kPhases[] = {
    {probe::Phase::kDecode, "decode"},
    {probe::Phase::kFeedDma, "feed_dma"},
    {probe::Phase::kPrepare, "prepare"},
    {probe::Phase::kDispatch, "dispatch"},
    {probe::Phase::kExtract, "extract"},
    {probe::Phase::kReduce, "reduce"},
    {probe::Phase::kDetect, "detect"},
    {probe::Phase::kOutput, "output"},
    {probe::Phase::kGuardRetry, "guard_retry"},
    {probe::Phase::kFallback, "fallback"},
    {probe::Phase::kServeQueue, "serve_queue"},
    {probe::Phase::kSteal, "steal"},
    {probe::Phase::kCache, "cache"},
    {probe::Phase::kOther, "other"},
};

/// Phases in which the PPE waits on something else: the SPEs, the
/// guard's retry deadline, or the broker's queue.
bool is_wait(probe::Phase p) {
  return p == probe::Phase::kFeedDma || p == probe::Phase::kExtract ||
         p == probe::Phase::kDetect || p == probe::Phase::kGuardRetry ||
         p == probe::Phase::kServeQueue;
}

constexpr const char* kKernels[] = {"ch", "cc", "tx", "eh",
                                    "cd", "feed", "fused"};

/// Kernel family of a critical-path SPE span label ("fused[2]",
/// "task[0.3]", "cd[1]:texture", "color_histogram[0]", ...).
std::string kernel_family(const std::string& label) {
  auto starts = [&](const char* p) { return label.rfind(p, 0) == 0; };
  if (starts("feed")) return "feed";
  if (starts("fused") || starts("task")) return "fused";
  if (starts("cd")) return "cd";
  if (starts("color_histogram")) return "ch";
  if (starts("color_correlogram")) return "cc";
  if (starts("texture")) return "tx";
  if (starts("edge_histogram")) return "eh";
  return "other";
}

}  // namespace

void RequestSink::on_request(const probe::RequestTrace& rt) {
  attr_.on_request(rt);
  ++requests_;
  const auto ex = rt.exclusive_ns();
  auto time_in = [&](probe::Phase p) {
    auto it = ex.find(p);
    return it == ex.end() ? 0.0 : it->second;
  };
  if (time_in(probe::Phase::kGuardRetry) == 0 &&
      time_in(probe::Phase::kFallback) == 0) {
    ++first_try_;
  }
}

Metrics counter_metrics(System& sys, const Pass& pass,
                        const RequestSink& sink,
                        const trace::MetricsRegistry& before) {
  sim::Machine& m = *sys.machine;
  trace::MetricsRegistry& after = m.metrics();
  sim::collect_metrics(m, after);
  auto delta = [&](const std::string& name) {
    return after.value(name) - before.value(name);
  };
  const double n = static_cast<double>(pass.responses.size());
  const double elapsed = delta("ppe.elapsed_ns");
  Metrics out;

  const probe::Attribution& attr = sink.attribution();
  double busy_ns = 0;
  for (const PhaseName& p : kPhases) {
    auto it = attr.phase_ns().find(p.phase);
    const double ns = it == attr.phase_ns().end() ? 0.0 : it->second;
    if (!is_wait(p.phase)) busy_ns += ns;
    out.push_back({std::string("marvel.phase.") + p.name + "_us",
                   ratio(ns, n) / 1e3, "us", "sim"});
  }
  out.push_back({"marvel.ppe_busy_share", ratio(busy_ns, attr.covered_ns()),
                 "share", "sim"});

  std::map<std::string, double> critical;
  for (const auto& [label, count] : attr.critical_kernels()) {
    critical[kernel_family(label)] += static_cast<double>(count);
  }
  for (const char* k : kKernels) {
    out.push_back({std::string("kernels.critical.") + k, critical[k],
                   "count", "sim"});
  }

  double slack_max = 0, busy_max = 0, stall = 0, bytes = 0, mbox_max = 0,
         mbox = 0, idle_max = 0;
  for (int i = 0; i < m.num_spes(); ++i) {
    const std::string p = "spe" + std::to_string(i);
    const double busy = delta(p + ".busy_ns");
    slack_max = std::max(slack_max, after.value(p + ".pipe.slack_share"));
    busy_max = std::max(busy_max, ratio(busy, elapsed));
    stall += delta(p + ".dma.stall_ns");
    bytes += delta(p + ".dma.bytes");
    const double writes = delta(p + ".mbox.in_writes");
    mbox += writes;
    mbox_max = std::max(mbox_max, writes);
    const bool dead = sys.engine->health() != nullptr &&
                      sys.engine->health()->quarantined(i);
    if (busy > 0 && !dead) {
      idle_max = std::max(idle_max, 1.0 - ratio(busy, elapsed));
    }
  }
  out.push_back({"spu.pipe.slack_share.max", slack_max, "share", "sim"});
  out.push_back({"sim.spe_busy_share.max", busy_max, "share", "sim"});
  out.push_back({"sim.dma.stall_ns", ratio(stall, n), "ns", "sim"});
  out.push_back({"sim.dma.bytes", ratio(bytes, n), "bytes", "sim"});
  out.push_back({"sim.eib.utilization",
                 ratio(delta("eib.bytes"), sim::calib::kEibPeakBytesPerNs * elapsed),
                 "share",
                 "sim"});
  out.push_back({"sim.mbox.in_writes", ratio(mbox_max, n), "count", "sim"});
  out.push_back({"port.doorbells_per_image", ratio(mbox, n), "count",
                 "sim"});

  out.push_back({"shard.reduces", after.value("shard.reduces"), "count",
                 "sim"});
  for (const char* g : {"retries", "timeouts", "ppe_fallbacks",
                        "quarantined_spes"}) {
    out.push_back({std::string("guard.") + g,
                   after.value(std::string("guard.") + g), "count", "sim"});
  }
  out.push_back({"guard.first_try_share",
                 ratio(static_cast<double>(sink.first_try()),
                       static_cast<double>(sink.requests())),
                 "share", "sim"});
  out.push_back({"guard.discovery_ms", pass.discovery_ns / 1e6, "ms", "sim"});

  out.push_back({"steal.steal_share",
                 ratio(after.value("steal.steals"), after.value("steal.tasks")),
                 "share", "sim"});
  out.push_back({"balance.live_idle_share.max", idle_max, "share", "sim"});
  const double hits = after.value("cache.hits");
  out.push_back({"cache.hit_share",
                 ratio(hits, hits + after.value("cache.misses")), "share",
                 "sim"});
  out.push_back({"cache.evictions", after.value("cache.evictions"), "count",
                 "sim"});

  out.push_back({"serve.queue_wait_p50_ms",
                 percentile(pass.queue_wait_ns, 50) / 1e6, "ms", "sim"});
  out.push_back({"serve.queue_wait_p90_ms",
                 percentile(pass.queue_wait_ns, 90) / 1e6, "ms", "sim"});
  out.push_back({"serve.max_degrade_level",
                 static_cast<double>(pass.serve.max_degrade_level), "level",
                 "sim"});
  out.push_back({"serve.degraded", static_cast<double>(pass.serve.degraded),
                 "count", "sim"});
  out.push_back({"serve.shed", static_cast<double>(pass.serve.shed), "count",
                 "sim"});
  out.push_back({"serve.cycles", static_cast<double>(pass.serve.cycles),
                 "count", "sim"});
  out.push_back({"learn.sim_startup_ms",
                 static_cast<double>(sys.engine->startup_ns()) / 1e6, "ms",
                 "sim"});
  return out;
}

// ---- (b) isolated replays ----

namespace {

constexpr std::size_t kKernelImages = 8;  // replayed per kernel
constexpr int kDmaGets = 256;
constexpr std::uint32_t kDmaBytes = 16 * 1024;
constexpr std::uint32_t kOpNop = 1;
constexpr std::uint32_t kOpDma = 2;

/// A stand-alone replay module: an empty call (the port round trip) and
/// a call that issues kDmaGets blocking DMA gets (the MFC path).
port::KernelModule& replay_module() {
  static port::KernelModule mod("cellbench_replay", 1024);
  static const bool init = [] {
    mod.add_function(kOpNop, +[](std::uint64_t) { return 0; });
    mod.add_function(kOpDma, +[](std::uint64_t ea) {
      void* ls = sim::spu_ls_alloc(kDmaBytes, 128);
      for (int i = 0; i < kDmaGets; ++i) {
        sim::mfc_get(ls, ea, kDmaBytes, 0);
        sim::mfc_write_tag_mask(1u);
        sim::mfc_read_tag_status_all();
      }
      return 0;
    });
    return true;
  }();
  (void)init;
  return mod;
}

/// Host seconds per iteration of `body`, repeated until ~`budget_s`.
template <typename F>
double per_iter_s(double budget_s, int batch, F&& body) {
  long iters = 0;
  const double t0 = host_now_s();
  double t = t0;
  do {
    for (int i = 0; i < batch; ++i) body();
    iters += batch;
    t = host_now_s();
  } while (t - t0 < budget_s);
  return (t - t0) / static_cast<double>(iters);
}

/// Simulated and host time of one SendAndWait, summed into a row.
struct KernelRow {
  double sim_ns = 0;
  double host_s = 0;
};

void timed_call(port::SPEInterface& iface, sim::Machine& m, std::uint32_t op,
                std::uint64_t ea, KernelRow* row) {
  const double s0 = m.ppe().now_ns();
  const double h0 = host_now_s();
  iface.SendAndWait(static_cast<int>(op), ea);
  row->host_s += host_now_s() - h0;
  row->sim_ns += m.ppe().now_ns() - s0;
}

struct Detector {
  cellport::AlignedBuffer<kernels::DetectModelDesc> descs;
  cellport::AlignedBuffer<double> scores;
  int models = 0;
};

Detector make_detector(const learn::ConceptModelSet& set) {
  Detector d;
  d.models = static_cast<int>(set.models.size());
  d.descs = cellport::AlignedBuffer<kernels::DetectModelDesc>(
      set.models.size());
  for (std::size_t i = 0; i < set.models.size(); ++i) {
    const learn::SvmModel& model = set.models[i];
    kernels::DetectModelDesc& desc = d.descs[i];
    desc.sv_ea = reinterpret_cast<std::uint64_t>(model.sv_data());
    desc.coef_ea = reinterpret_cast<std::uint64_t>(model.coef().data());
    desc.num_sv = model.num_sv();
    desc.sv_stride = model.sv_stride();
    desc.gamma = model.gamma();
    desc.rho = model.rho();
    desc.kernel_type = static_cast<std::int32_t>(model.kernel());
  }
  d.scores = cellport::AlignedBuffer<double>(
      cellport::round_up(set.models.size(), std::size_t{2}));
  return d;
}

Metrics kernel_replays(const std::vector<img::SicEncoded>& images,
                       const std::vector<marvel::AnalysisResult>& expected,
                       const learn::MarvelModels& models) {
  sim::Machine m;
  port::SPEInterface ch(kernels::ch_module());
  port::SPEInterface cc(kernels::cc_module());
  port::SPEInterface tx(kernels::tx_module());
  port::SPEInterface eh(kernels::eh_module());
  port::SPEInterface cd(kernels::cd_module());
  struct Extract {
    const char* name;
    port::SPEInterface* iface;
    int dim;
  };
  const Extract extracts[] = {{"ch", &ch, features::kColorHistogramDim},
                              {"cc", &cc, features::kColorCorrelogramDim},
                              {"tx", &tx, features::kTextureDim},
                              {"eh", &eh, features::kEdgeHistogramDim}};
  const learn::ConceptModelSet* sets[] = {
      &models.color_histogram, &models.color_correlogram, &models.texture,
      &models.edge_histogram};
  Detector detectors[4] = {make_detector(*sets[0]), make_detector(*sets[1]),
                           make_detector(*sets[2]), make_detector(*sets[3])};
  std::map<std::string, KernelRow> rows;

  const std::size_t count = std::min(kKernelImages, images.size());
  for (std::size_t i = 0; i < count; ++i) {
    const img::RgbImage pixels = img::sic_decode(images[i]);
    const marvel::AnalysisResult& want = expected[i];
    const features::FeatureVector* fvs[] = {
        &want.color_histogram, &want.color_correlogram, &want.texture,
        &want.edge_histogram};
    for (int k = 0; k < 4; ++k) {
      const Extract& e = extracts[k];
      cellport::AlignedBuffer<float> outbuf(
          cellport::round_up(static_cast<std::size_t>(e.dim), std::size_t{4}));
      port::WrappedMessage<kernels::ImageMsg> msg;
      msg->pixels_ea = reinterpret_cast<std::uint64_t>(pixels.data());
      msg->width = pixels.width();
      msg->height = pixels.height();
      msg->stride = pixels.stride();
      msg->buffering = kernels::kDoubleBuffer;
      msg->out_ea = reinterpret_cast<std::uint64_t>(outbuf.data());
      msg->out_count = e.dim;
      timed_call(*e.iface, m, kernels::SPU_Run, msg.ea(), &rows[e.name]);

      // Detection scores the oracle's feature vector for this modality.
      const features::FeatureVector& fv = *fvs[k];
      cellport::AlignedBuffer<float> feature(
          cellport::round_up(fv.dim(), std::size_t{4}));
      std::copy(fv.values.begin(), fv.values.end(), feature.data());
      port::WrappedMessage<kernels::DetectMsg> dmsg;
      dmsg->feature_ea = reinterpret_cast<std::uint64_t>(feature.data());
      dmsg->dim = static_cast<std::int32_t>(fv.dim());
      dmsg->num_models = detectors[k].models;
      dmsg->models_ea =
          reinterpret_cast<std::uint64_t>(detectors[k].descs.data());
      dmsg->scores_ea =
          reinterpret_cast<std::uint64_t>(detectors[k].scores.data());
      dmsg->buffering = kernels::kDoubleBuffer;
      timed_call(cd, m, kernels::SPU_Run, dmsg.ea(), &rows["cd"]);
    }

    // One fused pass over the whole frame.
    cellport::AlignedBuffer<std::uint8_t> blob(cellport::round_up(
        static_cast<std::size_t>(kernels::fused_partial_bytes(
            pixels.width(), pixels.height(), 0, pixels.height())),
        std::size_t{16}));
    port::WrappedMessage<kernels::ImageMsg> fmsg;
    fmsg->pixels_ea = reinterpret_cast<std::uint64_t>(pixels.data());
    fmsg->width = pixels.width();
    fmsg->height = pixels.height();
    fmsg->stride = pixels.stride();
    fmsg->buffering = kernels::kTripleBuffer;
    fmsg->out_ea = reinterpret_cast<std::uint64_t>(blob.data());
    timed_call(ch, m, kernels::SPU_Run_Fused, fmsg.ea(), &rows["fused"]);

    // SPE ingest of the frame as a P6 carrier.
    const img::SicEncoded carrier =
        img::is_ppm(images[i]) ? images[i] : img::ppm_encode(pixels);
    const img::PpmHeader hdr =
        img::parse_p6_header(carrier.bytes.data(), carrier.bytes.size());
    img::RgbImage dst(hdr.width, hdr.height);
    port::WrappedMessage<kernels::FeedMsg> feed;
    feed->src_ea =
        reinterpret_cast<std::uint64_t>(carrier.bytes.data() + hdr.pixel_offset);
    feed->dst_ea = reinterpret_cast<std::uint64_t>(dst.data());
    feed->width = hdr.width;
    feed->height = hdr.height;
    feed->dst_stride = dst.stride();
    feed->buffering = kernels::kTripleBuffer;
    feed->row_begin = 0;
    feed->row_end = hdr.height;
    timed_call(ch, m, kernels::SPU_Run_Feed, feed.ea(), &rows["feed"]);
  }

  Metrics out;
  for (const char* k : kKernels) {
    const KernelRow& r = rows[k];
    out.push_back({std::string("kernels.") + k + ".sim_us",
                   ratio(r.sim_ns, static_cast<double>(count)) / 1e3, "us",
                   "sim"});
    out.push_back({std::string("kernels.") + k + ".host_ms",
                   ratio(r.host_s, static_cast<double>(count)) * 1e3, "ms",
                   "host"});
  }
  return out;
}

}  // namespace

Metrics replay_metrics(const std::vector<img::SicEncoded>& images,
                       const std::vector<marvel::AnalysisResult>& expected,
                       const std::string& library_path) {
  Metrics out;

  // img: the PPE decode of every request's carrier (SIC, or P6 via the
  // strict shared parser), charged like the engine's decode path.
  {
    sim::ScalarContext ppe(sim::cell_ppe());
    const double t0 = host_now_s();
    for (const img::SicEncoded& enc : images) keep(img::sic_decode(enc, &ppe));
    out.push_back({"img.host_ms.decode",
                   ratio(host_now_s() - t0, static_cast<double>(images.size())) *
                       1e3,
                   "ms", "host"});
  }

  const double t_load = host_now_s();
  const learn::MarvelModels models = learn::load_library(library_path);
  out.push_back({"learn.host_load_ms", (host_now_s() - t_load) * 1e3, "ms",
                 "host"});

  Metrics kernels = kernel_replays(images, expected, models);
  out.insert(out.end(), kernels.begin(), kernels.end());

  // spu: the two intrinsics every kernel leans on.
  {
    auto a = spu::spu_splats<spu::vec_float4>(1.5f);
    auto b = spu::spu_splats<spu::vec_float4>(0.5f);
    auto c = spu::spu_splats<spu::vec_float4>(0.25f);
    const double madd = per_iter_s(0.1, 4096, [&] {
      keep(spu::spu_madd(a, b, c));
    });
    auto x = spu::spu_splats<spu::vec_uchar16>(3);
    auto y = spu::spu_splats<spu::vec_uchar16>(7);
    spu::vec_uchar16 pat;
    for (unsigned i = 0; i < 16; ++i) {
      pat.v[i] = static_cast<std::uint8_t>(31 - i);
    }
    const double shuffle = per_iter_s(0.1, 4096, [&] {
      keep(spu::spu_shuffle(x, y, pat));
    });
    out.push_back({"spu.host_ns.shuffle", shuffle * 1e9, "ns", "host"});
    out.push_back({"spu.host_ns.madd", madd * 1e9, "ns", "host"});
  }

  // sim + port: mailbox round trip, blocking DMA gets on an SPE, and
  // the stub protocol's empty call.
  {
    sim::Mailbox mb("cellbench", 4);
    const double rtt = per_iter_s(0.1, 1024, [&] {
      mb.write(42, 0.0);
      keep(mb.read());
    });
    out.push_back({"sim.host_us.mailbox_rtt", rtt * 1e6, "us", "host"});

    sim::Machine m(sim::Machine::Config{1});
    port::SPEInterface iface(replay_module());
    cellport::AlignedBuffer<std::uint8_t> src(kDmaBytes);
    std::memset(src.data(), 7, kDmaBytes);
    const double dma = per_iter_s(0.2, 1, [&] {
      iface.SendAndWait(static_cast<int>(kOpDma),
                        reinterpret_cast<std::uint64_t>(src.data()));
    });
    out.push_back({"sim.host_us.dma_get", dma / kDmaGets * 1e6, "us",
                   "host"});
    const double call = per_iter_s(0.1, 64, [&] {
      iface.SendAndWait(static_cast<int>(kOpNop), 0);
    });
    out.push_back({"port.host_us.send_and_wait", call * 1e6, "us", "host"});
  }
  return out;
}

Metrics fidelity_metrics(const std::string& library_path) {
  struct Row {
    const char* name;
    const char* phase;
    double paper_speedup;  // Table 1
  };
  constexpr Row kRows[] = {
      {"ch", marvel::kPhaseCh, 53.67}, {"cc", marvel::kPhaseCc, 52.23},
      {"tx", marvel::kPhaseTx, 15.99}, {"eh", marvel::kPhaseEh, 65.94},
      {"cd", marvel::kPhaseCd, 10.80},
  };
  const marvel::Dataset paper_set = marvel::make_dataset(5);
  marvel::ReferenceEngine ppe(sim::cell_ppe(), library_path);
  for (const auto& image : paper_set.images) ppe.analyze(image);
  sim::Machine m;
  marvel::CellEngine cell(m, library_path, marvel::Scenario::kSingleSPE);
  for (const auto& image : paper_set.images) cell.analyze(image);

  auto phase_ns = [](port::Profiler& prof, const char* name) {
    for (const auto& rec : prof.report()) {
      if (rec.name == name) return rec.exclusive_ns;
    }
    return 0.0;
  };
  Metrics out;
  for (const Row& r : kRows) {
    const double speedup = ratio(phase_ns(ppe.profiler(), r.phase),
                                 phase_ns(cell.profiler(), r.phase));
    std::printf("fidelity %s: %.2fx simulated vs %.2fx published\n", r.name,
                speedup, r.paper_speedup);
    out.push_back({std::string("fidelity.") + r.name + ".speedup_err_pct",
                   100.0 * std::abs(speedup - r.paper_speedup) /
                       r.paper_speedup,
                   "%", "sim"});
  }
  return out;
}

}  // namespace cellbench
