#include "marvel/cell_engine.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "balance/digest.h"
#include "balance/steal.h"
#include "features/color_correlogram.h"
#include "features/color_histogram.h"
#include "features/edge_histogram.h"
#include "features/texture.h"
#include "kernels/cc_kernel.h"
#include "kernels/cd_kernel.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_kernel.h"
#include "kernels/tx_kernel.h"
#include "shard/mirror.h"
#include "shard/reducer.h"
#include "support/error.h"

namespace cellport::marvel {

namespace {

/// Feature output buffers are padded to 8 floats so every kernel's
/// (16-byte-granular) result DMA fits.
std::size_t padded_dim(int dim) {
  return cellport::round_up(static_cast<std::size_t>(dim), 8);
}

}  // namespace

CellEngine::CellEngine(sim::Machine& machine,
                       const std::string& library_path, Scenario scenario,
                       kernels::BufferingDepth buffering, bool use_naive,
                       guard::GuardPolicy guard)
    : machine_(machine),
      scenario_(scenario),
      buffering_(buffering),
      use_naive_(use_naive),
      profiler_(machine.ppe()),
      guard_(guard) {
  images_counter_ = &machine_.metrics().counter("marvel.images_analyzed");
  feed_images_counter_ = &machine_.metrics().counter("feed.images");
  feed_rows_counter_ = &machine_.metrics().counter("feed.rows");
  feed_fallback_counter_ =
      &machine_.metrics().counter("feed.ppe_fallbacks");
  fuse_images_counter_ = &machine_.metrics().counter("fuse.images");
  {
    // One-time overhead: the model library load, on the PPE.
    port::Profiler::Scope probe(profiler_, kPhaseStartup);
    sim::SimTime t0 = machine_.ppe().now_ns();
    models_ = learn::load_library(library_path, &machine_.ppe());
    startup_ns_ = machine_.ppe().now_ns() - t0;
  }

  const struct {
    port::KernelModule& (*module)();
    const char* phase;
    int dim;
    const learn::ConceptModelSet* set;
    const char* name;
    features::FeatureVector (*ref)(const img::RgbImage&,
                                   sim::ScalarContext*);
  } config[4] = {
      {&kernels::ch_module, kPhaseCh, features::kColorHistogramDim,
       &models_.color_histogram, "color_histogram",
       &features::extract_color_histogram},
      {&kernels::cc_module, kPhaseCc, features::kColorCorrelogramDim,
       &models_.color_correlogram, "color_correlogram",
       &features::extract_color_correlogram},
      {&kernels::tx_module, kPhaseTx, features::kTextureDim,
       &models_.texture, "texture", &features::extract_texture},
      {&kernels::eh_module, kPhaseEh, features::kEdgeHistogramDim,
       &models_.edge_histogram, "edge_histogram",
       &features::extract_edge_histogram},
  };

  // cellshard: choose the shard plan for this machine shape up front so
  // guarded and unguarded engines pin the same placement.
  if (scenario_ == Scenario::kSharded) {
    plan_ = shard::plan_shards(machine_.num_spes());
    auto& metrics = machine_.metrics();
    metrics.gauge("shard.plan.ch").set(plan_.extract_shards[shard::kSlotCh]);
    metrics.gauge("shard.plan.cc").set(plan_.extract_shards[shard::kSlotCc]);
    metrics.gauge("shard.plan.tx").set(plan_.extract_shards[shard::kSlotTx]);
    metrics.gauge("shard.plan.eh").set(plan_.extract_shards[shard::kSlotEh]);
    metrics.gauge("shard.plan.cd").set(plan_.detect_spes);
    shard_reduce_counter_ = &metrics.counter("shard.reduces");
    // cellfuse: the fused lane/detect split for the same machine shape
    // (consulted only when set_fused(true); lanes ride the extract-shard
    // SPEs pinned below, capped at this count).
    fused_plan_ = shard::plan_fused(machine_.num_spes());
    metrics.gauge("shard.plan.fused_lanes").set(fused_plan_.lanes);
    metrics.gauge("shard.plan.fused_cd").set(fused_plan_.detect_spes);
  }

  // Static schedule: one resident kernel per SPE (Section 3.3), opened
  // once as lanes. A guarded engine opens the same placement behind
  // GuardedInterfaces; any SPE beyond the pinned set becomes a shared
  // spare retries may migrate to.
  std::vector<int> spares;
  if (guard_.enabled) {
    health_ = std::make_unique<guard::SpeHealth>(machine_, guard_.retry);
    fallback_counter_ = &machine_.metrics().counter("guard.ppe_fallbacks");
    int pinned = scenario_ == Scenario::kMultiSPE2 ? 8
                 : scenario_ == Scenario::kSharded ? plan_.spes_used()
                                                   : 5;
    for (int s = pinned; s < machine_.num_spes(); ++s) spares.push_back(s);
  }
  auto open = [&](const port::KernelModule& module, int spe) {
    Lane lane;
    if (guard_.enabled) {
      guards_.push_back(std::make_unique<guard::GuardedInterface>(
          *health_, module, spe, spares));
      lane.gi = guards_.back().get();
    } else {
      ifaces_.push_back(std::make_unique<port::SPEInterface>(module, spe));
      lane.iface = ifaces_.back().get();
    }
    lanes_.push_back(lane);
    return lane;
  };
  if (scenario_ == Scenario::kSharded) {
    int spe = 0;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < plan_.extract_shards[i]; ++j) {
        slots_[i].shards.push_back(open(config[i].module(), spe++));
      }
    }
    for (int b = 0; b < plan_.detect_spes; ++b) {
      cd_block_lanes_.push_back(open(kernels::cd_module(), spe++));
    }
    // cellfuse: slot-major over the extract-shard SPEs (every extract
    // module carries the fused body), capped at the planned lane count —
    // past that, the marginal lane costs more in per-lane overhead than
    // it saves in span (shard::plan_fused).
    for (const auto& slot : slots_) {
      fused_lanes_.insert(fused_lanes_.end(), slot.shards.begin(),
                          slot.shards.end());
    }
    fused_lanes_.resize(std::min(
        fused_lanes_.size(), static_cast<std::size_t>(fused_plan_.lanes)));
    feed_lanes_ = cd_block_lanes_;
  } else {
    for (int i = 0; i < 4; ++i) {
      slots_[i].extract = open(config[i].module(), i);
    }
    if (scenario_ == Scenario::kMultiSPE2) {
      for (int i = 0; i < 4; ++i) {
        slots_[i].detect = open(kernels::cd_module(), 4 + i);
        feed_lanes_.push_back(slots_[i].detect);
      }
    } else {
      const Lane cd = open(kernels::cd_module(), 4);
      for (auto& slot : slots_) slot.detect = cd;
      feed_lanes_.push_back(cd);
    }
    for (int i = 0; i < (scenario_ == Scenario::kSingleSPE ? 1 : 4); ++i) {
      fused_lanes_.push_back(slots_[i].extract);
    }
  }

  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    slot.phase = config[i].phase;
    slot.dim = config[i].dim;
    slot.name = config[i].name;
    slot.ref_extract = config[i].ref;
    slot.set = config[i].set;
    const auto& models = slot.set->models;
    slot.descs =
        cellport::AlignedBuffer<kernels::DetectModelDesc>(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
      kernels::DetectModelDesc& d = slot.descs[m];
      d.sv_ea = reinterpret_cast<std::uint64_t>(models[m].sv_data());
      d.coef_ea = reinterpret_cast<std::uint64_t>(models[m].coef().data());
      d.num_sv = models[m].num_sv();
      d.sv_stride = models[m].sv_stride();
      d.gamma = models[m].gamma();
      d.rho = models[m].rho();
      d.kernel_type = static_cast<std::int32_t>(models[m].kernel());
    }
  }
  init_work(work_, 0);
}

// ---- the working set ----

void CellEngine::init_work(Work& w, int max_models) {
  const bool sharded = scenario_ == Scenario::kSharded;
  // Raw-partial bytes per shard: fixed for the counting kernels; TX is
  // tile-count dependent and (re)sized per image in prepare().
  const std::size_t part_bytes[4] = {
      kernels::kShardChWords * sizeof(std::uint32_t),
      kernels::kShardCcWords * sizeof(std::uint32_t),
      0,
      kernels::kShardEhWords * sizeof(std::uint32_t),
  };
  const auto spu_run = static_cast<int>(kernels::SPU_Run);
  w.detect.clear();
  for (int s = 0; s < 4; ++s) {
    FeatureSlot& slot = slots_[s];
    Work::Slot& ws = w.slot[s];
    const auto full = static_cast<int>(slot.set->models.size());
    ws.models = max_models > 0 ? std::min(full, max_models) : full;
    ws.out = cellport::AlignedBuffer<float>(padded_dim(slot.dim));
    ws.scores = cellport::AlignedBuffer<double>(
        cellport::round_up(static_cast<std::size_t>(full), 2));
    // The detection message is static: it reads this working set's
    // feature vector and writes its scores.
    kernels::DetectMsg& dm = *ws.detect_msg;
    dm.feature_ea = reinterpret_cast<std::uint64_t>(ws.out.data());
    dm.dim = slot.dim;
    dm.num_models = ws.models;
    dm.models_ea = reinterpret_cast<std::uint64_t>(slot.descs.data());
    dm.scores_ea = reinterpret_cast<std::uint64_t>(ws.scores.data());
    dm.buffering = buffering_;
    if (!sharded) {
      w.detect.push_back({KernelCall::Kind::kDetect, s, 0, &slot.detect,
                          spu_run, ws.detect_msg.ea()});
      continue;
    }
    const auto n = static_cast<std::size_t>(plan_.extract_shards[s]);
    ws.shard_msgs = std::vector<port::WrappedMessage<kernels::ImageMsg>>(n);
    ws.shard_parts.resize(n);
    if (part_bytes[s] > 0) {
      for (auto& p : ws.shard_parts) {
        p = cellport::AlignedBuffer<std::uint8_t>(part_bytes[s]);
      }
    }
    const auto d = static_cast<std::size_t>(plan_.detect_spes);
    ws.blocks = shard::split_rows(ws.models, plan_.detect_spes);
    ws.block_msgs = std::vector<port::WrappedMessage<kernels::DetectMsg>>(d);
    ws.block_scores.resize(d);
    for (std::size_t b = 0; b < d; ++b) {
      ws.block_scores[b] = cellport::AlignedBuffer<double>(ws.scores.size());
      kernels::DetectMsg& bm = *ws.block_msgs[b];
      bm = dm;
      bm.model_begin = ws.blocks[b].begin;
      bm.num_models = ws.blocks[b].count();
      bm.scores_ea =
          reinterpret_cast<std::uint64_t>(ws.block_scores[b].data());
      w.detect.push_back(
          {KernelCall::Kind::kBlock, s, static_cast<int>(b),
           &cd_block_lanes_[b], spu_run,
           ws.blocks[b].empty() ? 0 : ws.block_msgs[b].ea()});
    }
  }
}

void CellEngine::prepare(Work& w, bool charge_each) {
  sim::ScalarContext& ppe = machine_.ppe();
  const img::RgbImage& pixels = w.pixels;
  const int h = pixels.height();
  w.degraded = std::move(feed_pending_degraded_);
  feed_pending_degraded_.clear();
  for (int s = 0; s < 4; ++s) {
    // Listing 4's FILL_MSG_FROM_COLORIMAGE: wrap the class members into
    // the aligned message structure.
    ppe.charge(sim::OpClass::kStore, 12);
    kernels::ImageMsg& msg = *w.slot[s].msg;
    msg.pixels_ea = reinterpret_cast<std::uint64_t>(pixels.data());
    msg.width = pixels.width();
    msg.height = h;
    msg.stride = pixels.stride();
    msg.buffering = buffering_;
    msg.out_ea = reinterpret_cast<std::uint64_t>(w.slot[s].out.data());
    msg.out_count = slots_[s].dim;
  }
  w.extract.clear();
  // A range message is a slot message plus its rows, writing a raw
  // partial instead of the feature vector.
  std::uint64_t stores = 0;
  auto range_msg = [&](port::WrappedMessage<kernels::ImageMsg>& msg,
                       const kernels::ImageMsg& base, const shard::Range& r,
                       const void* out) {
    if (charge_each) {
      ppe.charge(sim::OpClass::kStore, 4);
    } else {
      stores += 4;
    }
    kernels::ImageMsg& m = *msg;
    m = base;
    m.row_begin = r.begin;
    m.row_end = r.end;
    m.out_ea = reinterpret_cast<std::uint64_t>(out);
    return msg.ea();
  };
  if (fused_ || balanced_) {
    // Same precondition as the TX kernel: every wavelet level must split
    // (a fused lane always computes the texture alongside the
    // row-granular features).
    if (pixels.width() < (1 << features::kTextureLevels) ||
        h < (1 << features::kTextureLevels)) {
      throw cellport::ConfigError(
          "image too small for the 4-level wavelet texture");
    }
    // A balanced engine splits the image into more, smaller task ranges
    // than lanes; its tasks ride the steal loop, not the call list.
    const auto lanes = static_cast<int>(fused_lanes_.size());
    w.fused_rows = balanced_ ? balance::split_tasks(h, lanes)
                             : shard::split_fused(h, lanes);
    const std::size_t n = w.fused_rows.size();
    if (w.fused_msgs.size() < n) {
      w.fused_msgs = std::vector<port::WrappedMessage<kernels::ImageMsg>>(n);
    }
    if (w.fused_parts.size() < n) w.fused_parts.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      const shard::Range& r = w.fused_rows[j];
      std::uint64_t ea = 0;
      if (!r.empty()) {
        const std::size_t bytes =
            kernels::fused_partial_bytes(pixels.width(), h, r.begin, r.end);
        if (w.fused_parts[j].bytes() < bytes) {
          w.fused_parts[j] = cellport::AlignedBuffer<std::uint8_t>(bytes);
        }
        ea = range_msg(w.fused_msgs[j], *w.slot[0].msg, r,
                       w.fused_parts[j].data());
      }
      if (!balanced_) {
        w.extract.push_back({KernelCall::Kind::kFused, 0,
                             static_cast<int>(j), &fused_lanes_[j],
                             static_cast<int>(kernels::SPU_Run_Fused), ea});
      }
    }
  } else if (scenario_ == Scenario::kSharded) {
    // The shard plan is fixed, the ranges follow this image's shape.
    for (int s = 0; s < 4; ++s) {
      Work::Slot& ws = w.slot[s];
      const int n = plan_.extract_shards[s];
      ws.shard_rows = s == shard::kSlotTx ? shard::split_tiles(h, n)
                                          : shard::split_rows(h, n);
      for (std::size_t j = 0; j < ws.shard_rows.size(); ++j) {
        const shard::Range& r = ws.shard_rows[j];
        std::uint64_t ea = 0;
        if (!r.empty()) {
          auto& part = ws.shard_parts[j];
          if (s == shard::kSlotTx) {
            const auto bytes = static_cast<std::size_t>(
                                   shard::tx_partial_doubles(r)) *
                               sizeof(double);
            if (part.bytes() < bytes) {
              part = cellport::AlignedBuffer<std::uint8_t>(bytes);
            }
          }
          ea = range_msg(ws.shard_msgs[j], *ws.msg, r, part.data());
        }
        w.extract.push_back({KernelCall::Kind::kShard, s,
                             static_cast<int>(j), &slots_[s].shards[j],
                             static_cast<int>(kernels::SPU_Run), ea});
      }
    }
  } else {
    for (int s = 0; s < 4; ++s) {
      w.extract.push_back({KernelCall::Kind::kExtract, s, 0,
                           &slots_[s].extract, extract_opcode(s),
                           w.slot[s].msg.ea()});
    }
    return;
  }
  if (!charge_each) ppe.charge(sim::OpClass::kStore, stores);
}

std::span<const std::uint64_t> CellEngine::task_eas(const Work& w) {
  task_eas_.assign(w.fused_rows.size(), 0);
  for (std::size_t t = 0; t < w.fused_rows.size(); ++t) {
    if (!w.fused_rows[t].empty()) task_eas_[t] = w.fused_msgs[t].ea();
  }
  return task_eas_;
}

void CellEngine::reduce(Work& w) {
  // The cellshard reducers over gathered partials (count sections for
  // CH/CC/EH, Haar-tile sums for TX), ranges in ascending row order.
  // Empty ranges contribute nothing and were never dispatched.
  const bool fused = fused_ || balanced_;
  const int width = w.pixels.width();
  const int height = w.pixels.height();
  sim::ScalarContext* ppe = &machine_.ppe();
  static constexpr std::size_t kFusedWords[4] = {
      0, kernels::kFusedCcOffset, 0, kernels::kFusedEhOffset};
  std::vector<const std::uint32_t*> counts;
  std::vector<const double*> tiles;
  std::vector<int> tile_doubles;
  for (int i = 0; i < 4; ++i) {
    const auto& rows = fused ? w.fused_rows : w.slot[i].shard_rows;
    const auto& parts = fused ? w.fused_parts : w.slot[i].shard_parts;
    counts.clear();
    tiles.clear();
    tile_doubles.clear();
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const shard::Range& r = rows[j];
      if (r.empty()) continue;
      const std::uint8_t* part = parts[j].data();
      if (i == shard::kSlotTx) {
        tiles.push_back(reinterpret_cast<const double*>(
            fused ? part + kernels::kFusedCountBytes : part));
        tile_doubles.push_back(
            fused ? kernels::fused_tx_doubles(width, height, r.begin, r.end)
                  : shard::tx_partial_doubles(r));
      } else {
        counts.push_back(reinterpret_cast<const std::uint32_t*>(part) +
                         (fused ? kFusedWords[i] : 0));
      }
    }
    const auto n = static_cast<int>(counts.size());
    float* out = w.slot[i].out.data();
    switch (i) {
      case shard::kSlotCh:
        shard::reduce_ch(counts.data(), n, width, height, out, ppe);
        break;
      case shard::kSlotCc:
        shard::reduce_cc(counts.data(), n, out, ppe);
        break;
      case shard::kSlotTx:
        shard::reduce_tx(tiles.data(), tile_doubles.data(),
                         static_cast<int>(tiles.size()), width, height, out,
                         ppe);
        break;
      default:
        shard::reduce_eh(counts.data(), n, width, height, out, ppe);
        break;
    }
  }
  (fused ? fuse_images_counter_ : shard_reduce_counter_)->add(1);
}

void CellEngine::concat_blocks(Work& w, int s) {
  Work::Slot& ws = w.slot[s];
  std::vector<const double*> parts;
  std::vector<int> counts;
  for (std::size_t b = 0; b < ws.blocks.size(); ++b) {
    if (ws.blocks[b].empty()) continue;
    parts.push_back(ws.block_scores[b].data());
    counts.push_back(ws.blocks[b].count());
  }
  shard::concat_scores(parts.data(), counts.data(),
                       static_cast<int>(parts.size()), ws.scores.data(),
                       &machine_.ppe());
}

AnalysisResult CellEngine::collect(Work& w) {
  // Copy results from the output buffers back into the class data
  // (Section 3.3, last step). Charged as the loads/stores it is.
  sim::ScalarContext& ppe = machine_.ppe();
  AnalysisResult result;
  features::FeatureVector* fvs[4] = {&result.color_histogram,
                                     &result.color_correlogram,
                                     &result.texture, &result.edge_histogram};
  DetectionScores* ds[4] = {&result.ch_detect, &result.cc_detect,
                            &result.tx_detect, &result.eh_detect};
  for (int s = 0; s < 4; ++s) {
    const FeatureSlot& slot = slots_[s];
    const Work::Slot& ws = w.slot[s];
    const auto elems = static_cast<std::uint64_t>(slot.dim) + ws.scores.size();
    ppe.charge(sim::OpClass::kLoad, elems);
    ppe.charge(sim::OpClass::kStore, elems);
    fvs[s]->name = slot.name;
    fvs[s]->values.assign(ws.out.data(), ws.out.data() + slot.dim);
    ds[s]->values.assign(ws.scores.data(), ws.scores.data() + ws.models);
  }
  result.degraded = std::move(w.degraded);
  return result;
}

// ---- cellfeed: SPE-resident ingest of PPM carriers ----
//
// The paper's strategy applied to the last PPE-serial stage: the bytes
// of a raw frame never cross the PPE. The header is parsed there (it is
// a handful of bytes and decides the geometry); the packed pixel rows
// are gathered by DMA lists, shifted/unpacked, and scattered as whole
// destination rows by the feed kernel, with the image's rows split
// across the scenario's detect-side SPEs — which are idle during every
// schedule's decode phase, including the decode-ahead overlap of the
// pipelined batch and streaming modes.

img::RgbImage CellEngine::ingest(const img::SicEncoded& image,
                                 const std::function<void()>& between_slices,
                                 img::RgbImage storage, StealLoop* loop,
                                 std::size_t owner) {
  sim::ScalarContext& ppe = machine_.ppe();
  if (feed_ && img::is_ppm(image)) {
    // The strict shared parser: a malformed header throws the exact
    // IoError the PPE decode path throws (accept/reject is identical).
    img::PpmHeader hdr =
        img::parse_p6_header(image.bytes.data(), image.bytes.size());
    const std::size_t row_bytes = static_cast<std::size_t>(hdr.width) * 3;
    const std::size_t payload =
        row_bytes * static_cast<std::size_t>(hdr.height);
    if (hdr.pixel_offset + payload > image.bytes.size()) {
      throw cellport::IoError("truncated P6 pixel data");
    }
    const std::size_t stride = cellport::round_up(row_bytes, 16);
    // Feed eligibility: one list element per row (the MFC 16KiB cap
    // bounds both the widened gather window and the scatter stride), and
    // the carrier must keep >= 15 readable bytes on both sides of the
    // payload because gather windows anchor on enclosing 16-byte
    // boundaries (img::ppm_encode guarantees the slack; hand-built
    // carriers without it decode on the PPE).
    const bool fits_list =
        cellport::round_up(row_bytes + 15, 16) <= sim::Mfc::kMaxTransfer &&
        stride <= sim::Mfc::kMaxTransfer;
    const bool slack =
        hdr.pixel_offset >= 15 &&
        image.bytes.size() >= hdr.pixel_offset + payload + 15;
    if (fits_list && slack) {
      {
        probe::ProbeSpan span(prt(), probe::Phase::kDecode, ppe,
                              "feed_header");
        // Raw frames are memory-resident producer buffers: no file
        // open, and only the header bytes ever touch the PPE.
        ppe.charge_io(hdr.pixel_offset, /*open_file=*/false);
        ppe.charge(sim::OpClass::kIntAlu, 32);  // token scan
      }
      storage.reshape(hdr.width, hdr.height);
      feed_image(image, hdr, storage);
      return storage;
    }
  }
  probe::ProbeSpan span(prt(), probe::Phase::kDecode, ppe, "sic_decode");
  img::SicDecoder dec(image, &ppe, /*charge_io=*/true, std::move(storage),
                      /*index_rows=*/loop != nullptr);
  while (dec.step()) {
    if (between_slices) between_slices();
  }
  if (dec.indexed()) decode_on_spes(dec, *loop, owner);
  return dec.take();
}

// ---- celldecode: SIC block rows as steal-loop tasks ----
//
// The paper's strategy applied to the stream's hotspot: the PPE keeps
// the serial part of the decode (disk read, Huffman, a validating token
// scan that indexes every block row) and the data-parallel rest —
// dequant, IDCT, store — runs on the SPE lanes, one block row of all
// three channels per task. Tasks write disjoint interleaved pixel rows,
// so they may finish in any order.

void CellEngine::decode_on_spes(img::SicDecoder& dec, StealLoop& loop,
                                std::size_t owner) {
  sim::ScalarContext& ppe = machine_.ppe();
  if (!decode_tasks_.prepare(dec)) {
    // A block row too wide or too dense for the kernel's LS budget: the
    // PPE decodes every row. The scan kept only the index, so the rows
    // parse their tokens again and such an image costs the PPE the scan
    // on top of the plain decode (counted as decode.ppe_images).
    for (int by = 0; by < dec.block_rows(); ++by) dec.decode_rows(by, &ppe);
    decode_ppe_images_counter_->add(1);
    return;
  }
  const std::vector<std::uint64_t>& eas = decode_tasks_.eas();
  const std::uint64_t rows = eas.size();
  ppe.charge(sim::OpClass::kStore, 10 * rows);
  const std::uint64_t mirrored = decode_fallback_counter_->value();
  // Task t decodes block row t; one the guard gives up on is decoded on
  // the PPE, recorded as degraded "decode:rows". (Two captures keep the
  // std::function in its local buffer: no allocation per image.)
  const StealLoop::Fallback mirror = [this, &dec](std::size_t,
                                                  std::size_t by) {
    sim::ScalarContext& ppe = machine_.ppe();
    probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe, "decode:rows");
    dec.decode_rows(static_cast<int>(by), &ppe);
    decode_fallback_counter_->add(1);
    feed_pending_degraded_.push_back("decode:rows");
    fallback_counter_->add(1);
    if (ppe.trace_on()) {
      ppe.trace_track()->instant(trace::Category::kRuntime,
                                 "ppe_fallback:decode:rows", ppe.now_ns(),
                                 "count", fallback_counter_->value());
    }
  };
  try {
    loop.push(owner, static_cast<int>(kernels::SPU_Run_Decode), eas, &mirror);
    loop.drain(owner, probe::Phase::kFeedDma);
  } catch (...) {
    // An aborted decode (a plain kernel fault) collects every task on a
    // lane before the decoder's buffers go away.
    loop.abandon();
    throw;
  }
  decode_rows_counter_->add(rows -
                            (decode_fallback_counter_->value() - mirrored));
}

void CellEngine::feed_image(const img::SicEncoded& image,
                            const img::PpmHeader& hdr, img::RgbImage& dst) {
  sim::ScalarContext& ppe = machine_.ppe();
  probe::ProbeSpan span(prt(), probe::Phase::kFeedDma, ppe, "feed_dma");
  const std::size_t n = feed_lanes_.size();
  if (feed_msgs_.size() < n) {
    feed_msgs_ = std::vector<port::WrappedMessage<kernels::FeedMsg>>(n);
  }
  const std::vector<shard::Range> rows =
      shard::split_rows(hdr.height, static_cast<int>(n));
  const auto src_ea = reinterpret_cast<std::uint64_t>(image.bytes.data() +
                                                      hdr.pixel_offset);
  const sim::SimTime sent = ppe.now_ns();
  for (std::size_t j = 0; j < n; ++j) {
    if (rows[j].empty()) continue;
    ppe.charge(sim::OpClass::kStore, 10);
    kernels::FeedMsg& m = *feed_msgs_[j];
    m.src_ea = src_ea;
    m.dst_ea = reinterpret_cast<std::uint64_t>(dst.data());
    m.width = hdr.width;
    m.height = hdr.height;
    m.dst_stride = dst.stride();
    m.buffering = kernels::kTripleBuffer;
    m.row_begin = rows[j].begin;
    m.row_end = rows[j].end;
    m.rows_per_tile = 0;
    feed_lanes_[j].send(static_cast<int>(kernels::SPU_Run_Feed),
                        feed_msgs_[j].ea());
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (rows[j].empty()) continue;
    const std::string label = "feed[" + std::to_string(j) + "]";
    // A guard give-up or a plain kernel fault: this lane's rows fall to
    // the PPE.
    bool ok = true;
    try {
      feed_lanes_[j].finish(
          ppe, prt(), [&] { return label; }, [&] { ok = false; });
    } catch (const cellport::Error&) {
      ok = false;
    }
    rt_.add_spe_span(probe::Phase::kFeedDma, label, sent, ppe.now_ns());
    if (ok) {
      feed_rows_counter_->add(static_cast<std::uint64_t>(rows[j].count()));
    } else {
      feed_fallback_rows(image, hdr, rows[j], dst);
    }
  }
  feed_images_counter_->add(1);
}

void CellEngine::feed_fallback_rows(const img::SicEncoded& image,
                                    const img::PpmHeader& hdr,
                                    const shard::Range& rows,
                                    img::RgbImage& dst) {
  sim::ScalarContext& ppe = machine_.ppe();
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe, "feed:ingest");
  const std::size_t row_bytes = static_cast<std::size_t>(hdr.width) * 3;
  const std::uint8_t* src = image.bytes.data() + hdr.pixel_offset;
  for (int y = rows.begin; y < rows.end; ++y) {
    std::memcpy(dst.row(y), src + static_cast<std::size_t>(y) * row_bytes,
                row_bytes);
  }
  // The same per-chunk touch cost the PPE decode path charges for these
  // rows (the destination pads are already zero: AlignedBuffer
  // value-initializes, matching the kernel's explicit pad memset).
  const auto chunks = static_cast<std::uint64_t>(
      (row_bytes * static_cast<std::size_t>(rows.count()) + 15) / 16);
  ppe.charge(sim::OpClass::kLoad, chunks);
  ppe.charge(sim::OpClass::kStore, chunks);
  ppe.charge(sim::OpClass::kIntAlu,
             static_cast<std::uint64_t>(rows.count()) * 2);
  feed_fallback_counter_->add(1);
  if (guard_.enabled) {
    feed_pending_degraded_.push_back("feed:ingest");
    fallback_counter_->add(1);
    if (ppe.trace_on()) {
      ppe.trace_track()->instant(trace::Category::kRuntime,
                                 "ppe_fallback:feed:ingest", ppe.now_ns(),
                                 "count", fallback_counter_->value());
    }
  }
}

AnalysisResult CellEngine::analyze(const img::SicEncoded& image) {
  if (probe_ != nullptr) rt_.start("analyze", machine_.ppe().now_ns());
  // cellbalance: content-cache front end. A hit skips decode, extraction
  // and detection entirely — digest + copy-out, bit-identical values.
  std::uint64_t cache_key = 0;
  bool cache_fill = false;
  if (cache_on()) {
    AnalysisResult hit;
    if (cache_try_serve(image, &hit, &cache_key)) {
      note_image_done();
      finish_request();
      return hit;
    }
    cache_fill = true;
  }
  std::optional<StealLoop> loop = steal_loop(work_);
  work_.pixels =
      decode(image, std::move(work_.pixels), loop ? &*loop : nullptr);
  AnalysisResult result;
  {
    InFlight f;
    f.loop = loop ? &*loop : nullptr;
    dispatch(work_, f);
    result = complete(work_, f);
  }
  if (loop) tally_steals(*loop);
  if (cache_fill && result.degraded.empty()) {
    cache_store(cache_key, result);
  }
  note_image_done();
  finish_request();
  return result;
}

img::RgbImage CellEngine::decode(const img::SicEncoded& image,
                                 img::RgbImage storage, StealLoop* loop,
                                 std::size_t owner) {
  port::Profiler::Scope probe(profiler_, kPhasePreprocess);
  return ingest(image, {}, std::move(storage), loop, owner);
}

std::optional<StealLoop> CellEngine::steal_loop(Work& w) {
  if (!balanced_) return std::nullopt;
  return std::optional<StealLoop>(
      std::in_place, machine_.ppe(), prt(), fused_lanes_,
      [this, &w](std::size_t, std::size_t t) { mirror_fused(w, t); });
}

void CellEngine::dispatch(Work& w, InFlight& f) {
  sim::ScalarContext& ppe = machine_.ppe();
  {
    probe::ProbeSpan span(prt(), probe::Phase::kPrepare, ppe, "fill_msgs");
    prepare(w, /*charge_each=*/false);
  }
  if (!fused_ && !balanced_ && scenario_ == Scenario::kSingleSPE) return;

  f.phase.emplace(profiler_, kPhaseExtractPar);
  if (f.loop != nullptr) {
    f.loop->push(f.owner, static_cast<int>(kernels::SPU_Run_Fused),
                 task_eas(w));
    return;
  }
  probe::ProbeSpan d(prt(), probe::Phase::kDispatch, ppe,
                     fused_                            ? "send_fused"
                     : scenario_ == Scenario::kSharded ? "send_shards"
                                                       : "send_extract");
  for (KernelCall& c : w.extract) send(c);
}

AnalysisResult CellEngine::complete(Work& w, InFlight& f) {
  sim::ScalarContext& ppe = machine_.ppe();
  const bool per_feature = !fused_ && !balanced_;
  const bool sharded = scenario_ == Scenario::kSharded;
  // kMultiSPE2 per-feature: each extraction is immediately followed by
  // its own detection on a dedicated detection SPE, inside the
  // extraction phase; every other schedule detects under its own.
  const bool detect_in_extract =
      per_feature && scenario_ == Scenario::kMultiSPE2;
  if (f.loop != nullptr) {
    f.loop->drain(f.owner);
  } else if (per_feature && scenario_ == Scenario::kSingleSPE) {
    // Scenario 1: each kernel runs alone, under its own profiler phase.
    for (KernelCall& c : w.extract) {
      const FeatureSlot& slot = slots_[c.slot];
      port::Profiler::Scope probe(profiler_, slot.phase);
      probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe, slot.name);
      send(c);
      finish(c, w, probe::Phase::kExtract);
    }
  } else {
    probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe,
                          fused_ ? "fused_lanes" : sharded ? "shards" : "");
    for (std::size_t p = 0; p < w.extract.size(); ++p) {
      finish(w.extract[p], w, probe::Phase::kExtract);
      if (detect_in_extract) send(w.detect[p]);
    }
  }

  if (!detect_in_extract) f.phase.reset();
  if (!per_feature || sharded) {
    port::Profiler::Scope probe(profiler_, kPhaseShardReduce);
    probe::ProbeSpan span(prt(), probe::Phase::kReduce, ppe,
                          per_feature ? "shard_reduce" : "fuse_reduce");
    reduce(w);
  }
  if (!detect_in_extract) {
    f.phase.emplace(profiler_, per_feature && scenario_ == Scenario::kSingleSPE
                                   ? kPhaseCd
                                   : kPhaseDetect);
  }
  detect(w);
  f.phase.reset();

  probe::ProbeSpan span(prt(), probe::Phase::kOutput, ppe, "collect");
  return collect(w);
}

void CellEngine::detect(Work& w) {
  sim::ScalarContext& ppe = machine_.ppe();
  if (scenario_ == Scenario::kSharded) {
    // cellshard: each slot's models fan out over the detection block
    // lanes, then the PPE concatenates the exact counts.
    probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe, "blocks");
    for (int s = 0; s < 4; ++s) {
      // The block messages' fill, charged per slot and image here (the
      // working set holds them ready from init_work()).
      ppe.charge(sim::OpClass::kStore,
                 6 * static_cast<std::uint64_t>(plan_.detect_spes));
      for (KernelCall& c : w.detect) {
        if (c.slot == s) send(c);
      }
      for (KernelCall& c : w.detect) {
        if (c.slot == s) finish(c, w, probe::Phase::kDetect);
      }
      concat_blocks(w, s);
    }
    return;
  }
  probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
  // kMultiSPE2 runs one detection SPE per slot; per-feature extraction
  // already sent each detection as its extraction retired. Otherwise the
  // slots share one detection SPE, one slot at a time.
  const bool own_spe = scenario_ == Scenario::kMultiSPE2;
  if (own_spe && (fused_ || balanced_)) {
    for (KernelCall& c : w.detect) send(c);
  }
  for (KernelCall& c : w.detect) {
    if (!own_spe) send(c);
    finish(c, w, probe::Phase::kDetect);
  }
}

void CellEngine::finish_request() {
  if (probe_ == nullptr || !rt_.active()) return;
  rt_.finish(machine_.ppe().now_ns());
  probe_->on_request(rt_);
}

int CellEngine::extract_opcode(int s) const {
  const bool has_naive = s != shard::kSlotTx;
  return static_cast<int>(use_naive_ && has_naive ? kernels::SPU_Run_Naive
                                                  : kernels::SPU_Run);
}

// ---- kernel calls ----
//
// Every strategy's calls are one list per image (Work::extract,
// Work::detect), driven over one of two transports: the mailbox
// (send(), then finish(): analyze() and pipelined batches) or a command
// ring (StreamEngine: enqueue + one doorbell per lane, then a batch
// wait, with rerun() for each call the ring lost). Either way a call the
// guard gives up on is recomputed by mirror() from the same working set.

void CellEngine::send(KernelCall& c) {
  if (c.ea == 0) return;
  c.sent = machine_.ppe().now_ns();
  c.lane->send(c.op, c.ea);
}

void CellEngine::finish(KernelCall& c, Work& w, probe::Phase phase) {
  if (c.ea == 0) return;
  sim::ScalarContext& ppe = machine_.ppe();
  c.lane->finish(
      ppe, prt(), [&] { return label(c); }, [&] { mirror(c, w); }, lanes_);
  if (prt() != nullptr) {
    rt_.add_spe_span(phase, label(c), c.sent, ppe.now_ns());
  }
}

void CellEngine::rerun(const KernelCall& c, Work& w) {
  c.lane->call(
      machine_.ppe(), prt(), c.op, c.ea, [&] { return label(c); },
      [&] { mirror(c, w); });
}

std::string CellEngine::label(const KernelCall& c) const {
  const std::string name = slots_[c.slot].name;
  const std::string index = "[" + std::to_string(c.index) + "]";
  switch (c.kind) {
    case KernelCall::Kind::kExtract:
      return name;
    case KernelCall::Kind::kShard:
      return name + index;
    case KernelCall::Kind::kFused:
      return "fused" + index;
    case KernelCall::Kind::kDetect:
      return "cd:" + name;
    default:
      return "cd" + index + ":" + name;
  }
}

void CellEngine::mirror(const KernelCall& c, Work& w) {
  if (c.kind == KernelCall::Kind::kFused) {
    mirror_fused(w, static_cast<std::size_t>(c.index));
    return;
  }
  sim::ScalarContext& ppe = machine_.ppe();
  const FeatureSlot& slot = slots_[c.slot];
  Work::Slot& ws = w.slot[c.slot];
  const auto j = static_cast<std::size_t>(c.index);
  const char* stage = c.kind == KernelCall::Kind::kExtract ? "extract"
                      : c.kind == KernelCall::Kind::kShard ? "shard"
                                                           : "detect";
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe,
                        std::string(stage) + ":" + slot.name);
  switch (c.kind) {
    case KernelCall::Kind::kExtract: {
      // The PPE scalar path, landed in the slot's output buffer where
      // detection and collect() expect it.
      features::FeatureVector fv = slot.ref_extract(w.pixels, &ppe);
      ppe.charge(sim::OpClass::kStore, static_cast<std::uint64_t>(slot.dim));
      std::memcpy(ws.out.data(), fv.values.data(),
                  static_cast<std::size_t>(slot.dim) * sizeof(float));
      break;
    }
    case KernelCall::Kind::kShard: {
      // Just this shard's raw partial; the reduction then proceeds as if
      // the SPE had delivered it.
      const shard::Range& range = ws.shard_rows[j];
      void* part = ws.shard_parts[j].data();
      switch (c.slot) {
        case shard::kSlotCh:
          shard::ppe_partial_ch(w.pixels, range,
                                static_cast<std::uint32_t*>(part), &ppe);
          break;
        case shard::kSlotCc:
          shard::ppe_partial_cc(w.pixels, range,
                                static_cast<std::uint32_t*>(part), &ppe);
          break;
        case shard::kSlotTx:
          shard::ppe_partial_tx(w.pixels, range, static_cast<double*>(part),
                                &ppe);
          break;
        default:
          shard::ppe_partial_eh(w.pixels, range,
                                static_cast<std::uint32_t*>(part), &ppe);
          break;
      }
      break;
    }
    case KernelCall::Kind::kDetect: {
      // Score against the full model set on the PPE, reading whatever
      // feature values are in the buffer (SPE-extracted or themselves a
      // fallback); under a serve concept clamp only the scored prefix
      // lands (the PPE has no short-batch kernel to lean on).
      features::FeatureVector fv;
      fv.name = slot.name;
      fv.values.assign(ws.out.data(), ws.out.data() + slot.dim);
      DetectionScores scores = reference_detect(fv, *slot.set, &ppe);
      ppe.charge(sim::OpClass::kStore,
                 static_cast<std::uint64_t>(scores.values.size()));
      std::memcpy(ws.scores.data(), scores.values.data(),
                  std::min(scores.values.size(),
                           static_cast<std::size_t>(ws.models)) *
                      sizeof(double));
      break;
    }
    default:
      shard::ppe_detect_block(ws.out.data(), slot.dim, *slot.set,
                              ws.blocks[j], ws.block_scores[j].data(), &ppe);
      break;
  }
  note_degraded(w, stage, c.slot);
}

void CellEngine::mirror_fused(Work& w, std::size_t j) {
  // The reduction can't tell these sections from SPE-delivered bytes
  // (the mirrors zero their sections first).
  sim::ScalarContext& ppe = machine_.ppe();
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe,
                        "fuse[" + std::to_string(j) + "]");
  const shard::Range& range = w.fused_rows[j];
  std::uint8_t* blob = w.fused_parts[j].data();
  auto* words = reinterpret_cast<std::uint32_t*>(blob);
  shard::ppe_partial_ch(w.pixels, range, words, &ppe);
  shard::ppe_partial_cc(w.pixels, range, words + kernels::kFusedCcOffset,
                        &ppe);
  shard::ppe_partial_eh(w.pixels, range, words + kernels::kFusedEhOffset,
                        &ppe);
  const int heff = 2 * (w.pixels.height() / 2);
  const shard::Range tx_rows{range.begin, std::min(range.end, heff)};
  if (!tx_rows.empty()) {
    shard::ppe_partial_tx(
        w.pixels, tx_rows,
        reinterpret_cast<double*>(blob + kernels::kFusedCountBytes), &ppe);
  }
  for (int s = 0; s < 4; ++s) note_degraded(w, "fuse", s);
}

void CellEngine::note_degraded(Work& w, const char* stage, int s) {
  w.degraded.push_back(std::string(stage) + ":" + slots_[s].name);
  fallback_counter_->add(1);
  sim::ScalarContext& ppe = machine_.ppe();
  if (ppe.trace_on()) {
    ppe.trace_track()->instant(trace::Category::kRuntime,
                               "ppe_fallback:" + w.degraded.back(),
                               ppe.now_ns(), "count",
                               fallback_counter_->value());
  }
}

// ---- cellbalance: steal-driven fused dispatch + the content cache ----
//
// The balanced schedule is the fused schedule with MORE, smaller tasks
// than lanes: a working set's fused_* members hold one entry per TASK
// instead of one per lane, so the reducers and the PPE mirror work
// verbatim — reduction still walks fused_rows in ascending row order,
// which is exactly the order a static plan reduces, keeping stolen-work
// results bit-identical.

void CellEngine::set_balanced(bool on) {
  balanced_ = on;
  if (on && steal_tasks_counter_ == nullptr) {
    auto& m = machine_.metrics();
    steal_tasks_counter_ = &m.counter("steal.tasks");
    steal_arms_counter_ = &m.counter("steal.arms");
    steal_steals_counter_ = &m.counter("steal.steals");
    decode_rows_counter_ = &m.counter("decode.spe_rows");
    decode_fallback_counter_ = &m.counter("decode.ppe_fallbacks");
    decode_ppe_images_counter_ = &m.counter("decode.ppe_images");
  }
}

void CellEngine::tally_steals(const StealLoop& loop) {
  steal_tasks_counter_->add(loop.queue().tasks());
  steal_arms_counter_->add(loop.queue().arms());
  steal_steals_counter_->add(loop.queue().steals());
}

namespace {

/// Bytes an AnalysisResult occupies in the cache arena (the payload
/// vectors; the fixed struct overhead is noise next to them).
std::size_t result_bytes(const AnalysisResult& r) {
  std::size_t n = 0;
  for (const features::FeatureVector* fv :
       {&r.color_histogram, &r.color_correlogram, &r.texture,
        &r.edge_histogram}) {
    n += fv->values.size() * sizeof(float) + fv->name.size();
  }
  for (const DetectionScores* ds :
       {&r.ch_detect, &r.cc_detect, &r.tx_detect, &r.eh_detect}) {
    n += ds->values.size() * sizeof(double);
  }
  return n;
}

/// Result elements a cache hit copies out (charged like collect()).
std::uint64_t result_elems(const AnalysisResult& r) {
  return static_cast<std::uint64_t>(
      r.color_histogram.values.size() + r.color_correlogram.values.size() +
      r.texture.values.size() + r.edge_histogram.values.size() +
      r.ch_detect.values.size() + r.cc_detect.values.size() +
      r.tx_detect.values.size() + r.eh_detect.values.size());
}

}  // namespace

void CellEngine::set_cache(std::size_t byte_budget) {
  if (byte_budget == 0) {
    cache_.reset();
    return;
  }
  cache_ = std::make_unique<balance::ContentCache<AnalysisResult>>(
      byte_budget);
  cache_evictions_seen_ = 0;
  auto& m = machine_.metrics();
  if (cache_hits_counter_ == nullptr) {
    cache_hits_counter_ = &m.counter("cache.hits");
    cache_miss_counter_ = &m.counter("cache.misses");
    cache_evict_counter_ = &m.counter("cache.evictions");
  }
  m.gauge("cache.bytes").set(0);
  m.gauge("cache.entries").set(0);
}

std::uint64_t CellEngine::cache_digest(const img::SicEncoded& image) {
  // The FNV-1a pass is byte-serial on the PPE, over the ENCODED carrier
  // (no decode needed to recognize a duplicate).
  machine_.ppe().charge(sim::OpClass::kIntAlu, image.bytes.size());
  return balance::fnv1a64(image.bytes.data(), image.bytes.size());
}

bool CellEngine::cache_try_serve(const img::SicEncoded& image,
                                 AnalysisResult* out, std::uint64_t* key) {
  sim::ScalarContext& ppe = machine_.ppe();
  probe::ProbeSpan span(prt(), probe::Phase::kCache, ppe, "cache_lookup");
  *key = cache_digest(image);
  const AnalysisResult* hit = cache_->find(*key);
  if (hit == nullptr) {
    cache_miss_counter_->add(1);
    return false;
  }
  cache_hits_counter_->add(1);
  // Copy-out mirrors collect(): one load + one store per result element.
  const std::uint64_t elems = result_elems(*hit);
  ppe.charge(sim::OpClass::kLoad, elems);
  ppe.charge(sim::OpClass::kStore, elems);
  *out = *hit;
  return true;
}

void CellEngine::cache_store(std::uint64_t key,
                             const AnalysisResult& result) {
  const std::size_t cost = result_bytes(result);
  // Write-back into the cache arena: one store per 16-byte chunk.
  machine_.ppe().charge(sim::OpClass::kStore,
                        static_cast<std::uint64_t>((cost + 15) / 16));
  cache_->insert(key, result, cost);
  const std::uint64_t ev = cache_->stats().evictions;
  if (ev > cache_evictions_seen_) {
    cache_evict_counter_->add(ev - cache_evictions_seen_);
    cache_evictions_seen_ = ev;
  }
  auto& m = machine_.metrics();
  m.gauge("cache.bytes").set(static_cast<double>(cache_->bytes()));
  m.gauge("cache.entries").set(static_cast<double>(cache_->entries()));
}

void CellEngine::note_image_done() {
  images_counter_->add(1);
  sim::ScalarContext& ppe = machine_.ppe();
  if (ppe.trace_on()) {
    ppe.trace_track()->instant(trace::Category::kRuntime, "image_done",
                               ppe.now_ns(), "count",
                               images_counter_->value());
  }
}

std::vector<AnalysisResult> CellEngine::analyze_batch_pipelined(
    const std::vector<img::SicEncoded>& images) {
  if (scenario_ == Scenario::kSingleSPE) {
    throw cellport::ConfigError(
        "pipelined batches need a parallel scenario (kMultiSPE, "
        "kMultiSPE2, or kSharded)");
  }
  if (!cache_on()) {
    std::vector<const img::SicEncoded*> ptrs;
    ptrs.reserve(images.size());
    for (const auto& image : images) ptrs.push_back(&image);
    return pipelined_cold(ptrs);
  }
  // cellbalance: serve cache hits up front (each one its own request),
  // run the pipelined loop over the misses only, then reassemble the
  // results in input order — values bit-identical to an uncached batch.
  sim::ScalarContext& ppe = machine_.ppe();
  std::vector<AnalysisResult> merged(images.size());
  std::vector<const img::SicEncoded*> cold;
  std::vector<std::size_t> cold_idx;
  std::vector<std::uint64_t> cold_keys;
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (probe_ != nullptr) rt_.start("pipelined", ppe.now_ns());
    std::uint64_t key = 0;
    if (cache_try_serve(images[i], &merged[i], &key)) {
      note_image_done();
      finish_request();
      continue;
    }
    // The miss's lookup time belongs to its request, which the cold
    // loop below serves; roll this trace into that one.
    if (probe_ != nullptr && rt_.active()) rt_.finish(ppe.now_ns());
    cold.push_back(&images[i]);
    cold_idx.push_back(i);
    cold_keys.push_back(key);
  }
  std::vector<AnalysisResult> cold_results = pipelined_cold(cold);
  for (std::size_t c = 0; c < cold_results.size(); ++c) {
    if (cold_results[c].degraded.empty()) {
      cache_store(cold_keys[c], cold_results[c]);
    }
    merged[cold_idx[c]] = std::move(cold_results[c]);
  }
  return merged;
}

std::vector<AnalysisResult> CellEngine::pipelined_cold(
    const std::vector<const img::SicEncoded*>& images) {
  std::vector<AnalysisResult> results;
  if (images.empty()) return results;
  results.reserve(images.size());

  port::Profiler::Scope probe(profiler_, kPhasePipelined);
  sim::ScalarContext& ppe = machine_.ppe();
  // The SPEs read the working set's pixels while the PPE decodes the
  // next image into a second buffer; the two buffers swap roles. Probing
  // treats each loop iteration as one request; the overlapped decode of
  // image i+1 lands in request i's kDecode phase — that is where the
  // PPE's time really went.
  if (probe_ != nullptr) rt_.start("pipelined", ppe.now_ns());
  // Balanced: image i is owner i of one steal loop (its decode tasks,
  // then its fused tasks).
  std::optional<StealLoop> loop = steal_loop(work_);
  StealLoop* const lp = loop ? &*loop : nullptr;
  work_.pixels = decode(*images[0], std::move(work_.pixels), lp, 0);
  img::RgbImage next;
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (probe_ != nullptr && !rt_.active()) {
      rt_.start("pipelined", ppe.now_ns());
    }
    InFlight f;
    f.loop = lp;
    f.owner = i;
    dispatch(work_, f);
    // PPE work overlaps the SPE kernels: decode the next image now. A
    // malformed carrier aborts the batch; collect image i's calls first,
    // so no kernel reads a freed image and the next call can Send.
    if (i + 1 < images.size()) {
      try {
        next = decode(*images[i + 1], std::move(next), lp, i + 1);
      } catch (...) {
        for (const Lane& lane : lanes_) lane.abandon();
        throw;
      }
    }
    results.push_back(complete(work_, f));
    note_image_done();
    finish_request();
    if (i + 1 < images.size()) std::swap(work_.pixels, next);
  }
  if (loop) tally_steals(*loop);
  return results;
}

}  // namespace cellport::marvel
