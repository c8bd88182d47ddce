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

  // Static schedule: one resident kernel per SPE (Section 3.3). A guarded
  // engine wraps the same placement in GuardedInterfaces; any SPE beyond
  // the pinned set becomes a shared spare retries may migrate to.
  if (guard_.enabled) {
    health_ = std::make_unique<guard::SpeHealth>(machine_, guard_.retry);
    fallback_counter_ = &machine_.metrics().counter("guard.ppe_fallbacks");
    int pinned = scenario_ == Scenario::kMultiSPE2 ? 8
                 : scenario_ == Scenario::kSharded ? plan_.spes_used()
                                                   : 5;
    std::vector<int> spares;
    for (int s = pinned; s < machine_.num_spes(); ++s) spares.push_back(s);
    if (scenario_ == Scenario::kSharded) {
      int spe = 0;
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < plan_.extract_shards[i]; ++j) {
          slots_[i].g_shards.push_back(
              std::make_unique<guard::GuardedInterface>(
                  *health_, config[i].module(), spe++, spares));
        }
      }
      for (int b = 0; b < plan_.detect_spes; ++b) {
        g_cd_shards_.push_back(std::make_unique<guard::GuardedInterface>(
            *health_, kernels::cd_module(), spe++, spares));
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        slots_[i].g_extract = std::make_unique<guard::GuardedInterface>(
            *health_, config[i].module(), i, spares);
      }
      if (scenario_ == Scenario::kMultiSPE2) {
        for (int i = 0; i < 4; ++i) {
          slots_[i].g_detect = std::make_unique<guard::GuardedInterface>(
              *health_, kernels::cd_module(), 4 + i, spares);
        }
      } else {
        g_cd_ = std::make_unique<guard::GuardedInterface>(
            *health_, kernels::cd_module(), 4, spares);
      }
    }
  } else if (scenario_ == Scenario::kSharded) {
    int spe = 0;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < plan_.extract_shards[i]; ++j) {
        slots_[i].shard_ifs.push_back(std::make_unique<port::SPEInterface>(
            config[i].module(), spe++));
      }
    }
    for (int b = 0; b < plan_.detect_spes; ++b) {
      cd_shard_ifs_.push_back(
          std::make_unique<port::SPEInterface>(kernels::cd_module(), spe++));
    }
  } else {
    ch_if_ = std::make_unique<port::SPEInterface>(kernels::ch_module(), 0);
    cc_if_ = std::make_unique<port::SPEInterface>(kernels::cc_module(), 1);
    tx_if_ = std::make_unique<port::SPEInterface>(kernels::tx_module(), 2);
    eh_if_ = std::make_unique<port::SPEInterface>(kernels::eh_module(), 3);
    cd_if_ = std::make_unique<port::SPEInterface>(kernels::cd_module(), 4);
    if (scenario_ == Scenario::kMultiSPE2) {
      for (int i = 0; i < 3; ++i) {
        cd_extra_[i] = std::make_unique<port::SPEInterface>(
            kernels::cd_module(), 5 + i);
      }
    }
    slots_[0].extract_if = ch_if_.get();
    slots_[1].extract_if = cc_if_.get();
    slots_[2].extract_if = tx_if_.get();
    slots_[3].extract_if = eh_if_.get();
  }

  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    slot.phase = config[i].phase;
    slot.dim = config[i].dim;
    slot.name = config[i].name;
    slot.ref_extract = config[i].ref;
    slot.out = cellport::AlignedBuffer<float>(padded_dim(config[i].dim));
    setup_detection(slot, *config[i].set);
    if (scenario_ == Scenario::kMultiSPE2 && !guard_.enabled) {
      slot.detect_if = i == 0 ? cd_if_.get() : cd_extra_[i - 1].get();
    }
  }
  if (scenario_ == Scenario::kSharded) setup_sharding();
}

void CellEngine::setup_sharding() {
  // Raw-partial bytes per shard: fixed for the counting kernels; TX is
  // tile-count dependent and (re)sized per image in prepare_shards.
  const std::size_t part_bytes[4] = {
      kernels::kShardChWords * sizeof(std::uint32_t),
      kernels::kShardCcWords * sizeof(std::uint32_t),
      0,
      kernels::kShardEhWords * sizeof(std::uint32_t),
  };
  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    const auto n = static_cast<std::size_t>(plan_.extract_shards[i]);
    slot.shard_msgs = std::vector<port::WrappedMessage<kernels::ImageMsg>>(n);
    slot.shard_parts.resize(n);
    if (part_bytes[i] > 0) {
      for (auto& p : slot.shard_parts) {
        p = cellport::AlignedBuffer<std::uint8_t>(part_bytes[i]);
      }
    }
  }
  // Detection staging: each block's kernel pads its score DMA to an even
  // count, so blocks land in per-block buffers and the PPE concatenates
  // the exact counts (writing into slot.scores directly would overlap at
  // odd block boundaries).
  std::size_t max_models = 0;
  for (const auto& slot : slots_) {
    max_models = std::max(max_models, slot.set->models.size());
  }
  const auto d = static_cast<std::size_t>(plan_.detect_spes);
  cd_block_msgs_ = std::vector<port::WrappedMessage<kernels::DetectMsg>>(d);
  cd_block_scores_.resize(d);
  for (auto& s : cd_block_scores_) {
    s = cellport::AlignedBuffer<double>(cellport::round_up(max_models, 2));
  }
}

void CellEngine::prepare_shards(const img::RgbImage& pixels) {
  const int h = pixels.height();
  std::uint64_t stores = 0;
  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    const int n = plan_.extract_shards[i];
    slot.shard_rows = i == shard::kSlotTx ? shard::split_tiles(h, n)
                                          : shard::split_rows(h, n);
    for (int j = 0; j < n; ++j) {
      const shard::Range& r = slot.shard_rows[static_cast<std::size_t>(j)];
      if (r.empty()) continue;
      if (i == shard::kSlotTx) {
        const auto bytes = static_cast<std::size_t>(
                               shard::tx_partial_doubles(r)) *
                           sizeof(double);
        auto& part = slot.shard_parts[static_cast<std::size_t>(j)];
        if (part.bytes() < bytes) {
          part = cellport::AlignedBuffer<std::uint8_t>(bytes);
        }
      }
      kernels::ImageMsg& m = *slot.shard_msgs[static_cast<std::size_t>(j)];
      m = *slot.msg;
      m.row_begin = r.begin;
      m.row_end = r.end;
      m.out_ea = reinterpret_cast<std::uint64_t>(
          slot.shard_parts[static_cast<std::size_t>(j)].data());
      stores += 4;
    }
  }
  machine_.ppe().charge(sim::OpClass::kStore, stores);
}

void CellEngine::setup_detection(FeatureSlot& slot,
                                 const learn::ConceptModelSet& set) {
  slot.set = &set;
  slot.descs = cellport::AlignedBuffer<kernels::DetectModelDesc>(
      set.models.size());
  for (std::size_t m = 0; m < set.models.size(); ++m) {
    const learn::SvmModel& model = set.models[m];
    kernels::DetectModelDesc& d = slot.descs[m];
    d.sv_ea = reinterpret_cast<std::uint64_t>(model.sv_data());
    d.coef_ea = reinterpret_cast<std::uint64_t>(model.coef().data());
    d.num_sv = model.num_sv();
    d.sv_stride = model.sv_stride();
    d.gamma = model.gamma();
    d.rho = model.rho();
    d.kernel_type = static_cast<std::int32_t>(model.kernel());
  }
  slot.scores = cellport::AlignedBuffer<double>(
      cellport::round_up(set.models.size(), 2));
  kernels::DetectMsg& msg = *slot.detect_msg;
  msg.feature_ea = reinterpret_cast<std::uint64_t>(slot.out.data());
  msg.dim = slot.dim;
  msg.num_models = static_cast<std::int32_t>(set.models.size());
  msg.models_ea = reinterpret_cast<std::uint64_t>(slot.descs.data());
  msg.scores_ea = reinterpret_cast<std::uint64_t>(slot.scores.data());
  msg.buffering = buffering_;
}

void CellEngine::fill_image_msg(FeatureSlot& slot,
                                const img::RgbImage& pixels) {
  // Listing 4's FILL_MSG_FROM_COLORIMAGE: wrap the class members into the
  // aligned message structure.
  machine_.ppe().charge(sim::OpClass::kStore, 12);
  kernels::ImageMsg& msg = *slot.msg;
  msg.pixels_ea = reinterpret_cast<std::uint64_t>(pixels.data());
  msg.width = pixels.width();
  msg.height = pixels.height();
  msg.stride = pixels.stride();
  msg.buffering = buffering_;
  msg.out_ea = reinterpret_cast<std::uint64_t>(slot.out.data());
  msg.out_count = slot.dim;
}

void CellEngine::run_detection(FeatureSlot& slot,
                               port::SPEInterface& iface) {
  iface.SendAndWait(static_cast<int>(kernels::SPU_Run),
                    slot.detect_msg.ea());
}

void CellEngine::collect(FeatureSlot& slot, features::FeatureVector& fv,
                         DetectionScores& scores, const char* name) {
  // Copy results from the output buffers back into the class data
  // (Section 3.3, last step). Charged as the loads/stores it is.
  machine_.ppe().charge(sim::OpClass::kLoad,
                        static_cast<std::uint64_t>(slot.dim) +
                            slot.scores.size());
  machine_.ppe().charge(sim::OpClass::kStore,
                        static_cast<std::uint64_t>(slot.dim) +
                            slot.scores.size());
  fv.name = name;
  fv.values.assign(slot.out.data(), slot.out.data() + slot.dim);
  scores.values.assign(slot.scores.data(),
                       slot.scores.data() + slot.set->models.size());
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

std::vector<CellEngine::FeedLane> CellEngine::feed_lanes() {
  std::vector<FeedLane> lanes;
  if (scenario_ == Scenario::kSharded) {
    if (guard_.enabled) {
      for (auto& g : g_cd_shards_) lanes.push_back({nullptr, g.get()});
    } else {
      for (auto& f : cd_shard_ifs_) lanes.push_back({f.get(), nullptr});
    }
  } else if (scenario_ == Scenario::kMultiSPE2) {
    for (auto& slot : slots_) {
      if (guard_.enabled) {
        lanes.push_back({nullptr, slot.g_detect.get()});
      } else {
        lanes.push_back({slot.detect_if, nullptr});
      }
    }
  } else if (guard_.enabled) {
    lanes.push_back({nullptr, g_cd_.get()});
  } else {
    lanes.push_back({cd_if_.get(), nullptr});
  }
  return lanes;
}

img::RgbImage CellEngine::ingest(const img::SicEncoded& image,
                                 const std::function<void()>& between_slices,
                                 img::RgbImage storage) {
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
  img::SicDecoder dec(image, &ppe, /*charge_io=*/true, std::move(storage));
  while (dec.step()) {
    if (between_slices) between_slices();
  }
  return dec.take();
}

void CellEngine::feed_image(const img::SicEncoded& image,
                            const img::PpmHeader& hdr, img::RgbImage& dst) {
  sim::ScalarContext& ppe = machine_.ppe();
  probe::ProbeSpan span(prt(), probe::Phase::kFeedDma, ppe, "feed_dma");
  std::vector<FeedLane> lanes = feed_lanes();
  if (feed_msgs_.size() < lanes.size()) {
    feed_msgs_ =
        std::vector<port::WrappedMessage<kernels::FeedMsg>>(lanes.size());
  }
  const std::vector<shard::Range> rows =
      shard::split_rows(hdr.height, static_cast<int>(lanes.size()));
  const auto src_ea = reinterpret_cast<std::uint64_t>(image.bytes.data() +
                                                      hdr.pixel_offset);
  const auto feed_op = static_cast<int>(kernels::SPU_Run_Feed);
  const sim::SimTime sent = ppe.now_ns();
  for (std::size_t j = 0; j < lanes.size(); ++j) {
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
    if (lanes[j].gi != nullptr) {
      lanes[j].gi->Send(feed_op, feed_msgs_[j].ea());
    } else {
      lanes[j].iface->Send(feed_op, feed_msgs_[j].ea());
    }
  }
  for (std::size_t j = 0; j < lanes.size(); ++j) {
    if (rows[j].empty()) continue;
    bool ok = true;
    if (lanes[j].gi != nullptr) {
      const sim::SimTime finish_t0 = ppe.now_ns();
      guard::GuardedInterface::Result r = lanes[j].gi->Finish();
      if (r.attempts > 1) {
        rt_.add_closed(probe::Phase::kGuardRetry,
                       "feed[" + std::to_string(j) + "]", finish_t0,
                       ppe.now_ns());
      }
      ok = r.ok;
    } else {
      try {
        lanes[j].iface->Wait();
      } catch (const cellport::Error&) {
        ok = false;  // kernel fault: this lane's rows fall to the PPE
      }
    }
    rt_.add_spe_span(probe::Phase::kFeedDma,
                     "feed[" + std::to_string(j) + "]", sent, ppe.now_ns());
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
  sim::ScalarContext& ppe = machine_.ppe();
  if (probe_ != nullptr) rt_.start("analyze", ppe.now_ns());
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
  img::RgbImage pixels = [&] {
    port::Profiler::Scope probe(profiler_, kPhasePreprocess);
    return ingest(image);
  }();

  {
    probe::ProbeSpan span(prt(), probe::Phase::kPrepare, ppe,
                          "fill_msgs");
    for (auto& slot : slots_) fill_image_msg(slot, pixels);
    if (fused_ || balanced_) {
      prepare_fused(pixels);
    } else if (scenario_ == Scenario::kSharded) {
      prepare_shards(pixels);
    }
  }

  if (guard_.enabled) {
    // Feed fallbacks for this image were staged during ingest().
    degraded_current_ = std::move(feed_pending_degraded_);
    feed_pending_degraded_.clear();
  }
  if (balanced_) {
    analyze_balanced(pixels);
  } else if (fused_) {
    analyze_fused(pixels);
  } else if (guard_.enabled) {
    analyze_guarded_schedule(pixels);
  } else {
    switch (scenario_) {
      case Scenario::kSingleSPE: {
        for (auto& slot : slots_) {
          port::Profiler::Scope probe(profiler_, slot.phase);
          probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe,
                                slot.name);
          const sim::SimTime sent = ppe.now_ns();
          slot.extract_if->SendAndWait(guarded_opcode(slot),
                                       slot.msg.ea());
          rt_.add_spe_span(probe::Phase::kExtract, slot.name, sent,
                           ppe.now_ns());
        }
        port::Profiler::Scope probe(profiler_, kPhaseCd);
        probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
        for (auto& slot : slots_) {
          const sim::SimTime sent = ppe.now_ns();
          run_detection(slot, *cd_if_);
          rt_.add_spe_span(probe::Phase::kDetect,
                           std::string("cd:") + slot.name, sent,
                           ppe.now_ns());
        }
        break;
      }
      case Scenario::kMultiSPE: {
        {
          port::Profiler::Scope probe(profiler_, kPhaseExtractPar);
          sim::SimTime sent[4] = {0, 0, 0, 0};
          {
            probe::ProbeSpan d(prt(), probe::Phase::kDispatch, ppe,
                               "send_extract");
            for (int i = 0; i < 4; ++i) {
              sent[i] = ppe.now_ns();
              slots_[i].extract_if->Send(guarded_opcode(slots_[i]),
                                         slots_[i].msg.ea());
            }
          }
          probe::ProbeSpan w(prt(), probe::Phase::kExtract, ppe);
          for (int i = 0; i < 4; ++i) {
            slots_[i].extract_if->Wait();
            rt_.add_spe_span(probe::Phase::kExtract, slots_[i].name,
                             sent[i], ppe.now_ns());
          }
        }
        port::Profiler::Scope probe(profiler_, kPhaseDetect);
        probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
        for (auto& slot : slots_) {
          const sim::SimTime sent = ppe.now_ns();
          run_detection(slot, *cd_if_);
          rt_.add_spe_span(probe::Phase::kDetect,
                           std::string("cd:") + slot.name, sent,
                           ppe.now_ns());
        }
        break;
      }
      case Scenario::kMultiSPE2: {
        port::Profiler::Scope probe(profiler_, kPhaseExtractPar);
        sim::SimTime sent[4] = {0, 0, 0, 0};
        sim::SimTime detect_sent[4] = {0, 0, 0, 0};
        {
          probe::ProbeSpan d(prt(), probe::Phase::kDispatch, ppe,
                             "send_extract");
          for (int i = 0; i < 4; ++i) {
            sent[i] = ppe.now_ns();
            slots_[i].extract_if->Send(guarded_opcode(slots_[i]),
                                       slots_[i].msg.ea());
          }
        }
        // Each extraction is immediately followed by its own detection on
        // a dedicated detection SPE.
        {
          probe::ProbeSpan w(prt(), probe::Phase::kExtract, ppe);
          for (int i = 0; i < 4; ++i) {
            slots_[i].extract_if->Wait();
            rt_.add_spe_span(probe::Phase::kExtract, slots_[i].name,
                             sent[i], ppe.now_ns());
            detect_sent[i] = ppe.now_ns();
            slots_[i].detect_if->Send(static_cast<int>(kernels::SPU_Run),
                                      slots_[i].detect_msg.ea());
          }
        }
        probe::ProbeSpan w(prt(), probe::Phase::kDetect, ppe);
        for (int i = 0; i < 4; ++i) {
          slots_[i].detect_if->Wait();
          rt_.add_spe_span(probe::Phase::kDetect,
                           std::string("cd:") + slots_[i].name,
                           detect_sent[i], ppe.now_ns());
        }
        break;
      }
      case Scenario::kSharded: {
        analyze_sharded(pixels);
        break;
      }
    }
  }

  AnalysisResult result;
  {
    probe::ProbeSpan span(prt(), probe::Phase::kOutput, ppe, "collect");
    collect(slots_[0], result.color_histogram, result.ch_detect,
            "color_histogram");
    collect(slots_[1], result.color_correlogram, result.cc_detect,
            "color_correlogram");
    collect(slots_[2], result.texture, result.tx_detect, "texture");
    collect(slots_[3], result.edge_histogram, result.eh_detect,
            "edge_histogram");
  }
  if (guard_.enabled) result.degraded = std::move(degraded_current_);
  if (cache_fill && result.degraded.empty()) {
    cache_store(cache_key, result);
  }
  note_image_done();
  finish_request();
  return result;
}

void CellEngine::finish_request() {
  if (probe_ == nullptr || !rt_.active()) return;
  rt_.finish(machine_.ppe().now_ns());
  probe_->on_request(rt_);
}

int CellEngine::guarded_opcode(const FeatureSlot& slot) const {
  bool has_naive = slot.phase != kPhaseTx;
  return static_cast<int>(use_naive_ && has_naive ? kernels::SPU_Run_Naive
                                                  : kernels::SPU_Run);
}

void CellEngine::analyze_guarded_schedule(const img::RgbImage& pixels) {
  // Mirrors the unguarded scenario switch call-for-call so a fault-free
  // guarded run charges identical simulated time; only the completion
  // side differs (Finish() runs the retry loop, and exhausted retries
  // drop to the PPE reference path instead of throwing).
  sim::ScalarContext& ppe = machine_.ppe();
  switch (scenario_) {
    case Scenario::kSingleSPE: {
      for (auto& slot : slots_) {
        port::Profiler::Scope probe(profiler_, slot.phase);
        probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe,
                              slot.name);
        const sim::SimTime sent = ppe.now_ns();
        slot.g_extract->Send(guarded_opcode(slot), slot.msg.ea());
        finish_extract(slot, pixels);
        rt_.add_spe_span(probe::Phase::kExtract, slot.name, sent,
                         ppe.now_ns());
      }
      port::Profiler::Scope probe(profiler_, kPhaseCd);
      probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
      for (auto& slot : slots_) guarded_detect(slot, *g_cd_);
      break;
    }
    case Scenario::kMultiSPE: {
      {
        port::Profiler::Scope probe(profiler_, kPhaseExtractPar);
        sim::SimTime sent[4] = {0, 0, 0, 0};
        {
          probe::ProbeSpan d(prt(), probe::Phase::kDispatch, ppe,
                             "send_extract");
          for (int i = 0; i < 4; ++i) {
            sent[i] = ppe.now_ns();
            slots_[i].g_extract->Send(guarded_opcode(slots_[i]),
                                      slots_[i].msg.ea());
          }
        }
        probe::ProbeSpan w(prt(), probe::Phase::kExtract, ppe);
        for (int i = 0; i < 4; ++i) {
          finish_extract(slots_[i], pixels);
          rt_.add_spe_span(probe::Phase::kExtract, slots_[i].name,
                           sent[i], ppe.now_ns());
        }
      }
      port::Profiler::Scope probe(profiler_, kPhaseDetect);
      probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
      for (auto& slot : slots_) guarded_detect(slot, *g_cd_);
      break;
    }
    case Scenario::kMultiSPE2: {
      port::Profiler::Scope probe(profiler_, kPhaseExtractPar);
      sim::SimTime sent[4] = {0, 0, 0, 0};
      sim::SimTime detect_sent[4] = {0, 0, 0, 0};
      {
        probe::ProbeSpan d(prt(), probe::Phase::kDispatch, ppe,
                           "send_extract");
        for (int i = 0; i < 4; ++i) {
          sent[i] = ppe.now_ns();
          slots_[i].g_extract->Send(guarded_opcode(slots_[i]),
                                    slots_[i].msg.ea());
        }
      }
      {
        probe::ProbeSpan w(prt(), probe::Phase::kExtract, ppe);
        for (int i = 0; i < 4; ++i) {
          finish_extract(slots_[i], pixels);
          rt_.add_spe_span(probe::Phase::kExtract, slots_[i].name,
                           sent[i], ppe.now_ns());
          detect_sent[i] = ppe.now_ns();
          slots_[i].g_detect->Send(static_cast<int>(kernels::SPU_Run),
                                   slots_[i].detect_msg.ea());
        }
      }
      probe::ProbeSpan w(prt(), probe::Phase::kDetect, ppe);
      for (int i = 0; i < 4; ++i) {
        finish_detect(slots_[i], *slots_[i].g_detect);
        rt_.add_spe_span(probe::Phase::kDetect,
                         std::string("cd:") + slots_[i].name,
                         detect_sent[i], ppe.now_ns());
      }
      break;
    }
    case Scenario::kSharded: {
      analyze_sharded(pixels);
      break;
    }
  }
}

// ---- cellshard: the kSharded per-image schedule ----
//
// All shards of all four kernels launch in parallel (the plan sizes the
// counts so they finish together); the PPE then merges raw partials into
// the exact unsharded outputs and fans each slot's detection out over
// the detection interfaces as contiguous model blocks. The guarded
// variant mirrors the unguarded one call-for-call; a shard whose retries
// are exhausted is recomputed on the PPE via the shard mirrors — the
// surviving shards' SPE work is kept.
void CellEngine::analyze_sharded(const img::RgbImage& pixels) {
  sim::ScalarContext& ppe = machine_.ppe();
  {
    port::Profiler::Scope probe(profiler_, kPhaseExtractPar);
    {
      probe::ProbeSpan d(prt(), probe::Phase::kDispatch, ppe,
                         "send_shards");
      send_shards();
    }
    probe::ProbeSpan w(prt(), probe::Phase::kExtract, ppe, "shards");
    wait_shards(pixels);
  }
  {
    port::Profiler::Scope probe(profiler_, kPhaseShardReduce);
    probe::ProbeSpan span(prt(), probe::Phase::kReduce, ppe,
                          "shard_reduce");
    for (int i = 0; i < 4; ++i) reduce_slot(i);
    shard_reduce_counter_->add(1);
  }
  port::Profiler::Scope probe(profiler_, kPhaseDetect);
  probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe, "blocks");
  for (auto& slot : slots_) sharded_detect(slot);
}

void CellEngine::send_shards() {
  shard_send_ns_ = machine_.ppe().now_ns();
  for (auto& slot : slots_) {
    for (std::size_t j = 0; j < slot.shard_msgs.size(); ++j) {
      if (slot.shard_rows[j].empty()) continue;
      if (guard_.enabled) {
        slot.g_shards[j]->Send(static_cast<int>(kernels::SPU_Run),
                               slot.shard_msgs[j].ea());
      } else {
        slot.shard_ifs[j]->Send(static_cast<int>(kernels::SPU_Run),
                                slot.shard_msgs[j].ea());
      }
    }
  }
}

void CellEngine::wait_shards(const img::RgbImage& pixels) {
  sim::ScalarContext& ppe = machine_.ppe();
  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    for (std::size_t j = 0; j < slot.shard_msgs.size(); ++j) {
      if (slot.shard_rows[j].empty()) continue;
      if (guard_.enabled) {
        finish_shard(i, static_cast<int>(j), pixels);
      } else {
        slot.shard_ifs[j]->Wait();
      }
      rt_.add_spe_span(probe::Phase::kExtract,
                       std::string(slot.name) + "[" + std::to_string(j) +
                           "]",
                       shard_send_ns_, ppe.now_ns());
    }
  }
}

void CellEngine::finish_shard(int i, int j, const img::RgbImage& pixels) {
  FeatureSlot& slot = slots_[i];
  const sim::SimTime finish_t0 = machine_.ppe().now_ns();
  guard::GuardedInterface::Result r =
      slot.g_shards[static_cast<std::size_t>(j)]->Finish();
  if (r.attempts > 1) {
    rt_.add_closed(probe::Phase::kGuardRetry,
                   std::string(slot.name) + "[" + std::to_string(j) + "]",
                   finish_t0, machine_.ppe().now_ns());
  }
  if (r.ok) return;
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, machine_.ppe(),
                        std::string("shard:") + slot.name);
  // Recompute just this shard's raw partial on the PPE; the reduction
  // then proceeds as if the SPE had delivered it.
  const shard::Range& range = slot.shard_rows[static_cast<std::size_t>(j)];
  void* part = slot.shard_parts[static_cast<std::size_t>(j)].data();
  switch (i) {
    case shard::kSlotCh:
      shard::ppe_partial_ch(pixels, range,
                            static_cast<std::uint32_t*>(part),
                            &machine_.ppe());
      break;
    case shard::kSlotCc:
      shard::ppe_partial_cc(pixels, range,
                            static_cast<std::uint32_t*>(part),
                            &machine_.ppe());
      break;
    case shard::kSlotTx:
      shard::ppe_partial_tx(pixels, range, static_cast<double*>(part),
                            &machine_.ppe());
      break;
    default:
      shard::ppe_partial_eh(pixels, range,
                            static_cast<std::uint32_t*>(part),
                            &machine_.ppe());
      break;
  }
  note_degraded("shard", slot);
}

void CellEngine::reduce_slot(int i) {
  FeatureSlot& slot = slots_[i];
  reduce_shards(i, slot.shard_rows, slot.shard_parts, slot.msg->width,
                slot.msg->height, slot.out.data(), &machine_.ppe());
}

void CellEngine::reduce_shards(
    int i, const std::vector<shard::Range>& rows,
    const std::vector<cellport::AlignedBuffer<std::uint8_t>>& parts, int w,
    int h, float* out, sim::ScalarContext* ppe) {
  // Empty shards (image smaller than the shard count) contribute nothing
  // and were never dispatched; reduce over the rest.
  std::vector<const std::uint32_t*> counts;
  std::vector<const double*> tiles;
  std::vector<int> tile_doubles;
  for (std::size_t j = 0; j < parts.size(); ++j) {
    if (rows[j].empty()) continue;
    if (i == shard::kSlotTx) {
      tiles.push_back(reinterpret_cast<const double*>(parts[j].data()));
      tile_doubles.push_back(shard::tx_partial_doubles(rows[j]));
    } else {
      counts.push_back(
          reinterpret_cast<const std::uint32_t*>(parts[j].data()));
    }
  }
  reduce_partials(i, counts, tiles, tile_doubles, w, h, out, ppe);
}

void CellEngine::reduce_partials(
    int i, const std::vector<const std::uint32_t*>& counts,
    const std::vector<const double*>& tiles,
    const std::vector<int>& tile_doubles, int w, int h, float* out,
    sim::ScalarContext* ppe) {
  const auto n = static_cast<int>(counts.size());
  switch (i) {
    case shard::kSlotCh:
      shard::reduce_ch(counts.data(), n, w, h, out, ppe);
      break;
    case shard::kSlotCc:
      shard::reduce_cc(counts.data(), n, out, ppe);
      break;
    case shard::kSlotTx:
      shard::reduce_tx(tiles.data(), tile_doubles.data(),
                       static_cast<int>(tiles.size()), w, h, out, ppe);
      break;
    default:
      shard::reduce_eh(counts.data(), n, w, h, out, ppe);
      break;
  }
}

void CellEngine::sharded_detect(FeatureSlot& slot) {
  const auto num_models = static_cast<int>(slot.set->models.size());
  const int d = plan_.detect_spes;
  std::vector<shard::Range> blocks = shard::split_rows(num_models, d);
  machine_.ppe().charge(sim::OpClass::kStore,
                        6 * static_cast<std::uint64_t>(d));
  const sim::SimTime blocks_sent = machine_.ppe().now_ns();
  for (int b = 0; b < d; ++b) {
    if (blocks[static_cast<std::size_t>(b)].empty()) continue;
    kernels::DetectMsg& m = *cd_block_msgs_[static_cast<std::size_t>(b)];
    m = *slot.detect_msg;
    m.model_begin = blocks[static_cast<std::size_t>(b)].begin;
    m.num_models = blocks[static_cast<std::size_t>(b)].count();
    m.scores_ea = reinterpret_cast<std::uint64_t>(
        cd_block_scores_[static_cast<std::size_t>(b)].data());
    if (guard_.enabled) {
      g_cd_shards_[static_cast<std::size_t>(b)]->Send(
          static_cast<int>(kernels::SPU_Run),
          cd_block_msgs_[static_cast<std::size_t>(b)].ea());
    } else {
      cd_shard_ifs_[static_cast<std::size_t>(b)]->Send(
          static_cast<int>(kernels::SPU_Run),
          cd_block_msgs_[static_cast<std::size_t>(b)].ea());
    }
  }
  std::vector<const double*> parts;
  std::vector<int> counts;
  for (int b = 0; b < d; ++b) {
    const shard::Range& block = blocks[static_cast<std::size_t>(b)];
    if (block.empty()) continue;
    if (guard_.enabled) {
      const sim::SimTime finish_t0 = machine_.ppe().now_ns();
      guard::GuardedInterface::Result r =
          g_cd_shards_[static_cast<std::size_t>(b)]->Finish();
      if (r.attempts > 1) {
        rt_.add_closed(probe::Phase::kGuardRetry,
                       std::string("cd[") + std::to_string(b) + "]:" +
                           slot.name,
                       finish_t0, machine_.ppe().now_ns());
      }
      if (!r.ok) {
        probe::ProbeSpan span(prt(), probe::Phase::kFallback,
                              machine_.ppe(),
                              std::string("detect:") + slot.name);
        shard::ppe_detect_block(
            slot.out.data(), slot.dim, *slot.set, block,
            cd_block_scores_[static_cast<std::size_t>(b)].data(),
            &machine_.ppe());
        note_degraded("detect", slot);
      }
    } else {
      cd_shard_ifs_[static_cast<std::size_t>(b)]->Wait();
    }
    rt_.add_spe_span(probe::Phase::kDetect,
                     std::string("cd[") + std::to_string(b) + "]:" +
                         slot.name,
                     blocks_sent, machine_.ppe().now_ns());
    parts.push_back(cd_block_scores_[static_cast<std::size_t>(b)].data());
    counts.push_back(block.count());
  }
  shard::concat_scores(parts.data(), counts.data(),
                       static_cast<int>(parts.size()), slot.scores.data(),
                       &machine_.ppe());
}

// ---- cellfuse: the fused per-image schedule ----
//
// One single-pass kernel invocation per lane replaces the four
// per-feature invocations: each lane streams its tile-aligned row range
// once — one HSV quantization, one gray conversion — and emits all four
// raw-partial layouts in one blob (kernels/messages.h). The PPE merges
// the blobs' sections with the same cellshard reducers the sharded
// scenario uses, so fused results are bit-exact with the per-feature
// kernels; detection then runs the scenario's normal schedule.

std::vector<FusedLane> CellEngine::fused_lanes() {
  std::vector<FusedLane> lanes;
  if (scenario_ == Scenario::kSharded) {
    // Slot-major over the extract-shard SPEs (every extract module
    // carries the fused body), capped at the planned lane count — past
    // that, the marginal lane costs more in per-lane overhead than it
    // saves in span (shard::plan_fused).
    for (auto& slot : slots_) {
      if (guard_.enabled) {
        for (auto& g : slot.g_shards) lanes.push_back({nullptr, g.get()});
      } else {
        for (auto& f : slot.shard_ifs) lanes.push_back({f.get(), nullptr});
      }
    }
    const auto cap = static_cast<std::size_t>(fused_plan_.lanes);
    if (lanes.size() > cap) lanes.resize(cap);
  } else if (scenario_ == Scenario::kSingleSPE) {
    if (guard_.enabled) {
      lanes.push_back({nullptr, slots_[0].g_extract.get()});
    } else {
      lanes.push_back({slots_[0].extract_if, nullptr});
    }
  } else {
    for (auto& slot : slots_) {
      if (guard_.enabled) {
        lanes.push_back({nullptr, slot.g_extract.get()});
      } else {
        lanes.push_back({slot.extract_if, nullptr});
      }
    }
  }
  return lanes;
}

void CellEngine::prepare_fused(const img::RgbImage& pixels) {
  const int h = pixels.height();
  // Same precondition as the TX kernel: every wavelet level must split
  // (a fused lane always computes the texture alongside the row-granular
  // features).
  if (pixels.width() < (1 << features::kTextureLevels) ||
      h < (1 << features::kTextureLevels)) {
    throw cellport::ConfigError(
        "image too small for the 4-level wavelet texture");
  }
  // A balanced engine splits the image into more, smaller task ranges
  // than lanes; the fused_* members then hold one entry per task.
  const auto lanes = static_cast<int>(fused_lanes().size());
  fused_rows_ = balanced_ ? balance::split_tasks(h, lanes)
                          : shard::split_fused(h, lanes);
  const std::size_t n = fused_rows_.size();
  if (fused_msgs_.size() < n) {
    fused_msgs_ =
        std::vector<port::WrappedMessage<kernels::ImageMsg>>(n);
  }
  if (fused_parts_.size() < n) fused_parts_.resize(n);
  std::uint64_t stores = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const shard::Range& r = fused_rows_[j];
    if (r.empty()) continue;
    const std::size_t bytes =
        kernels::fused_partial_bytes(pixels.width(), h, r.begin, r.end);
    if (fused_parts_[j].bytes() < bytes) {
      fused_parts_[j] = cellport::AlignedBuffer<std::uint8_t>(bytes);
    }
    kernels::ImageMsg& m = *fused_msgs_[j];
    m = *slots_[0].msg;
    m.row_begin = r.begin;
    m.row_end = r.end;
    m.out_ea = reinterpret_cast<std::uint64_t>(fused_parts_[j].data());
    stores += 4;
  }
  machine_.ppe().charge(sim::OpClass::kStore, stores);
}

void CellEngine::analyze_fused(const img::RgbImage& pixels) {
  sim::ScalarContext& ppe = machine_.ppe();
  {
    port::Profiler::Scope probe(profiler_, kPhaseExtractPar);
    {
      probe::ProbeSpan d(prt(), probe::Phase::kDispatch, ppe,
                         "send_fused");
      send_fused();
    }
    probe::ProbeSpan w(prt(), probe::Phase::kExtract, ppe, "fused_lanes");
    wait_fused(pixels);
  }
  {
    port::Profiler::Scope probe(profiler_, kPhaseShardReduce);
    reduce_fused_slots();
  }
  port::Profiler::Scope probe(profiler_, kPhaseDetect);
  fused_detect();
}

void CellEngine::send_fused() {
  fused_send_ns_ = machine_.ppe().now_ns();
  std::vector<FusedLane> lanes = fused_lanes();
  const auto op = static_cast<int>(kernels::SPU_Run_Fused);
  for (std::size_t j = 0; j < lanes.size(); ++j) {
    if (fused_rows_[j].empty()) continue;
    if (lanes[j].gi != nullptr) {
      lanes[j].gi->Send(op, fused_msgs_[j].ea());
    } else {
      lanes[j].iface->Send(op, fused_msgs_[j].ea());
    }
  }
}

void CellEngine::wait_fused(const img::RgbImage& pixels) {
  sim::ScalarContext& ppe = machine_.ppe();
  std::vector<FusedLane> lanes = fused_lanes();
  for (std::size_t j = 0; j < lanes.size(); ++j) {
    if (fused_rows_[j].empty()) continue;
    if (lanes[j].gi != nullptr) {
      const sim::SimTime finish_t0 = ppe.now_ns();
      guard::GuardedInterface::Result r = lanes[j].gi->Finish();
      if (r.attempts > 1) {
        rt_.add_closed(probe::Phase::kGuardRetry,
                       "fused[" + std::to_string(j) + "]", finish_t0,
                       ppe.now_ns());
      }
      if (!r.ok) fused_fallback_lane(j, pixels);
    } else {
      try {
        lanes[j].iface->Wait();
      } catch (const cellport::Error&) {
        // An unguarded kernel fault aborts the image. Collect every
        // other lane still in flight first (best effort: the first error
        // is the one reported), so the next call can Send again.
        for (std::size_t k = j + 1; k < lanes.size(); ++k) {
          if (!lanes[k].iface->busy()) continue;
          try {
            lanes[k].iface->Wait();
          } catch (const cellport::Error&) {
          }
        }
        throw;
      }
    }
    rt_.add_spe_span(probe::Phase::kExtract,
                     "fused[" + std::to_string(j) + "]", fused_send_ns_,
                     ppe.now_ns());
  }
}

void CellEngine::fused_fallback_lane(std::size_t j,
                                     const img::RgbImage& pixels) {
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, machine_.ppe(),
                        "fuse[" + std::to_string(j) + "]");
  mirror_fused_range(pixels, fused_rows_[j], fused_parts_[j].data(),
                     &machine_.ppe());
  for (auto& slot : slots_) note_degraded("fuse", slot);
}

void CellEngine::mirror_fused_range(const img::RgbImage& pixels,
                                    const shard::Range& range,
                                    std::uint8_t* blob,
                                    sim::ScalarContext* ppe) {
  // The reduction can't tell these sections from SPE-delivered bytes.
  auto* words = reinterpret_cast<std::uint32_t*>(blob);
  shard::ppe_partial_ch(pixels, range, words, ppe);
  shard::ppe_partial_cc(pixels, range, words + kernels::kFusedCcOffset,
                        ppe);
  shard::ppe_partial_eh(pixels, range, words + kernels::kFusedEhOffset,
                        ppe);
  const int heff = 2 * (pixels.height() / 2);
  const shard::Range tx_rows{range.begin, std::min(range.end, heff)};
  if (!tx_rows.empty()) {
    shard::ppe_partial_tx(
        pixels, tx_rows,
        reinterpret_cast<double*>(blob + kernels::kFusedCountBytes), ppe);
  }
}

void CellEngine::reduce_fused(
    int i, const std::vector<shard::Range>& rows,
    const std::vector<cellport::AlignedBuffer<std::uint8_t>>& parts, int w,
    int h, float* out, sim::ScalarContext* ppe) {
  std::vector<const std::uint32_t*> counts;
  std::vector<const double*> tiles;
  std::vector<int> tile_doubles;
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const shard::Range& r = rows[j];
    if (r.empty()) continue;
    const auto* words =
        reinterpret_cast<const std::uint32_t*>(parts[j].data());
    switch (i) {
      case shard::kSlotCh:
        counts.push_back(words);
        break;
      case shard::kSlotCc:
        counts.push_back(words + kernels::kFusedCcOffset);
        break;
      case shard::kSlotTx:
        tiles.push_back(reinterpret_cast<const double*>(
            parts[j].data() + kernels::kFusedCountBytes));
        tile_doubles.push_back(
            kernels::fused_tx_doubles(w, h, r.begin, r.end));
        break;
      default:
        counts.push_back(words + kernels::kFusedEhOffset);
        break;
    }
  }
  reduce_partials(i, counts, tiles, tile_doubles, w, h, out, ppe);
}

void CellEngine::reduce_fused_slots() {
  probe::ProbeSpan span(prt(), probe::Phase::kReduce, machine_.ppe(),
                        "fuse_reduce");
  for (int i = 0; i < 4; ++i) {
    reduce_fused(i, fused_rows_, fused_parts_, slots_[0].msg->width,
                 slots_[0].msg->height, slots_[i].out.data(),
                 &machine_.ppe());
  }
  fuse_images_counter_->add(1);
}

void CellEngine::fused_detect() {
  sim::ScalarContext& ppe = machine_.ppe();
  if (scenario_ == Scenario::kSharded) {
    probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe, "blocks");
    for (auto& slot : slots_) sharded_detect(slot);
    return;
  }
  probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
  if (scenario_ == Scenario::kMultiSPE2) {
    sim::SimTime detect_sent[4] = {0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      detect_sent[i] = ppe.now_ns();
      if (guard_.enabled) {
        slots_[i].g_detect->Send(static_cast<int>(kernels::SPU_Run),
                                 slots_[i].detect_msg.ea());
      } else {
        slots_[i].detect_if->Send(static_cast<int>(kernels::SPU_Run),
                                  slots_[i].detect_msg.ea());
      }
    }
    for (int i = 0; i < 4; ++i) {
      if (guard_.enabled) {
        finish_detect(slots_[i], *slots_[i].g_detect);
      } else {
        slots_[i].detect_if->Wait();
      }
      rt_.add_spe_span(probe::Phase::kDetect,
                       std::string("cd:") + slots_[i].name,
                       detect_sent[i], ppe.now_ns());
    }
    return;
  }
  for (auto& slot : slots_) {
    if (guard_.enabled) {
      guarded_detect(slot, *g_cd_);
    } else {
      const sim::SimTime sent = ppe.now_ns();
      run_detection(slot, *cd_if_);
      rt_.add_spe_span(probe::Phase::kDetect,
                       std::string("cd:") + slot.name, sent,
                       ppe.now_ns());
    }
  }
}

// ---- cellbalance: steal-driven fused dispatch + the content cache ----
//
// The balanced schedule is the fused schedule with MORE, smaller tasks
// than lanes: the fused_* members hold one entry per TASK instead of one
// per lane, so the reducers and the PPE mirror work verbatim — reduction
// still walks fused_rows_ in ascending row order, which is exactly the
// order a static plan reduces, keeping stolen-work results bit-identical.

void CellEngine::set_balanced(bool on) {
  balanced_ = on;
  if (on && steal_tasks_counter_ == nullptr) {
    auto& m = machine_.metrics();
    steal_tasks_counter_ = &m.counter("steal.tasks");
    steal_arms_counter_ = &m.counter("steal.arms");
    steal_steals_counter_ = &m.counter("steal.steals");
  }
}

void CellEngine::analyze_balanced(const img::RgbImage& pixels) {
  {
    port::Profiler::Scope probe(profiler_, kPhaseExtractPar);
    StealLoop loop(machine_.ppe(), prt(), fused_lanes(),
                   [this, &pixels](std::size_t, std::size_t t) {
                     fused_fallback_lane(t, pixels);
                   });
    loop.push(0, fused_rows_, fused_msgs_);
    loop.drain(0);
    tally_steals(loop);
  }
  {
    port::Profiler::Scope probe(profiler_, kPhaseShardReduce);
    reduce_fused_slots();
  }
  port::Profiler::Scope probe(profiler_, kPhaseDetect);
  fused_detect();
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

void CellEngine::finish_extract(FeatureSlot& slot,
                                const img::RgbImage& pixels) {
  const sim::SimTime finish_t0 = machine_.ppe().now_ns();
  guard::GuardedInterface::Result r = slot.g_extract->Finish();
  if (r.attempts > 1) {
    rt_.add_closed(probe::Phase::kGuardRetry, slot.name, finish_t0,
                   machine_.ppe().now_ns());
  }
  if (!r.ok) fallback_extract(slot, pixels);
}

void CellEngine::fallback_extract(FeatureSlot& slot,
                                  const img::RgbImage& pixels) {
  // Recompute on the PPE scalar path and land the values in the slot's
  // output buffer, where the (possibly still SPE-hosted) detection and
  // collect() expect them.
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, machine_.ppe(),
                        std::string("extract:") + slot.name);
  features::FeatureVector fv = slot.ref_extract(pixels, &machine_.ppe());
  machine_.ppe().charge(sim::OpClass::kStore,
                        static_cast<std::uint64_t>(slot.dim));
  std::memcpy(slot.out.data(), fv.values.data(),
              static_cast<std::size_t>(slot.dim) * sizeof(float));
  note_degraded("extract", slot);
}

void CellEngine::guarded_detect(FeatureSlot& slot,
                                guard::GuardedInterface& gi) {
  const sim::SimTime sent = machine_.ppe().now_ns();
  gi.Send(static_cast<int>(kernels::SPU_Run), slot.detect_msg.ea());
  finish_detect(slot, gi);
  rt_.add_spe_span(probe::Phase::kDetect,
                   std::string("cd:") + slot.name, sent,
                   machine_.ppe().now_ns());
}

void CellEngine::finish_detect(FeatureSlot& slot,
                               guard::GuardedInterface& gi) {
  const sim::SimTime finish_t0 = machine_.ppe().now_ns();
  guard::GuardedInterface::Result r = gi.Finish();
  if (r.attempts > 1) {
    rt_.add_closed(probe::Phase::kGuardRetry,
                   std::string("cd:") + slot.name, finish_t0,
                   machine_.ppe().now_ns());
  }
  if (!r.ok) fallback_detect(slot);
}

void CellEngine::fallback_detect(FeatureSlot& slot) {
  // Score against the models on the PPE, reading whatever feature values
  // are in the slot buffer (SPE-extracted or themselves a fallback).
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, machine_.ppe(),
                        std::string("detect:") + slot.name);
  features::FeatureVector fv;
  fv.name = slot.name;
  fv.values.assign(slot.out.data(), slot.out.data() + slot.dim);
  DetectionScores scores =
      reference_detect(fv, *slot.set, &machine_.ppe());
  machine_.ppe().charge(sim::OpClass::kStore,
                        static_cast<std::uint64_t>(scores.values.size()));
  std::memcpy(slot.scores.data(), scores.values.data(),
              scores.values.size() * sizeof(double));
  note_degraded("detect", slot);
}

void CellEngine::note_degraded(const char* stage, const FeatureSlot& slot) {
  degraded_current_.push_back(std::string(stage) + ":" + slot.name);
  fallback_counter_->add(1);
  sim::ScalarContext& ppe = machine_.ppe();
  if (ppe.trace_on()) {
    ppe.trace_track()->instant(trace::Category::kRuntime,
                               "ppe_fallback:" + degraded_current_.back(),
                               ppe.now_ns(), "count",
                               fallback_counter_->value());
  }
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
  auto decode = [&](const img::SicEncoded& image) { return ingest(image); };

  // Two pixel buffers alternate: the SPEs read `current` while the PPE
  // decodes into the other slot. Probing treats each loop iteration as
  // one request; the overlapped decode of image i+1 lands in request
  // i's kDecode phase — that is where the PPE's time really went.
  if (probe_ != nullptr) rt_.start("pipelined", ppe.now_ns());
  img::RgbImage current = decode(*images[0]);
  // Balanced: image i is owner i of one steal loop; its tasks are pushed
  // before the overlapped decode and drained after it.
  std::optional<StealLoop> loop;
  if (balanced_) {
    loop.emplace(ppe, prt(), fused_lanes(),
                 [this, &current](std::size_t, std::size_t t) {
                   fused_fallback_lane(t, current);
                 });
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (probe_ != nullptr && !rt_.active()) {
      rt_.start("pipelined", ppe.now_ns());
    }
    {
      probe::ProbeSpan span(prt(), probe::Phase::kPrepare, ppe,
                            "fill_msgs");
      for (auto& slot : slots_) fill_image_msg(slot, current);
      if (fused_ || balanced_) {
        prepare_fused(current);
      } else if (scenario_ == Scenario::kSharded) {
        prepare_shards(current);
      }
    }
    if (guard_.enabled) {
      // Feed fallbacks for `current` were staged when it was decoded
      // (one iteration ago, overlapping the previous image's kernels).
      degraded_current_ = std::move(feed_pending_degraded_);
      feed_pending_degraded_.clear();
    }
    sim::SimTime sent[4] = {0, 0, 0, 0};
    {
      probe::ProbeSpan span(prt(), probe::Phase::kDispatch, ppe,
                            "send_extract");
      if (balanced_) {
        loop->push(i, fused_rows_, fused_msgs_);
      } else if (fused_) {
        send_fused();
      } else if (scenario_ == Scenario::kSharded) {
        send_shards();
      } else {
        for (int s = 0; s < 4; ++s) {
          FeatureSlot& slot = slots_[s];
          sent[s] = ppe.now_ns();
          if (guard_.enabled) {
            slot.g_extract->Send(static_cast<int>(kernels::SPU_Run),
                                 slot.msg.ea());
          } else {
            slot.extract_if->Send(static_cast<int>(kernels::SPU_Run),
                                  slot.msg.ea());
          }
        }
      }
    }
    // PPE work overlaps the SPE kernels: decode the next image now.
    img::RgbImage next;
    if (i + 1 < images.size()) next = decode(*images[i + 1]);

    if (balanced_ || fused_) {
      if (balanced_) {
        loop->drain(i);
      } else {
        probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe,
                              "fused_lanes");
        wait_fused(current);
      }
      reduce_fused_slots();
      fused_detect();
    } else if (scenario_ == Scenario::kSharded) {
      {
        probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe,
                              "shards");
        wait_shards(current);
      }
      {
        probe::ProbeSpan span(prt(), probe::Phase::kReduce, ppe,
                              "shard_reduce");
        for (int si = 0; si < 4; ++si) reduce_slot(si);
        shard_reduce_counter_->add(1);
      }
      probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe, "blocks");
      for (auto& slot : slots_) sharded_detect(slot);
    } else if (guard_.enabled) {
      if (scenario_ == Scenario::kMultiSPE2) {
        sim::SimTime detect_sent[4] = {0, 0, 0, 0};
        {
          probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe);
          for (int s = 0; s < 4; ++s) {
            FeatureSlot& slot = slots_[s];
            finish_extract(slot, current);
            detect_sent[s] = ppe.now_ns();
            slot.g_detect->Send(static_cast<int>(kernels::SPU_Run),
                                slot.detect_msg.ea());
          }
        }
        probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
        for (int s = 0; s < 4; ++s) {
          FeatureSlot& slot = slots_[s];
          finish_detect(slot, *slot.g_detect);
          rt_.add_spe_span(probe::Phase::kDetect,
                           std::string("cd:") + slot.name,
                           detect_sent[s], ppe.now_ns());
        }
      } else {
        {
          probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe);
          for (auto& slot : slots_) finish_extract(slot, current);
        }
        probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
        for (auto& slot : slots_) guarded_detect(slot, *g_cd_);
      }
    } else if (scenario_ == Scenario::kMultiSPE2) {
      sim::SimTime detect_sent[4] = {0, 0, 0, 0};
      {
        probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe);
        for (int s = 0; s < 4; ++s) {
          FeatureSlot& slot = slots_[s];
          slot.extract_if->Wait();
          rt_.add_spe_span(probe::Phase::kExtract, slot.name, sent[s],
                           ppe.now_ns());
          detect_sent[s] = ppe.now_ns();
          slot.detect_if->Send(static_cast<int>(kernels::SPU_Run),
                               slot.detect_msg.ea());
        }
      }
      probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
      for (int s = 0; s < 4; ++s) {
        slots_[s].detect_if->Wait();
        rt_.add_spe_span(probe::Phase::kDetect,
                         std::string("cd:") + slots_[s].name,
                         detect_sent[s], ppe.now_ns());
      }
    } else {
      {
        probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe);
        for (int s = 0; s < 4; ++s) {
          slots_[s].extract_if->Wait();
          rt_.add_spe_span(probe::Phase::kExtract, slots_[s].name,
                           sent[s], ppe.now_ns());
        }
      }
      probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
      for (auto& slot : slots_) {
        const sim::SimTime d_sent = ppe.now_ns();
        run_detection(slot, *cd_if_);
        rt_.add_spe_span(probe::Phase::kDetect,
                         std::string("cd:") + slot.name, d_sent,
                         ppe.now_ns());
      }
    }

    AnalysisResult result;
    {
      probe::ProbeSpan span(prt(), probe::Phase::kOutput, ppe, "collect");
      collect(slots_[0], result.color_histogram, result.ch_detect,
              "color_histogram");
      collect(slots_[1], result.color_correlogram, result.cc_detect,
              "color_correlogram");
      collect(slots_[2], result.texture, result.tx_detect, "texture");
      collect(slots_[3], result.edge_histogram, result.eh_detect,
              "edge_histogram");
    }
    if (guard_.enabled) result.degraded = std::move(degraded_current_);
    note_image_done();
    finish_request();
    results.push_back(std::move(result));
    if (i + 1 < images.size()) current = std::move(next);
  }
  if (loop) tally_steals(*loop);
  return results;
}

}  // namespace cellport::marvel
