#include "marvel/stream_engine.h"

#include <algorithm>
#include <cstring>

#include "features/texture.h"
#include "shard/mirror.h"
#include "shard/reducer.h"
#include "support/error.h"

namespace cellport::marvel {

namespace {

std::size_t padded_dim(int dim) {
  return cellport::round_up(static_cast<std::size_t>(dim), 8);
}

}  // namespace

StreamEngine::StreamEngine(CellEngine& engine, const StreamOptions& opts)
    : engine_(engine), opts_(opts) {
  if (opts_.batch < 1 || opts_.batch > 128) {
    throw cellport::ConfigError("stream batch must be 1..128");
  }
  // Scenario 1 stays sequential (each kernel's work retires before the
  // next starts); opts_.sequential means "no decode-ahead" on every flow.
  const bool overlap =
      !opts_.sequential && engine_.scenario_ != Scenario::kSingleSPE;
  pipelined_ = overlap && !engine_.guard_.enabled && !engine_.balanced_;
  decode_ahead_ = overlap && engine_.balanced_;
  if (engine_.guard_.enabled) {
    guard_deadline_ns_ = engine_.guard_.retry.deadline_ns;
  }
  const bool sharded = engine_.scenario_ == Scenario::kSharded;
  for (int s = 0; s < 4; ++s) {
    // cellserve degrade ladder: score only a prefix of each slot's model
    // set. The clamp lands once, here, and every path below (detect
    // messages, shard blocks, fallbacks, collect) reads scored_models_.
    const auto full =
        static_cast<int>(engine_.slots_[s].set->models.size());
    scored_models_[s] =
        opts_.max_models > 0 ? std::min(full, opts_.max_models) : full;
    if (sharded) {
      cd_blocks_[s] =
          shard::split_rows(scored_models_[s], engine_.plan_.detect_spes);
    }
  }
  // Raw-partial bytes per shard (TX is tile-count dependent and (re)sized
  // in prepare_image; see CellEngine::setup_sharding).
  const std::size_t part_bytes[4] = {
      kernels::kShardChWords * sizeof(std::uint32_t),
      kernels::kShardCcWords * sizeof(std::uint32_t),
      0,
      kernels::kShardEhWords * sizeof(std::uint32_t),
  };
  const std::size_t in_flight =
      engine_.balanced_ ? (decode_ahead_ ? 2u : 1u)
                        : static_cast<std::size_t>(opts_.batch) *
                              (pipelined_ ? 2u : 1u);
  bufs_.reserve(in_flight);
  for (std::size_t j = 0; j < in_flight; ++j) {
    auto pi = std::make_unique<PerImage>();
    for (int s = 0; s < 4; ++s) {
      CellEngine::FeatureSlot& slot = engine_.slots_[s];
      SlotBuf& sb = pi->sb[s];
      sb.out = cellport::AlignedBuffer<float>(padded_dim(slot.dim));
      sb.scores = cellport::AlignedBuffer<double>(slot.scores.size());
      // The detection message is static per buffer: it reads this
      // buffer's feature vector and writes this buffer's scores. The
      // model descriptors stay shared, read-only, with the engine.
      kernels::DetectMsg& dm = *sb.detect_msg;
      dm = *slot.detect_msg;
      dm.num_models = scored_models_[s];
      dm.feature_ea = reinterpret_cast<std::uint64_t>(sb.out.data());
      dm.scores_ea = reinterpret_cast<std::uint64_t>(sb.scores.data());
      if (!sharded) continue;
      const auto n =
          static_cast<std::size_t>(engine_.plan_.extract_shards[s]);
      sb.shard_msgs =
          std::vector<port::WrappedMessage<kernels::ImageMsg>>(n);
      sb.shard_parts.resize(n);
      if (part_bytes[s] > 0) {
        for (auto& p : sb.shard_parts) {
          p = cellport::AlignedBuffer<std::uint8_t>(part_bytes[s]);
        }
      }
      // Detection block staging is static per buffer like detect_msg:
      // the block split depends only on the model count.
      const auto d = static_cast<std::size_t>(engine_.plan_.detect_spes);
      sb.block_msgs =
          std::vector<port::WrappedMessage<kernels::DetectMsg>>(d);
      sb.block_scores.resize(d);
      for (std::size_t b = 0; b < d; ++b) {
        const shard::Range& block = cd_blocks_[s][b];
        sb.block_scores[b] =
            cellport::AlignedBuffer<double>(sb.scores.size());
        if (block.empty()) continue;
        kernels::DetectMsg& bm = *sb.block_msgs[b];
        bm = dm;
        bm.model_begin = block.begin;
        bm.num_models = block.count();
        bm.scores_ea =
            reinterpret_cast<std::uint64_t>(sb.block_scores[b].data());
      }
    }
    bufs_.push_back(std::move(pi));
  }
}

port::SPEInterface* StreamEngine::ensure_ring(port::SPEInterface* iface,
                                              std::uint32_t cap) {
  if (iface == nullptr) return nullptr;
  if (cap < 2) cap = 2;
  if (!iface->ring_configured()) {
    iface->set_ring_capacity(cap);
  } else if (iface->ring_capacity() < cap) {
    throw cellport::ConfigError(
        "stream ring smaller than the window needs");
  }
  return iface;
}

StreamEngine::Window StreamEngine::window(std::size_t w,
                                          std::size_t total) {
  const auto B = static_cast<std::size_t>(opts_.batch);
  const std::size_t base = pipelined_ ? (w % 2) * B : 0;
  Window win(std::min(B, total - w * B));
  for (std::size_t j = 0; j < win.size(); ++j) {
    win[j] = bufs_[base + j].get();
  }
  return win;
}

void StreamEngine::prepare_image(
    PerImage& pi, const img::SicEncoded& image,
    const std::function<void()>& between_slices, StealLoop* loop,
    std::size_t owner) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  pi.pixels = engine_.ingest(image, between_slices, std::move(pi.pixels),
                             loop, owner);
  // cellfeed and celldecode fallbacks staged during ingest() belong to
  // this image.
  pi.degraded = std::move(engine_.feed_pending_degraded_);
  engine_.feed_pending_degraded_.clear();
  stats_.fallbacks += pi.degraded.size();
  for (int s = 0; s < 4; ++s) {
    // Listing 4's FILL_MSG_FROM_COLORIMAGE, against this buffer's private
    // message.
    ppe.charge(sim::OpClass::kStore, 12);
    kernels::ImageMsg& m = *pi.sb[s].msg;
    m.pixels_ea = reinterpret_cast<std::uint64_t>(pi.pixels.data());
    m.width = pi.pixels.width();
    m.height = pi.pixels.height();
    m.stride = pi.pixels.stride();
    m.buffering = engine_.buffering_;
    m.out_ea = reinterpret_cast<std::uint64_t>(pi.sb[s].out.data());
    m.out_count = engine_.slots_[s].dim;
  }
  if (engine_.fused_ || engine_.balanced_) {
    // cellfuse: extraction rides fused lanes instead of the feature
    // slots. Same small-image precondition as CellEngine::prepare_fused
    // (a fused lane always computes the wavelet texture). cellbalance
    // reuses the lane machinery at TASK granularity: the descriptor
    // split is tile-aligned and finer than the lane count, so lanes
    // can steal across it (and across images) in the wait phase.
    const int ih = pi.pixels.height();
    if (pi.pixels.width() < (1 << features::kTextureLevels) ||
        ih < (1 << features::kTextureLevels)) {
      throw cellport::ConfigError(
          "image too small for the 4-level wavelet texture");
    }
    const auto lanes_n = static_cast<int>(engine_.fused_lanes_.size());
    pi.fused_rows = engine_.balanced_
                        ? balance::split_tasks(ih, lanes_n)
                        : shard::split_fused(ih, lanes_n);
    const std::size_t n = pi.fused_rows.size();
    if (pi.fused_msgs.size() < n) {
      pi.fused_msgs =
          std::vector<port::WrappedMessage<kernels::ImageMsg>>(n);
    }
    if (pi.fused_parts.size() < n) pi.fused_parts.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const shard::Range& r = pi.fused_rows[k];
      if (r.empty()) continue;
      const std::size_t bytes = kernels::fused_partial_bytes(
          pi.pixels.width(), ih, r.begin, r.end);
      if (pi.fused_parts[k].bytes() < bytes) {
        pi.fused_parts[k] =
            cellport::AlignedBuffer<std::uint8_t>(bytes);
      }
      ppe.charge(sim::OpClass::kStore, 4);
      kernels::ImageMsg& m = *pi.fused_msgs[k];
      m = *pi.sb[0].msg;
      m.row_begin = r.begin;
      m.row_end = r.end;
      m.out_ea = reinterpret_cast<std::uint64_t>(pi.fused_parts[k].data());
    }
    return;
  }
  if (engine_.scenario_ != Scenario::kSharded) return;
  // cellshard: the shard plan is fixed, the ranges follow this image's
  // shape. Each shard message is the slot message plus its row range,
  // writing the raw partial instead of the feature vector.
  for (int s = 0; s < 4; ++s) {
    SlotBuf& sb = pi.sb[s];
    const int n = engine_.plan_.extract_shards[s];
    sb.shard_rows = s == shard::kSlotTx
                        ? shard::split_tiles(pi.pixels.height(), n)
                        : shard::split_rows(pi.pixels.height(), n);
    for (int k = 0; k < n; ++k) {
      const shard::Range& r = sb.shard_rows[static_cast<std::size_t>(k)];
      if (r.empty()) continue;
      if (s == shard::kSlotTx) {
        const auto bytes = static_cast<std::size_t>(
                               shard::tx_partial_doubles(r)) *
                           sizeof(double);
        auto& part = sb.shard_parts[static_cast<std::size_t>(k)];
        if (part.bytes() < bytes) {
          part = cellport::AlignedBuffer<std::uint8_t>(bytes);
        }
      }
      ppe.charge(sim::OpClass::kStore, 4);
      kernels::ImageMsg& m = *sb.shard_msgs[static_cast<std::size_t>(k)];
      m = *sb.msg;
      m.row_begin = r.begin;
      m.row_end = r.end;
      m.out_ea = reinterpret_cast<std::uint64_t>(
          sb.shard_parts[static_cast<std::size_t>(k)].data());
    }
  }
}

void StreamEngine::abandon_rings() {
  for (const Lane& lane : engine_.lanes_) {
    port::SPEInterface* iface = lane.ring();
    while (iface != nullptr && iface->ring_batches_in_flight() > 0) {
      try {
        if (!iface->WaitBatch(nullptr, -1)) iface->reclaim();
      } catch (const cellport::Error&) {
        // A faulted batch is still collected; the stream is aborting.
      }
    }
  }
}

int StreamEngine::flush_ring(port::SPEInterface* iface) {
  int n = iface->FlushBatch();
  if (n > 0) ++stats_.doorbells;
  return n;
}

template <typename Rerun>
void StreamEngine::wait_batch(port::SPEInterface* iface, std::size_t n,
                              const char* stage, const Rerun& rerun) {
  std::vector<int> res;
  const sim::SimTime timeout =
      guard_deadline_ns_ > 0
          ? guard_deadline_ns_ * static_cast<sim::SimTime>(n)
          : -1;
  // A closed guarded interface (every candidate SPE quarantined) or a
  // missed batch deadline: the guard's per-call loop still yields
  // verdicts, which drop to the PPE reference path.
  const bool lost = iface == nullptr || !iface->WaitBatch(&res, timeout);
  if (lost && iface != nullptr) {
    ++stats_.batch_timeouts;
    iface->reclaim();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!lost && res[i] != port::SPEInterface::kRingFault) continue;
    if (!lost && !engine_.guard_.enabled) throw_ring_fault(stage, iface);
    rerun(i);
  }
}

void StreamEngine::flush_shard_slot(const Window& win, int s) {
  const std::size_t count = win.size();
  const auto cap = static_cast<std::uint32_t>(opts_.batch) *
                   (pipelined_ ? 2u : 1u);
  const auto spu_run = static_cast<int>(kernels::SPU_Run);
  for (int k = 0; k < engine_.plan_.extract_shards[s]; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    // A ring is armed only on a shard the window gives rows to: arming
    // costs the SPE a descriptor fetch no request would wait for.
    if (std::none_of(win.begin(), win.end(), [&](const PerImage* pi) {
          return !pi->sb[s].shard_rows[kk].empty();
        })) {
      continue;
    }
    port::SPEInterface* iface =
        ensure_ring(engine_.slots_[s].shards[kk].ring(), cap);
    if (iface == nullptr) continue;  // guarded + closed: wait resolves it
    for (std::size_t j = 0; j < count; ++j) {
      SlotBuf& sb = win[j]->sb[s];
      if (sb.shard_rows[kk].empty()) continue;
      iface->Enqueue(spu_run, sb.shard_msgs[kk].ea());
    }
    flush_ring(iface);
  }
}

void StreamEngine::wait_shard_slot(const Window& win, int s) {
  for (int k = 0; k < engine_.plan_.extract_shards[s]; ++k) {
    // The requests this shard's ring actually carries for this window
    // (empty ranges were never enqueued).
    Window live;
    for (PerImage* pi : win) {
      if (!pi->sb[s].shard_rows[static_cast<std::size_t>(k)].empty()) {
        live.push_back(pi);
      }
    }
    if (live.empty()) continue;
    wait_batch(engine_.slots_[s].shards[static_cast<std::size_t>(k)].ring(),
               live.size(), "shard extract",
               [&](std::size_t i) { rerun_shard(s, k, *live[i]); });
  }
}

void StreamEngine::reduce_window(const Window& win) {
  sim::ScalarContext* ppe = &engine_.machine_.ppe();
  for (PerImage* p : win) {
    PerImage& pi = *p;
    for (int s = 0; s < 4; ++s) {
      SlotBuf& sb = pi.sb[s];
      CellEngine::reduce_shards(s, sb.shard_rows, sb.shard_parts,
                                pi.pixels.width(), pi.pixels.height(),
                                sb.out.data(), ppe);
    }
    engine_.shard_reduce_counter_->add(1);
  }
}

void StreamEngine::run_detect_sharded(const Window& win) {
  const std::size_t count = win.size();
  const auto spu_run = static_cast<int>(kernels::SPU_Run);
  const auto cap = static_cast<std::uint32_t>(opts_.batch) * 4u;
  // Detection interface b carries block b of EVERY slot's model set —
  // 4 * count requests behind one doorbell.
  for (int b = 0; b < engine_.plan_.detect_spes; ++b) {
    std::vector<std::pair<std::size_t, int>> live;  // (image, slot)
    for (std::size_t j = 0; j < count; ++j) {
      for (int s = 0; s < 4; ++s) {
        if (!cd_blocks_[s][static_cast<std::size_t>(b)].empty()) {
          live.emplace_back(j, s);
        }
      }
    }
    if (live.empty()) continue;
    const auto bi = static_cast<std::size_t>(b);
    port::SPEInterface* iface = engine_.cd_block_lanes_[bi].ring();
    if (iface != nullptr) {
      ensure_ring(iface, cap);
      for (const auto& [j, s] : live) {
        iface->Enqueue(spu_run, win[j]->sb[s].block_msgs[bi].ea());
      }
      flush_ring(iface);
    }
    wait_batch(iface, live.size(), "shard detect", [&](std::size_t i) {
      rerun_detect_block(live[i].second, b, *win[live[i].first]);
    });
  }
  // Concatenate the staged blocks into each image's score arrays.
  sim::ScalarContext* ppe = &engine_.machine_.ppe();
  for (std::size_t j = 0; j < count; ++j) {
    for (int s = 0; s < 4; ++s) {
      SlotBuf& sb = win[j]->sb[s];
      std::vector<const double*> parts;
      std::vector<int> counts;
      for (std::size_t b = 0; b < sb.block_scores.size(); ++b) {
        if (cd_blocks_[s][b].empty()) continue;
        parts.push_back(sb.block_scores[b].data());
        counts.push_back(cd_blocks_[s][b].count());
      }
      shard::concat_scores(parts.data(), counts.data(),
                           static_cast<int>(parts.size()),
                           sb.scores.data(), ppe);
    }
  }
}

void StreamEngine::rerun_shard(int s, int k, PerImage& pi) {
  ++stats_.request_retries;
  SlotBuf& sb = pi.sb[s];
  const sim::SimTime retry_t0 = engine_.machine_.ppe().now_ns();
  guard::GuardedInterface::Result r =
      engine_.slots_[s].shards[static_cast<std::size_t>(k)].gi->Call(
          static_cast<int>(kernels::SPU_Run),
          sb.shard_msgs[static_cast<std::size_t>(k)].ea());
  engine_.rt_.add_closed(probe::Phase::kGuardRetry,
                         std::string(engine_.slots_[s].name) + "[" +
                             std::to_string(k) + "]",
                         retry_t0, engine_.machine_.ppe().now_ns());
  if (r.ok) return;
  probe::ProbeSpan span(engine_.prt(), probe::Phase::kFallback,
                        engine_.machine_.ppe(),
                        std::string("shard:") + engine_.slots_[s].name);
  const shard::Range& range = sb.shard_rows[static_cast<std::size_t>(k)];
  void* part = sb.shard_parts[static_cast<std::size_t>(k)].data();
  sim::ScalarContext* ppe = &engine_.machine_.ppe();
  switch (s) {
    case shard::kSlotCh:
      shard::ppe_partial_ch(pi.pixels, range,
                            static_cast<std::uint32_t*>(part), ppe);
      break;
    case shard::kSlotCc:
      shard::ppe_partial_cc(pi.pixels, range,
                            static_cast<std::uint32_t*>(part), ppe);
      break;
    case shard::kSlotTx:
      shard::ppe_partial_tx(pi.pixels, range, static_cast<double*>(part),
                            ppe);
      break;
    default:
      shard::ppe_partial_eh(pi.pixels, range,
                            static_cast<std::uint32_t*>(part), ppe);
      break;
  }
  note_degraded("shard", s, pi);
}

void StreamEngine::rerun_detect_block(int s, int b, PerImage& pi) {
  ++stats_.request_retries;
  SlotBuf& sb = pi.sb[s];
  const sim::SimTime retry_t0 = engine_.machine_.ppe().now_ns();
  guard::GuardedInterface::Result r =
      engine_.cd_block_lanes_[static_cast<std::size_t>(b)].gi->Call(
          static_cast<int>(kernels::SPU_Run),
          sb.block_msgs[static_cast<std::size_t>(b)].ea());
  engine_.rt_.add_closed(probe::Phase::kGuardRetry,
                         std::string("cd[") + std::to_string(b) + "]:" +
                             engine_.slots_[s].name,
                         retry_t0, engine_.machine_.ppe().now_ns());
  if (r.ok) return;
  probe::ProbeSpan span(engine_.prt(), probe::Phase::kFallback,
                        engine_.machine_.ppe(),
                        std::string("detect:") + engine_.slots_[s].name);
  CellEngine::FeatureSlot& slot = engine_.slots_[s];
  shard::ppe_detect_block(sb.out.data(), slot.dim, *slot.set,
                          cd_blocks_[s][static_cast<std::size_t>(b)],
                          sb.block_scores[static_cast<std::size_t>(b)].data(),
                          &engine_.machine_.ppe());
  note_degraded("detect", s, pi);
}

// ---- cellfuse flows ----
//
// The call sites still iterate the four feature slots; with the fused
// knob on, slot 0 carries the whole window over the lane rings and the
// other slots are no-ops (their extraction happened in the fused pass).

void StreamEngine::flush_fused_window(const Window& win) {
  const std::size_t count = win.size();
  const auto cap = static_cast<std::uint32_t>(opts_.batch) *
                   (pipelined_ ? 2u : 1u);
  const auto op = static_cast<int>(kernels::SPU_Run_Fused);
  const std::vector<Lane>& lanes = engine_.fused_lanes_;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    // Armed only on a lane the window gives rows to (small images leave
    // the later lanes empty).
    if (std::none_of(win.begin(), win.end(), [&](const PerImage* pi) {
          return !pi->fused_rows[k].empty();
        })) {
      continue;
    }
    port::SPEInterface* iface = ensure_ring(lanes[k].ring(), cap);
    if (iface == nullptr) continue;  // guarded + closed: wait resolves it
    for (std::size_t j = 0; j < count; ++j) {
      PerImage& pi = *win[j];
      if (pi.fused_rows[k].empty()) continue;
      iface->Enqueue(op, pi.fused_msgs[k].ea());
    }
    flush_ring(iface);
  }
}

void StreamEngine::wait_fused_window(const Window& win) {
  const std::vector<Lane>& lanes = engine_.fused_lanes_;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    Window live;
    for (PerImage* pi : win) {
      if (!pi->fused_rows[k].empty()) live.push_back(pi);
    }
    if (live.empty()) continue;
    wait_batch(lanes[k].ring(), live.size(), "fused extract",
               [&](std::size_t i) { rerun_fused_lane(k, *live[i]); });
  }
}

void StreamEngine::rerun_fused_lane(std::size_t k, PerImage& pi) {
  ++stats_.request_retries;
  const sim::SimTime retry_t0 = engine_.machine_.ppe().now_ns();
  guard::GuardedInterface::Result r = engine_.fused_lanes_[k].gi->Call(
      static_cast<int>(kernels::SPU_Run_Fused), pi.fused_msgs[k].ea());
  engine_.rt_.add_closed(probe::Phase::kGuardRetry,
                         "fused[" + std::to_string(k) + "]", retry_t0,
                         engine_.machine_.ppe().now_ns());
  if (!r.ok) fallback_fused_range(pi, k, "fuse[" + std::to_string(k) + "]");
}

void StreamEngine::fallback_fused_range(PerImage& pi, std::size_t k,
                                        const std::string& label) {
  probe::ProbeSpan span(engine_.prt(), probe::Phase::kFallback,
                        engine_.machine_.ppe(), label);
  CellEngine::mirror_fused_range(pi.pixels, pi.fused_rows[k],
                                 pi.fused_parts[k].data(),
                                 &engine_.machine_.ppe());
  for (int s = 0; s < 4; ++s) note_degraded("fuse", s, pi);
}

void StreamEngine::reduce_fused_window(const Window& win) {
  sim::ScalarContext* ppe = &engine_.machine_.ppe();
  for (PerImage* p : win) {
    PerImage& pi = *p;
    for (int s = 0; s < 4; ++s) {
      CellEngine::reduce_fused(s, pi.fused_rows, pi.fused_parts,
                               pi.pixels.width(), pi.pixels.height(),
                               pi.sb[s].out.data(), ppe);
    }
    engine_.fuse_images_counter_->add(1);
  }
}

void StreamEngine::flush_extract_slot(const Window& win, int s) {
  if (engine_.fused_) {
    if (s == 0) flush_fused_window(win);
    return;
  }
  if (engine_.scenario_ == Scenario::kSharded) {
    flush_shard_slot(win, s);
    return;
  }
  const std::size_t count = win.size();
  const auto cap = static_cast<std::uint32_t>(opts_.batch) *
                   (pipelined_ ? 2u : 1u);
  port::SPEInterface* iface =
      ensure_ring(engine_.slots_[s].extract.ring(), cap);
  if (iface == nullptr) return;  // guarded + closed: resolved in the wait
  const int opcode = engine_.extract_opcode(engine_.slots_[s]);
  for (std::size_t j = 0; j < count; ++j) {
    iface->Enqueue(opcode, win[j]->sb[s].msg.ea());
  }
  flush_ring(iface);
}

void StreamEngine::wait_extract_slot(const Window& win, int s) {
  if (engine_.fused_) {
    if (s == 0) wait_fused_window(win);
    return;
  }
  if (engine_.scenario_ == Scenario::kSharded) {
    wait_shard_slot(win, s);
    return;
  }
  wait_batch(engine_.slots_[s].extract.ring(), win.size(), "extract",
             [&](std::size_t j) { rerun_extract(s, *win[j]); });
}

void StreamEngine::run_detect(const Window& win) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  if (engine_.fused_ || engine_.balanced_) {
    // Lane (or task) blobs must merge before detection can read the
    // feature vectors, whatever the scenario.
    probe::ProbeSpan span(engine_.prt(), probe::Phase::kReduce, ppe,
                          "fuse_reduce");
    reduce_fused_window(win);
  }
  if (engine_.scenario_ == Scenario::kSharded) {
    // Partials must merge before detection can read the feature vectors.
    if (!engine_.fused_ && !engine_.balanced_) {
      probe::ProbeSpan span(engine_.prt(), probe::Phase::kReduce, ppe,
                            "reduce_window");
      reduce_window(win);
    }
    probe::ProbeSpan span(engine_.prt(), probe::Phase::kDetect, ppe,
                          "detect_blocks");
    run_detect_sharded(win);
    return;
  }
  probe::ProbeSpan detect_span(engine_.prt(), probe::Phase::kDetect, ppe,
                               "detect");
  const std::size_t count = win.size();
  const auto spu_run = static_cast<int>(kernels::SPU_Run);

  if (engine_.scenario_ == Scenario::kMultiSPE2) {
    // Each slot's detection rides its own ring (one doorbell per slot).
    const auto cap = static_cast<std::uint32_t>(opts_.batch);
    for (int s = 0; s < 4; ++s) {
      port::SPEInterface* iface =
          ensure_ring(engine_.slots_[s].detect.ring(), cap);
      if (iface != nullptr) {
        for (PerImage* pi : win) {
          iface->Enqueue(spu_run, pi->sb[s].detect_msg.ea());
        }
        flush_ring(iface);
      }
      wait_batch(iface, count, "detect",
                 [&](std::size_t j) { rerun_detect(s, *win[j]); });
    }
    return;
  }

  // Shared concept-detection SPE: all 4*count requests ride one ring
  // behind one doorbell.
  const auto cap = static_cast<std::uint32_t>(opts_.batch) * 4u;
  port::SPEInterface* iface =
      ensure_ring(engine_.slots_[0].detect.ring(), cap);
  if (iface != nullptr) {
    for (PerImage* pi : win) {
      for (int s = 0; s < 4; ++s) {
        iface->Enqueue(spu_run, pi->sb[s].detect_msg.ea());
      }
    }
    flush_ring(iface);
  }
  wait_batch(iface, 4 * count, "detect", [&](std::size_t i) {
    rerun_detect(static_cast<int>(i % 4), *win[i / 4]);
  });
}

void StreamEngine::collect_window(const Window& win,
                                  std::vector<AnalysisResult>* out) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  for (PerImage* p : win) {
    PerImage& pi = *p;
    AnalysisResult result;
    features::FeatureVector* fvs[4] = {
        &result.color_histogram, &result.color_correlogram,
        &result.texture, &result.edge_histogram};
    DetectionScores* ds[4] = {&result.ch_detect, &result.cc_detect,
                              &result.tx_detect, &result.eh_detect};
    for (int s = 0; s < 4; ++s) {
      CellEngine::FeatureSlot& slot = engine_.slots_[s];
      SlotBuf& sb = pi.sb[s];
      ppe.charge(sim::OpClass::kLoad,
                 static_cast<std::uint64_t>(slot.dim) + sb.scores.size());
      ppe.charge(sim::OpClass::kStore,
                 static_cast<std::uint64_t>(slot.dim) + sb.scores.size());
      fvs[s]->name = slot.name;
      fvs[s]->values.assign(sb.out.data(), sb.out.data() + slot.dim);
      ds[s]->values.assign(sb.scores.data(),
                           sb.scores.data() + scored_models_[s]);
    }
    result.degraded = std::move(pi.degraded);
    engine_.note_image_done();
    completions_.push_back(ppe.now_ns());
    out->push_back(std::move(result));
  }
}

void StreamEngine::rerun_extract(int s, PerImage& pi) {
  ++stats_.request_retries;
  const sim::SimTime retry_t0 = engine_.machine_.ppe().now_ns();
  guard::GuardedInterface::Result r = engine_.slots_[s].extract.gi->Call(
      engine_.extract_opcode(engine_.slots_[s]), pi.sb[s].msg.ea());
  engine_.rt_.add_closed(probe::Phase::kGuardRetry,
                         engine_.slots_[s].name, retry_t0,
                         engine_.machine_.ppe().now_ns());
  if (!r.ok) fallback_extract(s, pi);
}

void StreamEngine::rerun_detect(int s, PerImage& pi) {
  ++stats_.request_retries;
  const sim::SimTime retry_t0 = engine_.machine_.ppe().now_ns();
  guard::GuardedInterface::Result r = engine_.slots_[s].detect.gi->Call(
      static_cast<int>(kernels::SPU_Run), pi.sb[s].detect_msg.ea());
  engine_.rt_.add_closed(probe::Phase::kGuardRetry,
                         std::string("cd:") + engine_.slots_[s].name,
                         retry_t0, engine_.machine_.ppe().now_ns());
  if (!r.ok) fallback_detect(s, pi);
}

void StreamEngine::fallback_extract(int s, PerImage& pi) {
  probe::ProbeSpan span(engine_.prt(), probe::Phase::kFallback,
                        engine_.machine_.ppe(),
                        std::string("extract:") + engine_.slots_[s].name);
  CellEngine::FeatureSlot& slot = engine_.slots_[s];
  features::FeatureVector fv =
      slot.ref_extract(pi.pixels, &engine_.machine_.ppe());
  engine_.machine_.ppe().charge(sim::OpClass::kStore,
                                static_cast<std::uint64_t>(slot.dim));
  std::memcpy(pi.sb[s].out.data(), fv.values.data(),
              static_cast<std::size_t>(slot.dim) * sizeof(float));
  note_degraded("extract", s, pi);
}

void StreamEngine::fallback_detect(int s, PerImage& pi) {
  probe::ProbeSpan span(engine_.prt(), probe::Phase::kFallback,
                        engine_.machine_.ppe(),
                        std::string("detect:") + engine_.slots_[s].name);
  CellEngine::FeatureSlot& slot = engine_.slots_[s];
  features::FeatureVector fv;
  fv.name = slot.name;
  fv.values.assign(pi.sb[s].out.data(), pi.sb[s].out.data() + slot.dim);
  DetectionScores scores =
      reference_detect(fv, *slot.set, &engine_.machine_.ppe());
  engine_.machine_.ppe().charge(sim::OpClass::kStore,
                                scores.values.size());
  // Under a serve concept clamp only the scored prefix lands in the
  // buffer; the reference charge stays the full set (the PPE fallback
  // has no short-batch kernel to lean on).
  const auto copy = std::min(scores.values.size(),
                             static_cast<std::size_t>(scored_models_[s]));
  std::memcpy(pi.sb[s].scores.data(), scores.values.data(),
              copy * sizeof(double));
  note_degraded("detect", s, pi);
}

void StreamEngine::note_degraded(const char* stage, int s, PerImage& pi) {
  ++stats_.fallbacks;
  pi.degraded.push_back(std::string(stage) + ":" +
                        engine_.slots_[s].name);
  engine_.fallback_counter_->add(1);
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  if (ppe.trace_on()) {
    ppe.trace_track()->instant(trace::Category::kRuntime,
                               "ppe_fallback:" + pi.degraded.back(),
                               ppe.now_ns(), "count",
                               engine_.fallback_counter_->value());
  }
}

void StreamEngine::throw_ring_fault(const char* stage,
                                    port::SPEInterface* iface) {
  throw cellport::Error(std::string("stream ") + stage + " fault on '" +
                        iface->module().name() +
                        "': " + iface->module().last_error());
}

std::vector<AnalysisResult> StreamEngine::run(
    const std::vector<img::SicEncoded>& images) {
  std::vector<const img::SicEncoded*> ptrs;
  ptrs.reserve(images.size());
  for (const auto& image : images) ptrs.push_back(&image);
  return run_queue(ptrs);
}

std::size_t StreamEngine::submit(const img::SicEncoded& image) {
  if (closed_) {
    throw cellport::Error("StreamEngine::submit after close()");
  }
  pending_.push_back(&image);
  ends_.push_back(RequestEnd::kPending);
  return ends_.size() - 1;
}

std::vector<AnalysisResult> StreamEngine::drain() {
  if (closed_) {
    throw cellport::Error("StreamEngine::drain after close()");
  }
  std::vector<const img::SicEncoded*> queue;
  queue.swap(pending_);
  std::vector<AnalysisResult> results = run_queue(queue);
  // Everything run_queue returned is terminal: the queue's requests are
  // the last queue.size() submits still pending.
  for (std::size_t i = ends_.size() - queue.size(); i < ends_.size(); ++i) {
    ends_[i] = RequestEnd::kCompleted;
  }
  return results;
}

std::vector<StreamEngine::RequestEnd> StreamEngine::close() {
  if (!closed_) {
    closed_ = true;
    const std::size_t dropped = pending_.size();
    pending_.clear();
    if (dropped > 0) {
      // Early shutdown with requests still queued: every one of them
      // gets an explicit kCancelled terminal state (and shows up in
      // stats/metrics) instead of vanishing.
      for (std::size_t i = ends_.size() - dropped; i < ends_.size(); ++i) {
        ends_[i] = RequestEnd::kCancelled;
      }
      stats_.cancelled += dropped;
      engine_.machine_.metrics().counter("stream.cancelled").add(dropped);
    }
  }
  return ends_;
}

std::vector<AnalysisResult> StreamEngine::run_queue(
    const std::vector<const img::SicEncoded*>& images) {
  const std::size_t was_cancelled = stats_.cancelled;
  stats_ = StreamStats{};
  stats_.cancelled = was_cancelled;
  completions_.clear();
  std::vector<AnalysisResult> results;
  if (images.empty()) return results;
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  const sim::SimTime t0 = ppe.now_ns();
  const std::size_t total_in = images.size();
  port::Profiler::Scope probe(engine_.profiler_, kPhaseStream);
  // One trace covers the whole streamed batch: requests overlap, so a
  // per-image tree would mis-assign the shared PPE work.
  if (engine_.probe_ != nullptr) engine_.rt_.start("stream", t0);

  // cellbalance: content-cache front end. Every queued image is
  // digested up front (inside the stream trace, as kCache spans); hits
  // are served at lookup time and only the misses are streamed.
  // A serve concept clamp (opts_.max_models != 0) scores a prefix of
  // each model set, so clamped streams bypass the cache entirely rather
  // than serve or poison full-set entries.
  const bool caching = engine_.cache_on() && opts_.max_models == 0;
  std::vector<AnalysisResult> hit_results(caching ? total_in : 0);
  std::vector<sim::SimTime> hit_done(caching ? total_in : 0, 0);
  std::vector<char> is_hit(caching ? total_in : 0, 0);
  std::vector<const img::SicEncoded*> cold;
  std::vector<std::uint64_t> cold_keys;
  if (caching) {
    for (std::size_t i = 0; i < total_in; ++i) {
      std::uint64_t key = 0;
      if (engine_.cache_try_serve(*images[i], &hit_results[i], &key)) {
        is_hit[i] = 1;
        engine_.note_image_done();
        hit_done[i] = ppe.now_ns();
      } else {
        cold.push_back(images[i]);
        cold_keys.push_back(key);
      }
    }
  } else {
    cold = images;
  }

  results.reserve(cold.size());
  if (!cold.empty()) {
    if (engine_.balanced_) {
      run_balanced(cold, &results);
    } else {
      run_windows(cold, &results);
    }
  }
  engine_.finish_request();

  if (caching) {
    // Fill the cache with the cold results (degraded ones never enter —
    // a later identical image must see the same guard accounting cold
    // would give it), then reassemble results and completion stamps in
    // input order. Hits completed at lookup time, so completion_ns() is
    // no longer non-decreasing when hits and misses interleave.
    for (std::size_t c = 0; c < results.size(); ++c) {
      if (results[c].degraded.empty()) {
        engine_.cache_store(cold_keys[c], results[c]);
      }
    }
    std::vector<AnalysisResult> merged(total_in);
    std::vector<sim::SimTime> done(total_in, 0);
    std::size_t c = 0;
    for (std::size_t i = 0; i < total_in; ++i) {
      if (is_hit[i] != 0) {
        merged[i] = std::move(hit_results[i]);
        done[i] = hit_done[i];
      } else {
        merged[i] = std::move(results[c]);
        done[i] = completions_[c];
        ++c;
      }
    }
    results = std::move(merged);
    completions_ = std::move(done);
  }

  stats_.images = total_in;
  stats_.elapsed_ns = ppe.now_ns() - t0;
  stats_.images_per_sec =
      stats_.elapsed_ns > 0
          ? static_cast<double>(total_in) / (stats_.elapsed_ns * 1e-9)
          : 0.0;
  engine_.machine_.metrics()
      .gauge("stream.images_per_sec")
      .set(stats_.images_per_sec);
  return results;
}

void StreamEngine::run_windows(
    const std::vector<const img::SicEncoded*>& images,
    std::vector<AnalysisResult>* out) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  probe::RequestTrace* rt = engine_.prt();
  const std::size_t total = images.size();
  const auto B = static_cast<std::size_t>(opts_.batch);
  const std::size_t W = (total + B - 1) / B;
  std::vector<sim::SimTime> win_sent(W, 0);

  auto prepare = [&](std::size_t w) {
    probe::ProbeSpan span(rt, probe::Phase::kDecode, ppe, "prepare_window");
    const Window win = window(w, total);
    for (std::size_t j = 0; j < win.size(); ++j) {
      prepare_image(*win[j], *images[w * B + j]);
    }
  };
  auto flush = [&](std::size_t w) {
    probe::ProbeSpan span(rt, probe::Phase::kDispatch, ppe, "flush_extract");
    win_sent[w] = ppe.now_ns();
    const Window win = window(w, total);
    for (int s = 0; s < 4; ++s) flush_extract_slot(win, s);
  };
  auto wait_window = [&](std::size_t w) {
    probe::ProbeSpan span(rt, probe::Phase::kExtract, ppe, "wait_extract");
    const Window win = window(w, total);
    for (int s = 0; s < 4; ++s) {
      wait_extract_slot(win, s);
      engine_.rt_.add_spe_span(probe::Phase::kExtract,
                               std::string(engine_.slots_[s].name) + "[w" +
                                   std::to_string(w) + "]",
                               win_sent[w], ppe.now_ns());
    }
  };
  auto retire_window = [&](std::size_t w) {
    const Window win = window(w, total);
    run_detect(win);
    probe::ProbeSpan span(rt, probe::Phase::kOutput, ppe, "collect_window");
    collect_window(win, out);
  };

  if (pipelined_) {
    // Two windows in flight per extract ring: the PPE decodes and
    // doorbells window w while the SPEs still extract window w-1. A
    // carrier that fails to decode (or a ring fault) aborts the stream;
    // the batches still on the rings are collected first, so no kernel
    // reads a freed window buffer and the engine stays usable.
    try {
      for (std::size_t w = 0; w < W; ++w) {
        prepare(w);
        flush(w);
        if (w > 0) {
          wait_window(w - 1);
          retire_window(w - 1);
        }
      }
      wait_window(W - 1);
      retire_window(W - 1);
    } catch (...) {
      abandon_rings();
      throw;
    }
    return;
  }
  // Guarded engines retire each window before the next doorbell so a
  // per-request retry can reuse the legacy call path; scenario 1 stays
  // sequential at window granularity (each kernel's batch retires before
  // the next kernel starts).
  for (std::size_t w = 0; w < W; ++w) {
    prepare(w);
    if (engine_.scenario_ == Scenario::kSingleSPE) {
      probe::ProbeSpan span(rt, probe::Phase::kExtract, ppe, "extract_seq");
      win_sent[w] = ppe.now_ns();
      const Window win = window(w, total);
      for (int s = 0; s < 4; ++s) {
        flush_extract_slot(win, s);
        wait_extract_slot(win, s);
        engine_.rt_.add_spe_span(probe::Phase::kExtract,
                                 std::string(engine_.slots_[s].name) +
                                     "[w" + std::to_string(w) + "]",
                                 win_sent[w], ppe.now_ns());
      }
    } else {
      flush(w);
      wait_window(w);
    }
    retire_window(w);
  }
}

// ---- cellflow: the per-request balanced pipeline ----
//
// Extraction rides the fused lanes at TASK granularity through one
// StealLoop that rolls across the stream: request r is owner r, its
// tasks queue behind the earlier requests' as it is decoded, and the
// loop is serviced between decode slices — so a lane that drew a small
// task steals ahead, into the next request, and a quarantined lane never
// gates a request. Reduction (reduce_fused_window) walks each request's
// tasks in ascending row order, so results are bit-identical to the
// static fused split whichever lane ran which task.

StreamEngine::PerImage& StreamEngine::request_buf(std::size_t r) {
  return *bufs_[r % bufs_.size()];
}

void StreamEngine::run_balanced(
    const std::vector<const img::SicEncoded*>& images,
    std::vector<AnalysisResult>* out) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  probe::RequestTrace* rt = engine_.prt();
  const std::size_t n = images.size();
  // A malformed image or an unguarded kernel fault aborts the stream;
  // the loop's destructor then collects every task still on a lane, so
  // the engine stays usable.
  StealLoop loop(ppe, rt, engine_.fused_lanes_,
                 [this](std::size_t r, std::size_t t) {
                   fallback_fused_range(request_buf(r), t,
                                        "fuse[task" + std::to_string(t) +
                                            "]");
                 });
  const std::function<void()> service = [&loop] { loop.service(); };

  auto decode = [&](std::size_t r, bool overlapped) {
    PerImage& pi = request_buf(r);
    {
      probe::ProbeSpan span(rt, probe::Phase::kDecode, ppe,
                            "decode[" + std::to_string(r) + "]");
      prepare_image(pi, *images[r],
                    overlapped ? service : std::function<void()>{}, &loop,
                    r);
    }
    loop.push(r, static_cast<int>(kernels::SPU_Run_Fused),
              engine_.fused_task_eas(pi.fused_rows, pi.fused_msgs));
  };
  decode(0, false);
  for (std::size_t r = 0; r < n; ++r) {
    // Decode-ahead: request r+1's PPE decode overlaps request r's
    // extraction, and its tasks queue behind r's for stealing.
    if (decode_ahead_ && r + 1 < n) decode(r + 1, true);
    loop.drain(r);
    const Window win{&request_buf(r)};
    run_detect(win);
    {
      probe::ProbeSpan span(rt, probe::Phase::kOutput, ppe, "collect");
      collect_window(win, out);
    }
    if (!decode_ahead_ && r + 1 < n) decode(r + 1, false);
  }
  stats_.request_retries += loop.retries();
  engine_.tally_steals(loop);
}

std::vector<AnalysisResult> CellEngine::analyze_stream(
    const std::vector<img::SicEncoded>& images, const StreamOptions& opts,
    StreamStats* stats) {
  StreamEngine stream(*this, opts);
  std::vector<AnalysisResult> results = stream.run(images);
  if (stats != nullptr) *stats = stream.stats();
  return results;
}

}  // namespace cellport::marvel
