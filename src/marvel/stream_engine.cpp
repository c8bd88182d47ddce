#include "marvel/stream_engine.h"

#include <algorithm>

#include "support/error.h"

namespace cellport::marvel {

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
  const std::size_t in_flight =
      engine_.balanced_ ? (decode_ahead_ ? 2u : 1u)
                        : static_cast<std::size_t>(opts_.batch) *
                              (pipelined_ ? 2u : 1u);
  bufs_.reserve(in_flight);
  for (std::size_t j = 0; j < in_flight; ++j) {
    bufs_.push_back(std::make_unique<Work>());
    // cellserve degrade ladder: the clamp lands once, in the working
    // set's detection messages, blocks and collect.
    engine_.init_work(*bufs_.back(), opts_.max_models);
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

// ---- the ring transport ----
//
// The same call lists analyze() sends over the mailbox, grouped by lane:
// every call of a window that rides one lane goes behind one doorbell,
// request-major, and a call the ring lost re-runs alone through the
// engine's guard-call helper.

std::vector<const Lane*> StreamEngine::lanes(const Window& win,
                                             CallList list, int slot) const {
  std::vector<const Lane*> out;
  for (const KernelCall& c : win.front()->*list) {
    if (slot >= 0 && c.slot != slot) continue;
    if (std::none_of(out.begin(), out.end(),
                     [&](const Lane* l) { return *l == *c.lane; })) {
      out.push_back(c.lane);
    }
  }
  return out;
}

void StreamEngine::flush(const Window& win, CallList list, const Lane& lane,
                         std::uint32_t windows) {
  // The ring holds every position of the list on this lane for each
  // request of `windows` windows.
  const auto per_request = static_cast<std::uint32_t>(
      std::count_if((win.front()->*list).begin(), (win.front()->*list).end(),
                    [&](const KernelCall& c) { return *c.lane == lane; }));
  const bool live = std::any_of(win.begin(), win.end(), [&](const Work* w) {
    return std::any_of((w->*list).begin(), (w->*list).end(),
                       [&](const KernelCall& c) {
                         return *c.lane == lane && c.ea != 0;
                       });
  });
  if (!live) return;
  port::SPEInterface* iface = ensure_ring(
      lane.ring(),
      static_cast<std::uint32_t>(opts_.batch) * per_request * windows);
  if (iface == nullptr) return;  // guarded + closed: the wait re-runs
  for (const Work* w : win) {
    for (const KernelCall& c : w->*list) {
      if (*c.lane == lane && c.ea != 0) iface->Enqueue(c.op, c.ea);
    }
  }
  flush_ring(iface);
}

void StreamEngine::wait(const Window& win, CallList list, const Lane& lane) {
  std::vector<std::pair<Work*, const KernelCall*>> live;
  for (Work* w : win) {
    for (const KernelCall& c : w->*list) {
      if (*c.lane == lane && c.ea != 0) live.emplace_back(w, &c);
    }
  }
  if (live.empty()) return;
  static constexpr const char* kStage[] = {
      "extract", "shard extract", "fused extract", "detect", "shard detect"};
  wait_batch(lane.ring(), live.size(),
             kStage[static_cast<int>(live.front().second->kind)],
             [&](std::size_t i) {
               ++stats_.request_retries;
               engine_.rerun(*live[i].second, *live[i].first);
             });
}

void StreamEngine::run_detect(const Window& win) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  const bool fused = engine_.fused_ || engine_.balanced_;
  const bool sharded = engine_.scenario_ == Scenario::kSharded;
  if (fused || sharded) {
    // Partials must merge before detection can read the feature vectors.
    probe::ProbeSpan span(engine_.prt(), probe::Phase::kReduce, ppe,
                          fused ? "fuse_reduce" : "reduce_window");
    for (Work* w : win) engine_.reduce(*w);
  }
  probe::ProbeSpan span(engine_.prt(), probe::Phase::kDetect, ppe,
                        sharded ? "detect_blocks" : "detect");
  // kMultiSPE2: one ring per slot; the shared CD SPE: every slot of
  // every request behind one doorbell; kSharded: block b of every slot
  // on detection ring b.
  for (const Lane* lane : lanes(win, &Work::detect)) {
    flush(win, &Work::detect, *lane, 1);
    wait(win, &Work::detect, *lane);
  }
  if (!sharded) return;
  for (Work* w : win) {
    for (int s = 0; s < 4; ++s) engine_.concat_blocks(*w, s);
  }
}

void StreamEngine::collect_window(const Window& win,
                                  std::vector<AnalysisResult>* out) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  for (Work* w : win) {
    out->push_back(engine_.collect(*w));
    stats_.fallbacks += out->back().degraded.size();
    engine_.note_image_done();
    completions_.push_back(ppe.now_ns());
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
      Work& work = *win[j];
      work.pixels = engine_.ingest(*images[w * B + j], {},
                                   std::move(work.pixels));
      engine_.prepare(work, /*charge_each=*/true);
    }
  };
  // Extraction rides one ring per lane; slot s's lanes are waited (and
  // closed as one window span) before slot s+1's.
  const std::uint32_t windows = pipelined_ ? 2 : 1;
  auto flush_slot = [&](const Window& win, int s) {
    for (const Lane* lane : lanes(win, &Work::extract, s)) {
      flush(win, &Work::extract, *lane, windows);
    }
  };
  auto wait_slot = [&](const Window& win, std::size_t w, int s) {
    for (const Lane* lane : lanes(win, &Work::extract, s)) {
      wait(win, &Work::extract, *lane);
    }
    engine_.rt_.add_spe_span(probe::Phase::kExtract,
                             std::string(engine_.slots_[s].name) + "[w" +
                                 std::to_string(w) + "]",
                             win_sent[w], ppe.now_ns());
  };
  auto flush_window = [&](std::size_t w) {
    probe::ProbeSpan span(rt, probe::Phase::kDispatch, ppe, "flush_extract");
    win_sent[w] = ppe.now_ns();
    const Window win = window(w, total);
    for (int s = 0; s < 4; ++s) flush_slot(win, s);
  };
  auto wait_window = [&](std::size_t w) {
    probe::ProbeSpan span(rt, probe::Phase::kExtract, ppe, "wait_extract");
    const Window win = window(w, total);
    for (int s = 0; s < 4; ++s) wait_slot(win, w, s);
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
        flush_window(w);
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
        flush_slot(win, s);
        wait_slot(win, w, s);
      }
    } else {
      flush_window(w);
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
// gates a request. Reduction (CellEngine::reduce) walks each request's
// tasks in ascending row order, so results are bit-identical to the
// static fused split whichever lane ran which task.

StreamEngine::Work& StreamEngine::request_buf(std::size_t r) {
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
                   engine_.mirror_fused(request_buf(r), t);
                 });
  const std::function<void()> service = [&loop] { loop.service(); };

  auto decode = [&](std::size_t r, bool overlapped) {
    Work& work = request_buf(r);
    {
      probe::ProbeSpan span(rt, probe::Phase::kDecode, ppe,
                            "decode[" + std::to_string(r) + "]");
      work.pixels = engine_.ingest(
          *images[r], overlapped ? service : std::function<void()>{},
          std::move(work.pixels), &loop, r);
      engine_.prepare(work, /*charge_each=*/true);
    }
    loop.push(r, static_cast<int>(kernels::SPU_Run_Fused),
              engine_.task_eas(work));
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
