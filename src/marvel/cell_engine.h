// The Cell-ported MARVEL analysis engine.
//
// The PPE runs the original application flow (preprocessing, control,
// data wrapping); the five kernels run on SPEs behind SPEInterface stubs,
// statically scheduled one kernel per SPE (Section 3.3). The three
// execution scenarios of Section 5.5 are supported, plus a fourth
// (kSharded):
//
//   kSingleSPE  — all kernels invoked sequentially (Figure 4b). Uses one
//                 resident SPE per kernel to avoid dynamic code
//                 switching, exactly as the paper describes scenario 1.
//   kMultiSPE   — the four feature extractions run in parallel on four
//                 SPEs; concept detection runs serialized on a fifth.
//   kMultiSPE2  — detection replicated on four more SPEs; each
//                 extraction is followed immediately by its detection.
//   kSharded    — cellshard: every kernel is data-parallel across shards
//                 of ONE image (row slices / Haar tiles / model blocks),
//                 spread over all SPEs by shard::plan_shards; the PPE
//                 reduces raw partials into bit-exact results. Optimizes
//                 per-image latency where kMultiSPE optimizes occupancy.
//
// Every entry path shares one per-image working set (Work: messages,
// outputs, partials, score staging) and one list of kernel calls per
// image, {lane, opcode, message, label, mirror}, built once per strategy
// by prepare(). Preparing, PPE mirrors, reduction and collect exist once,
// here. Two transports drive the lists over Lanes (marvel/lane.h):
//
//   - mailbox: analyze() and pipelined batches, on the engine's own
//     working set. dispatch() sends the extraction; complete() finishes
//     it, reduces and detects.
//   - command ring: StreamEngine, one working set per request in flight;
//     per lane, the window's calls go behind one doorbell, and a call the
//     ring lost re-runs alone through the lane's guard (rerun()).
//
// A guarded engine opens the same placement behind GuardedInterfaces;
// the lanes' completion policy is the only difference.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "balance/content_cache.h"
#include "balance/steal.h"
#include "guard/guarded_interface.h"
#include "guard/policy.h"
#include "img/codec.h"
#include "img/ppm.h"
#include "kernels/decode_kernel.h"
#include "kernels/messages.h"
#include "port/message.h"
#include "learn/model_store.h"
#include "marvel/lane.h"
#include "marvel/reference_engine.h"
#include "marvel/result.h"
#include "marvel/steal_loop.h"
#include "port/profiler.h"
#include "port/spe_interface.h"
#include "probe/request_trace.h"
#include "shard/partials.h"
#include "shard/plan.h"
#include "sim/machine.h"
#include "support/aligned.h"

namespace cellport::marvel {

enum class Scenario { kSingleSPE, kMultiSPE, kMultiSPE2, kSharded };

class StreamEngine;

/// cellstream: knobs for analyze_stream().
struct StreamOptions {
  /// Images admitted per ring doorbell (the streaming window size).
  /// 1..128; 1 degenerates to one-request batches (the overhead-parity
  /// baseline). Balanced engines pipeline per request instead, so there
  /// it only sizes the detection rings.
  int batch = 8;
  /// No decode-ahead. Window flows retire each window before doorbelling
  /// the next even when the engine could keep two in flight (unguarded
  /// parallel scenarios; guarded window flows always run this way, so
  /// forcing it on an unguarded engine yields the schedule a guarded run
  /// charges). Balanced engines decode request i+1 only after request i
  /// retires instead of while it extracts.
  bool sequential = false;
  /// cellserve degrade ladder: score at most this many concept models
  /// per feature (0 = all of them). The detect kernels run shorter
  /// batches and each DetectionScores carries only the evaluated prefix
  /// of the model set — bit-exact with the full run's prefix. 0 leaves
  /// every legacy path and its simulated time untouched.
  int max_models = 0;
};

/// cellstream: what a streaming run measured (all simulated time).
struct StreamStats {
  std::size_t images = 0;
  sim::SimTime elapsed_ns = 0;
  double images_per_sec = 0.0;
  std::size_t doorbells = 0;        // ring doorbells the PPE rang
  std::size_t request_retries = 0;  // guarded per-request re-runs
  std::size_t batch_timeouts = 0;   // whole-batch deadline misses
  std::size_t fallbacks = 0;        // PPE fallbacks (guarded)
  std::size_t cancelled = 0;        // submitted but unserviced at close()
};

/// Extra PPE-side phase names (multi-SPE scenarios overlap the kernels,
/// so only aggregate phases are meaningful there).
inline constexpr const char* kPhaseExtractPar = "Extract(parallel)";
inline constexpr const char* kPhaseDetect = "Detect";
/// cellshard: the PPE-side partial merge of a kSharded image (shows as
/// its own span on the timeline).
inline constexpr const char* kPhaseShardReduce = "ShardReduce";
inline constexpr const char* kPhasePipelined = "Pipelined(batch)";
inline constexpr const char* kPhaseStream = "Stream(ring)";

class CellEngine {
 public:
  /// Loads the model library on the PPE (one-time overhead) and opens
  /// the kernel interfaces. `use_naive` selects the pre-optimization
  /// kernel versions where they exist (CH/CC/EH; Section 5.3).
  /// With `guard.enabled`, every lane is opened behind a cellguard
  /// GuardedInterface (deadline/retry/quarantine) and a kernel whose
  /// retries are exhausted falls back to the PPE scalar path, recorded
  /// in AnalysisResult::degraded. The schedule is the same one an
  /// unguarded engine runs, so a fault-free guarded run charges exactly
  /// what an unguarded one does.
  CellEngine(sim::Machine& machine, const std::string& library_path,
             Scenario scenario,
             kernels::BufferingDepth buffering = kernels::kDoubleBuffer,
             bool use_naive = false, guard::GuardPolicy guard = {});

  AnalysisResult analyze(const img::SicEncoded& image);

  /// Batch mode with PPE/SPE overlap (Figure 4c's full form): while the
  /// SPEs extract image i, the PPE decodes image i+1, hiding most of the
  /// preprocessing behind kernel time. Requires a parallel scenario
  /// (kMultiSPE, kMultiSPE2 or kSharded); each image runs analyze()'s
  /// schedule, so results are identical to per-image analyze() calls.
  std::vector<AnalysisResult> analyze_batch_pipelined(
      const std::vector<img::SicEncoded>& images);

  /// cellstream: streaming throughput mode. Admits the whole queue of
  /// encoded images and drives every scheduled SPE through its command
  /// ring in windows of `opts.batch` requests — one doorbell per window
  /// per ring instead of one mailbox write per call, with the PPE
  /// decoding ahead while the SPEs extract (parallel scenarios). Results
  /// are bit-exact with per-call analyze(). Guard deadlines apply
  /// per-request (a faulted request is re-run alone; the window's
  /// deadline is count * per-call deadline). `stats`, when non-null,
  /// receives the measured simulated images/sec.
  std::vector<AnalysisResult> analyze_stream(
      const std::vector<img::SicEncoded>& images,
      const StreamOptions& opts = {}, StreamStats* stats = nullptr);

  sim::Machine& machine() { return machine_; }
  port::Profiler& profiler() { return profiler_; }
  sim::SimTime startup_ns() const { return startup_ns_; }
  Scenario scenario() const { return scenario_; }
  const learn::MarvelModels& models() const { return models_; }
  bool guarded() const { return guard_.enabled; }
  /// The health board behind a guarded engine; null when unguarded.
  /// The mutable overload lets an operator (or a test) mark SPEs out
  /// of service directly — cellserve reads the quarantine count to
  /// shrink its admission budget.
  const guard::SpeHealth* health() const { return health_.get(); }
  guard::SpeHealth* health() { return health_.get(); }
  /// cellshard: the shard plan a kSharded engine executes (defaulted
  /// {1,1,1,1}+1 otherwise).
  const shard::ShardPlan& shard_plan() const { return plan_; }

  /// cellprobe: installs a per-request attribution sink. Every
  /// analyze() call (and every analyze_stream() run as one request)
  /// delivers its finished RequestTrace to the sink. Probing only reads
  /// simulated clocks — results and simulated time are bit-exact with
  /// an unprobed run. Null detaches.
  void set_probe(probe::ProbeSink* sink) { probe_ = sink; }
  probe::ProbeSink* probe() const { return probe_; }

  /// cellfeed: with the knob on, PPM-carrier images (img::ppm_encode)
  /// are ingested by the SPE feed kernels — the PPE parses only the
  /// header, and the packed pixel rows stream main memory -> LS -> image
  /// planes through DMA lists riding the scenario's detect-side SPEs
  /// (the ones idle during every schedule's decode phase, including the
  /// pipelined/streaming decode-ahead overlap). SIC2 carriers, carriers
  /// without the encoder's alignment slack, and rows too wide for one
  /// list element keep the legacy PPE decode. A guarded engine turns a
  /// failed feed lane into a PPE row-range fallback recorded as degraded
  /// "feed:ingest". Off (the default) leaves every legacy path — and its
  /// simulated time — untouched.
  void set_feed(bool on) { feed_ = on; }
  bool feed() const { return feed_; }

  /// cellfuse: with the knob on, the four feature extractions of every
  /// image run as ONE single-pass fused kernel (SPU_Run_Fused) per lane —
  /// one pixel fetch, one HSV quantization, one gray conversion — each
  /// lane emitting all four raw-partial layouts for its tile-aligned row
  /// range (shard::split_fused), merged on the PPE by the cellshard
  /// reducers. Results are bit-exact with the per-feature kernels. Lanes
  /// ride the SPEs the scenario already scheduled for extraction
  /// (kSingleSPE: one lane; kMultiSPE/kMultiSPE2: the four extract SPEs;
  /// kSharded: the extract-shard SPEs, capped at shard::plan_fused's lane
  /// count). A guarded engine recomputes a failed lane's range on the PPE
  /// via the shard mirrors — per-feature partials for just that slice —
  /// recorded as degraded "fuse:<feature>". Off (the default) leaves
  /// every legacy path and its simulated time untouched.
  void set_fused(bool on) { fused_ = on; }
  bool fused() const { return fused_; }
  /// The fused lane/detect split a kSharded engine consults (defaulted
  /// 1+1 otherwise).
  const shard::FusedPlan& fused_plan() const { return fused_plan_; }

  /// cellbalance: with the knob on, the fused single-pass extraction is
  /// driven by a work-stealing dispatcher instead of one static range
  /// per lane. The image splits into MORE, smaller tile-aligned tasks
  /// (balance::split_tasks), every fused lane is armed with one, and
  /// each lane steals the next descriptor the moment its current task
  /// completes — chosen by a non-consuming, once-per-task peek of every
  /// in-flight completion timestamp, so a slow SPE never gates the
  /// batch, and a lane the guard has stranded (quarantined, no healthy
  /// SPE left) gets no task while a live lane remains (StealLoop, the
  /// one loop behind analyze(), pipelined batches and streams).
  /// Reduction stays in fixed task order through the cellshard reducers,
  /// so balanced results are bit-identical to the static fused plan
  /// (and to the per-feature kernels). Implies the fused
  /// kernel (no set_fused needed).
  ///
  /// celldecode: it also moves the block rows of every SIC carrier onto
  /// the same lanes. The PPE keeps the disk read, the Huffman pass and a
  /// validating token scan (img::SicDecoder index mode); each block row
  /// (all three channels) then decodes as one SPU_Run_Decode task in the
  /// steal loop, ahead of the image's fused tasks — in a stream or a
  /// pipelined batch, behind the previous image's. Pixels are
  /// bit-identical to the PPE decode; a task the guard gives up on is
  /// decoded on the PPE, recorded as degraded "decode:rows". PPM carriers
  /// keep their decode (or cellfeed). Off (the default) leaves every
  /// legacy path and its simulated time untouched.
  void set_balanced(bool on);
  bool balanced() const { return balanced_; }

  /// cellbalance: content-addressed feature cache. A non-zero byte
  /// budget caches each undegraded AnalysisResult under the FNV-1a
  /// digest of the ENCODED image bytes; repeated/duplicated uploads in
  /// analyze(), the pipelined batch loop, analyze_stream() and the
  /// cellserve broker are served from the cache (digest + copy-out
  /// only), bit-identical to the cold path. Eviction is strict LRU
  /// under the budget (cache.{hits,misses,evictions,bytes,entries}
  /// metrics). Degraded results are never cached (guard accounting
  /// stays exact) and concept-clamped serve levels bypass the cache
  /// (their results are a prefix, not the full value). A budget of 0
  /// (the default) disables caching and leaves every legacy path and
  /// its simulated time untouched.
  void set_cache(std::size_t byte_budget);
  /// Non-null after set_cache() with a non-zero budget.
  const balance::ContentCache<AnalysisResult>* cache() const {
    return cache_.get();
  }

 private:
  friend class StreamEngine;

  struct FeatureSlot {
    /// Per-feature extraction (kSingleSPE/kMultiSPE/kMultiSPE2).
    Lane extract;
    /// The slot's concept detection: its own SPE in kMultiSPE2, the
    /// shared detection SPE in kSingleSPE/kMultiSPE.
    Lane detect;
    /// cellshard (kSharded only): one lane per shard of this kernel.
    std::vector<Lane> shards;
    const char* phase = nullptr;
    const char* name = nullptr;
    int dim = 0;
    const learn::ConceptModelSet* set = nullptr;
    /// The model descriptors every detection message reads (shared,
    /// read-only, by every working set).
    cellport::AlignedBuffer<kernels::DetectModelDesc> descs;
    /// PPE mirror of the extraction kernel (guarded fallbacks).
    features::FeatureVector (*ref_extract)(const img::RgbImage&,
                                           sim::ScalarContext*) = nullptr;
  };

  /// One kernel call of an image's schedule. `label` and `mirror` derive
  /// from {kind, slot, index}: the retry/probe label and the PPE
  /// recompute that replaces the call's output when the guard gives up.
  struct KernelCall {
    enum class Kind : std::uint8_t {
      kExtract,  // per-feature extraction of slot `slot`
      kShard,    // shard `index` of slot `slot` (kSharded)
      kFused,    // fused lane `index` (cellfuse)
      kDetect,   // detection of slot `slot`
      kBlock,    // model block `index` of slot `slot` (kSharded)
    };
    Kind kind = Kind::kExtract;
    int slot = 0;  // 0 for a fused lane
    int index = 0;
    const Lane* lane = nullptr;
    int op = 0;
    /// The message; 0 when the call's range is empty (nothing is sent).
    /// Such a call keeps its place, so list position p rides the same
    /// lane for every image of an engine.
    std::uint64_t ea = 0;
    sim::SimTime sent = 0;  // mailbox send time (probe spans)
  };

  /// One image's working set: its pixels, every message and buffer its
  /// kernels read or write, and the calls its schedule makes. analyze()
  /// and pipelined batches run on the engine's own (work_); a stream
  /// holds one per request in flight, so in-flight images never share a
  /// buffer. init_work() sizes it once, prepare() fills it per image.
  struct Work {
    img::RgbImage pixels;
    std::vector<std::string> degraded;
    struct Slot {
      port::WrappedMessage<kernels::ImageMsg> msg;
      cellport::AlignedBuffer<float> out;
      port::WrappedMessage<kernels::DetectMsg> detect_msg;
      cellport::AlignedBuffer<double> scores;
      /// Models scored (the serve concept clamp; the full set when 0).
      int models = 0;
      // cellshard (kSharded only): shard messages and raw partials for
      // this image's `shard_rows`, and the detection model blocks with
      // their static messages and score staging (a block's kernel pads
      // its score DMA to an even count, so blocks land apart and the PPE
      // concatenates the exact counts).
      std::vector<port::WrappedMessage<kernels::ImageMsg>> shard_msgs;
      std::vector<cellport::AlignedBuffer<std::uint8_t>> shard_parts;
      std::vector<shard::Range> shard_rows;
      std::vector<shard::Range> blocks;
      std::vector<port::WrappedMessage<kernels::DetectMsg>> block_msgs;
      std::vector<cellport::AlignedBuffer<double>> block_scores;
    } slot[4];
    // cellfuse/cellbalance: one message + partial blob per lane (per
    // task on a balanced engine) for this image's `fused_rows`.
    std::vector<port::WrappedMessage<kernels::ImageMsg>> fused_msgs;
    std::vector<cellport::AlignedBuffer<std::uint8_t>> fused_parts;
    std::vector<shard::Range> fused_rows;
    /// The image's extraction calls (none on a balanced engine: its
    /// tasks ride the steal loop) and detection calls, slot-major.
    std::vector<KernelCall> extract;
    std::vector<KernelCall> detect;
  };

  /// One image between dispatch() and complete(). Lives in the caller's
  /// frame, so an exception unwinds the open profiler phase with it.
  struct InFlight {
    /// Balanced engines: the steal loop the image's tasks ride, and the
    /// image's owner index in it.
    StealLoop* loop = nullptr;
    std::size_t owner = 0;
    /// Extract(parallel), open from the send until extraction retires
    /// (kMultiSPE2 per-feature: until its detection retires).
    std::optional<port::Profiler::Scope> phase;
  };

  // ---- the per-image schedule (every entry path) ----
  /// PPE decode (or SPE feed) of one carrier under the Preprocess phase,
  /// into `storage`'s pixel buffer when it is large enough; with `loop`
  /// (a balanced engine), a SIC carrier's block rows decode as owner
  /// `owner`'s tasks on it.
  img::RgbImage decode(const img::SicEncoded& image, img::RgbImage storage,
                       StealLoop* loop = nullptr, std::size_t owner = 0);
  /// Fills `w` for its pixels and sends the extraction over the mailbox:
  /// the extract calls, or balanced tasks pushed on `f.loop`. kSingleSPE
  /// per-feature sends nothing here (each kernel starts after the
  /// previous one retires, in complete()).
  void dispatch(Work& w, InFlight& f);
  /// Finishes the extraction dispatch() sent (guarded lanes retry or
  /// fall back to the PPE mirrors), reduces partials, runs detection,
  /// and copies the results out.
  AnalysisResult complete(Work& w, InFlight& f);
  /// The detection calls over the mailbox (kSharded: model blocks slot
  /// by slot; kMultiSPE2: one SPE per slot; otherwise the shared CD SPE,
  /// one slot at a time). kMultiSPE2 per-feature sends each detection as
  /// its extraction retires, in complete().
  void detect(Work& w);
  /// A balanced engine's steal loop over the fused lanes; a task the
  /// guard gives up on is mirrored from `w`.
  std::optional<StealLoop> steal_loop(Work& w);

  // ---- the working set ----
  /// Sizes `w` for this engine: output buffers, detection messages
  /// scoring at most `max_models` models per slot (0: all), kSharded
  /// shard/block staging, and the detection calls.
  void init_work(Work& w, int max_models);
  /// Fills `w`'s messages for `w.pixels` (Listing 4's FILL_MSG), its
  /// shard or fused ranges and partial buffers, and its extraction
  /// calls; takes over the feed/decode fallbacks staged while the image
  /// was ingested. Each range message costs 4 stores: `charge_each`
  /// charges them one range at a time (a stream), otherwise summed per
  /// image (analyze(), pipelined batches). Throws ConfigError for fused
  /// images below 16x16, exactly like the TX kernel.
  void prepare(Work& w, bool charge_each);
  /// Steal-loop message addresses of a balanced `w`: task t is
  /// `fused_msgs[t]`, or no task (0) for an empty range. The span is a
  /// buffer reused from call to call (StealLoop::push copies it).
  std::span<const std::uint64_t> task_eas(const Work& w);
  /// Fixed-order merge of `w`'s fused blobs or shard partials into its
  /// four feature buffers (the cellshard reducers).
  void reduce(Work& w);
  /// Concatenates slot `s`'s staged model-block scores (kSharded).
  void concat_blocks(Work& w, int s);
  /// Copies `w`'s outputs into a result (Section 3.3, last step),
  /// handing over its degraded list.
  AnalysisResult collect(Work& w);
  /// Bumps the images-analyzed counter and drops a timeline marker.
  void note_image_done();

  // ---- kernel calls ----
  /// Mailbox transport: sends `c` (nothing for an empty range).
  void send(KernelCall& c);
  /// Mailbox transport: collects `c` (guard retry, PPE mirror on
  /// give-up) and records it as an SPE span of `phase`.
  void finish(KernelCall& c, Work& w, probe::Phase phase);
  /// Ring transport: re-runs a call the ring lost through the lane's
  /// guard, with the label and mirror finish() would use.
  void rerun(const KernelCall& c, Work& w);
  std::string label(const KernelCall& c) const;
  /// PPE recompute of `c`'s output into `w`, recorded as degraded.
  void mirror(const KernelCall& c, Work& w);
  /// PPE mirror of fused range `j` of `w` (a lane's or a task's): the
  /// per-feature partials written into the four sections of its blob,
  /// recorded as degraded "fuse:<feature>".
  void mirror_fused(Work& w, std::size_t j);
  void note_degraded(Work& w, const char* stage, int s);
  /// SPU_Run, or SPU_Run_Naive for an engine built with `use_naive`
  /// (CH/CC/EH have naive kernel versions).
  int extract_opcode(int s) const;

  // ---- cellfeed paths (no-ops unless set_feed(true)) ----
  /// Decode-or-feed front end shared by analyze(), the pipelined batch
  /// loop, and StreamEngine's image prepare. With feed off (or an
  /// ineligible carrier) it charges exactly what the legacy decode path
  /// charged. `between_slices`, when set, runs after every PPE decode
  /// slice but the last (img::SicDecoder) — the streaming pipeline
  /// services finished SPE tasks there. The image is decoded into
  /// `storage`'s pixel buffer when it is large enough (the streaming
  /// buffers recycle theirs, so a long stream does not churn the heap).
  /// With `loop`, a SIC carrier is scanned on the PPE and its block rows
  /// decode as owner `owner`'s SPU_Run_Decode tasks (decode_on_spes).
  img::RgbImage ingest(const img::SicEncoded& image,
                       const std::function<void()>& between_slices = {},
                       img::RgbImage storage = {}, StealLoop* loop = nullptr,
                       std::size_t owner = 0);
  /// celldecode: the SPE half of ingest() for a scanned SIC carrier —
  /// one SPU_Run_Decode task per block row on `loop`, pushed and drained
  /// (under the FeedDMA probe phase) before the function returns; a task
  /// the guard gives up on decodes its block row on the PPE, degraded
  /// "decode:rows". An image whose block rows do not fit the kernel's LS
  /// budget decodes on the PPE instead (decode.ppe_images).
  void decode_on_spes(img::SicDecoder& dec, StealLoop& loop,
                      std::size_t owner);
  /// The SPE half of ingest(): splits `hdr`'s rows across feed_lanes_,
  /// sends SPU_Run_Feed, and waits under the FeedDMA probe phase.
  void feed_image(const img::SicEncoded& image, const img::PpmHeader& hdr,
                  img::RgbImage& dst);
  /// PPE mirror for one lane's row range (guard gave up or the kernel
  /// faulted): bit-identical bytes to the SPE unpack.
  void feed_fallback_rows(const img::SicEncoded& image,
                          const img::PpmHeader& hdr,
                          const shard::Range& rows, img::RgbImage& dst);

  // ---- cellbalance paths (no-ops unless set_balanced(true)) ----
  /// Adds a finished loop's task/arm/steal totals to the steal.* counters.
  void tally_steals(const StealLoop& loop);

  // ---- cellbalance cache (no-ops unless set_cache(>0)) ----
  bool cache_on() const { return cache_ != nullptr && cache_->enabled(); }
  /// FNV-1a64 over the encoded carrier bytes, charged to the PPE.
  std::uint64_t cache_digest(const img::SicEncoded& image);
  /// Lookup front end shared by every cached path: digests `image`,
  /// probes the cache under a kCache span and bumps the hit/miss
  /// counters. On a hit, copies the value into `*out` (charged like
  /// collect()) and returns true; on a miss, stores the digest in
  /// `*key` for the post-analysis insert and returns false.
  bool cache_try_serve(const img::SicEncoded& image, AnalysisResult* out,
                       std::uint64_t* key);
  /// Inserts an undegraded cold result under its digest, charging the
  /// write-back and refreshing the cache gauges/eviction counter.
  void cache_store(std::uint64_t key, const AnalysisResult& result);
  /// The pipelined batch loop proper, over the cache misses only (the
  /// public wrapper serves hits and reassembles input order).
  std::vector<AnalysisResult> pipelined_cold(
      const std::vector<const img::SicEncoded*>& images);

  // ---- cellprobe ----
  /// The live request trace, or null when no sink is installed (every
  /// RequestTrace/ProbeSpan call site stays unconditional).
  probe::RequestTrace* prt() {
    return probe_ != nullptr ? &rt_ : nullptr;
  }
  /// Closes the request trace and delivers it to the sink.
  void finish_request();

  sim::Machine& machine_;
  Scenario scenario_;
  kernels::BufferingDepth buffering_;
  bool use_naive_;
  port::Profiler profiler_;
  learn::MarvelModels models_;
  sim::SimTime startup_ns_ = 0;
  // Cached at construction so the per-image path does no registry lookup.
  trace::Counter* images_counter_ = nullptr;

  // cellguard state (null when the policy is disabled).
  guard::GuardPolicy guard_;
  std::unique_ptr<guard::SpeHealth> health_;
  trace::Counter* fallback_counter_ = nullptr;

  // The static placement, opened once at construction: plain interfaces
  // for an unguarded engine, GuardedInterfaces for a guarded one. Every
  // Lane below points into one of the two.
  std::vector<std::unique_ptr<port::SPEInterface>> ifaces_;
  std::vector<std::unique_ptr<guard::GuardedInterface>> guards_;
  /// Every lane in opening order: what a plain kernel fault collects
  /// before it propagates.
  std::vector<Lane> lanes_;
  /// kSharded detection: one lane per model block.
  std::vector<Lane> cd_block_lanes_;
  /// The scenario's fused extraction lanes (kSingleSPE: slot 0's
  /// extract lane; kMultiSPE/kMultiSPE2: the four extract lanes;
  /// kSharded: the extract-shard lanes slot-major, capped at
  /// fused_plan_.lanes).
  std::vector<Lane> fused_lanes_;
  /// The scenario's detect-side lanes feed rows ride (kSharded: the
  /// detection block lanes; kMultiSPE2: the four detection SPEs;
  /// otherwise the shared CD lane).
  std::vector<Lane> feed_lanes_;

  // cellfeed state.
  bool feed_ = false;
  std::vector<port::WrappedMessage<kernels::FeedMsg>> feed_msgs_;
  trace::Counter* feed_images_counter_ = nullptr;
  trace::Counter* feed_rows_counter_ = nullptr;
  trace::Counter* feed_fallback_counter_ = nullptr;
  /// Degraded records from guarded feed (and decode) fallbacks. The
  /// pipelined loop decodes image i+1 while image i is still in flight,
  /// so they are staged here until prepare() hands them to the image's
  /// working set.
  std::vector<std::string> feed_pending_degraded_;

  // celldecode state: the block-row tasks of the image decode_on_spes()
  // is decoding (one at a time).
  kernels::DecodeTasks decode_tasks_;
  trace::Counter* decode_rows_counter_ = nullptr;
  trace::Counter* decode_fallback_counter_ = nullptr;
  trace::Counter* decode_ppe_images_counter_ = nullptr;

  // cellbalance state.
  bool balanced_ = false;
  std::unique_ptr<balance::ContentCache<AnalysisResult>> cache_;
  trace::Counter* steal_tasks_counter_ = nullptr;
  trace::Counter* steal_arms_counter_ = nullptr;
  trace::Counter* steal_steals_counter_ = nullptr;
  trace::Counter* cache_hits_counter_ = nullptr;
  trace::Counter* cache_miss_counter_ = nullptr;
  trace::Counter* cache_evict_counter_ = nullptr;
  std::uint64_t cache_evictions_seen_ = 0;

  // cellfuse state.
  bool fused_ = false;
  shard::FusedPlan fused_plan_;
  std::vector<std::uint64_t> task_eas_;  // task_eas()'s buffer
  trace::Counter* fuse_images_counter_ = nullptr;

  // cellshard state (kSharded only).
  shard::ShardPlan plan_;
  trace::Counter* shard_reduce_counter_ = nullptr;

  // cellprobe state: the sink (null = probing off) and the request
  // trace reused across requests.
  probe::ProbeSink* probe_ = nullptr;
  probe::RequestTrace rt_;

  FeatureSlot slots_[4];
  /// The working set of analyze() and pipelined batches.
  Work work_;
};

}  // namespace cellport::marvel
