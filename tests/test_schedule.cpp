// Schedule pins: the simulated elapsed time and a result digest of every
// CellEngine per-image schedule, stored under tests/data/.
//
// Each per-call row runs two small corpus images through one engine
// configuration — scenario x extraction mode (per-feature kernels,
// fused lanes, balanced tasks, per-feature with SPE feed ingest) x
// {unguarded, guarded} x entry path (analyze() twice, or one
// analyze_batch_pipelined() over both; pipelined needs a parallel
// scenario). Each stream row runs three images through one
// StreamEngine — scenario x mode x {unguarded, guarded, guarded with
// SPE 0 hung} x batch {1, 2}, plus a concept-clamped (max_models 2)
// batch-2 stream — and also pins the doorbell count and a digest of the
// per-request completion stamps. A refactor of the dispatch code must
// reproduce every row exactly: same kernel calls, same order, same
// simulated clock.
//
// To regenerate after an *intentional* schedule change:
//
//   CELLPORT_REGEN_GOLDEN=1 ./build/tests/cellport_tests
//   (optionally with --gtest_filter='SchedulePins.*')
//
// and name every changed row in the change description.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "balance/digest.h"
#include "guard/policy.h"
#include "img/codec.h"
#include "img/synth.h"
#include "marvel/cell_engine.h"
#include "marvel/stream_engine.h"
#include "sim/machine.h"
#include "support/error.h"
#include "testutil.h"

namespace cellport::marvel {
namespace {

#ifndef CELLPORT_TEST_DATA_DIR
#error "CELLPORT_TEST_DATA_DIR must point at the tests/data source dir"
#endif

const char* const kTablePath = CELLPORT_TEST_DATA_DIR "/schedule_pins.txt";

enum class Mode { kFeature, kFused, kBalanced, kFeed };

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kSingleSPE:
      return "single";
    case Scenario::kMultiSPE:
      return "multi";
    case Scenario::kMultiSPE2:
      return "multi2";
    default:
      return "sharded";
  }
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kFeature:
      return "feature";
    case Mode::kFused:
      return "fused";
    case Mode::kBalanced:
      return "balanced";
    default:
      return "feed";
  }
}

struct Pin {
  double elapsed_ns = 0;
  std::uint64_t digest = 0;
  // Stream rows only.
  std::uint64_t doorbells = 0;
  std::uint64_t done_digest = 0;
};

/// Stream rows follow this marker line; everything above it is the
/// per-call table. Each test regenerates only its own section.
const char* const kStreamMarker = "# stream pins";

void mix(std::uint64_t* h, const void* data, std::size_t n) {
  // Chains FNV-1a over consecutive fields (seeded by the running hash).
  std::uint8_t buf[8];
  std::memcpy(buf, h, sizeof buf);
  std::vector<std::uint8_t> bytes(buf, buf + sizeof buf);
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes.insert(bytes.end(), p, p + n);
  *h = balance::fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t digest(const std::vector<AnalysisResult>& results) {
  std::uint64_t h = 0;
  for (const AnalysisResult& r : results) {
    for (const features::FeatureVector* fv :
         {&r.color_histogram, &r.color_correlogram, &r.texture,
          &r.edge_histogram}) {
      mix(&h, fv->values.data(), fv->values.size() * sizeof(float));
    }
    for (const DetectionScores* ds :
         {&r.ch_detect, &r.cc_detect, &r.tx_detect, &r.eh_detect}) {
      mix(&h, ds->values.data(), ds->values.size() * sizeof(double));
    }
    for (const std::string& d : r.degraded) mix(&h, d.data(), d.size());
  }
  return h;
}

class SchedulePins : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_schedule_models.bin", 2);
    // Two of the golden corpus images (tests/test_golden.cpp).
    const img::RgbImage a =
        img::synth_image(img::SceneKind::kShapes, 42, 64, 48);
    const img::RgbImage b =
        img::synth_image(img::SceneKind::kGradient, 7, 80, 60);
    sic_ = new std::vector<img::SicEncoded>{img::sic_encode(a, 70),
                                            img::sic_encode(b, 85)};
    ppm_ = new std::vector<img::SicEncoded>{img::ppm_encode(a),
                                            img::ppm_encode(b)};
    // Streams take a third image, so a batch-2 stream runs two windows.
    const img::RgbImage c =
        img::synth_image(img::SceneKind::kTexture, 9, 72, 56);
    stream_sic_ = new std::vector<img::SicEncoded>(*sic_);
    stream_sic_->push_back(img::sic_encode(c, 60));
    stream_ppm_ = new std::vector<img::SicEncoded>(*ppm_);
    stream_ppm_->push_back(img::ppm_encode(c));
  }
  static void TearDownTestSuite() {
    delete library_;
    delete sic_;
    delete ppm_;
    delete stream_sic_;
    delete stream_ppm_;
  }

  static Pin run(Scenario scenario, Mode mode, bool guarded,
                 bool pipelined) {
    sim::Machine machine;
    guard::GuardPolicy policy;
    policy.enabled = guarded;
    policy.retry.deadline_ns = 500e6;
    CellEngine engine(machine, library_->path(), scenario,
                      kernels::kDoubleBuffer, /*use_naive=*/false, policy);
    if (mode == Mode::kFused) engine.set_fused(true);
    if (mode == Mode::kBalanced) engine.set_balanced(true);
    if (mode == Mode::kFeed) engine.set_feed(true);
    const std::vector<img::SicEncoded>& images =
        mode == Mode::kFeed ? *ppm_ : *sic_;
    const sim::SimTime t0 = machine.ppe().now_ns();
    std::vector<AnalysisResult> results;
    if (pipelined) {
      results = engine.analyze_batch_pipelined(images);
    } else {
      for (const auto& image : images) results.push_back(engine.analyze(image));
    }
    return {machine.ppe().now_ns() - t0, digest(results)};
  }

  enum class Faults { kPlain, kGuarded, kHung };

  static Pin run_stream(Scenario scenario, Mode mode, Faults faults,
                        int batch, int max_models) {
    sim::Machine machine;
    guard::GuardPolicy policy;
    policy.enabled = faults != Faults::kPlain;
    policy.retry.deadline_ns = 500e6;
    CellEngine engine(machine, library_->path(), scenario,
                      kernels::kDoubleBuffer, /*use_naive=*/false, policy);
    if (mode == Mode::kFused) engine.set_fused(true);
    if (mode == Mode::kBalanced) engine.set_balanced(true);
    if (mode == Mode::kFeed) engine.set_feed(true);
    if (faults == Faults::kHung) {
      // SPE 0 stops answering for good: the guard migrates its calls to
      // a spare where the scenario leaves one, and mirrors them on the
      // PPE where it does not.
      sim::FaultInjection hang;
      hang.hang_after = 0;
      hang.hang_sticky = true;
      hang.clears_on_restart = false;
      machine.spe(0).inject_fault(hang);
    }
    StreamOptions opts;
    opts.batch = batch;
    opts.max_models = max_models;
    StreamEngine stream(engine, opts);
    const sim::SimTime t0 = machine.ppe().now_ns();
    const std::vector<AnalysisResult> results =
        stream.run(mode == Mode::kFeed ? *stream_ppm_ : *stream_sic_);
    Pin pin{machine.ppe().now_ns() - t0, digest(results),
            stream.stats().doorbells, 0};
    const std::vector<sim::SimTime>& done = stream.completion_ns();
    mix(&pin.done_digest, done.data(), done.size() * sizeof(sim::SimTime));
    return pin;
  }

  static testutil::TempLibrary* library_;
  static std::vector<img::SicEncoded>* sic_;
  static std::vector<img::SicEncoded>* ppm_;
  static std::vector<img::SicEncoded>* stream_sic_;
  static std::vector<img::SicEncoded>* stream_ppm_;
};

testutil::TempLibrary* SchedulePins::library_ = nullptr;
std::vector<img::SicEncoded>* SchedulePins::sic_ = nullptr;
std::vector<img::SicEncoded>* SchedulePins::ppm_ = nullptr;
std::vector<img::SicEncoded>* SchedulePins::stream_sic_ = nullptr;
std::vector<img::SicEncoded>* SchedulePins::stream_ppm_ = nullptr;

std::map<std::string, Pin> read_table() {
  std::FILE* f = std::fopen(kTablePath, "rb");
  if (f == nullptr) {
    throw IoError(std::string("cannot open ") + kTablePath +
                  " (run with CELLPORT_REGEN_GOLDEN=1 to create it)");
  }
  std::map<std::string, Pin> table;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (line[0] == '#' || line[0] == '\n') continue;
    char key[128];
    Pin pin;
    if (std::sscanf(line, "%127s %lf %" SCNx64 " %" SCNu64 " %" SCNx64, key,
                    &pin.elapsed_ns, &pin.digest, &pin.doorbells,
                    &pin.done_digest) >= 3) {
      table[key] = pin;
    }
  }
  std::fclose(f);
  return table;
}

/// Replaces one section of the table (the per-call rows, or the stream
/// rows from kStreamMarker on) with `text`, keeping the other.
void write_section(bool stream, const std::string& text) {
  std::string sections[2];
  if (std::FILE* f = std::fopen(kTablePath, "rb")) {
    char line[256];
    bool in_stream = false;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, kStreamMarker, std::strlen(kStreamMarker)) ==
          0) {
        in_stream = true;
      }
      sections[in_stream ? 1 : 0] += line;
    }
    std::fclose(f);
  }
  sections[stream ? 1 : 0] = text;
  std::FILE* f = std::fopen(kTablePath, "wb");
  ASSERT_NE(f, nullptr) << "cannot write " << kTablePath;
  for (const std::string& section : sections) {
    std::fwrite(section.data(), 1, section.size(), f);
  }
  std::fclose(f);
}

TEST_F(SchedulePins, EveryScheduleMatchesTheTable) {
  const bool regen = std::getenv("CELLPORT_REGEN_GOLDEN") != nullptr;
  const std::map<std::string, Pin> table =
      regen ? std::map<std::string, Pin>{} : read_table();
  std::ostringstream out;
  out << "# CellEngine schedule pins (tests/test_schedule.cpp): simulated\n"
         "# PPE elapsed ns and result digest per configuration.\n"
         "# key: scenario/mode/guard/entry\n";
  for (Scenario scenario : {Scenario::kSingleSPE, Scenario::kMultiSPE,
                            Scenario::kMultiSPE2, Scenario::kSharded}) {
    for (Mode mode :
         {Mode::kFeature, Mode::kFused, Mode::kBalanced, Mode::kFeed}) {
      for (bool pipelined : {false, true}) {
        if (pipelined && scenario == Scenario::kSingleSPE) continue;
        Pin pins[2];
        for (bool guarded : {false, true}) {
          const std::string key =
              std::string(scenario_name(scenario)) + "/" + mode_name(mode) +
              "/" + (guarded ? "guarded" : "plain") + "/" +
              (pipelined ? "pipelined" : "analyze");
          SCOPED_TRACE(key);
          const Pin pin = run(scenario, mode, guarded, pipelined);
          pins[guarded ? 1 : 0] = pin;
          char row[256];
          std::snprintf(row, sizeof row, "%s %.17g %016" PRIx64 "\n",
                        key.c_str(), pin.elapsed_ns, pin.digest);
          out << row;
          if (regen) continue;
          auto it = table.find(key);
          ASSERT_NE(it, table.end()) << "no pinned row";
          EXPECT_EQ(pin.elapsed_ns, it->second.elapsed_ns);
          EXPECT_EQ(pin.digest, it->second.digest);
        }
        // A fault-free guarded run charges exactly what an unguarded one
        // does, and computes the same values.
        EXPECT_EQ(pins[1].elapsed_ns, pins[0].elapsed_ns)
            << scenario_name(scenario) << "/" << mode_name(mode)
            << (pipelined ? "/pipelined" : "/analyze");
        EXPECT_EQ(pins[1].digest, pins[0].digest);
      }
    }
  }
  if (regen) {
    write_section(/*stream=*/false, out.str());
    GTEST_SKIP() << "regenerated " << kTablePath;
  }
}

TEST_F(SchedulePins, EveryStreamScheduleMatchesTheTable) {
  const bool regen = std::getenv("CELLPORT_REGEN_GOLDEN") != nullptr;
  const std::map<std::string, Pin> table =
      regen ? std::map<std::string, Pin>{} : read_table();
  std::ostringstream out;
  out << kStreamMarker
      << " (StreamEngine::run over three images): simulated PPE\n"
         "# elapsed ns, result digest, doorbells, completion-stamp digest.\n"
         "# key: stream/scenario/mode/faults/batch[/m<max_models>]\n";
  struct Variant {
    Faults faults;
    int batch;
    int max_models;
  };
  const Variant variants[] = {
      {Faults::kPlain, 1, 0},  {Faults::kPlain, 2, 0},
      {Faults::kGuarded, 1, 0}, {Faults::kGuarded, 2, 0},
      {Faults::kHung, 1, 0},   {Faults::kHung, 2, 0},
      {Faults::kPlain, 2, 2},  {Faults::kHung, 2, 2},
  };
  for (Scenario scenario : {Scenario::kSingleSPE, Scenario::kMultiSPE,
                            Scenario::kMultiSPE2, Scenario::kSharded}) {
    for (Mode mode :
         {Mode::kFeature, Mode::kFused, Mode::kBalanced, Mode::kFeed}) {
      std::map<int, std::uint64_t> plain_digest;  // batch -> digest
      for (const Variant& v : variants) {
        const char* faults = v.faults == Faults::kPlain     ? "plain"
                             : v.faults == Faults::kGuarded ? "guarded"
                                                            : "hung";
        std::string key = std::string("stream/") + scenario_name(scenario) +
                          "/" + mode_name(mode) + "/" + faults + "/b" +
                          std::to_string(v.batch);
        if (v.max_models > 0) key += "/m" + std::to_string(v.max_models);
        SCOPED_TRACE(key);
        const Pin pin =
            run_stream(scenario, mode, v.faults, v.batch, v.max_models);
        char row[256];
        std::snprintf(row, sizeof row,
                      "%s %.17g %016" PRIx64 " %" PRIu64 " %016" PRIx64 "\n",
                      key.c_str(), pin.elapsed_ns, pin.digest, pin.doorbells,
                      pin.done_digest);
        out << row;
        // A fault-free guarded stream computes the unguarded values.
        if (v.max_models == 0 && v.faults == Faults::kPlain) {
          plain_digest[v.batch] = pin.digest;
        } else if (v.max_models == 0 && v.faults == Faults::kGuarded) {
          EXPECT_EQ(pin.digest, plain_digest[v.batch]);
        }
        if (regen) continue;
        auto it = table.find(key);
        ASSERT_NE(it, table.end()) << "no pinned row";
        EXPECT_EQ(pin.elapsed_ns, it->second.elapsed_ns);
        EXPECT_EQ(pin.digest, it->second.digest);
        EXPECT_EQ(pin.doorbells, it->second.doorbells);
        EXPECT_EQ(pin.done_digest, it->second.done_digest);
      }
    }
  }
  if (regen) {
    write_section(/*stream=*/true, out.str());
    GTEST_SKIP() << "regenerated " << kTablePath;
  }
}

}  // namespace
}  // namespace cellport::marvel
