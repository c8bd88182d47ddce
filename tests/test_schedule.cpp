// Schedule pins: the simulated elapsed time and a result digest of every
// CellEngine per-image schedule, stored under tests/data/.
//
// Each row runs two small corpus images through one engine
// configuration — scenario x extraction mode (per-feature kernels,
// fused lanes, balanced tasks, per-feature with SPE feed ingest) x
// {unguarded, guarded} x entry path (analyze() twice, or one
// analyze_batch_pipelined() over both; pipelined needs a parallel
// scenario). A refactor of the dispatch code must reproduce every
// row exactly: same kernel calls, same order, same simulated clock.
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
};

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
  }
  static void TearDownTestSuite() {
    delete library_;
    delete sic_;
    delete ppm_;
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

  static testutil::TempLibrary* library_;
  static std::vector<img::SicEncoded>* sic_;
  static std::vector<img::SicEncoded>* ppm_;
};

testutil::TempLibrary* SchedulePins::library_ = nullptr;
std::vector<img::SicEncoded>* SchedulePins::sic_ = nullptr;
std::vector<img::SicEncoded>* SchedulePins::ppm_ = nullptr;

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
    double ns = 0;
    std::uint64_t dg = 0;
    if (std::sscanf(line, "%127s %lf %" SCNx64, key, &ns, &dg) == 3) {
      table[key] = {ns, dg};
    }
  }
  std::fclose(f);
  return table;
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
    std::FILE* f = std::fopen(kTablePath, "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << kTablePath;
    const std::string text = out.str();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "regenerated " << kTablePath;
  }
}

}  // namespace
}  // namespace cellport::marvel
