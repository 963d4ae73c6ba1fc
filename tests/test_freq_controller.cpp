#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "common/zipf.hpp"
#include "apps/wordcount.hpp"
#include "freqbuf/controller.hpp"
#include "io/spill_file.hpp"
#include "mr/combine_table.hpp"
#include "textgen/corpus_gen.hpp"

namespace textmr::freqbuf {
namespace {

class RecordingSink final : public mr::PartitionedSink {
 public:
  void put(std::uint32_t, std::string_view key,
           std::string_view value) override {
    records.emplace_back(std::string(key), std::string(value));
  }
  std::vector<std::pair<std::string, std::string>> records;
};

std::string varint_value(std::uint64_t v) {
  std::string out;
  put_varint(out, v);
  return out;
}

std::uint64_t varint_of(std::string_view bytes) {
  std::size_t pos = 0;
  return get_varint(bytes, pos);
}

FreqBufConfig basic_config() {
  FreqBufConfig config;
  config.enabled = true;
  config.top_k = 10;
  config.sampling_fraction = 0.1;  // fixed s, no pre-profiling
  config.share_across_tasks = false;
  return config;
}

/// A map task's frequency-buffering pair: the controller profiles keys
/// and freezes the set into a frozen-set combining table, whose spill
/// path is recorded. The emit router's order is kept: profile, then
/// offer to the table, then the spill path.
struct FreqHarness {
  TempDir dir;
  RecordingSink spill;
  mr::TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  mr::CombineTable table;
  FreqBufferController controller;

  explicit FreqHarness(FreqBufConfig config, NodeKeyCache* cache = nullptr)
      : table(table_config(), &combiner, spill,
              [this](std::uint64_t sequence) {
                return (dir.path() / ("run" + std::to_string(sequence)))
                    .string();
              },
              metrics),
        controller(
            config,
            [this](std::vector<std::string> keys) { table.admit(keys); },
            metrics, cache) {}

  static mr::CombineTableConfig table_config() {
    mr::CombineTableConfig config;
    config.admit_all = false;
    config.budget_bytes = 1 << 16;
    return config;
  }

  /// Returns true if the table absorbed the record.
  bool emit(std::string_view key, std::string_view value) {
    if (controller.profiling()) controller.observe(key);
    if (table.offer(0, key, value)) return true;
    spill.put(0, key, value);
    return false;
  }

  /// Every record out of the table's runs plus the spill path.
  std::vector<std::pair<std::string, std::string>> outputs() {
    auto records = spill.records;
    for (const auto& run : table.finish()) {
      io::SpillRunReader reader(run.path);
      io::RunCursor cursor = reader.open(0);
      while (auto record = cursor.next()) {
        records.emplace_back(std::string(record->key),
                             std::string(record->value));
      }
    }
    return records;
  }
};

/// Streams a Zipf-distributed key sequence through the harness,
/// simulating the map task's progress callbacks.
struct StreamResult {
  std::uint64_t absorbed = 0;
  std::uint64_t passed = 0;
};

StreamResult stream_keys(FreqHarness& h, int n, double alpha,
                         std::uint64_t seed, std::uint64_t vocab = 1000) {
  Xoshiro256 rng(seed);
  ZipfDistribution zipf(vocab, alpha);
  StreamResult result;
  for (int i = 0; i < n; ++i) {
    h.controller.set_progress(static_cast<double>(i) / n);
    const std::string key = textgen::word_for_rank(zipf(rng));
    if (h.emit(key, varint_value(1))) {
      ++result.absorbed;
    } else {
      ++result.passed;
    }
  }
  return result;
}

TEST(FreqBufferController, TransitionsThroughStages) {
  FreqHarness h(basic_config());
  EXPECT_EQ(h.controller.stage(), FreqBufferController::Stage::kProfile);

  h.controller.set_progress(0.05);
  EXPECT_EQ(h.controller.stage(), FreqBufferController::Stage::kProfile);
  h.emit("x", varint_value(1));
  h.controller.set_progress(0.11);
  EXPECT_EQ(h.controller.stage(), FreqBufferController::Stage::kOptimize);
  EXPECT_FALSE(h.controller.profiling());
}

TEST(FreqBufferController, FixedSamplingSkipsPreProfile) {
  mr::TaskMetrics metrics;
  FreqBufferController controller(
      basic_config(), [](std::vector<std::string>) {}, metrics);
  EXPECT_EQ(controller.effective_sampling_fraction(), 0.1);
  EXPECT_FALSE(controller.zipf_fit().has_value());
}

TEST(FreqBufferController, AbsorbsFrequentKeysAfterProfiling) {
  FreqHarness h(basic_config());
  const auto result = stream_keys(h, 50000, 1.2, 99);
  // With alpha=1.2 the top-10 keys carry a large share of the stream; a
  // large portion of post-profiling records must be absorbed.
  EXPECT_GT(result.absorbed, 10000u);
  h.controller.finish();
  const std::size_t passed = h.spill.records.size();
  // The absorbed records come out as one combined record per key.
  EXPECT_LE(h.outputs().size(), passed + 10u);
}

TEST(FreqBufferController, ConservationThroughFlush) {
  // Every emitted count appears exactly once downstream: either passed
  // through during profiling/misses, or in a flushed aggregate.
  FreqHarness h(basic_config());
  std::map<std::string, std::uint64_t> expected;
  Xoshiro256 rng(7);
  ZipfDistribution zipf(500, 1.0);
  constexpr int kN = 30000;
  for (int i = 0; i < kN; ++i) {
    h.controller.set_progress(static_cast<double>(i) / kN);
    const std::string key = textgen::word_for_rank(zipf(rng));
    expected[key] += 1;
    h.emit(key, varint_value(1));
  }
  h.controller.finish();
  std::map<std::string, std::uint64_t> total;
  for (const auto& [key, value] : h.outputs()) total[key] += varint_of(value);
  EXPECT_EQ(total, expected);
}

TEST(FreqBufferController, AutoTunerFitsAlphaAndPicksSamplingFraction) {
  FreqBufConfig config;
  config.enabled = true;
  config.top_k = 20;
  config.sampling_fraction = 0.0;  // auto-tune
  config.pre_profile_fraction = 0.01;
  config.share_across_tasks = false;
  FreqHarness h(config);
  EXPECT_EQ(h.controller.stage(), FreqBufferController::Stage::kPreProfile);

  stream_keys(h, 100000, 1.0, 42, /*vocab=*/2000);
  ASSERT_TRUE(h.controller.zipf_fit().has_value());
  EXPECT_NEAR(h.controller.zipf_fit()->alpha, 1.0, 0.35);
  EXPECT_GE(h.controller.effective_sampling_fraction(),
            config.pre_profile_fraction);
  EXPECT_EQ(h.controller.stage(), FreqBufferController::Stage::kOptimize);
}

TEST(FreqBufferController, NodeCacheSharesKeySetAcrossTasks) {
  NodeKeyCache cache;
  auto config = basic_config();
  config.share_across_tasks = true;

  FreqHarness first(config, &cache);
  EXPECT_EQ(first.controller.stage(), FreqBufferController::Stage::kProfile);
  stream_keys(first, 20000, 1.2, 1);
  first.controller.finish();
  ASSERT_TRUE(cache.get().has_value());
  EXPECT_FALSE(cache.get()->empty());

  // Second task on the same node starts directly in kOptimize, with the
  // cached set already admitted by its table.
  FreqHarness second(config, &cache);
  EXPECT_EQ(second.controller.stage(), FreqBufferController::Stage::kOptimize);
  EXPECT_TRUE(second.emit(cache.get()->front(), varint_value(1)));
}

TEST(NodeKeyCache, FirstWriterWins) {
  NodeKeyCache cache;
  cache.put({"a"});
  cache.put({"b"});
  ASSERT_TRUE(cache.get().has_value());
  EXPECT_EQ(cache.get()->front(), "a");
}

TEST(FreqBufferController, TinyInputEndingDuringPreProfileStillFreezes) {
  NodeKeyCache cache;
  FreqBufConfig config;
  config.enabled = true;
  config.top_k = 5;
  config.sampling_fraction = 0.0;
  config.share_across_tasks = true;
  FreqHarness h(config, &cache);
  h.emit("a", varint_value(1));
  h.emit("a", varint_value(1));
  h.emit("b", varint_value(1));
  h.controller.finish();  // still in kPreProfile; must not crash
  ASSERT_TRUE(cache.get().has_value());
  EXPECT_FALSE(cache.get()->empty());
}

TEST(FreqBufferController, ProfileTimeIsAccounted) {
  FreqHarness h(basic_config());
  stream_keys(h, 20000, 1.0, 3);
  EXPECT_GT(h.metrics.op_ns(mr::Op::kProfile), 0u);
}

}  // namespace
}  // namespace textmr::freqbuf
