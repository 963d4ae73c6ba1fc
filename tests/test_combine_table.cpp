#include <gtest/gtest.h>

// Unit battery for the map-side combining table (DESIGN.md §15) in both
// of its admission modes — every key (hash-combine) and a frozen key set
// (frequency-buffering): combine equivalence against an exact oracle,
// adversarial prefix-collision keys, the deferred combine rule, eviction
// and full-table flushes down the overflow path, demotion, conservation
// under randomized load, and whole-map-task bytes identical across the
// sort path, hash-combine, forced hash pressure and frequency-buffering.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/wordcount.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "io/spill_file.hpp"
#include "mr/combine_table.hpp"
#include "mr/map_task.hpp"
#include "mr/types.hpp"

namespace textmr::mr {
namespace {

/// Counting combiner: sums decimal values per key (WordCount's shape).
std::unique_ptr<Reducer> make_summing_combiner() {
  return std::make_unique<LambdaReducer>(
      [](std::string_view key, ValueStream& values, EmitSink& out) {
        std::uint64_t total = 0;
        while (auto v = values.next()) {
          total += std::strtoull(std::string(*v).c_str(), nullptr, 10);
        }
        out.emit(key, std::to_string(total));
      });
}

std::string varint_value(std::uint64_t v) {
  std::string out;
  put_varint(out, v);
  return out;
}

std::uint64_t varint_of(std::string_view bytes) {
  std::size_t pos = 0;
  return get_varint(bytes, pos);
}

/// Pressure runs (ctest -L pressure) repeat the randomized load 10x.
int fuzz_scale() {
  if (const char* env = std::getenv("TEXTMR_FUZZ_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1) return static_cast<int>(v > 100 ? 100 : v);
  }
  return 1;
}

struct FlatRecord {
  std::uint32_t partition;
  std::string key;
  std::string value;

  friend bool operator==(const FlatRecord&, const FlatRecord&) = default;
};

/// Records the table sends down the overflow (spill) path.
class RecordingSink final : public PartitionedSink {
 public:
  void put(std::uint32_t partition, std::string_view key,
           std::string_view value) override {
    records.push_back(
        FlatRecord{partition, std::string(key), std::string(value)});
  }
  std::vector<FlatRecord> records;
};

/// Reads every record of a run, partition by partition, in file order.
std::vector<FlatRecord> read_run(const io::SpillRunInfo& info,
                                 io::SpillFormat format) {
  std::vector<FlatRecord> records;
  io::SpillRunReader reader(info.path, format);
  for (std::uint32_t p = 0; p < reader.num_partitions(); ++p) {
    io::RunCursor cursor = reader.open(p);
    while (auto record = cursor.next()) {
      records.push_back(
          FlatRecord{p, std::string(record->key), std::string(record->value)});
    }
  }
  return records;
}

/// Asserts the run respects spill order: within each partition keys are
/// nondecreasing (record_ref_less order projected onto files).
void expect_run_sorted(const std::vector<FlatRecord>& records) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].partition == records[i - 1].partition) {
      EXPECT_LE(records[i - 1].key, records[i].key)
          << "run order violated at record " << i;
    } else {
      EXPECT_LT(records[i - 1].partition, records[i].partition);
    }
  }
}

struct TableHarness {
  TempDir dir;
  TaskMetrics metrics;
  RecordingSink overflow;
  std::unique_ptr<Reducer> combiner;
  std::unique_ptr<CombineTable> table;
  io::SpillFormat format = io::SpillFormat::kCompactVarint;

  explicit TableHarness(CombineTableConfig config,
                        std::unique_ptr<Reducer> table_combiner =
                            make_summing_combiner())
      : combiner(std::move(table_combiner)) {
    config.format = format;
    table = std::make_unique<CombineTable>(
        config, combiner.get(), overflow,
        [this](std::uint64_t sequence) {
          return (dir.path() / ("run" + std::to_string(sequence) + ".run"))
              .string();
        },
        metrics, nullptr);
  }

  /// What the emit router does: the spill path takes what the table
  /// does not.
  void offer(std::uint32_t partition, std::string_view key,
             std::string_view value) {
    if (!table->offer(partition, key, value)) {
      overflow.put(partition, key, value);
    }
  }

  /// Every record that left the table or never entered it, plus every
  /// run record.
  std::vector<FlatRecord> all_records(
      const std::vector<io::SpillRunInfo>& runs) const {
    std::vector<FlatRecord> records = overflow.records;
    for (const auto& run : runs) {
      const auto run_records = read_run(run, format);
      expect_run_sorted(run_records);
      records.insert(records.end(), run_records.begin(), run_records.end());
    }
    return records;
  }
};

TEST(CombineTable, CombineEquivalenceVsExactOracle) {
  // A zipf-ish word stream: the table must produce exactly the oracle's
  // per-key totals, in one globally sorted run (no pressure).
  CombineTableConfig config;
  config.num_partitions = 3;
  TableHarness h(config);

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> oracle;
  Xoshiro256 rng(0x68617368ULL);  // "hash"
  for (std::size_t i = 0; i < 20000; ++i) {
    const std::string word = "w" + std::to_string(rng.next_below(700));
    const std::uint32_t partition =
        static_cast<std::uint32_t>(rng.next_below(3));
    const std::uint64_t weight = 1 + rng.next_below(3);
    ASSERT_TRUE(h.table->offer(partition, word, std::to_string(weight)));
    oracle[{partition, word}] += weight;
  }

  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u) << "no-pressure case must emit exactly one run";
  EXPECT_TRUE(h.overflow.records.empty());
  const auto records = read_run(runs[0], h.format);
  expect_run_sorted(records);
  ASSERT_EQ(records.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [pk, total] : oracle) {
    EXPECT_EQ(records[i].partition, pk.first);
    EXPECT_EQ(records[i].key, pk.second);
    EXPECT_EQ(records[i].value, std::to_string(total));
    ++i;
  }
  EXPECT_EQ(h.table->stats().absorbed, 20000u);
  EXPECT_EQ(h.table->stats().hits, 20000u - oracle.size());
  EXPECT_EQ(h.table->stats().demotions, 0u);
  EXPECT_EQ(h.metrics.spilled_records, records.size());
}

TEST(CombineTable, PrefixCollisionAdversarialKeys) {
  // Keys engineered to tie on the 8-byte big-endian prefix: identical
  // first 8 bytes with divergent tails (including NULs), short keys that
  // are prefixes of longer ones, and empty keys. Equality must confirm on
  // the full key; the radix fallback must order the tails correctly.
  CombineTableConfig config;
  TableHarness h(config);

  std::vector<std::string> keys = {
      "",
      std::string(1, '\0'),
      std::string("prefix00", 8),
      std::string("prefix00a", 9),
      std::string("prefix00b", 9),
      std::string("prefix00\0x", 10),
      std::string("prefix00\0y", 10),
      "prefix00aaaaaaaaaaaaaaaa",
      "pre",
      "prefix",
      "prefix0",
  };
  std::map<std::string, std::uint64_t> oracle;
  for (std::size_t round = 0; round < 7; ++round) {
    for (const auto& key : keys) {
      h.offer(0, key, "1");
      oracle[key] += 1;
    }
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0], h.format);
  ASSERT_EQ(records.size(), oracle.size())
      << "prefix-colliding keys must not merge";
  std::size_t i = 0;
  for (const auto& [key, total] : oracle) {
    EXPECT_EQ(records[i].key, key) << "at " << i;
    EXPECT_EQ(records[i].value, std::to_string(total));
    ++i;
  }
}

TEST(CombineTable, NoCombinerChainsAllValues) {
  // Without a combiner the table degrades to grouping: every value
  // survives, per key in arrival order.
  CombineTableConfig config;
  TableHarness h(config, /*table_combiner=*/nullptr);
  for (int i = 0; i < 5; ++i) {
    h.offer(0, "alpha", "a" + std::to_string(i));
    h.offer(0, "beta", "b" + std::to_string(i));
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0], h.format);
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].key, "alpha");
    EXPECT_EQ(records[static_cast<std::size_t>(i)].value,
              "a" + std::to_string(i));
    EXPECT_EQ(records[static_cast<std::size_t>(5 + i)].key, "beta");
    EXPECT_EQ(records[static_cast<std::size_t>(5 + i)].value,
              "b" + std::to_string(i));
  }
}

TEST(CombineTable, FullTableFlushesThenDemotes) {
  // A small budget fills with distinct keys: the table flushes sorted
  // runs, and after kDemoteAfterFlushes flushes admits nothing more. No
  // record is lost across runs and the spill path, and the resident
  // bytes never pass the budget.
  CombineTableConfig config;
  config.num_partitions = 2;
  config.budget_bytes = 4096;
  TableHarness h(config);

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> oracle;
  Xoshiro256 rng(0x64656d6fULL);  // "demo"
  for (std::size_t i = 0; i < 30000; ++i) {
    const std::string word = "key" + std::to_string(rng.next_below(4000));
    const std::uint32_t partition =
        static_cast<std::uint32_t>(rng.next_below(2));
    h.offer(partition, word, "1");
    oracle[{partition, word}] += 1;
  }
  EXPECT_FALSE(h.table->offer(0, "key1", "1")) << "demoted table admitted";
  const auto runs = h.table->finish();
  EXPECT_EQ(h.table->stats().flushes, CombineTable::kDemoteAfterFlushes);
  EXPECT_EQ(h.table->stats().demotions, 1u);
  EXPECT_EQ(runs.size(), CombineTable::kDemoteAfterFlushes);
  EXPECT_LE(h.table->stats().resident_high_water, config.budget_bytes);
  EXPECT_FALSE(h.overflow.records.empty());

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> totals;
  for (const auto& r : h.all_records(runs)) {
    totals[{r.partition, r.key}] += std::strtoull(r.value.c_str(), nullptr, 10);
  }
  EXPECT_EQ(totals, oracle);
}

TEST(CombineTable, RecordLargerThanTheBudgetIsNotAdmitted) {
  CombineTableConfig config;
  config.budget_bytes = 1024;
  TableHarness h(config);
  EXPECT_FALSE(h.table->offer(0, "big", std::string(2000, 'v')));
  EXPECT_TRUE(h.table->offer(0, "small", "1"));
  EXPECT_EQ(h.table->stats().flushes, 0u);
  EXPECT_EQ(h.table->finish().size(), 1u);
}

TEST(CombineTable, FinishedTwiceThrows) {
  CombineTableConfig config;
  TableHarness h(config);
  h.offer(0, "k", "1");
  (void)h.table->finish();
  EXPECT_THROW((void)h.table->finish(), InternalError);
}

// ---- frozen key set (frequency-buffering) ----------------------------------

CombineTableConfig frozen_set_config(std::size_t budget_bytes = 1u << 20) {
  CombineTableConfig config;
  config.admit_all = false;
  config.budget_bytes = budget_bytes;
  return config;
}

TEST(CombineTableFrozenSet, AdmitsFrozenSetRejectsOthers) {
  TableHarness h(frozen_set_config(),
                 std::make_unique<apps::WordCountCombiner>());
  EXPECT_FALSE(h.table->offer(0, "hot", varint_value(1)))
      << "nothing is admitted before the set is frozen";
  h.table->admit({"hot", "warm"});
  EXPECT_TRUE(h.table->offer(0, "hot", varint_value(1)));
  EXPECT_TRUE(h.table->offer(1, "warm", varint_value(1)));
  EXPECT_FALSE(h.table->offer(0, "cold", varint_value(1)));
  EXPECT_EQ(h.table->stats().absorbed, 2u);
  EXPECT_TRUE(h.overflow.records.empty());
}

TEST(CombineTableFrozenSet, EmptyKeySetAdmitsNothing) {
  TableHarness h(frozen_set_config(), nullptr);
  h.table->admit({});
  EXPECT_FALSE(h.table->offer(0, "anything", "v"));
  EXPECT_TRUE(h.table->finish().empty());
  EXPECT_TRUE(h.overflow.records.empty());
}

TEST(CombineTableFrozenSet, FlushCombinesOnceAndIsIdempotent) {
  TableHarness h(frozen_set_config(),
                 std::make_unique<apps::WordCountCombiner>());
  h.table->admit({"hot"});
  for (int i = 0; i < 100; ++i) h.offer(0, "hot", varint_value(1));
  h.table->flush();
  h.table->flush();
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0], h.format);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "hot");
  EXPECT_EQ(varint_of(records[0].value), 100u);
  EXPECT_EQ(h.table->stats().absorbed, 100u);
  EXPECT_EQ(h.table->stats().flushed, 1u);
}

TEST(CombineTableFrozenSet, PerKeyLimitTriggersCombine) {
  TableHarness h(frozen_set_config(),
                 std::make_unique<apps::WordCountCombiner>());
  h.table->admit({"hot"});
  const std::size_t limit = h.table->per_key_limit();
  for (int i = 0; i < 10000; ++i) h.offer(0, "hot", varint_value(1));
  // Combining at the limit keeps the key's footprint to a block of at
  // most twice the limit plus the outgrown smaller blocks, and a count
  // never leaves the table.
  EXPECT_LE(h.table->stats().resident_high_water, 4 * limit + 512);
  EXPECT_TRUE(h.overflow.records.empty());
  EXPECT_GT(h.metrics.op_ns(Op::kCombine), 0u);
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0], h.format);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(varint_of(records[0].value), 10000u);
}

TEST(CombineTableFrozenSet, AggregateOverHalfTheLimitLeavesForTheSpillPath) {
  // Without a combiner values cannot shrink: a key past its limit is
  // evicted to the spill path, and every value still arrives exactly once.
  TableHarness h(frozen_set_config(4096), nullptr);
  h.table->admit({"a", "b"});
  ASSERT_EQ(h.table->per_key_limit(), 64u);
  for (int i = 0; i < 10; ++i) {
    h.offer(0, "a", std::string(10, 'x'));
    h.offer(0, "b", std::string(10, 'y'));
  }
  EXPECT_FALSE(h.overflow.records.empty());
  EXPECT_GT(h.table->stats().evicted, 0u);
  std::size_t a_bytes = 0, b_bytes = 0;
  for (const auto& r : h.all_records(h.table->finish())) {
    if (r.key == "a") a_bytes += r.value.size();
    if (r.key == "b") b_bytes += r.value.size();
  }
  EXPECT_EQ(a_bytes, 100u);
  EXPECT_EQ(b_bytes, 100u);
}

TEST(CombineTableFrozenSet, NoDataLossUnderRandomizedLoad) {
  // Conservation: sum of counts offered == sum of counts that come out
  // (runs + spill path), under a budget tight enough to force combines,
  // evictions, full-table flushes and demotion.
  CombineTableConfig config = frozen_set_config(2048);
  config.num_partitions = 2;
  TableHarness h(config, std::make_unique<apps::WordCountCombiner>());
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("k" + std::to_string(i));
  h.table->admit(keys);

  std::map<std::string, std::uint64_t> expected;
  std::uint64_t state = 1;
  for (int i = 0; i < 20000 * fuzz_scale(); ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::string key = "k" + std::to_string(state % 8);
    const std::uint64_t count = 1 + (state >> 32) % 7;
    h.offer(static_cast<std::uint32_t>(state % 3 == 0), key,
            varint_value(count));
    expected[key] += count;
  }
  std::map<std::string, std::uint64_t> actual;
  for (const auto& r : h.all_records(h.table->finish())) {
    actual[r.key] += varint_of(r.value);
  }
  EXPECT_EQ(actual, expected);
  EXPECT_LE(h.table->stats().resident_high_water, 2048u);
}

// ---- whole-map-task byte-identity ----------------------------------------

struct ModeRun {
  std::string bytes;  // raw output run file
  TaskMetrics metrics;
};

/// Runs one map task over `input` and returns its output run's bytes.
ModeRun run_mode(const std::filesystem::path& input,
                 const std::filesystem::path& scratch, CombineMode mode,
                 std::size_t memory_bytes, bool freq) {
  MapTaskConfig config;
  config.task_id = 0;
  config.split = io::InputSplit{input.string(), 0,
                                std::filesystem::file_size(input)};
  config.num_partitions = 4;
  config.mapper = [] {
    return std::make_unique<LambdaMapper>(
        [](std::uint64_t, std::string_view line, EmitSink& out) {
          // Whitespace word splitter with per-word unit counts.
          std::size_t start = 0;
          while (start < line.size()) {
            const std::size_t end = line.find(' ', start);
            const std::string_view word = line.substr(
                start, end == std::string_view::npos ? std::string_view::npos
                                                     : end - start);
            if (!word.empty()) out.emit(word, "1");
            if (end == std::string_view::npos) break;
            start = end + 1;
          }
        });
  };
  config.combiner = [] { return make_summing_combiner(); };
  config.spill_buffer_bytes = memory_bytes;
  config.scratch_dir = scratch;
  config.combine_mode = mode;
  if (freq) {
    config.freqbuf.enabled = true;
    config.freqbuf.top_k = 50;
    config.freqbuf.sampling_fraction = 0.05;
    config.freq_table_budget_bytes = 8u << 10;
  }
  const MapTaskResult result = run_map_task(config);
  std::ifstream in(result.output.path, std::ios::binary);
  return ModeRun{std::string(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()),
                 result.map_thread};
}

TEST(CombineTable, MapTaskByteIdenticalAcrossModes) {
  TempDir dir;
  const std::filesystem::path input = dir.path() / "input.txt";
  {
    std::ofstream out(input);
    Xoshiro256 rng(0x62797465ULL);  // "byte"
    for (int line = 0; line < 4000; ++line) {
      for (int w = 0; w < 8; ++w) {
        out << "word" << rng.next_below(900) << (w == 7 ? '\n' : ' ');
      }
    }
  }
  // 64 KiB forces several sort-path spills.
  const ModeRun sorted = run_mode(input, dir.path() / "s", CombineMode::kSort,
                                  64u << 10, false);
  const ModeRun hashed = run_mode(input, dir.path() / "h", CombineMode::kHash,
                                  1u << 20, false);
  // Forced pressure: a 4 KiB budget holds a fraction of the 900 keys, so
  // the table flushes until it demotes and the ring takes the rest.
  const ModeRun forced = run_mode(input, dir.path() / "f", CombineMode::kHash,
                                  4u << 10, false);
  const ModeRun freq = run_mode(input, dir.path() / "q", CombineMode::kSort,
                                64u << 10, true);
  ASSERT_FALSE(sorted.bytes.empty());
  EXPECT_EQ(sorted.bytes, hashed.bytes)
      << "hash-combine output differs from sort path";
  EXPECT_EQ(sorted.bytes, forced.bytes)
      << "flush/demotion path output differs from sort path";
  EXPECT_EQ(sorted.bytes, freq.bytes)
      << "frequency-buffering output differs from sort path";
  EXPECT_EQ(hashed.metrics.hash_combine_flushes, 0u);
  EXPECT_GT(hashed.metrics.hash_combine_hits, 0u);
  EXPECT_GT(forced.metrics.hash_combine_flushes, 0u);
  EXPECT_GT(forced.metrics.hash_combine_demotions, 0u);
  EXPECT_GT(freq.metrics.freq_hits, 0u);
  EXPECT_GT(freq.metrics.op_ns(Op::kFreqTable), 0u);
  EXPECT_GT(freq.metrics.op_ns(Op::kProfile), 0u);
}

}  // namespace
}  // namespace textmr::mr
