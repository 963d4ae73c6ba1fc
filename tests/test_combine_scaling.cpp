#include <gtest/gtest.h>

// Complexity gate for map-side combining: the combiner's input volume per
// map-output record must not grow with the input. A combiner decorator
// counts the value bytes every combine() call reads, so the check is a
// deterministic byte count rather than a timing. Each app runs at n and 4n
// words under the sort path, hash-combine and frequency-buffering; a
// combine rule that re-reads a key's whole aggregate on every hit (a
// posting list that grows per key) shows up as a ratio near 4.
//
// A single-hot-key corpus, whose one posting list is several times the
// map-side table budget, must still produce the sort path's bytes.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "textgen/corpus_gen.hpp"

namespace textmr {
namespace {

/// Pressure runs (ctest -L pressure) use 10x the corpus sizes.
std::uint64_t pressure_scale() {
  if (const char* env = std::getenv("TEXTMR_PRESSURE_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1) return static_cast<std::uint64_t>(v > 100 ? 100 : v);
  }
  return 1;
}

/// ValueStream wrapper adding the size of every value it hands out.
class CountingStream final : public mr::ValueStream {
 public:
  CountingStream(mr::ValueStream& inner, std::uint64_t& bytes)
      : inner_(inner), bytes_(bytes) {}
  std::optional<std::string_view> next() override {
    auto value = inner_.next();
    if (value.has_value()) bytes_ += value->size();
    return value;
  }

 private:
  mr::ValueStream& inner_;
  std::uint64_t& bytes_;
};

/// Combiner decorator: forwards to the app's combiner and counts the
/// value bytes it reads into a job-wide total.
class CountingCombiner final : public mr::Reducer {
 public:
  CountingCombiner(std::unique_ptr<mr::Reducer> inner,
                   std::atomic<std::uint64_t>& total)
      : inner_(std::move(inner)), total_(total) {}
  void begin_task(const mr::TaskInfo& info) override {
    inner_->begin_task(info);
  }
  void reduce(std::string_view key, mr::ValueStream& values,
              mr::EmitSink& out) override {
    std::uint64_t bytes = 0;
    CountingStream counted(values, bytes);
    inner_->reduce(key, counted, out);
    total_.fetch_add(bytes, std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<mr::Reducer> inner_;
  std::atomic<std::uint64_t>& total_;
};

enum class Mode { kSort, kHash, kFreq };

const char* mode_name(Mode mode) {
  return mode == Mode::kSort ? "sort" : mode == Mode::kHash ? "hash" : "freq";
}

struct RunResult {
  std::uint64_t combine_bytes = 0;
  std::uint64_t map_output_records = 0;
  std::vector<std::string> parts;  // raw part-file bytes, in part order

  double bytes_per_record() const {
    return static_cast<double>(combine_bytes) /
           static_cast<double>(map_output_records);
  }
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Runs `app` over `input` (one split) in `mode` with the default memory
/// budget unless `budget_bytes` is set, counting combiner input bytes.
RunResult run_counted(const apps::AppBundle& app,
                      const std::filesystem::path& input, Mode mode,
                      const TempDir& dir, const std::string& tag,
                      std::size_t budget_bytes = 0) {
  std::atomic<std::uint64_t> combine_bytes{0};
  auto spec = test::make_job(app, io::make_splits(input.string(), 1u << 30),
                             dir.file("s-" + tag), dir.file("o-" + tag));
  // The default 16 MiB budget keeps every cell at one sort-path spill, so
  // the merge adds no combine pass at 4n that n lacks.
  spec.spill_buffer_bytes = budget_bytes != 0 ? budget_bytes : 16u << 20;
  const mr::ReducerFactory inner = app.combiner;
  spec.combiner = [inner, &combine_bytes] {
    return std::make_unique<CountingCombiner>(inner(), combine_bytes);
  };
  if (mode == Mode::kHash) spec.combine_mode = mr::CombineMode::kHash;
  if (mode == Mode::kFreq) {
    spec.freqbuf.enabled = true;
    spec.freqbuf.top_k = app.freq_top_k;
    spec.freqbuf.sampling_fraction = app.freq_sampling_fraction;
  }
  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  RunResult out;
  out.combine_bytes = combine_bytes.load();
  out.map_output_records = result.metrics.work.map_output_records;
  for (const auto& part : result.outputs) out.parts.push_back(read_file(part));
  return out;
}

std::filesystem::path make_corpus(const TempDir& dir, std::uint64_t words) {
  textgen::CorpusSpec spec;
  spec.total_words = words;
  spec.vocabulary = 5000;
  spec.alpha = 1.0;
  spec.seed = 1313;
  const auto path = dir.file("corpus-" + std::to_string(words) + ".txt");
  textgen::generate_corpus(spec, path.string());
  return path;
}

struct ScalingParams {
  std::string app;
  Mode mode;
};

void PrintTo(const ScalingParams& p, std::ostream* os) {
  *os << p.app << " " << mode_name(p.mode);
}

class CombineScalingTest : public ::testing::TestWithParam<ScalingParams> {};

TEST_P(CombineScalingTest, CombineInputPerRecordStaysFlatFromNTo4N) {
  const auto& p = GetParam();
  const apps::AppBundle app = p.app == "WordCount"
                                  ? apps::wordcount_app()
                                  : apps::inverted_index_app();
  TempDir dir;
  const std::uint64_t n = 20000 * pressure_scale();
  const RunResult small =
      run_counted(app, make_corpus(dir, n), p.mode, dir, "n");
  const RunResult large =
      run_counted(app, make_corpus(dir, 4 * n), p.mode, dir, "4n");
  ASSERT_GT(small.combine_bytes, 0u);
  const double ratio = large.bytes_per_record() / small.bytes_per_record();
  EXPECT_LE(ratio, 1.5) << "combiner input bytes per map-output record: "
                        << small.bytes_per_record() << " at n=" << n << ", "
                        << large.bytes_per_record() << " at 4n";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CombineScalingTest,
    ::testing::Values(ScalingParams{"WordCount", Mode::kSort},
                      ScalingParams{"WordCount", Mode::kHash},
                      ScalingParams{"WordCount", Mode::kFreq},
                      ScalingParams{"InvertedIndex", Mode::kSort},
                      ScalingParams{"InvertedIndex", Mode::kHash},
                      ScalingParams{"InvertedIndex", Mode::kFreq}));

TEST(CombineScaling, SingleHotKeyPostingListMatchesSortPath) {
  // One word per line: InvertedIndex builds one posting list of one
  // location per line. At 64 KiB of map-side memory the list (~1 byte
  // per delta-encoded location) is several times the table budget in
  // every mode, so it must leave the table and still combine correctly.
  TempDir dir;
  const std::uint64_t lines = 250000 * pressure_scale();
  const auto input = dir.file("hot.txt");
  {
    std::ofstream out(input);
    for (std::uint64_t i = 0; i < lines; ++i) out << "hot\n";
  }
  constexpr std::size_t kBudget = 64u << 10;
  const apps::AppBundle app = apps::inverted_index_app();
  const RunResult sorted =
      run_counted(app, input, Mode::kSort, dir, "sort", kBudget);
  const RunResult hashed =
      run_counted(app, input, Mode::kHash, dir, "hash", kBudget);
  const RunResult freq =
      run_counted(app, input, Mode::kFreq, dir, "freq", kBudget);
  ASSERT_FALSE(sorted.parts.empty());
  EXPECT_EQ(hashed.parts, sorted.parts);
  EXPECT_EQ(freq.parts, sorted.parts);
  // Linear combine work: every location is re-read a bounded number of
  // times, not once per later hit.
  for (const RunResult* run : {&sorted, &hashed, &freq}) {
    EXPECT_LE(run->bytes_per_record(), 16.0);
  }

  // The same records straight into a table with each mode's budget: the
  // list leaves the table, which never holds more than its budget.
  class NullSink final : public mr::PartitionedSink {
   public:
    void put(std::uint32_t, std::string_view, std::string_view) override {}
  } overflow;
  const mr::JobSpec defaults;
  const std::size_t freq_budget = static_cast<std::size_t>(
      kBudget * defaults.freqbuf.table_budget_fraction);
  for (const std::size_t budget : {kBudget, freq_budget}) {
    mr::TaskMetrics metrics;
    mr::CombineTableConfig config;
    config.budget_bytes = budget;
    config.admit_all = budget == kBudget;
    const auto combiner = app.combiner();
    mr::CombineTable table(
        config, combiner.get(), overflow,
        [&dir](std::uint64_t sequence) {
          return dir.file("table" + std::to_string(sequence) + ".run").string();
        },
        metrics);
    if (!config.admit_all) table.admit({"hot"});
    class TableSink final : public mr::EmitSink {
     public:
      explicit TableSink(mr::CombineTable& table) : table_(table) {}
      void emit(std::string_view key, std::string_view value) override {
        EXPECT_TRUE(table_.offer(0, key, value));
      }

     private:
      mr::CombineTable& table_;
    } sink(table);
    const auto mapper = app.mapper();
    for (std::uint64_t i = 0; i < lines; ++i) mapper->map(i, "hot", sink);
    (void)table.finish();
    EXPECT_GT(table.stats().evicted, 0u) << "budget " << budget;
    EXPECT_LE(table.stats().resident_high_water, budget) << "budget " << budget;
  }
}

}  // namespace
}  // namespace textmr
