// Record-path microbenchmark (DESIGN.md §8): per-record cost of the
// map-side pipeline — emit -> spill ring -> sort -> combine -> spill write
// -> merge — on WordCount over a Zipf(1.0) corpus, the workload the
// paper's Fig. 2 identifies as dominated by serialization/buffering
// abstraction costs.
//
// Emits BENCH_micro_record_path.json with ns/record notes; the CI build
// job fails if the artifact is missing (see .github/workflows/ci.yml).
// Compare the map_side_ns_per_record note across builds to quantify
// record-path changes.

#include <cstdio>
#include <string>

#include "bench_util.hpp"

using namespace textmr;

namespace {

struct MapSideRun {
  std::uint64_t records = 0;
  std::uint64_t framework_ns = 0;  // emit+sort+combine+write+merge
  std::uint64_t wall_ns = 0;       // framework + user map + read
};

/// One full map task on the corpus; the framework component is the record
/// path proper — everything except user map() code, input read and idle
/// time. In kSort mode the task runs map thread + support thread (sort /
/// combine / write land on the support metrics); in kHash mode the
/// combining table works on the map thread (its flushes land in the
/// map thread's kSort/kCombine/kSpillWrite buckets) and the support
/// thread takes what the table lets go — summing the op buckets over
/// both structs measures the two modes with one formula.
MapSideRun run_map_side(const std::filesystem::path& corpus,
                        const TempDir& scratch, mr::CombineMode mode,
                        int round) {
  auto splits = io::make_splits(corpus.string(), 64u << 20);
  mr::MapTaskConfig config;
  config.split = splits.front();
  config.num_partitions = 4;
  config.mapper = [] { return std::make_unique<apps::WordCountMapper>(); };
  config.combiner = [] { return std::make_unique<apps::WordCountCombiner>(); };
  config.spill_buffer_bytes = 1u << 20;  // many spills + a deep final merge
  config.combine_mode = mode;
  config.scratch_dir =
      scratch.file((mode == mr::CombineMode::kHash ? "hmap-" : "map-") +
                   std::to_string(round));

  const auto result = mr::run_map_task(config);
  const auto framework = [](const mr::TaskMetrics& m) {
    return m.op_ns(mr::Op::kEmit) + m.op_ns(mr::Op::kSort) +
           m.op_ns(mr::Op::kCombine) + m.op_ns(mr::Op::kSpillWrite) +
           m.op_ns(mr::Op::kMerge) + m.op_ns(mr::Op::kMergeCombine);
  };
  MapSideRun run;
  run.records = result.map_thread.map_output_records;
  run.framework_ns =
      framework(result.map_thread) + framework(result.support_thread);
  run.wall_ns = result.wall_ns;
  return run;
}

double ns_per(std::uint64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

}  // namespace

int main() {
  bench::JsonReport report("micro_record_path");

  TempDir dir("textmr-micro-record");
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 400'000;
  corpus_spec.vocabulary = 20'000;
  corpus_spec.alpha = 1.0;  // the paper's text-typical Zipf exponent
  corpus_spec.seed = 7;
  const auto corpus = dir.file("corpus.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());

  // ---- map-side pipeline: sort-spill baseline vs hash-combine ----------
  // Steady-state: 1 warmup run, min of 3 measured (see run_until_steady).
  const auto cost = [](const MapSideRun& r) { return r.framework_ns; };
  const auto measure = [&](mr::CombineMode mode) {
    int round = 0;
    return bench::run_until_steady(
        [&] { return run_map_side(corpus, dir, mode, round++); }, cost);
  };
  const MapSideRun best = measure(mr::CombineMode::kSort);
  const double fw_ns = ns_per(best.framework_ns, best.records);
  const double wall_ns = ns_per(best.wall_ns, best.records);
  std::printf("map-side record path: %llu records\n",
              static_cast<unsigned long long>(best.records));
  std::printf("  sort  framework %8.1f ns/record "
              "(emit+sort+combine+write+merge)\n",
              fw_ns);
  std::printf("  sort  wall      %8.1f ns/record (incl. user map + read)\n",
              wall_ns);
  report.add_note("map_side_records", static_cast<double>(best.records));
  report.add_note("map_side_ns_per_record", fw_ns);
  report.add_note("map_side_wall_ns_per_record", wall_ns);

  const MapSideRun hash = measure(mr::CombineMode::kHash);
  const double hash_fw_ns = ns_per(hash.framework_ns, hash.records);
  const double hash_wall_ns = ns_per(hash.wall_ns, hash.records);
  std::printf("  hash  framework %8.1f ns/record "
              "(emit+table+flush+sort+write+merge)\n",
              hash_fw_ns);
  std::printf("  hash  wall      %8.1f ns/record (incl. user map + read)\n",
              hash_wall_ns);
  report.add_note("hash_map_side_ns_per_record", hash_fw_ns);
  report.add_note("hash_map_side_wall_ns_per_record", hash_wall_ns);

  // ---- packed-record primitives in isolation ---------------------------
  {
    constexpr int kN = 1'000'000;
    mr::RecordArena arena;
    std::string key = "benchmark";
    const std::string value = "12345678";
    const std::uint64_t t0 = monotonic_ns();
    for (int i = 0; i < kN; ++i) {
      key[0] = static_cast<char>('a' + (i & 15));
      arena.append(static_cast<std::uint32_t>(i & 3), key, value);
    }
    const std::uint64_t append_ns = monotonic_ns() - t0;

    const std::uint64_t t1 = monotonic_ns();
    std::uint64_t payload = 0;
    for (const mr::RecordRef& ref : arena.records()) {
      payload += ref.key().size() + ref.value().size();
    }
    const std::uint64_t iterate_ns = monotonic_ns() - t1;
    std::printf("arena: append %.1f ns/record, iterate %.1f ns/record "
                "(%llu payload bytes)\n",
                ns_per(append_ns, kN), ns_per(iterate_ns, kN),
                static_cast<unsigned long long>(payload));
    report.add_note("arena_append_ns_per_record", ns_per(append_ns, kN));
    report.add_note("arena_iterate_ns_per_record", ns_per(iterate_ns, kN));
  }

  // ---- one end-to-end job so the artifact carries a full JobResult ------
  const apps::AppBundle app = apps::wordcount_app();
  mr::JobSpec spec;
  spec.name = "micro_record_path";
  spec.inputs = io::make_splits(corpus.string(), 1u << 20);
  spec.mapper = app.mapper;
  spec.reducer = app.reducer;
  spec.combiner = app.combiner;
  spec.num_reducers = 4;
  spec.spill_buffer_bytes = 1u << 20;
  spec.scratch_dir = dir.file("scratch");
  spec.output_dir = dir.file("out");
  mr::LocalEngine engine;
  report.add_job(app.name, "Baseline", engine.run(spec));

  std::printf("wrote %s\n", report.path().string().c_str());
  return 0;
}
