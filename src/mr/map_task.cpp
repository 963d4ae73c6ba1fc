#include "mr/map_task.hpp"

#include <map>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/mutex.hpp"
#include "common/stopwatch.hpp"
#include "mr/combine_table.hpp"
#include "mr/merger.hpp"
#include "mr/skew_partitioner.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"

namespace textmr::mr {
namespace {

/// The tail of the standard dataflow: frames records into the spill
/// ring. Fed by the emit router (records the table does not take) and by
/// the table's evictions.
class SpillSink final : public PartitionedSink {
 public:
  SpillSink(SpillBuffer& buffer, TaskMetrics& metrics)
      : buffer_(buffer), metrics_(metrics) {}

  void put(std::uint32_t partition, std::string_view key,
           std::string_view value) override {
    metrics_.spill_input_records += 1;
    metrics_.spill_input_bytes += key.size() + value.size();
    buffer_.put(partition, key, value);
  }

 private:
  SpillBuffer& buffer_;
  TaskMetrics& metrics_;
};

/// The sink handed to user map() code: counts output volume, feeds
/// frequency-buffering's profiler, partitions the record (per record, at
/// emit time, in every mode — a skew plan's split-key round-robin cursor
/// must advance identically everywhere), then offers it to the combining
/// table when there is one and sends what the table does not take down
/// the spill path.
///
/// Timing: a ring put is timed into kEmit. The table path (probe and
/// append, partitioning included) is timed for one record in 32 and
/// scaled — kEmit in hash mode, kFreqTable under frequency-buffering —
/// net of the work the table accounts itself (combine, evictions,
/// flushes); per-record clock reads would cost a sizable share of the
/// path they measure.
class EmitRouter final : public EmitSink {
 public:
  EmitRouter(SkewAwarePartitioner& partitioner, SpillSink& spill,
             CombineTable* table, Op table_op,
             freqbuf::FreqBufferController* freq, TaskMetrics& metrics,
             obs::TraceBuffer* trace)
      : partitioner_(partitioner),
        spill_(spill),
        table_(table),
        table_op_(table_op),
        freq_(freq),
        metrics_(metrics),
        trace_(trace) {}

  void emit(std::string_view key, std::string_view value) override {
    metrics_.map_output_records += 1;
    metrics_.map_output_bytes += key.size() + value.size();
    if (freq_ != nullptr && freq_->profiling()) {
      freq_->observe(key);  // self-timed into kProfile
    }
    if (table_ == nullptr) {
      ScopedTimer timer(metrics_, Op::kEmit);
      spill_.put(partitioner_(key), key, value);
      return;
    }
    const bool timed = (metrics_.map_output_records & 31u) == 0;
    const std::uint64_t t0 = timed ? monotonic_ns() : 0;
    const std::uint64_t self_timed = table_->self_timed_ns();
    const std::uint32_t partition = partitioner_(key);
    const bool absorbed = table_->offer(partition, key, value);
    if (timed) {
      metrics_.op_ns(table_op_) +=
          (monotonic_ns() - t0 - (table_->self_timed_ns() - self_timed)) * 32;
      sample_table();
    }
    if (!absorbed) {
      ScopedTimer timer(metrics_, Op::kEmit);
      spill_.put(partition, key, value);
    }
  }

 private:
  /// Frequency-buffering's occupancy and hit-rate time series (a single
  /// branch when tracing is off).
  void sample_table() {
    if (trace_ == nullptr || freq_ == nullptr ||
        (metrics_.map_output_records & 1023u) != 0) {
      return;
    }
    obs::record_counter(trace_, "freq", "freq_buffered_bytes",
                        static_cast<double>(table_->resident_bytes()));
    obs::record_counter(
        trace_, "freq", "freq_hit_rate",
        static_cast<double>(table_->stats().absorbed) /
            static_cast<double>(metrics_.map_output_records));
  }

  SkewAwarePartitioner& partitioner_;
  SpillSink& spill_;
  CombineTable* table_;
  Op table_op_;
  freqbuf::FreqBufferController* freq_;
  TaskMetrics& metrics_;
  obs::TraceBuffer* trace_;
};

/// Adopts (single run) or merges (several) the task's sorted runs into
/// its final output. Shared by both combine modes — a hash-combine run
/// and a sort-spill run are byte-compatible by construction.
void finish_map_output(const MapTaskConfig& config,
                       std::vector<io::SpillRunInfo>& runs, Reducer* combiner,
                       obs::TraceBuffer* map_trace, MapTaskResult& result) {
  const std::string out_path =
      (config.scratch_dir /
       (map_attempt_prefix(config.task_id, config.attempt) + "output.run"))
          .string();
  if (runs.empty()) {
    // No output at all: write an empty run so downstream cursors work.
    io::SpillRunWriter writer(out_path, config.num_partitions,
                              config.spill_format);
    result.output = writer.finish();
  } else if (runs.size() == 1) {
    // Single run: it is already sorted and combined; adopt it (Hadoop
    // does the same rename). The hash path's no-pressure case lands here
    // every time — its finish() emits one globally sorted run.
    std::filesystem::rename(runs.front().path, out_path);
    result.output = runs.front();
    result.output.path = out_path;
    result.map_thread.merged_records += result.output.records;
    result.map_thread.merged_bytes += result.output.bytes;
  } else {
    obs::SpanTimer merge_span(map_trace, "task", "map_merge");
    merge_span.arg("runs", static_cast<double>(runs.size()));
    result.output =
        merge_runs(runs, combiner, out_path, config.num_partitions,
                   config.spill_format, result.map_thread);
    merge_span.arg("records", static_cast<double>(result.output.records));
    if (!config.keep_spill_runs) {
      for (const auto& run : runs) {
        std::error_code ec;
        std::filesystem::remove(run.path, ec);
      }
    }
  }
}

}  // namespace

std::string map_attempt_prefix(std::uint32_t task_id, std::uint32_t attempt) {
  return "map" + std::to_string(task_id) + "_a" + std::to_string(attempt) +
         "_";
}

MapTaskResult run_map_task(const MapTaskConfig& config) {
  TEXTMR_CHECK(static_cast<bool>(config.mapper), "map task needs a mapper");
  TEXTMR_CHECK(config.num_partitions >= 1, "map task needs >= 1 partition");
  std::filesystem::create_directories(config.scratch_dir);
  // Frequency-buffering under hash-combine is hash-combine: the table
  // already admits every key, so there is nothing to profile.
  const bool hash_mode = config.combine_mode == CombineMode::kHash;
  const bool freq_mode = !hash_mode && config.freqbuf.enabled;

  MapTaskResult result;
  const std::uint64_t task_start = monotonic_ns();

  // Trace rings (all null when tracing is off): one for the map thread,
  // one per support thread, one for the spill buffer's internal events.
  const std::uint32_t trace_pid = obs::map_task_pid(config.task_id);
  obs::TraceBuffer* map_trace = nullptr;
  obs::TraceBuffer* buffer_trace = nullptr;
  if (config.trace != nullptr) {
    const std::string process = "map_task_" + std::to_string(config.task_id);
    map_trace = config.trace->make_buffer(trace_pid, obs::kMapThreadTid,
                                          "map", process);
    buffer_trace = config.trace->make_buffer(
        trace_pid, obs::kSpillBufferTid, "spill-buffer");
  }
  obs::SpanTimer task_span(map_trace, "task", "map_task");
  task_span.arg("split_bytes", static_cast<double>(config.split.length));
  if (hash_mode) task_span.arg("hash_combine", 1.0);

  // Spill policy (fixed 0.8 unless the job installed the spill-matcher).
  std::unique_ptr<spillmatch::SpillPolicy> policy =
      config.spill_policy ? config.spill_policy()
                          : std::make_unique<spillmatch::FixedSpillPolicy>();

  const std::uint32_t num_support = std::max<std::uint32_t>(
      1, config.support_threads);
  SpillBuffer buffer(config.spill_buffer_bytes, policy->initial_threshold(),
                     num_support, config.spill_format, buffer_trace);
  SkewAwarePartitioner partitioner(
      config.skew_plan != nullptr ? config.skew_plan->num_canonical
                                  : config.num_partitions,
      config.skew_plan, config.task_id);
  TEXTMR_CHECK(partitioner.num_partitions() == config.num_partitions,
               "map task num_partitions disagrees with the skew plan");

  // ---- support threads ----------------------------------------------------
  // Each thread gets its own Counters and metrics (no locks on the hot
  // path); merged after join. The runs list, the spill policy and (with
  // several threads) run ordering are guarded by `shared.mu`. kMapTask
  // ranks below kSpillBuffer: a support thread consults the spill policy
  // (and re-enters the buffer to apply its threshold) while holding it.
  Counters map_counters;
  struct SupportShared {
    textmr::Mutex mu{textmr::LockRank::kMapTask, "mr.map_task.support"};
    std::map<std::uint64_t, io::SpillRunInfo> runs_by_sequence
        TEXTMR_GUARDED_BY(mu);
    std::exception_ptr error TEXTMR_GUARDED_BY(mu);
  };
  SupportShared shared;

  struct SupportState {
    Counters counters;
    TaskMetrics metrics;
    std::unique_ptr<Reducer> combiner;
  };
  std::vector<SupportState> support_states(num_support);
  std::vector<std::thread> support_pool;
  support_pool.reserve(num_support);
  for (std::uint32_t s = 0; s < num_support; ++s) {
    SupportState& state = support_states[s];
    if (config.combiner) {
      state.combiner = config.combiner();
      state.combiner->begin_task(TaskInfo{config.task_id, &state.counters});
    }
    obs::TraceBuffer* support_trace =
        config.trace != nullptr
            ? config.trace->make_buffer(trace_pid,
                                        obs::kSupportThreadTidBase + s,
                                        "support-" + std::to_string(s))
            : nullptr;
    support_pool.emplace_back([&, s, support_trace] {
      SupportState& local = support_states[s];
      try {
        while (auto spill = buffer.take()) {
          obs::SpanTimer spill_span(support_trace, "spill", "spill_consume");
          spill_span.arg("sequence", static_cast<double>(spill->sequence));
          spill_span.arg("records",
                         static_cast<double>(spill->records.size()));
          spill_span.arg("data_bytes",
                         static_cast<double>(spill->data_bytes));
          const std::uint64_t consume_start = monotonic_ns();
          const std::string run_path =
              (config.scratch_dir /
               (map_attempt_prefix(config.task_id, config.attempt) +
                "spill" + std::to_string(spill->sequence) + ".run"))
                  .string();
          auto info = sort_and_spill(*spill, local.combiner.get(), run_path,
                                     config.num_partitions,
                                     config.spill_format, local.metrics,
                                     support_trace);
          const std::uint64_t consume_ns = monotonic_ns() - consume_start;
          buffer.release(*spill, consume_ns);
          textmr::MutexLock lock(shared.mu);
          shared.runs_by_sequence.emplace(spill->sequence, std::move(info));
          if (auto timing = buffer.last_timing(); timing.has_value()) {
            const double next = policy->next_threshold(spillmatch::Timing{
                timing->produce_ns, timing->consume_ns, timing->data_bytes});
            buffer.set_threshold(next);
            // The spill-matcher's decision, with the measured T_p / T_c
            // it was derived from (paper eq. (1)).
            obs::record_instant(
                support_trace, "spill", "threshold_update", "tp_ms",
                static_cast<double>(timing->produce_ns) * 1e-6, "tc_ms",
                static_cast<double>(timing->consume_ns) * 1e-6, "threshold",
                next);
          }
        }
      } catch (...) {
        {
          textmr::MutexLock lock(shared.mu);
          if (!shared.error) shared.error = std::current_exception();
        }
        // Unblock the producer: its puts would otherwise wait forever for
        // releases that will never come. Outside the lock — abort() takes
        // the buffer's own mutex and needs no ordering with `shared.mu`.
        buffer.abort();
      }
    });
  }

  // ---- map thread (this thread) ------------------------------------------
  SpillSink spill_sink(buffer, result.map_thread);
  std::unique_ptr<Reducer> map_combiner =
      config.combiner ? config.combiner() : nullptr;
  if (map_combiner != nullptr) {
    map_combiner->begin_task(TaskInfo{config.task_id, &map_counters});
  }
  // The combining table (DESIGN.md §15): every key in hash mode; under
  // frequency-buffering the frozen top-k set, and only with a combiner —
  // without one the table could delay records but never shrink them.
  std::unique_ptr<CombineTable> table;
  if (hash_mode || (freq_mode && map_combiner != nullptr)) {
    CombineTableConfig table_config;
    table_config.budget_bytes = hash_mode ? config.spill_buffer_bytes
                                          : config.freq_table_budget_bytes;
    table_config.num_partitions = config.num_partitions;
    table_config.format = config.spill_format;
    table_config.admit_all = hash_mode;
    table = std::make_unique<CombineTable>(
        table_config, map_combiner.get(), spill_sink,
        [&config](std::uint64_t sequence) {
          return (config.scratch_dir /
                  (map_attempt_prefix(config.task_id, config.attempt) +
                   "hspill" + std::to_string(sequence) + ".run"))
              .string();
        },
        result.map_thread, map_trace);
  }
  std::unique_ptr<freqbuf::FreqBufferController> freq;
  if (freq_mode) {
    freq = std::make_unique<freqbuf::FreqBufferController>(
        config.freqbuf,
        [&table](std::vector<std::string> keys) {
          if (table != nullptr) table->admit(keys);
        },
        result.map_thread, config.node_cache, map_trace);
  }
  EmitRouter router(partitioner, spill_sink, table.get(),
                    hash_mode ? Op::kEmit : Op::kFreqTable, freq.get(),
                    result.map_thread, map_trace);

  // The joins above/below make these reads safe, but the analysis (rightly)
  // cannot see a join; taking the lock is cheap and keeps the proof local.
  auto support_error = [&shared]() -> std::exception_ptr {
    textmr::MutexLock lock(shared.mu);
    return shared.error;
  };
  std::vector<io::SpillRunInfo> table_runs;

  try {
    std::unique_ptr<Mapper> mapper = config.mapper();
    mapper->begin_task(TaskInfo{config.task_id, &map_counters});
    io::LineReader reader(config.split);
    std::uint64_t offset = 0;
    while (true) {
      std::optional<std::string_view> line;
      {
        ScopedTimer read_timer(result.map_thread, Op::kMapRead);
        line = reader.next_line();
      }
      if (!line.has_value()) break;
      result.map_thread.input_records += 1;
      result.map_thread.input_bytes += line->size() + 1;
      if (freq != nullptr) {
        freq->set_progress(reader.fraction_consumed());
      }
      if (config.progress != nullptr) {
        config.progress->store(reader.fraction_consumed(),
                               std::memory_order_relaxed);
      }
      TEXTMR_FAILPOINT("map.user_code");
      {
        ScopedTimer map_timer(result.map_thread, Op::kMapUser);
        mapper->map(offset, *line, router);
      }
      ++offset;
    }
    if (freq != nullptr) {
      freq->finish();
      result.freq_stage_at_end = freq->stage();
      result.freq_sampling_fraction = freq->effective_sampling_fraction();
    }
    // map() wall time included everything emit() did (serialization,
    // profiling, table work, buffer waits), and so far every other op on
    // this thread happened inside emit(); subtract them to leave pure user
    // code in kMapUser.
    TaskMetrics& m = result.map_thread;
    const std::uint64_t inside_emit =
        m.total_ns(true) - m.op_ns(Op::kMapUser) - m.op_ns(Op::kMapRead);
    m.op_ns(Op::kMapUser) -= std::min(m.op_ns(Op::kMapUser), inside_emit);
    if (table != nullptr) {
      if (freq != nullptr) {
        obs::record_instant(map_trace, "freq", "freq_flush",
                            "buffered_bytes",
                            static_cast<double>(table->resident_bytes()));
      }
      // The residue becomes one sorted run (self-timed into kSort,
      // kCombine and kSpillWrite, outside any emit interval).
      table_runs = table->finish();
    }
  } catch (...) {
    // Map-side failure (user code or a support-thread abort surfacing
    // through put()): shut the pipeline down, join, and report the root
    // cause — a support thread's error wins if both failed.
    buffer.abort();
    for (auto& thread : support_pool) thread.join();
    if (auto error = support_error()) std::rethrow_exception(error);
    throw;
  }
  buffer.close();
  for (auto& thread : support_pool) thread.join();
  if (auto error = support_error()) std::rethrow_exception(error);
  for (auto& state : support_states) {
    result.support_thread += state.metrics;
    result.counters += state.counters;
  }
  std::vector<io::SpillRunInfo> runs;
  {
    textmr::MutexLock lock(shared.mu);
    runs.reserve(shared.runs_by_sequence.size());
    for (auto& [sequence, info] : shared.runs_by_sequence) {
      runs.push_back(std::move(info));
    }
  }
  runs.insert(runs.end(), table_runs.begin(), table_runs.end());
  if (table != nullptr) {
    const CombineTableStats& stats = table->stats();
    if (hash_mode) {
      result.map_thread.hash_combine_hits += stats.hits;
      result.map_thread.hash_combine_flushes += stats.flushes;
      result.map_thread.hash_combine_demotions += stats.demotions;
    } else {
      result.map_thread.freq_hits += stats.absorbed;
      result.map_thread.freq_flushes += stats.evicted + stats.flushed;
    }
  }
  result.pipeline_wall_ns = monotonic_ns() - task_start;

  // Map-thread emit time currently includes buffer-full waits; move them
  // to the idle bucket (paper Table II's "map thread idle").
  const std::uint64_t map_wait = buffer.producer_wait_ns();
  std::uint64_t& emit_ns = result.map_thread.op_ns(Op::kEmit);
  emit_ns -= std::min(emit_ns, map_wait);
  result.map_thread.op_ns(Op::kMapIdle) += map_wait;
  result.support_thread.op_ns(Op::kSupportIdle) += buffer.consumer_wait_ns();
  result.spills = buffer.spills_sealed() + table_runs.size();
  result.final_spill_threshold = buffer.threshold();

  // ---- final merge --------------------------------------------------------
  finish_map_output(config, runs, map_combiner.get(), map_trace, result);

  result.counters += map_counters;
  result.wall_ns = monotonic_ns() - task_start;
  return result;
}

}  // namespace textmr::mr
