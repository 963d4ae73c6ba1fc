#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "mr/job.hpp"

namespace textmr::mr {

/// Shared task-execution layer used by both engines: LocalEngine drives
/// these helpers from worker threads, ClusterEngine from forked worker
/// processes. Keeping spec validation, task-config construction, attempt
/// cleanup and result aggregation here guarantees that a task runs
/// identically regardless of which engine scheduled it — the property the
/// cross-engine differential tests assert.

/// Validates a JobSpec; throws ConfigError on contract violations.
void validate_job(const JobSpec& spec);

/// "part-r-00007"-style final output name for a partition.
std::string part_name(std::uint32_t partition);

/// Final output path of one reduce partition.
std::filesystem::path reduce_output_path(const JobSpec& spec,
                                         std::uint32_t partition);

/// Path a physical reduce task commits to: the canonical part file in
/// hash mode, the scratch segment file when a non-empty skew plan is in
/// force (the finalize merge later restores the part files). Shared by
/// config construction and failed-attempt cleanup so they can never
/// disagree.
std::filesystem::path reduce_task_output_path(const JobSpec& spec,
                                              const SkewPlan* plan,
                                              std::uint32_t partition);

/// Map-side memory split between the spill buffer and the frequent-key
/// table (total fixed, paper §V-B2). Under hash-combine there is no
/// frequent-key table: the combining table and the ring each get the
/// whole spill_buffer_bytes.
struct MemorySplit {
  std::size_t spill_buffer_bytes = 0;
  std::uint64_t freq_table_budget_bytes = 0;
};
MemorySplit split_memory(const JobSpec& spec);

/// Builds the config for one map-task attempt. `node_cache` is the
/// executing node's shared frequent-key cache (may be null);
/// `trace` is the executing process's collector (may be null);
/// `skew_plan` routes heavy keys when non-null and non-empty (the map
/// task then spills plan->num_physical() partitions).
MapTaskConfig make_map_task_config(const JobSpec& spec, const MemorySplit& mem,
                                   std::uint32_t task, std::uint32_t attempt,
                                   freqbuf::NodeKeyCache* node_cache,
                                   obs::TraceCollector* trace,
                                   const SkewPlan* skew_plan = nullptr);

/// Builds the config for one reduce-task attempt over the given map
/// outputs (must be ordered by map-task id for deterministic merges).
/// With a non-empty `skew_plan` the task writes a segment file instead
/// of a part file; split-share partitions run the merge combiner and
/// emit partials (DESIGN.md §12).
ReduceTaskConfig make_reduce_task_config(
    const JobSpec& spec, std::uint32_t partition, std::uint32_t attempt,
    std::vector<io::SpillRunInfo> map_outputs, obs::TraceCollector* trace,
    const SkewPlan* skew_plan = nullptr, ShuffleFetcher fetch = {});

/// Removes the scratch files of one dead map attempt (best-effort).
void cleanup_map_attempt(const JobSpec& spec, std::uint32_t task,
                         std::uint32_t attempt);

/// Removes the temp file of one dead reduce attempt (best-effort).
void cleanup_reduce_attempt(const std::filesystem::path& output_path,
                            std::uint32_t attempt);

/// Folds one finished map task's metrics/counters/summary into the job
/// result. Does NOT append to result.outputs or collect the output run —
/// shuffling the run to reducers is the engine's business.
void fold_map_result(const MapTaskResult& task_result, JobResult& result);

/// Folds one finished reduce task into the job result, appending a
/// ReduceTaskSummary (partition = fold order, so call in partition
/// order). `include_output` is false in skew mode, where the task wrote
/// a scratch segment and finalize_skew_outputs owns result.outputs.
void fold_reduce_result(const ReduceTaskResult& reduce_result,
                        JobResult& result, bool include_output = true);

/// Records one "partition_bytes" trace instant per physical reduce task
/// (from result.reduce_tasks) and fills JobMetrics::partition_bytes_max /
/// partition_bytes_median — the skew-ratio inputs. Shared by both
/// engines; call after every reduce result is folded.
void note_partition_bytes(JobResult& result, obs::TraceBuffer* driver_trace);

/// Message of the in-flight exception; call only inside a catch block.
std::string current_error_message();

/// Whether the in-flight exception is worth a re-execution. Transient
/// failures (I/O, user-code throws) are; InternalError (invariant bug)
/// and ConfigError (bad spec) are deterministic and fail the job
/// immediately with their original type. Call only inside a catch block.
bool is_retryable_error();

/// Deletes everything in `dir` whose filename starts with `prefix` — the
/// scratch files of one dead task attempt. Best-effort: cleanup must
/// never mask the task's own error.
void remove_attempt_files(const std::filesystem::path& dir,
                          const std::string& prefix);

/// Exponential backoff between attempts of one task.
void backoff_sleep(std::uint32_t base_ms, std::uint32_t failed_attempt);

/// Shared state of the retry scheduler: attempt accounting plus the
/// first permanent task failure (which dooms the job).
struct RetryState {
  // Both set once by the engine before any worker thread starts, then
  // read-only; publication happens-before via the thread launches.
  std::uint32_t max_attempts = 1;    // check:allow(lock-coverage): see above
  std::uint32_t backoff_base_ms = 0;  // check:allow(lock-coverage): see above
  std::atomic<std::uint64_t> task_attempts{0};
  std::atomic<std::uint64_t> tasks_retried{0};
  std::atomic<bool> job_failed{false};
  textmr::Mutex error_mu{textmr::LockRank::kEngine, "mr.engine.retry_error"};
  std::exception_ptr job_error TEXTMR_GUARDED_BY(error_mu);

  void record_permanent_failure(const std::string& what);
  void record_permanent_error(std::exception_ptr error);

  // Annotation-surfaced fix (PR 3): this used to read job_error unlocked,
  // racing a straggler worker's record_permanent_error() — benign-looking
  // because the engine joins first, but the phase barrier only covers the
  // phase's own workers, and the unlocked read was unprovable anyway.
  void rethrow_if_failed();
};

/// Logs + traces one retry (out-of-line so the template stays light).
void note_retry(const char* kind, std::uint32_t id, std::uint32_t attempt,
                const std::string& cause, obs::TraceCollector* collector,
                obs::TraceBuffer** worker_trace, std::uint32_t pid,
                std::uint32_t tid, const std::string& worker_name);

/// Runs one task with bounded retries. `run_attempt(attempt)` executes
/// the task; `cleanup_attempt(attempt)` removes a dead attempt's files.
/// Returns false when the task failed permanently (the job is doomed and
/// the caller's worker should stop claiming tasks).
template <typename RunAttempt, typename CleanupAttempt>
bool run_with_retries(RetryState& retry, const char* kind, std::uint32_t id,
                      obs::TraceCollector* collector,
                      obs::TraceBuffer** worker_trace, std::uint32_t pid,
                      std::uint32_t tid, const std::string& worker_name,
                      RunAttempt&& run_attempt,
                      CleanupAttempt&& cleanup_attempt) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    retry.task_attempts.fetch_add(1, std::memory_order_relaxed);
    try {
      run_attempt(attempt);
      return true;
    } catch (...) {
      const std::string cause = current_error_message();
      cleanup_attempt(attempt);
      if (!is_retryable_error()) {
        // Invariant/contract violations are deterministic: re-running
        // cannot succeed, so propagate the original typed error at once.
        retry.record_permanent_error(std::current_exception());
        return false;
      }
      if (attempt + 1 >= retry.max_attempts) {
        retry.record_permanent_failure(
            std::string(kind) + " task " + std::to_string(id) +
            " failed after " + std::to_string(attempt + 1) +
            (attempt == 0 ? " attempt: " : " attempts: ") + cause);
        return false;
      }
      if (attempt == 0) {
        retry.tasks_retried.fetch_add(1, std::memory_order_relaxed);
      }
      note_retry(kind, id, attempt, cause, collector, worker_trace, pid, tid,
                 worker_name);
      backoff_sleep(retry.backoff_base_ms, attempt);
    }
  }
}

}  // namespace textmr::mr
