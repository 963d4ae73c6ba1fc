#include <gtest/gtest.h>

// Process-level battery for the multi-process ClusterEngine (DESIGN.md
// §10): correctness vs the LocalEngine oracle, straggler detection and
// speculative execution, worker-death recovery (SIGKILL), duplicate
// first-writer-wins commits, and the persisted per-node NodeKeyCache.
//
// These tests fork real worker processes. Failpoints armed in the parent
// are inherited by every worker; per-worker asymmetry (one slow worker)
// goes through ClusterConfig::worker_init, which runs in the child after
// fork.

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/failpoint.hpp"
#include "helpers.hpp"
#include "mr/task_runner.hpp"

namespace textmr {
namespace {

struct ClusterCorpus {
  TempDir dir;
  std::filesystem::path corpus;
  std::vector<io::InputSplit> splits;
  std::map<std::string, std::uint64_t> expected;

  // Defaults give a ~30 KB corpus cut into ~10 splits: enough map tasks
  // that fast workers establish the straggler median while a slow worker
  // holds its first task.
  explicit ClusterCorpus(std::uint32_t total_words = 12000,
                         std::size_t split_bytes = 3 * 1024) {
    textgen::CorpusSpec spec;
    spec.total_words = total_words;
    spec.vocabulary = 400;
    spec.seed = 77;
    corpus = dir.file("corpus.txt");
    textgen::generate_corpus(spec, corpus.string());
    splits = io::make_splits(corpus.string(), split_bytes);
    expected = test::reference_wordcount(corpus.string());
  }

  mr::JobSpec job(const std::string& tag, std::uint32_t reducers = 3) {
    auto spec = test::make_job(apps::wordcount_app(), splits,
                               dir.file("s-" + tag), dir.file("o-" + tag),
                               reducers);
    spec.retry_backoff_base_ms = 0;
    return spec;
  }

  void check(const mr::JobResult& result) const {
    const auto actual = test::read_outputs(result.outputs);
    ASSERT_EQ(actual.size(), expected.size());
    for (const auto& [word, count] : expected) {
      ASSERT_EQ(actual.at(word), std::to_string(count)) << word;
    }
  }
};

TEST(ClusterEngine, WordCountMatchesReference) {
  ClusterCorpus corpus;
  cluster::ClusterConfig config;
  config.num_workers = 2;
  cluster::ClusterEngine engine(config);
  const auto result = engine.run(corpus.job("basic"));
  corpus.check(result);
  EXPECT_EQ(result.metrics.map_tasks, corpus.splits.size());
  EXPECT_EQ(result.metrics.reduce_tasks, 3u);
  EXPECT_GE(result.metrics.task_attempts,
            corpus.splits.size() + 3u);  // one attempt per task at least
  EXPECT_GT(result.metrics.work.input_records, 0u);
}

TEST(ClusterEngine, SingleWorkerDegeneratesToSerialExecution) {
  ClusterCorpus corpus(6000);
  cluster::ClusterConfig config;
  config.num_workers = 1;
  cluster::ClusterEngine engine(config);
  corpus.check(engine.run(corpus.job("one")));
}

TEST(ClusterEngine, ZeroWorkersIsAConfigError) {
  ClusterCorpus corpus(1000);
  cluster::ClusterConfig config;
  config.num_workers = 0;
  cluster::ClusterEngine engine(config);
  auto spec = corpus.job("zero");
  EXPECT_THROW(engine.run(spec), ConfigError);
}

TEST(ClusterEngine, InvalidSpecFailsBeforeForking) {
  cluster::ClusterEngine engine;
  mr::JobSpec spec;  // no inputs, no factories, no dirs
  EXPECT_THROW(engine.run(spec), ConfigError);
}

// ---- straggler detection + speculative execution --------------------------

/// Worker 0 sleeps `delay_ms` at every task dispatch (the
/// `cluster.dispatch` failpoint runs in the worker before the task body);
/// the other workers run at full speed. This models the paper's §II-A
/// straggler: one slow node holding the job hostage.
cluster::ClusterConfig slow_worker_config(std::uint32_t workers,
                                          std::uint64_t delay_ms) {
  cluster::ClusterConfig config;
  config.num_workers = workers;
  config.heartbeat_interval_ms = 10;
  config.straggler.heartbeat_timeout_ms = 10000;  // median path only
  config.straggler.slowness_factor = 4.0;
  config.straggler.min_completed_for_median = 2;
  config.worker_init = [delay_ms](std::uint32_t worker_id) {
    if (worker_id != 0) return;
    failpoint::arm_from_spec("cluster.dispatch:always:action=delay:delay_ms=" +
                             std::to_string(delay_ms));
  };
  return config;
}

TEST(ClusterSpeculation, SlowWorkerIsRescuedBySpeculativeAttempt) {
  ClusterCorpus corpus;
  auto config = slow_worker_config(3, 2500);
  config.speculation = true;
  cluster::ClusterEngine engine(config);

  const auto start = std::chrono::steady_clock::now();
  const auto result = engine.run(corpus.job("spec"));
  const auto wall = std::chrono::steady_clock::now() - start;

  corpus.check(result);
  EXPECT_GE(result.counters.value("cluster.speculative_attempts"), 1u);
  // The 2.5s-per-task worker must not gate the job: its flagged attempts
  // are duplicated onto fast workers and the losers are killed. Without
  // speculation the job would take >= 2.5s per task worker 0 received.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(wall),
            std::chrono::milliseconds(2400))
      << "speculation failed to rescue the job from the slow worker";
}

TEST(ClusterSpeculation, WithoutSpeculationSlowWorkerGatesTheJob) {
  ClusterCorpus corpus(4000, 64 * 1024);  // few tasks, fast baseline
  auto config = slow_worker_config(2, 1200);
  config.speculation = false;
  cluster::ClusterEngine engine(config);

  const auto start = std::chrono::steady_clock::now();
  const auto result = engine.run(corpus.job("nospec", 2));
  const auto wall = std::chrono::steady_clock::now() - start;

  corpus.check(result);
  EXPECT_EQ(result.counters.value("cluster.speculative_attempts"), 0u);
  // Worker 0 received at least one task and held it for the full delay.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(wall),
            std::chrono::milliseconds(1200));
}

TEST(ClusterSpeculation, HeartbeatStarvationTriggersSpeculation) {
  ClusterCorpus corpus;
  cluster::ClusterConfig config;
  config.num_workers = 3;
  config.heartbeat_interval_ms = 10;
  config.straggler.heartbeat_timeout_ms = 150;
  config.straggler.slowness_factor = 1e9;  // heartbeat path only
  // Worker 0: beats stop flowing (each delayed far past the timeout) and
  // its tasks stall, so the coordinator must flag it via staleness.
  config.worker_init = [](std::uint32_t worker_id) {
    if (worker_id != 0) return;
    failpoint::arm_from_spec(
        "worker.heartbeat:always:action=delay:delay_ms=10000,"
        "cluster.dispatch:always:action=delay:delay_ms=2500");
  };
  cluster::ClusterEngine engine(config);

  const auto start = std::chrono::steady_clock::now();
  const auto result = engine.run(corpus.job("hb"));
  const auto wall = std::chrono::steady_clock::now() - start;

  corpus.check(result);
  EXPECT_GE(result.counters.value("cluster.speculative_attempts"), 1u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(wall),
            std::chrono::milliseconds(2400));
}

// ---- TCP transport, forked workers (DESIGN.md §14) ------------------------

cluster::ClusterConfig tcp_config(std::uint32_t workers) {
  cluster::ClusterConfig config;
  config.num_workers = workers;
  config.transport = cluster::TransportKind::kTcp;
  config.io_timeout_ms = 10000;
  return config;
}

/// Reads a part file's exact bytes (byte-identity, not equivalence).
std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

TEST(ClusterTcp, ForkedWorkersOverLoopbackMatchReference) {
  ClusterCorpus corpus;
  cluster::ClusterEngine engine(tcp_config(3));
  const auto result = engine.run(corpus.job("tcp"));
  corpus.check(result);
  // Shuffle data really crossed sockets, not the shared filesystem.
  EXPECT_GT(result.metrics.work.shuffled_wire_bytes, 0u);
}

TEST(ClusterTcp, OutputBytesIdenticalToSocketpairRun) {
  ClusterCorpus corpus(8000);
  cluster::ClusterConfig sp_config;
  sp_config.num_workers = 2;
  cluster::ClusterEngine sp_engine(sp_config);
  const auto sp = sp_engine.run(corpus.job("sp"));

  cluster::ClusterEngine tcp_engine(tcp_config(2));
  const auto tcp = tcp_engine.run(corpus.job("tcp-vs-sp"));

  ASSERT_EQ(tcp.outputs.size(), sp.outputs.size());
  for (std::size_t i = 0; i < tcp.outputs.size(); ++i) {
    EXPECT_EQ(slurp(tcp.outputs[i]), slurp(sp.outputs[i]));
  }
  EXPECT_EQ(sp.metrics.work.shuffled_wire_bytes, 0u);
  EXPECT_GT(tcp.metrics.work.shuffled_wire_bytes, 0u);
}

TEST(ClusterTcp, NetworkShuffleCanBeDisabledPerConfig) {
  ClusterCorpus corpus(6000);
  auto config = tcp_config(2);
  config.network_shuffle = false;  // TCP control plane, filesystem shuffle
  cluster::ClusterEngine engine(config);
  const auto result = engine.run(corpus.job("tcp-fs"));
  corpus.check(result);
  EXPECT_EQ(result.metrics.work.shuffled_wire_bytes, 0u);
  EXPECT_GT(result.metrics.work.shuffled_bytes, 0u);
}

TEST(ClusterTcp, ChaosNetAndShuffleFaultsStillProduceCorrectBytes) {
  // Every worker's first shuffle fetch is injected to fail (burning a
  // client attempt), worker 0 additionally drops the first connection
  // its shuffle *server* receives mid-serve, and worker 1's first
  // control-channel send is delayed. The job must complete with correct
  // output through retries and the filesystem fallback.
  ClusterCorpus corpus;
  auto config = tcp_config(3);
  config.worker_init = [](std::uint32_t worker_id) {
    std::string spec = "shuffle.fetch:nth=1";
    if (worker_id == 0) spec += ",shuffle.serve:nth=1";
    if (worker_id == 1) spec += ",net.send:nth=1:action=delay:delay_ms=50";
    failpoint::arm_from_spec(spec);
  };
  cluster::ClusterEngine engine(config);
  const auto result = engine.run(corpus.job("tcp-chaos"));
  corpus.check(result);
}

TEST(ClusterTcp, SigkilledWorkerOverTcpIsRecoveredAndShuffleFallsBack) {
  // SIGKILL a worker mid-job on the TCP transport: its in-flight tasks
  // are reassigned, and reducers needing map output the dead worker's
  // shuffle server owned fall back to the shared-filesystem read
  // (DESIGN.md §14 documents why the fallback must exist).
  ClusterCorpus corpus;
  std::atomic<int> victim_pid{0};
  auto config = tcp_config(3);
  config.on_worker_spawn = [&victim_pid](std::uint32_t worker_id, int pid) {
    if (worker_id == 1) victim_pid.store(pid);
  };
  config.worker_init = [](std::uint32_t) {
    failpoint::arm_from_spec("cluster.dispatch:always:action=delay:delay_ms=30");
  };
  cluster::ClusterEngine engine(config);
  std::thread killer([&victim_pid] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const int pid = victim_pid.load();
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
  });
  const auto result = engine.run(corpus.job("tcp-kill"));
  killer.join();
  corpus.check(result);
}

TEST(ClusterTcp, LivenessTimeoutKillsSilentWorker) {
  // Worker 0 stalls: heartbeats stop (10s delay each) and its task sits
  // in a 10s dispatch delay. With speculation off, only the liveness
  // tracker can save the job — silence past the deadline must be treated
  // as worker death, the task reassigned, and the job finish promptly.
  ClusterCorpus corpus(6000, 16 * 1024);
  auto config = tcp_config(2);
  config.speculation = false;
  config.heartbeat_interval_ms = 10;
  config.liveness_timeout_ms = 300;
  config.worker_init = [](std::uint32_t worker_id) {
    if (worker_id != 0) return;
    failpoint::arm_from_spec(
        "worker.heartbeat:always:action=delay:delay_ms=10000,"
        "cluster.dispatch:always:action=delay:delay_ms=10000");
  };
  cluster::ClusterEngine engine(config);
  const auto start = std::chrono::steady_clock::now();
  const auto result = engine.run(corpus.job("tcp-liveness"));
  const auto wall = std::chrono::steady_clock::now() - start;
  corpus.check(result);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(wall),
            std::chrono::milliseconds(8000))
      << "liveness tracker failed to declare the silent worker dead";
}

// ---- worker-death recovery ------------------------------------------------

TEST(ClusterFaults, SigkilledWorkerTasksAreReassignedAndJobSucceeds) {
  ClusterCorpus corpus;
  std::atomic<int> victim_pid{0};
  cluster::ClusterConfig config;
  config.num_workers = 3;
  config.on_worker_spawn = [&victim_pid](std::uint32_t worker_id, int pid) {
    if (worker_id == 1) victim_pid.store(pid);
  };
  // Slow every task slightly so the kill lands mid-job, not after it.
  config.worker_init = [](std::uint32_t) {
    failpoint::arm_from_spec("cluster.dispatch:always:action=delay:delay_ms=30");
  };
  cluster::ClusterEngine engine(config);

  std::thread killer([&victim_pid] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const int pid = victim_pid.load();
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
  });
  const auto result = engine.run(corpus.job("kill"));
  killer.join();

  corpus.check(result);
  // The dead worker's in-flight task was re-queued with a fresh attempt,
  // not charged against max_task_attempts — so the job succeeded even
  // with max_task_attempts=1.
}

TEST(ClusterFaults, WorkerDeathIsNotChargedAgainstTaskAttempts) {
  ClusterCorpus corpus(6000);
  std::atomic<int> victim_pid{0};
  cluster::ClusterConfig config;
  config.num_workers = 2;
  config.on_worker_spawn = [&victim_pid](std::uint32_t worker_id, int pid) {
    if (worker_id == 0) victim_pid.store(pid);
  };
  config.worker_init = [](std::uint32_t) {
    failpoint::arm_from_spec("cluster.dispatch:always:action=delay:delay_ms=40");
  };
  cluster::ClusterEngine engine(config);

  auto spec = corpus.job("charge");
  spec.max_task_attempts = 1;  // any charged failure would doom the job
  std::thread killer([&victim_pid] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    ::kill(victim_pid.load(), SIGKILL);
  });
  const auto result = engine.run(spec);
  killer.join();
  corpus.check(result);
}

TEST(ClusterFaults, AllWorkersDeadFailsTheJob) {
  ClusterCorpus corpus(2000);
  std::vector<int> pids;
  cluster::ClusterConfig config;
  config.num_workers = 2;
  config.on_worker_spawn = [&pids](std::uint32_t, int pid) {
    pids.push_back(pid);
  };
  // Park every worker in a long dispatch delay so the job cannot finish
  // before the kills land.
  config.worker_init = [](std::uint32_t) {
    failpoint::arm_from_spec(
        "cluster.dispatch:always:action=delay:delay_ms=10000");
  };
  cluster::ClusterEngine engine(config);

  std::thread killer([&pids] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (int pid : pids) ::kill(pid, SIGKILL);
  });
  EXPECT_THROW(engine.run(corpus.job("dead")), TaskFailedError);
  killer.join();
}

TEST(ClusterFaults, RetryableTaskFailureIsReExecuted) {
  ClusterCorpus corpus;
  // Inherited by every worker at fork: the first spill in each worker
  // process fails (InjectedFault derives from IoError -> retryable).
  failpoint::ScopedFailpoints failpoints("spill.write:nth=1");
  cluster::ClusterConfig config;
  config.num_workers = 2;
  cluster::ClusterEngine engine(config);
  const auto result = engine.run(corpus.job("retry"));
  corpus.check(result);
  EXPECT_GE(result.metrics.tasks_retried, 1u);
  EXPECT_GT(result.metrics.task_attempts,
            result.metrics.map_tasks + result.metrics.reduce_tasks);
}

TEST(ClusterFaults, ExhaustedAttemptsFailTheJob) {
  ClusterCorpus corpus(3000);
  // Every spill in every worker fails, forever.
  failpoint::ScopedFailpoints failpoints("spill.write:always");
  cluster::ClusterConfig config;
  config.num_workers = 2;
  cluster::ClusterEngine engine(config);
  auto spec = corpus.job("doom");
  spec.max_task_attempts = 2;
  EXPECT_THROW(engine.run(spec), TaskFailedError);
}

// ---- duplicate-commit race ------------------------------------------------

TEST(ClusterCommit, DuplicateReduceCommitsLeaveExactlyOneOutput) {
  // Drive the commit protocol directly: two attempts of the same reduce
  // partition run to completion (the losing speculative attempt is not
  // always killed in time), and both rename onto the same final path.
  // First-writer-wins with byte-identical content: one part file, no
  // temp litter.
  ClusterCorpus corpus(4000);
  auto spec = corpus.job("commit", 1);
  std::filesystem::create_directories(spec.scratch_dir);
  std::filesystem::create_directories(spec.output_dir);

  const mr::MemorySplit mem = mr::split_memory(spec);
  freqbuf::NodeKeyCache cache;
  std::vector<io::SpillRunInfo> map_outputs;
  for (std::uint32_t task = 0; task < spec.inputs.size(); ++task) {
    auto config =
        mr::make_map_task_config(spec, mem, task, 0, &cache, nullptr);
    map_outputs.push_back(mr::run_map_task(config).output);
  }

  const auto first = mr::run_reduce_task(
      mr::make_reduce_task_config(spec, 0, 0, map_outputs, nullptr));
  const auto second = mr::run_reduce_task(
      mr::make_reduce_task_config(spec, 0, 1, map_outputs, nullptr));
  EXPECT_EQ(first.output_path, second.output_path);

  std::size_t entries = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(spec.output_dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "part-r-00000");
  }
  EXPECT_EQ(entries, 1u);
  mr::JobResult wrapped;
  wrapped.outputs = {first.output_path};
  corpus.check(wrapped);
}

// ---- NodeKeyCache persistence ---------------------------------------------

TEST(ClusterNodeCache, KeyCacheFilePersistedOncePerWorkerAndReused) {
  ClusterCorpus corpus(20000, 6 * 1024);  // many map tasks per worker
  cluster::ClusterConfig config;
  config.num_workers = 2;
  cluster::ClusterEngine engine(config);

  auto spec = corpus.job("cache");
  spec.freqbuf.enabled = true;
  spec.freqbuf.top_k = 50;
  spec.freqbuf.sampling_fraction = 0.05;
  ASSERT_TRUE(spec.freqbuf.share_across_tasks);
  corpus.check(engine.run(spec));

  // Each worker persisted its node-local frozen key set exactly once.
  std::vector<std::string> persisted;
  for (std::uint32_t w = 0; w < config.num_workers; ++w) {
    const auto path =
        spec.scratch_dir / ("node-" + std::to_string(w) + ".keycache");
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    persisted.push_back(std::move(buf).str());
    const auto keys = freqbuf::NodeKeyCache::decode_keys(persisted.back());
    ASSERT_TRUE(keys.has_value()) << "corrupt cache file " << path;
    EXPECT_FALSE(keys->empty());
    EXPECT_LE(keys->size(), spec.freqbuf.top_k);
  }

  // A re-run over the same scratch dir (same node ids) reloads the
  // persisted sets instead of re-profiling: first-writer-wins leaves the
  // files byte-identical, and the job output is unchanged.
  auto rerun = corpus.job("cache2");
  rerun.scratch_dir = spec.scratch_dir;  // same node-local cache files
  rerun.freqbuf = spec.freqbuf;
  cluster::ClusterEngine engine2(config);
  corpus.check(engine2.run(rerun));
  for (std::uint32_t w = 0; w < config.num_workers; ++w) {
    const auto path =
        spec.scratch_dir / ("node-" + std::to_string(w) + ".keycache");
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), persisted[w]) << "cache file rewritten: " << path;
  }
}

TEST(ClusterNodeCache, CorruptCacheFileIsIgnored) {
  TempDir dir;
  const auto path = dir.file("node-0.keycache");
  {
    std::ofstream out(path, std::ios::binary);
    out << "BOGUS-not-a-cache-file";
  }
  freqbuf::NodeKeyCache cache;
  cache.attach_file(path);
  EXPECT_FALSE(cache.get().has_value());
  // And put() still persists over it.
  cache.put({"alpha", "beta"});
  ASSERT_TRUE(cache.get().has_value());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto keys = freqbuf::NodeKeyCache::decode_keys(buf.str());
  ASSERT_TRUE(keys.has_value());
  EXPECT_EQ(*keys, (std::vector<std::string>{"alpha", "beta"}));
}

// ---- trace merging --------------------------------------------------------

TEST(ClusterTrace, WorkerTimelinesMergeIntoJobTrace) {
  ClusterCorpus corpus(6000);
  cluster::ClusterConfig config;
  config.num_workers = 2;
  cluster::ClusterEngine engine(config);
  auto spec = corpus.job("trace");
  spec.trace.enabled = true;
  const auto result = engine.run(spec);
  corpus.check(result);

  ASSERT_TRUE(result.trace.enabled);
  // Worker-scoped rows (pid = 200000 + worker id) made it into the
  // merged timeline alongside the coordinator's phase spans.
  bool saw_worker_event = false;
  for (const auto& event : result.trace.events) {
    if (event.pid >= 200000) saw_worker_event = true;
  }
  EXPECT_TRUE(saw_worker_event);
  EXPECT_GE(obs::count_events(result.trace, "map_dispatch"),
            corpus.splits.size());
  EXPECT_EQ(obs::count_events(result.trace, "map_phase"), 1u);
  EXPECT_EQ(obs::count_events(result.trace, "reduce_phase"), 1u);
  bool named_worker = false;
  for (const auto& [pid, name] : result.trace.process_names) {
    if (name.rfind("worker-", 0) == 0) named_worker = true;
  }
  EXPECT_TRUE(named_worker);
  // Worker-side exec spans cover every map attempt, and the coordinator
  // recorded one clock_sync handshake per worker.
  EXPECT_GE(obs::count_events(result.trace, "map_exec"), corpus.splits.size());
  EXPECT_EQ(obs::count_events(result.trace, "clock_sync"), 2u);
  // A clean run ships complete telemetry from every worker.
  EXPECT_FALSE(result.trace.incomplete);
  EXPECT_FALSE(result.metrics.telemetry_incomplete);
  // Events arrive sorted by timestamp after the merge.
  for (std::size_t i = 1; i < result.trace.events.size(); ++i) {
    ASSERT_LE(result.trace.events[i - 1].ts_ns, result.trace.events[i].ts_ns);
  }
}

// ---- cluster telemetry ----------------------------------------------------

TEST(ClusterTelemetry, PerWorkerMetricsAggregateIntoJobMetrics) {
  ClusterCorpus corpus(6000);
  cluster::ClusterConfig config;
  config.num_workers = 2;
  cluster::ClusterEngine engine(config);
  // Tracing stays OFF: worker metrics ride heartbeats and the final
  // (always-sent) trace chunk, independent of trace collection.
  const auto result = engine.run(corpus.job("telemetry"));
  corpus.check(result);

  ASSERT_EQ(result.metrics.workers.size(), 2u);
  EXPECT_FALSE(result.metrics.telemetry_incomplete);
  std::uint64_t total_records = 0;
  std::uint64_t total_tasks = 0;
  for (const auto& w : result.metrics.workers) {
    EXPECT_TRUE(w.telemetry_complete) << "worker " << w.worker_id;
    EXPECT_EQ(w.task_failures, 0u) << "worker " << w.worker_id;
    // Every completed task recorded exactly one latency sample.
    EXPECT_EQ(w.task_latency_ns.count(), w.tasks_completed);
    total_records += w.records;
    total_tasks += w.tasks_completed;
  }
  // Both map and reduce attempts landed somewhere: at least one task per
  // split plus one per reduce partition across the cluster.
  EXPECT_GE(total_tasks, corpus.splits.size() + 3);
  EXPECT_GT(total_records, 0u);
  EXPECT_GE(result.metrics.worker_records_skew(), 1.0);
}

TEST(ClusterTelemetry, SigkilledWorkerMarksTelemetryIncomplete) {
  ClusterCorpus corpus;
  std::atomic<int> victim_pid{0};
  cluster::ClusterConfig config;
  config.num_workers = 3;
  config.on_worker_spawn = [&victim_pid](std::uint32_t worker_id, int pid) {
    if (worker_id == 1) victim_pid.store(pid);
  };
  config.worker_init = [](std::uint32_t) {
    failpoint::arm_from_spec("cluster.dispatch:always:action=delay:delay_ms=30");
  };
  cluster::ClusterEngine engine(config);

  auto spec = corpus.job("kill-telemetry");
  spec.trace.enabled = true;
  std::thread killer([&victim_pid] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const int pid = victim_pid.load();
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
  });
  const auto result = engine.run(spec);
  killer.join();

  // The job itself recovers (tasks reassigned) — but the dead worker
  // never shipped its final trace chunk, so the job is explicitly marked
  // as having partial telemetry instead of silently pretending the
  // merged timeline is whole.
  corpus.check(result);
  EXPECT_TRUE(result.metrics.telemetry_incomplete);
  EXPECT_TRUE(result.trace.incomplete);
  ASSERT_EQ(result.metrics.workers.size(), 3u);
  bool saw_partial = false;
  for (const auto& w : result.metrics.workers) {
    if (w.worker_id == 1) {
      EXPECT_FALSE(w.telemetry_complete);
      saw_partial = true;
    } else {
      EXPECT_TRUE(w.telemetry_complete) << "worker " << w.worker_id;
    }
  }
  EXPECT_TRUE(saw_partial);
}

// ---- chaos soak ------------------------------------------------------------

// Repeated cluster jobs with randomly-timed SIGKILLs of up to workers-1
// workers per job; every run must still match the LocalEngine-independent
// wordcount oracle. Odd iterations run with the skew-aware partitioner
// enabled (worker death during segment writes and the finalize merge).
// One iteration runs in the default suite as a sanity pass; the pressure
// tier sets TEXTMR_CLUSTER_SOAK_SECONDS=60 (see tests/CMakeLists.txt) to
// loop until the deadline. Kill times and victim counts come from a
// per-iteration seeded Xoshiro256, so a failing iteration is
// reproducible from its logged seed.
TEST(ClusterSoak, RandomWorkerKillsNeverCorruptOutput) {
  double soak_seconds = 0;
  if (const char* env = std::getenv("TEXTMR_CLUSTER_SOAK_SECONDS")) {
    soak_seconds = std::strtod(env, nullptr);
  }
  ClusterCorpus corpus;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(soak_seconds);
  constexpr std::uint32_t kWorkers = 3;

  for (std::uint64_t iteration = 0;; ++iteration) {
    if (iteration > 0 && std::chrono::steady_clock::now() >= deadline) break;
    const std::uint64_t seed = 0x50a5ull + iteration;
    SCOPED_TRACE("soak iteration " + std::to_string(iteration) + " seed " +
                 std::to_string(seed));
    Xoshiro256 rng(seed);
    // 1..workers-1 victims; the engine does not respawn dead workers, so
    // at least one survivor must remain for the job to finish.
    const std::uint64_t kills = 1 + rng.next_below(kWorkers - 1);
    std::vector<std::uint64_t> kill_delays_ms;
    for (std::uint64_t k = 0; k < kills; ++k) {
      kill_delays_ms.push_back(20 + rng.next_below(200));
    }

    std::mutex pid_mu;
    std::vector<int> pids(kWorkers, 0);
    cluster::ClusterConfig config;
    config.num_workers = kWorkers;
    // Every third iteration soaks the TCP transport + network shuffle, so
    // SIGKILLs also land while shuffle fetches are in flight over sockets.
    if (iteration % 3 == 2) {
      config.transport = cluster::TransportKind::kTcp;
      config.io_timeout_ms = 10000;
    }
    config.on_worker_spawn = [&](std::uint32_t worker_id, int pid) {
      std::lock_guard<std::mutex> lock(pid_mu);
      pids[worker_id] = pid;
    };
    // Mild per-task delay so the kills land while work is in flight.
    config.worker_init = [](std::uint32_t) {
      failpoint::arm_from_spec(
          "cluster.dispatch:always:action=delay:delay_ms=15");
    };
    cluster::ClusterEngine engine(config);

    // Victims are distinct workers chosen by the seeded rng.
    std::vector<std::uint32_t> victims;
    while (victims.size() < kills) {
      const auto candidate =
          static_cast<std::uint32_t>(rng.next_below(kWorkers));
      if (std::find(victims.begin(), victims.end(), candidate) ==
          victims.end()) {
        victims.push_back(candidate);
      }
    }
    std::thread killer([&] {
      for (std::size_t k = 0; k < victims.size(); ++k) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kill_delays_ms[k]));
        int pid = 0;
        {
          std::lock_guard<std::mutex> lock(pid_mu);
          pid = pids[victims[k]];
        }
        // The job may already be done and the worker cleanly gone; a
        // failed kill is not an error, only a no-op chaos step.
        if (pid > 0) ::kill(pid, SIGKILL);
      }
    });
    auto spec = corpus.job("soak-" + std::to_string(iteration));
    // Odd iterations cross the chaos with the skew-aware partitioner
    // (DESIGN.md §12): worker kills and task re-execution must not
    // corrupt the segment files or the split-merge finalize either.
    // Thresholds sized for the 400-word vocabulary so the plan both
    // places and splits keys at 3 reducers.
    if (iteration % 2 == 1) {
      spec.skew.enabled = true;
      spec.skew.place_threshold = 0.2;
      spec.skew.split_threshold = 0.4;
      spec.skew.max_split_shares = 3;
    }
    // Even iterations soak the hash-combine path (DESIGN.md §15) in a
    // 16 KiB memory budget, so SIGKILLs also land mid table-flush and
    // after demotion; the restarted task must rebuild identical output.
    if (iteration % 2 == 0) {
      spec.combine_mode = mr::CombineMode::kHash;
      spec.spill_buffer_bytes = 16u << 10;
    }
    const auto result = engine.run(spec);
    killer.join();
    corpus.check(result);
    if (soak_seconds <= 0) break;  // default suite: single sanity iteration
  }
}

}  // namespace
}  // namespace textmr
