// Job benchmark driver: runs whole textmr jobs on seeded inputs, checks
// every job's output, and writes one JSON result document that run.py
// (end-to-end metrics) and layers.py (per-layer metrics) summarize.
//
//   jobbench --workload NAME --seed N --seconds S --trace 0|1
//            --work DIR --out FILE
//
// Untraced runs (--trace 0) time jobs through LocalEngine::run /
// ClusterEngine::run with JobSpec::trace off. Traced runs (--trace 1)
// alternate an untraced job, a job wrapped in a benchmark span, and a
// replay that calls each layer's public functions (io::LineReader,
// text::for_each_token, mr::run_map_task, cluster::ShuffleServer /
// ShuffleClient, mr::run_reduce_task) under spans of their own. Spans are
// kept in memory and written to FILE when the run ends.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/app_suite.hpp"
#include "cluster/engine.hpp"
#include "cluster/shuffle_client.hpp"
#include "cluster/shuffle_server.hpp"
#include "io/line_reader.hpp"
#include "mr/engine.hpp"
#include "mr/report.hpp"
#include "mr/task_runner.hpp"
#include "obs/json.hpp"
#include "text/tokenize.hpp"
#include "textgen/corpus_gen.hpp"
#include "textgen/loggen.hpp"

namespace fs = std::filesystem;
using namespace textmr;

namespace {

// ---- build identity --------------------------------------------------------

constexpr const char* kBuildType = JOBBENCH_BUILD_TYPE;

#if defined(TEXTMR_LOCK_RANK_CHECKS) && TEXTMR_LOCK_RANK_CHECKS
constexpr bool kLockRankChecks = true;
#else
constexpr bool kLockRankChecks = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

/// Numbers only count from the build users run: Release, asserts and the
/// debug lock-rank checker compiled out.
bool measurable_build(std::string* why) {
  if (std::string_view(kBuildType) != "Release") {
    *why = std::string("build type is '") + kBuildType + "', not Release";
    return false;
  }
  if (!kAssertsOff) {
    *why = "NDEBUG is not defined";
    return false;
  }
  if (kLockRankChecks) {
    *why = "the lock-rank checker is compiled in";
    return false;
  }
  return true;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work;
  fs::path out;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "jobbench: %s\n"
               "usage: jobbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work DIR --out FILE\n",
               message);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work") {
      options.work = value;
    } else if (flag == "--out") {
      options.out = value;
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') usage("malformed number");
  }
  if (options.workload.empty() || options.work.empty() ||
      options.out.empty() || !have_trace || options.seconds <= 0.0) {
    usage("--workload, --seconds, --trace, --work and --out are required");
  }
  return options;
}

// ---- workloads -------------------------------------------------------------

enum class Dataset { kCorpus, kAccessLog };

/// Why each workload exists is in README.md next to this file.
struct Workload {
  const char* name;
  Dataset dataset;
  std::uint64_t size;  // corpus words or UserVisits rows
  apps::AppBundle (*app)();
  bool freq_and_matcher;
  mr::CombineMode combine;
  bool cluster;
};

constexpr std::uint32_t kNumReducers = 4;
constexpr std::uint32_t kMapParallelism = 2;  // x (map + support) threads
constexpr std::uint32_t kSplitsPerInput = 4;
constexpr std::uint32_t kClusterWorkers = 2;

const Workload kWorkloads[] = {
    {"wc_freq", Dataset::kCorpus, 5'000'000, apps::wordcount_app, true,
     mr::CombineMode::kSort, false},
    {"invidx_hash", Dataset::kCorpus, 400'000, apps::inverted_index_app,
     false, mr::CombineMode::kHash, false},
    {"join_tcp", Dataset::kAccessLog, 1'000'000,
     apps::access_log_join_sorted_app, false, mr::CombineMode::kSort, true},
};

const Workload* find_workload(const std::string& name) {
  for (const auto& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

// ---- inputs ----------------------------------------------------------------

/// 64-bit content hash, eight bytes per step; guards the input cache
/// against truncated or altered files.
std::uint64_t hash_file(const fs::path& path, std::uint64_t* size) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::vector<char> buffer(1 << 20);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  std::uint64_t total = 0;
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    std::size_t i = 0;
    for (; i + 8 <= got; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, buffer.data() + i, 8);
      h = (h ^ word) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    for (; i < got; ++i) {
      h = (h ^ static_cast<unsigned char>(buffer[i])) * 0xc4ceb9fe1a85ec53ULL;
    }
    total += got;
  }
  *size = total;
  return h ^ total;
}

struct Inputs {
  std::vector<fs::path> files;
  std::uint64_t bytes = 0;
  std::vector<io::InputSplit> splits;
};

textgen::CorpusSpec corpus_spec(std::uint64_t seed, std::uint64_t words) {
  textgen::CorpusSpec spec;
  spec.total_words = words;
  spec.vocabulary = 100'000;
  spec.alpha = 1.0;
  spec.seed = seed;
  return spec;
}

textgen::AccessLogSpec access_log_spec(std::uint64_t seed,
                                       std::uint64_t visits) {
  textgen::AccessLogSpec spec;
  spec.num_visits = visits;
  spec.seed = seed;
  return spec;
}

/// Generator parameters, written into the cache manifest: a cached input
/// is reused only when workload, seed, size and generator all match.
std::string generator_key(const Workload& workload, std::uint64_t seed,
                          std::uint64_t size) {
  char buf[256];
  if (workload.dataset == Dataset::kCorpus) {
    const textgen::CorpusSpec spec = corpus_spec(seed, size);
    std::snprintf(buf, sizeof(buf),
                  "workload=%s seed=%" PRIu64 " words=%" PRIu64
                  " vocabulary=%" PRIu64
                  " alpha=%.3f words_per_line=%u-%u decoration=%.3f",
                  workload.name, spec.seed, spec.total_words, spec.vocabulary,
                  spec.alpha, spec.min_words_per_line, spec.max_words_per_line,
                  spec.decoration_rate);
  } else {
    const textgen::AccessLogSpec spec = access_log_spec(seed, size);
    std::snprintf(buf, sizeof(buf),
                  "workload=%s seed=%" PRIu64 " visits=%" PRIu64
                  " urls=%" PRIu64 " url_alpha=%.3f",
                  workload.name, spec.seed, spec.num_visits, spec.num_urls,
                  spec.url_alpha);
  }
  return buf;
}

std::vector<std::string> generate_files(const Workload& workload,
                                        std::uint64_t seed, std::uint64_t size,
                                        const fs::path& dir) {
  if (workload.dataset == Dataset::kCorpus) {
    textgen::generate_corpus(corpus_spec(seed, size),
                             (dir / "corpus.txt").string());
    return {"corpus.txt"};
  }
  textgen::generate_access_log(access_log_spec(seed, size),
                               (dir / "uservisits.log").string(),
                               (dir / "rankings.txt").string());
  return {"uservisits.log", "rankings.txt"};
}

/// Reads a manifest and checks every listed file's size and hash.
bool cache_valid(const fs::path& dir, const std::string& key,
                 std::vector<fs::path>* files) {
  std::ifstream manifest(dir / "manifest.txt");
  std::string line;
  if (!manifest || !std::getline(manifest, line) || line != key) return false;
  files->clear();
  while (std::getline(manifest, line)) {
    char name[128];
    std::uint64_t bytes = 0;
    std::uint64_t hash = 0;
    if (std::sscanf(line.c_str(), "file %127s %" SCNu64 " %" SCNx64, name,
                    &bytes, &hash) != 3) {
      return false;
    }
    const fs::path path = dir / name;
    std::error_code ec;
    if (fs::file_size(path, ec) != bytes || ec) return false;
    std::uint64_t actual_bytes = 0;
    if (hash_file(path, &actual_bytes) != hash || actual_bytes != bytes) {
      return false;
    }
    files->push_back(path);
  }
  return !files->empty();
}

/// Keeps the input cache small: at most `keep` entries per workload,
/// most recently used first.
void evict_cache(const fs::path& root, const std::string& prefix,
                 std::size_t keep) {
  std::vector<std::pair<fs::file_time_type, fs::path>> entries;
  for (const auto& entry : fs::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) {
      entries.emplace_back(fs::last_write_time(entry.path()), entry.path());
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = keep; i < entries.size(); ++i) {
    fs::remove_all(entries[i].second);
  }
}

/// Inputs for (workload, seed, size): served from the cache when a valid
/// entry exists, generated otherwise. The program only ever sees files.
Inputs obtain_inputs(const Workload& workload, std::uint64_t seed,
                     std::uint64_t size, const fs::path& cache_root) {
  const std::string prefix = std::string(workload.name) + "-s";
  const fs::path dir = cache_root / (prefix + std::to_string(seed) + "-n" +
                                     std::to_string(size));
  const std::string key = generator_key(workload, seed, size);
  Inputs inputs;
  if (!cache_valid(dir, key, &inputs.files)) {
    fs::create_directories(cache_root);
    const fs::path tmp = dir.string() + ".tmp";
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    std::string manifest = key + "\n";
    for (const auto& name : generate_files(workload, seed, size, tmp)) {
      std::uint64_t bytes = 0;
      const std::uint64_t hash = hash_file(tmp / name, &bytes);
      char line[256];
      std::snprintf(line, sizeof(line), "file %s %" PRIu64 " %016" PRIx64 "\n",
                    name.c_str(), bytes, hash);
      manifest += line;
    }
    std::ofstream(tmp / "manifest.txt") << manifest;
    fs::remove_all(dir);
    fs::rename(tmp, dir);
    if (!cache_valid(dir, key, &inputs.files)) {
      throw std::runtime_error("freshly generated inputs fail their manifest");
    }
  }
  fs::last_write_time(dir, fs::file_time_type::clock::now());
  evict_cache(cache_root, prefix, 3);

  for (const auto& file : inputs.files) inputs.bytes += fs::file_size(file);
  const std::uint64_t split_bytes =
      std::max<std::uint64_t>(inputs.bytes / kSplitsPerInput, 1 << 16);
  for (const auto& file : inputs.files) {
    const auto splits = io::make_splits(file.string(), split_bytes);
    inputs.splits.insert(inputs.splits.end(), splits.begin(), splits.end());
  }
  return inputs;
}

/// Token count of the whole input under text::for_each_token — the
/// WordCount output's count total must equal it.
std::uint64_t count_tokens(const std::vector<io::InputSplit>& splits) {
  std::uint64_t tokens = 0;
  std::string scratch;
  for (const auto& split : splits) {
    io::LineReader reader(split);
    while (auto line = reader.next_line()) {
      text::for_each_token(*line, scratch,
                           [&](std::string_view) { ++tokens; });
    }
  }
  return tokens;
}

// ---- jobs ------------------------------------------------------------------

/// The reference run is the plain sort path (no frequency-buffering, no
/// spill-matcher, no hash-combine) on LocalEngine; the differential grids
/// define every other configuration's output as byte-identical to it.
mr::JobSpec make_spec(const Workload& workload, const Inputs& inputs,
                      const fs::path& job_dir, bool reference) {
  const apps::AppBundle app = workload.app();
  mr::JobSpec spec;
  spec.name = std::string(workload.name) + (reference ? "-reference" : "");
  spec.inputs = inputs.splits;
  spec.mapper = app.mapper;
  spec.reducer = app.reducer;
  spec.combiner = app.combiner;
  spec.num_reducers = kNumReducers;
  spec.map_parallelism = kMapParallelism;
  spec.reduce_parallelism = kNumReducers;
  if (!reference) {
    spec.combine_mode = workload.combine;
    spec.use_spill_matcher = workload.freq_and_matcher;
    if (workload.freq_and_matcher) {
      spec.freqbuf.enabled = true;
      spec.freqbuf.top_k = app.freq_top_k;
      spec.freqbuf.sampling_fraction = app.freq_sampling_fraction;
    }
  }
  spec.scratch_dir = job_dir / "scratch";
  spec.output_dir = job_dir / "out";
  return spec;
}

/// Peak resident memory of one job process plus the cluster workers it
/// forks. The probe resets the process's own high-water mark when it
/// starts (/proc/self/clear_refs); each worker's VmHWM is sampled every
/// 2 ms while it lives, less the RSS it had when forked. The figure is the
/// sum of these per-process peaks.
class TreeRssProbe {
 public:
  TreeRssProbe() {
    const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
    if (fd >= 0) {
      [[maybe_unused]] const ssize_t n = ::write(fd, "5", 1);
      ::close(fd);
    }
    sampler_ = std::thread([this] { sample_loop(); });
  }
  ~TreeRssProbe() { stop(); }
  TreeRssProbe(const TreeRssProbe&) = delete;
  TreeRssProbe& operator=(const TreeRssProbe&) = delete;

  /// ClusterConfig::on_worker_spawn hook.
  void note_child(int pid) {
    if (pid <= 0) return;
    const std::size_t index = num_children_.fetch_add(1);
    if (index >= children_.size()) return;
    children_[index].base_kb.store(read_kb(pid, "VmRSS:"));
    children_[index].pid.store(pid);
  }

  /// Stops sampling; returns the peak in MB (10^6 bytes).
  double peak_mb() {
    stop();
    sample_children();
    std::uint64_t total_kb = read_kb(::getpid(), "VmHWM:");
    for (const auto& slot : children_) {
      const std::uint64_t peak = slot.peak_kb.load();
      const std::uint64_t base = slot.base_kb.load();
      total_kb += peak > base ? peak - base : 0;
    }
    return static_cast<double>(total_kb) * 1024.0 / 1e6;
  }

 private:
  struct Slot {
    std::atomic<int> pid{0};
    std::atomic<std::uint64_t> base_kb{0};  // RSS inherited at fork
    std::atomic<std::uint64_t> peak_kb{0};
  };

  /// One "Vm...:" field in kB from /proc/<pid>/status; 0 once the
  /// process is gone. Raw syscalls and a stack buffer only: this runs
  /// beside fork().
  static std::uint64_t read_kb(int pid, const char* name) {
    char path[64];
    std::snprintf(path, sizeof(path), "/proc/%d/status", pid);
    const int fd = ::open(path, O_RDONLY);
    if (fd < 0) return 0;
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
    ::close(fd);
    if (n <= 0) return 0;
    buf[n] = '\0';
    const char* field = std::strstr(buf, name);
    return field == nullptr
               ? 0
               : std::strtoull(field + std::strlen(name), nullptr, 10);
  }

  void sample_children() {
    for (auto& slot : children_) {
      const int pid = slot.pid.load();
      if (pid <= 0) continue;
      const std::uint64_t kb = read_kb(pid, "VmHWM:");
      if (kb > slot.peak_kb.load()) slot.peak_kb.store(kb);
    }
  }

  void sample_loop() {
    while (!stop_.load()) {
      sample_children();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  void stop() {
    stop_.store(true);
    if (sampler_.joinable()) sampler_.join();
  }

  std::array<Slot, 16> children_;
  std::atomic<std::size_t> num_children_{0};
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

/// The probe of the job running in this process, if any; the cluster
/// engine's worker-spawn hook reports to it. Set only in job processes.
TreeRssProbe* g_job_probe = nullptr;

/// User+system CPU of this process plus every reaped child, in seconds.
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    total +=
        static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
            1e6;
  }
  return total;
}

/// The engine a workload runs on, built once in set-up.
class Engine {
 public:
  explicit Engine(const Workload& workload) {
    if (!workload.cluster) return;
    cluster::ClusterConfig config;
    config.num_workers = kClusterWorkers;
    config.transport = cluster::TransportKind::kTcp;
    config.network_shuffle = true;
    // A speculative duplicate adds CPU at random; off keeps cpu_s steady.
    config.speculation = false;
    config.io_timeout_ms = 30000;
    config.on_worker_spawn = [](std::uint32_t, int pid) {
      if (g_job_probe != nullptr) g_job_probe->note_child(pid);
    };
    cluster_ = std::make_unique<cluster::ClusterEngine>(std::move(config));
  }

  mr::JobResult run(const mr::JobSpec& spec) {
    return cluster_ ? cluster_->run(spec) : local_.run(spec);
  }

 private:
  mr::LocalEngine local_;
  std::unique_ptr<cluster::ClusterEngine> cluster_;
};

// ---- output check ----------------------------------------------------------

bool same_bytes(const fs::path& a, const fs::path& b) {
  std::error_code ec_a;
  std::error_code ec_b;
  if (fs::file_size(a, ec_a) != fs::file_size(b, ec_b) || ec_a || ec_b) {
    return false;
  }
  std::ifstream in_a(a, std::ios::binary);
  std::ifstream in_b(b, std::ios::binary);
  std::vector<char> buf_a(1 << 20);
  std::vector<char> buf_b(1 << 20);
  while (in_a && in_b) {
    in_a.read(buf_a.data(), static_cast<std::streamsize>(buf_a.size()));
    in_b.read(buf_b.data(), static_cast<std::streamsize>(buf_b.size()));
    if (in_a.gcount() != in_b.gcount() ||
        std::memcmp(buf_a.data(), buf_b.data(),
                    static_cast<std::size_t>(in_a.gcount())) != 0) {
      return false;
    }
  }
  return in_a.eof() && in_b.eof();
}

/// Sum of the decimal counts in WordCount part files ("word\tcount").
std::uint64_t sum_counts(const std::vector<fs::path>& outputs) {
  std::uint64_t total = 0;
  for (const auto& path : outputs) {
    std::ifstream in(path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.rfind('\t');
      if (tab == std::string::npos) return 0;
      total += std::strtoull(line.c_str() + tab + 1, nullptr, 10);
    }
  }
  return total;
}

struct Reference {
  std::vector<fs::path> parts;
  std::uint64_t tokens = 0;
  bool check_token_sum = false;
};

/// Empty string when `outputs` match the reference byte for byte (and,
/// for WordCount, the counts add up to the token count).
std::string check_outputs(const std::vector<fs::path>& outputs,
                          const Reference& reference) {
  if (outputs.size() != reference.parts.size()) {
    return "expected " + std::to_string(reference.parts.size()) +
           " part files, got " + std::to_string(outputs.size());
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].filename() != reference.parts[i].filename() ||
        !same_bytes(outputs[i], reference.parts[i])) {
      return outputs[i].string() + " differs from the reference";
    }
  }
  if (reference.check_token_sum) {
    const std::uint64_t sum = sum_counts(outputs);
    if (sum != reference.tokens) {
      return "word counts sum to " + std::to_string(sum) + ", tokenizer saw " +
             std::to_string(reference.tokens);
    }
  }
  return {};
}

/// Waits for a child process; returns its wait status.
int wait_for(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

/// Runs `body(fd)` in a forked child and waits for it. What the child
/// writes to `fd` is returned in `*output`; the result is the child's
/// wait status, with body's return value as its exit code. The child
/// never returns into the caller: it always ends in _exit.
template <typename Body>
int run_forked(Body&& body, std::string* output) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 2;
    try {
      code = body(fds[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "jobbench: child process threw: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "jobbench: child process threw\n");
    }
    std::fflush(stderr);
    ::_exit(code);
  }
  ::close(fds[1]);
  output->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      output->append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  return wait_for(pid);
}

void write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("write to the parent failed");
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

/// Runs the reference job in a process of its own, as every job runs
/// (see run_job), so the benchmark process that job processes fork from
/// stays small.
Reference make_reference(const Workload& workload, const Inputs& inputs,
                         const fs::path& dir, std::uint64_t tokens) {
  fs::remove_all(dir);
  const mr::JobSpec spec = make_spec(workload, inputs, dir, true);
  std::string ignored;
  const int status = run_forked(
      [&spec](int) {
        mr::LocalEngine().run(spec);
        return 0;
      },
      &ignored);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the reference run failed");
  }

  Reference reference;
  for (std::uint32_t p = 0; p < spec.num_reducers; ++p) {
    reference.parts.push_back(mr::reduce_output_path(spec, p));
  }
  reference.tokens = tokens;
  reference.check_token_sum = workload.app().name == "WordCount";
  if (reference.check_token_sum) {
    const std::uint64_t sum = sum_counts(reference.parts);
    if (sum != tokens) {
      throw std::runtime_error("reference counts sum to " +
                               std::to_string(sum) + ", tokenizer saw " +
                               std::to_string(tokens));
    }
  }
  return reference;
}

struct JobSample {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::string error;  // empty = ran and matched the reference
  std::optional<mr::JobResult> result;
};

void write_sample(obs::JsonWriter& w, const char* kind, std::uint64_t job,
                  const JobSample& sample, std::uint64_t origin_ns,
                  bool with_metrics) {
  w.begin_object();
  w.field("job", job);
  w.field("kind", kind);
  w.field("start_ns", sample.start_ns - origin_ns);
  w.field("wall_s", seconds_between(sample.start_ns, sample.end_ns));
  w.field("cpu_s", sample.cpu_s);
  w.field("peak_rss_mb", sample.peak_rss_mb);
  w.field("ok", sample.error.empty());
  w.field("error", sample.error);
  if (with_metrics && sample.result.has_value()) {
    w.key("metrics").raw(mr::format_job_metrics_json(*sample.result));
  }
  w.end_object();
}

/// One job as its job process reported it.
struct JobOutcome {
  std::uint64_t start_ns = 0;  // run() call
  std::uint64_t end_ns = 0;    // run() return
  bool ok = false;
  std::string json;  // the sample, as write_sample renders it
};

/// Runs one job in a process of its own, forked from the benchmark the
/// way each job would get its own CLI process: the allocator starts
/// fresh, so a job's memory does not depend on the jobs before it. The
/// job process times run() from call to return (part files committed),
/// then checks the output outside that window and reports one sample.
JobOutcome run_job(Engine& engine, const mr::JobSpec& spec,
                   const Reference& reference, const char* kind,
                   std::uint64_t job, std::uint64_t origin_ns,
                   bool with_metrics) {
  fs::remove_all(spec.output_dir);
  fs::remove_all(spec.scratch_dir);
  std::string blob;
  const int status = run_forked(
      [&](int fd) {
        JobSample sample;
        {
          TreeRssProbe probe;
          g_job_probe = &probe;
          const double cpu_start = cpu_seconds();
          sample.start_ns = now_ns();
          try {
            sample.result = engine.run(spec);
          } catch (const std::exception& e) {
            sample.error = std::string("job threw: ") + e.what();
          }
          sample.end_ns = now_ns();
          sample.cpu_s = cpu_seconds() - cpu_start;
          sample.peak_rss_mb = probe.peak_mb();
          g_job_probe = nullptr;
        }
        if (sample.result.has_value()) {
          sample.error = check_outputs(sample.result->outputs, reference);
        }
        obs::JsonWriter w;
        write_sample(w, kind, job, sample, origin_ns, with_metrics);
        write_all(fd, std::to_string(sample.start_ns) + " " +
                          std::to_string(sample.end_ns) + "\n" + w.take());
        return sample.error.empty() ? 0 : 1;
      },
      &blob);

  JobOutcome outcome;
  const std::size_t eol = blob.find('\n');
  if (eol != std::string::npos &&
      std::sscanf(blob.c_str(), "%" SCNu64 " %" SCNu64, &outcome.start_ns,
                  &outcome.end_ns) == 2) {
    outcome.json = blob.substr(eol + 1);
  }
  outcome.ok = !outcome.json.empty() && WIFEXITED(status) &&
               WEXITSTATUS(status) == 0;
  if (outcome.json.empty()) {
    JobSample lost;
    lost.start_ns = lost.end_ns = now_ns();
    outcome.start_ns = outcome.end_ns = lost.start_ns;
    lost.error = "job process ended without a result, wait status " +
                 std::to_string(status);
    obs::JsonWriter w;
    write_sample(w, kind, job, lost, origin_ns, false);
    outcome.json = w.take();
  }
  return outcome;
}

// ---- spans -----------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t job = 0;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
};

/// In-memory span store; written out once, when the run ends.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t origin_ns) : origin_ns_(origin_ns) {}

  std::uint64_t begin(std::uint64_t job, std::uint64_t parent,
                      std::string name) {
    Span span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.job = job;
    span.name = std::move(name);
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  /// A span whose interval was measured elsewhere (in a job process).
  void add(std::uint64_t job, std::uint64_t parent, std::string name,
           std::uint64_t start_ns, std::uint64_t end_ns, std::uint64_t bytes) {
    const std::uint64_t id = begin(job, parent, std::move(name));
    Span& span = spans_.at(id - 1);
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.bytes = bytes;
  }

  void end(std::uint64_t id, std::uint64_t bytes = 0,
           std::uint64_t records = 0) {
    Span& span = spans_.at(id - 1);
    span.end_ns = now_ns();
    span.bytes = bytes;
    span.records = records;
  }

  void write(obs::JsonWriter& w) const {
    w.begin_array();
    for (const auto& span : spans_) {
      w.begin_object();
      w.field("id", span.id);
      w.field("parent", span.parent);
      w.field("job", span.job);
      w.field("name", span.name);
      w.field("start_ns", span.start_ns - origin_ns_);
      w.field("end_ns", span.end_ns - origin_ns_);
      w.field("bytes", span.bytes);
      w.field("records", span.records);
      w.end_object();
    }
    w.end_array();
  }

 private:
  std::uint64_t origin_ns_;
  std::vector<Span> spans_;
};

/// One job taken apart: each layer's public entry point called directly
/// under its own span, with task configs from the mr::task_runner
/// helpers. Map tasks run one after another on a single node key cache;
/// every (run, partition) is fetched through a ShuffleClient from a
/// ShuffleServer over loopback, and the reduce tasks consume exactly
/// those bytes. Returns the part files it wrote.
std::vector<fs::path> replay_job(const mr::JobSpec& spec, SpanLog& spans,
                                 std::uint64_t job, std::uint64_t* tokens) {
  mr::validate_job(spec);
  fs::remove_all(spec.output_dir);
  fs::remove_all(spec.scratch_dir);
  fs::create_directories(spec.output_dir);
  fs::create_directories(spec.scratch_dir);
  const std::uint64_t root = spans.begin(job, 0, "replay");

  // io + text: read every split, then tokenize the lines read.
  *tokens = 0;
  std::string scratch;
  std::string lines;
  for (const auto& split : spec.inputs) {
    std::uint64_t span = spans.begin(job, root, "line_read");
    lines.clear();
    std::uint64_t records = 0;
    {
      io::LineReader reader(split);
      while (auto line = reader.next_line()) {
        lines.append(*line);
        lines.push_back('\n');
        ++records;
      }
    }
    spans.end(span, lines.size(), records);
    span = spans.begin(job, root, "tokenize");
    std::uint64_t split_tokens = 0;
    std::string_view rest = lines;
    while (!rest.empty()) {
      const std::size_t eol = rest.find('\n');
      text::for_each_token(rest.substr(0, eol), scratch,
                           [&](std::string_view) { ++split_tokens; });
      rest.remove_prefix(eol + 1);
    }
    spans.end(span, lines.size(), split_tokens);
    *tokens += split_tokens;
  }

  // mr map side.
  const mr::MemorySplit mem = mr::split_memory(spec);
  freqbuf::NodeKeyCache node_cache;
  std::vector<io::SpillRunInfo> runs;
  for (std::uint32_t task = 0; task < spec.inputs.size(); ++task) {
    const std::uint64_t span = spans.begin(job, root, "map_task");
    const mr::MapTaskResult result = mr::run_map_task(
        mr::make_map_task_config(spec, mem, task, 0, &node_cache, nullptr));
    spans.end(span, result.output.bytes, result.output.records);
    runs.push_back(result.output);
  }

  // cluster shuffle: every (run, partition) over loopback.
  std::vector<std::vector<std::string>> fetched(
      spec.num_reducers, std::vector<std::string>(runs.size()));
  {
    cluster::ShuffleServer::Options server_options;
    server_options.root = spec.scratch_dir.string();
    server_options.spill_format = spec.spill_format;
    cluster::ShuffleServer server(server_options);
    const cluster::ShuffleClient client;
    for (std::uint32_t p = 0; p < spec.num_reducers; ++p) {
      for (std::size_t r = 0; r < runs.size(); ++r) {
        const std::uint64_t span = spans.begin(job, root, "shuffle_fetch");
        auto bytes = client.fetch(server.endpoint(), runs[r], p);
        if (!bytes.has_value()) {
          throw std::runtime_error("shuffle fetch failed for run " +
                                   std::to_string(r) + " partition " +
                                   std::to_string(p));
        }
        fetched[p][r] = std::move(*bytes);
        spans.end(span, fetched[p][r].size(), runs[r].partitions[p].records);
      }
    }
    server.stop();
  }

  // mr reduce side over the fetched bytes.
  std::vector<fs::path> outputs;
  for (std::uint32_t p = 0; p < spec.num_reducers; ++p) {
    const std::uint64_t span = spans.begin(job, root, "reduce_task");
    auto& partition_bytes = fetched[p];
    const mr::ReduceTaskResult result =
        mr::run_reduce_task(mr::make_reduce_task_config(
            spec, p, 0, runs, nullptr, nullptr,
            [&partition_bytes](std::uint32_t run_index, const io::SpillRunInfo&,
                               std::uint32_t) {
              return mr::ShuffleFetchResult{
                  std::move(partition_bytes.at(run_index)), true};
            }));
    spans.end(span, result.metrics.output_bytes, result.metrics.output_records);
    outputs.push_back(result.output_path);
  }
  for (const auto& run : runs) fs::remove(run.path);
  spans.end(root);
  return outputs;
}

// ---- result document -------------------------------------------------------

void write_meta(obs::JsonWriter& w, const Options& options,
                const Workload& workload, std::uint64_t size,
                const Inputs& inputs) {
  w.key("meta").begin_object();
  w.field("workload", workload.name);
  w.field("seed", options.seed);
  w.field("size", size);
  w.field("size_unit",
          workload.dataset == Dataset::kCorpus ? "words" : "visits");
  w.field("input_bytes", inputs.bytes);
  w.field("input_files", static_cast<std::uint64_t>(inputs.files.size()));
  w.field("map_tasks", static_cast<std::uint64_t>(inputs.splits.size()));
  w.field("reducers", kNumReducers);
  w.field("engine", workload.cluster ? "ClusterEngine(tcp, 2 workers)"
                                     : "LocalEngine(2 map tasks)");
  w.field("trace", options.trace);
  w.field("seconds", options.seconds);
  w.field("build_type", kBuildType);
  w.field("cxx_flags", JOBBENCH_CXX_FLAGS);
  w.field("compiler", "g++ " __VERSION__);
  w.field("lock_rank_checks", kLockRankChecks);
  w.field("nproc", static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  w.field("tokenizer", text::resolved_kernel_name());
  w.end_object();
}

int run(const Options& options) {
  const std::uint64_t origin_ns = now_ns();
  std::string why;
  if (!measurable_build(&why)) {
    std::fprintf(stderr, "jobbench: refusing to measure: %s\n", why.c_str());
    return 3;
  }
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) usage("unknown workload");
  const std::uint64_t size = workload->size;
  const fs::path run_dir = options.work / "runs" / workload->name;
  fs::remove_all(run_dir);

  obs::JsonWriter jobs;
  jobs.begin_array();
  std::uint64_t next_job = 1;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto record = [&](const JobOutcome& outcome) {
    jobs.raw(outcome.json);
    ++attempted;
    if (!outcome.ok) ++failed;
  };

  // ---- set-up, repeated in untraced runs (the median is reported) ----
  const int setup_reps = options.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Inputs inputs;
  Reference reference;
  std::unique_ptr<Engine> engine;
  std::uint64_t rep_start = origin_ns;
  for (int rep = 0; rep < setup_reps; ++rep) {
    inputs = obtain_inputs(*workload, options.seed, size,
                           options.work / "inputs");
    const std::uint64_t inputs_done = now_ns();
    generate_s.push_back(seconds_between(rep_start, inputs_done));
    const std::uint64_t tokens = count_tokens(inputs.splits);
    reference =
        make_reference(*workload, inputs, run_dir / "reference", tokens);
    engine.reset();
    engine = std::make_unique<Engine>(*workload);
    record(run_job(*engine,
                   make_spec(*workload, inputs, run_dir / "job", false),
                   reference, "warmup", next_job++, origin_ns, false));
    const std::uint64_t rep_end = now_ns();
    setup_s.push_back(seconds_between(rep_start, rep_end));
    rep_start = rep_end;
  }

  // ---- measured window ----
  const mr::JobSpec spec = make_spec(*workload, inputs, run_dir / "job", false);
  const mr::JobSpec replay_spec =
      make_spec(*workload, inputs, run_dir / "replay", false);
  SpanLog spans(origin_ns);
  const auto timed_job = [&] {
    record(run_job(*engine, spec, reference, "timed", next_job++, origin_ns,
                   false));
  };
  const auto traced_job = [&] {
    const std::uint64_t job = next_job++;
    const JobOutcome traced =
        run_job(*engine, spec, reference, "traced", job, origin_ns, true);
    spans.add(job, 0, "job", traced.start_ns, traced.end_ns, inputs.bytes);
    record(traced);
  };
  const auto replayed_job = [&] {
    const std::uint64_t job = next_job++;
    JobSample replayed;
    replayed.start_ns = now_ns();
    try {
      std::uint64_t tokens = 0;
      const auto outputs = replay_job(replay_spec, spans, job, &tokens);
      replayed.error = check_outputs(outputs, reference);
      if (replayed.error.empty() && tokens != reference.tokens) {
        replayed.error = "replay tokenized " + std::to_string(tokens) +
                         " tokens, set-up saw " +
                         std::to_string(reference.tokens);
      }
    } catch (const std::exception& e) {
      replayed.error = std::string("replay threw: ") + e.what();
    }
    replayed.end_ns = now_ns();
    obs::JsonWriter w;
    write_sample(w, "replay", job, replayed, origin_ns, false);
    record(JobOutcome{replayed.start_ns, replayed.end_ns,
                      replayed.error.empty(), w.take()});
  };

  const std::uint64_t window_start = now_ns();
  for (std::uint64_t round = 0;
       seconds_between(window_start, now_ns()) < options.seconds; ++round) {
    if (!options.trace) {
      timed_job();
      continue;
    }
    // Alternate which of the pair runs first, so that neither always
    // follows the replay; their difference is the tracing overhead.
    if (round % 2 == 0) {
      timed_job();
      traced_job();
    } else {
      traced_job();
      timed_job();
    }
    replayed_job();
  }
  jobs.end_array();
  engine.reset();
  fs::remove_all(run_dir);

  obs::JsonWriter w;
  w.begin_object();
  write_meta(w, options, *workload, size, inputs);
  w.field("tokens", reference.tokens);
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.key("setup_s").begin_array();
  for (const double s : setup_s) w.value(s);
  w.end_array();
  w.key("input_obtain_s").begin_array();
  for (const double s : generate_s) w.value(s);
  w.end_array();
  w.key("jobs").raw(jobs.take());
  if (options.trace) {
    w.key("spans");
    spans.write(w);
  }
  w.end_object();
  fs::create_directories(options.out.parent_path());
  std::ofstream(options.out) << w.take() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jobbench: %s\n", e.what());
    return 1;
  }
}
