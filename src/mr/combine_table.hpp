#pragma once

// The map-side combining table (DESIGN.md §15): the paper's in-memory
// frequent-key buffer (§III-A) generalized so that one structure serves
// both frequency-buffering and hash-combine. The two differ only in the
// admission rule — hash-combine admits every key, frequency-buffering
// admits the frozen top-k set — and share everything else:
//
//   - open addressing over (partition, key): the skew partitioner may
//     round-robin one split key across partitions, and those streams
//     must combine apart;
//   - one offset-addressed heap holding the keys and each entry's block
//     of length-prefixed buffered values (power-of-two blocks, recycled
//     through per-size free lists);
//   - one combine rule: a key's values are buffered and combine() runs
//     only when they pass the per-key limit; an aggregate that still
//     fills more than half the limit leaves the table, so every combine
//     reads at least half a limit of new bytes and total combine work is
//     linear in a key's value bytes;
//   - one overflow path: records that are not admitted and aggregates
//     that leave the table go to the caller's PartitionedSink (the
//     standard SpillBuffer -> sort_and_spill path);
//   - a radix-sorted flush writing runs byte-compatible with sort-spill
//     runs. A full table flushes; a table that fills kDemoteAfterFlushes
//     times freezes its admitted set to empty, so the rest of the task
//     runs on the sort path.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "io/spill_file.hpp"
#include "mr/metrics.hpp"
#include "mr/types.hpp"
#include "obs/trace.hpp"

namespace textmr::mr {

/// The standard spill path as seen by the table and the emit router:
/// takes an already-partitioned record.
class PartitionedSink {
 public:
  virtual ~PartitionedSink() = default;
  virtual void put(std::uint32_t partition, std::string_view key,
                   std::string_view value) = 0;
};

struct CombineTableConfig {
  /// Resident-byte budget: heap (keys + value blocks) plus the entry and
  /// slot arrays never exceed it.
  std::size_t budget_bytes = 16u << 20;
  std::uint32_t num_partitions = 1;
  io::SpillFormat format = io::SpillFormat::kCompactVarint;
  /// Hash-combine admits every key; frequency-buffering admits only the
  /// keys passed to admit().
  bool admit_all = true;
};

struct CombineTableStats {
  std::uint64_t absorbed = 0;   // records taken into the table
  std::uint64_t hits = 0;       // records that found their entry resident
  std::uint64_t evicted = 0;    // records sent to the overflow sink
  std::uint64_t flushed = 0;    // records written by flush runs
  std::uint64_t flushes = 0;    // flushes forced by a full table
  std::uint64_t demotions = 0;  // 1 once the admitted set froze to empty
  std::uint64_t resident_high_water = 0;
};

/// Single-threaded: lives on the map thread. Work the table accounts to
/// other ops while inside offer() (combine, evictions, flushes) is summed
/// in self_timed_ns() so the caller can keep the probe/append cost apart.
class CombineTable {
 public:
  /// A full table flushes this many times before it stops admitting.
  static constexpr std::uint32_t kDemoteAfterFlushes = 8;

  /// `combiner` may be null (values are then buffered and written in
  /// arrival order). `next_run_path` names each flushed run; `metrics`
  /// receives kCombine/kSort/kSpillWrite/kEmit time and spill volumes.
  CombineTable(const CombineTableConfig& config, Reducer* combiner,
               PartitionedSink& overflow,
               std::function<std::string(std::uint64_t sequence)>
                   next_run_path,
               TaskMetrics& metrics, obs::TraceBuffer* trace = nullptr);

  CombineTable(const CombineTable&) = delete;
  CombineTable& operator=(const CombineTable&) = delete;

  /// From now on admits exactly `keys` (the frozen frequent-key set).
  void admit(const std::vector<std::string>& keys);

  /// Offers one record; false means it was not admitted and the caller
  /// must send it down the spill path itself.
  bool offer(std::uint32_t partition, std::string_view key,
             std::string_view value);

  /// Writes every resident entry, combined once more, to one sorted run
  /// and empties the table. A no-op on an empty table.
  void flush();

  /// Flushes and returns every run written over the table's life, in
  /// write order. May be called once.
  std::vector<io::SpillRunInfo> finish();

  const CombineTableStats& stats() const { return stats_; }
  std::size_t resident_bytes() const;
  /// Combine trigger per key: a share of the budget, [64, 4096] bytes.
  std::size_t per_key_limit() const { return per_key_limit_; }
  std::uint64_t self_timed_ns() const { return self_timed_ns_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    std::uint64_t hash;    // slot hash of (partition, key)
    std::uint64_t prefix;  // key_prefix8(key), the radix sort key
    std::uint32_t partition;
    std::uint32_t key_offset;  // key bytes in heap_
    std::uint32_t key_size;
    std::uint32_t block = kNil;    // value block offset in heap_
    std::uint32_t block_bits = 0;  // block size = 1 << block_bits
    std::uint32_t used = 0;        // block bytes holding values
    std::uint32_t count = 0;       // buffered values
  };

  enum class Outcome { kAbsorbed, kRejected, kFull };

  Outcome try_offer(std::uint64_t hash, std::uint32_t partition,
                    std::string_view key, std::string_view value);
  bool admits(std::string_view key) const;
  std::uint32_t find(std::uint64_t hash, std::uint32_t partition,
                     std::string_view key) const;
  void insert_slot(std::uint32_t entry_index);
  bool fits(std::size_t extra) const;
  std::size_t block_cost(std::uint32_t bits) const;
  std::uint32_t take_block(std::uint32_t bits);
  void release_block(Entry& entry);
  std::uint32_t heap_append(std::string_view bytes);
  std::string_view key_of(const Entry& entry) const;
  std::string_view values_of(const Entry& entry) const;

  /// Applies the combine rule to an entry past its limit.
  void settle(Entry& entry);
  /// Runs the combiner over the entry's block into combine_scratch_;
  /// returns the number of values it emitted.
  std::uint32_t combine(const Entry& entry);
  void evict(Entry& entry, std::string_view values);
  void pressure_flush();
  void set_per_key_limit(std::size_t admitted_keys);

  struct FlushItem {
    std::uint64_t prefix;
    std::uint32_t partition;
    std::uint32_t entry;
  };
  void radix_sort(std::vector<FlushItem>& items);

  CombineTableConfig config_;
  Reducer* combiner_;
  PartitionedSink& overflow_;
  std::function<std::string(std::uint64_t)> next_run_path_;
  TaskMetrics& metrics_;
  obs::TraceBuffer* trace_;

  bool admit_all_;
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_set<std::string, KeyHash, std::equal_to<>> admitted_;
  std::size_t per_key_limit_ = 4096;

  std::vector<char> heap_;
  std::vector<std::vector<std::uint32_t>> free_blocks_;  // by block_bits
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty

  CombineTableStats stats_;
  std::vector<io::SpillRunInfo> runs_;
  std::uint64_t self_timed_ns_ = 0;
  std::string combine_scratch_;            // combiner output, reused
  std::vector<FlushItem> flush_items_;     // reused across flushes
  std::vector<FlushItem> flush_scratch_;   // radix ping-pong buffer
  std::vector<std::uint32_t> part_count_;  // partition counting buckets
  bool finished_ = false;
};

}  // namespace textmr::mr
