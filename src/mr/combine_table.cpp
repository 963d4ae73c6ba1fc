#include "mr/combine_table.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/stopwatch.hpp"
#include "common/varint.hpp"
#include "mr/record_arena.hpp"

namespace textmr::mr {
namespace {

constexpr std::uint32_t kMinBlockBits = 4;  // 16-byte smallest value block

/// Smallest power-of-two block (>= 16 bytes) holding `bytes`.
std::uint32_t block_bits_for(std::size_t bytes) {
  return std::max<std::uint32_t>(
      kMinBlockBits, static_cast<std::uint32_t>(std::bit_width(bytes - 1)));
}

std::size_t varint_size(std::uint64_t value) {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

/// Streams the length-prefixed values of a block (or of combiner output).
class PrefixedValueStream final : public ValueStream {
 public:
  explicit PrefixedValueStream(std::string_view bytes) : bytes_(bytes) {}

  std::optional<std::string_view> next() override {
    if (pos_ >= bytes_.size()) return std::nullopt;
    return get_length_prefixed(bytes_, pos_);
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Captures combiner output, length-prefixed, into a caller-owned buffer
/// whose capacity is recycled across combines; enforces the
/// key-preserving combiner contract.
class CaptureSink final : public EmitSink {
 public:
  CaptureSink(std::string_view expected_key, std::string& out)
      : out_(out), expected_key_(expected_key) {}

  void emit(std::string_view key, std::string_view value) override {
    TEXTMR_CHECK(key == expected_key_,
                 "combiner must be key-preserving (map-side table)");
    put_length_prefixed(out_, value);
    ++count;
  }

  std::uint32_t count = 0;

 private:
  std::string& out_;
  std::string_view expected_key_;
};

}  // namespace

CombineTable::CombineTable(
    const CombineTableConfig& config, Reducer* combiner,
    PartitionedSink& overflow,
    std::function<std::string(std::uint64_t)> next_run_path,
    TaskMetrics& metrics, obs::TraceBuffer* trace)
    : config_(config),
      combiner_(combiner),
      overflow_(overflow),
      next_run_path_(std::move(next_run_path)),
      metrics_(metrics),
      trace_(trace),
      admit_all_(config.admit_all),
      free_blocks_(32) {
  TEXTMR_CHECK(config_.budget_bytes < kNil,
               "combine table budget must be below 4 GiB");
  TEXTMR_CHECK(config_.num_partitions >= 1, "combine table needs a partition");
  // Reserved, not touched: pages become resident only as the table fills,
  // and the heap never moves while views into it are handed out.
  heap_.reserve(config_.budget_bytes);
  set_per_key_limit(0);
}

void CombineTable::set_per_key_limit(std::size_t admitted_keys) {
  // Fair share: with every admitted key near its limit (its block up to
  // twice the limit, the outgrown blocks parked on free lists) the heap
  // still fits the budget. Hash mode cannot know its key count; 16 keys'
  // worth keeps a few hot keys from crowding out the rest.
  per_key_limit_ = std::clamp<std::size_t>(
      config_.budget_bytes / (4 * std::max<std::size_t>(admitted_keys, 16)),
      64, 4096);
}

void CombineTable::admit(const std::vector<std::string>& keys) {
  if (stats_.demotions != 0) return;
  admit_all_ = false;
  admitted_ = {keys.begin(), keys.end()};
  set_per_key_limit(admitted_.size());
}

bool CombineTable::admits(std::string_view key) const {
  return admit_all_ || (!admitted_.empty() && admitted_.count(key) != 0);
}

std::size_t CombineTable::resident_bytes() const {
  return heap_.size() + entries_.size() * sizeof(Entry) +
         slots_.size() * sizeof(std::uint32_t);
}

bool CombineTable::fits(std::size_t extra) const {
  return resident_bytes() + extra <= config_.budget_bytes;
}

std::size_t CombineTable::block_cost(std::uint32_t bits) const {
  return free_blocks_[bits].empty() ? std::size_t{1} << bits : 0;
}

std::uint32_t CombineTable::take_block(std::uint32_t bits) {
  std::vector<std::uint32_t>& free_list = free_blocks_[bits];
  if (!free_list.empty()) {
    const std::uint32_t block = free_list.back();
    free_list.pop_back();
    return block;
  }
  const std::size_t offset = heap_.size();
  heap_.resize(offset + (std::size_t{1} << bits));
  return static_cast<std::uint32_t>(offset);
}

void CombineTable::release_block(Entry& entry) {
  if (entry.block != kNil) free_blocks_[entry.block_bits].push_back(entry.block);
  entry.block = kNil;
  entry.used = 0;
  entry.count = 0;
}

std::uint32_t CombineTable::heap_append(std::string_view bytes) {
  const std::size_t offset = heap_.size();
  heap_.resize(offset + bytes.size());
  std::memcpy(heap_.data() + offset, bytes.data(), bytes.size());
  return static_cast<std::uint32_t>(offset);
}

std::string_view CombineTable::key_of(const Entry& entry) const {
  TEXTMR_CHECK(entry.key_offset + entry.key_size <= heap_.size(),
               "combine table key out of bounds");
  return {heap_.data() + entry.key_offset, entry.key_size};
}

std::string_view CombineTable::values_of(const Entry& entry) const {
  if (entry.block == kNil) return {};
  TEXTMR_CHECK(entry.block + entry.used <= heap_.size(),
               "combine table value block out of bounds");
  return {heap_.data() + entry.block, entry.used};
}

std::uint32_t CombineTable::find(std::uint64_t hash, std::uint32_t partition,
                                 std::string_view key) const {
  if (slots_.empty()) return kNil;
  const std::uint64_t mask = slots_.size() - 1;
  for (std::uint64_t j = hash & mask;; j = (j + 1) & mask) {
    const std::uint32_t slot = slots_[j];
    if (slot == 0) return kNil;
    const Entry& entry = entries_[slot - 1];
    if (entry.hash == hash && entry.partition == partition &&
        entry.key_size == key.size() && key_of(entry) == key) {
      return slot - 1;
    }
  }
}

void CombineTable::insert_slot(std::uint32_t entry_index) {
  const std::uint64_t mask = slots_.size() - 1;
  std::uint64_t j = entries_[entry_index].hash & mask;
  while (slots_[j] != 0) j = (j + 1) & mask;
  slots_[j] = entry_index + 1;
}

CombineTable::Outcome CombineTable::try_offer(std::uint64_t hash,
                                              std::uint32_t partition,
                                              std::string_view key,
                                              std::string_view value) {
  const std::size_t encoded = varint_size(value.size()) + value.size();
  // A record even an empty table cannot hold goes to the spill path.
  if (key.size() + encoded + sizeof(Entry) > config_.budget_bytes) {
    return Outcome::kRejected;
  }
  std::uint32_t index = find(hash, partition, key);
  const bool hit = index != kNil;
  if (!hit) {
    if (!admits(key)) return Outcome::kRejected;
    const bool grow = (entries_.size() + 1) * 10 > slots_.size() * 7;
    const std::size_t new_slots = grow ? std::max<std::size_t>(
                                             64, slots_.size() * 2)
                                       : slots_.size();
    const std::size_t extra =
        key.size() + block_cost(block_bits_for(encoded)) + sizeof(Entry) +
        (new_slots - slots_.size()) * sizeof(std::uint32_t);
    if (!fits(extra)) return Outcome::kFull;
    Entry entry;
    entry.hash = hash;
    entry.prefix = key_prefix8(key);
    entry.partition = partition;
    entry.key_offset = heap_append(key);
    entry.key_size = static_cast<std::uint32_t>(key.size());
    index = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(entry);
    if (grow) {
      slots_.assign(new_slots, 0);
      for (std::uint32_t e = 0; e < entries_.size(); ++e) insert_slot(e);
    } else {
      insert_slot(index);
    }
  }

  Entry& entry = entries_[index];
  if (entry.block == kNil ||
      entry.used + encoded > (std::size_t{1} << entry.block_bits)) {
    const std::uint32_t bits = block_bits_for(entry.used + encoded);
    if (!fits(block_cost(bits))) return Outcome::kFull;
    const std::uint32_t block = take_block(bits);
    if (entry.used != 0) {
      std::memmove(heap_.data() + block, heap_.data() + entry.block,
                   entry.used);
    }
    const std::uint32_t used = entry.used;
    const std::uint32_t count = entry.count;
    release_block(entry);
    entry.block = block;
    entry.block_bits = bits;
    entry.used = used;
    entry.count = count;
  }
  char* out = heap_.data() + entry.block + entry.used;
  std::uint64_t length = value.size();
  while (length >= 0x80) {
    *out++ = static_cast<char>((length & 0x7f) | 0x80);
    length >>= 7;
  }
  *out++ = static_cast<char>(length);
  std::memcpy(out, value.data(), value.size());
  entry.used += static_cast<std::uint32_t>(encoded);
  entry.count += 1;
  stats_.absorbed += 1;
  if (hit) stats_.hits += 1;
  stats_.resident_high_water =
      std::max<std::uint64_t>(stats_.resident_high_water, resident_bytes());
  if (entry.used > per_key_limit_) settle(entry);
  return Outcome::kAbsorbed;
}

bool CombineTable::offer(std::uint32_t partition, std::string_view key,
                         std::string_view value) {
  TEXTMR_CHECK(!finished_, "offer to a finished combine table");
  const std::uint64_t hash =
      mix64(hash_key(key) + partition * 0x9e3779b97f4a7c15ULL);
  Outcome outcome = try_offer(hash, partition, key, value);
  if (outcome == Outcome::kFull) {
    pressure_flush();
    outcome = try_offer(hash, partition, key, value);
  }
  return outcome == Outcome::kAbsorbed;
}

std::uint32_t CombineTable::combine(const Entry& entry) {
  PrefixedValueStream values(values_of(entry));
  combine_scratch_.clear();  // keeps its capacity: no steady-state allocs
  CaptureSink capture(key_of(entry), combine_scratch_);
  combiner_->reduce(key_of(entry), values, capture);
  return capture.count;
}

void CombineTable::settle(Entry& entry) {
  // The paper's rule (§III-A): combine a key once its buffered values pass
  // the limit; an aggregate that does not shrink below half the limit "is
  // written to disk using the original dataflow" — it leaves the table,
  // so the next combine of this key again reads at least half a limit of
  // fresh values.
  if (combiner_ == nullptr || entry.count < 2) {
    evict(entry, values_of(entry));
    return;
  }
  const std::uint64_t t0 = monotonic_ns();
  const std::uint32_t count = combine(entry);
  const std::uint64_t elapsed = monotonic_ns() - t0;
  metrics_.op_ns(Op::kCombine) += elapsed;
  self_timed_ns_ += elapsed;
  if (combine_scratch_.size() > per_key_limit_ / 2) {
    evict(entry, combine_scratch_);
    return;
  }
  // The block held more than the limit, so the aggregate fits in place.
  std::memcpy(heap_.data() + entry.block, combine_scratch_.data(),
              combine_scratch_.size());
  entry.used = static_cast<std::uint32_t>(combine_scratch_.size());
  entry.count = count;
}

void CombineTable::evict(Entry& entry, std::string_view values) {
  const std::uint64_t t0 = monotonic_ns();
  PrefixedValueStream stream(values);
  while (auto value = stream.next()) {
    overflow_.put(entry.partition, key_of(entry), *value);
    stats_.evicted += 1;
  }
  release_block(entry);
  const std::uint64_t elapsed = monotonic_ns() - t0;
  metrics_.op_ns(Op::kEmit) += elapsed;
  self_timed_ns_ += elapsed;
}

void CombineTable::pressure_flush() {
  flush();
  stats_.flushes += 1;
  if (stats_.flushes >= kDemoteAfterFlushes && stats_.demotions == 0) {
    // The keyspace does not fit: hashing would only add probe cost on top
    // of the same spill volume. Admit nothing from now on; the sort path
    // takes every record.
    admit_all_ = false;
    admitted_.clear();
    stats_.demotions = 1;
    obs::record_instant(trace_, "spill", "hash_demote", "flushes",
                        static_cast<double>(stats_.flushes));
  }
}

void CombineTable::radix_sort(std::vector<FlushItem>& items) {
  const std::size_t n = items.size();
  if (n < 2) return;
  flush_scratch_.resize(n);
  FlushItem* a = items.data();
  FlushItem* b = flush_scratch_.data();
  std::array<std::uint32_t, 257> count;

  // Stable LSD over the big-endian key prefix: least-significant byte
  // first, so the final pass (most-significant = first key byte) owns the
  // order and earlier passes break its ties.
  for (unsigned shift = 0; shift < 64; shift += 8) {
    count.fill(0);
    for (std::size_t i = 0; i < n; ++i) {
      ++count[((a[i].prefix >> shift) & 0xff) + 1];
    }
    // Short text keys zero-pad the low prefix bytes; skip uniform passes.
    bool uniform = false;
    for (std::size_t bucket = 1; bucket <= 256; ++bucket) {
      if (count[bucket] == n) {
        uniform = true;
        break;
      }
      if (count[bucket] != 0) break;
    }
    if (uniform) continue;
    for (std::size_t bucket = 1; bucket <= 256; ++bucket) {
      count[bucket] += count[bucket - 1];
    }
    for (std::size_t i = 0; i < n; ++i) {
      b[count[(a[i].prefix >> shift) & 0xff]++] = a[i];
    }
    std::swap(a, b);
  }

  // Most-significant pass: the partition (runs group by partition first).
  part_count_.assign(config_.num_partitions + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++part_count_[a[i].partition + 1];
  for (std::size_t p = 1; p <= config_.num_partitions; ++p) {
    part_count_[p] += part_count_[p - 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    b[part_count_[a[i].partition]++] = a[i];
  }
  std::swap(a, b);
  if (a != items.data()) {
    std::memcpy(items.data(), a, n * sizeof(FlushItem));
  }

  // Equal (partition, prefix) decides nothing for >8-byte keys or
  // zero-padded short keys (record_arena.hpp): fall back to the full key.
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && items[j].partition == items[i].partition &&
           items[j].prefix == items[i].prefix) {
      ++j;
    }
    if (j - i > 1) {
      std::sort(items.begin() + static_cast<std::ptrdiff_t>(i),
                items.begin() + static_cast<std::ptrdiff_t>(j),
                [this](const FlushItem& x, const FlushItem& y) {
                  return key_of(entries_[x.entry]) < key_of(entries_[y.entry]);
                });
    }
    i = j;
  }
}

void CombineTable::flush() {
  if (entries_.empty()) return;
  const std::uint64_t t0 = monotonic_ns();
  obs::SpanTimer span(trace_, "spill", "hash_flush");
  span.arg("entries", static_cast<double>(entries_.size()));

  flush_items_.clear();
  for (std::uint32_t e = 0; e < entries_.size(); ++e) {
    const Entry& entry = entries_[e];
    if (entry.count == 0) continue;
    flush_items_.push_back(FlushItem{entry.prefix, entry.partition, e});
  }
  radix_sort(flush_items_);
  const std::uint64_t sorted_ns = monotonic_ns();

  std::uint64_t combine_ns = 0;
  if (!flush_items_.empty()) {
    io::SpillRunWriter writer(next_run_path_(runs_.size()),
                              config_.num_partitions, config_.format);
    std::uint64_t input_bytes = 0;
    for (const FlushItem& item : flush_items_) {
      const Entry& entry = entries_[item.entry];
      std::string_view values = values_of(entry);
      // A key with several buffered values is combined once more, like a
      // multi-record group on the sort path; a single value is written
      // as it is.
      if (combiner_ != nullptr && entry.count > 1) {
        const std::uint64_t c0 = monotonic_ns();
        combine(entry);
        combine_ns += monotonic_ns() - c0;
        values = combine_scratch_;
      }
      const std::string_view key = key_of(entry);
      PrefixedValueStream stream(values);
      while (auto value = stream.next()) {
        writer.append(entry.partition, key, *value);
        input_bytes += key.size() + value->size();
        stats_.flushed += 1;
      }
    }
    io::SpillRunInfo info = writer.finish();
    span.arg("records", static_cast<double>(info.records));
    metrics_.spill_input_records += info.records;
    metrics_.spill_input_bytes += input_bytes;
    metrics_.spilled_records += info.records;
    metrics_.spilled_bytes += info.bytes;
    metrics_.spill_count += 1;
    runs_.push_back(std::move(info));
  }

  // Reset, keeping every allocation: refills are allocation-free.
  entries_.clear();
  heap_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
  for (auto& free_list : free_blocks_) free_list.clear();

  const std::uint64_t done_ns = monotonic_ns();
  metrics_.op_ns(Op::kSort) += sorted_ns - t0;
  metrics_.op_ns(Op::kCombine) += combine_ns;
  metrics_.op_ns(Op::kSpillWrite) += done_ns - sorted_ns - combine_ns;
  self_timed_ns_ += done_ns - t0;
}

std::vector<io::SpillRunInfo> CombineTable::finish() {
  TEXTMR_CHECK(!finished_, "combine table finished twice");
  finished_ = true;
  flush();
  return runs_;
}

}  // namespace textmr::mr
