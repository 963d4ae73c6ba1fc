// textmr-check self-test corpus: two failure modes of offset-addressed
// map-side tables (DESIGN.md §15). Case 1: a RecordRef reference held
// across RecordArena growth — append() returns a reference into the
// arena's ref table, which the *next* append() may reallocate
// (view-escape). Case 2: an unguarded load_* read over an
// offset-addressed vector<char> value heap (decoder-bounds). The real
// combining table (src/mr/combine_table.cpp) keeps offsets, never
// references, and TEXTMR_CHECKs every heap view; these snippets are the
// shapes it must avoid.
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

struct RecordRef {
  std::uint64_t key_prefix;
};

struct RecordArena {
  const RecordRef& append(std::uint32_t partition, std::string_view key,
                          std::string_view value);
};

void sink(std::uint64_t);

// Case 1: the reference from the first append() dangles once the arena
// grows again; the use after the second append() reads freed memory.
void bad_ref_across_growth(RecordArena& arena) {
  const RecordRef& first = arena.append(0, "alpha", "1");
  arena.append(0, "beta", "1");
  sink(first.key_prefix);  // check:expect(view-escape)
}

// Control: copying the RecordRef by value survives any number of later
// appends.
void good_copy_across_growth(RecordArena& arena) {
  const RecordRef first = arena.append(0, "alpha", "1");
  arena.append(0, "beta", "1");
  sink(first.key_prefix);
}

// Control: a reference used before the arena grows again is fine.
void good_ref_before_growth(RecordArena& arena) {
  const RecordRef& first = arena.append(0, "alpha", "1");
  sink(first.key_prefix);
  arena.append(0, "beta", "1");
}

// Case 2: a value-heap block reader with no size guard — a corrupted
// chain offset reads past the heap.
std::uint32_t load_chain_next(const std::vector<char>& heap,
                              std::size_t offset) {
  std::uint32_t next;
  std::memcpy(&next, heap.data() + offset,  // check:expect(decoder-bounds)
              sizeof(next));
  return next;
}

// Control: the guarded form.
void require(bool ok);
std::uint32_t load_chain_next_guarded(const std::vector<char>& heap,
                                      std::size_t offset) {
  require(offset + sizeof(std::uint32_t) <= heap.size());
  std::uint32_t next;
  std::memcpy(&next, heap.data() + offset, sizeof(next));
  return next;
}
