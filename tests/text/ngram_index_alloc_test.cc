// Heap use of the ngram analyzer on one long query token. A wire peer
// controls a query token's length (up to the frame cap), so analysing it
// must cost memory in proportion to the token, not one std::string per
// gram. This suite is its own executable: the global operator new below
// counts every allocation in the binary.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "text/ngram_index.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocated_bytes{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAllocNoThrow(std::size_t size) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ncl::text {
namespace {

TEST(NgramIndexAllocTest, LongQueryTokenAllocatesInProportionToItsLength) {
  NgramIndex index;  // the default config: tokens plus padded 3-grams
  index.AddDocument({"iron", "deficiency", "anemia"});
  index.AddDocument({"protein", "deficiency", "anemia"});
  index.AddDocument({"chronic", "kidney", "disease"});
  index.Finalize();

  // 1 MiB of repeated "anemia": about a million grams, five of them known
  // to the index.
  std::string token;
  while (token.size() < (size_t{1} << 20)) token += "anemia";
  token.resize(size_t{1} << 20);
  const std::vector<std::string> query{token};
  // The thread's first query sizes its scratch to the collection.
  ASSERT_FALSE(index.TopK(query, 2).empty());

  g_allocated_bytes = 0;
  g_counting = true;
  const std::vector<ScoredDoc> results = index.TopK(query, 2);
  g_counting = false;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LT(g_allocated_bytes.load(), 4 * token.size());
}

}  // namespace
}  // namespace ncl::text
