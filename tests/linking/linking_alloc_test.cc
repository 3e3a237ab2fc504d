// Heap allocations on the linking request path. Query rewriting allocates
// only the words it returns, and a warmed NclLinker::LinkDetailed stays
// under a fixed number of allocations per query. This suite is its own
// executable: the global operator new below counts every allocation in the
// binary.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comaid/trainer.h"
#include "linking/ncl_linker.h"
#include "linking/query_rewriter.h"
#include "util/random.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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

/// Allocations `fn` makes on this thread's watch.
template <typename Fn>
size_t CountAllocations(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations.load();
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

namespace ncl::linking {
namespace {

/// A six-concept ontology with clinician aliases, a trained dim-16 COM-AID,
/// the token candidate index, and an Ω' that adds abbreviations, a British
/// spelling and a long word to Ω.
struct Fixture {
  ontology::Ontology onto;
  std::unique_ptr<comaid::ComAidModel> model;
  std::unique_ptr<CandidateGenerator> candidates;
  pretrain::WordEmbeddings embeddings;
  std::unique_ptr<QueryRewriter> rewriter;

  Fixture() {
    auto add = [&](const char* code, std::vector<std::string> desc,
                   const char* parent) {
      auto result = onto.AddConcept(code, std::move(desc), onto.FindByCode(parent));
      EXPECT_TRUE(result.ok());
    };
    add("D50", {"iron", "deficiency", "anemia"}, "ROOT");
    add("D50.0", {"iron", "deficiency", "anemia", "blood", "loss"}, "D50");
    add("D50.9", {"iron", "deficiency", "anemia", "unspecified"}, "D50");
    add("N18", {"chronic", "kidney", "disease"}, "ROOT");
    add("N18.5", {"chronic", "kidney", "disease", "stage", "5"}, "N18");
    add("N05", {"glomerulonephritis", "unspecified"}, "ROOT");

    std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases = {
        {onto.FindByCode("N18.5"), {"ckd", "5"}},
        {onto.FindByCode("N18.5"), {"kidney", "disease", "5"}},
        {onto.FindByCode("D50.0"), {"anemia", "blood", "loss"}},
        {onto.FindByCode("D50.9"), {"iron", "anemia", "nos"}},
    };
    std::vector<std::vector<std::string>> extra;
    for (auto& [id, tokens] : aliases) extra.push_back(tokens);

    comaid::ComAidConfig config;
    config.dim = 16;
    config.beta = 1;
    model = std::make_unique<comaid::ComAidModel>(config, &onto, extra);
    comaid::TrainConfig tc;
    tc.epochs = 5;
    comaid::ComAidTrainer trainer(tc);
    trainer.Train(model.get(), comaid::MakeTrainingPairs(*model, aliases));
    model->PrecomputeConceptEncodings();

    candidates = std::make_unique<CandidateGenerator>(onto, aliases);

    text::Vocabulary vocab;
    for (const std::string& word : candidates->vocabulary().words()) vocab.Add(word);
    for (const char* word : {"renal", "anaemia", "dm", "haemorrhage",
                             "glomerulonephritides"}) {
      vocab.Add(word);
    }
    constexpr size_t kDim = 8;
    nn::Matrix vectors(vocab.size(), kDim);
    Rng rng(29);
    for (size_t r = 0; r < vocab.size(); ++r) {
      for (size_t c = 0; c < kDim; ++c) {
        vectors.row_data(r)[c] = rng.UniformFloat(-1.0f, 1.0f);
      }
    }
    embeddings = pretrain::WordEmbeddings(std::move(vocab), std::move(vectors));
    rewriter = std::make_unique<QueryRewriter>(candidates->vocabulary(), embeddings);
  }
};

/// Queries with in-Ω words, Ω'-only words, typos, numbers and long words.
const std::vector<std::vector<std::string>>& Queries() {
  static const std::vector<std::vector<std::string>> queries = {
      {"ckd", "5"},
      {"renal", "disease", "stage", "5"},
      {"anaemia", "blood", "loss"},
      {"iron", "deficency", "anemai", "nos"},
      {"chronic", "kidny", "diseas"},
      {"glomerulonephritides"},
      {"glomerulonefritis", "haemorrhage", "dm"},
      {"xylophone", "anemia", "12"},
  };
  return queries;
}

TEST(LinkingAllocTest, RewriteAllocatesOnlyItsResult) {
  const Fixture f;
  for (const std::vector<std::string>& query : Queries()) {
    std::vector<std::string> rewritten = f.rewriter->Rewrite(query);  // warm
    const size_t allocations =
        CountAllocations([&] { rewritten = f.rewriter->Rewrite(query); });
    // Copying the result costs what building it may: its array and the
    // words too long for the string's inline buffer.
    const size_t result_allocations = CountAllocations([&] {
      const std::vector<std::string> copy = rewritten;
      EXPECT_EQ(copy.size(), query.size());
    });
    EXPECT_EQ(allocations, result_allocations) << "query " << query[0];
  }
  // The long words took the heap, so the comparison above counted them.
  EXPECT_EQ(f.rewriter->RewriteWord("glomerulonefritis"), "glomerulonephritis");
}

TEST(LinkingAllocTest, WarmedLinkStaysUnderItsAllocationBound) {
  // With GCC 12's libstdc++ these queries made 26-36 allocations each
  // (k = 20, rewriting on), against 32-58 while the rewriter scanned Ω'
  // and the shared-word filter built a set per candidate. The count
  // depends on the standard library, so this is an upper bound.
  constexpr size_t kMaxAllocationsPerQuery = 44;
  const Fixture f;
  NclConfig config;
  config.k = 20;
  const NclLinker linker(f.model.get(), f.candidates.get(), f.rewriter.get(),
                         config);
  for (const std::vector<std::string>& query : Queries()) {
    ASSERT_FALSE(linker.LinkDetailed(query).empty()) << query[0];  // warm
  }
  for (const std::vector<std::string>& query : Queries()) {
    const size_t allocations = CountAllocations([&] {
      PhaseTimings timings;
      const std::vector<ScoredCandidate> ranked = linker.LinkDetailed(query, &timings);
      EXPECT_FALSE(ranked.empty());
    });
    EXPECT_LE(allocations, kMaxAllocationsPerQuery) << "query " << query[0];
  }
}

}  // namespace
}  // namespace ncl::linking
