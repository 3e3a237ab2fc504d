// Parity of NgramIndex::TopK's pruned walk with a reference walk kept here.
//
// The reference is the straightforward form of the pruned retrieval: one
// walk per term that branches on every posting, theta taken from every
// admitted document at or above the previous theta, and a rescore that sums
// one document at a time and stops past the query's largest term id. The
// index's own walk splits each term into an admission phase and a
// branch-free update pass, keeps the documents at or above theta in a list
// as postings raise them, and rescores four documents at a time. Both must
// return the same documents with the same score bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "datagen/medical_vocabulary.h"
#include "datagen/ontology_synthesizer.h"
#include "datagen/query_generator.h"
#include "text/ngram_index.h"

namespace ncl::text {

/// Which pruning rules fired across the reference's queries.
struct PruningFired {
  size_t cap = 0;      // a document refused because the table was full
  size_t budget = 0;   // a list cut at the posting budget
  size_t epsilon = 0;  // a walk ended by the epsilon (maxscore) stop
  size_t gate = 0;     // a document refused by the theta admission gate
};

struct NgramIndexTestPeer {
  /// The reference pruned TopK (see the file comment).
  static std::vector<ScoredDoc> ReferenceTopK(
      const NgramIndex& index, const std::vector<std::string>& query, size_t k,
      PruningFired* fired) {
    if (k == 0 || query.empty()) return {};
    const std::vector<NgramIndex::QueryTerm> terms = index.AnalyzeQuery(query);
    if (terms.empty()) return {};
    const NgramIndexConfig& config = index.config();
    const size_t max_accums = config.max_accumulators;
    const size_t budget = config.per_term_posting_budget;
    const double epsilon = config.early_stop_epsilon;
    const bool rescore = !index.doc_offsets_.empty() &&
                         (max_accums > 0 || budget > 0 || epsilon > 0.0);

    std::vector<double> accums(index.num_documents(), -1.0);
    std::vector<int32_t> admitted;
    std::vector<double> suffix_ub(terms.size() + 1, 0.0);
    for (size_t i = terms.size(); i-- > 0;) {
      suffix_ub[i] = suffix_ub[i + 1] + terms[i].salience;
    }
    double theta = 0.0;
    bool have_theta = false;
    for (size_t i = 0; i < terms.size(); ++i) {
      if (epsilon > 0.0 && have_theta && suffix_ub[i] < epsilon * theta) {
        ++fired->epsilon;
        break;
      }
      const NgramIndex::QueryTerm& qt = terms[i];
      const auto& plist = index.postings_[static_cast<size_t>(qt.term_id)];
      size_t limit = plist.size();
      if (budget > 0 && budget < plist.size()) {
        limit = budget;
        ++fired->budget;
      }
      for (size_t p = 0; p < limit; ++p) {
        const double delta = qt.weight * static_cast<double>(plist[p].impact);
        double& accum = accums[static_cast<size_t>(plist[p].doc_id)];
        if (accum >= 0.0) {
          accum += delta;
        } else if (max_accums == 0 || admitted.size() < max_accums) {
          if (!have_theta || delta + suffix_ub[i + 1] >= theta) {
            accum = delta;
            admitted.push_back(plist[p].doc_id);
          } else {
            ++fired->gate;
          }
        } else {
          ++fired->cap;
        }
      }
      if (epsilon > 0.0 && admitted.size() >= k) {
        std::vector<double> pool;
        for (int32_t doc : admitted) {
          const double score = accums[static_cast<size_t>(doc)];
          if (!have_theta || score >= theta) pool.push_back(score);
        }
        auto kth = pool.begin() + static_cast<ptrdiff_t>(k - 1);
        std::nth_element(pool.begin(), kth, pool.end(), std::greater<>());
        theta = *kth;
        have_theta = true;
      }
    }

    if (rescore) {
      std::vector<double> weights(index.num_terms(), 0.0);
      int32_t last_term = 0;
      for (const NgramIndex::QueryTerm& qt : terms) {
        weights[static_cast<size_t>(qt.term_id)] = qt.weight;
        last_term = std::max(last_term, qt.term_id);
      }
      for (int32_t doc : admitted) {
        const auto d = static_cast<size_t>(doc);
        double exact = 0.0;
        for (uint32_t e = index.doc_offsets_[d]; e < index.doc_offsets_[d + 1]; ++e) {
          const NgramIndex::ForwardEntry& entry = index.fwd_[e];
          if (entry.term_id > last_term) break;
          exact += weights[static_cast<size_t>(entry.term_id)] *
                   static_cast<double>(entry.impact);
        }
        accums[d] = exact;
      }
    }

    std::vector<ScoredDoc> scored;
    for (int32_t doc : admitted) {
      const double score = accums[static_cast<size_t>(doc)];
      if (score <= 0.0) continue;
      scored.push_back(
          ScoredDoc{doc, score / index.doc_norms_[static_cast<size_t>(doc)]});
    }
    std::sort(scored.begin(), scored.end(),
              [](const ScoredDoc& a, const ScoredDoc& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc_id < b.doc_id;
              });
    if (scored.size() > k) scored.resize(k);
    return scored;
  }
};

namespace {

/// A ~10k-concept ontology over ScaledMedicalVocabulary's derived word
/// types (bench_candgen's 10k shape), indexed one document per concept.
struct ReferenceCorpus {
  ontology::Ontology onto;
  std::vector<std::vector<std::string>> documents;
  std::vector<std::vector<std::string>> queries;

  ReferenceCorpus() {
    datagen::OntologySynthesizerConfig config;
    config.num_chapters = 26;
    config.categories_per_chapter = 45;
    config.max_fine_per_category = 12;
    config.derived_disease_roots = 900;
    config.derived_fine_qualifiers = 32;
    auto synthesized = datagen::SynthesizeOntology(config);
    EXPECT_TRUE(synthesized.ok());
    onto = std::move(synthesized).value();
    for (size_t id = 1; id < onto.size(); ++id) {
      documents.push_back(onto.Get(static_cast<ontology::ConceptId>(id)).description);
    }
    datagen::QueryGeneratorConfig query_config;
    query_config.group_size = 1200;
    query_config.purposive_per_group = 200;
    query_config.seed = 2929;
    datagen::QueryGenerator generator(onto, datagen::DefaultMedicalVocabulary(),
                                      query_config);
    std::vector<std::vector<datagen::LabeledQuery>> groups =
        generator.GenerateGroups(1);
    for (datagen::LabeledQuery& query : groups[0]) {
      queries.push_back(std::move(query.tokens));
    }
  }
};

const ReferenceCorpus& Corpus() {
  static const ReferenceCorpus* corpus = new ReferenceCorpus();
  return *corpus;
}

/// Runs every corpus query through TopK and the reference at several k,
/// expecting the same doc ids and score bits; returns what fired.
PruningFired ExpectTopKMatchesReference(const NgramIndexConfig& config) {
  const ReferenceCorpus& corpus = Corpus();
  NgramIndex index(config);
  for (const auto& doc : corpus.documents) index.AddDocument(doc);
  index.Finalize();
  EXPECT_GE(index.num_documents(), 10000u);
  EXPECT_GE(corpus.queries.size(), 1000u);

  PruningFired fired;
  size_t nonempty = 0;
  const size_t ks[] = {1, 10, 80};
  for (size_t q = 0; q < corpus.queries.size(); ++q) {
    const size_t k = ks[q % 3];
    const std::vector<ScoredDoc> got = index.TopK(corpus.queries[q], k);
    const std::vector<ScoredDoc> want =
        NgramIndexTestPeer::ReferenceTopK(index, corpus.queries[q], k, &fired);
    nonempty += got.empty() ? 0 : 1;
    EXPECT_EQ(got.size(), want.size()) << "query " << q;
    if (got.size() != want.size()) continue;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doc_id, want[i].doc_id) << "query " << q << " rank " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
                std::bit_cast<uint64_t>(want[i].score))
          << "query " << q << " rank " << i;
    }
  }
  EXPECT_GT(nonempty, corpus.queries.size() * 9 / 10);
  return fired;
}

TEST(NgramIndexReferenceTest, PrunedTopKMatchesReferenceWalkBitForBit) {
#if defined(__ASSOCIATIVE_MATH__)
  GTEST_SKIP() << "-ffast-math build: summation order is the compiler's";
#endif
  NgramIndexConfig tight;
  tight.max_accumulators = 64;
  tight.per_term_posting_budget = 32;
  tight.early_stop_epsilon = 0.4;
  // No cap, a short budget and an early epsilon stop: here theta alone
  // decides admission and where the walk ends, so a theta one rank too high
  // changes rankings.
  NgramIndexConfig uncapped;
  uncapped.max_accumulators = 0;
  uncapped.per_term_posting_budget = 32;
  uncapped.early_stop_epsilon = 0.8;
  const PruningFired defaults = ExpectTopKMatchesReference(NgramIndexConfig{});
  const PruningFired tightened = ExpectTopKMatchesReference(tight);
  const PruningFired gated = ExpectTopKMatchesReference(uncapped);
  // Between them the configurations exercise every pruning rule.
  EXPECT_GT(defaults.cap + tightened.cap, 0u);
  EXPECT_GT(defaults.budget + tightened.budget, 0u);
  EXPECT_GT(defaults.epsilon + tightened.epsilon, 0u);
  EXPECT_GT(defaults.gate + tightened.gate, 0u);
  EXPECT_GT(gated.gate, 0u);
  EXPECT_GT(gated.epsilon, 0u);
}

}  // namespace
}  // namespace ncl::text
