// CBOW word2vec with negative sampling.
//
// The pre-training phase of NCL (§4.2): word representations are learned by
// applying the continuous bag-of-words model to the (concept-id-injected)
// text snippets. Negative sampling follows Mikolov et al.; the paper's
// Appendix B.2 settings (window 10, 10 negatives, 10 iterations, lr 0.05)
// are the defaults. Training runs on the calling thread, so a seed fixes
// every trained weight.

#pragma once

#include <cstddef>
#include <vector>

#include "pretrain/embeddings.h"
#include "util/random.h"

namespace ncl::pretrain {

/// Training hyperparameters for CBOW.
struct CbowConfig {
  size_t dim = 100;            ///< embedding width d
  size_t window = 10;          ///< context radius α
  size_t negatives = 10;       ///< negative samples per positive (NCE count)
  size_t epochs = 10;          ///< full passes over the corpus
  double learning_rate = 0.05; ///< initial lr, decayed linearly to lr/1e4
  uint64_t min_count = 1;      ///< prune words rarer than this
  uint64_t seed = 42;
};

/// \brief Train CBOW embeddings over a tokenised corpus.
///
/// Each corpus entry is one snippet (sentence). Returns the input-side
/// embedding table over the pruned vocabulary.
WordEmbeddings TrainCbow(const std::vector<std::vector<std::string>>& corpus,
                         const CbowConfig& config);

}  // namespace ncl::pretrain
