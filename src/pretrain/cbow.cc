#include "pretrain/cbow.h"

#include <algorithm>
#include <cmath>

#include "text/vocabulary.h"
#include "util/logging.h"

namespace ncl::pretrain {

namespace {

/// Fast clipped sigmoid.
inline float FastSigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

/// Corpus mapped to word ids with the pruned vocabulary applied.
struct IdCorpus {
  text::Vocabulary vocab;
  std::vector<std::vector<text::WordId>> sentences;
  size_t total_tokens = 0;
};

IdCorpus BuildIdCorpus(const std::vector<std::vector<std::string>>& corpus,
                       uint64_t min_count) {
  IdCorpus out;
  for (const auto& sentence : corpus) {
    for (const auto& word : sentence) out.vocab.Add(word);
  }
  if (min_count > 1) out.vocab.PruneRareWords(min_count);

  out.sentences.reserve(corpus.size());
  for (const auto& sentence : corpus) {
    std::vector<text::WordId> ids;
    ids.reserve(sentence.size());
    for (const auto& word : sentence) {
      text::WordId id = out.vocab.Lookup(word);
      if (id != text::Vocabulary::kUnknown) ids.push_back(id);
    }
    out.total_tokens += ids.size();
    if (!ids.empty()) out.sentences.push_back(std::move(ids));
  }
  return out;
}

}  // namespace

WordEmbeddings TrainCbow(const std::vector<std::vector<std::string>>& corpus,
                         const CbowConfig& config) {
  NCL_CHECK(config.dim > 0);
  IdCorpus id_corpus = BuildIdCorpus(corpus, config.min_count);
  const size_t vocab_size = id_corpus.vocab.size();
  const size_t dim = config.dim;

  Rng init_rng(config.seed);
  // Input vectors: small uniform init; output (context) vectors: zeros, the
  // standard word2vec initialisation.
  nn::Matrix input = nn::Matrix::RandomUniform(
      vocab_size, dim, 0.5f / static_cast<float>(dim), init_rng);
  nn::Matrix output(vocab_size, dim);

  if (vocab_size == 0 || id_corpus.total_tokens == 0) {
    return WordEmbeddings(std::move(id_corpus.vocab), std::move(input));
  }

  // Negative-sampling distribution: unigram^0.75.
  std::vector<double> noise_weights(vocab_size);
  for (size_t i = 0; i < vocab_size; ++i) {
    noise_weights[i] = std::pow(
        static_cast<double>(id_corpus.vocab.CountOf(static_cast<text::WordId>(i))),
        0.75);
  }
  AliasSampler noise(noise_weights);

  const double total_work = static_cast<double>(config.epochs) *
                            static_cast<double>(id_corpus.total_tokens);
  uint64_t work_done = 0;
  Rng rng(config.seed + 1);
  std::vector<float> hidden(dim);
  std::vector<float> hidden_grad(dim);

  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& sentence : id_corpus.sentences) {
      for (size_t center = 0; center < sentence.size(); ++center) {
        const uint64_t done = work_done++;
        float lr = static_cast<float>(
            config.learning_rate *
            std::max(1.0 - static_cast<double>(done) / (total_work + 1.0), 1e-4));
        const text::WordId center_word = sentence[center];

        // Dynamic window (word2vec trick): radius in [1, window].
        size_t radius = 1 + rng.Index(config.window);
        size_t begin = center >= radius ? center - radius : 0;
        size_t end = std::min(sentence.size(), center + radius + 1);

        std::fill(hidden.begin(), hidden.end(), 0.0f);
        size_t context_count = 0;
        for (size_t j = begin; j < end; ++j) {
          if (j == center) continue;
          const float* vec = input.row_data(static_cast<size_t>(sentence[j]));
          for (size_t k = 0; k < dim; ++k) hidden[k] += vec[k];
          ++context_count;
        }
        if (context_count == 0) continue;
        float inv = 1.0f / static_cast<float>(context_count);
        for (size_t k = 0; k < dim; ++k) hidden[k] *= inv;
        std::fill(hidden_grad.begin(), hidden_grad.end(), 0.0f);

        // One positive + `negatives` sampled targets.
        for (size_t n = 0; n <= config.negatives; ++n) {
          size_t target;
          float label;
          if (n == 0) {
            target = static_cast<size_t>(center_word);
            label = 1.0f;
          } else {
            target = noise.Sample(rng);
            if (target == static_cast<size_t>(center_word)) continue;
            label = 0.0f;
          }
          float* out_vec = output.row_data(target);
          float dot = 0.0f;
          for (size_t k = 0; k < dim; ++k) dot += hidden[k] * out_vec[k];
          float grad = (label - FastSigmoid(dot)) * lr;
          for (size_t k = 0; k < dim; ++k) {
            hidden_grad[k] += grad * out_vec[k];
            out_vec[k] += grad * hidden[k];
          }
        }

        // Propagate to the context words' input vectors.
        for (size_t j = begin; j < end; ++j) {
          if (j == center) continue;
          float* vec = input.row_data(static_cast<size_t>(sentence[j]));
          for (size_t k = 0; k < dim; ++k) vec[k] += hidden_grad[k];
        }
      }
    }
  }

  return WordEmbeddings(std::move(id_corpus.vocab), std::move(input));
}

}  // namespace ncl::pretrain
