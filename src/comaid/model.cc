#include "comaid/model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "util/logging.h"

namespace ncl::comaid {

std::string VariantName(const ComAidConfig& config) {
  if (config.text_attention && config.structural_attention) return "COM-AID";
  if (config.text_attention) return "COM-AID-c";
  if (config.structural_attention) return "COM-AID-w";
  return "COM-AID-wc";
}

ComAidModel::ComAidModel(ComAidConfig config, const ontology::Ontology* onto,
                         const std::vector<std::vector<std::string>>& extra_snippets)
    : config_(config), onto_(onto) {
  NCL_CHECK(onto_ != nullptr);
  NCL_CHECK(config_.dim > 0);
  NCL_CHECK(config_.beta >= 0);
  NCL_CHECK(!config_.structural_attention || config_.beta > 0)
      << "structural attention needs beta >= 1: the Def. 4.1 structural "
         "context is beta ancestor slots";

  bos_id_ = vocab_.Add(kBos);
  eos_id_ = vocab_.Add(kEos);
  unk_id_ = vocab_.Add(kUnk);
  for (ontology::ConceptId id : onto_->AllConcepts()) {
    for (const auto& word : onto_->Get(id).description) vocab_.Add(word);
  }
  for (const auto& snippet : extra_snippets) {
    for (const auto& word : snippet) vocab_.Add(word);
  }

  Rng rng(config_.seed);
  const size_t d = config_.dim;
  const size_t v = vocab_.size();
  embeddings_ = params_.Create("embeddings", v, d, nn::Init::kSmallUniform, rng);
  encoder_ = std::make_unique<nn::LstmCell>("encoder", d, d, &params_, rng);
  decoder_ = std::make_unique<nn::LstmCell>("decoder", d, d, &params_, rng);

  size_t pieces = 1;  // s_t is always part of the composite vector
  if (config_.text_attention) ++pieces;
  if (config_.structural_attention) ++pieces;
  w_d_ = params_.Create("W_d", d, d * pieces, nn::Init::kXavier, rng);
  b_d_ = params_.Create("b_d", d, 1, nn::Init::kZero, rng);
  w_s_ = params_.Create("W_s", v, d, nn::Init::kXavier, rng);
  b_s_ = params_.Create("b_s", v, 1, nn::Init::kZero, rng);

  // Pre-map every concept description to word ids (all in-vocabulary), and
  // lay out each concept's row ids: its description prefixes, then its β
  // context slots under structural attention.
  const size_t context_rows =
      config_.structural_attention ? static_cast<size_t>(config_.beta) : 0;
  const std::vector<ontology::ConceptId> ids = onto_->AllConcepts();
  concept_words_.resize(onto_->size());
  first_row_.assign(onto_->size() + 1, 0);
  for (ontology::ConceptId id : ids) {
    const auto slot = static_cast<size_t>(id);
    concept_words_[slot] = MapTokens(onto_->Get(id).description);
    NCL_CHECK(!concept_words_[slot].empty())
        << "concept '" << onto_->Get(id).code << "' has an empty description";
    first_row_[slot + 1] = concept_words_[slot].size() + context_rows;
  }
  std::partial_sum(first_row_.begin(), first_row_.end(), first_row_.begin());
  // Node ids and depths are at most the row-id count.
  NCL_CHECK(first_row_.back() <= UINT32_MAX)
      << first_row_.back() << " concept rows overflow 32-bit row ids";
  row_ids_.resize(first_row_.back());

  // The prefix trie. Sorted descriptions list it in preorder: each shares
  // the nodes of its common prefix with the one before it and adds one node
  // per word past that prefix.
  std::vector<ontology::ConceptId> sorted = ids;
  std::sort(sorted.begin(), sorted.end(),
            [&](ontology::ConceptId a, ontology::ConceptId b) {
              return concept_words_[static_cast<size_t>(a)] <
                     concept_words_[static_cast<size_t>(b)];
            });
  ontology::ConceptId prev = ontology::kRootConcept;  // empty description
  for (ontology::ConceptId id : sorted) {
    const auto& words = concept_words_[static_cast<size_t>(id)];
    const auto& prev_words = concept_words_[static_cast<size_t>(prev)];
    const auto shared = static_cast<size_t>(
        std::mismatch(words.begin(), words.end(), prev_words.begin(),
                      prev_words.end())
            .first -
        words.begin());
    uint32_t* rows = row_ids_.data() + first_row_[static_cast<size_t>(id)];
    std::copy(RowIds(prev), RowIds(prev) + shared, rows);
    for (size_t t = shared; t < words.size(); ++t) {
      rows[t] = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(PrefixNode{words[t], static_cast<uint32_t>(t + 1)});
    }
    prev = id;
  }
  nodes_.shrink_to_fit();

  // Structural context (Def. 4.1): a slot's representation is the final
  // encoder state of the concept it names (Eq. 7 shares the encoder), so it
  // names that concept's last description row. Duplicate slots keep
  // duplicate ids, so the attention softmax matches the tape path's
  // repeated values.
  if (context_rows > 0) {
    for (ontology::ConceptId id : ids) {
      uint32_t* slot = row_ids_.data() + first_row_[static_cast<size_t>(id)] +
                       concept_words_[static_cast<size_t>(id)].size();
      for (ontology::ConceptId anc : onto_->AncestorContext(id, config_.beta)) {
        *slot++ = FinalRow(anc);
      }
    }
  }
}

size_t ComAidModel::InitializeEmbeddings(const pretrain::WordEmbeddings& pretrained) {
  NCL_CHECK(pretrained.dim() == config_.dim)
      << "pretrained embedding width " << pretrained.dim()
      << " != model dim " << config_.dim;
  size_t initialised = 0;
  for (size_t i = 0; i < vocab_.size(); ++i) {
    auto id = static_cast<text::WordId>(i);
    text::WordId src = pretrained.vocabulary().Lookup(vocab_.WordOf(id));
    if (src == text::Vocabulary::kUnknown) continue;
    const float* vec = pretrained.VectorOf(src);
    float* dst = embeddings_->value.row_data(i);
    for (size_t c = 0; c < config_.dim; ++c) dst[c] = vec[c];
    ++initialised;
  }
  NotifyWeightsChanged();
  return initialised;
}

std::vector<text::WordId> ComAidModel::MapTokens(
    const std::vector<std::string>& tokens) const {
  std::vector<text::WordId> ids;
  ids.reserve(tokens.size());
  for (const auto& token : tokens) {
    text::WordId id = vocab_.Lookup(token);
    ids.push_back(id == text::Vocabulary::kUnknown ? unk_id_ : id);
  }
  return ids;
}

nn::VarId ComAidModel::EncodeDescription(nn::Tape& tape,
                                         const std::vector<text::WordId>& words,
                                         std::vector<nn::VarId>* states) const {
  NCL_DCHECK(!words.empty());
  nn::LstmState state = encoder_->InitialState(tape);
  for (text::WordId word : words) {
    nn::VarId x = tape.Lookup(embeddings_, static_cast<size_t>(word));
    state = encoder_->Step(tape, x, state);
    if (states != nullptr) states->push_back(state.h);
  }
  return state.h;
}

ComAidModel::TapeEncoding ComAidModel::EncodeForDecoding(
    nn::Tape& tape, ontology::ConceptId concept_id) const {
  NCL_CHECK(concept_id > 0 &&
            static_cast<size_t>(concept_id) < concept_words_.size())
      << "invalid concept id " << concept_id;
  TapeEncoding encoding;
  // --- Encode the canonical description (§4.1.1). ---
  EncodeDescription(tape, concept_words_[static_cast<size_t>(concept_id)],
                    &encoding.states);

  // --- Encode the structural context (Def. 4.1) with shared weights. ---
  if (config_.structural_attention) {
    std::unordered_map<ontology::ConceptId, nn::VarId> cache;
    for (ontology::ConceptId anc : onto_->AncestorContext(concept_id, config_.beta)) {
      auto it = cache.find(anc);
      if (it == cache.end()) {
        nn::VarId repr = EncodeDescription(
            tape, concept_words_[static_cast<size_t>(anc)], nullptr);
        it = cache.emplace(anc, repr).first;
      }
      encoding.context.push_back(it->second);
    }
  }
  return encoding;
}

nn::VarId ComAidModel::DecodeStep(nn::Tape& tape, const TapeEncoding& encoding,
                                  text::WordId prev_word,
                                  nn::LstmState* state) const {
  nn::VarId x = tape.Lookup(embeddings_, static_cast<size_t>(prev_word));
  *state = decoder_->Step(tape, x, *state);

  std::vector<nn::VarId> composite{state->h};
  if (config_.text_attention) {
    composite.push_back(tape.Attention(encoding.states, state->h));
  }
  if (config_.structural_attention) {
    composite.push_back(tape.Attention(encoding.context, state->h));
  }

  nn::VarId merged =
      composite.size() == 1 ? composite[0] : tape.ConcatRows(composite);
  nn::VarId s_tilde = tape.Tanh(
      tape.Add(tape.MatMul(tape.Param(w_d_), merged), tape.Param(b_d_)));
  return tape.Add(tape.MatMul(tape.Param(w_s_), s_tilde), tape.Param(b_s_));
}

nn::VarId ComAidModel::Forward(nn::Tape& tape, ontology::ConceptId concept_id,
                               const std::vector<text::WordId>& target) const {
  // An empty target is legal and decodes only <eos>: p(empty | c). The
  // online linker produces it when every query word is shared with the
  // candidate's canonical description (§5 Phase II).
  const TapeEncoding encoding = EncodeForDecoding(tape, concept_id);

  // --- Decode the target with the duet decoder (§4.1.2). ---
  nn::LstmState state =
      decoder_->InitialStateFromHidden(tape, encoding.states.back());
  std::vector<nn::VarId> losses;
  losses.reserve(target.size() + 1);

  text::WordId prev_word = bos_id_;
  for (size_t t = 0; t <= target.size(); ++t) {
    nn::VarId logits = DecodeStep(tape, encoding, prev_word, &state);
    // Decode target[t], with <eos> closing the sequence.
    text::WordId gold = t < target.size() ? target[t] : eos_id_;
    losses.push_back(tape.SoftmaxCrossEntropy(logits, gold));
    prev_word = gold;
  }
  return tape.AddScalars(losses);
}

nn::VarId ComAidModel::BuildExampleLoss(nn::Tape& tape,
                                        ontology::ConceptId concept_id,
                                        const std::vector<text::WordId>& target) const {
  return Forward(tape, concept_id, target);
}

double ComAidModel::ScoreLogProb(ontology::ConceptId concept_id,
                                 const std::vector<std::string>& query_tokens) const {
  return ScoreLogProbIds(concept_id, MapTokens(query_tokens));
}

double ComAidModel::ScoreLogProbIds(ontology::ConceptId concept_id,
                                    const std::vector<text::WordId>& target) const {
  nn::Tape tape;
  nn::VarId loss = Forward(tape, concept_id, target);
  return -static_cast<double>(tape.Value(loss)[0]);
}

std::vector<double> ComAidModel::NextWordLogProbs(
    ontology::ConceptId concept_id, const std::vector<text::WordId>& prefix) const {
  nn::Tape tape;
  const TapeEncoding encoding = EncodeForDecoding(tape, concept_id);
  nn::LstmState state =
      decoder_->InitialStateFromHidden(tape, encoding.states.back());
  nn::VarId logits = DecodeStep(tape, encoding, bos_id_, &state);
  for (text::WordId word : prefix) {
    logits = DecodeStep(tape, encoding, word, &state);
  }

  // Log-softmax over the final logits.
  const nn::Matrix& z = tape.Value(logits);
  double max_logit = z[0];
  for (size_t i = 1; i < z.size(); ++i) max_logit = std::max<double>(max_logit, z[i]);
  double denom = 0.0;
  for (size_t i = 0; i < z.size(); ++i) denom += std::exp(z[i] - max_logit);
  double log_denom = std::log(denom) + max_logit;
  std::vector<double> log_probs(z.size());
  for (size_t i = 0; i < z.size(); ++i) log_probs[i] = z[i] - log_denom;
  return log_probs;
}

nn::Matrix ComAidModel::EncodeConcept(ontology::ConceptId concept_id) const {
  NCL_CHECK(concept_id > 0 &&
            static_cast<size_t>(concept_id) < concept_words_.size());
  nn::Tape tape;
  nn::VarId repr =
      EncodeDescription(tape, concept_words_[static_cast<size_t>(concept_id)], nullptr);
  return tape.Value(repr);
}

nn::Matrix ComAidModel::WordVector(text::WordId id) const {
  NCL_CHECK(id >= 0 && static_cast<size_t>(id) < vocab_.size());
  nn::Matrix vec(config_.dim, 1);
  const float* src = embeddings_->value.row_data(static_cast<size_t>(id));
  for (size_t c = 0; c < config_.dim; ++c) vec[c] = src[c];
  return vec;
}

}  // namespace ncl::comaid
