// The COM-AID model (§4): COMposite AttentIonal encode-Decode network.
//
// Encodes a concept's canonical description with an LSTM (§4.1.1), then
// decodes a text snippet from the concept representation with a
// text-structure duet decoder (§4.1.2):
//   * text-based attention over the encoder's hidden states (Eqs. 5–6),
//   * structure-based attention over the representations of the concept's
//     ancestors (Eq. 7, Def. 4.1), encoded by the *same* encoder weights,
//   * a composite layer  s~_t = tanh(W_d [s_t; tc_t; sc_t] + b_d)  (Eq. 8),
//   * a vocabulary softmax  p(w_t | w_<t, c) = softmax(W_s s~_t + b_s)
//     (Eq. 9), chained into p(q|c) by Eq. 3.
//
// The two attention switches produce the paper's ablation variants
// (Fig. 6): disabling structural attention yields COM-AID^-c (attentional
// seq2seq, Bahdanau et al. [2]); disabling textual attention yields
// COM-AID^-w; disabling both yields COM-AID^-wc (seq2seq, Sutskever et
// al. [40]).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comaid/inference.h"
#include "nn/gemm.h"
#include "nn/lstm.h"
#include "nn/parameter.h"
#include "nn/tape.h"
#include "ontology/ontology.h"
#include "pretrain/embeddings.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace ncl::comaid {

/// Architecture/ablation configuration.
struct ComAidConfig {
  /// Word-embedding and hidden width d. The paper allows them to differ but
  /// assumes equality (§6.1 fn 10); we follow suit.
  size_t dim = 50;
  /// Structural-context depth β (Def. 4.1).
  int32_t beta = 2;
  /// Text-based attention (Eqs. 5–6). Off => COM-AID^-w family.
  bool text_attention = true;
  /// Structure-based attention (Eq. 7). Off => COM-AID^-c family.
  bool structural_attention = true;
  uint64_t seed = 1234;
};

/// Human-readable variant name: "COM-AID", "COM-AID-c", "COM-AID-w",
/// "COM-AID-wc" per the ablation switches.
std::string VariantName(const ComAidConfig& config);

/// \brief The model: parameters + forward/score entry points.
///
/// Phase II has one tape-free scorer, ScoreLogProbFastBatch. The autodiff
/// tape is the training forward pass and the reference the scorer's parity
/// tests compare against (ScoreLogProb / ScoreLogProbIds).
///
/// Thread-safety: while no weight mutation is in flight, the scoring entry
/// points (ScoreLogProb / ScoreLogProbIds / ScoreLogProbFastBatch /
/// EncodeConcept / NextWordLogProbs) are safe to call concurrently. The tape
/// paths read parameter values through private tapes; the batched scorer
/// additionally shares the concept-encoding row pool (one row per distinct
/// description prefix) and the decoder weights packed for nn::GemmNTPacked,
/// which its first call fills under a mutex and later calls read after one
/// acquire load.
/// Weight mutation — training, InitializeEmbeddings, model loading — must be
/// single-threaded and must not overlap any scoring call; each mutation ends
/// with NotifyWeightsChanged(), which empties the pool and releases the
/// packed weights.
class ComAidModel {
 public:
  /// Special decoder tokens (always present in the model vocabulary).
  static constexpr const char* kBos = "<bos>";
  static constexpr const char* kEos = "<eos>";
  static constexpr const char* kUnk = "<unk>";

  /// \param onto the ontology; must outlive the model.
  /// \param config structural attention requires config.beta >= 1
  ///        (Def. 4.1: the structural context is β ancestor slots).
  /// \param extra_snippets additional token sequences whose words join the
  ///        model vocabulary (typically the labeled training aliases).
  ComAidModel(ComAidConfig config, const ontology::Ontology* onto,
              const std::vector<std::vector<std::string>>& extra_snippets);

  /// Copy pre-trained vectors into the embedding table for every word both
  /// vocabularies share (the §4.2 pretrain-and-refine handoff). Returns the
  /// number of rows initialised.
  size_t InitializeEmbeddings(const pretrain::WordEmbeddings& pretrained);

  /// Map tokens to model word ids (<unk> for out-of-vocabulary words).
  std::vector<text::WordId> MapTokens(const std::vector<std::string>& tokens) const;

  /// \brief Record the full encode-decode loss for one training example on
  /// `tape`: -log p(target | concept) (Eq. 10 summand). `target` must be
  /// non-empty and contain word ids only (no specials; <eos> is appended
  /// internally).
  nn::VarId BuildExampleLoss(nn::Tape& tape, ontology::ConceptId concept_id,
                             const std::vector<text::WordId>& target) const;

  /// \brief log p(q | c; Θ): teacher-forced log-likelihood of decoding the
  /// query from the concept (Eq. 3). Thread-safe after training. Reference
  /// tape-based path; prefer ScoreLogProbFastBatch in inference hot loops.
  double ScoreLogProb(ontology::ConceptId concept_id,
                      const std::vector<std::string>& query_tokens) const;

  /// Tape-based ScoreLogProb over pre-mapped word ids (lets callers map the
  /// query once instead of once per candidate).
  double ScoreLogProbIds(ontology::ConceptId concept_id,
                         const std::vector<text::WordId>& target) const;

  /// Default lock-step width of the batched scorer: enough lanes to amortise
  /// the weight-matrix streaming, small enough that the per-step activation
  /// working set stays cache-resident.
  static constexpr size_t kDefaultScoreLanes = 32;

  /// \brief Tape-free log p(q | c; Θ) — the Phase II scorer: fill
  /// `lanes[i].log_prob` with log p(target_i | concept_i) for every lane.
  ///
  /// Reads each concept's encoding from the row pool, so the encoder runs
  /// once per concept instead of once per (query, candidate) pair, and
  /// builds no autodiff graph; a call that finds the pool empty first runs
  /// PrecomputeConceptEncodings. Stacks up to `max_lanes` candidates per
  /// decode step into one activation matrix, so the LSTM/composite/softmax
  /// weights, packed by that warm-up, are applied by GemmNTPacked calls
  /// that stream each weight once per step for the whole tile. Ragged
  /// target lengths are masked by sorting lanes longest first and
  /// shrinking the active row prefix as short lanes emit <eos>. Every lane reduces in the same canonical order, so results
  /// are bit-identical under any lane order, batch composition, or
  /// `max_lanes` (max_lanes = 1 is the per-candidate computation), and agree
  /// with ScoreLogProbIds within 1e-5 (both pinned by tests). Decoder
  /// scratch is one reusable buffer set per thread. Thread-safe under the
  /// same contract as ScoreLogProb.
  void ScoreLogProbFastBatch(BatchScoreLane* lanes, size_t num_lanes,
                             size_t max_lanes = kDefaultScoreLanes) const;

  /// \brief Encode every concept into the row pool on every core
  /// (ParallelForOnCores): the only code that writes concept encodings.
  /// Returns the number of concepts encoded, 0 when the pool is already
  /// warm.
  ///
  /// Runs under a mutex, so concurrent callers and first scoring calls warm
  /// the pool once. It first packs the decoder's fixed weights (its LSTM
  /// gates, W_d and W_s) for the scorer and the encoder's gates for its own
  /// pass. One pass over the prefix trie's first-word subtrees encodes
  /// each distinct description prefix once; structural-context slots name
  /// their ancestors' final rows, so nothing is copied. The calling thread
  /// allocates the pool and the helpers only fill values. Counts `fills`
  /// (concepts) and `encoder_steps` (rows), not hits or misses.
  size_t PrecomputeConceptEncodings() const;

  /// Empty the row pool and release the packed decoder weights (the next
  /// scoring call warms both again).
  void InvalidateConceptEncodings() const;

  /// \brief Record that parameter values changed (optimizer step, embedding
  /// initialisation, checkpoint load): bumps the weights version and
  /// empties the concept-encoding pool and the packed weights. Must not run
  /// concurrently with scoring.
  void NotifyWeightsChanged();

  /// Monotone counter of weight mutations (cache-coherency diagnostics).
  uint64_t weights_version() const {
    return weights_version_.load(std::memory_order_acquire);
  }

  /// Number of concepts whose encodings the pool holds: all or none
  /// (tests/diagnostics).
  size_t num_cached_encodings() const {
    return pool_ready_.load(std::memory_order_acquire)
               ? concept_words_.size() - 1
               : 0;
  }

  /// \brief Log-probability over the next word (softmax of Eq. 9) after
  /// decoding `prefix` from `concept_id`. Index eos_id() closes the
  /// sequence. Powers beam-search generation. Thread-safe after training.
  std::vector<double> NextWordLogProbs(
      ontology::ConceptId concept_id,
      const std::vector<text::WordId>& prefix) const;

  /// \brief The concept representation h_n^c (the encoder's final hidden
  /// state on the canonical description). Used by the Fig. 10 analysis.
  nn::Matrix EncodeConcept(ontology::ConceptId concept_id) const;

  /// \brief The embedding vector of an in-vocabulary word (copy).
  nn::Matrix WordVector(text::WordId id) const;

  /// The concept's canonical description pre-mapped to model word ids.
  const std::vector<text::WordId>& ConceptWords(ontology::ConceptId id) const {
    NCL_DCHECK(id > 0 && static_cast<size_t>(id) < concept_words_.size());
    return concept_words_[static_cast<size_t>(id)];
  }

  const text::Vocabulary& vocabulary() const { return vocab_; }
  const ComAidConfig& config() const { return config_; }
  const ontology::Ontology& onto() const { return *onto_; }
  nn::ParameterStore* params() { return &params_; }
  const nn::ParameterStore& params() const { return params_; }

  text::WordId bos_id() const { return bos_id_; }
  text::WordId eos_id() const { return eos_id_; }
  text::WordId unk_id() const { return unk_id_; }

 private:
  /// Encoder pass over a description; appends per-word hidden states to
  /// `states` and returns the final hidden state h_n.
  nn::VarId EncodeDescription(nn::Tape& tape,
                              const std::vector<text::WordId>& words,
                              std::vector<nn::VarId>* states) const;

  /// What the duet decoder attends over, recorded on a tape: the encoder
  /// states of the concept's description (states.back() is h_n^c) and its
  /// Def. 4.1 context representations (empty without structural attention).
  struct TapeEncoding {
    std::vector<nn::VarId> states;
    std::vector<nn::VarId> context;
  };

  /// Encoder half of Forward and NextWordLogProbs (§4.1.1, Def. 4.1).
  TapeEncoding EncodeForDecoding(nn::Tape& tape,
                                 ontology::ConceptId concept_id) const;

  /// One duet-decoder step (§4.1.2): consume `prev_word`, advance `state`,
  /// and return the logits of Eq. 9.
  nn::VarId DecodeStep(nn::Tape& tape, const TapeEncoding& encoding,
                       text::WordId prev_word, nn::LstmState* state) const;

  /// Shared forward: loss node for decoding `target` from `concept_id`.
  nn::VarId Forward(nn::Tape& tape, ontology::ConceptId concept_id,
                    const std::vector<text::WordId>& target) const;

  // --- Tape-free scoring (comaid/inference.cc, batch_inference.cc) ---------

  /// Row pointer into the embedding table.
  const float* EmbeddingRow(text::WordId word) const {
    return embeddings_->value.row_data(static_cast<size_t>(word));
  }

  /// `id`'s encoding as pool row ids: the rows of its n description
  /// prefixes (the encoder states h_1..h_n the text attention reads), then,
  /// under structural attention, the final row of each of its β context
  /// slots.
  const uint32_t* RowIds(ontology::ConceptId id) const {
    return row_ids_.data() + first_row_[static_cast<size_t>(id)];
  }

  /// The row of the concept representation h_n^c: `id`'s last
  /// description row.
  uint32_t FinalRow(ontology::ConceptId id) const {
    return RowIds(id)[concept_words_[static_cast<size_t>(id)].size() - 1];
  }

  const float* FinalState(ontology::ConceptId id) const {
    return rows_.data() + size_t{FinalRow(id)} * config_.dim;
  }

  /// One lock-step tile of ScoreLogProbFastBatch (batch_inference.cc).
  void ScoreBatchTile(BatchScoreLane* lanes, size_t num_lanes) const;

  ComAidConfig config_;
  const ontology::Ontology* onto_;
  text::Vocabulary vocab_;
  text::WordId bos_id_ = 0;
  text::WordId eos_id_ = 1;
  text::WordId unk_id_ = 2;

  nn::ParameterStore params_;
  nn::Parameter* embeddings_ = nullptr;  // V x d
  std::unique_ptr<nn::LstmCell> encoder_;
  std::unique_ptr<nn::LstmCell> decoder_;
  nn::Parameter* w_d_ = nullptr;  // d x (d * pieces)
  nn::Parameter* b_d_ = nullptr;  // d x 1
  nn::Parameter* w_s_ = nullptr;  // V x d
  nn::Parameter* b_s_ = nullptr;  // V x 1

  /// Concept descriptions pre-mapped to model word ids.
  std::vector<std::vector<text::WordId>> concept_words_;

  /// One node of the description prefix trie: the prefix ending in `word`
  /// at `depth` words. Nodes are in preorder, so a node extends the last
  /// node before it at depth - 1, and each first word's subtree is a
  /// contiguous run that starts at a depth-1 node.
  struct PrefixNode {
    text::WordId word;
    uint32_t depth;
  };
  /// The trie over every concept description; node i owns pool row i.
  /// Fixed at construction.
  std::vector<PrefixNode> nodes_;
  /// Per concept id, its first entry in row_ids_ (see RowIds);
  /// first_row_.back() is row_ids_.size(). Fixed at construction.
  std::vector<size_t> first_row_;
  std::vector<uint32_t> row_ids_;
  /// The concept-encoding row pool: one d-wide encoder state per trie node.
  /// Written only by PrecomputeConceptEncodings under pool_mutex_, which
  /// then sets pool_ready_; scorers read it after an acquire load of the
  /// flag.
  mutable std::vector<float> rows_;
  /// The decoder's fixed weights packed for nn::GemmNTPacked: derived from
  /// the weights like the pool, and written, released and read under the
  /// same protocol.
  struct PackedDecoder {
    nn::LstmCell::PackedGates gates;
    nn::PackedNT w_d;
    nn::PackedNT w_s;
  };
  mutable PackedDecoder packed_;
  mutable std::mutex pool_mutex_;
  mutable std::atomic<bool> pool_ready_{false};
  std::atomic<uint64_t> weights_version_{0};
};

}  // namespace ncl::comaid
