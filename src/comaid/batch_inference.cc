// Tape-free Phase-II scoring (see model.h::ScoreLogProbFastBatch).
//
// Mirrors the decoder half of ComAidModel::Forward on raw values: no tape
// nodes, no backward closures, no per-step heap allocations after warm-up.
// Up to max_lanes candidates run in lock-step: per decode step, the per-lane
// states stack into (active x d) activation matrices and every weight is
// applied once via the packed panel kernels (nn/gemm.h) on the weights the
// warm-up packed, so the V x d softmax weight streams once per step for the
// whole tile instead of once per candidate.
//
// Ragged candidate lengths: lanes are sorted by target length (descending,
// stable), so "lane finished" masking is just the active row prefix
// shrinking — no wasted flops on padded rows, no masking arithmetic in the
// kernels. Per-lane work that cannot batch (attention over the lane's own
// encoder states, cross-entropy on its own logits row) runs per row, and the
// GEMM per-element reduction order is the canonical one MatVecInto also
// uses, so a lane's score is bit-stable under any batch composition (pinned
// by tests/comaid/batch_inference_test.cc). Parity with the tape is pinned
// to 1e-5; keep the float/double accumulation choices below in sync with
// tape.cc when touching either.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "comaid/model.h"
#include "nn/gemm.h"
#include "nn/vecmath.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ncl::comaid {

namespace {

/// Fused dot-product attention on values (Eqs. 5-7): out = sum_r alpha_r v_r
/// with alpha = softmax(values * key), over the `n` d-wide rows of `pool`
/// named by `ids`. `scores` must hold n floats; `out` holds d floats and is
/// overwritten.
void AttentionInto(const float* pool, const uint32_t* ids, size_t n, size_t d,
                   const float* key, float* scores, float* out) {
  // e_r = v_r . s. DotCanonical equals a GemmNT (mat-vec) row bit for bit
  // (nn/gemm.h), so the rows need not be contiguous.
  for (size_t r = 0; r < n; ++r) {
    scores[r] = nn::DotCanonical(pool + size_t{ids[r]} * d, key, d);
  }

  float max_score = -std::numeric_limits<float>::infinity();
  for (size_t r = 0; r < n; ++r) max_score = std::max(max_score, scores[r]);
  nn::ExpShiftedInplace(scores, n, max_score);
  float denom = 0.0f;
  for (size_t r = 0; r < n; ++r) denom += scores[r];
  const float inv_denom = 1.0f / denom;

  std::fill(out, out + d, 0.0f);
  for (size_t r = 0; r < n; ++r) {
    const float alpha = scores[r] * inv_denom;
    const float* row = pool + size_t{ids[r]} * d;
    for (size_t j = 0; j < d; ++j) out[j] += alpha * row[j];
  }
}

/// -log softmax(logits)[gold] with the same accumulation scheme as
/// Tape::SoftmaxCrossEntropy (float max, double denominator), given the
/// row's max (nn::AddBiasMax). Kept out of line: inlined into the tile's
/// logits loop (GCC 12, portable -O2 build), perfbench icd10_93k (d = 32)
/// served ~7% fewer queries per second on a 4-vCPU x86-64 host.
[[gnu::noinline]] double CrossEntropyValue(const float* logits, size_t vocab,
                                           float max_logit, int32_t gold) {
  double denom = nn::SumExpShifted(logits, vocab, max_logit);
  double log_denom = std::log(denom) + static_cast<double>(max_logit);
  return log_denom - static_cast<double>(logits[static_cast<size_t>(gold)]);
}

/// Reusable scratch for one scoring thread. Buffers are sized for `lanes`
/// lock-step rows; Prepare grows them but never shrinks, so a thread
/// allocates only on the largest shape it has seen.
class BatchInferenceContext {
 public:
  void Prepare(size_t lanes, size_t dim, size_t vocab, size_t comp_width,
               size_t attn_rows) {
    Grow(h_, lanes * dim);
    Grow(c_, lanes * dim);
    Grow(x_, lanes * dim);
    Grow(lstm_scratch_, 2 * lanes * dim);
    Grow(composite_, lanes * comp_width);
    Grow(s_tilde_, lanes * dim);
    Grow(logits_, lanes * vocab);
    Grow(attn_scores_, attn_rows);
  }

  float* h() { return h_.data(); }
  float* c() { return c_.data(); }
  float* x() { return x_.data(); }
  float* lstm_scratch() { return lstm_scratch_.data(); }
  float* composite() { return composite_.data(); }
  float* s_tilde() { return s_tilde_.data(); }
  float* logits() { return logits_.data(); }
  float* attn_scores() { return attn_scores_.data(); }

 private:
  static void Grow(std::vector<float>& buf, size_t n) {
    if (buf.size() < n) buf.resize(n);
  }

  std::vector<float> h_;
  std::vector<float> c_;
  std::vector<float> x_;
  std::vector<float> lstm_scratch_;
  std::vector<float> composite_;
  std::vector<float> s_tilde_;
  std::vector<float> logits_;
  std::vector<float> attn_scores_;
};

struct BatchScoreMetrics {
  obs::Counter* calls;
  obs::Histogram* lanes;
};

const BatchScoreMetrics& GetBatchScoreMetrics() {
  static const BatchScoreMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return BatchScoreMetrics{registry.GetCounter("ncl.ed_batch.calls"),
                             registry.GetHistogram("ncl.ed_batch.lanes")};
  }();
  return metrics;
}

}  // namespace

void ComAidModel::ScoreBatchTile(BatchScoreLane* lanes,
                                 size_t num_lanes) const {
  const size_t d = config_.dim;
  const size_t vocab = vocab_.size();
  const size_t comp_width = w_d_->value.cols();
  const bool use_text = config_.text_attention;
  const bool use_structure = config_.structural_attention;

  const size_t beta = use_structure ? static_cast<size_t>(config_.beta) : 0;
  size_t attn_rows = std::max<size_t>(beta, 1);
  for (size_t i = 0; i < num_lanes; ++i) {
    NCL_CHECK(lanes[i].target != nullptr) << "batch lane without a target";
    NCL_CHECK(lanes[i].concept_id > 0 &&
              static_cast<size_t>(lanes[i].concept_id) < concept_words_.size())
        << "invalid concept id " << lanes[i].concept_id;
    attn_rows = std::max(
        attn_rows,
        concept_words_[static_cast<size_t>(lanes[i].concept_id)].size());
  }

  // Longest-first lane order: ragged lengths become a shrinking active row
  // prefix. Stable on the original index so the order (and therefore the
  // whole computation) is deterministic.
  std::vector<size_t> order(num_lanes);
  for (size_t i = 0; i < num_lanes; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const size_t sa = lanes[a].target->size();
    const size_t sb = lanes[b].target->size();
    if (sa != sb) return sa > sb;
    return a < b;
  });

  thread_local BatchInferenceContext ctx;
  ctx.Prepare(num_lanes, d, vocab, comp_width, attn_rows);

  const size_t m = num_lanes;
  float* h = ctx.h();                  // m x d decoder hidden states
  float* cell = ctx.c();               // m x d decoder cell states
  float* x = ctx.x();                  // m x d previous-word embeddings
  float* composite = ctx.composite();  // m x comp_width
  float* s_tilde = ctx.s_tilde();      // m x d
  float* logits = ctx.logits();        // m x vocab

  std::vector<float> loss(m, 0.0f);
  std::vector<text::WordId> prev_word(m, bos_id_);
  // Decoder initial state per lane: s_0 = h_n^c, cell = 0 (§4.1.2).
  for (size_t r = 0; r < m; ++r) {
    const float* h0 = FinalState(lanes[order[r]].concept_id);
    std::copy(h0, h0 + d, h + r * d);
    std::fill(cell + r * d, cell + (r + 1) * d, 0.0f);
  }

  const float* b_d = b_d_->value.data();
  const float* b_s = b_s_->value.data();
  const size_t max_steps = lanes[order[0]].target->size() + 1;
  size_t active = m;
  for (size_t t = 0; t < max_steps; ++t) {
    // Lanes decode target.size() + 1 factors (words then <eos>); sorted
    // longest-first, finished lanes always form a suffix.
    while (active > 0 && lanes[order[active - 1]].target->size() + 1 <= t) {
      --active;
    }
    if (active == 0) break;

    // Gather previous-word embeddings, then one lock-step LSTM move.
    for (size_t r = 0; r < active; ++r) {
      const float* row = EmbeddingRow(prev_word[r]);
      std::copy(row, row + d, x + r * d);
    }
    decoder_->StepValueBatch(packed_.gates, active, x, h, cell, h, cell,
                             ctx.lstm_scratch());

    // Composite rows: [s_t ; tc_t ; sc_t] (Eq. 8). Attention stays per lane
    // — each lane attends over its own concept's encoder states.
    for (size_t r = 0; r < active; ++r) {
      // The lane's pool rows: n description states, then β context rows.
      const ontology::ConceptId id = lanes[order[r]].concept_id;
      const uint32_t* ids = RowIds(id);
      const size_t n = concept_words_[static_cast<size_t>(id)].size();
      const float* h_row = h + r * d;
      float* comp_row = composite + r * comp_width;
      std::copy(h_row, h_row + d, comp_row);
      size_t offset = d;
      if (use_text) {
        AttentionInto(rows_.data(), ids, n, d, h_row, ctx.attn_scores(),
                      comp_row + offset);
        offset += d;
      }
      if (use_structure) {
        AttentionInto(rows_.data(), ids + n, beta, d, h_row,
                      ctx.attn_scores(), comp_row + offset);
      }
    }

    // s~ = tanh(W_d [s; tc; sc] + b_d): one product instead of `active`
    // mat-vecs against W_d.
    nn::GemmNTPacked(active, composite, comp_width, packed_.w_d, s_tilde, d);
    for (size_t r = 0; r < active; ++r) {
      float* row = s_tilde + r * d;
      for (size_t j = 0; j < d; ++j) row[j] += b_d[j];
    }
    nn::TanhInplace(s_tilde, active * d);

    // logits = W_s s~ + b_s (Eq. 9) — the dominant GEMM: the V x d softmax
    // weight streams once per step for the whole batch.
    nn::GemmNTPacked(active, s_tilde, d, packed_.w_s, logits, vocab);
    for (size_t r = 0; r < active; ++r) {
      float* row = logits + r * vocab;
      const float max_logit = nn::AddBiasMax(row, b_s, vocab);
      const auto& target = *lanes[order[r]].target;
      const text::WordId gold = t < target.size() ? target[t] : eos_id_;
      loss[r] += static_cast<float>(CrossEntropyValue(
          row, vocab, max_logit, static_cast<int32_t>(gold)));
      prev_word[r] = gold;
    }
  }

  for (size_t r = 0; r < m; ++r) {
    lanes[order[r]].log_prob = -static_cast<double>(loss[r]);
  }
}

void ComAidModel::ScoreLogProbFastBatch(BatchScoreLane* lanes, size_t num_lanes,
                                        size_t max_lanes) const {
  if (num_lanes == 0) return;
  NCL_CHECK(max_lanes > 0) << "max_lanes must be positive";
  NCL_TRACE_SPAN("ncl.ed_batch.score");
  const BatchScoreMetrics& metrics = GetBatchScoreMetrics();
  metrics.calls->Increment();
  metrics.lanes->Record(num_lanes);
  const auto& cache_metrics = internal::GetConceptCacheMetrics();
  if (!pool_ready_.load(std::memory_order_acquire) &&
      PrecomputeConceptEncodings() > 0) {
    cache_metrics.misses->Increment();
  } else {
    cache_metrics.hits->Increment(num_lanes);
  }
  for (size_t start = 0; start < num_lanes; start += max_lanes) {
    ScoreBatchTile(lanes + start, std::min(max_lanes, num_lanes - start));
  }
}

}  // namespace ncl::comaid
