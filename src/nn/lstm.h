// LSTM cell (§4.1.1).
//
// Implements the gate equations of the paper's concept encoder:
//   i_t = sigmoid(W^(i) x_t + U^(i) h_{t-1} + b^(i))
//   f_t = sigmoid(W^(f) x_t + U^(f) h_{t-1} + b^(f))
//   o_t = sigmoid(W^(o) x_t + U^(o) h_{t-1} + b^(o))
//   c~_t = tanh  (W^(c) x_t + U^(c) h_{t-1} + b^(c))
//   c_t = f_t ⊙ c_{t-1} + i_t ⊙ c~_t
//   h_t = o_t ⊙ tanh(c_t)
// The same cell class is instantiated once for the encoder and once for the
// decoder; COM-AID's structural encoder reuses the concept-encoder weights.
// Step records the gates on an autodiff tape (training and the reference
// scorer); StepValueBatch is the one value-only step, used with one lane by
// the concept-encoding warm-up and with a tile of lanes by the Phase-II
// decoder. It runs on the gate weights Pack() lays out for GemmNTPacked,
// which both callers pack once per warm-up.

#pragma once

#include <string>

#include "nn/gemm.h"
#include "nn/parameter.h"
#include "nn/tape.h"
#include "util/random.h"

namespace ncl::nn {

/// \brief Hidden/cell state pair produced by one LSTM step.
struct LstmState {
  VarId h = kInvalidVar;
  VarId c = kInvalidVar;
};

/// \brief Parameters and step function of one LSTM layer.
class LstmCell {
 public:
  /// Create all gate parameters in `store`, prefixed by `name` (e.g.
  /// "encoder"). `input_dim` is the word-embedding width, `hidden_dim` the
  /// state width d.
  LstmCell(std::string name, size_t input_dim, size_t hidden_dim,
           ParameterStore* store, Rng& rng);

  /// Zero initial state as tape constants.
  LstmState InitialState(Tape& tape) const;

  /// Initial state whose hidden vector is `h0` and cell is zero — used by
  /// the decoder, whose s_0 is the concept representation h_n^c (§4.1.2).
  LstmState InitialStateFromHidden(Tape& tape, VarId h0) const;

  /// One step: consume input embedding x (input_dim x 1) and the previous
  /// state; return the new state.
  LstmState Step(Tape& tape, VarId x, const LstmState& prev) const;

  /// The eight gate weights, packed by PackNT. Derived from the weights:
  /// pack again after they change.
  struct PackedGates {
    PackedNT w_i, u_i, w_f, u_f, w_o, u_o, w_c, u_c;
  };
  PackedGates Pack() const;

  /// \brief Value-only step over `rows` independent lanes, for tape-free
  /// inference (the concept encoder steps one lane, the Phase-II decoder a
  /// tile of them), on this cell's gate weights packed by Pack().
  ///
  /// Row-major buffers: x is rows x input_dim, the states are rows x
  /// hidden_dim, `scratch` holds at least 2 * rows * hidden_dim floats.
  /// Allocates nothing and records no autodiff graph. The gate mat-vecs
  /// become two GemmNTPacked calls per gate (X W^T + H U^T), whose elements
  /// are canonical dots (DotCanonical), so a lane's result does not depend
  /// on how many other lanes ride in the batch. h_out/c_out may alias
  /// h_prev/c_prev; x must not alias any output.
  void StepValueBatch(const PackedGates& gates, size_t rows, const float* x,
                      const float* h_prev, const float* c_prev, float* h_out,
                      float* c_out, float* scratch) const;

  size_t input_dim() const { return input_dim_; }
  size_t hidden_dim() const { return hidden_dim_; }

 private:
  size_t input_dim_;
  size_t hidden_dim_;
  // Gate weights: W* act on the input, U* on the previous hidden state.
  Parameter* w_i_;
  Parameter* u_i_;
  Parameter* b_i_;
  Parameter* w_f_;
  Parameter* u_f_;
  Parameter* b_f_;
  Parameter* w_o_;
  Parameter* u_o_;
  Parameter* b_o_;
  Parameter* w_c_;
  Parameter* u_c_;
  Parameter* b_c_;
};

}  // namespace ncl::nn
