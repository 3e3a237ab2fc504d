#include "nn/lstm.h"

#include <cmath>

#include "nn/gemm.h"
#include "nn/vecmath.h"

namespace ncl::nn {

LstmCell::LstmCell(std::string name, size_t input_dim, size_t hidden_dim,
                   ParameterStore* store, Rng& rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  auto make = [&](const char* suffix, size_t rows, size_t cols, Init init) {
    return store->Create(name + "." + suffix, rows, cols, init, rng);
  };
  w_i_ = make("W_i", hidden_dim, input_dim, Init::kXavier);
  u_i_ = make("U_i", hidden_dim, hidden_dim, Init::kXavier);
  b_i_ = make("b_i", hidden_dim, 1, Init::kZero);
  w_f_ = make("W_f", hidden_dim, input_dim, Init::kXavier);
  u_f_ = make("U_f", hidden_dim, hidden_dim, Init::kXavier);
  b_f_ = make("b_f", hidden_dim, 1, Init::kZero);
  w_o_ = make("W_o", hidden_dim, input_dim, Init::kXavier);
  u_o_ = make("U_o", hidden_dim, hidden_dim, Init::kXavier);
  b_o_ = make("b_o", hidden_dim, 1, Init::kZero);
  w_c_ = make("W_c", hidden_dim, input_dim, Init::kXavier);
  u_c_ = make("U_c", hidden_dim, hidden_dim, Init::kXavier);
  b_c_ = make("b_c", hidden_dim, 1, Init::kZero);
  // Forget-gate bias of 1.0: the standard trick to ease gradient flow early
  // in training.
  b_f_->value.Fill(1.0f);
}

LstmState LstmCell::InitialState(Tape& tape) const {
  LstmState state;
  state.h = tape.Constant(Matrix(hidden_dim_, 1));
  state.c = tape.Constant(Matrix(hidden_dim_, 1));
  return state;
}

LstmState LstmCell::InitialStateFromHidden(Tape& tape, VarId h0) const {
  LstmState state;
  state.h = h0;
  state.c = tape.Constant(Matrix(hidden_dim_, 1));
  return state;
}

LstmState LstmCell::Step(Tape& tape, VarId x, const LstmState& prev) const {
  auto gate = [&](Parameter* w, Parameter* u, Parameter* b) {
    VarId wx = tape.MatMul(tape.Param(w), x);
    VarId uh = tape.MatMul(tape.Param(u), prev.h);
    return tape.Add(tape.Add(wx, uh), tape.Param(b));
  };
  VarId i = tape.Sigmoid(gate(w_i_, u_i_, b_i_));
  VarId f = tape.Sigmoid(gate(w_f_, u_f_, b_f_));
  VarId o = tape.Sigmoid(gate(w_o_, u_o_, b_o_));
  VarId c_tilde = tape.Tanh(gate(w_c_, u_c_, b_c_));

  LstmState next;
  next.c = tape.Add(tape.Mul(f, prev.c), tape.Mul(i, c_tilde));
  next.h = tape.Mul(o, tape.Tanh(next.c));
  return next;
}

LstmCell::PackedGates LstmCell::Pack() const {
  auto pack = [](const Parameter* p) {
    return PackNT(p->value.data(), p->value.rows(), p->value.cols(),
                  p->value.cols());
  };
  return {pack(w_i_), pack(u_i_), pack(w_f_), pack(u_f_),
          pack(w_o_), pack(u_o_), pack(w_c_), pack(u_c_)};
}

void LstmCell::StepValueBatch(const PackedGates& gates, size_t rows,
                              const float* x, const float* h_prev,
                              const float* c_prev, float* h_out, float* c_out,
                              float* scratch) const {
  const size_t d = hidden_dim_;
  const size_t total = rows * d;
  float* buf0 = scratch;          // gate activations, rows x d
  float* buf1 = scratch + total;  // second gate when two are live at once
  auto gate = [&](const PackedNT& w, const PackedNT& u, const Parameter* b,
                  float* out) {
    // out = X W^T; out += H U^T; out += bias (broadcast per row): per
    // element, the full W x dot, then the full U h dot added, then the
    // bias — the tape's order.
    GemmNTPacked(rows, x, input_dim_, w, out, d);
    GemmNTPackedAccum(rows, h_prev, d, u, out, d);
    const float* bias = b->value.data();
    for (size_t r = 0; r < rows; ++r) {
      float* row = out + r * d;
      for (size_t j = 0; j < d; ++j) row[j] += bias[j];
    }
  };
  // f first, then c_out = f (.) c_prev (element j only reads c_prev[j], so
  // c_out may alias c_prev); o last (it still reads h_prev, which h_out may
  // alias). The activations are position-independent (vecmath.h), so
  // applying them over the packed rows x d buffer gives each lane the
  // values it would get alone.
  gate(gates.w_f, gates.u_f, b_f_, buf0);
  SigmoidInplace(buf0, total);
  for (size_t j = 0; j < total; ++j) c_out[j] = buf0[j] * c_prev[j];

  gate(gates.w_i, gates.u_i, b_i_, buf0);
  SigmoidInplace(buf0, total);
  gate(gates.w_c, gates.u_c, b_c_, buf1);
  TanhInplace(buf1, total);
  for (size_t j = 0; j < total; ++j) c_out[j] += buf0[j] * buf1[j];

  gate(gates.w_o, gates.u_o, b_o_, buf0);
  SigmoidInplace(buf0, total);
  MulTanhInto(buf0, c_out, h_out, total);
}

}  // namespace ncl::nn
