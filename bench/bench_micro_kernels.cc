// Microbenchmarks (google-benchmark) of the kernels the paper's timing
// analysis attributes cost to: LSTM steps and attention (the ED phase),
// the TF-IDF index (CR), edit distance and embedding nearest-neighbour
// (OR), pkduck similarity, and the dense matrix product underneath it all.
//
// The custom main additionally times the inference-critical kernels with a
// plain stopwatch loop (each row the median of five timed windows) and
// writes matmul/matvec GFLOP/s (and LSTM steps/s) to BENCH_kernels.json so
// kernel throughput is tracked across PRs. The report names the kernel set
// that ran ("simd") and the build ("build": "default" or "native"); the
// decoder's GEMM shapes get a gemm_nt row and a gemm_nt_packed row each.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "baselines/pkduck_linker.h"
#include "build_name.h"
#include "nn/gemm.h"
#include "nn/lstm.h"
#include "nn/simd.h"
#include "nn/tape.h"
#include "pretrain/cbow.h"
#include "text/edit_distance.h"
#include "text/ngram_index.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace {

using namespace ncl;

void BM_MatMul(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(1);
  nn::Matrix a = nn::Matrix::RandomUniform(d, d, 1.0f, rng);
  nn::Matrix x = nn::Matrix::RandomUniform(d, 1, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(x));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(d * d));
}
BENCHMARK(BM_MatMul)->Arg(50)->Arg(100)->Arg(150)->Arg(200);

void BM_MatVecInto(benchmark::State& state) {
  // The dominant inference shape: square hidden-dim matvec, no allocation.
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(1);
  nn::Matrix a = nn::Matrix::RandomUniform(d, d, 1.0f, rng);
  std::vector<float> x(d, 0.5f), y(d);
  for (auto _ : state) {
    a.MatVecInto(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(d * d));
}
BENCHMARK(BM_MatVecInto)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatVecVocab(benchmark::State& state) {
  // The Eq. 9 softmax projection shape: (V x d) * d.
  const size_t vocab = static_cast<size_t>(state.range(0));
  const size_t d = 64;
  Rng rng(1);
  nn::Matrix w = nn::Matrix::RandomUniform(vocab, d, 0.1f, rng);
  std::vector<float> x(d, 0.5f), y(vocab);
  for (auto _ : state) {
    w.MatVecInto(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(vocab * d));
}
BENCHMARK(BM_MatVecVocab)->Arg(1000)->Arg(10000);

void BM_GemmNT(benchmark::State& state) {
  // The batched-ED workhorse shape: lanes x vocab logits from d-wide rows.
  const size_t m = 32;  // candidate lanes per tile
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  Rng rng(1);
  nn::Matrix a = nn::Matrix::RandomUniform(m, k, 1.0f, rng);
  nn::Matrix b = nn::Matrix::RandomUniform(n, k, 1.0f, rng);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    nn::GemmNT(m, n, k, a.data(), k, b.data(), k, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(m * n * k));
}
BENCHMARK(BM_GemmNT)->Args({128, 128})->Args({1000, 128})->Args({1000, 256});

void BM_LstmStepValue(benchmark::State& state) {
  // Tape-free one-lane LSTM step (the concept encoder's warm-up step) —
  // compare with BM_LstmStep.
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(2);
  nn::ParameterStore store;
  nn::LstmCell cell("bench", d, d, &store, rng);
  const nn::LstmCell::PackedGates gates = cell.Pack();
  std::vector<float> x(d, 0.3f), h(d, 0.0f), c(d, 0.0f), scratch(2 * d);
  for (auto _ : state) {
    cell.StepValueBatch(gates, 1, x.data(), h.data(), c.data(), h.data(),
                        c.data(), scratch.data());
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_LstmStepValue)->Arg(50)->Arg(150);

void BM_LstmStep(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(2);
  nn::ParameterStore store;
  nn::LstmCell cell("bench", d, d, &store, rng);
  nn::Matrix x = nn::Matrix::RandomUniform(d, 1, 1.0f, rng);
  for (auto _ : state) {
    nn::Tape tape;
    nn::LstmState s = cell.InitialState(tape);
    benchmark::DoNotOptimize(cell.Step(tape, tape.Constant(x), s).h);
  }
}
BENCHMARK(BM_LstmStep)->Arg(50)->Arg(150);

void BM_EncodeSequence(benchmark::State& state) {
  // One concept-description encode: |d^c| LSTM steps.
  const size_t d = 50;
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(3);
  nn::ParameterStore store;
  nn::LstmCell cell("bench", d, d, &store, rng);
  nn::Matrix x = nn::Matrix::RandomUniform(d, 1, 1.0f, rng);
  for (auto _ : state) {
    nn::Tape tape;
    nn::LstmState s = cell.InitialState(tape);
    for (size_t t = 0; t < len; ++t) s = cell.Step(tape, tape.Constant(x), s);
    benchmark::DoNotOptimize(tape.Value(s.h));
  }
}
BENCHMARK(BM_EncodeSequence)->Arg(3)->Arg(6)->Arg(12);

void BM_Attention(benchmark::State& state) {
  const size_t d = 50;
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  nn::Tape tape;
  std::vector<nn::VarId> values;
  for (size_t i = 0; i < n; ++i) {
    values.push_back(tape.Constant(nn::Matrix::RandomUniform(d, 1, 1.0f, rng)));
  }
  nn::VarId key = tape.Constant(nn::Matrix::RandomUniform(d, 1, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tape.Attention(values, key));
  }
}
BENCHMARK(BM_Attention)->Arg(4)->Arg(8)->Arg(16);

void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  const size_t vocab = static_cast<size_t>(state.range(0));
  Rng rng(5);
  nn::Tape tape;
  nn::VarId logits = tape.Constant(nn::Matrix::RandomUniform(vocab, 1, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tape.SoftmaxCrossEntropy(logits, 7));
  }
}
BENCHMARK(BM_SoftmaxCrossEntropy)->Arg(1000)->Arg(10000);

void BM_TfIdfTopK(benchmark::State& state) {
  const size_t docs = static_cast<size_t>(state.range(0));
  Rng rng(6);
  // CandidateGenerator's exhaustive Phase I: the token analyzer, unpruned.
  text::NgramIndex index(text::ExhaustiveTokenConfig());
  std::vector<std::string> words;
  for (int i = 0; i < 500; ++i) {
    words.push_back(std::string("w").append(std::to_string(i)));
  }
  for (size_t d = 0; d < docs; ++d) {
    std::vector<std::string> doc;
    for (int i = 0; i < 6; ++i) doc.push_back(rng.Choice(words));
    index.AddDocument(doc);
  }
  index.Finalize();
  std::vector<std::string> query{words[3], words[77], words[250]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TopK(query, 20));
  }
}
BENCHMARK(BM_TfIdfTopK)->Arg(1000)->Arg(10000)->Arg(70000);

void BM_Levenshtein(benchmark::State& state) {
  std::string a = "chronic kidney disease";
  std::string b = "chronc kidny diseases";
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::Levenshtein(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_BoundedLevenshtein(benchmark::State& state) {
  std::string a = "neuropaty";
  std::string b = "nephropathy";
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::BoundedLevenshtein(a, b, 2));
  }
}
BENCHMARK(BM_BoundedLevenshtein);

void BM_PkduckSimilarity(benchmark::State& state) {
  auto rules = baselines::RulesFromVocabulary(datagen::DefaultMedicalVocabulary());
  std::vector<std::string> query{"ckd", "5"};
  std::vector<std::string> description{"chronic", "kidney", "disease", "stage",
                                       "5"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baselines::PkduckSimilarity(query, description, rules));
  }
}
BENCHMARK(BM_PkduckSimilarity);

void BM_CbowEpoch(benchmark::State& state) {
  // One CBOW training run over a small corpus (epoch cost indicator).
  std::vector<std::vector<std::string>> corpus;
  Rng rng(7);
  std::vector<std::string> words;
  for (int i = 0; i < 300; ++i) {
    words.push_back(std::string("w").append(std::to_string(i)));
  }
  for (int s = 0; s < 200; ++s) {
    std::vector<std::string> sentence;
    for (int i = 0; i < 8; ++i) sentence.push_back(rng.Choice(words));
    corpus.push_back(sentence);
  }
  pretrain::CbowConfig config;
  config.dim = 50;
  config.epochs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pretrain::TrainCbow(corpus, config));
  }
}
BENCHMARK(BM_CbowEpoch)->Unit(benchmark::kMillisecond);

/// Timed windows per report row; the row is their median.
constexpr size_t kTimedWindows = 5;

/// Seconds per call of `fn`: the median over kTimedWindows windows of ~50ms
/// each, so one window disturbed by another process cannot move a row.
template <typename Fn>
double TimePerCall(Fn&& fn) {
  // Warm up and pick an iteration count targeting ~50ms of work per window.
  fn();
  Stopwatch probe;
  fn();
  double once = probe.ElapsedSeconds();
  size_t iters = once > 0 ? static_cast<size_t>(0.05 / once) + 1 : 1000;
  std::array<double, kTimedWindows> per_call;
  for (double& sec : per_call) {
    Stopwatch watch;
    for (size_t i = 0; i < iters; ++i) fn();
    sec = watch.ElapsedSeconds() / static_cast<double>(iters);
  }
  auto median = per_call.begin() + kTimedWindows / 2;
  std::nth_element(per_call.begin(), median, per_call.end());
  return *median;
}

/// Naive i-k-j triple loop, the pre-blocking baseline GemmNN replaced.
void NaiveGemmNN(size_t m, size_t n, size_t k, const float* a, const float* b,
                 float* c) {
  for (size_t i = 0; i < m; ++i) {
    float* row = c + i * n;
    for (size_t j = 0; j < n; ++j) row[j] = 0.0f;
    for (size_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      const float* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) row[j] += av * brow[j];
    }
  }
}

/// Naive row-times-row loop, the per-candidate mat-vec pattern GemmNT
/// batches over.
void NaiveGemmNT(size_t m, size_t n, size_t k, const float* a, const float* b,
                 float* c) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      const float* arow = a + i * k;
      const float* brow = b + j * k;
      for (size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      c[i * n + j] = acc;
    }
  }
}

/// One blocked-vs-naive GEMM comparison row.
void EmitGemmEntry(JsonWriter& json, const char* kernel, size_t m, size_t n,
                   size_t k, double blocked_sec, double naive_sec) {
  const double flops = 2.0 * static_cast<double>(m * n * k);
  json.BeginObject();
  json.Key("kernel").Value(kernel);
  json.Key("shape").Value(std::to_string(m) + "x" + std::to_string(n) + "x" +
                          std::to_string(k));
  json.Key("gflops").Value(flops / blocked_sec / 1e9);
  json.Key("naive_gflops").Value(flops / naive_sec / 1e9);
  json.Key("speedup_vs_naive").Value(naive_sec / blocked_sec);
  json.EndObject();
}

/// Hand-timed GFLOP/s of the inference-critical kernels, appended to `json`
/// as one array entry per kernel/shape.
void WriteKernelReport() {
  Rng rng(42);
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("micro_kernels");
  json.Key("simd").Value(nn::SimdPathName());
  json.Key("build").Value(bench::kBuildName);
  json.Key("timed_windows").Value(static_cast<uint64_t>(kTimedWindows));
  json.Key("kernels").BeginArray();

  // Square matmul (training shapes).
  for (size_t d : {32u, 64u, 128u, 256u}) {
    nn::Matrix a = nn::Matrix::RandomUniform(d, d, 1.0f, rng);
    nn::Matrix b = nn::Matrix::RandomUniform(d, d, 1.0f, rng);
    double sec = TimePerCall([&] {
      nn::Matrix c = a.MatMul(b);
      benchmark::DoNotOptimize(c.data());
    });
    json.BeginObject();
    json.Key("kernel").Value("matmul");
    json.Key("shape").Value(std::to_string(d) + "x" + std::to_string(d) + "*" +
                            std::to_string(d) + "x" + std::to_string(d));
    json.Key("gflops").Value(2.0 * d * d * d / sec / 1e9);
    json.EndObject();
  }

  // Square matvec (the LSTM gate shape at hidden dims 32-256).
  for (size_t d : {32u, 64u, 128u, 256u}) {
    nn::Matrix a = nn::Matrix::RandomUniform(d, d, 1.0f, rng);
    std::vector<float> x(d, 0.5f), y(d);
    double sec = TimePerCall([&] {
      a.MatVecInto(x.data(), y.data());
      benchmark::DoNotOptimize(y.data());
    });
    json.BeginObject();
    json.Key("kernel").Value("matvec");
    json.Key("shape").Value(std::to_string(d) + "x" + std::to_string(d) + "*" +
                            std::to_string(d));
    json.Key("gflops").Value(2.0 * d * d / sec / 1e9);
    json.EndObject();
  }

  // Vocabulary projection matvec (Eq. 9, the ED-phase dominant cost).
  for (size_t vocab : {1000u, 10000u}) {
    const size_t d = 64;
    nn::Matrix w = nn::Matrix::RandomUniform(vocab, d, 0.1f, rng);
    std::vector<float> x(d, 0.5f), y(vocab);
    double sec = TimePerCall([&] {
      w.MatVecInto(x.data(), y.data());
      benchmark::DoNotOptimize(y.data());
    });
    json.BeginObject();
    json.Key("kernel").Value("matvec_vocab");
    json.Key("shape").Value(std::to_string(vocab) + "x64*64");
    json.Key("gflops").Value(2.0 * vocab * d / sec / 1e9);
    json.EndObject();
  }

  // Blocked GEMM vs the naive loops it replaced: square training shapes plus
  // the skinny panels batched ED scoring runs (m = lanes, n = vocab or d,
  // k = d), i.e. MxNxK with C(m,n) = A(m,k)*B.
  {
    struct GemmShape {
      size_t m, n, k;
    };
    const GemmShape squares[] = {{32, 32, 32}, {64, 64, 64}, {128, 128, 128},
                                 {256, 256, 256}};
    const GemmShape skinny[] = {
        {32, 128, 128}, {32, 1000, 128}, {32, 1000, 256}, {32, 128, 384}};
    auto time_shapes = [&](const char* kernel, const GemmShape* shapes,
                           size_t count, bool transposed_b) {
      for (size_t s = 0; s < count; ++s) {
        const auto [m, n, k] = shapes[s];
        nn::Matrix a = nn::Matrix::RandomUniform(m, k, 1.0f, rng);
        nn::Matrix b = transposed_b ? nn::Matrix::RandomUniform(n, k, 1.0f, rng)
                                    : nn::Matrix::RandomUniform(k, n, 1.0f, rng);
        std::vector<float> c(m * n);
        double blocked_sec = TimePerCall([&] {
          if (transposed_b) {
            nn::GemmNT(m, n, k, a.data(), k, b.data(), k, c.data(), n);
          } else {
            nn::GemmNN(m, n, k, a.data(), k, b.data(), n, c.data(), n);
          }
          benchmark::DoNotOptimize(c.data());
        });
        double naive_sec = TimePerCall([&] {
          if (transposed_b) {
            NaiveGemmNT(m, n, k, a.data(), b.data(), c.data());
          } else {
            NaiveGemmNN(m, n, k, a.data(), b.data(), c.data());
          }
          benchmark::DoNotOptimize(c.data());
        });
        EmitGemmEntry(json, kernel, m, n, k, blocked_sec, naive_sec);
      }
    };
    time_shapes("gemm_nn", squares, std::size(squares), /*transposed_b=*/false);
    time_shapes("gemm_nt", squares, std::size(squares), /*transposed_b=*/true);
    time_shapes("gemm_nt", skinny, std::size(skinny), /*transposed_b=*/true);

    // The batched decoder's products, row-major (GemmNT) against packed
    // (GemmNTPacked) weights: a 20-lane tile's logits at V = 1,828 and
    // V = 133, its LSTM gate and W_d products at d = 32, one lane's gate,
    // and a 10-lane gate at d = 128.
    const GemmShape decoder[] = {{20, 1828, 32}, {20, 133, 32}, {20, 32, 32},
                                 {20, 32, 96},   {1, 32, 32},   {10, 128, 128}};
    for (const auto& [m, n, k] : decoder) {
      nn::Matrix a = nn::Matrix::RandomUniform(m, k, 1.0f, rng);
      nn::Matrix b = nn::Matrix::RandomUniform(n, k, 1.0f, rng);
      const nn::PackedNT packed = nn::PackNT(b.data(), n, k, k);
      std::vector<float> c(m * n);
      double nt_sec = TimePerCall([&] {
        nn::GemmNT(m, n, k, a.data(), k, b.data(), k, c.data(), n);
        benchmark::DoNotOptimize(c.data());
      });
      double packed_sec = TimePerCall([&] {
        nn::GemmNTPacked(m, a.data(), k, packed, c.data(), n);
        benchmark::DoNotOptimize(c.data());
      });
      double naive_sec = TimePerCall([&] {
        NaiveGemmNT(m, n, k, a.data(), b.data(), c.data());
        benchmark::DoNotOptimize(c.data());
      });
      EmitGemmEntry(json, "gemm_nt", m, n, k, nt_sec, naive_sec);
      EmitGemmEntry(json, "gemm_nt_packed", m, n, k, packed_sec, naive_sec);
    }
  }

  // Tape-free one-lane LSTM step throughput.
  for (size_t d : {32u, 64u, 128u}) {
    nn::ParameterStore store;
    nn::LstmCell cell("report", d, d, &store, rng);
    const nn::LstmCell::PackedGates gates = cell.Pack();
    std::vector<float> x(d, 0.3f), h(d, 0.0f), c(d, 0.0f), scratch(2 * d);
    double sec = TimePerCall([&] {
      cell.StepValueBatch(gates, 1, x.data(), h.data(), c.data(), h.data(),
                          c.data(), scratch.data());
      benchmark::DoNotOptimize(h.data());
    });
    json.BeginObject();
    json.Key("kernel").Value("lstm_step_value");
    json.Key("shape").Value("d=" + std::to_string(d));
    json.Key("steps_per_second").Value(1.0 / sec);
    // 8 matvecs dominate: 4 gates x (W x + U h).
    json.Key("gflops").Value(16.0 * d * d / sec / 1e9);
    json.EndObject();
  }

  json.EndArray().EndObject();
  Status status = json.WriteFile("BENCH_kernels.json");
  if (!status.ok()) {
    std::cerr << "failed to write BENCH_kernels.json: " << status.ToString()
              << "\n";
  } else {
    std::cout << "wrote BENCH_kernels.json\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteKernelReport();
  return 0;
}
