// Pipeline-ablation study (this reproduction's own design choices).
//
// DESIGN.md §4a documents four engineering decisions the paper leaves
// open; this bench measures what each contributes by toggling them one at
// a time on the Fig. 7 configuration:
//   * residual-augmented training (train on alias \ description targets)
//   * shared-word removal at Phase II (§5)
//   * query rewriting at Phase I (§5)
//   * pre-trained embedding initialisation (§4.2)
//
// Measured shape (quick mode): query rewriting and residual training are
// the two big levers (~0.15-0.22 accuracy each); shared-word removal helps
// on MIMIC-III and is roughly neutral on hospital-x; the embedding
// initialisation alone is worth a few points at most once the rewriter
// (which also comes from pre-training) is in place — consistent with
// Fig. 8, where removing *all* of pre-training costs 0.1-0.2.

#include <iostream>

#include "bench_common.h"
#include "util/env.h"
#include "util/table_writer.h"

using namespace ncl;
using namespace ncl::bench;

int main() {
  const bool full = BenchFullMode();
  const double scale = full ? 1.0 : 0.6;
  const size_t epochs = full ? 14 : 10;

  TableWriter table("Pipeline ablations (accuracy / MRR)",
                    {"configuration", "hospital-x acc", "hospital-x MRR",
                     "MIMIC-III acc", "MIMIC-III MRR"});

  struct Row {
    const char* label;
    bool residuals;
    bool remove_shared;
    bool rewrite;
    bool pretrain_init;
  };
  const Row rows[] = {
      {"full pipeline", true, true, true, true},
      {"- residual training", false, true, true, true},
      {"- shared-word removal", true, false, true, true},
      {"- query rewriting", true, true, false, true},
      {"- embedding init", true, true, true, false},
  };

  for (const Row& row : rows) {
    std::vector<double> cells;
    for (Corpus corpus : {Corpus::kHospitalX, Corpus::kMimicIII}) {
      PipelineConfig config;
      config.corpus = corpus;
      config.scale = scale;
      config.train_epochs = epochs;
      config.train_on_residuals = row.residuals;
      auto pipeline = BuildPipeline(config);
      if (!row.pretrain_init) {
        // Re-randomise the embedding table: keeps the rewriter (pretraining
        // still ran) but drops the §4.2 initialisation hand-off, then
        // retrains from that init.
        Rng rng(4242);
        nn::Parameter* emb = pipeline->model->params()->Find("embeddings");
        emb->value = nn::Matrix::RandomUniform(emb->value.rows(),
                                               emb->value.cols(), 0.08f, rng);
        comaid::TrainConfig tc;
        tc.epochs = epochs;
        comaid::ComAidTrainer trainer(tc);
        trainer.Train(pipeline->model.get(),
                      row.residuals
                          ? comaid::MakeResidualAugmentedPairs(*pipeline->model,
                                                               pipeline->aliases)
                          : comaid::MakeTrainingPairs(*pipeline->model,
                                                      pipeline->aliases));
      }
      linking::NclConfig link_config;
      link_config.remove_shared_words = row.remove_shared;
      linking::NclLinker linker(
          pipeline->model.get(), pipeline->candidates.get(),
          row.rewrite ? pipeline->rewriter.get() : nullptr, link_config);
      auto result =
          linking::EvaluateLinkerOverGroups(linker, pipeline->eval_groups, 20);
      cells.push_back(result.accuracy);
      cells.push_back(result.mrr);
    }
    table.AddRow(row.label, cells);
  }
  table.Print();
  return 0;
}
