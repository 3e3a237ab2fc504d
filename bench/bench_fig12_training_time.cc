// Figure 12 (Appendix B.2) — offline model training time analysis.
//
// (a) Word-embedding pre-training time and (b) COM-AID refinement time, as
// the number of involved concepts grows (25% → 100% of each ontology).
// Pre-training uses the Appendix-B.2 hyperparameters (window 10, 10
// negatives, lr 0.05) and the one-thread CBOW trainer.
//
// Expected shape: pre-training is fast (seconds) and scales with corpus
// size — hospital-x costs more than MIMIC-III because it has far more
// unlabeled snippets; COM-AID refinement dominates overall cost and grows
// roughly linearly in the number of concepts, with similar times across
// datasets (labeled-pair counts are similar).

#include <iostream>

#include "bench_common.h"
#include "util/env.h"
#include "util/string_util.h"
#include "util/table_writer.h"

using namespace ncl;
using namespace ncl::bench;

int main() {
  const bool full = BenchFullMode();
  const double base_scale = full ? 1.6 : 1.0;
  const size_t epochs = full ? 10 : 5;

  TableWriter pretrain_table(
      "Fig 12(a)  Word-embedding pre-training time [s]",
      {"concepts(%)", "hospital-x", "MIMIC-III"});
  TableWriter train_table("Fig 12(b)  COM-AID training time [s]",
                          {"concepts(%)", "hospital-x", "MIMIC-III"});

  for (double fraction : {0.25, 0.5, 0.75, 1.0}) {
    std::vector<double> pretrain_row, train_row;
    for (Corpus corpus : {Corpus::kHospitalX, Corpus::kMimicIII}) {
      PipelineConfig config;
      config.corpus = corpus;
      config.scale = base_scale * fraction;
      config.train_epochs = epochs;
      config.cbow_epochs = 10;  // Appendix B.2 iteration count
      config.num_query_groups = 1;
      config.queries_per_group = 10;  // timing run: queries irrelevant
      auto pipeline = BuildPipeline(config);
      pretrain_row.push_back(pipeline->pretrain_seconds);
      train_row.push_back(pipeline->train_seconds);
    }
    std::string label = std::to_string(static_cast<int>(fraction * 100));
    pretrain_table.AddRow(label, pretrain_row, 3);
    train_table.AddRow(label, train_row, 3);
  }
  pretrain_table.Print();
  train_table.Print();
  return 0;
}
