#include "comaid/trainer.h"

#include <algorithm>
#include <unordered_set>

#include "nn/tape.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace ncl::comaid {

namespace {

/// Registry handles for `ncl.train.*`, resolved once.
struct TrainMetrics {
  obs::Counter* epochs;
  obs::Counter* batches;
  obs::Counter* examples;
  obs::Histogram* epoch_us;
  obs::Histogram* batch_us;
  obs::Gauge* epoch_loss;
};

const TrainMetrics& GetTrainMetrics() {
  static const TrainMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return TrainMetrics{registry.GetCounter("ncl.train.epochs"),
                        registry.GetCounter("ncl.train.batches"),
                        registry.GetCounter("ncl.train.examples"),
                        registry.GetHistogram("ncl.train.epoch_us"),
                        registry.GetHistogram("ncl.train.batch_us"),
                        registry.GetGauge("ncl.train.epoch_loss")};
  }();
  return metrics;
}

}  // namespace

std::vector<TrainingPair> MakeTrainingPairs(
    const ComAidModel& model,
    const std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>>&
        snippets) {
  std::vector<TrainingPair> pairs;
  pairs.reserve(snippets.size());
  for (const auto& [concept_id, tokens] : snippets) {
    if (tokens.empty()) continue;  // an empty alias teaches nothing
    pairs.push_back(TrainingPair{concept_id, model.MapTokens(tokens)});
  }
  return pairs;
}

std::vector<TrainingPair> MakeResidualAugmentedPairs(
    const ComAidModel& model,
    const std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>>&
        snippets) {
  std::vector<TrainingPair> pairs = MakeTrainingPairs(model, snippets);
  pairs.reserve(pairs.size() * 2);
  for (const auto& [concept_id, tokens] : snippets) {
    if (tokens.empty()) continue;
    const auto& description = model.onto().Get(concept_id).description;
    std::unordered_set<std::string> shared(description.begin(), description.end());
    std::vector<std::string> residual;
    for (const auto& word : tokens) {
      if (shared.count(word) == 0) residual.push_back(word);
    }
    // Empty residuals are kept deliberately: they teach p(<eos> | exact match).
    pairs.push_back(TrainingPair{concept_id, model.MapTokens(residual)});
  }
  return pairs;
}

double ComAidTrainer::TrainBatch(ComAidModel* model,
                                 nn::SgdOptimizer* optimizer,
                                 const std::vector<TrainingPair>& batch) const {
  NCL_CHECK(!batch.empty());
  NCL_TRACE_SPAN("ncl.train.batch");
  Stopwatch batch_watch;
  nn::Tape tape;
  double total_loss = 0.0;
  float inv_batch = 1.0f / static_cast<float>(batch.size());
  for (const TrainingPair& pair : batch) {
    tape.Reset();
    nn::VarId loss = model->BuildExampleLoss(tape, pair.concept_id, pair.target);
    total_loss += tape.Value(loss)[0];
    // Seed 1/|B| so accumulated parameter gradients average over the batch.
    tape.Backward(loss, inv_batch);
  }
  optimizer->Step(model->params());
  // The weights moved: cached concept encodings are stale from here on.
  model->NotifyWeightsChanged();
  const TrainMetrics& metrics = GetTrainMetrics();
  metrics.batch_us->RecordMicros(batch_watch.ElapsedMicros());
  metrics.batches->Increment();
  metrics.examples->Increment(batch.size());
  return total_loss / static_cast<double>(batch.size());
}

double ComAidTrainer::Train(ComAidModel* model,
                            const std::vector<TrainingPair>& pairs) const {
  NCL_CHECK(model != nullptr);
  if (pairs.empty()) return 0.0;

  nn::SgdOptimizer optimizer(config_.learning_rate, config_.momentum,
                             config_.clip_norm);
  Rng rng(config_.shuffle_seed);
  std::vector<size_t> order(pairs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  double epoch_loss = 0.0;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    NCL_TRACE_SPAN("ncl.train.epoch");
    Stopwatch epoch_watch;
    rng.Shuffle(order);
    double loss_sum = 0.0;
    size_t example_count = 0;
    for (size_t start = 0; start < order.size(); start += config_.batch_size) {
      size_t end = std::min(order.size(), start + config_.batch_size);
      std::vector<TrainingPair> batch;
      batch.reserve(end - start);
      for (size_t i = start; i < end; ++i) batch.push_back(pairs[order[i]]);
      double mean_loss = TrainBatch(model, &optimizer, batch);
      loss_sum += mean_loss * static_cast<double>(batch.size());
      example_count += batch.size();
    }
    epoch_loss = loss_sum / static_cast<double>(example_count);
    const TrainMetrics& metrics = GetTrainMetrics();
    metrics.epoch_us->RecordMicros(epoch_watch.ElapsedMicros());
    metrics.epochs->Increment();
    metrics.epoch_loss->Set(epoch_loss);
    if (config_.on_epoch) config_.on_epoch(epoch, epoch_loss);
    optimizer.set_learning_rate(optimizer.learning_rate() * config_.lr_decay);
  }
  return epoch_loss;
}

}  // namespace ncl::comaid
