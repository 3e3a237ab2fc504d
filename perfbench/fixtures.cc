#include "fixtures.h"

#include <unistd.h>

#include <fstream>

#include "comaid/model_io.h"
#include "comaid/trainer.h"
#include "datagen/dataset.h"
#include "datagen/ontology_synthesizer.h"
#include "pretrain/cbow.h"
#include "pretrain/concept_injection.h"
#include "util/stopwatch.h"

namespace perfbench {

using ncl::Result;
using ncl::Status;
using ncl::Stopwatch;

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

Result<std::unique_ptr<Corpus>> MakeHospitalX(double scale,
                                              const std::string& work_dir) {
  auto corpus = std::make_unique<Corpus>();
  ncl::datagen::DatasetConfig data_config;
  data_config.scale = scale;
  data_config.seed = 2018;
  data_config.notes_per_concept = 12;
  data_config.num_query_groups = 1;
  data_config.queries_per_group = 1;
  ncl::datagen::Dataset data = ncl::datagen::MakeHospitalX(data_config);
  corpus->name = data.name;
  corpus->onto = std::move(data.onto);
  for (auto& snippet : data.labeled) {
    corpus->aliases.emplace_back(snippet.concept_id, std::move(snippet.tokens));
  }
  corpus->fine_concepts = corpus->onto.FineGrainedConcepts().size();
  corpus->dim = 32;

  Stopwatch watch;
  std::vector<std::vector<std::string>> notes = std::move(data.unlabeled);
  for (const auto& [id, tokens] : corpus->aliases) {
    notes.push_back(ncl::pretrain::InjectConceptId(tokens, corpus->onto.Get(id).code));
  }
  ncl::pretrain::CbowConfig cbow;
  cbow.dim = corpus->dim;
  cbow.epochs = 12;
  ncl::pretrain::WordEmbeddings embeddings = ncl::pretrain::TrainCbow(notes, cbow);

  ncl::comaid::ComAidConfig model_config;
  model_config.dim = corpus->dim;
  model_config.beta = 2;
  std::vector<std::vector<std::string>> extra;
  for (const auto& [id, tokens] : corpus->aliases) extra.push_back(tokens);
  ncl::comaid::ComAidModel model(model_config, &corpus->onto, extra);
  model.InitializeEmbeddings(embeddings);
  ncl::comaid::TrainConfig train_config;
  train_config.epochs = 10;
  ncl::comaid::ComAidTrainer trainer(train_config);
  trainer.Train(&model,
                ncl::comaid::MakeResidualAugmentedPairs(model, corpus->aliases));

  corpus->embeddings_path = work_dir + "/embeddings.bin";
  corpus->model_path = work_dir + "/model.bin";
  Status status = embeddings.Save(corpus->embeddings_path);
  if (!status.ok()) return status;
  status = ncl::comaid::SaveModel(model, corpus->model_path);
  if (!status.ok()) return status;
  corpus->model_vocab = model.vocabulary().size();
  corpus->offline_s = watch.ElapsedSeconds();
  return corpus;
}

Result<std::unique_ptr<Corpus>> MakeIcd10PaperScale(const std::string& work_dir) {
  auto corpus = std::make_unique<Corpus>();
  auto onto = ncl::datagen::SynthesizeOntology(ncl::datagen::PaperScaleIcd10Config());
  if (!onto.ok()) return onto.status();
  corpus->name = "icd10-93k";
  corpus->onto = std::move(onto).value();
  corpus->fine_concepts = corpus->onto.FineGrainedConcepts().size();
  corpus->ngram_index = true;
  corpus->dim = 32;

  Stopwatch watch;
  ncl::comaid::ComAidConfig model_config;
  model_config.dim = corpus->dim;
  model_config.beta = 2;
  model_config.seed = 93;
  ncl::comaid::ComAidModel model(model_config, &corpus->onto, {});
  corpus->model_path = work_dir + "/model_93k.bin";
  Status status = ncl::comaid::SaveModel(model, corpus->model_path);
  if (!status.ok()) return status;
  corpus->model_vocab = model.vocabulary().size();
  corpus->offline_s = watch.ElapsedSeconds();
  return corpus;
}

Result<std::unique_ptr<Replica>> Replica::Start(const Corpus& corpus,
                                                const ReplicaOptions& options) {
  std::unique_ptr<Replica> replica(new Replica());
  ReplicaSetup& setup = replica->setup_;

  auto model = ncl::comaid::LoadModel(corpus.model_path, &corpus.onto);
  if (!model.ok()) return model.status();
  replica->model_ = std::move(model).value();
  if (!corpus.embeddings_path.empty()) {
    auto embeddings = ncl::pretrain::WordEmbeddings::Load(corpus.embeddings_path);
    if (!embeddings.ok()) return embeddings.status();
    replica->embeddings_ = std::make_unique<ncl::pretrain::WordEmbeddings>(
        std::move(embeddings).value());
  }

  ncl::linking::CandidateGeneratorConfig cg_config;
  cg_config.use_ngram_index = corpus.ngram_index;
  const double rss_before = ResidentMb();
  Stopwatch watch;
  replica->candidates_ = std::make_shared<const ncl::linking::CandidateGenerator>(
      corpus.onto, corpus.aliases, cg_config);
  setup.index_build_s = watch.ElapsedSeconds();
  setup.index_rss_mb = ResidentMb() - rss_before;
  if (replica->embeddings_ != nullptr) {
    replica->rewriter_ = std::make_shared<const ncl::linking::QueryRewriter>(
        replica->candidates_->vocabulary(), *replica->embeddings_);
  }

  // NclSnapshot's warm_cache runs the same precompute; doing it here first
  // times it (the snapshot's pass then finds every encoding cached).
  watch.Reset();
  replica->model_->PrecomputeConceptEncodings();
  setup.warm_s = watch.ElapsedSeconds();

  replica->link_config_ = ncl::serve::NclSnapshot::MakeServingConfig();
  replica->link_config_.k = options.k;
  replica->Publish(replica->model_, /*warm_cache=*/true);

  ncl::serve::ServeConfig serve_config;
  serve_config.num_shards = options.shards;
  serve_config.max_batch = options.max_batch;
  replica->service_ =
      std::make_unique<ncl::serve::LinkingService>(&replica->registry_, serve_config);
  if (!options.socket_path.empty()) {
    Status status = replica->Listen(options.socket_path);
    if (!status.ok()) return status;
  }
  return replica;
}

Status Replica::Listen(const std::string& socket_path) {
  if (server_ != nullptr) return Status::FailedPrecondition("already listening");
  ncl::net::ServerConfig server_config;
  server_config.endpoint.kind = ncl::net::Endpoint::Kind::kUnix;
  server_config.endpoint.path = socket_path;
  server_ = std::make_unique<ncl::net::Server>(service_.get(), &registry_,
                                               server_config);
  return server_->Start();
}

Replica::~Replica() {
  if (server_ != nullptr) server_->Stop();
  if (service_ != nullptr) service_->Shutdown();
}

uint64_t Replica::Publish(std::shared_ptr<const ncl::comaid::ComAidModel> model,
                          bool warm_cache) {
  auto snapshot = std::make_shared<ncl::serve::NclSnapshot>(
      std::move(model), candidates_, rewriter_, link_config_, warm_cache);
  std::lock_guard<std::mutex> lock(history_mutex_);
  const uint64_t version =
      registry_.Publish(ncl::serve::kDefaultTenant, snapshot);
  history_[version] = std::move(snapshot);
  return version;
}

std::shared_ptr<const ncl::serve::NclSnapshot> Replica::Snapshot(
    uint64_t version) const {
  std::lock_guard<std::mutex> lock(history_mutex_);
  auto it = history_.find(version);
  return it == history_.end() ? nullptr : it->second;
}

std::shared_ptr<const ncl::serve::NclSnapshot> Replica::Latest() const {
  std::lock_guard<std::mutex> lock(history_mutex_);
  return history_.empty() ? nullptr : history_.rbegin()->second;
}

}  // namespace perfbench
