// What the benchmark serves: offline corpora and the serving replicas built
// from them.
//
// A Corpus is prepared before any timing starts: the ontology, the alias
// snippets the candidate index covers, and a model (plus embeddings, when the
// workload rewrites queries) saved under the run's work directory. Its
// offline cost is reported as setup.train_s, never inside setup_s.
//
// A Replica is one serving process's worth of components, built the way
// `ncl serve-net` builds them: load the saved model (and embeddings), build
// the candidate index and query rewriter, warm the concept-encoding cache,
// publish an NclSnapshot into a TenantRegistry, start a LinkingService and,
// for wire workloads, a net::Server on a Unix socket. Starting replicas (and
// the router) is what setup_s measures.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "comaid/model.h"
#include "linking/candidate_generator.h"
#include "linking/query_rewriter.h"
#include "net/server.h"
#include "ontology/ontology.h"
#include "pretrain/embeddings.h"
#include "serve/linking_service.h"
#include "serve/model_snapshot.h"
#include "util/status.h"

namespace perfbench {

struct Corpus {
  std::string name;
  ncl::ontology::Ontology onto;
  std::vector<std::pair<ncl::ontology::ConceptId, std::vector<std::string>>>
      aliases;
  std::string model_path;
  std::string embeddings_path;  ///< empty: no query rewriter
  bool ngram_index = false;
  size_t dim = 0;
  size_t model_vocab = 0;
  size_t fine_concepts = 0;
  double offline_s = 0.0;  ///< training (or random initialisation) + save
};

/// hospital-x at `scale` (seed 2018), pre-trained and COM-AID-trained as
/// `ncl train` does by default (d = 32, 12 CBOW epochs, 10 epochs).
ncl::Result<std::unique_ptr<Corpus>> MakeHospitalX(double scale,
                                                   const std::string& work_dir);

/// The paper-scale ICD-10-shaped ontology (datagen::PaperScaleIcd10Config)
/// with a seeded random-init COM-AID (d = 32); no aliases, no rewriter, the
/// char-ngram candidate index.
ncl::Result<std::unique_ptr<Corpus>> MakeIcd10PaperScale(
    const std::string& work_dir);

struct ReplicaOptions {
  size_t k = 20;
  size_t shards = 4;
  size_t max_batch = 8;
  /// Serve over net::Server at this Unix-socket path (empty: in process).
  std::string socket_path;
};

/// Setup cost breakdown of one replica start.
struct ReplicaSetup {
  double index_build_s = 0.0;  ///< CandidateGenerator construction
  double index_rss_mb = 0.0;   ///< RSS growth across that construction
  double warm_s = 0.0;         ///< PrecomputeConceptEncodings
};

/// \brief One serving replica. Holds the components every published
/// snapshot shares, and every snapshot it ever published (by version), so
/// the oracle can re-derive any answer on the snapshot that produced it.
class Replica {
 public:
  static ncl::Result<std::unique_ptr<Replica>> Start(const Corpus& corpus,
                                                     const ReplicaOptions& options);
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Build an NclSnapshot over `model` (sharing this replica's index and
  /// rewriter) and publish it as the default tenant. Returns its version.
  uint64_t Publish(std::shared_ptr<const ncl::comaid::ComAidModel> model,
                   bool warm_cache);

  /// The snapshot published as `version`, or null.
  std::shared_ptr<const ncl::serve::NclSnapshot> Snapshot(uint64_t version) const;
  /// The most recently published snapshot.
  std::shared_ptr<const ncl::serve::NclSnapshot> Latest() const;

  /// Serve the service over a net::Server on a Unix socket (once).
  ncl::Status Listen(const std::string& socket_path);

  ncl::serve::LinkingService& service() { return *service_; }
  const ncl::serve::LinkingService& service() const { return *service_; }
  /// Null for in-process replicas.
  const ncl::net::Server* server() const { return server_.get(); }
  const ncl::linking::CandidateGenerator& candidates() const { return *candidates_; }
  /// Null when the corpus has no rewriter.
  const ncl::linking::QueryRewriter* rewriter() const { return rewriter_.get(); }
  const ReplicaSetup& setup() const { return setup_; }

 private:
  Replica() = default;

  ReplicaSetup setup_;
  ncl::linking::NclConfig link_config_;
  std::unique_ptr<ncl::pretrain::WordEmbeddings> embeddings_;
  std::shared_ptr<const ncl::comaid::ComAidModel> model_;
  std::shared_ptr<const ncl::linking::CandidateGenerator> candidates_;
  std::shared_ptr<const ncl::linking::QueryRewriter> rewriter_;
  ncl::serve::TenantRegistry registry_;
  mutable std::mutex history_mutex_;
  std::map<uint64_t, std::shared_ptr<const ncl::serve::NclSnapshot>> history_;
  std::unique_ptr<ncl::serve::LinkingService> service_;
  std::unique_ptr<ncl::net::Server> server_;
};

/// Resident set size of this process, MiB (from /proc/self/statm).
double ResidentMb();

}  // namespace perfbench
