// ncl — command-line interface to the NCL library.
//
// Subcommands (all paths are plain files; ontologies and snippets are TSV,
// corpora are one snippet per line):
//
//   ncl synth <out-dir> [--mimic] [--scale S] [--seed N]
//       Synthesise a dataset: ontology.tsv, aliases.tsv, notes.txt,
//       queries.tsv. Stand-in for exporting a hospital's own data.
//
//   ncl train <dir> [--dim D] [--beta B] [--epochs E] [--cbow-epochs E]
//       Pre-train embeddings and train COM-AID from <dir>/ontology.tsv,
//       <dir>/aliases.tsv and <dir>/notes.txt; writes model.bin(+.params)
//       and embeddings.bin into <dir>.
//
//   ncl link <dir> [--k K] [--ngram-index] "free text query"...
//       Load the trained artifacts and link each query argument, printing
//       the top-3 concepts with scores. --ngram-index swaps candidate
//       generation to the pruned char-ngram inverted index (link, eval and
//       serve-eval all accept it) — sub-linear at large ontologies, see
//       bench_candgen.
//
//   ncl eval <dir> [--k K]
//       Evaluate the trained artifacts on <dir>/queries.tsv (top-1
//       accuracy and MRR).
//
//   ncl serve-eval <dir> [--k K] [--shards N] [--clients C] [--max-batch B]
//       Same eval set, but through the ncl::serve LinkingService: the model
//       is published as a snapshot and C closed-loop client threads stream
//       the queries through the admission queue and shard threads. Reports
//       accuracy, MRR, throughput and the ncl.serve admission counters.
//       --slow-log-n <N> additionally enables the SLO watchdog for the run
//       and prints the rolling-window report plus the N slowest requests
//       with their per-stage breakdown.
//       --connect <endpoint> drives a remote replica (or router) over the
//       ncl::net wire protocol instead of an in-process service: each client
//       thread opens its own connection. --deadline-us <N> stamps every wire
//       request with a deadline; --ontology <tenant> stamps every request
//       with a tenant id (multi-tenant replicas score it with that
//       ontology's model); --drain sends a fleet drain after the run and
//       waits for the acknowledgement.
//
//   ncl serve-net [<dir>] --listen <endpoint> [--model <tenant>=<dir>]...
//                 [--k K] [--shards N] [--max-batch B] [--ngram-index]
//                 [--ready-file <path>]
//       Run one replica: load the trained artifacts, publish them as
//       snapshots and serve LinkingService over the endpoint
//       ("tcp:HOST:PORT" or "unix:/path"). The positional <dir> (if given)
//       is published as the default tenant; every --model <tenant>=<dir>
//       (repeatable) publishes that workspace under the named ontology, so
//       one process serves e.g. ICD-9 and ICD-10 side by side — clients
//       select a model with the wire request's ontology field. Exits
//       cleanly on SIGINT/SIGTERM or after a wire Drain has been served and
//       flushed. --ready-file is written with the bound endpoint once
//       serving (ephemeral TCP ports resolved) — scripts wait on it instead
//       of sleeping.
//
//   ncl route --listen <endpoint> --backends <ep1,ep2,...>
//             [--health-interval-ms N] [--ready-file <path>]
//       Run the replica front-end: rendezvous-hash link requests over the
//       healthy backends, probe health, fan drains out. Exits on
//       SIGINT/SIGTERM.
//
// Observability flags (every subcommand):
//   --metrics-json <path>   write a snapshot of the ncl::obs metrics
//                           registry (counters/gauges/histograms) as JSON
//                           after the command finishes
//   --trace-out <path>      enable span tracing for the run and write a
//                           Chrome trace-event JSON (open in Perfetto);
//                           serve-eval requests render as connected flow
//                           lanes (admit -> dispatch -> shard -> linker)
//   --timeseries-out <path> run a background MetricsSampler for the whole
//                           command and write the windowed TIMESERIES JSON
//                           (counter rates, windowed histogram p50/p99)
//   --metrics-interval-ms N sampling period for --timeseries-out
//                           (default 200)
// Flags accept both "--name value" and "--name=value".
//
// Exit status is non-zero on any error; diagnostics go to stderr.

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "comaid/model_io.h"
#include "comaid/trainer.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "datagen/dataset.h"
#include "datagen/snippet_io.h"
#include "linking/candidate_generator.h"
#include "linking/metrics.h"
#include "linking/ncl_linker.h"
#include "linking/query_rewriter.h"
#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "ontology/ontology_io.h"
#include "pretrain/cbow.h"
#include "pretrain/concept_injection.h"
#include "serve/linking_service.h"
#include "serve/model_snapshot.h"
#include "text/tokenizer.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using namespace ncl;

int Fail(const Status& status) {
  std::cerr << "ncl: " << status.ToString() << std::endl;
  return 1;
}

int Usage() {
  std::cerr <<
      "usage:\n"
      "  ncl synth <out-dir> [--mimic] [--scale S] [--seed N]\n"
      "  ncl train <dir> [--dim D] [--beta B] [--epochs E] [--cbow-epochs E]\n"
      "  ncl link <dir> [--k K] [--ngram-index] \"query text\"...\n"
      "  ncl eval <dir> [--k K] [--ngram-index]\n"
      "  ncl serve-eval <dir> [--k K] [--shards N] [--clients C] [--max-batch B]\n"
      "                 [--ngram-index] [--slow-log-n N] [--ontology T]\n"
      "                 [--connect EP] [--deadline-us N] [--drain]\n"
      "  ncl serve-net [<dir>] --listen EP [--model T=DIR]... [--k K]\n"
      "                 [--shards N] [--max-batch B] [--ngram-index]\n"
      "                 [--ready-file PATH]\n"
      "  ncl route --listen EP --backends EP1,EP2,... [--health-interval-ms N]\n"
      "                 [--ready-file PATH]\n"
      "  (endpoints EP are \"tcp:HOST:PORT\" or \"unix:/path\")\n"
      "observability (any subcommand):\n"
      "  --metrics-json <path>     dump metrics registry snapshot as JSON\n"
      "  --trace-out <path>        record spans; write Chrome trace JSON\n"
      "  --timeseries-out <path>   sample metrics during the run; write\n"
      "                            windowed TIMESERIES JSON\n"
      "  --metrics-interval-ms N   sampling period (default 200)\n";
  return 2;
}

/// Pulls "--name value" / "--name=value" pairs out of argv; returns
/// positional arguments. `--model` is repeatable (one replica can host many
/// tenants), so its values accumulate in `model_specs` instead of the map —
/// a map entry would silently keep only the last one.
std::vector<std::string> ParseFlags(int argc, char** argv,
                                    std::unordered_map<std::string, std::string>* flags,
                                    std::vector<std::string>* model_specs) {
  std::vector<std::string> positional;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      size_t equals = arg.find('=');
      if (arg.rfind("--model", 0) == 0 &&
          (arg.size() == 7 || arg[7] == '=')) {
        if (equals != std::string::npos) {
          model_specs->push_back(arg.substr(equals + 1));
        } else if (i + 1 < argc) {
          model_specs->push_back(argv[++i]);
        }
      } else if (equals != std::string::npos) {
        (*flags)[arg.substr(2, equals - 2)] = arg.substr(equals + 1);
      } else if (arg == "--mimic") {
        (*flags)["mimic"] = "1";
      } else if (arg == "--ngram-index") {
        (*flags)["ngram-index"] = "1";
      } else if (arg == "--drain") {
        (*flags)["drain"] = "1";
      } else if (i + 1 < argc) {
        (*flags)[arg.substr(2)] = argv[++i];
      } else {
        (*flags)[arg.substr(2)] = "";
      }
    } else {
      positional.push_back(std::move(arg));
    }
  }
  return positional;
}

/// The value of numeric flag `name`, or `fallback` when absent. The whole
/// value must parse (no trailing text) and be a finite number >= `min`; no
/// flag of this CLI takes a negative value, so `min` is at least 0.
template <typename T>
Result<T> FlagNumber(const std::unordered_map<std::string, std::string>& flags,
                     const std::string& name, T fallback, T min,
                     const char* kind) {
  auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() ||
      !(value >= min && std::isfinite(static_cast<double>(value)))) {
    return Status::InvalidArgument(
        "--" + name + " expects " + kind + " >= " +
        std::to_string(static_cast<int64_t>(min)) + ", got \"" + text + "\"");
  }
  return value;
}

Result<double> FlagDouble(const std::unordered_map<std::string, std::string>& flags,
                          const std::string& name, double fallback) {
  return FlagNumber<double>(flags, name, fallback, 0.0, "a number");
}

/// `min` = 1 for counts the library requires to be positive (--k,
/// --shards, --max-batch), which it would otherwise abort on.
Result<int64_t> FlagInt(const std::unordered_map<std::string, std::string>& flags,
                        const std::string& name, int64_t fallback,
                        int64_t min = 0) {
  return FlagNumber<int64_t>(flags, name, fallback, min, "an integer");
}

int CmdSynth(const std::vector<std::string>& args,
             const std::unordered_map<std::string, std::string>& flags) {
  if (args.empty()) return Usage();
  const std::string& dir = args[0];
  auto scale = FlagDouble(flags, "scale", 0.6);
  if (!scale.ok()) return Fail(scale.status());
  auto seed = FlagInt(flags, "seed", 2018);
  if (!seed.ok()) return Fail(seed.status());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Fail(Status::IOError("cannot create " + dir + ": " + ec.message()));

  datagen::DatasetConfig config;
  config.scale = *scale;
  config.seed = static_cast<uint64_t>(*seed);
  config.notes_per_concept = 12;
  config.num_query_groups = 1;
  config.queries_per_group = 200;
  datagen::Dataset data = flags.contains("mimic")
                              ? datagen::MakeMimicIII(config)
                              : datagen::MakeHospitalX(config);

  Status status = ontology::SaveOntologyToFile(data.onto, dir + "/ontology.tsv");
  if (!status.ok()) return Fail(status);
  status = datagen::SaveSnippetsToFile(data.labeled, data.onto, dir + "/aliases.tsv");
  if (!status.ok()) return Fail(status);
  status = datagen::SaveCorpusToFile(data.unlabeled, dir + "/notes.txt");
  if (!status.ok()) return Fail(status);

  std::vector<datagen::LabeledSnippet> queries;
  for (const auto& q : data.query_groups[0]) {
    queries.push_back(datagen::LabeledSnippet{q.concept_id, q.tokens});
  }
  status = datagen::SaveSnippetsToFile(queries, data.onto, dir + "/queries.tsv");
  if (!status.ok()) return Fail(status);

  std::cout << "wrote " << data.name << " dataset to " << dir << ": "
            << data.onto.num_concepts() << " concepts, " << data.labeled.size()
            << " aliases, " << data.unlabeled.size() << " notes, "
            << queries.size() << " queries\n";
  return 0;
}

/// Loads the ontology + aliases + notes triple every downstream command needs.
struct Workspace {
  ontology::Ontology onto;
  std::vector<datagen::LabeledSnippet> aliases;
  std::vector<std::vector<std::string>> notes;
};

Result<Workspace> LoadWorkspace(const std::string& dir) {
  Workspace ws;
  NCL_ASSIGN_OR_RETURN(ws.onto,
                       ontology::LoadOntologyFromFile(dir + "/ontology.tsv"));
  NCL_ASSIGN_OR_RETURN(ws.aliases, datagen::LoadSnippetsFromFile(
                                       dir + "/aliases.tsv", ws.onto));
  NCL_ASSIGN_OR_RETURN(ws.notes, datagen::LoadCorpusFromFile(dir + "/notes.txt"));
  return ws;
}

int CmdTrain(const std::vector<std::string>& args,
             const std::unordered_map<std::string, std::string>& flags) {
  if (args.empty()) return Usage();
  const std::string& dir = args[0];
  // Checked before any work: the model constructor aborts on these, and
  // structural attention (Def. 4.1) needs at least one ancestor slot.
  auto dim_flag = FlagInt(flags, "dim", 32);
  if (!dim_flag.ok()) return Fail(dim_flag.status());
  auto beta_flag = FlagInt(flags, "beta", 2);
  if (!beta_flag.ok()) return Fail(beta_flag.status());
  auto cbow_epochs = FlagInt(flags, "cbow-epochs", 12);
  if (!cbow_epochs.ok()) return Fail(cbow_epochs.status());
  auto epochs = FlagInt(flags, "epochs", 10);
  if (!epochs.ok()) return Fail(epochs.status());
  const int64_t dim = *dim_flag;
  const int64_t beta = *beta_flag;
  if (dim < 1) {
    return Fail(Status::InvalidArgument("--dim must be >= 1, got " +
                                        std::to_string(dim)));
  }
  if (beta < 1 || beta > std::numeric_limits<int32_t>::max()) {
    return Fail(Status::InvalidArgument(
        "--beta must be in [1, INT32_MAX] (Def. 4.1 structural context), got " +
        std::to_string(beta)));
  }
  auto ws = LoadWorkspace(dir);
  if (!ws.ok()) return Fail(ws.status());

  // Pre-training (§4.2).
  std::vector<std::vector<std::string>> corpus = ws->notes;
  for (const auto& snippet : ws->aliases) {
    corpus.push_back(pretrain::InjectConceptId(
        snippet.tokens, ws->onto.Get(snippet.concept_id).code));
  }
  pretrain::CbowConfig cbow;
  cbow.dim = static_cast<size_t>(dim);
  cbow.epochs = static_cast<size_t>(*cbow_epochs);
  pretrain::WordEmbeddings embeddings = pretrain::TrainCbow(corpus, cbow);
  Status status = embeddings.Save(dir + "/embeddings.bin");
  if (!status.ok()) return Fail(status);
  std::cout << "pre-trained " << embeddings.size() << " word vectors\n";

  // COM-AID refinement.
  comaid::ComAidConfig model_config;
  model_config.dim = cbow.dim;
  model_config.beta = static_cast<int32_t>(beta);
  std::vector<std::vector<std::string>> extra;
  for (const auto& snippet : ws->aliases) extra.push_back(snippet.tokens);
  comaid::ComAidModel model(model_config, &ws->onto, extra);
  model.InitializeEmbeddings(embeddings);

  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> pairs;
  for (const auto& snippet : ws->aliases) {
    pairs.emplace_back(snippet.concept_id, snippet.tokens);
  }
  comaid::TrainConfig tc;
  tc.epochs = static_cast<size_t>(*epochs);
  tc.on_epoch = [](size_t epoch, double loss) {
    std::cout << "epoch " << epoch << "  mean loss " << FormatDouble(loss, 3)
              << "\n";
  };
  comaid::ComAidTrainer trainer(tc);
  trainer.Train(&model, comaid::MakeResidualAugmentedPairs(model, pairs));

  status = comaid::SaveModel(model, dir + "/model.bin");
  if (!status.ok()) return Fail(status);
  std::cout << "saved " << dir << "/model.bin ("
            << model.params()->NumWeights() << " weights)\n";
  return 0;
}

/// Loads everything `link`/`eval` need; the linker borrows from the bundle.
struct Serving {
  Workspace ws;
  pretrain::WordEmbeddings embeddings;
  std::unique_ptr<comaid::ComAidModel> model;
  std::unique_ptr<linking::CandidateGenerator> candidates;
  std::unique_ptr<linking::QueryRewriter> rewriter;
};

/// `flags` picks the candidate index (--ngram-index).
Result<std::unique_ptr<Serving>> LoadServing(
    const std::string& dir,
    const std::unordered_map<std::string, std::string>& flags) {
  NCL_ASSIGN_OR_RETURN(int64_t use_ngram_index, FlagInt(flags, "ngram-index", 0));
  auto serving = std::make_unique<Serving>();
  NCL_ASSIGN_OR_RETURN(serving->ws, LoadWorkspace(dir));
  NCL_ASSIGN_OR_RETURN(serving->embeddings,
                       pretrain::WordEmbeddings::Load(dir + "/embeddings.bin"));
  NCL_ASSIGN_OR_RETURN(serving->model,
                       comaid::LoadModel(dir + "/model.bin", &serving->ws.onto));
  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases;
  for (const auto& snippet : serving->ws.aliases) {
    aliases.emplace_back(snippet.concept_id, snippet.tokens);
  }
  linking::CandidateGeneratorConfig cg_config;
  cg_config.use_ngram_index = use_ngram_index != 0;
  serving->candidates = std::make_unique<linking::CandidateGenerator>(
      serving->ws.onto, aliases, cg_config);
  serving->rewriter = std::make_unique<linking::QueryRewriter>(
      serving->candidates->vocabulary(), serving->embeddings);
  return serving;
}

/// Wraps a Serving bundle as a publishable snapshot. The bundle owns the
/// components and outlives the service, so the snapshot aliases without
/// deleting.
std::shared_ptr<serve::NclSnapshot> MakeSnapshot(
    const Serving& serving, const linking::NclConfig& link_config) {
  return std::make_shared<serve::NclSnapshot>(
      std::shared_ptr<const comaid::ComAidModel>(
          serving.model.get(), [](const comaid::ComAidModel*) {}),
      std::shared_ptr<const linking::CandidateGenerator>(
          serving.candidates.get(), [](const linking::CandidateGenerator*) {}),
      std::shared_ptr<const linking::QueryRewriter>(
          serving.rewriter.get(), [](const linking::QueryRewriter*) {}),
      link_config, /*warm_cache=*/true);
}

/// --k for the serving commands' linker, on top of the serving defaults.
Result<linking::NclConfig> ServingLinkConfig(
    const std::unordered_map<std::string, std::string>& flags) {
  linking::NclConfig config = serve::NclSnapshot::MakeServingConfig();
  NCL_ASSIGN_OR_RETURN(int64_t k, FlagInt(flags, "k", 20, /*min=*/1));
  config.k = static_cast<size_t>(k);
  return config;
}

/// --shards and --max-batch (default: two requests per shard).
Result<serve::ServeConfig> ServeConfigFromFlags(
    const std::unordered_map<std::string, std::string>& flags) {
  serve::ServeConfig config;
  NCL_ASSIGN_OR_RETURN(int64_t shards, FlagInt(flags, "shards", 4, /*min=*/1));
  NCL_ASSIGN_OR_RETURN(
      int64_t max_batch,
      FlagInt(flags, "max-batch",
              2 * std::min(shards, std::numeric_limits<int64_t>::max() / 2),
              /*min=*/1));
  config.num_shards = static_cast<size_t>(shards);
  config.max_batch = static_cast<size_t>(max_batch);
  return config;
}

int CmdLink(const std::vector<std::string>& args,
            const std::unordered_map<std::string, std::string>& flags) {
  if (args.size() < 2) return Usage();
  auto k = FlagInt(flags, "k", 20, /*min=*/1);
  if (!k.ok()) return Fail(k.status());
  auto serving = LoadServing(args[0], flags);
  if (!serving.ok()) return Fail(serving.status());

  linking::NclConfig link_config;
  link_config.k = static_cast<size_t>(*k);
  linking::NclLinker linker((*serving)->model.get(), (*serving)->candidates.get(),
                            (*serving)->rewriter.get(), link_config);
  const ontology::Ontology& onto = (*serving)->ws.onto;
  for (size_t i = 1; i < args.size(); ++i) {
    std::vector<std::string> tokens = text::Tokenize(args[i]);
    std::cout << "query: \"" << Join(tokens, " ") << "\"\n";
    for (const auto& r : linker.Link(tokens, 3)) {
      std::cout << "  " << onto.Get(r.concept_id).code << "  (log p = "
                << FormatDouble(r.score, 2) << ")  \""
                << Join(onto.Get(r.concept_id).description, " ") << "\"\n";
    }
  }
  return 0;
}

int CmdEval(const std::vector<std::string>& args,
            const std::unordered_map<std::string, std::string>& flags) {
  if (args.empty()) return Usage();
  const std::string& dir = args[0];
  auto k_flag = FlagInt(flags, "k", 20, /*min=*/1);
  if (!k_flag.ok()) return Fail(k_flag.status());
  const size_t k = static_cast<size_t>(*k_flag);
  auto serving = LoadServing(dir, flags);
  if (!serving.ok()) return Fail(serving.status());

  auto queries =
      datagen::LoadSnippetsFromFile(dir + "/queries.tsv", (*serving)->ws.onto);
  if (!queries.ok()) return Fail(queries.status());
  std::vector<linking::EvalQuery> eval;
  for (const auto& q : *queries) {
    eval.push_back(linking::EvalQuery{q.tokens, q.concept_id});
  }

  linking::NclConfig link_config;
  link_config.k = k;
  linking::NclLinker linker((*serving)->model.get(), (*serving)->candidates.get(),
                            (*serving)->rewriter.get(), link_config);
  auto result = linking::EvaluateLinker(linker, eval, k);
  std::cout << "queries=" << result.num_queries
            << "  accuracy=" << FormatDouble(result.accuracy, 3)
            << "  MRR=" << FormatDouble(result.mrr, 3) << "\n";
  return 0;
}

/// SIGINT/SIGTERM ask serve-net and route to exit their wait loops.
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleShutdownSignal(int) { g_shutdown_requested = 1; }

void InstallShutdownHandler() {
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
}

/// Write the bound endpoint to `path` so scripts can wait for startup and
/// learn ephemeral ports instead of sleeping.
Status WriteReadyFile(const std::string& path, const net::Endpoint& endpoint) {
  std::ofstream out(path, std::ios::trunc);
  out << endpoint.ToString() << "\n";
  out.close();
  if (!out) return Status::IOError("cannot write ready file " + path);
  return Status::OK();
}

int CmdServeNet(const std::vector<std::string>& args,
                const std::unordered_map<std::string, std::string>& flags,
                const std::vector<std::string>& model_specs) {
  if ((args.empty() && model_specs.empty()) || !flags.contains("listen")) {
    return Usage();
  }
  auto endpoint = net::Endpoint::Parse(flags.at("listen"));
  if (!endpoint.ok()) return Fail(endpoint.status());

  // tenant id -> workspace dir: the positional dir (if any) serves the
  // default tenant, each --model <tenant>=<dir> adds a named ontology.
  std::vector<std::pair<std::string, std::string>> tenant_dirs;
  if (!args.empty()) {
    tenant_dirs.emplace_back(std::string(serve::kDefaultTenant), args[0]);
  }
  for (const std::string& spec : model_specs) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      return Fail(Status::InvalidArgument(
          "--model expects <tenant>=<dir>, got \"" + spec + "\""));
    }
    tenant_dirs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
  }

  auto link_config = ServingLinkConfig(flags);
  if (!link_config.ok()) return Fail(link_config.status());
  auto serve_config = ServeConfigFromFlags(flags);
  if (!serve_config.ok()) return Fail(serve_config.status());
  auto tenant_quota = FlagInt(flags, "tenant-quota", 0);
  if (!tenant_quota.ok()) return Fail(tenant_quota.status());
  serve_config->tenant_quota = static_cast<size_t>(*tenant_quota);

  serve::TenantRegistry registry;
  std::vector<std::unique_ptr<Serving>> bundles;  // outlive the service
  for (const auto& [tenant, dir] : tenant_dirs) {
    auto serving = LoadServing(dir, flags);
    if (!serving.ok()) return Fail(serving.status());
    registry.Publish(tenant, MakeSnapshot(**serving, *link_config));
    std::cerr << "serve-net: tenant \"" << tenant << "\" serves " << dir
              << "\n";
    bundles.push_back(std::move(*serving));
  }

  serve::LinkingService service(&registry, *serve_config);

  net::ServerConfig server_config;
  server_config.endpoint = *endpoint;
  net::Server server(&service, &registry, server_config);
  Status status = server.Start();
  if (!status.ok()) return Fail(status);
  if (flags.contains("ready-file")) {
    status = WriteReadyFile(flags.at("ready-file"), server.bound_endpoint());
    if (!status.ok()) {
      server.Stop();
      return Fail(status);
    }
  }
  std::cerr << "serve-net: replica on " << server.bound_endpoint().ToString()
            << " (pid " << ::getpid() << ")\n";

  InstallShutdownHandler();
  while (g_shutdown_requested == 0 && !server.drain_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (server.drain_requested()) {
    server.WaitForDrain();
    std::cerr << "serve-net: drained, all responses flushed\n";
  }
  server.Stop();
  net::ServerStats stats = server.stats();
  serve::ServeStats serve_stats = service.stats();
  std::cout << "serve-net: connections=" << stats.connections_accepted
            << "  requests=" << stats.requests
            << "  responses=" << stats.responses
            << "  decode_errors=" << stats.decode_errors
            << "  completed=" << serve_stats.completed
            << "  batches=" << serve_stats.batches << "\n";
  return 0;
}

int CmdRoute(const std::vector<std::string>& /*args*/,
             const std::unordered_map<std::string, std::string>& flags) {
  if (!flags.contains("listen") || !flags.contains("backends")) return Usage();
  auto listen = net::Endpoint::Parse(flags.at("listen"));
  if (!listen.ok()) return Fail(listen.status());

  auto health_interval_ms = FlagInt(flags, "health-interval-ms", 200);
  if (!health_interval_ms.ok()) return Fail(health_interval_ms.status());

  net::RouterConfig config;
  config.listen = *listen;
  for (const std::string& spec : SplitKeepEmpty(flags.at("backends"), ',')) {
    if (spec.empty()) continue;
    auto backend = net::Endpoint::Parse(spec);
    if (!backend.ok()) return Fail(backend.status());
    config.backends.push_back(*backend);
  }
  config.health_interval_ms = static_cast<int>(std::min<int64_t>(
      *health_interval_ms, std::numeric_limits<int>::max()));
  net::Router router(config);
  Status status = router.Start();
  if (!status.ok()) return Fail(status);
  if (flags.contains("ready-file")) {
    status = WriteReadyFile(flags.at("ready-file"), router.bound_endpoint());
    if (!status.ok()) {
      router.Stop();
      return Fail(status);
    }
  }
  std::cerr << "route: router on " << router.bound_endpoint().ToString()
            << " over " << config.backends.size() << " backends (pid "
            << ::getpid() << ")\n";

  InstallShutdownHandler();
  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  router.Stop();
  net::RouterStats stats = router.stats();
  std::cout << "route: requests=" << stats.requests
            << "  retried=" << stats.retried << "  failed=" << stats.failed
            << "\n";
  for (const net::BackendStatus& b : stats.backends) {
    std::cout << "route: backend " << b.endpoint.ToString()
              << "  routed=" << b.routed << "  failures=" << b.failures
              << (b.healthy ? "" : "  DOWN") << (b.draining ? "  DRAINING" : "")
              << "\n";
  }
  return 0;
}

/// serve-eval --connect: same eval set and metrics, but each client thread
/// drives a remote replica or router over the wire protocol.
int CmdServeEvalNet(const std::string& dir,
                    const std::unordered_map<std::string, std::string>& flags) {
  auto endpoint = net::Endpoint::Parse(flags.at("connect"));
  if (!endpoint.ok()) return Fail(endpoint.status());
  auto clients_flag = FlagInt(flags, "clients", 4);
  if (!clients_flag.ok()) return Fail(clients_flag.status());
  auto deadline_flag = FlagInt(flags, "deadline-us", 0);
  if (!deadline_flag.ok()) return Fail(deadline_flag.status());
  auto drain = FlagInt(flags, "drain", 0);
  if (!drain.ok()) return Fail(drain.status());
  auto onto = ontology::LoadOntologyFromFile(dir + "/ontology.tsv");
  if (!onto.ok()) return Fail(onto.status());
  auto queries = datagen::LoadSnippetsFromFile(dir + "/queries.tsv", *onto);
  if (!queries.ok()) return Fail(queries.status());
  if (queries->empty()) return Fail(Status::NotFound("no queries in " + dir));

  const size_t num_clients =
      std::max<size_t>(1, static_cast<size_t>(*clients_flag));
  const uint64_t deadline_us = static_cast<uint64_t>(*deadline_flag);
  const std::string ontology =
      flags.contains("ontology") ? flags.at("ontology") : "";
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<double> mrr_sum{0.0};
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      // One connection per thread: Client serialises calls internally, so
      // concurrency comes from the connection count.
      auto client = net::Client::Connect(*endpoint);
      if (!client.ok()) {
        errors.fetch_add((queries->size() + num_clients - 1 - c) / num_clients,
                         std::memory_order_relaxed);
        return;
      }
      for (size_t i = c; i < queries->size(); i += num_clients) {
        const auto& q = (*queries)[i];
        auto response = (*client)->Link(q.tokens, deadline_us, ontology);
        if (!response.ok() || !response->status.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        answered.fetch_add(1, std::memory_order_relaxed);
        for (size_t rank = 0; rank < response->candidates.size(); ++rank) {
          if (response->candidates[rank].concept_id == q.concept_id) {
            if (rank == 0) hits.fetch_add(1, std::memory_order_relaxed);
            double expected = mrr_sum.load(std::memory_order_relaxed);
            const double reciprocal = 1.0 / static_cast<double>(rank + 1);
            while (!mrr_sum.compare_exchange_weak(
                expected, expected + reciprocal, std::memory_order_relaxed)) {
            }
            break;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double elapsed = wall.ElapsedSeconds();

  const double n = static_cast<double>(queries->size());
  std::cout << "queries=" << queries->size() << "  clients=" << num_clients
            << "  connect=" << endpoint->ToString()
            << "  accuracy=" << FormatDouble(static_cast<double>(hits.load()) / n, 3)
            << "  MRR=" << FormatDouble(mrr_sum.load() / n, 3) << "\n";
  std::cout << "qps=" << FormatDouble(n / elapsed, 1)
            << "  answered=" << answered.load() << "  errors=" << errors.load()
            << "\n";

  auto control = net::Client::Connect(*endpoint);
  if (control.ok()) {
    if (auto stats = (*control)->Stats(); stats.ok()) {
      std::cout << "remote: admitted=" << stats->stats.admitted
                << "  completed=" << stats->stats.completed
                << "  deadline_exceeded=" << stats->stats.deadline_exceeded
                << "  batches=" << stats->stats.batches << "\n";
    }
    if (*drain != 0) {
      Status status = (*control)->Drain();
      if (!status.ok()) return Fail(status);
      std::cout << "drain: acknowledged by " << endpoint->ToString() << "\n";
    }
  }
  return errors.load() == 0 ? 0 : 1;
}

int CmdServeEval(const std::vector<std::string>& args,
                 const std::unordered_map<std::string, std::string>& flags) {
  if (args.empty()) return Usage();
  const std::string& dir = args[0];
  if (flags.contains("connect")) return CmdServeEvalNet(dir, flags);
  auto link_config = ServingLinkConfig(flags);
  if (!link_config.ok()) return Fail(link_config.status());
  auto serve_config = ServeConfigFromFlags(flags);
  if (!serve_config.ok()) return Fail(serve_config.status());
  auto slow_log_n = FlagInt(flags, "slow-log-n", 0);
  if (!slow_log_n.ok()) return Fail(slow_log_n.status());
  auto clients_flag = FlagInt(flags, "clients", 4);
  if (!clients_flag.ok()) return Fail(clients_flag.status());
  auto serving = LoadServing(dir, flags);
  if (!serving.ok()) return Fail(serving.status());

  auto queries =
      datagen::LoadSnippetsFromFile(dir + "/queries.tsv", (*serving)->ws.onto);
  if (!queries.ok()) return Fail(queries.status());
  if (queries->empty()) return Fail(Status::NotFound("no queries in " + dir));

  // Hand the serving bundle to a snapshot; the bundle owns the components
  // and outlives the service, so the snapshot aliases without deleting.
  serve::SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(**serving, *link_config));

  if (*slow_log_n > 0) {
    serve_config->slo.enabled = true;
    serve_config->slo.slow_log_n = static_cast<size_t>(*slow_log_n);
    serve_config->slo.check_interval_ms = 100;
  }
  serve::LinkingService service(&registry, *serve_config);

  const size_t num_clients =
      std::max<size_t>(1, static_cast<size_t>(*clients_flag));
  const std::string ontology =
      flags.contains("ontology") ? flags.at("ontology") : "";
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<double> mrr_sum{0.0};
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < queries->size(); i += num_clients) {
        const auto& q = (*queries)[i];
        serve::RequestOptions options;
        options.ontology = ontology;
        serve::LinkResult result = service.Link(q.tokens, options);
        if (!result.status.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (size_t rank = 0; rank < result.candidates.size(); ++rank) {
          if (result.candidates[rank].concept_id == q.concept_id) {
            if (rank == 0) hits.fetch_add(1, std::memory_order_relaxed);
            double expected = mrr_sum.load(std::memory_order_relaxed);
            const double reciprocal = 1.0 / static_cast<double>(rank + 1);
            while (!mrr_sum.compare_exchange_weak(
                expected, expected + reciprocal, std::memory_order_relaxed)) {
            }
            break;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double elapsed = wall.ElapsedSeconds();
  service.Drain();

  serve::ServeStats stats = service.stats();
  const double n = static_cast<double>(queries->size());
  std::cout << "queries=" << queries->size() << "  clients=" << num_clients
            << "  shards=" << serve_config->num_shards
            << "  accuracy=" << FormatDouble(static_cast<double>(hits.load()) / n, 3)
            << "  MRR=" << FormatDouble(mrr_sum.load() / n, 3) << "\n";
  std::cout << "qps=" << FormatDouble(n / elapsed, 1)
            << "  batches=" << stats.batches << "  admitted=" << stats.admitted
            << "  completed=" << stats.completed << "  errors=" << errors.load()
            << "\n";
  if (const serve::SloWatchdog* slo = service.slo_watchdog()) {
    const serve::SloWindowStats w = slo->window();
    std::cout << "slo: window_p50_us=" << FormatDouble(w.window_p50_us, 1)
              << "  window_p99_us=" << FormatDouble(w.window_p99_us, 1)
              << "  error_rate_pct=" << FormatDouble(w.error_rate_pct, 2)
              << "  latency_violations=" << w.latency_violations
              << "  budget_breaches=" << w.error_budget_breaches
              << "  stalls=" << w.stalls << "\n";
    for (const serve::SlowRequest& r : service.slow_requests()) {
      std::cout << "slow: id=" << r.request_id
                << "  total_us=" << FormatDouble(r.total_us, 1)
                << "  queue_us=" << FormatDouble(r.timings.queue_wait_us, 1)
                << "  batch_form_us=" << FormatDouble(r.timings.batch_form_us, 1)
                << "  candgen_us=" << FormatDouble(r.timings.candgen_us, 1)
                << "  ed_us=" << FormatDouble(r.timings.ed_us, 1)
                << "  rank_us=" << FormatDouble(r.timings.rank_us, 1)
                << "  \"" << r.query << "\"\n";
    }
  }
  return errors.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::unordered_map<std::string, std::string> flags;
  std::vector<std::string> model_specs;
  std::vector<std::string> positional =
      ParseFlags(argc - 2, argv + 2, &flags, &model_specs);

  const std::string metrics_path =
      flags.contains("metrics-json") ? flags.at("metrics-json") : "";
  const std::string trace_path =
      flags.contains("trace-out") ? flags.at("trace-out") : "";
  const std::string timeseries_path =
      flags.contains("timeseries-out") ? flags.at("timeseries-out") : "";
  auto interval_ms = FlagInt(flags, "metrics-interval-ms", 200);
  if (!interval_ms.ok()) return Fail(interval_ms.status());
  if (!trace_path.empty()) obs::SetTracingEnabled(true);
  std::unique_ptr<obs::MetricsSampler> sampler;
  if (!timeseries_path.empty()) {
    obs::MetricsSampler::Config sampler_config;
    sampler_config.interval_ms = std::max<int64_t>(1, *interval_ms);
    sampler = std::make_unique<obs::MetricsSampler>(
        &obs::MetricsRegistry::Global(), sampler_config);
  }

  int exit_code;
  if (command == "synth") {
    exit_code = CmdSynth(positional, flags);
  } else if (command == "train") {
    exit_code = CmdTrain(positional, flags);
  } else if (command == "link") {
    exit_code = CmdLink(positional, flags);
  } else if (command == "eval") {
    exit_code = CmdEval(positional, flags);
  } else if (command == "serve-eval") {
    exit_code = CmdServeEval(positional, flags);
  } else if (command == "serve-net") {
    exit_code = CmdServeNet(positional, flags, model_specs);
  } else if (command == "route") {
    exit_code = CmdRoute(positional, flags);
  } else {
    return Usage();
  }

  // Every requested output is attempted even after an earlier one fails —
  // a broken --trace-out path must not cost the --metrics-json dump — and
  // any failure makes the exit non-zero so CI cannot silently lose
  // artifacts.
  int write_failures = 0;
  auto report_write = [&write_failures](const Status& status) {
    if (!status.ok()) {
      std::cerr << "ncl: " << status.ToString() << std::endl;
      ++write_failures;
    }
  };
  if (sampler != nullptr) {
    sampler->SampleNow();  // flush the tail interval
    sampler->Stop();
    Status status = sampler->WriteJson(timeseries_path);
    report_write(status);
    if (status.ok()) {
      std::cerr << "wrote metrics time series to " << timeseries_path << " ("
                << sampler->sample_count() << " samples)\n";
    }
  }
  if (!metrics_path.empty()) {
    Status status =
        obs::MetricsRegistry::Global().Snapshot().WriteJsonFile(metrics_path);
    report_write(status);
    if (status.ok()) {
      std::cerr << "wrote metrics snapshot to " << metrics_path << "\n";
    }
  }
  if (!trace_path.empty()) {
    Status status = obs::WriteChromeTrace(trace_path);
    report_write(status);
    if (status.ok()) {
      std::cerr << "wrote Chrome trace to " << trace_path
                << " (open in https://ui.perfetto.dev)\n";
    }
  }
  if (exit_code != 0) return exit_code;
  return write_failures > 0 ? 1 : 0;
}
