#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "comaid/model_io.h"
#include "datagen/medical_vocabulary.h"
#include "datagen/query_generator.h"
#include "fixtures.h"
#include "net/client.h"
#include "net/router.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "spans.h"
#include "stats.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ncl::Result;
using ncl::Status;
using ncl::Stopwatch;
using ncl::datagen::LabeledQuery;
using ncl::linking::ScoredCandidate;

struct WorkloadConfig {
  const char* name;
  bool paper_scale;        ///< icd10 93k corpus, else hospital-x at kScale
  size_t replicas;         ///< 0: one in-process service, else N behind a router
  size_t shards;           ///< per service
  size_t max_batch;        ///< per service
  /// Open loop: requests fall due at this fixed rate, never recomputed per
  /// run, so every revision sees the same offered load. 0: closed loop.
  double rate_per_s;
  bool zipf;               ///< Zipf(1) over the pool, else a seeded shuffle
  double publish_every_s;  ///< hot model publishes (0: none)
  size_t pool_size;        ///< distinct generated queries
  size_t quality_size;     ///< fixed quality list
  size_t setup_reps;       ///< setups per run; see LowerQuartile
  /// Traced run without hot publishes: fresh-model publishes timed after
  /// the timed phase (each warms the new model's concept encodings).
  size_t publish_probes;
};

constexpr double kScale = 0.6;
constexpr size_t kK = 20;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kOracleSample = 300;
/// Closed-loop record buffer per generator thread per measured second
/// (about four times the fastest workload's rate today).
constexpr size_t kRecordsPerThreadSecond = 2500;
constexpr size_t kProbeQueries = 300;
/// linking.parallel_speedup alternates one-thread and nproc-thread rounds of
/// this length and compares their medians.
constexpr double kSpeedupSeconds = 0.5;
constexpr size_t kSpeedupRounds = 3;
/// Quality metrics use one fixed list (not the run seed), so they repeat
/// exactly from run to run.
constexpr uint64_t kQualitySeed = 20180610;
/// The query pool and its Zipf popularity order are fixed too; the run seed
/// draws the request sequence from them. With a seeded pool the few most
/// popular queries (a tenth of Zipf(1) traffic is the top query) would differ
/// from seed to seed and move the latency figures by their own cost.
constexpr uint64_t kPoolSeed = 2018;
/// An open-loop run whose generator sent its p99 request later than this
/// after its due time (50 inter-arrival gaps at 1000/s: every connection
/// stayed busy that long) has fallen behind its schedule: the run is
/// invalid.
constexpr double kMaxLateUs = 50000.0;
/// Traced runs alternate untraced and traced slices of the timed phase, so
/// trace.overhead compares the two under the same host conditions.
constexpr size_t kTraceSlices = 10;

// A hospital-x setup takes ~6 ms, so it is repeated 200 times (~1.5 s); a
// 93k setup takes ~6 s.
constexpr WorkloadConfig kWorkloads[] = {
    {"coding_backlog", false, 0, 4, 8, 0.0, false, 0.0, 2000, 1000, 200, 5},
    {"clinic_router", false, 2, 2, 4, 1000.0, true, 1.0, 1000, 1000, 100, 0},
    {"icd10_93k", true, 0, 4, 8, 0.0, false, 0.0, 16000, 1000, 3, 2},
};

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& config : kWorkloads) {
    if (name == config.name) return &config;
  }
  return nullptr;
}

double MicrosSince(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

/// Nearest-rank p25 of the run's setups. One hospital-x setup takes ~6 ms
/// on a quiet host and ~10 ms while the host is slow, and the share of slow
/// setups varies from run to run (10-65% on a shared 4-vCPU machine), so a
/// median jumps between the two; the lower quartile follows the setup's own
/// cost unless three quarters of the setups were slowed.
double LowerQuartile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.25);
}

std::string JsonString(const std::string& s) { return "\"" + s + "\""; }

std::string Num(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::vector<LabeledQuery> GenerateQueries(const ncl::ontology::Ontology& onto,
                                          size_t count, uint64_t seed) {
  ncl::datagen::QueryGeneratorConfig config;
  config.group_size = count;
  config.purposive_per_group = count / 6;
  config.seed = seed;
  ncl::datagen::QueryGenerator generator(
      onto, ncl::datagen::DefaultMedicalVocabulary(), config);
  return generator.GenerateGroups(1)[0];
}

std::vector<uint32_t> Shuffled(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  ncl::Rng rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Index(i)]);
  return order;
}

/// `count` draws from Zipf(1) over ranks 1..n; rank r maps to pool entry
/// perm[r - 1] of a fixed permutation, so every seed shares the popular
/// queries.
std::vector<uint32_t> ZipfSequence(size_t n, size_t count, uint64_t seed) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  const std::vector<uint32_t> perm = Shuffled(n, kPoolSeed);
  ncl::Rng rng(seed);
  std::vector<uint32_t> sequence(count);
  for (size_t i = 0; i < count; ++i) {
    const double u = rng.Uniform() * total;
    const size_t rank = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    sequence[i] = perm[std::min(rank, n - 1)];
  }
  return sequence;
}

/// One answer, whichever way the request travelled.
struct Answer {
  Status status;
  uint64_t version = 0;
  ncl::serve::RequestTimings timings;
  std::vector<ScoredCandidate> candidates;
};

/// Sends `query` on behalf of generator thread `thread`.
using Caller =
    std::function<Answer(size_t thread, const std::vector<std::string>& query)>;

/// The system under test, as started for one setup repetition.
struct Deployment {
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<ncl::net::Router> router;
  /// One connection per generator thread (wire workloads).
  std::vector<std::unique_ptr<ncl::net::Client>> clients;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    clients.clear();
    if (router != nullptr) router->Stop();
    replicas.clear();
  }

  Caller MakeCaller() {
    if (router == nullptr) {
      ncl::serve::LinkingService* service = &replicas[0]->service();
      return [service](size_t, const std::vector<std::string>& query) {
        ncl::serve::LinkResult r = service->Link(query);
        return Answer{r.status, r.snapshot_version, r.timings,
                      std::move(r.candidates)};
      };
    }
    return [this](size_t thread, const std::vector<std::string>& query) {
      auto r = clients[thread]->Link(query);
      if (!r.ok()) return Answer{r.status(), 0, {}, {}};
      return Answer{r->status, r->snapshot_version, r->timings,
                    std::move(r->candidates)};
    };
  }
};

/// Start every replica (and the router) of `config`: the span setup_s
/// measures.
Result<std::unique_ptr<Deployment>> StartDeployment(const Corpus& corpus,
                                                    const WorkloadConfig& config,
                                                    const std::string& dir) {
  auto deployment = std::make_unique<Deployment>();
  ReplicaOptions options;
  options.k = kK;
  options.shards = config.shards;
  options.max_batch = config.max_batch;
  const size_t count = std::max<size_t>(config.replicas, 1);
  ncl::net::RouterConfig router_config;
  for (size_t i = 0; i < count; ++i) {
    if (config.replicas > 0) options.socket_path = dir + "/r" + std::to_string(i) + ".sock";
    auto replica = Replica::Start(corpus, options);
    if (!replica.ok()) return replica.status();
    if (config.replicas > 0) {
      router_config.backends.push_back(replica.value()->server()->bound_endpoint());
    }
    deployment->replicas.push_back(std::move(replica).value());
  }
  if (config.replicas > 0) {
    router_config.listen.kind = ncl::net::Endpoint::Kind::kUnix;
    router_config.listen.path = dir + "/router.sock";
    deployment->router = std::make_unique<ncl::net::Router>(router_config);
    Status status = deployment->router->Start();
    if (!status.ok()) return status;
  }
  return deployment;
}

Status ConnectClients(Deployment* deployment, size_t threads) {
  for (size_t t = 0; t < threads; ++t) {
    auto client = ncl::net::Client::Connect(deployment->router->bound_endpoint());
    if (!client.ok()) return client.status();
    deployment->clients.push_back(std::move(client).value());
  }
  return Status::OK();
}

/// One request of the timed phase. Fixed size: the per-thread buffers are
/// allocated and touched before setup starts, so recording adds nothing to
/// rss_mb however many requests a run completes.
struct Record {
  uint32_t query = 0;
  uint32_t thread = 0;
  bool ok = false;           ///< status OK
  bool well_formed = false;  ///< passed CheckShape
  bool traced = false;
  uint64_t version = 0;
  double due_us = 0.0;
  double call_start_us = 0.0;
  double call_end_us = 0.0;
  double done_us = 0.0;
  /// Generator lateness: open loop, send time minus due time; closed loop,
  /// the caller's gap between its previous reply and this send.
  double late_us = 0.0;
  ncl::serve::RequestTimings timings;
};

/// A served answer kept for the exact oracle.
struct KeptAnswer {
  uint32_t query = 0;
  uint64_t version = 0;
  std::vector<ScoredCandidate> candidates;
};

/// What one generator thread saw: its records, the first failure, a seeded
/// reservoir sample of its well-formed answers for the oracle, and (traced
/// runs) the spans it recorded.
struct ThreadLog {
  std::vector<Record> records;
  size_t used = 0;
  bool full = false;  ///< the buffer filled before the phase ended
  std::string first_error;
  std::vector<KeptAnswer> kept;
  size_t keep = 0;    ///< reservoir size
  uint64_t offered = 0;
  ncl::Rng rng;
  std::vector<Span> spans;
  uint64_t next_span = 0;

  ThreadLog(size_t capacity, size_t reservoir, uint64_t seed)
      : records(capacity), keep(reservoir), rng(seed) {
    kept.reserve(reservoir);
  }
  void Reset() {
    used = 0;
    full = false;
    first_error.clear();
    kept.clear();
    offered = 0;
    spans.clear();
  }
  void Keep(uint32_t query, uint64_t version, std::vector<ScoredCandidate> answer) {
    ++offered;
    if (kept.size() < keep) {
      kept.push_back(KeptAnswer{query, version, std::move(answer)});
    } else if (const uint64_t j = rng.UniformInt(offered); j < keep) {
      kept[j] = KeptAnswer{query, version, std::move(answer)};
    }
  }
};

struct LoadPlan {
  size_t threads = 1;
  double seconds = 0.0;
  bool open_loop = false;
  double rate = 0.0;         ///< open loop
  size_t total = 0;          ///< open loop: requests in the schedule
  /// Trace the odd slices: their requests record spans as they complete.
  bool trace = false;
  bool wire = false;         ///< requests cross net (span layout)
  double rewrite_share = 0.0;  ///< see AppendRequestSpans
  std::function<uint32_t(uint64_t)> query_of;
};

/// Run the generator, one thread per log; every answer is shape-checked as
/// it arrives. A closed-loop thread whose buffer fills stops early. A traced
/// request appends its spans to its thread's buffer before it counts as
/// done, so its latency carries the cost of tracing.
void RunLoad(const LoadPlan& plan, const Caller& call,
             const std::vector<LabeledQuery>& pool, Clock::time_point epoch,
             Clock::time_point start, std::vector<ThreadLog>* logs) {
  std::atomic<uint64_t> next{0};
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(plan.seconds));
  const double slice_us = plan.seconds * 1e6 / static_cast<double>(kTraceSlices);
  const double start_us = MicrosSince(epoch, start);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < plan.threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadLog& log = (*logs)[t];
      log.Reset();
      log.next_span = (static_cast<uint64_t>(t + 1) << 40) + 1;
      Clock::time_point last_done = start;
      while (true) {
        if (log.used == log.records.size()) {
          log.full = true;
          break;
        }
        const uint64_t i = next.fetch_add(1);
        Clock::time_point due;
        if (plan.open_loop) {
          if (i >= plan.total) break;
          due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(i) / plan.rate));
          std::this_thread::sleep_until(due);
        } else {
          due = Clock::now();
          if (due >= end) break;
        }
        Record& record = log.records[log.used++];
        record = Record{};
        record.query = plan.query_of(i);
        record.thread = static_cast<uint32_t>(t);
        record.due_us = MicrosSince(epoch, due);
        const Clock::time_point call_start = Clock::now();
        record.late_us = plan.open_loop
                             ? MicrosSince(due, call_start)
                             : MicrosSince(last_done, call_start);
        Answer answer = call(t, pool[record.query].tokens);
        const Clock::time_point call_end = Clock::now();
        record.call_start_us = MicrosSince(epoch, call_start);
        record.call_end_us = MicrosSince(epoch, call_end);
        record.ok = answer.status.ok();
        record.version = answer.version;
        record.timings = answer.timings;
        if (record.ok) {
          const std::string shape = CheckShape(answer.candidates, kK);
          record.well_formed = shape.empty();
          if (!record.well_formed && log.first_error.empty()) {
            log.first_error = "malformed answer: " + shape;
          }
        } else if (log.first_error.empty()) {
          log.first_error = answer.status.ToString();
        }
        if (record.well_formed) {
          log.Keep(record.query, record.version, std::move(answer.candidates));
        }
        last_done = Clock::now();
        record.done_us = MicrosSince(epoch, last_done);
        if (plan.trace) {
          const auto slice = static_cast<size_t>(
              std::max(0.0, record.due_us - start_us) / slice_us);
          record.traced = slice % 2 == 1;
        }
        if (record.traced) {
          RequestObservation obs;
          // Ids are unique across threads: the thread number in the top bits.
          obs.request = (static_cast<uint64_t>(t + 1) << 40) | log.used;
          obs.thread = record.thread;
          obs.due_us = record.due_us;
          obs.call_start_us = record.call_start_us;
          obs.call_end_us = record.call_end_us;
          obs.done_us = record.done_us;
          obs.wire = plan.wire;
          obs.timings = record.timings;
          AppendRequestSpans(obs, plan.rewrite_share, &log.next_span, &log.spans);
          last_done = Clock::now();
          record.done_us = MicrosSince(epoch, last_done);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
}

/// Each query of `queries` once, spread over `threads` callers.
std::vector<Answer> RunOnce(const Caller& call,
                            const std::vector<LabeledQuery>& queries,
                            size_t threads) {
  std::vector<Answer> answers(queries.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = next.fetch_add(1); i < queries.size(); i = next.fetch_add(1)) {
        answers[i] = call(t, queries[i].tokens);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return answers;
}

/// Publish a freshly loaded copy of the saved weights to `replica`, as a
/// retrain loop would, and return the milliseconds the NclSnapshot build
/// (which warms the new model's concept encodings, as `ncl serve-net` warms
/// its models) and the TenantRegistry publish took.
Result<double> PublishFresh(const Corpus& corpus, Replica* replica) {
  auto model = ncl::comaid::LoadModel(corpus.model_path, &corpus.onto);
  if (!model.ok()) return model.status();
  std::shared_ptr<const ncl::comaid::ComAidModel> shared = std::move(model).value();
  Stopwatch watch;
  replica->Publish(std::move(shared), /*warm_cache=*/true);
  return watch.ElapsedMillis();
}

/// Publishes a fresh copy of the weights to every replica every `every_s`
/// seconds until stopped, timing each publish. Snapshots are warmed before
/// they go live, so a swap costs the readers CPU, not cache misses.
class Publisher {
 public:
  Publisher(const Corpus& corpus, Deployment* deployment, double every_s)
      : corpus_(corpus), deployment_(deployment), every_s_(every_s) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Publisher() { Stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop.
  const std::vector<double>& publish_ms() const { return publish_ms_; }
  const std::string& error() const { return error_; }

 private:
  void Loop() {
    auto next = Clock::now();
    while (true) {
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(every_s_));
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (cv_.wait_until(lock, next, [this] { return stop_; })) return;
      }
      for (auto& replica : deployment_->replicas) {
        auto ms = PublishFresh(corpus_, replica.get());
        if (!ms.ok()) {
          error_ = ms.status().ToString();
          return;
        }
        publish_ms_.push_back(ms.value());
      }
    }
  }

  const Corpus& corpus_;
  Deployment* deployment_;
  const double every_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> publish_ms_;
  std::string error_;
  std::thread thread_;
};

/// Sum of ServeStats over the deployment's replicas.
ncl::serve::ServeStats TotalServeStats(const Deployment& deployment) {
  ncl::serve::ServeStats total;
  for (const auto& replica : deployment.replicas) {
    ncl::serve::ServeStats s = replica->service().stats();
    total.rejected += s.rejected;
    total.shed += s.shed;
    total.deadline_exceeded += s.deadline_exceeded;
    total.completed += s.completed;
    total.batches += s.batches;
  }
  return total;
}

/// Direct single-thread timings of the linking-layer public calls.
struct LinkingProbe {
  std::vector<double> rewrite_us;
  std::vector<double> candgen_us;
  std::vector<double> link_us;
  std::vector<double> ed_us;
  size_t rewritten = 0;
  size_t lanes = 0;
  double phase_rewrite_us = 0.0;
  double phase_retrieve_us = 0.0;
};

LinkingProbe ProbeLinking(const Replica& replica,
                          const ncl::linking::NclLinker& linker,
                          const std::vector<LabeledQuery>& queries) {
  LinkingProbe probe;
  for (const LabeledQuery& query : queries) {
    std::vector<std::string> rewritten = query.tokens;
    if (replica.rewriter() != nullptr) {
      Stopwatch watch;
      rewritten = replica.rewriter()->Rewrite(query.tokens);
      probe.rewrite_us.push_back(watch.ElapsedMicros());
      if (rewritten != query.tokens) ++probe.rewritten;
    }
    Stopwatch watch;
    std::vector<ncl::ontology::ConceptId> candidates =
        replica.candidates().TopK(rewritten, kK);
    probe.candgen_us.push_back(watch.ElapsedMicros());

    ncl::linking::PhaseTimings phases;
    watch.Reset();
    std::vector<ScoredCandidate> ranking = linker.LinkDetailed(query.tokens, &phases);
    probe.link_us.push_back(watch.ElapsedMicros());
    // Without a rewriter the OR stage is the linker's pass-through copy.
    if (replica.rewriter() == nullptr) probe.rewrite_us.push_back(phases.rewrite_us);
    probe.ed_us.push_back(phases.score_us);
    probe.lanes += ranking.size();
    probe.phase_rewrite_us += phases.rewrite_us;
    probe.phase_retrieve_us += phases.retrieve_us;
  }
  return probe;
}

/// Queries/s of `threads` threads calling LinkDetailed on disjoint queries.
double LinkRate(const ncl::linking::NclLinker& linker,
                const std::vector<LabeledQuery>& pool, size_t threads,
                double seconds) {
  std::atomic<uint64_t> done{0};
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t count = 0;
      for (size_t j = t; Clock::now() < end; j += threads) {
        linker.LinkDetailed(pool[j % pool.size()].tokens);
        ++count;
      }
      done.fetch_add(count);
    });
  }
  for (auto& worker : workers) worker.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(done.load()) / elapsed;
}

/// Wire probe for in-process workloads: the same service behind a
/// net::Server and a one-backend Router, `queries` sent one at a time.
struct WireProbe {
  std::vector<double> rtt_us;
  std::vector<double> overhead_us;
  uint64_t retried = 0;
  uint64_t failed = 0;
  size_t errors = 0;
};

Result<WireProbe> ProbeWire(Replica* replica, const std::string& dir,
                            const std::vector<LabeledQuery>& queries) {
  Status status = replica->Listen(dir + "/probe.sock");
  if (!status.ok()) return status;
  ncl::net::RouterConfig config;
  config.listen.kind = ncl::net::Endpoint::Kind::kUnix;
  config.listen.path = dir + "/probe_router.sock";
  config.backends.push_back(replica->server()->bound_endpoint());
  ncl::net::Router router(config);
  status = router.Start();
  if (!status.ok()) return status;
  WireProbe probe;
  {
    auto client = ncl::net::Client::Connect(router.bound_endpoint());
    if (!client.ok()) {
      router.Stop();
      return client.status();
    }
    for (const LabeledQuery& query : queries) {
      Stopwatch watch;
      auto response = client.value()->Link(query.tokens);
      const double rtt = watch.ElapsedMicros();
      if (!response.ok() || !response->status.ok()) {
        ++probe.errors;
        continue;
      }
      probe.rtt_us.push_back(rtt);
      probe.overhead_us.push_back(rtt - response->timings.total_us);
    }
  }
  router.Stop();
  ncl::net::RouterStats stats = router.stats();
  probe.retried = stats.retried;
  probe.failed = stats.failed;
  return probe;
}

uint64_t CounterValue(const char* name) {
  return ncl::obs::MetricsRegistry::Global().GetCounter(name)->value();
}

std::string SimdPath() {
#if PERFBENCH_NATIVE
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return "avx2+fma";
  }
#endif
  return "scalar";
}

}  // namespace

Result<RunResult> RunWorkload(const RunOptions& options) {
  const WorkloadConfig* found = FindWorkload(options.workload);
  if (found == nullptr) {
    return Status::InvalidArgument("unknown workload \"" + options.workload + "\"");
  }
  const WorkloadConfig& config = *found;
  if (!(options.seconds > 0.0)) {
    return Status::InvalidArgument("--seconds must be positive");
  }
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Status::IOError("cannot create " + options.work_dir + ": " + ec.message());

  RunResult result;
  auto note = [&](const std::string& line) { result.notes.push_back(line); };
  auto fail = [&](const std::string& why) {
    result.correct = false;
    note("INCORRECT: " + why);
  };
  auto& prov = result.provenance;

  // --- Offline: corpus, model, inputs. Not part of setup_s.
  auto corpus_or = config.paper_scale ? MakeIcd10PaperScale(options.work_dir)
                                      : MakeHospitalX(kScale, options.work_dir);
  if (!corpus_or.ok()) return corpus_or.status();
  const Corpus& corpus = *corpus_or.value();
  const std::vector<LabeledQuery> pool =
      GenerateQueries(corpus.onto, config.pool_size, kPoolSeed);
  const std::vector<LabeledQuery> quality =
      GenerateQueries(corpus.onto, config.quality_size, kQualitySeed);

  LoadPlan plan;
  plan.threads = threads;
  plan.seconds = options.seconds;
  plan.open_loop = config.rate_per_s > 0.0;
  plan.trace = options.trace;
  std::vector<uint32_t> sequence;
  if (plan.open_loop) {
    plan.rate = config.rate_per_s;
    plan.total = static_cast<size_t>(std::floor(plan.rate * plan.seconds));
    sequence = ZipfSequence(pool.size(), plan.total, options.seed);
  } else {
    sequence = Shuffled(pool.size(), options.seed);
  }
  plan.query_of = [&sequence](uint64_t i) {
    return sequence[static_cast<size_t>(i % sequence.size())];
  };

  prov.emplace_back("workload", JsonString(config.name));
  prov.emplace_back("seed", std::to_string(options.seed));
  prov.emplace_back("seconds", Num(options.seconds));
  prov.emplace_back("trace", options.trace ? "true" : "false");
  prov.emplace_back("nproc", std::to_string(threads));
  prov.emplace_back("simd", JsonString(SimdPath()));
  prov.emplace_back("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  prov.emplace_back("corpus", JsonString(corpus.name));
  prov.emplace_back("fine_concepts", std::to_string(corpus.fine_concepts));
  prov.emplace_back("model_vocab", std::to_string(corpus.model_vocab));
  prov.emplace_back("dim", std::to_string(corpus.dim));
  prov.emplace_back("k", std::to_string(kK));
  prov.emplace_back("replicas", std::to_string(config.replicas));
  prov.emplace_back("shards", std::to_string(config.shards));
  prov.emplace_back("max_batch", std::to_string(config.max_batch));
  prov.emplace_back("candidate_index",
                    JsonString(corpus.ngram_index ? "ngram" : "token-tfidf"));
  prov.emplace_back("rewriter", corpus.embeddings_path.empty() ? "false" : "true");
  prov.emplace_back("loop", JsonString(plan.open_loop ? "open" : "closed"));
  prov.emplace_back("clients", std::to_string(threads));
  prov.emplace_back("rate_per_s", Num(config.rate_per_s));
  prov.emplace_back("query_mix", JsonString(config.zipf ? "zipf1" : "uniform-shuffle"));
  prov.emplace_back("pool_size", std::to_string(pool.size()));
  prov.emplace_back("quality_size", std::to_string(quality.size()));
  prov.emplace_back("publish_every_s", Num(config.publish_every_s));
  prov.emplace_back("setup_reps", std::to_string(config.setup_reps));
  prov.emplace_back("publish_probes", std::to_string(config.publish_probes));

  // Generator logs are allocated (and their buffers touched) before the
  // start of setup, so they stay out of rss_mb.
  const size_t capacity =
      plan.open_loop
          ? plan.total
          : static_cast<size_t>(std::ceil(options.seconds * kRecordsPerThreadSecond));
  std::vector<ThreadLog> logs;
  for (size_t t = 0; t < threads; ++t) {
    logs.emplace_back(capacity, (kOracleSample + threads - 1) / threads,
                      options.seed * 1000003ULL + t);
    // Half the requests are traced, each with at most seven spans.
    if (options.trace) logs.back().spans.reserve((capacity / 2 + 1) * 7);
  }

  // --- Setup, repeated; the last deployment serves the run.
  const double rss_start = ResidentMb();
  std::vector<double> setup_s;
  std::vector<double> warm_s;
  std::vector<double> index_build_s;
  double index_mb = 0.0;
  std::unique_ptr<Deployment> deployment;
  for (size_t rep = 0; rep < config.setup_reps; ++rep) {
    deployment.reset();
    Stopwatch watch;
    auto started = StartDeployment(corpus, config, options.work_dir);
    if (!started.ok()) return started.status();
    setup_s.push_back(watch.ElapsedSeconds());
    deployment = std::move(started).value();
    const ReplicaSetup& first = deployment->replicas[0]->setup();
    warm_s.push_back(first.warm_s);
    index_build_s.push_back(first.index_build_s);
    if (rep == 0) index_mb = first.index_rss_mb;
  }
  const double setup_p25 = LowerQuartile(setup_s);
  note("setup: " + std::to_string(setup_s.size()) + " reps, p25 " + Num(setup_p25) +
       " s, median " + Num(Median(setup_s)) + " s");
  if (deployment->router != nullptr) {
    Status status = ConnectClients(deployment.get(), threads);
    if (!status.ok()) return status;
  }
  const Caller call = deployment->MakeCaller();

  // --- Warm-up (not measured): caches, allocator, connections.
  {
    LoadPlan warm = plan;
    warm.open_loop = false;
    warm.trace = false;
    warm.seconds = kWarmupSeconds;
    const std::vector<uint32_t> order = Shuffled(pool.size(), options.seed + 1);
    warm.query_of = [&order](uint64_t i) { return order[i % order.size()]; };
    const auto now = Clock::now();
    RunLoad(warm, call, pool, now, now, &logs);
  }

  // --- Traced run: time the linking layer's public calls directly, before
  // the timed phase; the measured rewrite share lets traced requests split
  // their returned candgen time between linking and text.
  Replica& replica = *deployment->replicas[0];
  std::vector<LabeledQuery> probe_queries;
  LinkingProbe link_probe;
  if (options.trace) {
    for (size_t j = 0; j < std::min(kProbeQueries, pool.size()); ++j) {
      probe_queries.push_back(pool[sequence[j % sequence.size()]]);
    }
    link_probe = ProbeLinking(replica, replica.Latest()->linker(), probe_queries);
    plan.wire = deployment->router != nullptr;
    plan.rewrite_share =
        link_probe.phase_rewrite_us /
        std::max(1e-9, link_probe.phase_rewrite_us + link_probe.phase_retrieve_us);
  }

  // --- Timed phase.
  const ncl::serve::ServeStats stats_before = TotalServeStats(*deployment);
  const uint64_t hits_before = CounterValue("ncl.concept_cache.hits");
  const uint64_t misses_before = CounterValue("ncl.concept_cache.misses");
  const Clock::time_point epoch = Clock::now();
  std::unique_ptr<Publisher> publisher;
  if (config.publish_every_s > 0.0) {
    publisher = std::make_unique<Publisher>(corpus, deployment.get(),
                                            config.publish_every_s);
  }
  RunLoad(plan, call, pool, epoch, epoch, &logs);
  const Clock::time_point timed_end = Clock::now();
  if (publisher != nullptr) {
    publisher->Stop();
    if (!publisher->error().empty()) fail("publish failed: " + publisher->error());
  }
  const ncl::serve::ServeStats stats_after = TotalServeStats(*deployment);
  const uint64_t hits = CounterValue("ncl.concept_cache.hits") - hits_before;
  const uint64_t misses = CounterValue("ncl.concept_cache.misses") - misses_before;

  // --- Quality over the fixed list (also shape-checked); then the run's
  // resident-memory growth, before any analysis allocates.
  const std::vector<Answer> answers = RunOnce(call, quality, threads);
  const double rss_mb = ResidentMb() - rss_start;
  size_t top1 = 0;
  size_t recalled = 0;
  for (size_t i = 0; i < quality.size(); ++i) {
    const Answer& a = answers[i];
    const std::string shape = a.status.ok() ? CheckShape(a.candidates, kK)
                                            : a.status.ToString();
    if (!shape.empty()) {
      fail("quality query " + std::to_string(i) + ": " + shape);
      break;
    }
    if (!a.candidates.empty() && a.candidates[0].concept_id == quality[i].concept_id) ++top1;
    for (const ScoredCandidate& c : a.candidates) {
      if (c.concept_id == quality[i].concept_id) {
        ++recalled;
        break;
      }
    }
  }

  // --- Verdicts: failures and malformed answers, then the exact oracle on
  // the reservoir sample.
  std::vector<const Record*> records;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  for (const ThreadLog& log : logs) {
    if (log.full) note("a generator buffer filled; the phase ended early");
    if (!log.first_error.empty()) note("first failure: " + log.first_error);
    for (size_t i = 0; i < log.used; ++i) {
      const Record& r = log.records[i];
      records.push_back(&r);
      if (!r.ok) ++failed;
      else if (!r.well_formed) ++wrong;
    }
  }
  {
    uint64_t sample = 0;
    uint64_t mismatches = 0;
    for (const ThreadLog& log : logs) {
      for (const KeptAnswer& kept : log.kept) {
        ++sample;
        auto snapshot = deployment->replicas[0]->Snapshot(kept.version);
        const std::string why =
            snapshot == nullptr
                ? "no snapshot version " + std::to_string(kept.version)
                : CompareExact(kept.candidates, snapshot->linker().LinkDetailed(
                                                    pool[kept.query].tokens));
        if (!why.empty() && mismatches++ == 0) note("first oracle mismatch: " + why);
      }
    }
    wrong += mismatches;
    note("oracle: " + std::to_string(sample) + " answers re-derived, " +
         std::to_string(mismatches) + " mismatched");
  }
  result.attempted = records.size();
  result.failed = failed + wrong;
  if (result.failed > 0) {
    fail(std::to_string(failed) + " failed and " + std::to_string(wrong) +
         " wrong answers of " + std::to_string(result.attempted));
  }
  if (result.attempted == 0) {
    fail("no request completed");
    result.attempted = 1;
    result.failed = 1;
  }

  std::vector<double> latency_ms;
  std::vector<double> late_us;
  double last_done_us = 0.0;
  for (const Record* r : records) {
    late_us.push_back(r->late_us);
    last_done_us = std::max(last_done_us, r->done_us);
    if (r->ok) latency_ms.push_back((r->done_us - r->due_us) / 1000.0);
  }
  const Summary latency = Summarize(latency_ms);
  const Summary late = Summarize(late_us);
  const double elapsed_s =
      plan.open_loop ? last_done_us / 1e6
                     : std::chrono::duration<double>(timed_end - epoch).count();
  const double qps = static_cast<double>(latency.n) / elapsed_s;
  note("latency: n=" + std::to_string(latency.n) + " p50=" + Num(latency.p50) +
       "ms p99=" + Num(latency.p99) + "ms beyond_p99=" +
       std::to_string(latency.beyond_p99) + " max=" + Num(latency.max) + "ms");
  note("generator: late_us p99=" + Num(late.p99) + " max=" + Num(late.max));
  if (plan.open_loop && late.p99 > kMaxLateUs) {
    fail("generator fell behind its schedule (late_us p99 " + Num(late.p99) + ")");
  }
  if (latency.beyond_p99 < 10) {
    note("warning: p99 rests on " + std::to_string(latency.beyond_p99) +
         " samples beyond it");
  }

  std::vector<std::pair<double, uint32_t>> issued;
  issued.reserve(records.size());
  for (const Record* r : records) issued.emplace_back(r->due_us, r->query);
  std::sort(issued.begin(), issued.end());
  std::unordered_set<std::string> seen;
  size_t repeats = 0;
  for (const auto& [due, query] : issued) {
    if (!seen.insert(ncl::Join(pool[query].tokens, " ")).second) ++repeats;
  }
  const double repeat_share =
      issued.empty() ? 0.0 : static_cast<double>(repeats) / issued.size();
  prov.emplace_back("repeat_share", Num(repeat_share));
  prov.emplace_back("latency_n", std::to_string(latency.n));
  prov.emplace_back("latency_beyond_p99", std::to_string(latency.beyond_p99));
  prov.emplace_back("gen_late_us_p99", Num(late.p99));

  auto metric = [&](const std::string& name, double value, const std::string& unit) {
    result.metrics.push_back(Metric{name, value, unit});
  };

  if (!options.trace) {
    metric("setup_s", setup_p25, "s");
    metric("rss_mb", rss_mb, "MiB");
    metric("qps", qps, "1/s");
    metric("p50_ms", latency.p50, "ms");
    metric("p99_ms", latency.p99, "ms");
    metric("success_rate",
           static_cast<double>(result.attempted - result.failed) / result.attempted,
           "ratio");
    metric("top1_acc", static_cast<double>(top1) / quality.size(), "ratio");
    metric("recall_at_k", static_cast<double>(recalled) / quality.size(), "ratio");
    return result;
  }

  // --- Traced run: per-layer metrics.
  const std::shared_ptr<const ncl::serve::NclSnapshot> live = replica.Latest();
  std::vector<double> rates_1;
  std::vector<double> rates_n;
  for (size_t round = 0; round < kSpeedupRounds; ++round) {
    rates_1.push_back(LinkRate(live->linker(), pool, 1, kSpeedupSeconds));
    rates_n.push_back(LinkRate(live->linker(), pool, threads, kSpeedupSeconds));
  }
  const double rate_1 = Median(rates_1);
  const double rate_n = Median(rates_n);

  // The spans the traced slices recorded, and the traced/untraced latency
  // split.
  std::vector<Span> spans;
  for (const ThreadLog& log : logs) {
    spans.insert(spans.end(), log.spans.begin(), log.spans.end());
  }
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> rtt_us;
  std::vector<double> overhead_us;
  std::vector<double> queue_us;
  std::vector<double> batch_form_us;
  for (const Record* record : records) {
    const Record& r = *record;
    if (!r.ok) continue;
    (r.traced ? traced_ms : untraced_ms).push_back((r.done_us - r.due_us) / 1000.0);
    if (!r.traced) continue;
    queue_us.push_back(r.timings.queue_wait_us);
    batch_form_us.push_back(r.timings.batch_form_us);
    if (plan.wire) {
      rtt_us.push_back(r.call_end_us - r.call_start_us);
      overhead_us.push_back(r.call_end_us - r.call_start_us - r.timings.total_us);
    }
  }
  const SelfTimes self = ComputeSelfTimes(spans);

  // Net: the workload's own traffic when it runs over the wire; otherwise a
  // probe through a Server + Router in front of the same service.
  uint64_t router_retried = 0;
  uint64_t router_failed = 0;
  if (deployment->router != nullptr) {
    const ncl::net::RouterStats stats = deployment->router->stats();
    router_retried = stats.retried;
    router_failed = stats.failed;
  } else {
    auto probe = ProbeWire(&replica, options.work_dir, probe_queries);
    if (!probe.ok()) return probe.status();
    if (probe->errors > 0) fail(std::to_string(probe->errors) + " wire probe errors");
    rtt_us = probe->rtt_us;
    overhead_us = probe->overhead_us;
    router_retried = probe->retried;
    router_failed = probe->failed;
  }

  // Publish: the workload's own hot publishes, or fresh-model publishes
  // after the timed phase.
  std::vector<double> publish_ms;
  if (publisher != nullptr) {
    publish_ms = publisher->publish_ms();
  } else {
    for (size_t i = 0; i < config.publish_probes; ++i) {
      auto ms = PublishFresh(corpus, &replica);
      if (!ms.ok()) return ms.status();
      publish_ms.push_back(ms.value());
    }
  }

  if (!options.trace_path.empty()) {
    Status status = WriteChromeTrace(spans, options.trace_path);
    if (!status.ok()) return status;
    note("trace: " + std::to_string(spans.size()) + " spans -> " + options.trace_path);
  }

  const Summary rtt = Summarize(rtt_us);
  const Summary overhead = Summarize(overhead_us);
  const Summary queue = Summarize(queue_us);
  const Summary publish = Summarize(publish_ms);
  const Summary candgen = Summarize(link_probe.candgen_us);
  const uint64_t batches = stats_after.batches - stats_before.batches;
  const uint64_t completed = stats_after.completed - stats_before.completed;
  const uint64_t serve_failed =
      (stats_after.rejected - stats_before.rejected) +
      (stats_after.shed - stats_before.shed) +
      (stats_after.deadline_exceeded - stats_before.deadline_exceeded);
  double ed_total = 0.0;
  for (double us : link_probe.ed_us) ed_total += us;

  metric("net.rtt_us.p50", rtt.p50, "us");
  metric("net.rtt_us.p99", rtt.p99, "us");
  metric("net.overhead_us.p50", overhead.p50, "us");
  metric("net.overhead_us.p99", overhead.p99, "us");
  metric("net.router.retried", static_cast<double>(router_retried), "count");
  metric("net.router.failed", static_cast<double>(router_failed), "count");
  metric("serve.queue_wait_us.p50", queue.p50, "us");
  metric("serve.queue_wait_us.p99", queue.p99, "us");
  metric("serve.batch_form_us.p50", Summarize(batch_form_us).p50, "us");
  metric("serve.requests_per_batch",
         batches == 0 ? 0.0 : static_cast<double>(completed) / batches, "count");
  metric("serve.failed", static_cast<double>(serve_failed), "count");
  metric("serve.publish_ms.p50", publish.p50, "ms");
  metric("serve.publish_ms.max", publish.max, "ms");
  metric("linking.rewrite_us.p50", Summarize(link_probe.rewrite_us).p50, "us");
  metric("linking.rewrite_share",
         static_cast<double>(link_probe.rewritten) / probe_queries.size(), "ratio");
  metric("linking.candgen_us.p50", candgen.p50, "us");
  metric("linking.candgen_us.p99", candgen.p99, "us");
  metric("linking.link_us.p50", Summarize(link_probe.link_us).p50, "us");
  metric("linking.parallel_speedup", rate_n / rate_1, "ratio");
  metric("comaid.ed_us.p50", Summarize(link_probe.ed_us).p50, "us");
  metric("comaid.ed_us_per_lane",
         link_probe.lanes == 0 ? 0.0 : ed_total / link_probe.lanes, "us");
  metric("comaid.lanes_per_query",
         static_cast<double>(link_probe.lanes) / probe_queries.size(), "count");
  metric("comaid.warm_s", Median(warm_s), "s");
  metric("comaid.cache_hit_ratio",
         hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses),
         "ratio");
  metric("text.index_build_s", Median(index_build_s), "s");
  metric("text.index_mb", index_mb, "MiB");
  metric("setup.train_s", corpus.offline_s, "s");
  metric("trace.residual_share", self.share(Layer::kClient), "ratio");
  const double untraced_p50 = Summarize(untraced_ms).p50;
  metric("trace.overhead",
         untraced_p50 > 0.0 ? Summarize(traced_ms).p50 / untraced_p50 : 0.0, "ratio");
  // In process the net layer is only probed, never on the request path.
  if (deployment->router != nullptr) {
    metric("trace.self_share.net", self.share(Layer::kNet), "ratio");
  }
  metric("trace.self_share.serve", self.share(Layer::kServe), "ratio");
  metric("trace.self_share.linking", self.share(Layer::kLinking), "ratio");
  metric("trace.self_share.text", self.share(Layer::kText), "ratio");
  metric("trace.self_share.comaid", self.share(Layer::kComaid), "ratio");
  metric("gen.late_us.p99", late.p99, "us");
  metric("gen.repeat_share", repeat_share, "ratio");
  note("net samples: n=" + std::to_string(rtt.n) + " (" +
       (deployment->router != nullptr ? "workload traffic" : "wire probe") + ")");
  note("linking probe: " + std::to_string(probe_queries.size()) +
       " single-thread queries; parallel " + Num(rate_n) + "/s vs " + Num(rate_1) + "/s");
  return result;
}

}  // namespace perfbench
