#include "perfbench/src/workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "src/base/random.h"
#include "src/base/socket.h"
#include "src/base/string_util.h"
#include "src/check/oracle.h"
#include "src/doc/event.h"
#include "src/fmt/writer.h"
#include "src/media/block_codec.h"
#include "src/net/stream.h"
#include "src/net/wire.h"
#include "src/obs/obs.h"
#include "src/sched/conflict.h"

namespace perfbench {

using cmif::Status;
using cmif::StatusOr;
namespace api = cmif::api;
namespace net = cmif::net;

const std::vector<cmif::SystemProfile>& Profiles() {
  static const std::vector<cmif::SystemProfile>* const kProfiles =
      new std::vector<cmif::SystemProfile>{cmif::WorkstationProfile(),
                                           cmif::PersonalSystemProfile()};
  return *kProfiles;
}

cmif::ServeOptions ServeOptionsFor(std::size_t cache_capacity) {
  cmif::ServeOptions serve;
  serve.threads = 1;
  serve.cache_capacity = cache_capacity;
  serve.profiles = Profiles();
  return serve;
}

std::uint64_t WorkloadSeed(const Options& options, std::uint64_t salt) {
  return MixSeed(options.seed, salt);
}

StatusOr<Corpus> LoadCorpus(const std::vector<DocInput>& inputs) {
  Corpus corpus;
  corpus.corpus = std::make_unique<cmif::ServeCorpus>();
  cmif::BlockStore no_blocks;
  for (const DocInput& input : inputs) {
    // LoadDocument records its own "fmt.parse" span.
    CMIF_ASSIGN_OR_RETURN(cmif::Document document, api::LoadDocument(input.document_text));
    StatusOr<cmif::DescriptorStore> catalog = [&] {
      cmif::obs::Span span("ddbms.catalog_load");
      span.Annotate("bytes", input.catalog_text.size());
      return api::LoadCatalog(input.catalog_text);
    }();
    CMIF_RETURN_IF_ERROR(catalog.status());
    cmif::obs::Span span("serve.add_document");
    CMIF_RETURN_IF_ERROR(
        corpus.corpus->AddDocument(input.name, std::move(document), *catalog, no_blocks));
    corpus.catalogs.push_back(std::move(*catalog));
  }
  return corpus;
}

StatusOr<Corpus> LoadNewsCorpus(int documents, std::uint64_t seed) {
  cmif::obs::Span span("serve.build_news_corpus");
  Corpus corpus;
  CMIF_ASSIGN_OR_RETURN(corpus.corpus, api::BuildNewsCorpus(documents, 3, seed));
  return corpus;
}

std::size_t PairCount(const Corpus& corpus) {
  return corpus.corpus->size() * Profiles().size();
}

api::PresentRequest RequestFor(const Corpus& corpus, std::size_t pair) {
  api::PresentRequest request;
  request.document = corpus.corpus->document(pair / Profiles().size()).name;
  request.profile = Profiles()[pair % Profiles().size()].name;
  return request;
}

std::vector<std::size_t> ShuffledRound(std::size_t pairs, std::uint64_t seed) {
  std::vector<std::size_t> order(pairs);
  std::iota(order.begin(), order.end(), 0);
  cmif::Rng rng(seed);
  for (std::size_t i = pairs; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

std::vector<std::size_t> ZipfRound(std::size_t pairs, std::size_t length, double skew,
                                   std::uint64_t seed) {
  // Rank r gets its Zipf share of the round, rounded by largest remainder,
  // so every seed requests each pair equally often.
  std::vector<double> share(pairs);
  double total = 0;
  for (std::size_t r = 0; r < pairs; ++r) {
    share[r] = 1.0 / std::pow(static_cast<double>(r + 1), skew);
    total += share[r];
  }
  std::vector<std::size_t> count(pairs);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < pairs; ++r) {
    const double exact = share[r] / total * static_cast<double>(length);
    count[r] = static_cast<std::size_t>(exact);
    assigned += count[r];
    remainders.emplace_back(exact - static_cast<double>(count[r]), r);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned + i < length; ++i) {
    ++count[remainders[i].second];
  }
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < pairs; ++r) {
    out.insert(out.end(), count[r], r);
  }
  cmif::Rng rng(seed);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.NextBelow(i)]);
  }
  return out;
}

std::vector<std::size_t> RoundOrder(const std::string& workload, std::size_t pairs,
                                    std::uint64_t seed) {
  return workload == "warm_hit" ? ZipfRound(pairs, kWarmRoundRequests, kWarmZipfSkew, seed)
                                : ShuffledRound(pairs, seed);
}

std::vector<std::size_t> EditReads(std::size_t pairs, std::size_t edits, std::uint64_t seed) {
  return ZipfRound(pairs, edits, kEditZipfSkew, seed);
}

namespace {

// The in-process reference compile of one pair.
StatusOr<cmif::CompiledPresentation> CompileInProcess(const cmif::ServeCorpus& corpus,
                                                      std::size_t document,
                                                      const cmif::SystemProfile& profile) {
  api::PipelineOptions options;
  options.profile = profile;
  StatusOr<api::CompileReport> report =
      corpus.store().WithRead([&](const cmif::DescriptorStore& store) {
        return corpus.blocks().WithRead([&](const cmif::BlockStore& blocks) {
          return api::Compile(corpus.document(document).document, store, blocks, options);
        });
      });
  CMIF_RETURN_IF_ERROR(report.status());
  cmif::CompiledPresentation compiled;
  compiled.map = std::move(report->presentation_map);
  compiled.filter = std::move(report->filter);
  compiled.schedule = std::move(report->schedule);
  return compiled;
}

// Checks that every scheduled event of `compiled` sits at the naive
// oracle's earliest times for the same network (capability constraints and
// may-arc relaxation included), built independently from `document`.
Status CheckAgainstOracle(const cmif::Document& document, const cmif::DescriptorStore& store,
                          const cmif::SystemProfile& profile,
                          const cmif::CompiledPresentation& compiled) {
  CMIF_ASSIGN_OR_RETURN(std::vector<cmif::EventDescriptor> events,
                        cmif::CollectEvents(document, &store));
  CMIF_ASSIGN_OR_RETURN(cmif::TimeGraph graph, cmif::TimeGraph::Build(document, events));
  CMIF_RETURN_IF_ERROR(cmif::InjectCapabilityConstraints(graph, document, events, profile));
  // Relaxation disables the may-arcs it drops; the oracle then judges the
  // network the scheduler settled on.
  CMIF_ASSIGN_OR_RETURN(cmif::ScheduleResult relaxed, cmif::SolveSchedule(graph, events));
  cmif::check::OracleResult oracle = cmif::check::OracleSolve(graph);
  if (!oracle.feasible || !compiled.schedule.feasible || !relaxed.feasible) {
    return cmif::InternalError(cmif::StrFormat(
        "feasibility: oracle %d, compile %d, relaxed %d", oracle.feasible,
        compiled.schedule.feasible, relaxed.feasible));
  }
  const auto& scheduled = compiled.schedule.schedule.events();
  if (scheduled.size() != events.size()) {
    return cmif::InternalError("compiled schedule has a different event count");
  }
  for (const cmif::ScheduledEvent& event : scheduled) {
    CMIF_ASSIGN_OR_RETURN(int begin, graph.PointOf(*event.event.node, cmif::PointKind::kBegin));
    CMIF_ASSIGN_OR_RETURN(int end, graph.PointOf(*event.event.node, cmif::PointKind::kEnd));
    if (event.begin != oracle.times[static_cast<std::size_t>(begin)] ||
        event.end != oracle.times[static_cast<std::size_t>(end)]) {
      return cmif::InternalError("event " + event.event.node->DisplayPath() +
                                 " is not at the oracle's earliest times");
    }
  }
  return Status::Ok();
}

// Hash of a point-time vector (the edit check compares hashes, not copies).
std::uint64_t HashTimes(const std::vector<cmif::MediaTime>& times) {
  std::uint64_t hash = cmif::Fnv1a64("times");
  for (const cmif::MediaTime& time : times) {
    hash = cmif::Fnv1a64Combine(hash, static_cast<std::uint64_t>(time.num()));
    hash = cmif::Fnv1a64Combine(hash, static_cast<std::uint64_t>(time.den()));
  }
  return hash;
}

// The manifest prefix every event beginning at presentation time 0 needs:
// bytes of the stream's logical payload through the last such block.
std::uint64_t FirstFrameBytes(const std::vector<net::StreamBlockInfo>& manifest) {
  std::uint64_t offset = 0;
  std::uint64_t through = 0;
  for (const net::StreamBlockInfo& block : manifest) {
    offset += block.bytes;
    if (block.first_need == cmif::MediaTime()) {
      through = offset;
    }
  }
  return through;
}

// Runs check(i) for i in [0, n) on three threads and returns the first
// failure. Checks run after the timed loop, while the server idles.
Status ParallelChecks(std::size_t n, const std::function<Status(std::size_t)>& check) {
  constexpr int kCheckThreads = 3;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  Status first = Status::Ok();
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      Status status = check(i);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first.ok()) {
          first = std::move(status);
        }
        next = n;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < kCheckThreads; ++t) {
    threads.emplace_back(worker);
  }
  worker();
  for (std::thread& thread : threads) {
    thread.join();
  }
  return first;
}

}  // namespace

StatusOr<std::vector<DocInput>> MakeColdInputs(const Options& options) {
  CorpusShape shape;
  shape.documents = kColdDocuments;
  shape.min_leaves = 100;
  shape.max_leaves = 400;
  return GenerateCorpus(WorkloadSeed(options, 11), shape, "cold");
}

StatusOr<EditInputs> MakeEditInputs(const Options& options) {
  CorpusShape shape;
  shape.documents = kEditDocuments;
  shape.min_leaves = 40;
  shape.max_leaves = 80;
  EditInputs inputs;
  CMIF_ASSIGN_OR_RETURN(inputs.documents,
                        GenerateCorpus(WorkloadSeed(options, 41), shape, "edit"));
  for (std::size_t i = 0; i < inputs.documents.size(); ++i) {
    CMIF_ASSIGN_OR_RETURN(EditCycle cycle,
                          GenerateEditCycle(inputs.documents[i], WorkloadSeed(options, 500 + i),
                                            Profiles()));
    inputs.cycles.push_back(std::move(cycle));
  }
  return inputs;
}

namespace {

// One in-process server with one compile worker, and one client connection.
// Members are declared in teardown order reversed: the client disconnects,
// then the server stops, before the corpus it serves is destroyed.
struct Rig {
  Corpus corpus;
  std::unique_ptr<cmif::ServeLoop> loop;
  std::unique_ptr<api::NetServer> server;
  std::unique_ptr<api::NetClient> client;
};

Status StartRig(Rig& rig, std::size_t cache_capacity) {
  rig.loop = std::make_unique<cmif::ServeLoop>(*rig.corpus.corpus, ServeOptionsFor(cache_capacity));
  api::NetServerOptions server_options;
  server_options.workers = 1;
  rig.server = std::make_unique<api::NetServer>(*rig.loop, server_options);
  CMIF_RETURN_IF_ERROR(rig.server->Start());
  api::NetClientOptions client_options;
  client_options.port = rig.server->port();
  // A transport failure is a failed operation, not something to retry away.
  client_options.retry.max_attempts = 1;
  rig.client = std::make_unique<api::NetClient>(client_options);
  return rig.client->Ping();
}

// Both ends' accounting of one timed loop.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;  // requests this client sent
  std::vector<std::string> problems;

  void Problem(std::string what) {
    if (problems.size() < 8) {
      problems.push_back(std::move(what));
    }
  }
  // A response counts as served only when transport succeeded and the
  // server answered kHealthy.
  bool Served(const StatusOr<api::PresentResponse>& response) {
    ++requests;
    if (!response.ok()) {
      ++failed;
      Problem("transport: " + response.status().ToString());
      return false;
    }
    if (response->outcome != cmif::ServeOutcome::kHealthy) {
      ++failed;
      Problem(std::string("outcome ") + std::string(cmif::ServeOutcomeName(response->outcome)) +
              ": " + response->error.ToString());
      return false;
    }
    return true;
  }
};

// The server's view of the loop must match the client's: one server request
// per client request, and one cache hit or miss per server request.
Status CheckServerStats(const net::StatsSnapshot& before, const net::StatsSnapshot& after,
                        const Accounting& accounting, bool expect_all_hits) {
  const std::uint64_t requests = after.requests - before.requests;
  const std::uint64_t hits = after.cache_hits - before.cache_hits;
  const std::uint64_t misses = after.cache_misses - before.cache_misses;
  if (requests != accounting.requests) {
    return cmif::InternalError(cmif::StrFormat("server answered %llu requests, client sent %llu",
                                               static_cast<unsigned long long>(requests),
                                               static_cast<unsigned long long>(accounting.requests)));
  }
  if (hits + misses != requests) {
    return cmif::InternalError("server cache hits + misses != requests");
  }
  if (expect_all_hits && misses != 0) {
    return cmif::InternalError("warm requests missed the cache");
  }
  if (after.failed - before.failed != 0 && accounting.failed == 0) {
    return cmif::InternalError("server counted failures the client did not see");
  }
  return Status::Ok();
}

// The timed loop's clock and record. Per operation: its latency, and its
// busy time (the operation plus whatever the workload does for it before
// the next one); visibility samples belong to the operation they follow.
// The record's size does not grow with the number of operations, so a
// faster program does not show a larger peak_rss_mb.
class LoopClock {
 public:
  explicit LoopClock(double seconds) : seconds_(seconds), wall_start_(Clock::now()) {}

  // Runs stop after `seconds` of timed work, or at a wall-clock cap that
  // bounds the time spent on untimed checks.
  bool Done() const {
    return busy_s_ >= seconds_ || SecondsSince(wall_start_) >= 3 * seconds_ + 30;
  }
  void Op(double seconds) {
    FoldBusy();
    busy_s_ += seconds;
    op_busy_s_ = seconds;
    position_ = in_round_++;
    if (position_ == best_busy_s_.size()) {
      best_busy_s_.push_back(kNone);
      best_latency_ms_.push_back(kNone);
      best_visible_ms_.push_back(kNone);
    }
    last_latency_ms_ = seconds * 1e3;
    best_latency_ms_[position_] = std::min(best_latency_ms_[position_], last_latency_ms_);
    KeepSample(last_latency_ms_);
  }
  // Busy time spent for the last operation after it completed.
  void Busy(double seconds) {
    busy_s_ += seconds;
    op_busy_s_ += seconds;
  }
  void Visible(double ms) {
    best_visible_ms_[position_] = std::min(best_visible_ms_[position_], ms);
  }
  // Marks the end of a round: every round replays the same operations in the
  // same order.
  void EndRound() {
    FoldBusy();
    in_round_ = 0;
    ++rounds_;
  }

  Clock::time_point wall_start() const { return wall_start_; }
  double busy_s() const { return busy_s_; }
  double last_latency_ms() const { return last_latency_ms_; }
  // Whole-loop latencies for the diagnostics: every sample up to kKept,
  // then a uniform reservoir of kKept.
  std::uint64_t samples() const { return samples_; }
  const std::vector<double>& kept_latency_ms() const { return kept_; }

  // The end-to-end timings. Every round replays the same operations in the
  // same order, so an operation's position in its round names it, and each
  // position has one sample per round. A position's figure is its best
  // (lowest) time over the run's rounds. The host's speed drifts, and other
  // load on it slows stretches of seconds by up to a third; a position's
  // best round is one that such load missed, while a slower program slows
  // every round. ops_per_s is a round's operations over the sum of its
  // positions' best busy times; the latency percentiles are taken over the
  // positions' best latencies; visible_ms is the median of the best times
  // of the positions that record one.
  struct Figures {
    double ops_per_s = 0;
    double p50_ms = 0;
    double p90_ms = 0;
    double visible_ms = 0;
    std::size_t rounds = 0;
  };
  Figures Summarize() const {
    Figures figures;
    figures.rounds = rounds_;
    if (rounds_ == 0 || best_busy_s_.empty()) {
      return figures;
    }
    std::vector<double> visible = best_visible_ms_;
    std::erase(visible, kNone);
    figures.ops_per_s = static_cast<double>(best_busy_s_.size()) /
                        std::accumulate(best_busy_s_.begin(), best_busy_s_.end(), 0.0);
    figures.p50_ms = Percentile(best_latency_ms_, 50);
    figures.p90_ms = Percentile(best_latency_ms_, 90);
    figures.visible_ms = visible.empty() ? 0 : Median(visible);
    return figures;
  }

 private:
  static constexpr double kNone = std::numeric_limits<double>::infinity();
  static constexpr std::size_t kKept = 1 << 16;

  void FoldBusy() {
    if (in_round_ > 0) {
      best_busy_s_[position_] = std::min(best_busy_s_[position_], op_busy_s_);
    }
  }
  void KeepSample(double ms) {
    ++samples_;
    if (kept_.size() < kKept) {
      kept_.push_back(ms);
    } else if (const std::uint64_t slot = reservoir_.NextBelow(samples_); slot < kKept) {
      kept_[slot] = ms;
    }
  }

  double seconds_;
  Clock::time_point wall_start_;
  double busy_s_ = 0;
  std::size_t rounds_ = 0;
  std::size_t in_round_ = 0;
  std::size_t position_ = 0;
  double op_busy_s_ = 0;
  double last_latency_ms_ = 0;
  std::vector<double> best_busy_s_;  // per position in the round
  std::vector<double> best_latency_ms_;
  std::vector<double> best_visible_ms_;
  std::uint64_t samples_ = 0;
  std::vector<double> kept_;
  cmif::Rng reservoir_{1};
};

// The result line of an untraced run, and its diagnostics on stderr.
RunResult Finish(const char* workload, Accounting& accounting, const Status& checked,
                 double setup_s, const LoopClock& clock) {
  const std::vector<double>& latency_ms = clock.kept_latency_ms();
  if (!checked.ok()) {
    accounting.Problem(checked.ToString());
  }
  for (const std::string& problem : accounting.problems) {
    std::fprintf(stderr, "%s: %s\n", workload, problem.c_str());
  }
  const double tail = SupportedTailPercentile(clock.samples());
  std::fprintf(stderr, "%s: whole loop: %.2f op/s, %llu latency samples, p50 %.4f ms, p90 %.4f ms",
               workload, static_cast<double>(clock.samples()) / clock.busy_s(),
               static_cast<unsigned long long>(clock.samples()), Percentile(latency_ms, 50),
               Percentile(latency_ms, 90));
  if (tail > 90) {
    std::fprintf(stderr, ", p99 %.4f ms", Percentile(latency_ms, tail));
  }
  const LoopClock::Figures figures = clock.Summarize();
  std::fprintf(stderr,
               "\n%s: best of %zu rounds per operation: %.2f op/s, p50 %.4f ms, p90 %.4f ms, "
               "visible %.4f ms\n",
               workload, figures.rounds, figures.ops_per_s, figures.p50_ms, figures.p90_ms,
               figures.visible_ms);
  RunResult result;
  result.correct = accounting.problems.empty();
  result.attempted = accounting.attempted;
  result.failed = accounting.failed;
  result.metrics["setup_s"] = {setup_s, "s"};
  result.metrics["ops_per_s"] = {figures.ops_per_s, "op/s"};
  result.metrics["latency_p50_ms"] = {figures.p50_ms, "ms"};
  result.metrics["latency_p90_ms"] = {figures.p90_ms, "ms"};
  result.metrics["visible_ms"] = {figures.visible_ms, "ms"};
  result.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return result;
}

// Set-up's last step on the news workloads: one request per pair, so every
// pair is cached before the timed loop.
Status Prime(Rig& rig) {
  Accounting priming;
  for (std::size_t pair = 0; pair < PairCount(rig.corpus); ++pair) {
    if (!priming.Served(rig.client->Present(RequestFor(rig.corpus, pair)))) {
      return cmif::InternalError("priming failed: " + priming.problems.front());
    }
  }
  return Status::Ok();
}

// Request/response workloads: cold_compile and warm_hit.
struct RequestLoopResult {
  std::map<std::size_t, std::string> bodies;  // first body per pair
  std::map<std::size_t, std::uint64_t> hashes;
};

Status RunRequestLoop(Rig& rig, LoopClock& clock, Accounting& accounting,
                      const std::vector<std::size_t>& order, bool expect_hits,
                      RequestLoopResult& out) {
  while (!clock.Done()) {
    for (std::size_t pair : order) {
      api::PresentRequest request = RequestFor(rig.corpus, pair);
      const Clock::time_point start = Clock::now();
      StatusOr<api::PresentResponse> response = rig.client->Present(request);
      clock.Op(SecondsSince(start));
      clock.Visible(clock.last_latency_ms());
      ++accounting.attempted;
      if (!accounting.Served(response)) {
        continue;
      }
      if (expect_hits && !response->cache_hit) {
        accounting.Problem("warm request was not a cache hit");
      }
      const std::uint64_t hash = cmif::Fnv1a64(response->presentation);
      if (hash != response->presentation_hash) {
        accounting.Problem("body does not match its presentation hash");
      }
      auto [it, fresh] = out.hashes.emplace(pair, hash);
      if (fresh) {
        out.bodies.emplace(pair, std::move(response->presentation));
      } else if (it->second != hash) {
        accounting.Problem("one pair was served two different bodies");
      }
    }
    clock.EndRound();
  }
  return Status::Ok();
}

double SetupSeconds(double generation_s) { return SecondsSince(ProcessStart()) - generation_s; }

// cold_compile and warm_hit: the same closed request loop over different
// corpora, request streams and cache sizes.
StatusOr<RunResult> RunRequests(const Options& options) {
  const bool warm = options.workload == "warm_hit";
  const Clock::time_point gen_start = Clock::now();
  std::vector<DocInput> inputs;
  if (!warm) {
    CMIF_ASSIGN_OR_RETURN(inputs, MakeColdInputs(options));
  }
  const double generation_s = SecondsSince(gen_start);

  Rig rig;
  if (warm) {
    CMIF_ASSIGN_OR_RETURN(rig.corpus,
                          LoadNewsCorpus(kWarmDocuments, WorkloadSeed(options, 21)));
    CMIF_RETURN_IF_ERROR(StartRig(rig, kWarmCacheCapacity));
    CMIF_RETURN_IF_ERROR(Prime(rig));
  } else {
    CMIF_ASSIGN_OR_RETURN(rig.corpus, LoadCorpus(inputs));
    CMIF_RETURN_IF_ERROR(StartRig(rig, kColdCacheCapacity));
  }
  const double setup_s = SetupSeconds(generation_s);

  CMIF_ASSIGN_OR_RETURN(net::StatsSnapshot before, rig.client->FetchStats());
  LoopClock clock(options.seconds);
  Accounting accounting;
  RequestLoopResult loop;
  const std::size_t pairs = PairCount(rig.corpus);
  const std::uint64_t seed = WorkloadSeed(options, warm ? 22 : 12);
  CMIF_RETURN_IF_ERROR(RunRequestLoop(rig, clock, accounting,
                                      RoundOrder(options.workload, pairs, seed), warm, loop));
  CMIF_ASSIGN_OR_RETURN(net::StatsSnapshot after, rig.client->FetchStats());

  const Clock::time_point check_start = Clock::now();
  Status checked = CheckServerStats(before, after, accounting, warm);
  if (checked.ok()) {
    checked = CheckBodies(rig.corpus, loop.bodies, /*with_oracle=*/true);
  }
  std::fprintf(stderr,
               "%s: generation %.2f s, set-up %.2f s, loop %.2f s, checks %.2f s; %zu pairs "
               "checked; server hits %llu, misses %llu\n",
               options.workload.c_str(), generation_s, setup_s,
               SecondsSince(clock.wall_start()) - SecondsSince(check_start),
               SecondsSince(check_start), loop.bodies.size(),
               static_cast<unsigned long long>(after.cache_hits - before.cache_hits),
               static_cast<unsigned long long>(after.cache_misses - before.cache_misses));
  return Finish(options.workload.c_str(), accounting, checked, setup_s, clock);
}

// ---- stream_delivery --------------------------------------------------------

// What the benchmark's own stream reader delivered.
struct ReadStreamResult {
  api::PresentResponse prefix;
  std::vector<net::WireBlock> blocks;
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;
  double first_frame_ms = 0;  // request written -> first-frame blocks reassembled
};

// A stream reader built from the public frame functions and the client-side
// StreamReassembler: one kStreamRequest, then frames until kStreamEnd.
StatusOr<ReadStreamResult> ReadStream(cmif::Socket& socket, const api::PresentRequest& request) {
  net::StreamRequest open;
  open.request = request;
  open.chunk_bytes = net::kDefaultChunkBytes;
  const Clock::time_point start = Clock::now();
  CMIF_RETURN_IF_ERROR(
      net::WriteFrame(socket, net::FrameType::kStreamRequest, net::EncodeStreamRequest(open)));
  CMIF_ASSIGN_OR_RETURN(std::optional<net::Frame> first, net::ReadFrame(socket));
  if (!first || first->type != net::FrameType::kStreamBegin) {
    return cmif::InternalError("stream did not open with kStreamBegin");
  }
  CMIF_ASSIGN_OR_RETURN(net::StreamBegin begin, net::DecodeStreamBegin(first->payload));
  const std::uint64_t first_frame_bytes = FirstFrameBytes(begin.manifest);
  net::StreamReassembler reassembler;
  CMIF_RETURN_IF_ERROR(reassembler.Begin(begin));
  ReadStreamResult result;
  if (first_frame_bytes == 0) {
    result.first_frame_ms = MillisSince(start);
  }
  while (true) {
    CMIF_ASSIGN_OR_RETURN(std::optional<net::Frame> frame, net::ReadFrame(socket));
    if (!frame) {
      return cmif::InternalError("stream cut before kStreamEnd");
    }
    if (frame->type == net::FrameType::kStreamChunk) {
      CMIF_ASSIGN_OR_RETURN(net::StreamChunk chunk, net::DecodeStreamChunk(frame->payload));
      const std::uint64_t had = reassembler.bytes().size();
      CMIF_RETURN_IF_ERROR(reassembler.Feed(chunk));
      result.bytes += chunk.payload.size();
      if (had < first_frame_bytes && reassembler.bytes().size() >= first_frame_bytes) {
        result.first_frame_ms = MillisSince(start);
      }
      continue;
    }
    if (frame->type != net::FrameType::kStreamEnd) {
      return cmif::InternalError("unexpected frame mid-stream");
    }
    CMIF_ASSIGN_OR_RETURN(net::StreamEnd end, net::DecodeStreamEnd(frame->payload));
    CMIF_ASSIGN_OR_RETURN(result.blocks, reassembler.Finish(end));
    result.chunks = reassembler.chunks_received();
    result.prefix = std::move(begin.prefix);
    // Delivery telemetry, as NetClient::PresentStream sends it.
    net::StreamAck ack;
    ack.stream_id = begin.stream_id;
    ack.chunks_received = result.chunks;
    CMIF_RETURN_IF_ERROR(
        net::WriteFrame(socket, net::FrameType::kStreamAck, net::EncodeStreamAck(ack)));
    return result;
  }
}

// The in-process plan of one pair plus its expected prefix body.
struct PlannedStream {
  std::string body;
  cmif::StreamPlan plan;
};

StatusOr<PlannedStream> PlanInProcess(const Corpus& corpus, std::size_t pair) {
  const std::size_t document = pair / Profiles().size();
  const cmif::SystemProfile& profile = Profiles()[pair % Profiles().size()];
  CMIF_ASSIGN_OR_RETURN(cmif::CompiledPresentation compiled,
                        CompileInProcess(*corpus.corpus, document, profile));
  PlannedStream planned;
  planned.body = api::SerializePresentation(compiled);
  CMIF_RETURN_IF_ERROR(corpus.corpus->store().WithRead([&](const cmif::DescriptorStore& store) {
    return CheckAgainstOracle(corpus.corpus->document(document).document, store, profile,
                              compiled);
  }));
  CMIF_ASSIGN_OR_RETURN(planned.plan,
                        corpus.corpus->store().WithRead([&](const cmif::DescriptorStore& store) {
                          return corpus.corpus->blocks().WithRead(
                              [&](const cmif::BlockStore& blocks) {
                                return api::BuildStreamPlan(compiled, store, blocks, profile);
                              });
                        }));
  if (planned.plan.degraded || planned.plan.blocks.empty()) {
    return cmif::InternalError("in-process stream plan is degraded or empty");
  }
  // Every planned block must decode with the block codec.
  for (const cmif::PrefetchBlock& block : planned.plan.blocks) {
    CMIF_RETURN_IF_ERROR(
        cmif::DecodeBlockPayload(std::string_view(planned.plan.bytes).substr(block.offset,
                                                                             block.bytes))
            .status());
  }
  return planned;
}

// A delivered stream equals the in-process plan: same prefix body, same
// blocks in the same order, byte for byte, and the chunk count the byte
// total implies.
Status CheckDelivered(const PlannedStream& planned, const api::PresentResponse& prefix,
                      const std::vector<net::WireBlock>& blocks, std::uint64_t bytes,
                      std::uint64_t chunks) {
  if (prefix.presentation != planned.body) {
    return cmif::InternalError("streamed prefix differs from the in-process compile");
  }
  if (blocks.size() != planned.plan.blocks.size()) {
    return cmif::InternalError("streamed block count differs from the plan");
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const cmif::PrefetchBlock& want = planned.plan.blocks[i];
    if (blocks[i].descriptor_id != want.descriptor_id ||
        std::string_view(blocks[i].payload) !=
            std::string_view(planned.plan.bytes).substr(want.offset, want.bytes)) {
      return cmif::InternalError("streamed block " + want.descriptor_id + " differs from plan");
    }
  }
  if (bytes != planned.plan.total_bytes()) {
    return cmif::InternalError("streamed bytes differ from the planned total");
  }
  if (chunks != net::StreamChunkCount(bytes, net::kDefaultChunkBytes)) {
    return cmif::InternalError("chunk count is not ceil(bytes / chunk size)");
  }
  return Status::Ok();
}

StatusOr<RunResult> RunStreamDelivery(const Options& options) {
  Rig rig;
  CMIF_ASSIGN_OR_RETURN(rig.corpus,
                        LoadNewsCorpus(kStreamDocuments, WorkloadSeed(options, 31)));
  CMIF_RETURN_IF_ERROR(StartRig(rig, kWarmCacheCapacity));
  CMIF_RETURN_IF_ERROR(Prime(rig));
  const double setup_s = SetupSeconds(0);
  const std::size_t pairs = PairCount(rig.corpus);

  // Untimed: the in-process plans, and the reader against NetClient.
  std::vector<PlannedStream> planned;
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    CMIF_ASSIGN_OR_RETURN(PlannedStream plan, PlanInProcess(rig.corpus, pair));
    planned.push_back(std::move(plan));
  }
  CMIF_ASSIGN_OR_RETURN(cmif::Socket socket,
                        cmif::ConnectTcp("127.0.0.1", rig.server->port(), 10000));
  CMIF_RETURN_IF_ERROR(socket.SetNoDelay());
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    api::PresentRequest request = RequestFor(rig.corpus, pair);
    CMIF_ASSIGN_OR_RETURN(ReadStreamResult ours, ReadStream(socket, request));
    CMIF_ASSIGN_OR_RETURN(api::StreamResult theirs, rig.client->PresentStream(request));
    bool same = theirs.streamed && ours.prefix.presentation == theirs.response.presentation &&
                ours.blocks.size() == theirs.blocks.size() &&
                ours.chunks == theirs.chunks_received && ours.bytes == theirs.bytes_streamed;
    for (std::size_t i = 0; same && i < ours.blocks.size(); ++i) {
      same = ours.blocks[i].descriptor_id == theirs.blocks[i].descriptor_id &&
             ours.blocks[i].payload == theirs.blocks[i].payload;
    }
    if (!same) {
      return cmif::InternalError("stream reader disagrees with NetClient::PresentStream");
    }
    CMIF_RETURN_IF_ERROR(CheckDelivered(planned[pair], ours.prefix, ours.blocks, ours.bytes,
                                        ours.chunks));
  }

  CMIF_ASSIGN_OR_RETURN(net::StatsSnapshot before, rig.client->FetchStats());
  LoopClock clock(options.seconds);
  Accounting accounting;
  std::uint64_t bytes = 0;
  const std::uint64_t seed = WorkloadSeed(options, 32);
  const std::vector<std::size_t> order = RoundOrder(options.workload, pairs, seed);
  while (!clock.Done()) {
    for (std::size_t pair : order) {
      const Clock::time_point start = Clock::now();
      StatusOr<ReadStreamResult> streamed = ReadStream(socket, RequestFor(rig.corpus, pair));
      clock.Op(SecondsSince(start));
      ++accounting.attempted;
      ++accounting.requests;
      if (!streamed.ok() || streamed->prefix.outcome != cmif::ServeOutcome::kHealthy) {
        ++accounting.failed;
        accounting.Problem(streamed.ok() ? "stream prefix not healthy"
                                         : streamed.status().ToString());
        continue;
      }
      clock.Visible(streamed->first_frame_ms);
      bytes += streamed->bytes;
      if (Status ok = CheckDelivered(planned[pair], streamed->prefix, streamed->blocks,
                                     streamed->bytes, streamed->chunks);
          !ok.ok()) {
        accounting.Problem(ok.ToString());
      }
    }
    clock.EndRound();
  }
  CMIF_ASSIGN_OR_RETURN(net::StatsSnapshot after, rig.client->FetchStats());

  std::fprintf(stderr, "stream_delivery: %llu bytes in %llu streams\n",
               static_cast<unsigned long long>(bytes),
               static_cast<unsigned long long>(accounting.attempted));
  return Finish("stream_delivery", accounting, CheckServerStats(before, after, accounting, true),
                setup_s, clock);
}

// ---- edit_publish -----------------------------------------------------------

// What an edit state must produce: its point times (hashed) and each
// profile's serialized body (hashed).
struct EditReference {
  std::uint64_t times = 0;
  std::vector<std::uint64_t> bodies;
};

StatusOr<EditReference> ReferenceFor(const std::string& text,
                                     const cmif::DescriptorStore& catalog) {
  CMIF_ASSIGN_OR_RETURN(cmif::Document document, api::LoadDocument(text));
  CMIF_ASSIGN_OR_RETURN(std::vector<cmif::EventDescriptor> events,
                        cmif::CollectEvents(document, &catalog));
  CMIF_ASSIGN_OR_RETURN(cmif::TimeGraph graph, cmif::TimeGraph::Build(document, events));
  CMIF_ASSIGN_OR_RETURN(cmif::ScheduleResult scratch, cmif::SolveSchedule(graph, events));
  cmif::check::OracleResult oracle = cmif::check::OracleSolve(graph);
  if (!scratch.feasible || !oracle.feasible || scratch.solve.earliest != oracle.times) {
    return cmif::InternalError("from-scratch compile and oracle disagree on an edit state");
  }
  EditReference reference;
  reference.times = HashTimes(oracle.times);
  for (const cmif::SystemProfile& profile : Profiles()) {
    api::PipelineOptions pipeline;
    pipeline.profile = profile;
    CMIF_ASSIGN_OR_RETURN(api::CompileReport report,
                          api::Compile(document, catalog, cmif::BlockStore(), pipeline));
    cmif::CompiledPresentation compiled;
    compiled.map = std::move(report.presentation_map);
    compiled.filter = std::move(report.filter);
    compiled.schedule = std::move(report.schedule);
    reference.bodies.push_back(cmif::Fnv1a64(api::SerializePresentation(compiled)));
  }
  return reference;
}

StatusOr<RunResult> RunEditPublish(const Options& options) {
  const Clock::time_point gen_start = Clock::now();
  CMIF_ASSIGN_OR_RETURN(EditInputs inputs, MakeEditInputs(options));
  const double generation_s = SecondsSince(gen_start);
  std::size_t rejected = 0, per_round = 0;
  for (const EditCycle& cycle : inputs.cycles) {
    rejected += cycle.rejected;
    per_round += cycle.ops.size();
  }
  std::fprintf(stderr, "edit_publish: %zu edits per round (%zu proposed ops refused)\n",
               per_round, rejected);

  Rig rig;
  CMIF_ASSIGN_OR_RETURN(rig.corpus, LoadCorpus(inputs.documents));
  CMIF_RETURN_IF_ERROR(StartRig(rig, kWarmCacheCapacity));
  std::vector<std::unique_ptr<api::EditSession>> sessions;
  for (std::size_t d = 0; d < rig.corpus.corpus->size(); ++d) {
    CMIF_ASSIGN_OR_RETURN(std::unique_ptr<api::EditSession> session,
                          api::EditSession::Open(rig.corpus.corpus->document(d).document,
                                                 rig.corpus.catalogs[d]));
    sessions.push_back(std::move(session));
  }
  const double setup_s = SetupSeconds(generation_s);

  // Untimed bookkeeping. A document's state is named by its position in
  // its edit cycle (0 = the starting text, which every round returns to);
  // a state's text is written once, on its first visit.
  struct State {
    std::size_t document = 0;
    std::string text;
  };
  std::map<std::uint64_t, State> states;
  auto remember = [&](std::size_t d, std::size_t position,
                      const cmif::Document& document) -> StatusOr<std::uint64_t> {
    const std::uint64_t id = (static_cast<std::uint64_t>(d) << 32) | position;
    if (states.find(id) == states.end()) {
      CMIF_ASSIGN_OR_RETURN(std::string text, cmif::WriteDocument(document));
      states.emplace(id, State{d, std::move(text)});
    }
    return id;
  };
  std::vector<std::uint64_t> published(sessions.size());
  for (std::size_t d = 0; d < sessions.size(); ++d) {
    CMIF_ASSIGN_OR_RETURN(published[d], remember(d, 0, rig.corpus.corpus->document(d).document));
  }
  struct EditCheck {
    std::uint64_t state = 0;
    std::uint64_t times = 0;
  };
  struct ReadCheck {
    std::uint64_t state = 0;
    std::size_t profile = 0;
    std::uint64_t body = 0;
  };
  std::vector<EditCheck> edit_checks;
  std::vector<ReadCheck> read_checks;

  CMIF_ASSIGN_OR_RETURN(net::StatsSnapshot before, rig.client->FetchStats());
  LoopClock clock(options.seconds);
  Accounting accounting;
  std::size_t publishes = 0;
  std::uint64_t edits = 0;
  const std::vector<std::size_t> reads =
      EditReads(PairCount(rig.corpus), per_round, WorkloadSeed(options, 42));

  auto read = [&](std::size_t pair, bool expect_miss) -> StatusOr<double> {
    const std::size_t d = pair / Profiles().size();
    const Clock::time_point start = Clock::now();
    StatusOr<api::PresentResponse> response = rig.client->Present(RequestFor(rig.corpus, pair));
    const double seconds = SecondsSince(start);
    ++accounting.attempted;
    if (accounting.Served(response)) {
      if (expect_miss && response->cache_hit) {
        accounting.Problem("read after publish hit a stale cache entry");
      }
      read_checks.push_back({published[d], pair % Profiles().size(),
                             cmif::Fnv1a64(response->presentation)});
    }
    return seconds;
  };

  // A round replays every document's whole edit cycle, one document after
  // the other as an author would edit it, so every round applies the same
  // operations and ends on the starting texts.
  while (!clock.Done()) {
    std::size_t in_round = 0;
    for (std::size_t d = 0; d < sessions.size(); ++d) {
      const EditCycle& cycle = inputs.cycles[d];
      for (std::size_t step = 0; step < cycle.ops.size(); ++step) {
        const std::size_t read_pair = reads[in_round++];
        api::EditSession& session = *sessions[d];
        const Clock::time_point start = Clock::now();
        bool ok = session.Apply(cycle.ops[step]).ok();
        ok = ok && session.Recompile().ok();
        clock.Op(SecondsSince(start));
        ++accounting.attempted;
        ++edits;
        if (!ok) {
          ++accounting.failed;
          accounting.Problem("edit op failed: " + cmif::FormatEditOp(cycle.ops[step]));
          continue;
        }
        CMIF_ASSIGN_OR_RETURN(std::uint64_t state,
                              remember(d, (step + 1) % cycle.ops.size(), session.document()));
        edit_checks.push_back({state, HashTimes(session.solve().earliest)});

        if (in_round % kPublishEvery == 0) {
          const Clock::time_point publish_start = Clock::now();
          Status publish = session.Publish(*rig.corpus.corpus, d);
          clock.Busy(SecondsSince(publish_start));
          ++accounting.attempted;
          if (!publish.ok()) {
            ++accounting.failed;
            accounting.Problem("publish failed: " + publish.ToString());
          } else {
            published[d] = state;
            CMIF_ASSIGN_OR_RETURN(double read_s, read(d * Profiles().size(), true));
            clock.Busy(read_s);
            clock.Visible(MillisSince(publish_start));
            ++publishes;
          }
        }
        CMIF_ASSIGN_OR_RETURN(double read_s, read(read_pair, false));
        clock.Busy(read_s);
      }
    }
    clock.EndRound();
  }
  CMIF_ASSIGN_OR_RETURN(net::StatsSnapshot after, rig.client->FetchStats());

  const Clock::time_point check_start = Clock::now();
  Status checked = CheckServerStats(before, after, accounting, false);
  // Every state a session reached: from-scratch compile and oracle, plus
  // the body each profile's in-process compile serializes to.
  std::vector<std::pair<std::uint64_t, const State*>> items;
  for (const auto& [hash, state] : states) {
    items.emplace_back(hash, &state);
  }
  std::vector<EditReference> references(items.size());
  if (checked.ok()) {
    checked = ParallelChecks(items.size(), [&](std::size_t i) -> Status {
      const State& state = *items[i].second;
      CMIF_ASSIGN_OR_RETURN(references[i],
                            ReferenceFor(state.text, rig.corpus.catalogs[state.document]));
      return Status::Ok();
    });
  }
  std::map<std::uint64_t, std::uint64_t> reference_times;
  std::map<std::pair<std::uint64_t, std::size_t>, std::uint64_t> reference_bodies;
  for (std::size_t i = 0; checked.ok() && i < items.size(); ++i) {
    reference_times[items[i].first] = references[i].times;
    for (std::size_t p = 0; p < Profiles().size(); ++p) {
      reference_bodies[{items[i].first, p}] = references[i].bodies[p];
    }
  }
  if (checked.ok()) {
    for (const EditCheck& check : edit_checks) {
      if (reference_times.at(check.state) != check.times) {
        checked = cmif::InternalError("a session schedule differs from scratch and oracle");
        break;
      }
    }
    for (const ReadCheck& check : read_checks) {
      if (reference_bodies.at({check.state, check.profile}) != check.body) {
        checked = cmif::InternalError("a read returned a body other than the published revision");
        break;
      }
    }
  }
  std::fprintf(stderr, "edit_publish: generation %.2f s, set-up %.2f s, loop %.2f s, checks %.2f s\n",
               generation_s, setup_s, SecondsSince(clock.wall_start()) - SecondsSince(check_start),
               SecondsSince(check_start));
  std::fprintf(stderr,
               "edit_publish: %llu edits, %zu publishes, %zu reads, %zu states checked, "
               "server hits %llu misses %llu\n",
               static_cast<unsigned long long>(edits), publishes, read_checks.size(),
               states.size(),
               static_cast<unsigned long long>(after.cache_hits - before.cache_hits),
               static_cast<unsigned long long>(after.cache_misses - before.cache_misses));
  return Finish("edit_publish", accounting, checked, setup_s, clock);
}

}  // namespace

Status CheckBodies(const Corpus& corpus, const std::map<std::size_t, std::string>& bodies,
                   bool with_oracle) {
  std::vector<std::pair<std::size_t, const std::string*>> items;
  for (const auto& [pair, body] : bodies) {
    items.emplace_back(pair, &body);
  }
  return ParallelChecks(items.size(), [&](std::size_t i) -> Status {
    const std::size_t pair = items[i].first;
    const std::string& body = *items[i].second;
    const std::size_t document = pair / Profiles().size();
    const cmif::SystemProfile& profile = Profiles()[pair % Profiles().size()];
    CMIF_ASSIGN_OR_RETURN(cmif::CompiledPresentation compiled,
                          CompileInProcess(*corpus.corpus, document, profile));
    if (api::SerializePresentation(compiled) != body) {
      return cmif::InternalError("served body differs from the in-process compile of " +
                                 corpus.corpus->document(document).name);
    }
    if (!with_oracle) {
      return Status::Ok();
    }
    return corpus.corpus->store().WithRead([&](const cmif::DescriptorStore& store) {
      return CheckAgainstOracle(corpus.corpus->document(document).document, store, profile,
                                compiled);
    });
  });
}

StatusOr<RunResult> RunUntraced(const Options& options) {
  if (options.workload == "cold_compile" || options.workload == "warm_hit") {
    return RunRequests(options);
  }
  if (options.workload == "stream_delivery") {
    return RunStreamDelivery(options);
  }
  if (options.workload == "edit_publish") {
    return RunEditPublish(options);
  }
  return cmif::InvalidArgumentError("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
