// The traced run: each workload's operations replayed in process through the
// program's own entry points, with the program's observability on. A
// request is ServeLoop::Serve (cache lookup; on a miss CompilePresentation,
// whose stages record their own spans: serve-request, pipeline, validate,
// present-map, filter-plan, collect-events, schedule, solve-schedule,
// solve-stn) followed by the response the reactor would send
// (SerializePresentation, EncodeResponse, EncodeFrame, and the client's
// DecodeFrame and DecodeResponse). Layers that record no span of their own
// get one from this file around their public calls: the catalog load, the
// response and frame codecs, CRC-32, stream planning, the block codec,
// chunk framing, reassembly, and EditSession's Apply, Recompile and
// Publish. Every span of one operation carries the operation's id as its
// trace id.
//
// Rounds alternate between obs on and off, so the difference in throughput
// is the tracing overhead, measured under the same drift. The untraced
// rounds also give the serve hit and miss wall times and the allocation
// counts, since recording spans allocates.
//
// Three groups of numbers come from outside the replay:
//   - set-up (parse, catalog load, news-corpus build) runs with obs on too,
//     since those layers feed setup_s; cache priming runs with obs off and
//     gives the news workloads' serve miss figures;
//   - a short socket phase against a real NetServer measures what only a
//     socket shows: ping round trips, syscalls and allocations per op;
//   - layers the workload never reaches are measured by a probe on
//     seed-generated inputs of the other workloads' kinds (one edited
//     docgen document, one streamed one-story news document, and for news
//     workloads one parsed and compiled docgen document), so every run reports every
//     per-layer metric. Those figures describe the layer, not the workload.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <unordered_map>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/base/crc32.h"
#include "src/base/random.h"
#include "src/base/string_util.h"
#include "src/media/block_codec.h"
#include "src/net/stream.h"
#include "src/net/wire.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

using cmif::Status;
using cmif::StatusOr;
namespace api = cmif::api;
namespace net = cmif::net;
namespace obs = cmif::obs;

// Sums of per-operation figures reported by the layers (counts, and the
// untraced rounds' wall times).
class Counts {
 public:
  struct Sum {
    double total = 0;
    std::uint64_t n = 0;
    double mean() const { return n == 0 ? 0 : total / static_cast<double>(n); }
  };
  void Add(const std::string& name, double value) {
    Sum& sum = sums_[name];
    sum.total += value;
    ++sum.n;
  }
  Sum Get(const std::string& name) const {
    auto it = sums_.find(name);
    return it == sums_.end() ? Sum{} : it->second;
  }

 private:
  std::map<std::string, Sum> sums_;
};

// The finished spans, drained from the obs buffers after every traced step:
// per-name totals (count, duration, self time, and the "bytes" annotation
// where a span carries one), plus the first kKeptSpans spans for the span
// file.
class SpanLog {
 public:
  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
    double bytes = 0;
  };
  static constexpr std::size_t kKeptSpans = 50000;

  void Drain() {
    std::vector<obs::SpanRecord> spans = obs::SnapshotSpans();
    obs::ResetSpans();
    std::unordered_map<std::uint64_t, double> child_us;
    for (const obs::SpanRecord& span : spans) {
      if (span.parent_id != 0) {
        child_us[span.parent_id] += span.duration_us;
      }
    }
    for (obs::SpanRecord& span : spans) {
      Totals& totals = totals_[span.name];
      ++totals.count;
      totals.total_us += span.duration_us;
      auto child = child_us.find(span.id);
      totals.self_us += span.duration_us - (child == child_us.end() ? 0 : child->second);
      for (const auto& [key, value] : span.args) {
        if (key == "bytes") {
          totals.bytes += std::strtod(value.c_str(), nullptr);
        }
      }
      if (kept_.size() < kKeptSpans) {
        kept_.push_back(std::move(span));
      }
    }
  }

  Totals Get(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? Totals{} : it->second;
  }
  double MeanUs(const std::string& name) const {
    const Totals totals = Get(name);
    return totals.count == 0 ? 0 : totals.total_us / static_cast<double>(totals.count);
  }
  // Microseconds per KB of the spans' "bytes" annotation.
  double UsPerKb(const std::string& name) const {
    const Totals totals = Get(name);
    return totals.bytes > 0 ? totals.total_us / (totals.bytes / 1024.0) : 0;
  }
  double MbPerSecond(const std::string& name) const {
    const Totals totals = Get(name);
    return totals.total_us > 0 ? totals.bytes / totals.total_us : 0;  // B/us == MB/s
  }
  const std::map<std::string, Totals>& totals() const { return totals_; }
  const std::vector<obs::SpanRecord>& kept() const { return kept_; }

 private:
  std::map<std::string, Totals> totals_;
  std::vector<obs::SpanRecord> kept_;
};

// One request through ServeLoop::Serve. Untraced calls are timed and their
// allocations counted, split by hit and miss.
StatusOr<std::shared_ptr<const cmif::CompiledPresentation>> ServeOne(cmif::ServeLoop& loop,
                                                                     std::size_t pair,
                                                                     Counts& counts,
                                                                     bool* hit = nullptr) {
  cmif::ServeRequest request;
  request.document = pair / Profiles().size();
  request.profile = pair % Profiles().size();
  const std::uint64_t allocations = AllocationCount();
  const Clock::time_point start = Clock::now();
  cmif::ServeResponse response = loop.Serve(request);
  const double us = MicrosSince(start);
  const double allocated = static_cast<double>(AllocationCount() - allocations);
  if (response.outcome != cmif::ServeOutcome::kHealthy) {
    return cmif::InternalError("in-process serve was not healthy: " + response.error.ToString());
  }
  if (!obs::Enabled()) {
    counts.Add(response.cache_hit ? "serve.hit_us" : "serve.miss_us", us);
    counts.Add(response.cache_hit ? "serve.hit_allocs" : "pipeline.allocs", allocated);
  }
  if (!response.cache_hit) {
    const cmif::ScheduleResult& schedule = response.presentation->schedule;
    counts.Add("sched.propagations", static_cast<double>(schedule.solve.stats.propagations));
    counts.Add("sched.relaxations", static_cast<double>(schedule.dropped_arcs.size()));
  }
  if (hit != nullptr) {
    *hit = response.cache_hit;
  }
  return std::move(response.presentation);
}

// CRC-32 over a frame's bytes, the checksum every frame carries, in traced
// rounds only; the sink keeps the result observable.
std::uint32_t g_crc_sink = 0;

void TracedCrc(const std::string& bytes) {
  if (obs::Enabled()) {
    obs::Span span("base.crc32");
    span.Annotate("bytes", bytes.size());
    g_crc_sink ^= cmif::Crc32(bytes);
  }
}

// A response's way to the client: serialize, encode, frame, deframe,
// decode. Returns the body the client received.
StatusOr<std::string> Respond(const cmif::CompiledPresentation& compiled, bool cache_hit) {
  api::PresentResponse response;
  response.outcome = cmif::ServeOutcome::kHealthy;
  response.cache_hit = cache_hit;
  {
    obs::Span span("net.serialize");
    response.presentation = api::SerializePresentation(compiled);
  }
  response.presentation_hash = cmif::Fnv1a64(response.presentation);
  std::string payload;
  {
    obs::Span span("net.response_encode");
    payload = net::EncodeResponse(response);
  }
  std::string frame;
  {
    obs::Span span("net.frame_encode");
    frame = net::EncodeFrame(net::FrameType::kResponse, payload);
  }
  TracedCrc(frame);
  StatusOr<net::Frame> decoded = [&] {
    obs::Span span("net.frame_decode");
    std::size_t consumed = 0;
    return net::DecodeFrame(frame, &consumed);
  }();
  CMIF_RETURN_IF_ERROR(decoded.status());
  obs::Span span("net.response_decode");
  CMIF_ASSIGN_OR_RETURN(api::PresentResponse received, net::DecodeResponse(decoded->payload));
  if (received.outcome != cmif::ServeOutcome::kHealthy) {
    return cmif::InternalError("decoded response is not healthy");
  }
  return std::move(received.presentation);
}

// One streamed delivery in process: plan, block codec, chunk framing,
// reassembly. Returns the delivered payload bytes.
StatusOr<std::uint64_t> StreamOne(const cmif::ServeCorpus& corpus,
                                  const cmif::CompiledPresentation& compiled,
                                  const cmif::SystemProfile& profile, Counts& counts) {
  StatusOr<cmif::StreamPlan> plan = [&] {
    obs::Span span("serve.stream_plan");
    return corpus.store().WithRead([&](const cmif::DescriptorStore& store) {
      return corpus.blocks().WithRead([&](const cmif::BlockStore& blocks) {
        return api::BuildStreamPlan(compiled, store, blocks, profile);
      });
    });
  }();
  CMIF_RETURN_IF_ERROR(plan.status());
  const std::string_view bytes = plan->bytes;
  // Block codec round trip over the planned payloads.
  {
    std::vector<cmif::DataBlock> blocks;
    {
      obs::Span span("media.block_decode");
      span.Annotate("bytes", plan->total_bytes());
      for (const cmif::PrefetchBlock& block : plan->blocks) {
        CMIF_ASSIGN_OR_RETURN(cmif::DataBlock decoded,
                              cmif::DecodeBlockPayload(bytes.substr(block.offset, block.bytes)));
        blocks.push_back(std::move(decoded));
      }
    }
    obs::Span span("media.block_encode");
    span.Annotate("bytes", plan->total_bytes());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (cmif::EncodeBlockPayload(blocks[i]) !=
          bytes.substr(plan->blocks[i].offset, plan->blocks[i].bytes)) {
        return cmif::InternalError("block codec round trip changed a planned block");
      }
    }
  }
  // Server side: the begin frame and every chunk frame.
  net::StreamBegin begin;
  begin.chunk_bytes = net::kDefaultChunkBytes;
  begin.total_chunks = net::StreamChunkCount(plan->total_bytes(), begin.chunk_bytes);
  begin.payload_hash = plan->payload_hash;
  begin.stream_id = 1;
  for (const cmif::PrefetchBlock& block : plan->blocks) {
    begin.manifest.push_back({block.descriptor_id, block.bytes, block.first_need});
  }
  begin.prefix.outcome = cmif::ServeOutcome::kHealthy;
  std::vector<std::string> frames;
  std::uint64_t frame_bytes = 0;
  {
    obs::Span span("net.chunk_encode");
    frames.push_back(net::EncodeFrame(net::FrameType::kStreamBegin, net::EncodeStreamBegin(begin)));
    for (std::uint64_t i = 0; i < begin.total_chunks; ++i) {
      net::StreamChunk chunk;
      chunk.stream_id = begin.stream_id;
      chunk.chunk_index = i;
      chunk.payload = std::string(bytes.substr(i * begin.chunk_bytes, begin.chunk_bytes));
      frames.push_back(net::EncodeFrame(net::FrameType::kStreamChunk, net::EncodeStreamChunk(chunk)));
    }
    net::StreamEnd end{begin.stream_id, begin.total_chunks, begin.payload_hash};
    frames.push_back(net::EncodeFrame(net::FrameType::kStreamEnd, net::EncodeStreamEnd(end)));
    for (const std::string& frame : frames) {
      frame_bytes += frame.size();
    }
    span.Annotate("bytes", frame_bytes);
  }
  // Client side: deframe, decode, reassemble, verify the trailer.
  std::vector<net::WireBlock> delivered;
  {
    obs::Span span("net.reassemble");
    span.Annotate("bytes", frame_bytes);
    net::StreamReassembler reassembler;
    for (const std::string& frame : frames) {
      std::size_t consumed = 0;
      CMIF_ASSIGN_OR_RETURN(net::Frame decoded, net::DecodeFrame(frame, &consumed));
      if (decoded.type == net::FrameType::kStreamBegin) {
        CMIF_ASSIGN_OR_RETURN(net::StreamBegin got, net::DecodeStreamBegin(decoded.payload));
        CMIF_RETURN_IF_ERROR(reassembler.Begin(got));
      } else if (decoded.type == net::FrameType::kStreamChunk) {
        CMIF_ASSIGN_OR_RETURN(net::StreamChunk chunk, net::DecodeStreamChunk(decoded.payload));
        CMIF_RETURN_IF_ERROR(reassembler.Feed(chunk));
      } else {
        CMIF_ASSIGN_OR_RETURN(net::StreamEnd end, net::DecodeStreamEnd(decoded.payload));
        CMIF_ASSIGN_OR_RETURN(delivered, reassembler.Finish(end));
      }
    }
  }
  if (delivered.size() != plan->blocks.size()) {
    return cmif::InternalError("reassembled block count differs from the plan");
  }
  for (const std::string& frame : frames) {
    TracedCrc(frame);
  }
  counts.Add("serve.stream_plan_bytes", static_cast<double>(plan->total_bytes()));
  counts.Add("net.chunks", static_cast<double>(begin.total_chunks));
  return plan->total_bytes();
}

// One edit: Apply + Recompile, with the recompile's shape counted.
Status EditOne(api::EditSession& session, const cmif::EditOp& op, Counts& counts) {
  {
    obs::Span span("api.edit_apply");
    CMIF_RETURN_IF_ERROR(session.Apply(op).status());
  }
  StatusOr<api::EditDelta> delta = [&] {
    obs::Span span("sched.recompile");
    return session.Recompile();
  }();
  CMIF_RETURN_IF_ERROR(delta.status());
  counts.Add("sched.incremental", delta->incremental ? 1.0 : 0.0);
  counts.Add("sched.cone_points", static_cast<double>(delta->changed_points));
  counts.Add("sched.propagations", static_cast<double>(delta->stats.propagations));
  counts.Add("sched.relaxations", static_cast<double>(delta->dropped_arcs.size()));
  return Status::Ok();
}

Status PublishOne(const api::EditSession& session, cmif::ServeCorpus& corpus, std::size_t d) {
  obs::Span span("api.publish");
  return session.Publish(corpus, d);
}

// Per-op throughput of the untraced (0) and traced (1) steps.
struct ModeClock {
  double busy_s[2] = {0, 0};
  std::uint64_t ops[2] = {0, 0};
  double OpsPerSecond(int mode) const {
    return busy_s[mode] > 0 ? static_cast<double>(ops[mode]) / busy_s[mode] : 0;
  }
};

// The socket phase: ping round trips, then `ops` of the workload's own
// requests over a real connection, counting syscalls and allocations of the
// whole process (client and server).
Status SocketPhase(Corpus& corpus, const std::string& workload, std::uint64_t seed,
                   Counts& counts) {
  cmif::ServeLoop loop(*corpus.corpus, ServeOptionsFor(workload == "cold_compile"
                                                           ? kColdCacheCapacity
                                                           : kWarmCacheCapacity));
  api::NetServerOptions server_options;
  server_options.workers = 1;
  api::NetServer server(loop, server_options);
  CMIF_RETURN_IF_ERROR(server.Start());
  api::NetClientOptions client_options;
  client_options.port = server.port();
  client_options.retry.max_attempts = 1;
  api::NetClient client(client_options);
  CMIF_RETURN_IF_ERROR(client.Ping());
  std::vector<double> rtt_us;
  for (int i = 0; i < 400; ++i) {
    const Clock::time_point start = Clock::now();
    CMIF_RETURN_IF_ERROR(client.Ping());
    rtt_us.push_back(MicrosSince(start));
  }
  counts.Add("net.ping_rtt_us", Median(rtt_us));

  const std::size_t pairs = PairCount(corpus);
  const bool streaming = workload == "stream_delivery";
  std::vector<std::size_t> order = workload == "warm_hit"
                                       ? ZipfRound(pairs, 400, kWarmZipfSkew, seed)
                                       : ShuffledRound(pairs, seed);
  if (workload != "cold_compile") {
    for (std::size_t pair = 0; pair < pairs; ++pair) {  // prime, uncounted
      CMIF_RETURN_IF_ERROR(client.Present(RequestFor(corpus, pair)).status());
    }
  }
  const std::size_t ops = streaming ? 12 : std::min<std::size_t>(order.size(), 200);
  const std::uint64_t syscalls = IoSyscallCount();
  const std::uint64_t allocations = AllocationCount();
  for (std::size_t i = 0; i < ops; ++i) {
    api::PresentRequest request = RequestFor(corpus, order[i % order.size()]);
    if (streaming) {
      CMIF_ASSIGN_OR_RETURN(api::StreamResult result, client.PresentStream(request));
      if (!result.streamed || result.response.outcome != cmif::ServeOutcome::kHealthy) {
        return cmif::InternalError("socket-phase stream failed");
      }
    } else {
      CMIF_ASSIGN_OR_RETURN(api::PresentResponse response, client.Present(request));
      if (response.outcome != cmif::ServeOutcome::kHealthy) {
        return cmif::InternalError("socket-phase request failed");
      }
    }
  }
  counts.Add("net.syscalls_per_op",
             static_cast<double>(IoSyscallCount() - syscalls) / static_cast<double>(ops));
  counts.Add("net.allocs_per_op",
             static_cast<double>(AllocationCount() - allocations) / static_cast<double>(ops));
  return Status::Ok();
}

// Probes for layers the workload's own operations never reach; run with
// obs on.
Status ProbeForeignLayers(const Options& options, bool parses, bool edits, bool streams,
                          Counts& counts) {
  if (!parses || !edits) {
    CorpusShape shape;
    shape.documents = 1;
    shape.min_leaves = 150;
    shape.max_leaves = 150;
    CMIF_ASSIGN_OR_RETURN(std::vector<DocInput> inputs,
                          GenerateCorpus(WorkloadSeed(options, 91), shape, "probe"));
    CMIF_ASSIGN_OR_RETURN(Corpus corpus, LoadCorpus(inputs));
    if (!parses) {
      // The news workloads compile only while priming, untraced: one
      // traced compile per profile of the probe document.
      cmif::ServeLoop loop(*corpus.corpus, ServeOptionsFor(kWarmCacheCapacity));
      for (std::size_t pair = 0; pair < Profiles().size(); ++pair) {
        CMIF_RETURN_IF_ERROR(ServeOne(loop, pair, counts).status());
      }
    }
    if (!edits) {
      CMIF_ASSIGN_OR_RETURN(EditCycle cycle,
                            GenerateEditCycle(inputs[0], WorkloadSeed(options, 92), Profiles()));
      CMIF_ASSIGN_OR_RETURN(std::unique_ptr<api::EditSession> session,
                            api::EditSession::Open(corpus.corpus->document(0).document,
                                                   corpus.catalogs[0]));
      for (const cmif::EditOp& op : cycle.ops) {
        CMIF_RETURN_IF_ERROR(EditOne(*session, op, counts));
        CMIF_RETURN_IF_ERROR(PublishOne(*session, *corpus.corpus, 0));
      }
    }
  }
  if (!streams) {
    CMIF_ASSIGN_OR_RETURN(Corpus news, LoadNewsCorpus(1, WorkloadSeed(options, 93)));
    cmif::ServeLoop loop(*news.corpus, ServeOptionsFor(kWarmCacheCapacity));
    CMIF_ASSIGN_OR_RETURN(auto compiled, ServeOne(loop, 0, counts));
    CMIF_RETURN_IF_ERROR(StreamOne(*news.corpus, *compiled, Profiles()[0], counts).status());
  }
  return Status::Ok();
}

void PerLayerMetrics(const SpanLog& spans, const Counts& counts, double hit_ratio,
                     const ModeClock& modes, Metrics& m) {
  auto mean = [&](const char* name) { return counts.Get(name).mean(); };
  m["fmt.parse_us_per_kb"] = {spans.UsPerKb("fmt.parse"), "us/KB"};
  m["ddbms.catalog_load_us_per_kb"] = {spans.UsPerKb("ddbms.catalog_load"), "us/KB"};
  m["doc.validate_us"] = {spans.MeanUs("validate"), "us"};
  m["doc.collect_events_us"] = {spans.MeanUs("collect-events"), "us"};
  m["present.map_us"] = {spans.MeanUs("present-map"), "us"};
  m["present.filter_plan_us"] = {spans.MeanUs("filter-plan"), "us"};
  m["sched.schedule_us"] = {spans.MeanUs("schedule"), "us"};
  m["sched.solve_us"] = {spans.MeanUs("solve-schedule"), "us"};
  m["sched.propagations_per_solve"] = {mean("sched.propagations"), "count"};
  m["sched.relaxations_per_solve"] = {mean("sched.relaxations"), "count"};
  m["pipeline.compile_us"] = {spans.MeanUs("pipeline"), "us"};
  m["pipeline.allocs_per_compile"] = {mean("pipeline.allocs"), "count"};
  m["sched.recompile_us"] = {spans.MeanUs("sched.recompile"), "us"};
  m["sched.incremental_share"] = {mean("sched.incremental"), "ratio"};
  m["sched.cone_points"] = {mean("sched.cone_points"), "count"};
  m["api.publish_us"] = {spans.MeanUs("api.publish"), "us"};
  m["serve.miss_us"] = {mean("serve.miss_us"), "us"};
  m["serve.hit_us"] = {mean("serve.hit_us"), "us"};
  m["serve.allocs_per_hit"] = {mean("serve.hit_allocs"), "count"};
  m["serve.cache_hit_ratio"] = {hit_ratio, "ratio"};
  m["net.serialize_us"] = {spans.MeanUs("net.serialize"), "us"};
  m["net.response_encode_us"] = {spans.MeanUs("net.response_encode"), "us"};
  m["net.response_decode_us"] = {spans.MeanUs("net.response_decode"), "us"};
  m["net.frame_encode_us"] = {spans.MeanUs("net.frame_encode"), "us"};
  m["net.frame_decode_us"] = {spans.MeanUs("net.frame_decode"), "us"};
  m["net.ping_rtt_us"] = {mean("net.ping_rtt_us"), "us"};
  m["net.syscalls_per_op"] = {mean("net.syscalls_per_op"), "count"};
  m["net.allocs_per_op"] = {mean("net.allocs_per_op"), "count"};
  m["serve.stream_plan_ms"] = {spans.MeanUs("serve.stream_plan") / 1e3, "ms"};
  m["serve.stream_plan_bytes"] = {mean("serve.stream_plan_bytes"), "bytes"};
  m["media.block_encode_mb_s"] = {spans.MbPerSecond("media.block_encode"), "MB/s"};
  m["net.chunk_encode_mb_s"] = {spans.MbPerSecond("net.chunk_encode"), "MB/s"};
  m["net.reassemble_mb_s"] = {spans.MbPerSecond("net.reassemble"), "MB/s"};
  m["net.chunks_per_stream"] = {mean("net.chunks"), "count"};
  m["base.crc32_mb_s"] = {spans.MbPerSecond("base.crc32"), "MB/s"};
  const double untraced = modes.OpsPerSecond(0);
  m["trace.overhead_pct"] = {
      untraced > 0 ? 100.0 * (untraced - modes.OpsPerSecond(1)) / untraced : 0, "%"};
}

// Writes the kept spans as a Chrome trace (relative to the working
// directory, the checkout root) and prints each span name's self time.
constexpr const char* kSpanDir = ".bench_out";

void ReportSpans(const Options& options, const SpanLog& spans) {
  ::mkdir(kSpanDir, 0755);
  const std::string path = cmif::StrFormat("%s/spans-%s.json", kSpanDir, options.workload.c_str());
  std::ofstream out(path);
  out << obs::ChromeTraceJsonFor(spans.kept(), {{obs::kProcessPid, "perfbench"}});
  out.close();
  std::fprintf(stderr, "traced: %zu spans %s %s\n", spans.kept().size(),
               out ? "written to" : "could not be written to", path.c_str());
  std::fprintf(stderr, "%-26s %10s %14s\n", "span", "count", "self us/span");
  for (const auto& [name, totals] : spans.totals()) {
    std::fprintf(stderr, "%-26s %10llu %14.2f\n", name.c_str(),
                 static_cast<unsigned long long>(totals.count),
                 totals.self_us / static_cast<double>(totals.count));
  }
}

}  // namespace

StatusOr<RunResult> RunTraced(const Options& options) {
  const std::string& w = options.workload;
  if (w != "cold_compile" && w != "warm_hit" && w != "stream_delivery" && w != "edit_publish") {
    return cmif::InvalidArgumentError("unknown workload '" + w + "'");
  }
  const bool cold = w == "cold_compile";
  const bool warm = w == "warm_hit";
  const bool streaming = w == "stream_delivery";
  const bool editing = w == "edit_publish";
  obs::ResetAll();
  SpanLog spans;
  Counts counts;
  ModeClock modes;
  RunResult result;

  // Inputs (obs off), then set-up (obs on).
  std::vector<DocInput> inputs;
  EditInputs edit_inputs;
  if (cold) {
    CMIF_ASSIGN_OR_RETURN(inputs, MakeColdInputs(options));
  } else if (editing) {
    CMIF_ASSIGN_OR_RETURN(edit_inputs, MakeEditInputs(options));
  }
  obs::SetEnabled(true);
  Corpus corpus;
  std::vector<std::unique_ptr<api::EditSession>> sessions;
  if (cold) {
    CMIF_ASSIGN_OR_RETURN(corpus, LoadCorpus(inputs));
  } else if (editing) {
    CMIF_ASSIGN_OR_RETURN(corpus, LoadCorpus(edit_inputs.documents));
    for (std::size_t d = 0; d < corpus.corpus->size(); ++d) {
      obs::Span span("api.session_open");
      CMIF_ASSIGN_OR_RETURN(std::unique_ptr<api::EditSession> session,
                            api::EditSession::Open(corpus.corpus->document(d).document,
                                                   corpus.catalogs[d]));
      sessions.push_back(std::move(session));
    }
  } else {
    CMIF_ASSIGN_OR_RETURN(corpus, LoadNewsCorpus(warm ? kWarmDocuments : kStreamDocuments,
                                                 WorkloadSeed(options, warm ? 21 : 31)));
  }
  obs::SetEnabled(false);
  spans.Drain();
  const std::size_t pairs = PairCount(corpus);
  cmif::ServeLoop loop(*corpus.corpus,
                       ServeOptionsFor(cold ? kColdCacheCapacity : kWarmCacheCapacity));
  // Priming, untraced: the news workloads' only misses, timed as such.
  if (warm || streaming) {
    for (std::size_t pair = 0; pair < pairs; ++pair) {
      CMIF_RETURN_IF_ERROR(ServeOne(loop, pair, counts).status());
    }
  }
  const cmif::MappingCache::Stats cache_before = loop.cache().stats();

  // The replay.
  std::uint64_t op_id = 0;
  std::map<std::size_t, std::string> bodies;  // first body per pair (not edit)
  auto serve_pair = [&](std::size_t pair) -> Status {
    bool hit = false;
    CMIF_ASSIGN_OR_RETURN(auto compiled, ServeOne(loop, pair, counts, &hit));
    if (streaming) {
      CMIF_RETURN_IF_ERROR(Respond(*compiled, hit).status());
      return StreamOne(*corpus.corpus, *compiled, Profiles()[pair % Profiles().size()], counts)
          .status();
    }
    CMIF_ASSIGN_OR_RETURN(std::string body, Respond(*compiled, hit));
    if (!editing) {
      auto [it, fresh] = bodies.emplace(pair, std::move(body));
      if (!fresh && it->second != body) {
        return cmif::InternalError("one pair was served two different bodies");
      }
    }
    return Status::Ok();
  };
  const std::uint64_t order_seed =
      WorkloadSeed(options, cold ? 12 : warm ? 22 : streaming ? 32 : 42);
  std::size_t per_round = 0;
  for (const EditCycle& cycle : edit_inputs.cycles) {
    per_round += cycle.ops.size();
  }
  const std::vector<std::size_t> order = RoundOrder(w, pairs, order_seed);
  const std::vector<std::size_t> reads = EditReads(pairs, per_round, order_seed);
  auto done = [&] { return modes.busy_s[0] + modes.busy_s[1] >= options.seconds; };
  // Request workloads alternate whole rounds; edit_publish, whose rounds
  // (every document's whole cycle) are long, alternates documents' cycles.
  for (std::uint64_t round = 0; !done(); ++round) {
    const std::size_t steps = editing ? sessions.size() : 1;
    std::size_t in_round = 0;
    for (std::size_t step = 0; step < steps && !done(); ++step) {
      const int mode = static_cast<int>((editing ? step + round : round) % 2);
      obs::SetEnabled(mode == 1);
      const Clock::time_point start = Clock::now();
      if (editing) {
        const std::size_t d = step;
        for (const cmif::EditOp& op : edit_inputs.cycles[d].ops) {
          obs::ScopedTrace operation(obs::TraceContext{++op_id, 0, true});
          CMIF_RETURN_IF_ERROR(EditOne(*sessions[d], op, counts));
          ++modes.ops[mode];
          const std::size_t read_pair = reads[in_round];
          if (++in_round % kPublishEvery == 0) {
            CMIF_RETURN_IF_ERROR(PublishOne(*sessions[d], *corpus.corpus, d));
            CMIF_RETURN_IF_ERROR(serve_pair(d * Profiles().size()));
          }
          CMIF_RETURN_IF_ERROR(serve_pair(read_pair));
        }
      } else {
        for (std::size_t pair : order) {
          obs::ScopedTrace operation(obs::TraceContext{++op_id, 0, true});
          CMIF_RETURN_IF_ERROR(serve_pair(pair));
        }
        modes.ops[mode] += order.size();
      }
      modes.busy_s[mode] += SecondsSince(start);
      obs::SetEnabled(false);
      spans.Drain();
    }
  }
  result.attempted = modes.ops[0] + modes.ops[1];
  const cmif::MappingCache::Stats cache_after = loop.cache().stats();
  const double lookups = static_cast<double>((cache_after.hits - cache_before.hits) +
                                             (cache_after.misses - cache_before.misses));
  const double hit_ratio =
      lookups > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) / lookups : 0;

  // Every cold_compile request misses, so its hit time and allocations come
  // from serving again, untraced, the pairs the replay's last round left in
  // the cache.
  if (cold) {
    for (int pass = 0; pass < 8; ++pass) {
      for (std::size_t i = order.size() - kColdCacheCapacity; i < order.size(); ++i) {
        CMIF_RETURN_IF_ERROR(ServeOne(loop, order[i], counts).status());
      }
    }
  }
  CMIF_RETURN_IF_ERROR(SocketPhase(corpus, w, order_seed, counts));
  obs::SetEnabled(true);
  CMIF_RETURN_IF_ERROR(ProbeForeignLayers(options, cold || editing, editing, streaming, counts));
  obs::SetEnabled(false);
  spans.Drain();

  // The replay must have served exactly what the library compiles.
  if (editing) {
    for (std::size_t pair = 0; pair < pairs; ++pair) {
      CMIF_ASSIGN_OR_RETURN(auto compiled, ServeOne(loop, pair, counts));
      CMIF_ASSIGN_OR_RETURN(std::string body, Respond(*compiled, false));
      bodies.emplace(pair, std::move(body));
    }
  }
  Status checked = CheckBodies(corpus, bodies, /*with_oracle=*/false);
  if (!checked.ok()) {
    std::fprintf(stderr, "traced %s: %s\n", w.c_str(), checked.ToString().c_str());
  }
  result.correct = checked.ok();
  PerLayerMetrics(spans, counts, hit_ratio, modes, result.metrics);
  ReportSpans(options, spans);
  std::fprintf(stderr, "traced %s: untraced %.1f op/s, traced %.1f op/s over %llu ops\n",
               w.c_str(), modes.OpsPerSecond(0), modes.OpsPerSecond(1),
               static_cast<unsigned long long>(result.attempted));
  return result;
}

}  // namespace perfbench
