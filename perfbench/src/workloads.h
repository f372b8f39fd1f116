// The four workloads, their shared set-up, and the in-process reference
// computations their outputs are checked against.
//
// Untraced runs (workloads.cc) drive one closed-loop client connection
// against an in-process NetServer with one compile worker and report the
// end-to-end metrics. Traced runs (traced.cc) replay the same operations in
// process through the program's entry points with its observability on, and
// report the per-layer metrics.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/probe.h"
#include "src/api/cmif.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Workload sizes. Sizes and mixes do not depend on the seed; the seed picks
// document structure, media content, edit traces and request order.
inline constexpr int kColdDocuments = 48;  // x 2 profiles = 96 cold pairs
inline constexpr std::size_t kColdCacheCapacity = 16;
inline constexpr int kWarmDocuments = 24;  // x 2 profiles = 48 hot pairs
inline constexpr std::size_t kWarmCacheCapacity = 128;
inline constexpr std::size_t kWarmRoundRequests = 1000;
inline constexpr double kWarmZipfSkew = 1.0;
inline constexpr int kStreamDocuments = 3;  // 1, 2 and 3 stories
inline constexpr int kEditDocuments = 32;
inline constexpr int kPublishEvery = 8;  // every 8th edit publishes the document it edited
inline constexpr double kEditZipfSkew = 1.0;

// The served profiles, in the order requests index them.
const std::vector<cmif::SystemProfile>& Profiles();

// The serving options of every workload: one compile thread, Profiles().
cmif::ServeOptions ServeOptionsFor(std::size_t cache_capacity);

// A served corpus plus what the checks need to rebuild its inputs.
struct Corpus {
  std::unique_ptr<cmif::ServeCorpus> corpus;
  // Per generated document: its own catalog (empty for news documents).
  std::vector<cmif::DescriptorStore> catalogs;
};

// Set-up: parse every document and catalog and register them, inside
// "ddbms.catalog_load" and "serve.add_document" spans (the parser records
// "fmt.parse" itself); spans record only while obs is enabled.
cmif::StatusOr<Corpus> LoadCorpus(const std::vector<DocInput>& inputs);
// Set-up: the Evening News corpus (1..3 stories, media generated from seed).
cmif::StatusOr<Corpus> LoadNewsCorpus(int documents, std::uint64_t seed);

// Request streams. A request is a (document, profile) pair index:
// pair = document * Profiles().size() + profile.
std::size_t PairCount(const Corpus& corpus);
cmif::api::PresentRequest RequestFor(const Corpus& corpus, std::size_t pair);
// Every pair once, in a seeded order.
std::vector<std::size_t> ShuffledRound(std::size_t pairs, std::uint64_t seed);
// `length` Zipf-distributed pairs, each rank r (pair r) given its share of
// the round: the seed changes the order but not the mix.
std::vector<std::size_t> ZipfRound(std::size_t pairs, std::size_t length, double skew,
                                   std::uint64_t seed);
// The requests of one round of a request workload, the same in every round:
// cold_compile and stream_delivery request every pair once in a seeded
// order, warm_hit kWarmRoundRequests Zipf-distributed pairs. With 96 pairs
// cycling through a 16-entry cache, every cold_compile request misses.
std::vector<std::size_t> RoundOrder(const std::string& workload, std::size_t pairs,
                                    std::uint64_t seed);
// edit_publish: the pair read after each edit of a round (`edits` of them),
// the same in every round.
std::vector<std::size_t> EditReads(std::size_t pairs, std::size_t edits, std::uint64_t seed);

// Checks every distinct (document, profile) body (keyed by pair) against
// the in-process compile, and with `with_oracle` the compile against the
// oracle.
cmif::Status CheckBodies(const Corpus& corpus, const std::map<std::size_t, std::string>& bodies,
                         bool with_oracle);

// Seeds of each workload's inputs.
std::uint64_t WorkloadSeed(const Options& options, std::uint64_t salt);

// The edit_publish inputs: documents plus one edit cycle each.
struct EditInputs {
  std::vector<DocInput> documents;
  std::vector<EditCycle> cycles;
};
cmif::StatusOr<EditInputs> MakeEditInputs(const Options& options);
cmif::StatusOr<std::vector<DocInput>> MakeColdInputs(const Options& options);

cmif::StatusOr<RunResult> RunUntraced(const Options& options);
cmif::StatusOr<RunResult> RunTraced(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
