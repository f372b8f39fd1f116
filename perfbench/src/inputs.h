// Workload inputs, made from the benchmark seed alone. Generation is not part
// of any timed region: it yields document and catalog *text* (and edit
// traces), which the timed set-up then parses and registers like a real
// server loading its corpus.
#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/cmif.h"

namespace perfbench {

// One generated document as text, with a catalog whose descriptor ids are
// unique to this document.
struct DocInput {
  std::string name;
  std::string document_text;
  std::string catalog_text;
};

struct CorpusShape {
  int documents = 0;
  int min_leaves = 100;
  int max_leaves = 400;
};

// `shape.documents` docgen documents, leaf targets spread evenly over
// [min_leaves, max_leaves], forward sync arcs, never over-constrained. Descriptor ids get a per-document prefix: docgen numbers
// its descriptors from zero in every document, and the serving corpus merges
// every catalog into one store.
cmif::StatusOr<std::vector<DocInput>> GenerateCorpus(std::uint64_t seed, const CorpusShape& shape,
                                                     const std::string& name_prefix);

// An edit cycle for one document, laid out the same way for every document
// and seed: kCycleCleanOps seeded retunes and arc adds/removes that the
// session re-solves incrementally, without dropping a may-arc, one retune that flips a window
// between unbounded and one hour (a finiteness flip: the session rebuilds), one tight
// may-arc add that relaxation drops again, and kCycleWhileDropped further
// edits made while that arc stays dropped (each a rebuild with
// relaxation); then every inverse in reverse order. Replaying a cycle
// returns the document to its exact starting text, so cycles repeat for as
// long as a run lasts, and 2 * (kCycleWhileDropped + 2) of every
// 2 * (kCycleCleanOps + kCycleWhileDropped + 2) edits take the rebuild path.
// No op conflicts, in the session or in the served compile under any of
// `profiles`.
inline constexpr int kCycleCleanOps = 11;
inline constexpr int kCycleWhileDropped = 2;

struct EditCycle {
  std::vector<cmif::EditOp> ops;
  std::size_t forward = 0;   // ops before the inverses begin
  std::size_t rejected = 0;  // proposed ops tried and undone
};

cmif::StatusOr<EditCycle> GenerateEditCycle(const DocInput& input, std::uint64_t seed,
                                            const std::vector<cmif::SystemProfile>& profiles);

// Deterministic 64-bit mixing for deriving per-item seeds.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
