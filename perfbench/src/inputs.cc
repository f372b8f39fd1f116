#include "perfbench/src/inputs.h"

#include <algorithm>
#include <optional>

#include "src/base/random.h"
#include "src/base/string_util.h"
#include "src/ddbms/persist.h"
#include "src/fmt/writer.h"
#include "src/gen/docgen.h"
#include "src/gen/editgen.h"

namespace perfbench {

using cmif::Status;
using cmif::StatusOr;

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

void ReplaceAll(std::string& text, const std::string& from, const std::string& to) {
  std::size_t at = 0;
  while ((at = text.find(from, at)) != std::string::npos) {
    text.replace(at, from.size(), to);
    at += to.size();
  }
}

// The node an edit-op path names ("/" is the root), or null.
const cmif::Node* ResolvePath(const cmif::Document& document, const std::string& path) {
  StatusOr<cmif::NodePath> parsed = cmif::NodePath::Parse(path);
  if (!parsed.ok()) {
    return nullptr;
  }
  const cmif::Node* node = &document.root();
  for (const std::string& segment : parsed->segments()) {
    node = node->FindChild(segment);
    if (node == nullptr) {
      return nullptr;
    }
  }
  return node;
}

// The op that undoes `op` on `document` (the state before `op` applies).
// Arc removal is only invertible when it removes the owner's last arc: an
// add-arc appends, so re-adding anything else would reorder the arc list.
std::optional<cmif::EditOp> InverseOf(const cmif::Document& document, const cmif::EditOp& op) {
  const cmif::Node* owner = ResolvePath(document, op.path);
  if (owner == nullptr) {
    return std::nullopt;
  }
  const auto& arcs = owner->arcs();
  cmif::EditOp inverse;
  inverse.path = op.path;
  switch (op.kind) {
    case cmif::EditOpKind::kRetuneArc: {
      if (op.arc_index < 0 || static_cast<std::size_t>(op.arc_index) >= arcs.size()) {
        return std::nullopt;
      }
      inverse.kind = cmif::EditOpKind::kRetuneArc;
      inverse.arc_index = op.arc_index;
      inverse.arc = arcs[static_cast<std::size_t>(op.arc_index)];
      return inverse;
    }
    case cmif::EditOpKind::kAddArc:
      inverse.kind = cmif::EditOpKind::kRemoveArc;
      inverse.arc_index = static_cast<int>(arcs.size());
      return inverse;
    case cmif::EditOpKind::kRemoveArc:
      if (arcs.empty() || op.arc_index != static_cast<int>(arcs.size()) - 1) {
        return std::nullopt;
      }
      inverse.kind = cmif::EditOpKind::kAddArc;
      inverse.arc = arcs.back();
      return inverse;
    default:
      return std::nullopt;
  }
}

// True when the served compile of `document` (capability constraints
// included) is feasible under every profile; with `relaxed` it must drop a
// may-arc to get there, without it it must not.
bool ServedCompiles(const cmif::Document& document, const cmif::DescriptorStore& store,
                    const std::vector<cmif::SystemProfile>& profiles, bool relaxed) {
  for (const cmif::SystemProfile& profile : profiles) {
    cmif::api::PipelineOptions options;
    options.profile = profile;
    StatusOr<cmif::api::CompileReport> report =
        cmif::api::Compile(document, store, cmif::BlockStore(), options);
    if (!report.ok() || !report->schedule.feasible ||
        report->schedule.dropped_arcs.empty() == relaxed) {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<std::vector<DocInput>> GenerateCorpus(std::uint64_t seed, const CorpusShape& shape,
                                               const std::string& name_prefix) {
  std::vector<DocInput> inputs;
  for (int i = 0; i < shape.documents; ++i) {
    cmif::GenOptions gen;
    gen.seed = MixSeed(seed, 100 + static_cast<std::uint64_t>(i));
    // Leaf targets spread evenly over the range, so the size mix is the same
    // for every seed.
    gen.target_leaves =
        shape.documents == 1
            ? shape.min_leaves
            : shape.min_leaves + (shape.max_leaves - shape.min_leaves) * i / (shape.documents - 1);
    gen.max_depth = 5;
    gen.max_fanout = 5;
    gen.arcs_per_composite = 0.8;
    gen.tight_windows = false;
    CMIF_ASSIGN_OR_RETURN(cmif::GenWorkload workload, cmif::GenerateRandomDocument(gen));
    DocInput input;
    input.name = cmif::StrFormat("%s-%d", name_prefix.c_str(), i);
    CMIF_ASSIGN_OR_RETURN(input.document_text, cmif::WriteDocument(workload.document));
    CMIF_ASSIGN_OR_RETURN(input.catalog_text, cmif::WriteCatalog(workload.store));
    const std::string unique = cmif::StrFormat("%s-gen-desc-", input.name.c_str());
    ReplaceAll(input.document_text, "gen-desc-", unique);
    ReplaceAll(input.catalog_text, "gen-desc-", unique);
    inputs.push_back(std::move(input));
  }
  return inputs;
}

StatusOr<EditCycle> GenerateEditCycle(const DocInput& input, std::uint64_t seed,
                                      const std::vector<cmif::SystemProfile>& profiles) {
  CMIF_ASSIGN_OR_RETURN(cmif::Document document, cmif::api::LoadDocument(input.document_text));
  CMIF_ASSIGN_OR_RETURN(cmif::DescriptorStore store, cmif::api::LoadCatalog(input.catalog_text));
  CMIF_ASSIGN_OR_RETURN(std::unique_ptr<cmif::api::EditSession> probe,
                        cmif::api::EditSession::Open(document, store));
  EditCycle cycle;
  std::vector<cmif::EditOp> inverses;

  // Appends the first op of seeded traces, drawn against the probe's
  // current document, that recompiles in the probe as `need` asks; every
  // op tried and refused is undone.
  enum class Need { kClean, kWindowSwitch, kDrop, kWhileDropped };
  auto take = [&](Need need, std::uint64_t salt) -> Status {
    cmif::EditGenOptions options;
    options.count = 32;
    options.add_node_fraction = 0;
    options.remove_node_fraction = 0;
    if (need == Need::kDrop) {
      // Tight "may" arcs: the ones relaxation may drop.
      options.add_arc_fraction = 1;
      options.remove_arc_fraction = 0;
      options.may_fraction = 1;
      options.tight_fraction = 1;
    } else {
      options.add_arc_fraction = 0.25;
      options.remove_arc_fraction = 0.15;
      options.tight_fraction = 0;
    }
    for (int attempt = 0; attempt < 16; ++attempt) {
      options.seed = MixSeed(seed, salt * 64 + static_cast<std::uint64_t>(attempt));
      CMIF_ASSIGN_OR_RETURN(std::vector<cmif::EditOp> proposed,
                            cmif::GenerateEditTrace(probe->document(), options));
      for (cmif::EditOp op : proposed) {
        const cmif::Node* owner = ResolvePath(probe->document(), op.path);
        if (owner == nullptr) {
          break;  // the trace was drawn against a document that has since changed
        }
        const bool retune = op.kind == cmif::EditOpKind::kRetuneArc;
        const cmif::SyncArc* current =
            retune && op.arc_index >= 0 &&
                    static_cast<std::size_t>(op.arc_index) < owner->arcs().size()
                ? &owner->arcs()[static_cast<std::size_t>(op.arc_index)]
                : nullptr;
        if (need == Need::kWindowSwitch) {
          // Flip the window between unbounded and an hour (or back): a
          // finiteness flip always takes the session's rebuild path.
          if (current == nullptr) {
            continue;
          }
          op.arc = *current;
          if (current->max_delay.has_value()) {
            op.arc.max_delay.reset();
          } else {
            op.arc.max_delay = cmif::MediaTime::Rational(3600, 1);
          }
        } else if (current != nullptr &&
                   current->max_delay.has_value() != op.arc.max_delay.has_value()) {
          continue;  // finiteness flips are the one kWindowSwitch op
        }
        std::optional<cmif::EditOp> inverse = InverseOf(probe->document(), op);
        if (!inverse || !probe->Apply(op).ok()) {
          continue;
        }
        StatusOr<cmif::api::EditDelta> delta = probe->Recompile();
        const bool dropped = delta.ok() && !delta->dropped_arcs.empty();
        const bool wants_drop = need == Need::kDrop || need == Need::kWhileDropped;
        if (!delta.ok() || dropped != wants_drop ||
            (need == Need::kClean && !delta->incremental) ||
            !ServedCompiles(probe->document(), store, profiles, wants_drop)) {
          ++cycle.rejected;
          CMIF_RETURN_IF_ERROR(probe->Apply(*inverse).status());
          CMIF_RETURN_IF_ERROR(probe->Recompile().status());
          continue;
        }
        cycle.ops.push_back(op);
        inverses.push_back(*inverse);
        return Status::Ok();
      }
    }
    return cmif::InternalError("no edit of the wanted kind found for " + input.name);
  };
  for (int i = 0; i < kCycleCleanOps; ++i) {
    CMIF_RETURN_IF_ERROR(take(Need::kClean, 1 + static_cast<std::uint64_t>(i)));
  }
  CMIF_RETURN_IF_ERROR(take(Need::kWindowSwitch, 100));
  CMIF_RETURN_IF_ERROR(take(Need::kDrop, 200));
  for (int i = 0; i < kCycleWhileDropped; ++i) {
    CMIF_RETURN_IF_ERROR(take(Need::kWhileDropped, 300 + static_cast<std::uint64_t>(i)));
  }
  cycle.forward = cycle.ops.size();
  cycle.ops.insert(cycle.ops.end(), inverses.rbegin(), inverses.rend());

  // The backward half must recompile too (the inverses of the ops made
  // while the arc was dropped still drop it), and must land on the
  // original text.
  for (std::size_t i = cycle.forward; i < cycle.ops.size(); ++i) {
    CMIF_RETURN_IF_ERROR(probe->Apply(cycle.ops[i]).status());
    CMIF_ASSIGN_OR_RETURN(cmif::api::EditDelta delta, probe->Recompile());
    const bool still_dropped = i < cycle.forward + static_cast<std::size_t>(kCycleWhileDropped);
    if (delta.dropped_arcs.empty() == still_dropped) {
      return cmif::InternalError("an inverse edit of " + input.name +
                                 " changes which may-arcs are dropped");
    }
  }
  CMIF_ASSIGN_OR_RETURN(std::string original, cmif::WriteDocument(document));
  CMIF_ASSIGN_OR_RETURN(std::string replayed, cmif::WriteDocument(probe->document()));
  if (original != replayed) {
    return cmif::InternalError("edit cycle for " + input.name + " does not return to its start");
  }
  return cycle;
}

}  // namespace perfbench
