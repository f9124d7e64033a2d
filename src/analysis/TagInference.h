//===- analysis/TagInference.h - §3 static memory-tag inference -*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §3 static analysis: infers a DRAM/NVM memory tag for every
/// RDD variable that is materialized (persisted, or targeted by an action)
/// in a driver program, from def-use information relative to the loops in
/// which the variable appears.
///
/// Rules implemented (all from §3):
///  * Only loops that the variable's materialization point precedes or is
///    inside are considered.
///  * If there is a considered loop where the variable is used but never
///    defined, the variable is tagged DRAM (one instance, reused).
///  * Otherwise, a variable defined inside a considered loop is tagged NVM
///    (each iteration strands the previous, now-unused instance).
///  * With no considered loops, the variable is NVM (accessed once).
///  * OFF_HEAP persists become OFF_HEAP_NVM; DISK_ONLY carries no tag.
///  * If every materialized variable ends up NVM, all flip to DRAM so the
///    DRAM space does not sit idle.
///  * Every other storage level is expanded into a _DRAM or _NVM sub-level.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_ANALYSIS_TAGINFERENCE_H
#define PANTHERA_ANALYSIS_TAGINFERENCE_H

#include "dsl/Ast.h"
#include "support/MemTag.h"

#include <map>
#include <string>
#include <vector>

namespace panthera {
namespace analysis {

/// Why a variable received its tag (surfaced in diagnostics and tests).
enum class TagReason : uint8_t {
  UsedOnlyInLoop,     ///< DRAM: a considered loop only reads it.
  DefinedInLoop,      ///< NVM: redefined per iteration.
  NoConsideredLoop,   ///< NVM: no loop after/around materialization.
  OffHeap,            ///< NVM: OFF_HEAP persists go to native NVM.
  AllNvmFallback,     ///< DRAM: the flip-all rule fired.
  NotMaterialized,    ///< No tag: DISK_ONLY or never materialized.
  RetiredByUnpersist, ///< NVM: redefined + unpersisted per iteration
                      ///< (UnpersistAware extension only).
};

const char *tagReasonName(TagReason R);

/// Per-variable inference result.
struct VarTagInfo {
  std::string Name;
  bool Persisted = false;
  bool ActionMaterialized = false;
  bool OffHeap = false;
  std::string StorageLevel;  ///< As written; empty for action-materialized.
  std::string ExpandedLevel; ///< e.g. MEMORY_ONLY_DRAM (§3 sub-levels).
  MemTag Tag = MemTag::None;
  TagReason Reason = TagReason::NotMaterialized;
  dsl::SourceLoc MaterializationLoc;
};

/// Optional analysis extensions beyond the paper's §3 rules.
struct AnalysisOptions {
  /// §5.5 future-work extension: the paper's analysis ignores unpersist,
  /// so GraphX-style per-iteration graph RDDs are all tagged DRAM and
  /// stale generations must be demoted by dynamic migration at major GCs.
  /// With this flag, a variable that is both (re)defined and unpersisted
  /// inside a considered loop is tagged NVM statically: every iteration
  /// explicitly retires the previous instance, so instances are
  /// epoch-local even if an inner loop reads the current one.
  bool UnpersistAware = false;
};

/// Whole-program inference result.
struct AnalysisResult {
  /// Variable name -> inference (materialized variables only).
  std::map<std::string, VarTagInfo> Vars;
  /// True when the all-NVM -> all-DRAM fallback was applied.
  bool AllNvmFallbackApplied = false;
  /// Human-readable notes from the run.
  std::vector<std::string> Notes;

  /// Tag for \p Var; MemTag::None when unknown/unmaterialized.
  MemTag tagFor(const std::string &Var) const {
    auto It = Vars.find(Var);
    return It == Vars.end() ? MemTag::None : It->second.Tag;
  }
};

/// Runs the §3 inference over \p P (plus any enabled extensions). Throws
/// EngineError on a persist level rdd::parseStorageLevel rejects, as the
/// engine does.
AnalysisResult inferMemoryTags(const dsl::Program &P,
                               const AnalysisOptions &Options = {});

} // namespace analysis
} // namespace panthera

#endif // PANTHERA_ANALYSIS_TAGINFERENCE_H
