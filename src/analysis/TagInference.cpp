//===- analysis/TagInference.cpp - §3 static memory-tag inference --------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/TagInference.h"

#include "analysis/SparkOps.h"
#include "rdd/StorageLevel.h"

#include <algorithm>

using namespace panthera;
using namespace panthera::analysis;
using dsl::Chain;
using dsl::Program;
using dsl::Stmt;

const char *panthera::analysis::tagReasonName(TagReason R) {
  switch (R) {
  case TagReason::UsedOnlyInLoop:
    return "used-only in a loop after materialization";
  case TagReason::DefinedInLoop:
    return "defined per loop iteration";
  case TagReason::NoConsideredLoop:
    return "no loop follows or contains the materialization point";
  case TagReason::OffHeap:
    return "OFF_HEAP persists into native NVM";
  case TagReason::AllNvmFallback:
    return "all-NVM fallback flipped the tag to DRAM";
  case TagReason::NotMaterialized:
    return "not materialized in memory";
  case TagReason::RetiredByUnpersist:
    return "redefined and unpersisted per iteration (extension)";
  }
  return "?";
}

namespace {

/// A loop's statement-index range [Start, End] (pre-order, inclusive).
struct LoopRange {
  int Start;
  int End;
};

/// Flattened def/use facts gathered in one pre-order walk.
struct Facts {
  // Per variable: statement indices of definitions, uses, unpersists.
  std::map<std::string, std::vector<int>> Defs;
  std::map<std::string, std::vector<int>> Uses;
  std::map<std::string, std::vector<int>> Unpersists;
  // Materialization: variable -> (index, persisted?, level, loc).
  struct Materialization {
    int Index = -1;
    bool Persisted = false;
    rdd::StorageLevel Level = rdd::StorageLevel::MemoryOnly;
    dsl::SourceLoc Loc;
  };
  std::map<std::string, Materialization> Mats;
  std::vector<LoopRange> Loops;
};

class FactCollector {
public:
  explicit FactCollector(Facts &F) : F(F) {}

  void run(const Program &P) {
    for (const auto &S : P.Body)
      visitStmt(*S);
  }

private:
  void noteUse(const std::string &Var, int Index) {
    F.Uses[Var].push_back(Index);
  }
  void noteDef(const std::string &Var, int Index) {
    F.Defs[Var].push_back(Index);
  }

  /// Records the earliest materialization of \p Var. Per §2, a persisted
  /// RDD materializes at the persist call; an action-targeted RDD at the
  /// action. Once materialized, later statements do not move the point.
  void noteMaterialization(const std::string &Var, int Index, bool Persisted,
                           rdd::StorageLevel Level, dsl::SourceLoc Loc) {
    auto It = F.Mats.find(Var);
    if (It != F.Mats.end()) {
      // Keep the first; upgrade non-persist to persist info if same stmt.
      if (Persisted && !It->second.Persisted && It->second.Index == Index) {
        It->second.Persisted = true;
        It->second.Level = Level;
      }
      return;
    }
    F.Mats[Var] = {Index, Persisted, Level, Loc};
  }

  void visitChain(const Chain &C, int Index,
                  const std::string &DefinedVar) {
    if (!C.RootIsSource)
      noteUse(C.RootName, Index);
    for (const dsl::MethodCall &Call : C.Calls) {
      for (const dsl::Arg &A : Call.Args)
        if (A.K == dsl::Arg::Kind::Var && A.Text != "_")
          noteUse(A.Text, Index);
      if (isPersist(Call.Name)) {
        // The engine's own parser: a level the engine would reject (it
        // throws EngineError) is rejected here too, not tagged.
        rdd::StorageLevel Level = rdd::StorageLevel::MemoryOnly;
        if (!Call.Args.empty() && Call.Args[0].K == dsl::Arg::Kind::Var)
          Level = rdd::parseStorageLevel(Call.Args[0].Text);
        // persist in a definition chain materializes the defined variable;
        // persist invoked directly on a variable materializes that one.
        const std::string &Target =
            !DefinedVar.empty() ? DefinedVar
                                : (C.RootIsSource ? DefinedVar : C.RootName);
        if (!Target.empty())
          noteMaterialization(Target, Index, /*Persisted=*/true, Level,
                              Call.Loc);
      } else if (isAction(Call.Name)) {
        // An action forces the chain; the root variable's RDD becomes
        // materialized here if it was not already.
        if (!C.RootIsSource)
          noteMaterialization(C.RootName, Index, /*Persisted=*/false,
                              rdd::StorageLevel::MemoryOnly, Call.Loc);
      } else if (isUnpersist(Call.Name)) {
        if (!C.RootIsSource)
          F.Unpersists[C.RootName].push_back(Index);
      }
    }
  }

  void visitStmt(const Stmt &S) {
    int Index = NextIndex++;
    switch (S.K) {
    case Stmt::Kind::Assign:
      visitChain(S.Value, Index, S.Var);
      noteDef(S.Var, Index);
      break;
    case Stmt::Kind::Expr:
      visitChain(S.Value, Index, "");
      break;
    case Stmt::Kind::Loop: {
      int Start = NextIndex; // first index inside the body
      for (const auto &Body : S.Body)
        visitStmt(*Body);
      int End = NextIndex - 1;
      if (End >= Start)
        F.Loops.push_back({Start, End});
      break;
    }
    }
  }

  Facts &F;
  int NextIndex = 0;
};

bool anyIndexIn(const std::vector<int> &Indices, const LoopRange &L) {
  return std::any_of(Indices.begin(), Indices.end(), [&](int I) {
    return I >= L.Start && I <= L.End;
  });
}

} // namespace

AnalysisResult panthera::analysis::inferMemoryTags(
    const Program &P, const AnalysisOptions &Options) {
  Facts F;
  FactCollector(F).run(P);

  AnalysisResult R;
  for (const auto &[Var, Mat] : F.Mats) {
    VarTagInfo Info;
    Info.Name = Var;
    Info.Persisted = Mat.Persisted;
    Info.ActionMaterialized = !Mat.Persisted;
    if (Mat.Persisted)
      Info.StorageLevel = rdd::storageLevelName(Mat.Level);
    Info.MaterializationLoc = Mat.Loc;

    if (Mat.Persisted && Mat.Level == rdd::StorageLevel::DiskOnly) {
      // DISK_ONLY carries no memory tag (§3).
      Info.Tag = MemTag::None;
      Info.Reason = TagReason::NotMaterialized;
      Info.ExpandedLevel = "DISK_ONLY";
      R.Vars[Var] = std::move(Info);
      continue;
    }
    if (Mat.Persisted && Mat.Level == rdd::StorageLevel::OffHeapSer) {
      // OFF_HEAP translates directly to OFF_HEAP_NVM (§3): data placed in
      // native memory is rarely used.
      Info.Tag = MemTag::Nvm;
      Info.OffHeap = true;
      Info.Reason = TagReason::OffHeap;
      Info.ExpandedLevel = "OFF_HEAP_NVM";
      R.Vars[Var] = std::move(Info);
      continue;
    }

    // Consider only loops the materialization point precedes or is in.
    const std::vector<int> &Defs = F.Defs[Var];
    const std::vector<int> &Uses = F.Uses[Var];
    bool SawUsedOnlyLoop = false;
    bool SawDefiningLoop = false;
    bool SawConsideredLoop = false;
    bool SawRetiringLoop = false;
    for (const LoopRange &L : F.Loops) {
      if (Mat.Index > L.End)
        continue; // loop entirely before materialization: ignored
      SawConsideredLoop = true;
      bool DefinedHere = anyIndexIn(Defs, L);
      bool UsedHere = anyIndexIn(Uses, L);
      if (UsedHere && !DefinedHere)
        SawUsedOnlyLoop = true;
      if (DefinedHere)
        SawDefiningLoop = true;
      if (Options.UnpersistAware && DefinedHere &&
          anyIndexIn(F.Unpersists[Var], L))
        SawRetiringLoop = true;
    }

    if (SawRetiringLoop) {
      // Extension: redefining AND unpersisting per iteration retires the
      // previous instance explicitly; every instance is epoch-local.
      Info.Tag = MemTag::Nvm;
      Info.Reason = TagReason::RetiredByUnpersist;
      R.Vars[Var] = std::move(Info);
      continue;
    }
    if (SawUsedOnlyLoop) {
      Info.Tag = MemTag::Dram;
      Info.Reason = TagReason::UsedOnlyInLoop;
    } else if (SawDefiningLoop) {
      Info.Tag = MemTag::Nvm;
      Info.Reason = TagReason::DefinedInLoop;
    } else {
      Info.Tag = MemTag::Nvm;
      Info.Reason = SawConsideredLoop ? TagReason::DefinedInLoop
                                      : TagReason::NoConsideredLoop;
      if (!SawConsideredLoop)
        Info.Reason = TagReason::NoConsideredLoop;
      else if (!SawDefiningLoop)
        // Loops exist but never touch the variable: same as no loop.
        Info.Reason = TagReason::NoConsideredLoop;
    }
    R.Vars[Var] = std::move(Info);
  }

  // All-NVM fallback (§3): if every tagged variable is NVM, flip all to
  // DRAM so the DRAM space is used first; overflow lands in NVM anyway.
  bool AnyHeapTagged = false;
  bool AllNvm = true;
  for (const auto &[Var, Info] : R.Vars) {
    (void)Var;
    if (Info.Tag == MemTag::None || Info.OffHeap)
      continue;
    AnyHeapTagged = true;
    if (Info.Tag != MemTag::Nvm)
      AllNvm = false;
  }
  if (AnyHeapTagged && AllNvm) {
    R.AllNvmFallbackApplied = true;
    for (auto &[Var, Info] : R.Vars) {
      (void)Var;
      if (Info.Tag == MemTag::Nvm && !Info.OffHeap) {
        Info.Tag = MemTag::Dram;
        Info.Reason = TagReason::AllNvmFallback;
      }
    }
    R.Notes.push_back("all persisted RDDs were NVM; flipped all to DRAM");
  }

  // Expand storage levels into _DRAM/_NVM sub-levels.
  for (auto &[Var, Info] : R.Vars) {
    (void)Var;
    if (!Info.ExpandedLevel.empty() || Info.Tag == MemTag::None)
      continue;
    std::string Base =
        Info.StorageLevel.empty() ? "MEMORY_ONLY" : Info.StorageLevel;
    Info.ExpandedLevel =
        Base + (Info.Tag == MemTag::Dram ? "_DRAM" : "_NVM");
  }
  return R;
}
