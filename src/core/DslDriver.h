//===- core/DslDriver.h - Execute driver-DSL programs -----------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An interpreter that runs driver-DSL programs end-to-end on the engine:
/// parse -> infer memory tags (§3) -> execute statements, building real
/// RDD lineage and triggering actions. With this, the DSL is a complete
/// little language: the same source the static analysis consumes is
/// executable, and its placement decisions can be observed live.
///
/// Record functions are chosen by an optional identifier argument from a
/// builtin registry (the DSL has no lambdas):
///
///   map(identity|swap|double|negate|one|key)   default: identity
///   mapValues(one|double|negate|identity)      default: identity
///   filter(even|odd|positive)                  default: keep all
///   flatMap(identity|dup)                      default: identity
///   reduceByKey(sum|min|max)                   default: sum
///   join(other)            combiner: (key, leftVal + rightVal)
///   union(other), groupByKey(), distinct(), sortByKey(), sample(P)
///   persist(LEVEL), unpersist(), count(), reduce(), collect()
///
/// Sources: `textFile("name")` reads the dataset bound under "name" (or a
/// default synthetic dataset when unbound); loop bounds with symbolic
/// upper ends (`for (i in 1..iters)`) resolve through the bounds map
/// (default 3).
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_CORE_DSLDRIVER_H
#define PANTHERA_CORE_DSLDRIVER_H

#include "core/Runtime.h"

#include <map>
#include <string>
#include <vector>

namespace panthera {
namespace core {

/// One executed action's outcome.
struct ActionOutcome {
  std::string Description; ///< e.g. "ranks.count"
  double Value = 0.0;
};

/// Results of one program execution.
struct DriverResult {
  std::vector<ActionOutcome> Actions;
  /// Variable -> final tag the engine used (from the installed analysis).
  std::map<std::string, MemTag> Tags;
};

/// Interprets driver programs against a Runtime's engine.
class DslDriver {
public:
  explicit DslDriver(Runtime &RT) : RT(RT) {}

  /// Binds the dataset \p Data (caller-owned) to textFile("\p Name").
  void bindDataset(const std::string &Name, const rdd::SourceData *Data);

  /// Sets the trip count used for `for (i in 1..<symbol>)` loops.
  void setLoopBound(const std::string &Symbol, int64_t Count) {
    LoopBounds[Symbol] = Count;
  }

  /// Parses, analyzes, installs tags, and executes \p Source. Throws
  /// EngineError (`line:col: error: message`) on parse errors and on uses
  /// of undefined variables; unknown builtin names fall back to their
  /// defaults.
  DriverResult run(std::string_view Source,
                   const analysis::AnalysisOptions &Options = {});

private:
  Runtime &RT;
  std::map<std::string, const rdd::SourceData *> Datasets;
  std::map<std::string, int64_t> LoopBounds;
  /// Default data for unbound sources (owned here, lazily built).
  std::vector<std::unique_ptr<rdd::SourceData>> OwnedData;
};

} // namespace core
} // namespace panthera

#endif // PANTHERA_CORE_DSLDRIVER_H
