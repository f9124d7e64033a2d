//===- core/DslDriver.cpp - Execute driver-DSL programs -------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/DslDriver.h"

#include "analysis/SparkOps.h"
#include "dsl/Parser.h"
#include "rdd/StorageLevel.h"
#include "support/Errors.h"

using namespace panthera;
using namespace panthera::core;
using heap::ObjRef;
using rdd::Rdd;
using rdd::RddContext;
using rdd::TupleSink;

namespace {

/// First identifier argument of a call, or "" when absent.
std::string fnArg(const dsl::MethodCall &Call) {
  if (!Call.Args.empty() && Call.Args[0].K == dsl::Arg::Kind::Var)
    return Call.Args[0].Text;
  return "";
}

rdd::MapFn builtinMap(const std::string &Name) {
  if (Name == "swap")
    return [](RddContext &C, ObjRef T) {
      return C.makeTuple(static_cast<int64_t>(C.value(T)),
                         static_cast<double>(C.key(T)));
    };
  if (Name == "double")
    return [](RddContext &C, ObjRef T) {
      return C.makeTuple(C.key(T), C.value(T) * 2.0);
    };
  if (Name == "negate")
    return [](RddContext &C, ObjRef T) {
      return C.makeTuple(C.key(T), -C.value(T));
    };
  if (Name == "one")
    return [](RddContext &C, ObjRef T) { return C.makeTuple(C.key(T), 1.0); };
  if (Name == "key")
    return [](RddContext &C, ObjRef T) {
      return C.makeTuple(C.key(T), static_cast<double>(C.key(T)));
    };
  // identity (default)
  return [](RddContext &C, ObjRef T) {
    return C.makeTuple(C.key(T), C.value(T));
  };
}

rdd::ValueFn builtinValueFn(const std::string &Name) {
  if (Name == "one")
    return [](double) { return 1.0; };
  if (Name == "double")
    return [](double V) { return V * 2.0; };
  if (Name == "negate")
    return [](double V) { return -V; };
  return [](double V) { return V; };
}

rdd::FilterFn builtinFilter(const std::string &Name) {
  if (Name == "even")
    return [](RddContext &C, ObjRef T) { return C.key(T) % 2 == 0; };
  if (Name == "odd")
    return [](RddContext &C, ObjRef T) { return C.key(T) % 2 != 0; };
  if (Name == "positive")
    return [](RddContext &C, ObjRef T) { return C.value(T) > 0.0; };
  return [](RddContext &, ObjRef) { return true; };
}

rdd::FlatMapFn builtinFlatMap(const std::string &Name) {
  if (Name == "dup")
    return [](RddContext &C, ObjRef T, const TupleSink &S) {
      int64_t K = C.key(T);
      double V = C.value(T);
      S(C.makeTuple(K, V));
      S(C.makeTuple(K, V));
    };
  return [](RddContext &C, ObjRef T, const TupleSink &S) {
    S(C.makeTuple(C.key(T), C.value(T)));
  };
}

rdd::CombineFn builtinCombine(const std::string &Name) {
  if (Name == "min")
    return [](double A, double B) { return A < B ? A : B; };
  if (Name == "max")
    return [](double A, double B) { return A > B ? A : B; };
  return [](double A, double B) { return A + B; };
}

/// Interpreter state and statement walker.
class Interp {
public:
  Interp(Runtime &RT, std::map<std::string, const rdd::SourceData *> &Data,
         std::map<std::string, int64_t> &Bounds,
         std::vector<std::unique_ptr<rdd::SourceData>> &Owned,
         DriverResult &Result)
      : RT(RT), Datasets(Data), LoopBounds(Bounds), OwnedData(Owned),
        Result(Result) {}

  void runBody(const std::vector<dsl::StmtPtr> &Body) {
    for (const dsl::StmtPtr &S : Body)
      runStmt(*S);
  }

private:
  const rdd::SourceData *datasetFor(const std::string &Name) {
    auto It = Datasets.find(Name);
    if (It != Datasets.end())
      return It->second;
    // Default synthetic dataset: 8000 rows, keys dense, values = key.
    auto Data = std::make_unique<rdd::SourceData>(
        RT.ctx().config().NumPartitions);
    for (int64_t I = 0; I != 8000; ++I)
      (*Data)[static_cast<size_t>(I) % Data->size()].push_back(
          {I, static_cast<double>(I % 97)});
    const rdd::SourceData *Ptr = Data.get();
    OwnedData.push_back(std::move(Data));
    Datasets[Name] = Ptr;
    return Ptr;
  }

  [[noreturn]] void fail(const dsl::SourceLoc &Loc, const char *What) {
    throw EngineError(std::to_string(Loc.Line) + ":" +
                      std::to_string(Loc.Column) + ": error: " + What);
  }

  Rdd lookup(const std::string &Var, const dsl::SourceLoc &Loc) {
    auto It = Env.find(Var);
    if (It == Env.end())
      fail(Loc, "use of an undefined RDD variable");
    return It->second;
  }

  /// Evaluates a chain; \p AssignVar names the variable being defined
  /// ("" for expression statements) so persist can attach to it.
  Rdd evalChain(const dsl::Chain &C, const std::string &AssignVar) {
    Rdd Cur;
    if (C.RootIsSource) {
      if (C.RootName == "rddAlloc")
        return Rdd(); // instrumentation no-op: the engine arms itself
      std::string Name =
          !C.RootArgs.empty() && C.RootArgs[0].K == dsl::Arg::Kind::Str
              ? C.RootArgs[0].Text
              : C.RootName;
      Cur = RT.ctx().source(datasetFor(Name));
    } else {
      Cur = lookup(C.RootName, C.Loc);
    }

    for (const dsl::MethodCall &Call : C.Calls) {
      const std::string &Op = Call.Name;
      if (Op == "map") {
        Cur = Cur.map(builtinMap(fnArg(Call)));
      } else if (Op == "mapValues") {
        Cur = Cur.mapValues(builtinValueFn(fnArg(Call)));
      } else if (Op == "filter") {
        Cur = Cur.filter(builtinFilter(fnArg(Call)));
      } else if (Op == "flatMap") {
        Cur = Cur.flatMap(builtinFlatMap(fnArg(Call)));
      } else if (Op == "groupByKey") {
        Cur = Cur.groupByKey();
      } else if (Op == "reduceByKey") {
        Cur = Cur.reduceByKey(builtinCombine(fnArg(Call)));
      } else if (Op == "distinct") {
        Cur = Cur.distinct();
      } else if (Op == "sortByKey") {
        Cur = Cur.sortByKey();
      } else if (Op == "sample") {
        double Fraction = 0.5;
        if (!Call.Args.empty() && Call.Args[0].K == dsl::Arg::Kind::Num)
          Fraction = static_cast<double>(Call.Args[0].Num) / 100.0;
        Cur = Cur.sample(Fraction, /*Seed=*/1234);
      } else if (Op == "join") {
        if (Call.Args.empty() || Call.Args[0].K != dsl::Arg::Kind::Var)
          fail(Call.Loc, "join needs an RDD variable argument");
        Rdd Right = lookup(Call.Args[0].Text, Call.Loc);
        Cur = Cur.join(Right, [](RddContext &C2, ObjRef Left, double RV) {
          return C2.makeTuple(C2.key(Left), C2.value(Left) + RV);
        });
      } else if (Op == "union" || Op == "unionWith") {
        if (Call.Args.empty() || Call.Args[0].K != dsl::Arg::Kind::Var)
          fail(Call.Loc, "union needs an RDD variable argument");
        Cur = Cur.unionWith(lookup(Call.Args[0].Text, Call.Loc));
      } else if (analysis::isPersist(Op)) {
        std::string Level = fnArg(Call);
        const std::string &Var =
            !AssignVar.empty() ? AssignVar : C.RootName;
        Cur = Cur.persistAs(Var, rdd::parseStorageLevel(Level));
      } else if (analysis::isUnpersist(Op)) {
        Cur.unpersist();
      } else if (Op == "count") {
        record(C, AssignVar, "count",
               static_cast<double>(Cur.count()));
      } else if (Op == "reduce") {
        record(C, AssignVar, "reduce",
               Cur.reduce(builtinCombine(fnArg(Call))));
      } else if (Op == "collect" || Op == "collectAsMap") {
        record(C, AssignVar, "collect",
               static_cast<double>(Cur.collect().size()));
      } else if (analysis::isAction(Op)) {
        record(C, AssignVar, Op.c_str(),
               static_cast<double>(Cur.count()));
      } else {
        fail(Call.Loc, "unknown method in driver program");
      }
    }
    return Cur;
  }

  void record(const dsl::Chain &C, const std::string &AssignVar,
              const char *Action, double Value) {
    std::string Owner = !AssignVar.empty()
                            ? AssignVar
                            : (C.RootIsSource ? "<source>" : C.RootName);
    Result.Actions.push_back({Owner + "." + Action, Value});
  }

  void runStmt(const dsl::Stmt &S) {
    switch (S.K) {
    case dsl::Stmt::Kind::Assign: {
      Rdd R = evalChain(S.Value, S.Var);
      if (R.valid())
        Env[S.Var] = R;
      break;
    }
    case dsl::Stmt::Kind::Expr:
      evalChain(S.Value, "");
      break;
    case dsl::Stmt::Kind::Loop: {
      int64_t End = S.LoopEnd;
      if (!S.LoopEndVar.empty()) {
        auto It = LoopBounds.find(S.LoopEndVar);
        End = It != LoopBounds.end() ? It->second : 3;
      }
      for (int64_t I = S.LoopBegin; I <= End; ++I)
        runBody(S.Body);
      break;
    }
    }
  }

  Runtime &RT;
  std::map<std::string, const rdd::SourceData *> &Datasets;
  std::map<std::string, int64_t> &LoopBounds;
  std::vector<std::unique_ptr<rdd::SourceData>> &OwnedData;
  DriverResult &Result;
  std::map<std::string, Rdd> Env;
};

} // namespace

void DslDriver::bindDataset(const std::string &Name,
                            const rdd::SourceData *Data) {
  Datasets[Name] = Data;
}

DriverResult DslDriver::run(std::string_view Source,
                            const analysis::AnalysisOptions &Options) {
  const analysis::AnalysisResult &Tags =
      RT.analyzeAndInstall(Source, Options);
  DriverResult Result;
  for (const auto &[Var, Info] : Tags.Vars)
    Result.Tags[Var] = Info.Tag;

  std::vector<dsl::Diagnostic> Diags;
  dsl::Program P = dsl::parseDriverProgram(Source, Diags);
  assert(Diags.empty() && "analyzeAndInstall already validated the source");

  Interp I(RT, Datasets, LoopBounds, OwnedData, Result);
  I.runBody(P.Body);
  return Result;
}
