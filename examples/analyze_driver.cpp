//===- examples/analyze_driver.cpp - Standalone tag-inference tool --------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// A compiler-style driver for the §3 static analysis: reads a driver
/// program in the DSL (from a file argument or stdin), parses it, runs
/// memory-tag inference, and prints the per-variable placement report
/// with reasons -- the "instrumentation plan" Panthera would pass to the
/// runtime.
///
/// Usage:
///   analyze_driver file.spark      # analyze a file
///   analyze_driver                 # ... or read the program from stdin
///   analyze_driver --demo          # analyze the built-in PageRank demo
///
/// Flags (combinable, before or after the file argument):
///   --instrument   also print the §4.2.1-instrumented program
///                  (rddAlloc calls inserted at materialization points)
///   --stages       also print the §2 lineage-to-stage plan
///   --unpersist-aware  enable the §5.5 analysis extension
///
//===----------------------------------------------------------------------===//

#include "analysis/Instrumenter.h"
#include "analysis/StagePlanner.h"
#include "analysis/TagInference.h"
#include "dsl/Parser.h"
#include "dsl/Printer.h"
#include "support/Errors.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>

using namespace panthera;

static const char *DemoProgram = R"(program pagerank {
  lines = textFile("input");
  links = lines.map().distinct().groupByKey().persist(MEMORY_ONLY);
  ranks = links.mapValues();
  for (i in 1..iters) {
    contribs = links.join(ranks).flatMap().persist(MEMORY_AND_DISK_SER);
    ranks = contribs.reduceByKey().mapValues();
  }
  ranks.count();
}
)";

int main(int Argc, char **Argv) {
  bool Demo = false, Instrument = false, Stages = false;
  analysis::AnalysisOptions Options;
  const char *File = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--demo") == 0)
      Demo = true;
    else if (std::strcmp(Argv[I], "--instrument") == 0)
      Instrument = true;
    else if (std::strcmp(Argv[I], "--stages") == 0)
      Stages = true;
    else if (std::strcmp(Argv[I], "--unpersist-aware") == 0)
      Options.UnpersistAware = true;
    else
      File = Argv[I];
  }

  std::string Source;
  if (Demo) {
    Source = DemoProgram;
    std::printf("(analyzing the built-in PageRank demo)\n\n%s\n",
                DemoProgram);
  } else if (File) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File);
      return 1;
    }
    Source.assign(std::istreambuf_iterator<char>(In),
                  std::istreambuf_iterator<char>());
  } else {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    Source = Buffer.str();
  }

  std::vector<dsl::Diagnostic> Diags;
  dsl::Program Program = dsl::parseDriverProgram(Source, Diags);
  if (!Diags.empty()) {
    for (const dsl::Diagnostic &D : Diags)
      std::fprintf(stderr, "%u:%u: error: %s\n", D.Loc.Line, D.Loc.Column,
                   D.Message.c_str());
    return 1;
  }

  analysis::AnalysisResult Result;
  try {
    Result = analysis::inferMemoryTags(Program, Options);
  } catch (const EngineError &E) {
    // An unknown storage level: the engine would refuse the program too.
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  std::printf("program '%s': %zu materialized RDD variable(s)\n",
              Program.Name.c_str(), Result.Vars.size());
  std::printf("%-12s %-6s %-26s %s\n", "variable", "tag", "storage level",
              "reason");
  for (const auto &[Var, Info] : Result.Vars)
    std::printf("%-12s %-6s %-26s %s\n", Var.c_str(), memTagName(Info.Tag),
                Info.ExpandedLevel.c_str(),
                analysis::tagReasonName(Info.Reason));
  for (const std::string &Note : Result.Notes)
    std::printf("note: %s\n", Note.c_str());

  if (Stages) {
    analysis::StagePlan Plan = analysis::planStages(Program);
    std::printf("\nstage plan (one representative iteration):\n%s",
                analysis::printStagePlan(Plan).c_str());
  }
  if (Instrument) {
    analysis::InstrumentationStats Stats;
    dsl::Program Out =
        analysis::instrumentProgram(Program, Result, &Stats);
    std::printf("\ninstrumented program (%u rddAlloc call%s inserted):\n%s",
                Stats.CallsInserted, Stats.CallsInserted == 1 ? "" : "s",
                dsl::printProgram(Out).c_str());
  }
  return 0;
}
