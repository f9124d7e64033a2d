//===- examples/run_driver.cpp - Execute a DSL driver program -------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end driver execution: parse a DSL program, run the §3 analysis,
/// and *execute* it on the Panthera runtime over synthetic data — printing
/// the inferred placement, every action's result, and the memory-system
/// report. The full front-end-to-heap path in one command.
///
/// Usage:
///   run_driver file.spark [iters]
///   run_driver --demo [iters]          # built-in PageRank-shaped demo
///
/// A malformed program, or one that uses an undefined variable, prints
/// `line:col: error: ...` to stderr and exits 1.
///
//===----------------------------------------------------------------------===//

#include "core/DslDriver.h"
#include "support/Errors.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace panthera;

static const char *Demo = R"(program pagerank {
  links = textFile("graph").map().distinct().groupByKey()
          .persist(MEMORY_ONLY);
  ranks = links.mapValues(one);
  for (i in 1..iters) {
    contribs = links.join(ranks).mapValues()
               .persist(MEMORY_AND_DISK_SER);
    ranks = contribs.reduceByKey(sum).mapValues();
  }
  ranks.count();
}
)";

int main(int Argc, char **Argv) {
  std::string Source;
  int64_t Iters = 3;
  const char *File = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--demo") == 0)
      Source = Demo;
    else if (Argv[I][0] >= '0' && Argv[I][0] <= '9')
      Iters = std::atoll(Argv[I]);
    else
      File = Argv[I];
  }
  if (Source.empty() && File) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File);
      return 1;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
  }
  if (Source.empty()) {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    Source = Buffer.str();
  }

  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  Config.HeapPaperGB = 64;
  Config.DramRatio = 1.0 / 3.0;
  core::Runtime RT(Config);
  core::DslDriver Driver(RT);
  Driver.setLoopBound("iters", Iters);
  Driver.setLoopBound("n", Iters);

  core::DriverResult Result;
  try {
    Result = Driver.run(Source);
  } catch (const EngineError &E) {
    std::fprintf(stderr, "run_driver: %s\n", E.what());
    return 1;
  }

  std::printf("inferred placement:\n");
  for (const auto &[Var, Tag] : Result.Tags)
    std::printf("  %-12s -> %s\n", Var.c_str(), memTagName(Tag));
  std::printf("\nactions:\n");
  for (const core::ActionOutcome &A : Result.Actions)
    std::printf("  %-20s = %g\n", A.Description.c_str(), A.Value);

  core::RunReport R = RT.report();
  std::printf("\nruntime: %.2f simulated ms (gc %.2f), %llu minor / %llu "
              "major GCs, %.2f J\n",
              R.TotalNs / 1e6, R.GcNs / 1e6,
              static_cast<unsigned long long>(R.Gc.MinorGcs),
              static_cast<unsigned long long>(R.Gc.MajorGcs),
              R.TotalJoules);
  std::printf("old-gen residency: DRAM %llu KB, NVM %llu KB, pretenured "
              "arrays %llu\n",
              static_cast<unsigned long long>(
                  RT.heap().oldDram().usedBytes() / 1024),
              static_cast<unsigned long long>(
                  RT.heap().oldNvm().usedBytes() / 1024),
              static_cast<unsigned long long>(
                  RT.heap().stats().ArraysPretenured));
  return 0;
}
