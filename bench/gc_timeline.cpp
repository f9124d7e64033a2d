//===- bench/gc_timeline.cpp - Per-collection task breakdown ---------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// A GC-log-style timeline for PageRank under Panthera and Unmanaged,
/// with each minor collection broken into the §4.2.2 tasks (DRAM-to-young,
/// NVM-to-young, copy/drain; the root task is free in the model, whose
/// root handles live outside simulated memory). The aggregate view shows
/// where the Unmanaged baseline's extra GC time is spent: old-to-young
/// scanning and copying against NVM.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "gc/Collector.h"

using namespace panthera;
using namespace panthera::bench;

namespace {

void timelineFor(gc::PolicyKind Policy, double Scale) {
  const workloads::WorkloadSpec *PR = workloads::findWorkload("PR");
  core::RuntimeConfig Config;
  Config.Policy = Policy;
  Config.HeapPaperGB = 64;
  Config.DramRatio = 1.0 / 3.0;
  core::Runtime RT(Config);
  PR->Run(RT, Scale);

  std::printf("\n-- %s --\n", gc::policyName(Policy));
  std::printf("%4s %-6s %9s %9s %8s %8s %8s %10s\n", "#", "kind", "t(ms)",
              "dur(us)", "d2y", "n2y", "drain", "promotedKB");
  double D2y = 0, N2y = 0, Drain = 0, Total = 0;
  unsigned Index = 0;
  for (const gc::GcEvent &E : RT.collector().eventLog()) {
    std::printf("%4u %-6s %9.2f %9.1f %8.1f %8.1f %8.1f %10.1f\n", Index++,
                E.Major ? "major" : "minor", E.StartNs / 1e6,
                E.DurationNs / 1e3, E.DramToYoungTaskNs / 1e3,
                E.NvmToYoungTaskNs / 1e3, E.DrainNs / 1e3,
                static_cast<double>(E.BytesPromoted) / 1024.0);
    D2y += E.DramToYoungTaskNs;
    N2y += E.NvmToYoungTaskNs;
    Drain += E.DrainNs;
    Total += E.DurationNs;
  }
  if (Total > 0)
    std::printf("task shares: DRAM-to-young %.1f%%, NVM-to-young %.1f%%, "
                "copy/drain %.1f%%\n",
                100 * D2y / Total, 100 * N2y / Total, 100 * Drain / Total);
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = parseScale(Argc, Argv);
  banner("GC timeline", "Per-collection task breakdown (§4.2.2 task "
                        "names), PageRank, 64GB heap, 1/3 DRAM",
         Scale);
  timelineFor(gc::PolicyKind::DramOnly, Scale);
  timelineFor(gc::PolicyKind::Panthera, Scale);
  timelineFor(gc::PolicyKind::Unmanaged, Scale);
  std::printf("\nreading: under Unmanaged the single unified old space "
              "reports its card scans in the\nNVM-to-young column (its "
              "chunks are mostly NVM); Panthera splits the work across\n"
              "both device-specific tasks and keeps the NVM side small.\n");
  return 0;
}
