//===- perfbench/cpp/Jobs.h - The benchmark's four jobs ---------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One job = one fresh core::Runtime running one shipped program, built
/// from the same public entry points the shipped workloads use (DataGen,
/// the rdd API, mllib::trainKMeans, graphx, and the shipped DSL text) but
/// with the input seed as a parameter, so set-up (Runtime construction,
/// analysis, data generation) is timed apart from the job itself.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_JOBS_H
#define PERFBENCH_JOBS_H

#include "SpeedProbe.h"
#include "Tracer.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Program { KMeans, ConnectedComponents, PageRank, ShiftingSet };

/// One benchmark workload: a shipped program under one configuration.
struct Workload {
  const char *Name;
  Program Prog;
  const char *Shipped; ///< Short name of the shipped workload ("KM", ...).
  /// The shipped workload's input seed (SW: the seed of segment 0).
  uint64_t DefaultSeed;
  /// Checksum `panthera_sim --workload=<Shipped>` prints at scale 1 (the
  /// self-test compares the job's against it).
  double ShippedChecksum;
};

/// km_cached_scan, cc_tight_heap, pagerank_cluster_offheap, sw_dynamic.
const Workload *findBenchWorkload(std::string_view Name);

/// The share of the shipped datasets every benchmark job runs at. Heaps and
/// the off-heap budget scale with it (see jobConfig).
constexpr double BenchScale = 0.25;

struct JobOptions {
  uint64_t Seed = 0;
  /// BenchScale for every measured job; the tests also run at 1.0, where
  /// each job is the shipped program.
  double Scale = BenchScale;
  /// The plain configuration the repo's contracts say must give the same
  /// checksum: one executor, on-heap storage, static Panthera.
  bool Plain = false;
  /// Traced job: host-clock spans plus the GC timing proxy.
  Tracer *Trace = nullptr;
  /// Speed probes on the job's CPUs; their own CPU time is left out of
  /// JobResult::CpuS.
  const std::vector<std::unique_ptr<SpeedProbe>> *Probes = nullptr;
};

/// What one job measured.
struct JobResult {
  double CtorS = 0.0, InstallS = 0.0, DatagenS = 0.0; ///< Set-up parts.
  double SetupS = 0.0; ///< Ctor + install + datagen.
  double JobS = 0.0;   ///< Job wall seconds, set-up excluded.
  double CpuS = 0.0;   ///< Process CPU seconds over the job.
  /// hostNowNs() at set-up start, job start and job end.
  uint64_t SetupStartNs = 0, JobStartNs = 0, JobEndNs = 0;
  uint64_t Records = 0; ///< Input records the job processed.
  double Checksum = 0.0;
  /// Published registry: counters and gauges by name, plus the minor-GC
  /// pause histogram's mean/max as gc.minor.pause_ns.{mean,max}.
  std::map<std::string, double> Registry;
  /// Traced jobs only.
  GcHostStats Gc;
  uint64_t ExecutorGcCalls = 0;
};

/// A job's generated input: the program's source partitions.
struct JobInput {
  std::vector<panthera::rdd::SourceData> Sources;
  uint64_t Records = 0;
};

/// Generates \p W's input from \p O.Seed at \p O.Scale, exactly as the
/// shipped program does at its default seed.
JobInput generateInput(const Workload &W, const JobOptions &O,
                       uint32_t Partitions);

/// The host-side reference checksum for \p In (KMeans and
/// ConnectedComponents); \p RelTolerance receives the allowed relative
/// difference. Returns false for programs checked against the plain
/// configuration instead.
bool referenceChecksum(const Workload &W, const JobInput &In,
                       double &Checksum, double &RelTolerance);

/// The engine configuration the workload runs under.
panthera::core::RuntimeConfig jobConfig(const Workload &W,
                                        const JobOptions &O);

/// Runs one job on a fresh Runtime.
JobResult runJob(const Workload &W, const JobOptions &O);

} // namespace perfbench

#endif // PERFBENCH_JOBS_H
