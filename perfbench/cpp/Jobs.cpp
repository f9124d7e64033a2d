//===- perfbench/cpp/Jobs.cpp - The benchmark's four jobs -----------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Jobs.h"

#include "Reference.h"

#include "graphx/Pregel.h"
#include "mllib/MLlib.h"
#include "workloads/DataGen.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <ctime>
#include <stdexcept>

using namespace panthera;
using namespace perfbench;
using heap::GcRoot;
using heap::ObjRef;
using rdd::Rdd;
using rdd::RddContext;
using rdd::StorageLevel;
using rdd::TupleSink;

static const Workload Workloads[] = {
    {"km_cached_scan", Program::KMeans, "KM", 17, 397013.0},
    {"cc_tight_heap", Program::ConnectedComponents, "CC", 11, 9298.0},
    {"pagerank_cluster_offheap", Program::PageRank, "PR", 42, 3570.63},
    {"sw_dynamic", Program::ShiftingSet, "SW", 100, 9597.97},
};

const Workload *perfbench::findBenchWorkload(std::string_view Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

/// Sizes scale with the dataset, as bench/BenchCommon.h scales heaps, so
/// every scale keeps the workload's dataset:heap ratio.
static unsigned scaled(unsigned PaperUnits, double Scale) {
  if (Scale == 1.0)
    return PaperUnits;
  return std::max(1u, static_cast<unsigned>(
                          static_cast<double>(PaperUnits) * Scale + 0.5));
}

static int64_t count(double Base, double Scale) {
  return static_cast<int64_t>(Base * Scale);
}

core::RuntimeConfig perfbench::jobConfig(const Workload &W,
                                         const JobOptions &O) {
  core::RuntimeConfig C;
  C.Policy = gc::PolicyKind::Panthera;
  C.DramRatio = 1.0 / 3.0;
  C.NumThreads = 1;
  unsigned HeapGB = 64;
  switch (W.Prog) {
  case Program::KMeans:
    break;
  case Program::ConnectedComponents:
    HeapGB = 16; // 4x tighter than the paper's 64 GB
    C.NumThreads = 2;
    break;
  case Program::PageRank:
    if (!O.Plain) {
      C.Cluster.NumExecutors = 2; // NumHosts 0: one host each
      C.OffHeapMB = scaled(2048, O.Scale);
    }
    break;
  case Program::ShiftingSet:
    HeapGB = 32;
    if (!O.Plain)
      C.Policy = gc::PolicyKind::PantheraDynamic;
    break;
  }
  C.HeapPaperGB = scaled(HeapGB, O.Scale);
  return C;
}

JobInput perfbench::generateInput(const Workload &W, const JobOptions &O,
                                  uint32_t Partitions) {
  JobInput In;
  switch (W.Prog) {
  case Program::KMeans: {
    int64_t N = count(100000, O.Scale);
    In.Sources.push_back(workloads::genClusteredPoints(
        Partitions, N, /*NumClusters=*/8, O.Seed));
    In.Records = static_cast<uint64_t>(N);
    break;
  }
  case Program::ConnectedComponents:
  case Program::PageRank: {
    bool CC = W.Prog == Program::ConnectedComponents;
    int64_t V = count(CC ? 12000 : 10000, O.Scale);
    int64_t E = count(CC ? 44000 : 50000, O.Scale);
    workloads::GraphData G = workloads::genPowerLawGraph(
        Partitions, V, E, /*Skew=*/1.0, O.Seed);
    In.Sources.push_back(std::move(G.Edges));
    In.Records = static_cast<uint64_t>(E);
    break;
  }
  case Program::ShiftingSet: {
    int64_t PerSegment = count(40000, O.Scale);
    for (uint64_t S = 0; S != 6; ++S)
      In.Sources.push_back(
          workloads::genLabeledPoints(Partitions, PerSegment, O.Seed + S));
    In.Records = 6 * static_cast<uint64_t>(PerSegment);
    break;
  }
  }
  return In;
}

bool perfbench::referenceChecksum(const Workload &W, const JobInput &In,
                                  double &Checksum, double &RelTolerance) {
  switch (W.Prog) {
  case Program::KMeans:
    Checksum = referenceKMeansCost(In.Sources[0], /*K=*/8, /*Iterations=*/10);
    RelTolerance = KMeansRelTolerance;
    return true;
  case Program::ConnectedComponents:
    Checksum = referenceComponentLabelSum(In.Sources[0]);
    RelTolerance = 0.0;
    return true;
  default:
    return false;
  }
}

namespace {

/// Times one public action call; traced jobs get an rdd.action span.
template <typename Fn>
auto action(Tracer *T, const char *Call, Fn &&Body) {
  ScopedSpan S(T, "rdd.action", Call);
  return Body();
}

double runKMeans(core::Runtime &RT, const JobInput &In, Tracer *T) {
  Rdd Points = RT.ctx()
                   .source(&In.Sources[0])
                   .map([](RddContext &C, ObjRef R) {
                     return C.makeTuple(C.key(R), C.value(R));
                   })
                   .persistAs("points", StorageLevel::MemoryOnly);
  return action(T, "mllib.trainKMeans", [&] {
    return mllib::trainKMeans(Points, /*K=*/8, /*Iterations=*/10).Cost;
  });
}

double runConnectedComponents(core::Runtime &RT, const JobInput &In,
                              Tracer *T) {
  rdd::SparkContext &Ctx = RT.ctx();
  Rdd Adjacency = graphx::buildAdjacency(Ctx, Ctx.source(&In.Sources[0]),
                                         "edges", /*Symmetrize=*/true);
  graphx::PregelConfig Config;
  Config.MaxIterations = 10;
  Config.VertexVar = "vertices";
  Rdd Labels = action(T, "graphx.connectedComponents", [&] {
    return graphx::connectedComponents(Ctx, Adjacency, Config);
  });
  return action(T, "reduce", [&] {
    return Labels.reduce([](double A, double B) { return A + B; });
  });
}

double runPageRank(core::Runtime &RT, const JobInput &In, StorageLevel Level,
                   Tracer *T) {
  rdd::SparkContext &Ctx = RT.ctx();
  Rdd Links = Ctx.source(&In.Sources[0])
                  .distinct()
                  .groupByKey()
                  .persistAs("links", StorageLevel::MemoryOnly);
  Rdd Ranks = Links.mapValuesWithKey([](int64_t, double) { return 1.0; });
  for (unsigned I = 0; I != 8; ++I) {
    Rdd Joined = Links.join(
        Ranks, [](RddContext &C, ObjRef Left, double Rank) {
          return C.makeTupleWithRef(C.key(Left), Rank, C.payload(Left));
        });
    Rdd Contribs =
        Joined
            .flatMap([](RddContext &C, ObjRef R, const TupleSink &S) {
              double Rank = C.value(R);
              GcRoot Buf(C.heap(), C.payload(R));
              if (Buf.get().isNull())
                return;
              uint32_t Size = C.heap().arrayLength(Buf.get());
              double Share = Rank / Size;
              for (uint32_t J = 0; J != Size; ++J)
                S(C.makeTuple(
                    static_cast<int64_t>(C.bufferValue(Buf.get(), J)),
                    Share));
            })
            .persistAs("contribs", Level);
    Ranks = Contribs.reduceByKey([](double A, double B) { return A + B; })
                .mapValues([](double Sum) { return 0.15 + 0.85 * Sum; });
  }
  Ranks = Ranks.named("ranks");
  return action(T, "reduce", [&] {
    return Ranks.reduce([](double A, double B) { return A + B; });
  });
}

double runShiftingSet(core::Runtime &RT, const JobInput &In, Tracer *T) {
  rdd::SparkContext &Ctx = RT.ctx();
  std::vector<Rdd> Segments;
  for (size_t S = 0; S != In.Sources.size(); ++S) {
    Segments.push_back(Ctx.source(&In.Sources[S])
                           .map([](RddContext &C, ObjRef R) {
                             return C.makeTuple(C.key(R), C.value(R));
                           })
                           .persistAs("seg" + std::to_string(S),
                                      StorageLevel::MemoryOnly));
    action(T, "count", [&] { return Segments.back().count(); });
  }
  double Checksum = 0.0;
  for (unsigned P = 0; P != 12; ++P) {
    const Rdd &HotSeg = Segments[P % Segments.size()];
    double PhaseSum = 0.0;
    for (unsigned Pass = 0; Pass != 16; ++Pass) {
      double W = 1.0 + 0.001 * static_cast<double>(Pass);
      Rdd View = HotSeg.map([W](RddContext &C, ObjRef R) {
        return C.makeTuple(C.key(R), C.value(R) * W);
      });
      PhaseSum += action(T, "reduce", [&] {
        return View.reduce([](double A, double B) { return A + B; });
      });
    }
    Checksum += PhaseSum / (1.0 + static_cast<double>(P));
  }
  return Checksum;
}

/// The shipped driver program's DSL; the off-heap PageRank names the
/// storage level its contribs actually persist at.
std::string dslFor(const Workload &W, const JobOptions &O) {
  std::string Dsl = workloads::findWorkload(W.Shipped)->Dsl;
  if (W.Prog == Program::PageRank && !O.Plain) {
    const std::string From = "persist(MEMORY_AND_DISK_SER)";
    size_t At = Dsl.find(From);
    if (At == std::string::npos)
      throw std::runtime_error("shipped PageRank DSL has no " + From);
    Dsl.replace(At, From.size(), "persist(OFF_HEAP)");
  }
  return Dsl;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Process CPU seconds, less what the speed probes used.
double jobCpuSeconds(const JobOptions &O) {
  timespec TS{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  double S = static_cast<double>(TS.tv_sec) +
             1e-9 * static_cast<double>(TS.tv_nsec);
  if (O.Probes)
    for (const auto &P : *O.Probes)
      S -= P->cpuSeconds();
  return S;
}

} // namespace

JobResult perfbench::runJob(const Workload &W, const JobOptions &O) {
  using Clock = std::chrono::steady_clock;
  Tracer *T = O.Trace;
  JobResult R;
  core::RuntimeConfig Config = jobConfig(W, O);
  std::string Dsl = dslFor(W, O);
  JobInput In; // outlives the Runtime: sources are read by pointer
  std::unique_ptr<core::Runtime> RT;
  std::unique_ptr<GcProxyInstall> Proxy;
  {
    ScopedSpan Setup(T, "setup");
    R.SetupStartNs = hostNowNs();
    auto T0 = Clock::now();
    {
      ScopedSpan S(T, "core.ctor");
      RT = std::make_unique<core::Runtime>(Config);
    }
    R.CtorS = secondsSince(T0);
    auto T1 = Clock::now();
    {
      ScopedSpan S(T, "analysis.install");
      RT->analyzeAndInstall(Dsl);
    }
    R.InstallS = secondsSince(T1);
    auto T2 = Clock::now();
    {
      ScopedSpan S(T, "workloads.datagen");
      In = generateInput(W, O, RT->ctx().config().NumPartitions);
    }
    R.DatagenS = secondsSince(T2);
    R.SetupS = secondsSince(T0);
  }
  R.Records = In.Records;
  if (T)
    Proxy = std::make_unique<GcProxyInstall>(*RT, T);

  {
    ScopedSpan Job(T, "job");
    R.JobStartNs = hostNowNs();
    auto T0 = Clock::now();
    double Cpu0 = jobCpuSeconds(O);
    switch (W.Prog) {
    case Program::KMeans:
      R.Checksum = runKMeans(*RT, In, T);
      break;
    case Program::ConnectedComponents:
      R.Checksum = runConnectedComponents(*RT, In, T);
      break;
    case Program::PageRank:
      R.Checksum = runPageRank(
          *RT, In,
          O.Plain ? StorageLevel::MemoryAndDiskSer : StorageLevel::OffHeapSer,
          T);
      break;
    case Program::ShiftingSet:
      R.Checksum = runShiftingSet(*RT, In, T);
      break;
    }
    R.CpuS = jobCpuSeconds(O) - Cpu0;
    R.JobS = secondsSince(T0);
    R.JobEndNs = hostNowNs();
  }

  {
    ScopedSpan S(T, "observability.publish");
    RT->publishMetrics();
  }
  const support::MetricsRegistry &M = RT->metrics();
  for (const auto &[Name, C] : M.counters())
    R.Registry[Name] = static_cast<double>(C.value());
  for (const auto &[Name, G] : M.gauges())
    R.Registry[Name] = G.value();
  if (const support::Histogram *H = M.findHistogram("gc.minor.pause_ns")) {
    R.Registry["gc.minor.pause_ns.mean"] = H->mean();
    R.Registry["gc.minor.pause_ns.max"] = H->max();
  }
  if (Proxy) {
    R.Gc = Proxy->driver().stats();
    R.ExecutorGcCalls = Proxy->executorCalls();
  }
  return R;
}
