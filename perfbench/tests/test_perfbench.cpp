//===- perfbench/tests/test_perfbench.cpp - The benchmark's own tests -----===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Run through `python3 perfbench/run.py --selftest`, which builds this
// binary and also runs the Python statistics tests.
//
//===----------------------------------------------------------------------===//

#include "Jobs.h"
#include "Reference.h"
#include "SpeedProbe.h"
#include "Tracer.h"

#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sched.h>
#include <string>
#include <thread>
#include <vector>

using namespace panthera;
using namespace perfbench;

namespace {

const char *const AllWorkloads[] = {"km_cached_scan", "cc_tight_heap",
                                    "pagerank_cluster_offheap", "sw_dynamic"};

/// Records every call it receives.
class RecordingHost final : public heap::GcHost {
public:
  void collectMinor(const char *Reason) override {
    Calls.push_back(std::string("minor:") + Reason);
  }
  void collectMajor(const char *Reason) override {
    Calls.push_back(std::string("major:") + Reason);
  }
  void allocationSafepoint() override { Calls.push_back("safepoint"); }
  std::vector<std::string> Calls;
};

rdd::SourceData points(std::vector<double> Xs) {
  rdd::SourceData D(2);
  for (size_t I = 0; I != Xs.size(); ++I)
    D[I % 2].push_back({static_cast<int64_t>(I), Xs[I]});
  return D;
}

} // namespace

TEST(GcTimingHost, ForwardsEveryCallInOrder) {
  RecordingHost Target;
  Tracer T;
  GcTimingHost Proxy(Target, &T);
  Proxy.allocationSafepoint();
  Proxy.collectMinor("eden full");
  Proxy.allocationSafepoint();
  Proxy.collectMajor("old gen full");
  EXPECT_EQ(Target.Calls,
            (std::vector<std::string>{"safepoint", "minor:eden full",
                                      "safepoint", "major:old gen full"}));
  GcHostStats S = Proxy.stats();
  EXPECT_EQ(S.MinorCalls, 1u);
  EXPECT_EQ(S.MajorCalls, 1u);
  EXPECT_EQ(S.Safepoints, 2u);
  std::vector<Span> Spans = T.spans();
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(Spans[0].Name, "gc.collect");
  EXPECT_EQ(Spans[0].Detail, "minor");
  EXPECT_EQ(Spans[1].Detail, "major");
}

TEST(Tracer, ParentsRecordedSpansUnderTheInnermostOpenSpan) {
  Tracer T;
  uint64_t Job = T.begin("job");
  uint64_t Action = T.begin("rdd.action", "reduce");
  T.record("gc.collect", "minor", hostNowNs(), hostNowNs());
  T.end(Action);
  T.record("gc.collect", "minor", hostNowNs(), hostNowNs());
  T.end(Job);
  std::vector<Span> S = T.spans();
  ASSERT_EQ(S.size(), 4u);
  EXPECT_EQ(S[0].Parent, 0u);
  EXPECT_EQ(S[1].Parent, Job);
  EXPECT_EQ(S[2].Parent, Action);
  EXPECT_EQ(S[3].Parent, Job);
  EXPECT_LE(S[0].StartNs, S[1].StartNs);
  EXPECT_LE(S[1].EndNs, S[0].EndNs);
}

TEST(SpeedProbe, SamplesItsCpuOnlyWhileRunning) {
  SpeedProbe P(sched_getcpu());
  uint64_t From = hostNowNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  uint64_t To = hostNowNs();
  EXPECT_GT(P.medianBurstNs(From, To), 0.0);
  EXPECT_EQ(P.medianBurstNs(To + 1000000000000ull, To + 2000000000000ull),
            0.0);
  EXPECT_GT(P.cpuSeconds(), 0.0);
}

// The traced run must measure the same program: the proxy and the spans
// may not move a simulated metric or a checksum.
TEST(GcTimingHost, LeavesSimulatedMetricsAndChecksumsIdentical) {
  for (const char *Name : AllWorkloads) {
    SCOPED_TRACE(Name);
    const Workload *W = findBenchWorkload(Name);
    ASSERT_NE(W, nullptr);
    JobOptions O;
    O.Seed = W->DefaultSeed;
    JobResult Plain = runJob(*W, O);
    Tracer T;
    O.Trace = &T;
    JobResult Traced = runJob(*W, O);
    EXPECT_EQ(Plain.Checksum, Traced.Checksum);
    EXPECT_EQ(Plain.Registry, Traced.Registry);
    EXPECT_GT(Traced.Gc.Safepoints, 0u);
    EXPECT_EQ(Traced.ExecutorGcCalls, 0u);
    size_t GcSpans = 0;
    for (const Span &Sp : T.spans())
      GcSpans += Sp.Name == "gc.collect";
    EXPECT_EQ(Traced.Gc.MinorCalls + Traced.Gc.MajorCalls, GcSpans);
    if (W->Prog == Program::ConnectedComponents) {
      EXPECT_GT(Traced.Gc.MinorCalls, 0u);
    }
  }
}

// At the shipped seed and scale 1 each job is the shipped program: it
// returns exactly what workloads::findWorkload(..)->Run returns, which is
// the checksum panthera_sim prints.
TEST(Jobs, ReproduceTheShippedChecksumsAtTheShippedSeed) {
  for (const char *Name : AllWorkloads) {
    SCOPED_TRACE(Name);
    const Workload *W = findBenchWorkload(Name);
    JobOptions O;
    O.Seed = W->DefaultSeed;
    O.Scale = 1.0;
    double Ours = runJob(*W, O).Checksum;
    core::RuntimeConfig Shipped;
    Shipped.NumThreads = 1;
    core::Runtime RT(Shipped);
    double Theirs = workloads::findWorkload(W->Shipped)->Run(RT, 1.0);
    EXPECT_EQ(Ours, Theirs);
    // panthera_sim prints the checksum with %g: six significant digits.
    EXPECT_NEAR(Ours, W->ShippedChecksum, 5e-6 * W->ShippedChecksum);
  }
}

TEST(Jobs, HostReferencesMatchTheEngineOnAnotherSeed) {
  for (const char *Name : {"km_cached_scan", "cc_tight_heap"}) {
    SCOPED_TRACE(Name);
    const Workload *W = findBenchWorkload(Name);
    JobOptions O;
    O.Seed = 12345;
    double Want = 0.0, Tol = 0.0;
    JobInput In = generateInput(*W, O, jobConfig(*W, O).Engine.NumPartitions);
    ASSERT_TRUE(referenceChecksum(*W, In, Want, Tol));
    EXPECT_NEAR(runJob(*W, O).Checksum, Want, Tol * Want);
  }
}

TEST(Reference, KMeansMovesCentersToTheirPointMeans) {
  // Centers start at 25 and 75; one Lloyd step moves them to 15 and 85.
  EXPECT_DOUBLE_EQ(referenceKMeansCost(points({10, 20, 80, 90}), 2, 1),
                   4 * 25.0);
  // A point equidistant from two centers joins the lower-index one, so
  // 50 and 0 both go to center 0 (mean 25) and center 1 stays at 75.
  EXPECT_DOUBLE_EQ(referenceKMeansCost(points({50, 0}), 2, 1), 625.0 * 2);
  // With no iterations the cost is taken against the initial centers.
  EXPECT_DOUBLE_EQ(referenceKMeansCost(points({30}), 2, 0), 25.0);
}

TEST(Reference, ComponentLabelIsTheSmallestIdInTheComponent) {
  rdd::SourceData Edges(2);
  Edges[0] = {{3, 1}, {5, 4}};
  Edges[1] = {{2, 3}, {6, 6}};
  // {1,2,3} -> 1 each, {4,5} -> 4 each, {6} -> 6.
  EXPECT_DOUBLE_EQ(referenceComponentLabelSum(Edges), 3 * 1 + 2 * 4 + 6);
  // Edge direction and order do not matter.
  rdd::SourceData Reversed(1);
  Reversed[0] = {{6, 6}, {3, 2}, {4, 5}, {1, 3}};
  EXPECT_DOUBLE_EQ(referenceComponentLabelSum(Reversed), 17.0);
}
