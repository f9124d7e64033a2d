//===- tests/test_parallel.cpp - Pinned figures of a narrow-stage run -----===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The runtime runs on the calling thread (docs/parallelism.md). This test
/// pins the results and the simulated clock of one narrow-stage pipeline
/// to exact figures, which the earlier work-stealing collector produced at
/// 1 and 4 worker threads alike.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "rdd/Broadcast.h"

#include <gtest/gtest.h>

#include <vector>

using namespace panthera;
using namespace panthera::rdd;
using heap::ObjRef;

namespace {

SourceData makeData(int64_t N) {
  SourceData Data(4);
  for (int64_t I = 0; I != N; ++I)
    Data[static_cast<size_t>(I) % Data.size()].push_back(
        {I, static_cast<double>(I) * 2.0});
  return Data;
}

//===----------------------------------------------------------------------===
// Source-rooted narrow stages: count / reduce / collect over source -> map
// -> filter, with a broadcast read inside the map -- the one shape the
// deleted capture/replay engine ran (docs/parallelism.md). Results and the
// simulated clock are pinned exactly.
//===----------------------------------------------------------------------===

struct NarrowStageObservation {
  int64_t Count = 0;
  double Sum = 0.0;
  std::vector<SourceRecord> Rows;
  uint64_t MinorGcs = 0;
  double TotalNs = 0.0;
  double GcNs = 0.0;
  double Joules = 0.0;
};

NarrowStageObservation runNarrowStages(SourceData &Data) {
  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  Config.HeapPaperGB = 2;
  Config.Engine.NumPartitions = 4;
  core::Runtime RT(Config);

  Broadcast Weights(RT.heap(), {0.5, 1.5, 2.5, 3.5});
  Rdd Chain = RT.ctx()
                  .source(&Data)
                  .map([Weights](RddContext &C, ObjRef T) {
                    int64_t K = C.key(T);
                    double W = Weights.get(static_cast<uint32_t>(K % 4));
                    return C.makeTuple(K, C.value(T) * W);
                  })
                  .filter([](RddContext &C, ObjRef T) {
                    return C.key(T) % 3 != 0;
                  });
  NarrowStageObservation Obs;
  Obs.Count = Chain.count();
  Obs.Sum = Chain.reduce([](double A, double B) { return A + B; });
  Obs.Rows = Chain.collect();
  Obs.MinorGcs = RT.collector().stats().MinorGcs;
  RT.publishMetrics();
  const support::MetricsRegistry &M = RT.metrics();
  Obs.TotalNs = M.gaugeValue("time.total_ns");
  Obs.GcNs = M.gaugeValue("time.gc_ns");
  Obs.Joules = M.gaugeValue("energy.total_joules");
  return Obs;
}

TEST(PinnedFigures, NarrowSourceStagesKeepTheirClock) {
  SourceData Data = makeData(20000);
  NarrowStageObservation Obs = runNarrowStages(Data);
  EXPECT_EQ(Obs.Count, 13333);
  EXPECT_EQ(Obs.Sum, 0x1.fc9eb49p+28);
  ASSERT_EQ(Obs.Rows.size(), 13333u);
  int64_t KeySum = 0;
  double ValSum = 0.0;
  for (const SourceRecord &R : Obs.Rows) {
    KeySum += R.Key;
    ValSum += R.Val;
  }
  EXPECT_EQ(KeySum, 133326667);
  EXPECT_EQ(ValSum, Obs.Sum);
  EXPECT_EQ(Obs.MinorGcs, 23u);
  EXPECT_EQ(Obs.TotalNs, 0x1.73bd8f555bbp+22);
  EXPECT_EQ(Obs.GcNs, 0x1.1111111111111p+2);
  EXPECT_EQ(Obs.Joules, 0x1.013026636e171p-8);
}

} // namespace
