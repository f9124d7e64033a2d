//===- tests/test_fault_injection.cpp - Fault tolerance tests -------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end tests of the robustness machinery: deterministic fault
/// injection, task-level retry with lineage recomputation, the staged OOM
/// fallback in the heap, and the PANTHERA_CHECK user-error surface.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "support/Errors.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace panthera;
using namespace panthera::rdd;
using heap::ObjRef;

namespace {

class FaultInjectionTest : public ::testing::Test {
protected:
  /// Builds a runtime; every recovery path re-verifies the heap.
  std::unique_ptr<core::Runtime> build(const FaultPlan &Plan = {},
                                       unsigned HeapGB = 16) {
    core::RuntimeConfig Config;
    Config.Policy = gc::PolicyKind::Panthera;
    Config.HeapPaperGB = HeapGB;
    Config.Engine.NumPartitions = 4;
    Config.Faults = Plan;
    Config.VerifyHeapAfterRecovery = true;
    return std::make_unique<core::Runtime>(Config);
  }

  SourceData makeData(int64_t N, uint32_t Partitions = 4) {
    SourceData Data(Partitions);
    for (int64_t I = 0; I != N; ++I)
      Data[static_cast<size_t>(I) % Data.size()].push_back(
          {I, static_cast<double>(I) * 2.0});
    return Data;
  }

  /// The reference pipeline all determinism tests compare against: a
  /// persisted map stage feeding a reduceByKey, read twice.
  std::vector<SourceRecord> runPipeline(core::Runtime &RT,
                                        SourceData &Data) {
    Rdd Hot = RT.ctx()
                  .source(&Data)
                  .map([](RddContext &C, ObjRef T) {
                    return C.makeTuple(C.key(T) % 16, C.value(T));
                  })
                  .persistAs("hot", StorageLevel::MemoryOnly);
    Rdd Sums = Hot.reduceByKey([](double A, double B) { return A + B; });
    EXPECT_EQ(Hot.count(), 2000); // first cached read
    return Sums.collect();        // second read through the shuffle
  }
};

TEST_F(FaultInjectionTest, TaskFailureRecoversWithIdenticalResults) {
  SourceData Data = makeData(2000);
  auto Clean = build();
  std::vector<SourceRecord> Expected = runPipeline(*Clean, Data);

  FaultPlan Plan;
  Plan.site(FaultSite::TaskExecution).FireOnNth = 3;
  auto Faulty = build(Plan);
  std::vector<SourceRecord> Got = runPipeline(*Faulty, Data);

  const EngineStats &S = Faulty->ctx().stats();
  EXPECT_EQ(S.InjectedTaskFailures, 1u);
  EXPECT_GE(S.TaskRetries, 1u);
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].Key, Expected[I].Key);
    EXPECT_DOUBLE_EQ(Got[I].Val, Expected[I].Val);
  }
}

TEST_F(FaultInjectionTest, CacheLossRecomputesLineageExactlyOnce) {
  SourceData Data = makeData(2000);
  auto Clean = build();
  std::vector<SourceRecord> Expected = runPipeline(*Clean, Data);

  FaultPlan Plan;
  Plan.site(FaultSite::CacheRead).FireOnNth = 1;
  Plan.site(FaultSite::CacheRead).MaxFires = 1;
  auto Faulty = build(Plan);
  std::vector<SourceRecord> Got = runPipeline(*Faulty, Data);

  const EngineStats &S = Faulty->ctx().stats();
  EXPECT_EQ(S.CacheLossEvents, 1u);
  EXPECT_EQ(S.LineageRecomputations, 1u);
  EXPECT_GE(S.TaskRetries, 1u);
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].Key, Expected[I].Key);
    EXPECT_DOUBLE_EQ(Got[I].Val, Expected[I].Val);
  }
}

TEST_F(FaultInjectionTest, ShuffleFetchFailureRetriesReduceTask) {
  SourceData Data = makeData(2000);
  auto Clean = build();
  std::vector<SourceRecord> Expected = runPipeline(*Clean, Data);

  FaultPlan Plan;
  Plan.site(FaultSite::ShuffleFetch).FireOnNth = 2;
  auto Faulty = build(Plan);
  std::vector<SourceRecord> Got = runPipeline(*Faulty, Data);

  EXPECT_GE(Faulty->ctx().stats().TaskRetries, 1u);
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I)
    EXPECT_DOUBLE_EQ(Got[I].Val, Expected[I].Val);
}

TEST_F(FaultInjectionTest, InjectionIsDeterministicUnderSameSeed) {
  FaultPlan Plan;
  Plan.Seed = 1234;
  Plan.site(FaultSite::TaskExecution).Probability = 0.05;

  SourceData Data = makeData(2000);
  auto A = build(Plan);
  std::vector<SourceRecord> OutA = runPipeline(*A, Data);
  auto B = build(Plan);
  std::vector<SourceRecord> OutB = runPipeline(*B, Data);

  // Same plan, same seed: identical results, identical attempt history.
  ASSERT_EQ(OutA.size(), OutB.size());
  for (size_t I = 0; I != OutA.size(); ++I) {
    EXPECT_EQ(OutA[I].Key, OutB[I].Key);
    EXPECT_DOUBLE_EQ(OutA[I].Val, OutB[I].Val);
  }
  EXPECT_EQ(A->ctx().stats().InjectedTaskFailures,
            B->ctx().stats().InjectedTaskFailures);
  const TaskLedger &LA = A->ctx().taskLedger();
  const TaskLedger &LB = B->ctx().taskLedger();
  ASSERT_EQ(LA.Records.size(), LB.Records.size());
  for (size_t I = 0; I != LA.Records.size(); ++I) {
    EXPECT_EQ(LA.Records[I].Stage, LB.Records[I].Stage);
    EXPECT_EQ(LA.Records[I].Partition, LB.Records[I].Partition);
    EXPECT_EQ(LA.Records[I].Attempts, LB.Records[I].Attempts);
  }
}

TEST_F(FaultInjectionTest, RetryExhaustionNamesStageAndPartition) {
  FaultPlan Plan;
  Plan.site(FaultSite::TaskExecution).Probability = 1.0;
  auto RT = build(Plan);
  SourceData Data = makeData(100);
  Rdd R = RT->ctx().source(&Data);

  try {
    R.count();
    FAIL() << "permanent task failure must exhaust retries";
  } catch (const EngineError &E) {
    std::string Msg = E.what();
    EXPECT_NE(Msg.find("count action"), std::string::npos) << Msg;
    EXPECT_NE(Msg.find("exhausted 4 attempts"), std::string::npos) << Msg;
  }

  const TaskLedger &L = RT->ctx().taskLedger();
  ASSERT_EQ(L.failedTasks(), 1u);
  const TaskAttemptRecord &Rec = L.Records.back();
  EXPECT_FALSE(Rec.Succeeded);
  EXPECT_EQ(Rec.Attempts, RT->ctx().config().MaxTaskAttempts);
  EXPECT_NE(Rec.LastError.find("injected task failure"), std::string::npos);
}

TEST_F(FaultInjectionTest, UndersizedHeapThrowsTypedOomAfterFallback) {
  // 2 paper GB = 2 simulated MiB of heap; 60k resident tuples cannot fit
  // no matter how hard the staged fallback tries.
  auto RT = build({}, /*HeapGB=*/2);
  SourceData Data = makeData(60000);
  Rdd Hot = RT->ctx()
                .source(&Data)
                .map([](RddContext &C, ObjRef T) {
                  return C.makeTuple(C.key(T), C.value(T) + 1.0);
                })
                .persistAs("hot", StorageLevel::MemoryOnly);
  EXPECT_THROW(Hot.count(), OutOfMemoryError);
  // The typed error only surfaces after the staged fallback ran dry.
  EXPECT_GE(RT->heap().stats().OomErrorsThrown, 1u);
}

TEST_F(FaultInjectionTest, InjectedAllocationFailureIsRetried) {
  SourceData Data = makeData(2000);
  auto Clean = build();
  std::vector<SourceRecord> Expected = runPipeline(*Clean, Data);

  FaultPlan Plan;
  Plan.site(FaultSite::Allocation).FireOnNth = 500;
  Plan.site(FaultSite::Allocation).MaxFires = 1;
  auto Faulty = build(Plan);
  std::vector<SourceRecord> Got = runPipeline(*Faulty, Data);

  EXPECT_EQ(Faulty->heap().stats().OomErrorsThrown, 1u);
  EXPECT_GE(Faulty->ctx().stats().OomTaskFailures, 1u);
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I)
    EXPECT_DOUBLE_EQ(Got[I].Val, Expected[I].Val);
}

TEST_F(FaultInjectionTest, EngineChecksThrowInsteadOfAsserting) {
  auto RT = build();
  SourceData TooFew(2); // config says 4 partitions
  EXPECT_THROW(RT->ctx().source(&TooFew), EngineError);
}

TEST_F(FaultInjectionTest, SuppressionScopeMasksInjection) {
  FaultPlan Plan;
  Plan.site(FaultSite::TaskExecution).Probability = 1.0;
  FaultInjector Inj(Plan);
  {
    FaultSuppressionScope Scope(&Inj);
    EXPECT_FALSE(Inj.shouldFail(FaultSite::TaskExecution));
  }
  EXPECT_TRUE(Inj.shouldFail(FaultSite::TaskExecution));
  EXPECT_EQ(Inj.fired(FaultSite::TaskExecution), 1u);
}

TEST_F(FaultInjectionTest, FireOnNthCountsOccurrences) {
  FaultPlan Plan;
  Plan.site(FaultSite::CacheRead).FireOnNth = 3;
  Plan.site(FaultSite::CacheRead).MaxFires = 1;
  FaultInjector Inj(Plan);
  EXPECT_FALSE(Inj.shouldFail(FaultSite::CacheRead));
  EXPECT_FALSE(Inj.shouldFail(FaultSite::CacheRead));
  EXPECT_TRUE(Inj.shouldFail(FaultSite::CacheRead));
  EXPECT_FALSE(Inj.shouldFail(FaultSite::CacheRead)) << "MaxFires caps it";
}

//===----------------------------------------------------------------------===
// Thread-safety regressions: the injector may be hit from pool workers, so
// its counters are atomic and its draws are a pure function of the
// occurrence index (docs/parallelism.md).
//===----------------------------------------------------------------------===

TEST_F(FaultInjectionTest, ConcurrentOccurrencesFireTheSameTotal) {
  FaultPlan Plan;
  Plan.site(FaultSite::TaskExecution).Probability = 0.2;
  constexpr uint64_t N = 20000;

  FaultInjector Serial(Plan);
  uint64_t SerialFired = 0;
  for (uint64_t I = 0; I != N; ++I)
    if (Serial.shouldFail(FaultSite::TaskExecution))
      ++SerialFired;
  EXPECT_GT(SerialFired, 0u);
  EXPECT_LT(SerialFired, N);

  // Concurrently: each call claims a unique occurrence index, and the draw
  // depends only on that index, so the multiset of draws -- and hence the
  // total fired -- is exactly the serial schedule's.
  FaultInjector Shared(Plan);
  constexpr unsigned NumThreads = 8;
  std::atomic<uint64_t> ConcurrentFired{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&] {
      uint64_t Local = 0;
      for (uint64_t I = 0; I != N / NumThreads; ++I)
        if (Shared.shouldFail(FaultSite::TaskExecution))
          ++Local;
      ConcurrentFired.fetch_add(Local);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Shared.occurrences(FaultSite::TaskExecution), N);
  EXPECT_EQ(ConcurrentFired.load(), SerialFired);
  EXPECT_EQ(Shared.fired(FaultSite::TaskExecution), SerialFired);
}

TEST_F(FaultInjectionTest, MaxFiresHoldsUnderConcurrency) {
  FaultPlan Plan;
  Plan.site(FaultSite::ShuffleFetch).Probability = 1.0;
  Plan.site(FaultSite::ShuffleFetch).MaxFires = 5;
  FaultInjector Inj(Plan);
  std::atomic<uint64_t> Fired{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 8; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != 200; ++I)
        if (Inj.shouldFail(FaultSite::ShuffleFetch))
          Fired.fetch_add(1);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Fired.load(), 5u);
  EXPECT_EQ(Inj.fired(FaultSite::ShuffleFetch), 5u);
  EXPECT_EQ(Inj.occurrences(FaultSite::ShuffleFetch), 1600u);
}

} // namespace
