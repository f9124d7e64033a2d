//===- tests/test_engine_extras.cpp - Engine subsystem tests --------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Covers the engine subsystems beyond the basic operators: shuffle
/// spilling, shuffle fusion, storage eviction, the partition builder, and
/// the heap verifier.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "gc/HeapVerifier.h"
#include "rdd/Broadcast.h"
#include "rdd/PartitionBuilder.h"

#include <gtest/gtest.h>

using namespace panthera;
using heap::GcRoot;
using heap::ObjRef;
using rdd::Rdd;
using rdd::RddContext;
using rdd::SourceData;

namespace {

class EngineExtras : public ::testing::Test {
protected:
  void SetUp() override { rebuild(16); }

  void rebuild(unsigned HeapGB, uint32_t SpillRecords = 16384,
               unsigned OffHeapMB = 0) {
    core::RuntimeConfig Config;
    Config.Policy = gc::PolicyKind::Panthera;
    Config.HeapPaperGB = HeapGB;
    Config.Engine.ShuffleSpillRecords = SpillRecords;
    Config.OffHeapMB = OffHeapMB;
    RT = std::make_unique<core::Runtime>(Config);
  }

  SourceData distinctKeys(int64_t N) {
    SourceData Data(RT->ctx().config().NumPartitions);
    for (int64_t I = 0; I != N; ++I)
      Data[static_cast<size_t>(I) % Data.size()].push_back({I, 1.0});
    return Data;
  }

  std::unique_ptr<core::Runtime> RT;
};

TEST_F(EngineExtras, ShuffleSpillsWhenBuffersExceedThreshold) {
  rebuild(16, /*SpillRecords=*/512);
  SourceData Data = distinctKeys(20000);
  Rdd R = RT->ctx().source(&Data).reduceByKey(
      [](double A, double B) { return A + B; });
  EXPECT_EQ(R.count(), 20000);
  EXPECT_GT(RT->ctx().stats().ShuffleSpills, 0u);
}

TEST_F(EngineExtras, SpillThresholdDoesNotChangeResults) {
  SourceData Data(4);
  for (int64_t I = 0; I != 10000; ++I)
    Data[I % 4].push_back({I % 123, 1.0});
  auto Sum = [&](uint32_t Spill) {
    rebuild(16, Spill);
    SourceData Local = Data;
    return RT->ctx()
        .source(&Local)
        .reduceByKey([](double A, double B) { return A + B; })
        .reduce([](double A, double B) { return A + B; });
  };
  EXPECT_DOUBLE_EQ(Sum(256), Sum(1u << 30));
}

TEST_F(EngineExtras, ShuffleFusionMaterializesThePersistedParentOnce) {
  SourceData Data = distinctKeys(8000);
  int Applications = 0;
  Rdd Cached = RT->ctx()
                   .source(&Data)
                   .map([&Applications](RddContext &C, ObjRef T) {
                     ++Applications;
                     return C.makeTuple(C.key(T), C.value(T));
                   })
                   .persistAs("cached", rdd::StorageLevel::MemoryOnly);
  // The consuming shuffle must not re-stream the cached data: the fused
  // pass applies the map exactly once per record.
  Rdd Reduced =
      Cached.reduceByKey([](double A, double B) { return A + B; });
  EXPECT_EQ(Reduced.count(), 8000);
  EXPECT_EQ(Applications, 8000) << "fusion failed: parent re-computed";
  EXPECT_TRUE(Cached.node()->Materialized)
      << "fusion must still materialize the persisted parent";
  // And the cache must be genuinely usable afterwards.
  EXPECT_EQ(Cached.count(), 8000);
  EXPECT_EQ(Applications, 8000) << "second action must hit the cache";
}

TEST_F(EngineExtras, EvictionSpillsToDiskAndPreservesData) {
  // A small heap and several MEMORY_AND_DISK RDDs: the engine must evict
  // rather than die, and the evicted RDD must re-stream from disk.
  rebuild(8);
  SourceData Data = distinctKeys(40000);
  std::vector<Rdd> Generations;
  for (int G = 0; G != 10; ++G) {
    double Offset = G;
    Rdd R = RT->ctx()
                .source(&Data)
                .map([Offset](RddContext &C, ObjRef T) {
                  return C.makeTuple(C.key(T), C.value(T) + Offset);
                })
                .persistAs("gen" + std::to_string(G),
                           rdd::StorageLevel::MemoryAndDiskSer);
    EXPECT_EQ(R.count(), 40000);
    Generations.push_back(R);
  }
  EXPECT_GT(RT->ctx().stats().RddsEvictedToDisk, 0u)
      << "old generations must have been evicted";
  // The oldest generation still answers correctly (from disk).
  double Sum = Generations[0].reduce([](double A, double B) { return A + B; });
  EXPECT_DOUBLE_EQ(Sum, 40000.0);
}

TEST_F(EngineExtras, EvictionPrefersLeastRecentlyUsed) {
  rebuild(8);
  SourceData Data = distinctKeys(12000);
  Rdd Hot = RT->ctx()
                .source(&Data)
                .map([](RddContext &C, ObjRef T) {
                  return C.makeTuple(C.key(T), C.value(T));
                })
                .persistAs("hot", rdd::StorageLevel::MemoryAndDiskSer);
  Hot.count();
  std::vector<Rdd> Cold;
  for (int G = 0; G != 5; ++G) {
    Rdd R = RT->ctx()
                .source(&Data)
                .map([](RddContext &C, ObjRef T) {
                  return C.makeTuple(C.key(T), C.value(T) * 2.0);
                })
                .persistAs("cold" + std::to_string(G),
                           rdd::StorageLevel::MemoryAndDiskSer);
    R.count();
    Hot.count(); // keep the hot RDD recently used
    Cold.push_back(R);
  }
  if (RT->ctx().stats().RddsEvictedToDisk > 0) {
    EXPECT_TRUE(Hot.node()->DiskParts.empty())
        << "the recently-used RDD must not be the eviction victim";
  }
}

TEST_F(EngineExtras, PartitionBuilderGrowsAcrossChunks) {
  heap::Heap &H = RT->heap();
  rdd::PartitionBuilder Builder(H);
  const uint32_t N = 3 * rdd::PartitionBuilder::ChunkCapacity + 17;
  for (uint32_t I = 0; I != N; ++I) {
    ObjRef T = H.allocPlain(0, 8);
    H.storeI64(T, 0, I);
    Builder.append(T);
  }
  EXPECT_EQ(Builder.size(), N);
  ObjRef Arr = Builder.finish(MemTag::None, 0);
  GcRoot Root(H, Arr);
  ASSERT_EQ(H.arrayLength(Root.get()), N);
  for (uint32_t I = 0; I != N; ++I)
    EXPECT_EQ(H.loadI64(H.loadRef(Root.get(), I), 0), I);
}

TEST_F(EngineExtras, PartitionBuilderClearDropsEverything) {
  heap::Heap &H = RT->heap();
  rdd::PartitionBuilder Builder(H);
  for (int I = 0; I != 100; ++I)
    Builder.append(H.allocPlain(0, 8));
  Builder.clear();
  EXPECT_EQ(Builder.size(), 0u);
  int Seen = 0;
  Builder.forEach([&](ObjRef) { ++Seen; });
  EXPECT_EQ(Seen, 0);
  // And it is reusable.
  for (int I = 0; I != 50; ++I)
    Builder.append(H.allocPlain(0, 8));
  EXPECT_EQ(Builder.size(), 50u);
}

TEST_F(EngineExtras, VerifierAcceptsAHealthyHeap) {
  SourceData Data = distinctKeys(5000);
  RT->ctx()
      .source(&Data)
      .reduceByKey([](double A, double B) { return A + B; })
      .persistAs("x", rdd::StorageLevel::MemoryOnly)
      .count();
  gc::VerifyResult V = gc::verifyHeap(RT->heap());
  EXPECT_TRUE(V.Ok) << V.FirstProblem;
  EXPECT_GT(V.ObjectsVisited, 5000u);
}

TEST_F(EngineExtras, VerifierCatchesDanglingReference) {
  heap::Heap &H = RT->heap();
  GcRoot Parent(H, H.allocPlain(1, 8));
  // Forge a reference beyond the allocation frontier.
  H.rawStoreRef(Parent.get().addr(), 0,
                ObjRef(H.oldNvm().base() + H.oldNvm().usedBytes() + 64));
  gc::VerifyResult V = gc::verifyHeap(H);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.FirstProblem.find("frontier"), std::string::npos)
      << V.FirstProblem;
  // Repair so teardown GCs do not trip over the forged reference.
  H.rawStoreRef(Parent.get().addr(), 0, ObjRef());
}

TEST_F(EngineExtras, VerifierCatchesMisalignedReference) {
  heap::Heap &H = RT->heap();
  GcRoot Parent(H, H.allocPlain(1, 8));
  H.rawStoreRef(Parent.get().addr(), 0, ObjRef(H.eden().base() + 3));
  gc::VerifyResult V = gc::verifyHeap(H);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.FirstProblem.find("misaligned"), std::string::npos);
  H.rawStoreRef(Parent.get().addr(), 0, ObjRef());
}

TEST_F(EngineExtras, OffHeapDataLandsInNativeNvmAndSurvivesGc) {
  rebuild(16, 16384, /*OffHeapMB=*/256);
  SourceData Data = distinctKeys(4000);
  Rdd R = RT->ctx()
              .source(&Data)
              .map([](RddContext &C, ObjRef T) {
                return C.makeTuple(C.key(T), C.value(T) * 3.0);
              })
              .persistAs("off", rdd::StorageLevel::OffHeapSer);
  EXPECT_EQ(R.count(), 4000);
  RT->collector().collectMajor("test");
  double Sum = R.reduce([](double A, double B) { return A + B; });
  EXPECT_DOUBLE_EQ(Sum, 12000.0) << "native storage survives full GCs";
}


TEST_F(EngineExtras, BroadcastRoundTripsAndSurvivesGc) {
  heap::Heap &H = RT->heap();
  rdd::Broadcast B(H, {1.5, 2.5, 3.5});
  ASSERT_TRUE(B.valid());
  EXPECT_EQ(B.size(), 3u);
  EXPECT_DOUBLE_EQ(B.get(1), 2.5);
  RT->collector().collectMinor("move");
  RT->collector().collectMajor("move");
  EXPECT_DOUBLE_EQ(B.get(0), 1.5);
  EXPECT_DOUBLE_EQ(B.get(2), 3.5);
  B.destroy();
  EXPECT_FALSE(B.valid());
}

TEST_F(EngineExtras, BroadcastLandsInDramUnderPanthera) {
  heap::Heap &H = RT->heap();
  rdd::Broadcast B(H, std::vector<double>(64, 1.0));
  RT->collector().collectMinor("promote");
  // The DRAM-tagged block is eagerly promoted into old-gen DRAM.
  // Re-read through the handle; the block is reachable and in DRAM.
  EXPECT_DOUBLE_EQ(B.get(63), 1.0);
  EXPECT_GT(H.oldDram().usedBytes(), 0u);
  B.destroy();
}

TEST_F(EngineExtras, BroadcastCopiesShareTheBlock) {
  heap::Heap &H = RT->heap();
  rdd::Broadcast B(H, {7.0});
  rdd::Broadcast Copy = B;
  EXPECT_DOUBLE_EQ(Copy.get(0), 7.0);
  B.destroy();
}


TEST_F(EngineExtras, CheckpointTruncatesLineage) {
  SourceData Data = distinctKeys(5000);
  int Applications = 0;
  Rdd R = RT->ctx().source(&Data).map(
      [&Applications](RddContext &C, ObjRef T) {
        ++Applications;
        return C.makeTuple(C.key(T), C.value(T) * 2.0);
      });
  R.checkpoint();
  EXPECT_EQ(Applications, 5000) << "checkpoint computes the data once";
  EXPECT_TRUE(R.node()->Parents.empty()) << "lineage truncated";
  EXPECT_EQ(R.count(), 5000);
  EXPECT_EQ(Applications, 5000)
      << "actions after checkpoint read the disk copy, not the lineage";
  double Sum = R.reduce([](double A, double B) { return A + B; });
  EXPECT_DOUBLE_EQ(Sum, 2.0 * 5000.0);
}

TEST_F(EngineExtras, CheckpointIsIdempotent) {
  SourceData Data = distinctKeys(500);
  Rdd R = RT->ctx().source(&Data).map([](RddContext &C, ObjRef T) {
    return C.makeTuple(C.key(T), C.value(T));
  });
  R.checkpoint();
  R.checkpoint(); // no-op
  EXPECT_EQ(R.count(), 500);
}

} // namespace
