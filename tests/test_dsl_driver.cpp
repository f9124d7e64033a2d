//===- tests/test_dsl_driver.cpp - DSL interpreter tests ------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/DslDriver.h"
#include "support/Errors.h"

#include <gtest/gtest.h>

using namespace panthera;
using rdd::SourceData;

namespace {

class DslDriverTest : public ::testing::Test {
protected:
  void SetUp() override {
    core::RuntimeConfig Config;
    Config.Policy = gc::PolicyKind::Panthera;
    Config.HeapPaperGB = 16;
    RT = std::make_unique<core::Runtime>(Config);
    Driver = std::make_unique<core::DslDriver>(*RT);
  }

  SourceData makeData(int64_t N, int64_t KeyMod) {
    SourceData Data(RT->ctx().config().NumPartitions);
    for (int64_t I = 0; I != N; ++I)
      Data[static_cast<size_t>(I) % Data.size()].push_back(
          {I % KeyMod, 1.0});
    return Data;
  }

  double lastAction(const core::DriverResult &R) {
    EXPECT_FALSE(R.Actions.empty());
    return R.Actions.empty() ? 0.0 : R.Actions.back().Value;
  }

  std::unique_ptr<core::Runtime> RT;
  std::unique_ptr<core::DslDriver> Driver;
};

TEST_F(DslDriverTest, CountsABoundDataset) {
  SourceData Data = makeData(1234, 1000000);
  Driver->bindDataset("events", &Data);
  core::DriverResult R = Driver->run(R"(
program t {
  x = textFile("events");
  x.count();
}
)");
  ASSERT_EQ(R.Actions.size(), 1u);
  EXPECT_EQ(R.Actions[0].Description, "x.count");
  EXPECT_DOUBLE_EQ(R.Actions[0].Value, 1234.0);
}

TEST_F(DslDriverTest, ReduceByKeyAndBuiltinFunctions) {
  SourceData Data = makeData(400, 10); // 40 records per key, value 1
  Driver->bindDataset("in", &Data);
  core::DriverResult R = Driver->run(R"(
program t {
  totals = textFile("in").map(double).reduceByKey(sum)
           .persist(MEMORY_ONLY);
  totals.reduce();
}
)");
  // 400 records x 2.0 = 800 summed over everything.
  EXPECT_DOUBLE_EQ(lastAction(R), 800.0);
}

TEST_F(DslDriverTest, FilterEvenAndFlatMapDup) {
  SourceData Data = makeData(100, 1000000);
  Driver->bindDataset("in", &Data);
  core::DriverResult R = Driver->run(R"(
program t {
  x = textFile("in").filter(even).flatMap(dup);
  x.count();
}
)");
  EXPECT_DOUBLE_EQ(lastAction(R), 100.0); // 50 even keys duplicated
}

TEST_F(DslDriverTest, LoopsUseTheBoundTripCount) {
  SourceData Data = makeData(50, 1000000);
  Driver->bindDataset("in", &Data);
  Driver->setLoopBound("iters", 4);
  core::DriverResult R = Driver->run(R"(
program t {
  x = textFile("in");
  for (i in 1..iters) {
    x.count();
  }
}
)");
  EXPECT_EQ(R.Actions.size(), 4u);
}

TEST_F(DslDriverTest, ExecutesThePageRankShapeEndToEnd) {
  // The paper's program structure, executed with builtin functions: the
  // tags flow into the live engine (links pretenured DRAM).
  SourceData Data(RT->ctx().config().NumPartitions);
  for (int64_t I = 0; I != 20000; ++I)
    Data[I % Data.size()].push_back({I % 6000, static_cast<double>(I)});
  Driver->bindDataset("graph", &Data);
  Driver->setLoopBound("iters", 3);
  core::DriverResult R = Driver->run(R"(
program pagerank {
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
)");
  EXPECT_EQ(R.Tags.at("links"), MemTag::Dram);
  EXPECT_EQ(R.Tags.at("contribs"), MemTag::Nvm);
  EXPECT_DOUBLE_EQ(lastAction(R), 6000.0);
  EXPECT_GT(RT->heap().stats().ArraysPretenured, 0u)
      << "the analysis' tags must reach the live heap";
  EXPECT_GT(RT->heap().oldDram().usedBytes(), 0u);
}

TEST_F(DslDriverTest, InstrumentedProgramsExecuteUnchanged) {
  // rddAlloc(...) statements (from the §4.2.1 instrumentation pass) are
  // accepted and ignored by the interpreter.
  SourceData Data = makeData(100, 1000000);
  Driver->bindDataset("in", &Data);
  core::DriverResult R = Driver->run(R"(
program t {
  x = textFile("in").map().persist(MEMORY_ONLY);
  rddAlloc(x, DRAM);
  x.count();
}
)");
  EXPECT_DOUBLE_EQ(lastAction(R), 100.0);
}

TEST_F(DslDriverTest, SortByKeyAndSampleWork) {
  SourceData Data = makeData(2000, 1000000);
  Driver->bindDataset("in", &Data);
  core::DriverResult R = Driver->run(R"(
program t {
  s = textFile("in").sample(50).sortByKey();
  s.count();
}
)");
  double Kept = lastAction(R);
  EXPECT_GT(Kept, 2000 * 0.4);
  EXPECT_LT(Kept, 2000 * 0.6);
}

TEST_F(DslDriverTest, UnboundSourcesGetTheDefaultDataset) {
  core::DriverResult R = Driver->run(R"(
program t {
  x = textFile("whatever");
  x.count();
}
)");
  EXPECT_DOUBLE_EQ(lastAction(R), 8000.0);
}

TEST_F(DslDriverTest, MatchesHandWrittenPipeline) {
  // The interpreter and a hand-built pipeline over the same data must
  // produce the same result.
  SourceData Data = makeData(3000, 37);
  SourceData Copy = Data;
  Driver->bindDataset("in", &Data);
  core::DriverResult R = Driver->run(R"(
program t {
  t = textFile("in").map(double).reduceByKey(sum);
  t.reduce();
}
)");
  double Hand =
      RT->ctx()
          .source(&Copy)
          .map([](rdd::RddContext &C, heap::ObjRef T) {
            return C.makeTuple(C.key(T), C.value(T) * 2.0);
          })
          .reduceByKey([](double A, double B) { return A + B; })
          .reduce([](double A, double B) { return A + B; });
  EXPECT_DOUBLE_EQ(lastAction(R), Hand);
}

// Bad driver programs are typed errors carrying `line:col: error:`, not
// process aborts.
TEST_F(DslDriverTest, MalformedProgramThrowsEngineError) {
  try {
    Driver->run("program t { a = textFile(\"in\").map(; }");
    FAIL() << "a malformed program must throw";
  } catch (const EngineError &E) {
    EXPECT_NE(std::string(E.what()).find(": error: "), std::string::npos)
        << E.what();
  }
}

TEST_F(DslDriverTest, UndefinedVariableThrowsEngineError) {
  try {
    Driver->run("program t { a = b.map(); a.count(); }");
    FAIL() << "an undefined variable must throw";
  } catch (const EngineError &E) {
    EXPECT_NE(std::string(E.what()).find("1:17: error: use of an undefined "
                                         "RDD variable"),
              std::string::npos)
        << E.what();
  }
}

} // namespace
