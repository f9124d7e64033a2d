//===- tests/test_analysis.cpp - §3 tag-inference tests -------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/TagInference.h"
#include "dsl/Parser.h"
#include "support/Errors.h"

#include <gtest/gtest.h>

using namespace panthera;
using namespace panthera::analysis;

static AnalysisResult analyze(std::string_view Src) {
  std::vector<dsl::Diagnostic> Diags;
  dsl::Program P = dsl::parseDriverProgram(Src, Diags);
  EXPECT_TRUE(Diags.empty()) << (Diags.empty() ? "" : Diags[0].Message);
  return inferMemoryTags(P);
}

/// The paper's Fig 2(a) PageRank program, §3's running example.
static const char *PageRankDsl = R"(
program pagerank {
  lines = textFile("input");
  links = lines.map().distinct().groupByKey().persist(MEMORY_ONLY);
  ranks = links.mapValues();
  for (i in 1..iters) {
    contribs = links.join(ranks).flatMap()
                    .persist(MEMORY_AND_DISK_SER);
    ranks = contribs.reduceByKey().mapValues();
  }
  ranks.count();
}
)";

TEST(TagInference, PageRankLinksIsDram) {
  AnalysisResult R = analyze(PageRankDsl);
  ASSERT_TRUE(R.Vars.count("links"));
  EXPECT_EQ(R.Vars.at("links").Tag, MemTag::Dram);
  EXPECT_EQ(R.Vars.at("links").Reason, TagReason::UsedOnlyInLoop);
  EXPECT_EQ(R.Vars.at("links").ExpandedLevel, "MEMORY_ONLY_DRAM");
}

TEST(TagInference, PageRankContribsIsNvm) {
  AnalysisResult R = analyze(PageRankDsl);
  ASSERT_TRUE(R.Vars.count("contribs"));
  EXPECT_EQ(R.Vars.at("contribs").Tag, MemTag::Nvm);
  EXPECT_EQ(R.Vars.at("contribs").Reason, TagReason::DefinedInLoop);
  EXPECT_EQ(R.Vars.at("contribs").ExpandedLevel,
            "MEMORY_AND_DISK_SER_NVM");
}

TEST(TagInference, PageRankRanksMaterializesAtActionAfterLoop) {
  // ranks is defined in the loop but materializes only at the count()
  // after the loop; the loop is therefore not considered (§3) and ranks
  // falls to the no-considered-loop NVM rule.
  AnalysisResult R = analyze(PageRankDsl);
  ASSERT_TRUE(R.Vars.count("ranks"));
  const VarTagInfo &Info = R.Vars.at("ranks");
  EXPECT_TRUE(Info.ActionMaterialized);
  EXPECT_EQ(Info.Tag, MemTag::Nvm);
  EXPECT_EQ(Info.Reason, TagReason::NoConsideredLoop);
}

TEST(TagInference, PageRankFallbackNotApplied) {
  AnalysisResult R = analyze(PageRankDsl);
  EXPECT_FALSE(R.AllNvmFallbackApplied) << "links is DRAM already";
}

TEST(TagInference, TransitiveClosurePathsRedefinedInLoop) {
  // TC: paths is both used and defined in the loop -> NVM; edges is
  // used-only -> DRAM.
  AnalysisResult R = analyze(R"(
program tc {
  edges = textFile("g").map().distinct().persist(MEMORY_ONLY);
  paths = edges.map().persist(MEMORY_ONLY);
  for (i in 1..iters) {
    paths = paths.join(edges).map().unionWith(paths).distinct()
                 .persist(MEMORY_ONLY);
  }
  paths.count();
}
)");
  EXPECT_EQ(R.Vars.at("edges").Tag, MemTag::Dram);
  EXPECT_EQ(R.Vars.at("paths").Tag, MemTag::Nvm);
  EXPECT_EQ(R.Vars.at("paths").Reason, TagReason::DefinedInLoop);
}

TEST(TagInference, NoLoopProgramFlipsAllToDram) {
  // §3: with no loops everything starts NVM, and the all-NVM fallback
  // flips every tag to DRAM to use DRAM first.
  AnalysisResult R = analyze(R"(
program bayes {
  data = textFile("kdd").map().persist(MEMORY_ONLY);
  model = data.reduceByKey().persist(MEMORY_ONLY);
  model.count();
}
)");
  EXPECT_TRUE(R.AllNvmFallbackApplied);
  EXPECT_EQ(R.Vars.at("data").Tag, MemTag::Dram);
  EXPECT_EQ(R.Vars.at("data").Reason, TagReason::AllNvmFallback);
  EXPECT_EQ(R.Vars.at("model").Tag, MemTag::Dram);
}

TEST(TagInference, OffHeapBecomesOffHeapNvmAndEscapesFallback) {
  AnalysisResult R = analyze(R"(
program off {
  cold = textFile("in").map().persist(OFF_HEAP);
  hot = textFile("in2").map().persist(MEMORY_ONLY);
  for (i in 1..n) { x = hot.map(); x.count(); }
}
)");
  EXPECT_EQ(R.Vars.at("cold").Tag, MemTag::Nvm);
  EXPECT_EQ(R.Vars.at("cold").ExpandedLevel, "OFF_HEAP_NVM");
  EXPECT_EQ(R.Vars.at("cold").Reason, TagReason::OffHeap);
  EXPECT_EQ(R.Vars.at("hot").Tag, MemTag::Dram);
}

TEST(TagInference, DiskOnlyCarriesNoTag) {
  AnalysisResult R = analyze(R"(
program d {
  spill = textFile("in").persist(DISK_ONLY);
  live = textFile("in2").persist(MEMORY_ONLY);
  for (i in 1..n) { y = live.join(spill).map(); y.count(); }
}
)");
  EXPECT_EQ(R.Vars.at("spill").Tag, MemTag::None);
  EXPECT_EQ(R.Vars.at("spill").ExpandedLevel, "DISK_ONLY");
  EXPECT_EQ(R.Vars.at("live").Tag, MemTag::Dram);
}

TEST(TagInference, UnknownStorageLevelIsRejectedLikeTheEngine) {
  // The engine throws EngineError on this persist; the analysis must not
  // invent a BOGUS_DRAM level for it.
  EXPECT_THROW(analyze(R"(
program t { a = textFile("x").persist(BOGUS); a.count(); }
)"),
               EngineError);
}

TEST(TagInference, GraphXPatternInnerUseOnlyLoopGivesDram) {
  // The Pregel shape: the vertex RDD is redefined per outer iteration but
  // an inner (superstep) loop only reads it -> DRAM (§5.5: the analysis
  // marks both old and new graph RDDs as hot).
  AnalysisResult R = analyze(R"(
program cc {
  edges = textFile("g").map().groupByKey().persist(MEMORY_ONLY);
  vertices = edges.mapValues().persist(MEMORY_ONLY);
  for (i in 1..iters) {
    msgs = edges.join(vertices).flatMap();
    vertices = msgs.reduceByKey().persist(MEMORY_ONLY);
    for (j in 1..agg) {
      probe = edges.join(vertices).map();
      probe.count();
    }
  }
  vertices.count();
}
)");
  EXPECT_EQ(R.Vars.at("vertices").Tag, MemTag::Dram);
  EXPECT_EQ(R.Vars.at("vertices").Reason, TagReason::UsedOnlyInLoop);
  EXPECT_EQ(R.Vars.at("edges").Tag, MemTag::Dram);
}

TEST(TagInference, MaterializationInsideLoopConsidersThatLoop) {
  // A variable persisted inside the loop and only read by later
  // iterations of the same loop: the loop contains the materialization
  // point, the variable is defined there -> NVM.
  AnalysisResult R = analyze(R"(
program m {
  base = textFile("in").map().persist(MEMORY_ONLY);
  for (i in 1..n) {
    snapshot = base.map().persist(MEMORY_ONLY);
    snapshot.count();
  }
}
)");
  EXPECT_EQ(R.Vars.at("base").Tag, MemTag::Dram);
  EXPECT_EQ(R.Vars.at("snapshot").Tag, MemTag::Nvm);
  EXPECT_EQ(R.Vars.at("snapshot").Reason, TagReason::DefinedInLoop);
}

TEST(TagInference, LoopBeforeMaterializationIgnored) {
  // The loop precedes the materialization point entirely: not considered,
  // so the variable gets the no-loop NVM rule (and the fallback cannot
  // fire because another variable is DRAM).
  AnalysisResult R = analyze(R"(
program l {
  warm = textFile("a").map().persist(MEMORY_ONLY);
  for (i in 1..n) {
    t = warm.map();
    t.count();
  }
  late = warm.map().persist(MEMORY_ONLY);
  late.count();
}
)");
  EXPECT_EQ(R.Vars.at("warm").Tag, MemTag::Dram);
  EXPECT_EQ(R.Vars.at("late").Tag, MemTag::Nvm);
  EXPECT_EQ(R.Vars.at("late").Reason, TagReason::NoConsideredLoop);
}

TEST(TagInference, ActionOnlyVariableGetsTag) {
  AnalysisResult R = analyze(R"(
program a {
  x = textFile("in").map();
  x.count();
}
)");
  ASSERT_TRUE(R.Vars.count("x"));
  EXPECT_TRUE(R.Vars.at("x").ActionMaterialized);
}

TEST(TagInference, UnmentionedVariablesAbsent) {
  AnalysisResult R = analyze(R"(
program a {
  x = textFile("in").map();
  y = x.map();
  y.count();
}
)");
  EXPECT_EQ(R.Vars.count("x"), 0u) << "never persisted nor actioned";
  EXPECT_EQ(R.tagFor("x"), MemTag::None);
}

TEST(TagInferenceExtension, UnpersistAwareRetiresGraphGenerations) {
  // §5.5 future-work: with unpersist support, the per-iteration graph
  // RDDs are statically NVM instead of relying on dynamic demotion.
  const char *Src = R"(
program cc {
  edges = textFile("g").map().groupByKey().persist(MEMORY_ONLY);
  vertices = edges.mapValues().persist(MEMORY_ONLY);
  for (i in 1..iters) {
    msgs = edges.join(vertices).flatMap();
    vertices = msgs.reduceByKey().persist(MEMORY_ONLY);
    for (j in 1..agg) {
      probe = edges.join(vertices).map();
      probe.count();
    }
    vertices.unpersist();
  }
  vertices.count();
}
)";
  std::vector<dsl::Diagnostic> Diags;
  dsl::Program P = dsl::parseDriverProgram(Src, Diags);
  ASSERT_TRUE(Diags.empty());

  // Paper behavior (default): unpersist ignored -> DRAM.
  AnalysisResult Paper = inferMemoryTags(P);
  EXPECT_EQ(Paper.Vars.at("vertices").Tag, MemTag::Dram);

  // Extension: redefined + unpersisted per iteration -> NVM.
  AnalysisOptions Options;
  Options.UnpersistAware = true;
  AnalysisResult Ext = inferMemoryTags(P, Options);
  EXPECT_EQ(Ext.Vars.at("vertices").Tag, MemTag::Nvm);
  EXPECT_EQ(Ext.Vars.at("vertices").Reason,
            TagReason::RetiredByUnpersist);
  EXPECT_EQ(Ext.Vars.at("edges").Tag, MemTag::Dram)
      << "never-unpersisted variables keep the paper's rules";
}

TEST(TagInferenceExtension, UnpersistOutsideDefiningLoopDoesNotRetire) {
  const char *Src = R"(
program t {
  hot = textFile("h").map().persist(MEMORY_ONLY);
  for (i in 1..n) {
    x = hot.map();
    x.count();
  }
  hot.unpersist();
}
)";
  std::vector<dsl::Diagnostic> Diags;
  dsl::Program P = dsl::parseDriverProgram(Src, Diags);
  ASSERT_TRUE(Diags.empty());
  AnalysisOptions Options;
  Options.UnpersistAware = true;
  AnalysisResult R = inferMemoryTags(P, Options);
  EXPECT_EQ(R.Vars.at("hot").Tag, MemTag::Dram)
      << "an unpersist after the loop is not per-iteration retirement";
}
