//===- tests/algo_context_test.cpp - Algorithm workspace tests ------------===//
//
// The PR-2 steady-state contract: after a first (warm-up) run populates an
// AlgoContext, re-running an algorithm with the same context performs zero
// heap allocations in the Ligra/algorithm layer — asserted exactly via the
// pool-allocator event counters and the context's own miss counter. Two
// contexts must be usable from two reader threads concurrently (the
// streaming-analytics scenario); the ASan CI job runs this file too.
//
//===----------------------------------------------------------------------===//

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/cc.h"
#include "algorithms/pagerank.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "memory/algo_context.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

using namespace aspen;

namespace {

struct CounterSnapshot {
  uint64_t Counted;
  uint64_t Scratch;
  uint64_t CtxMiss;

  static CounterSnapshot take(const AlgoContext &Ctx) {
    return {countedAllocEvents(), scratchAllocEvents(), Ctx.missCount()};
  }
};

} // namespace

TEST(AlgoContext, AcquireReleaseReusesBlocks) {
  AlgoContext Ctx;
  size_t Cap1;
  void *P = Ctx.acquire(10000, Cap1);
  ASSERT_NE(P, nullptr);
  ASSERT_GE(Cap1, 10000u);
  Ctx.release(P, Cap1);
  ASSERT_EQ(Ctx.cachedBlocks(), 1);
  uint64_t Warm = Ctx.missCount();
  for (int I = 0; I < 100; ++I) {
    size_t Cap;
    void *Q = Ctx.acquire(8000, Cap);
    EXPECT_EQ(Q, P) << "cached block must be reused";
    Ctx.release(Q, Cap);
  }
  EXPECT_EQ(Ctx.missCount(), Warm);
}

TEST(AlgoContext, DistinctLiveBlocks) {
  AlgoContext Ctx;
  size_t CapA, CapB;
  void *A = Ctx.acquire(512, CapA);
  void *B = Ctx.acquire(512, CapB);
  EXPECT_NE(A, B);
  Ctx.release(A, CapA);
  Ctx.release(B, CapB);
}

TEST(AlgoContext, SecondRunIsAllocationFree) {
  const VertexId N = 1 << 10;
  Graph G = Graph::fromEdges(N, rmatGraphEdges(10, 8, 42));
  FlatSnapshot FS(G);
  FlatGraphView FV(FS);
  AlgoContext Ctx;

  // Warm-up runs populate the workspace (and the per-worker scratch
  // caches used by the parallel primitives).
  auto Bfs1 = bfsDistances(FV, 0, Ctx);
  auto Pr1 = pageRank(FV, Ctx, 10);

  CounterSnapshot Before = CounterSnapshot::take(Ctx);
  auto Bfs2 = bfsDistances(FV, 0, Ctx);
  auto Pr2 = pageRank(FV, Ctx, 10);
  CounterSnapshot After = CounterSnapshot::take(Ctx);

  EXPECT_EQ(After.Counted - Before.Counted, 0u)
      << "steady-state runs must not allocate chunk payloads";
  EXPECT_EQ(After.Scratch - Before.Scratch, 0u)
      << "steady-state runs must not miss the scratch caches";
  EXPECT_EQ(After.CtxMiss - Before.CtxMiss, 0u)
      << "steady-state runs must be served entirely from the context";

  // And the reuse must not change results.
  EXPECT_EQ(Bfs1, Bfs2);
  EXPECT_EQ(Pr1, Pr2);
}

TEST(AlgoContext, SteadyStateAcrossEvolvingSnapshots) {
  // The paper's scenario: re-run analytics after each ingested batch. The
  // graph grows, but as long as the vertex universe is fixed the workspace
  // blocks keep fitting; only the counters of the first run may miss.
  const VertexId N = 1 << 9;
  Graph G = Graph::fromEdges(N, rmatGraphEdges(9, 4, 7));
  AlgoContext Ctx;
  {
    TreeGraphView TV(G);
    bfsDistances(TV, 0, Ctx); // warm
  }
  for (int Round = 0; Round < 3; ++Round) {
    auto Batch = dedupEdges(symmetrize(uniformRandomEdges(N, 400, Round)));
    G = G.insertEdges(Batch);
    TreeGraphView TV(G);
    // The first run on a grown snapshot may upsize a block (a legitimate
    // miss); the run after it must be served entirely from the context.
    auto Got = bfsDistances(TV, 0, Ctx);
    uint64_t Miss0 = Ctx.missCount();
    EXPECT_EQ(Got, bfsDistances(TV, 0, Ctx));
    EXPECT_EQ(Ctx.missCount(), Miss0)
        << "round " << Round << " should reuse the adapted workspace";
    AlgoContext Fresh;
    EXPECT_EQ(Got, bfsDistances(TV, 0, Fresh));
  }
}

TEST(AlgoContext, TwoContextsOnTwoThreadsMatchSingleThreaded) {
  const VertexId N = 1 << 10;
  Graph G = Graph::fromEdges(N, rmatGraphEdges(10, 6, 99));
  FlatSnapshot FS(G);
  FlatGraphView FV(FS);

  // Single-threaded references.
  auto RefBfs = bfsDistances(FV, 3);
  auto RefPr = pageRank(FV, 15);
  auto RefCc = connectedComponents(FV);

  const int Iters = 8;
  std::vector<uint32_t> T1Bfs;
  std::vector<double> T1Pr;
  std::vector<VertexId> T2Cc;
  std::vector<uint32_t> T2Bfs;
  std::thread Reader1([&] {
    AlgoContext Ctx;
    for (int I = 0; I < Iters; ++I) {
      T1Bfs = bfsDistances(FV, 3, Ctx);
      T1Pr = pageRank(FV, Ctx, 15);
    }
  });
  std::thread Reader2([&] {
    AlgoContext Ctx;
    for (int I = 0; I < Iters; ++I) {
      T2Cc = connectedComponents(FV, Ctx);
      T2Bfs = bfsDistances(FV, 3, Ctx);
    }
  });
  Reader1.join();
  Reader2.join();

  EXPECT_EQ(T1Bfs, RefBfs);
  EXPECT_EQ(T1Pr, RefPr);
  EXPECT_EQ(T2Cc, RefCc);
  EXPECT_EQ(T2Bfs, RefBfs);
}

//===----------------------------------------------------------------------===
// Outlier guard: a per-request bound serves oversize requests from
// transient heap, so they never pin a block in any cache.
//===----------------------------------------------------------------------===

TEST(AlgoContext, BoundedCtxArrayOutlierGuard) {
  AlgoContext Ctx;
  uint64_t Scratch0 = scratchAllocEvents();
  int Cached0 = Ctx.cachedBlocks();
  {
    // Within the bound: a normal workspace borrow.
    CtxArray<VertexId> Small(Ctx, 1000, 1 << 20);
    EXPECT_FALSE(Small.transient());
    Small[999] = 42;
  }
  {
    // Outlier: transient heap, pinned nowhere.
    CtxArray<VertexId> Huge(Ctx, (4u << 20), 1 << 20);
    EXPECT_TRUE(Huge.transient());
    Huge[(4u << 20) - 1] = 7;
  }
  EXPECT_EQ(Ctx.cachedBlocks(), Cached0 + 1); // only the small block
  EXPECT_LE(scratchAllocEvents() - Scratch0,
            1u); // at most the small block's miss; the outlier never hit
                 // the scratch layer
}

TEST(AlgoContext, BcReusesWorkspace) {
  const VertexId N = 1 << 9;
  Graph G = Graph::fromEdges(N, rmatGraphEdges(9, 6, 5));
  TreeGraphView TV(G);
  AlgoContext Ctx;
  auto First = bc(TV, 0, Ctx);
  uint64_t Miss0 = Ctx.missCount();
  auto Second = bc(TV, 0, Ctx);
  EXPECT_EQ(Ctx.missCount(), Miss0);
  ASSERT_EQ(First.size(), Second.size());
  // Path counts accumulate in nondeterministic order across parallel
  // runs, so compare with the same relative tolerance the reference
  // tests use.
  for (size_t I = 0; I < First.size(); ++I)
    ASSERT_NEAR(First[I], Second[I], 1e-6 * (1.0 + std::fabs(First[I])));
}
