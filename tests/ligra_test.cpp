//===- tests/ligra_test.cpp - vertexSubset and edgeMap tests --------------===//

#include "ligra/edge_map.h"
#include "gen/generators.h"
#include "graph/graph.h"

#include <gtest/gtest.h>

#include <set>

using namespace aspen;

namespace {

/// Functor that marks reached vertices once (BFS-round semantics).
struct MarkF {
  std::atomic<uint8_t> *Seen;
  bool updateAtomic(VertexId, VertexId V) const {
    uint8_t Expect = 0;
    return Seen[V].compare_exchange_strong(Expect, 1,
                                           std::memory_order_relaxed);
  }
  bool update(VertexId, VertexId V) const {
    if (Seen[V].load(std::memory_order_relaxed))
      return false;
    Seen[V].store(1, std::memory_order_relaxed);
    return true;
  }
  bool cond(VertexId V) const {
    return !Seen[V].load(std::memory_order_relaxed);
  }
};

std::vector<VertexId> refNeighborhood(const std::vector<EdgePair> &Edges,
                                      const std::vector<VertexId> &Frontier,
                                      const std::set<VertexId> &Excluded) {
  std::set<VertexId> F(Frontier.begin(), Frontier.end());
  std::set<VertexId> Out;
  for (const EdgePair &E : Edges)
    if (F.count(E.first) && !Excluded.count(E.second))
      Out.insert(E.second);
  return {Out.begin(), Out.end()};
}

} // namespace

TEST(VertexSubsetTest, SparseDenseRoundTrip) {
  VertexSubset S(100, std::vector<VertexId>{3, 50, 99});
  EXPECT_EQ(S.size(), 3u);
  EXPECT_FALSE(S.isDense());
  S.toDense();
  EXPECT_TRUE(S.isDense());
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.contains(50));
  EXPECT_FALSE(S.contains(51));
  S.toSparse();
  EXPECT_EQ(S.toVector(), (std::vector<VertexId>{3, 50, 99}));
}

TEST(VertexSubsetTest, EmptyAndSingleton) {
  VertexSubset E(10);
  EXPECT_TRUE(E.empty());
  VertexSubset S(10, VertexId(7));
  EXPECT_EQ(S.size(), 1u);
  EXPECT_EQ(S.toVector(), (std::vector<VertexId>{7}));
}

TEST(VertexSubsetTest, ForEachVisitsAll) {
  VertexSubset S(1000, std::vector<VertexId>{1, 10, 100, 999});
  std::atomic<uint64_t> Sum{0};
  S.forEach([&](VertexId V) { Sum.fetch_add(V); });
  EXPECT_EQ(Sum.load(), 1u + 10 + 100 + 999);
  S.toDense();
  Sum.store(0);
  S.forEach([&](VertexId V) { Sum.fetch_add(V); });
  EXPECT_EQ(Sum.load(), 1u + 10 + 100 + 999);
}

TEST(VertexFilterTest, KeepsSatisfying) {
  VertexSubset S(100, std::vector<VertexId>{1, 2, 3, 4, 5, 6});
  VertexSubset Even = vertexFilter(S, [](VertexId V) { return V % 2 == 0; });
  EXPECT_EQ(Even.toVector(), (std::vector<VertexId>{2, 4, 6}));
}

TEST(VertexFilterTest, DenseInputFiltersWithoutSparseCopy) {
  VertexSubset S(100, std::vector<VertexId>{10, 20, 30, 41});
  S.toDense();
  VertexSubset Even = vertexFilter(S, [](VertexId V) { return V % 2 == 0; });
  EXPECT_EQ(Even.toVector(), (std::vector<VertexId>{10, 20, 30}));
}

TEST(VertexSubsetTest, ContextBackedRoundTrip) {
  AlgoContext Ctx;
  {
    VertexSubset S(1000, std::vector<VertexId>{5, 17, 900}, &Ctx);
    EXPECT_EQ(S.context(), &Ctx);
    S.toDense();
    EXPECT_TRUE(S.contains(17));
    S.toSparse();
    EXPECT_EQ(S.toVector(), (std::vector<VertexId>{5, 17, 900}));
    VertexSubset Copy = S;
    EXPECT_EQ(Copy.toVector(), S.toVector());
  } // destruction returns the buffers to the context
  EXPECT_GT(Ctx.cachedBlocks(), 0);
  uint64_t Miss0 = Ctx.missCount();
  VertexSubset T(1000, std::vector<VertexId>{1, 2, 3}, &Ctx);
  T.toDense();
  EXPECT_EQ(Ctx.missCount(), Miss0) << "buffers should be reused";
}

class EdgeMapTest : public ::testing::Test {
protected:
  void SetUp() override {
    Edges = rmatGraphEdges(9, 6, 123);
    N = 1 << 9;
    G = Graph::fromEdges(N, Edges);
  }

  /// One edgeMap round from Frontier with fresh marks on frontier itself.
  template <class GView>
  std::vector<VertexId> oneRound(const GView &View,
                                 std::vector<VertexId> Frontier,
                                 EdgeMapOptions Options) {
    std::vector<std::atomic<uint8_t>> Seen(N);
    parallelFor(0, N, [&](size_t I) { Seen[I].store(0); });
    for (VertexId V : Frontier)
      Seen[V].store(1);
    VertexSubset U(N, Frontier);
    VertexSubset Next = edgeMap(View, U, MarkF{Seen.data()}, Options);
    return Next.toVector();
  }

  VertexId N = 0;
  std::vector<EdgePair> Edges;
  Graph G;
};

TEST_F(EdgeMapTest, SparseMatchesReference) {
  TreeGraphView View(G);
  std::vector<VertexId> Frontier = {1, 2, 3};
  EdgeMapOptions Sparse;
  Sparse.NoDense = true;
  auto Got = oneRound(View, Frontier, Sparse);
  auto Ref = refNeighborhood(Edges, Frontier, {1, 2, 3});
  EXPECT_EQ(Got, Ref);
}

TEST_F(EdgeMapTest, DenseMatchesSparse) {
  TreeGraphView View(G);
  std::vector<VertexId> Frontier;
  for (VertexId V = 0; V < N; V += 2)
    Frontier.push_back(V);
  // Half the vertices and their edges are far over the dense threshold,
  // so the default options take the dense traversal.
  uint64_t Work = Frontier.size();
  for (VertexId V : Frontier)
    Work += G.degree(V);
  ASSERT_GT(Work, G.numEdges() / DenseThresholdDenominator);
  EdgeMapOptions SparseOnly;
  SparseOnly.NoDense = true;
  auto A = oneRound(View, Frontier, SparseOnly);
  auto B = oneRound(View, Frontier, EdgeMapOptions{});
  EXPECT_EQ(A, B);
}

TEST_F(EdgeMapTest, FlatSnapshotAgreesWithTreeView) {
  FlatSnapshot FS(G);
  FlatGraphView FV(FS);
  TreeGraphView TV(G);
  std::vector<VertexId> Frontier = {0, 7, 12, 100, 200};
  EdgeMapOptions Opt;
  EXPECT_EQ(oneRound(FV, Frontier, Opt), oneRound(TV, Frontier, Opt));
}

TEST_F(EdgeMapTest, ContextPropagatesAndMatchesContextFree) {
  TreeGraphView View(G);
  AlgoContext Ctx;
  std::vector<VertexId> Frontier = {1, 2, 3, 7};
  std::vector<std::atomic<uint8_t>> Seen(N);

  auto RunWith = [&](AlgoContext *C) {
    parallelFor(0, N, [&](size_t I) { Seen[I].store(0); });
    for (VertexId V : Frontier)
      Seen[V].store(1);
    VertexSubset U(N, Frontier, C);
    VertexSubset Next = edgeMap(View, U, MarkF{Seen.data()});
    EXPECT_EQ(Next.context(), C);
    return Next.toVector();
  };
  EXPECT_EQ(RunWith(&Ctx), RunWith(nullptr));
}

TEST_F(EdgeMapTest, EmptyFrontier) {
  TreeGraphView View(G);
  VertexSubset U(N);
  VertexSubset Next = edgeMap(View, U, MarkF{nullptr});
  EXPECT_TRUE(Next.empty());
}

TEST_F(EdgeMapTest, EdgeMapNoOutputTouchesAllEdges) {
  TreeGraphView View(G);
  std::vector<VertexId> All;
  for (VertexId V = 0; V < N; ++V)
    All.push_back(V);
  VertexSubset U(N, All);
  std::atomic<uint64_t> Count{0};
  edgeMapNoOutput(View, U, [&](VertexId, VertexId) {
    Count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Count.load(), G.numEdges());
}
