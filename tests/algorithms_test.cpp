//===- tests/algorithms_test.cpp - Graph algorithm tests ------------------===//
//
// The paper's five algorithms (BFS, BC, MIS, 2-hop, Local-Cluster) plus
// the extension algorithms, cross-checked against simple sequential
// reference implementations on random and structured graphs, over both
// Aspen views and flat snapshots.
//
//===----------------------------------------------------------------------===//

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/cc.h"
#include "algorithms/kcore.h"
#include "algorithms/local_cluster.h"
#include "algorithms/mis.h"
#include "algorithms/pagerank.h"
#include "algorithms/triangle_count.h"
#include "algorithms/two_hop.h"
#include "gen/generators.h"
#include "graph/graph.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

using namespace aspen;

namespace {

using Adj = std::vector<std::vector<VertexId>>;

Adj adjFromEdges(VertexId N, const std::vector<EdgePair> &Edges) {
  Adj A(N);
  for (const EdgePair &E : Edges)
    A[E.first].push_back(E.second);
  for (auto &Nbrs : A) {
    std::sort(Nbrs.begin(), Nbrs.end());
    Nbrs.erase(std::unique(Nbrs.begin(), Nbrs.end()), Nbrs.end());
  }
  return A;
}

std::vector<uint32_t> refBfs(const Adj &A, VertexId Src) {
  std::vector<uint32_t> Dist(A.size(), ~0u);
  std::deque<VertexId> Q = {Src};
  Dist[Src] = 0;
  while (!Q.empty()) {
    VertexId V = Q.front();
    Q.pop_front();
    for (VertexId U : A[V])
      if (Dist[U] == ~0u) {
        Dist[U] = Dist[V] + 1;
        Q.push_back(U);
      }
  }
  return Dist;
}

std::vector<double> refBrandes(const Adj &A, VertexId Src) {
  size_t N = A.size();
  std::vector<double> Sigma(N, 0.0), Delta(N, 0.0);
  std::vector<int64_t> Dist(N, -1);
  std::vector<VertexId> Order;
  Sigma[Src] = 1.0;
  Dist[Src] = 0;
  std::deque<VertexId> Q = {Src};
  while (!Q.empty()) {
    VertexId V = Q.front();
    Q.pop_front();
    Order.push_back(V);
    for (VertexId U : A[V]) {
      if (Dist[U] < 0) {
        Dist[U] = Dist[V] + 1;
        Q.push_back(U);
      }
      if (Dist[U] == Dist[V] + 1)
        Sigma[U] += Sigma[V];
    }
  }
  for (size_t I = Order.size(); I-- > 0;) {
    VertexId W = Order[I];
    for (VertexId U : A[W])
      if (Dist[U] == Dist[W] - 1)
        Delta[U] += Sigma[U] / Sigma[W] * (1.0 + Delta[W]);
  }
  Delta[Src] = 0.0;
  return Delta;
}

bool isValidMis(const Adj &A, const std::vector<uint8_t> &In) {
  // Independence.
  for (VertexId V = 0; V < A.size(); ++V)
    if (In[V])
      for (VertexId U : A[V])
        if (U != V && In[U])
          return false;
  // Maximality: every non-member has a member neighbor.
  for (VertexId V = 0; V < A.size(); ++V) {
    if (In[V])
      continue;
    bool HasMemberNeighbor = false;
    for (VertexId U : A[V])
      if (U != V && In[U]) {
        HasMemberNeighbor = true;
        break;
      }
    if (!HasMemberNeighbor)
      return false;
  }
  return true;
}

struct TestGraph {
  VertexId N;
  std::vector<EdgePair> Edges;
  Graph G;
  Adj A;

  TestGraph(VertexId N, std::vector<EdgePair> E)
      : N(N), Edges(std::move(E)), G(Graph::fromEdges(N, Edges)),
        A(adjFromEdges(N, Edges)) {}
};

TestGraph rmatTestGraph(int LogN, uint64_t Factor, uint64_t Seed) {
  return TestGraph(VertexId(1) << LogN, rmatGraphEdges(LogN, Factor, Seed));
}

uint64_t bruteTriangles(VertexId N, const std::vector<EdgePair> &E) {
  std::vector<std::set<VertexId>> Adj(N);
  for (const EdgePair &P : E)
    Adj[P.first].insert(P.second);
  uint64_t Count = 0;
  for (VertexId U = 0; U < N; ++U)
    for (VertexId V : Adj[U])
      if (V > U)
        for (VertexId W : Adj[V])
          if (W > V && Adj[U].count(W))
            ++Count;
  return Count;
}

} // namespace

//===----------------------------------------------------------------------===
// BFS.
//===----------------------------------------------------------------------===

class BfsParamTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(BfsParamTest, DistancesMatchReferenceOnRmat) {
  auto [LogN, Seed] = GetParam();
  TestGraph T = rmatTestGraph(LogN, 6, Seed);
  TreeGraphView View(T.G);
  auto Ref = refBfs(T.A, 0);
  EXPECT_EQ(bfsDistances(View, 0), Ref);
  // Parents must be consistent: Dist[parent[v]] + 1 == Dist[v].
  auto Parents = bfs(View, 0);
  for (VertexId V = 0; V < T.N; ++V) {
    if (Ref[V] == ~0u) {
      EXPECT_EQ(Parents[V], NoVertex);
    } else if (V != 0) {
      ASSERT_NE(Parents[V], NoVertex);
      EXPECT_EQ(Ref[Parents[V]] + 1, Ref[V]) << "vertex " << V;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BfsParamTest,
                         ::testing::Combine(::testing::Values(6, 8, 10),
                                            ::testing::Values(1, 2, 3)));

TEST(Bfs, PathGraphHasLinearDistances) {
  const VertexId N = 500;
  Graph G = Graph::fromEdges(N, pathGraph(N));
  TreeGraphView View(G);
  auto Dist = bfsDistances(View, 0);
  for (VertexId V = 0; V < N; ++V)
    ASSERT_EQ(Dist[V], V);
}

TEST(Bfs, DisconnectedComponentUnreached) {
  Graph G = Graph::fromEdges(6, {{0, 1}, {1, 0}, {3, 4}, {4, 3}});
  TreeGraphView View(G);
  auto Dist = bfsDistances(View, 0);
  EXPECT_EQ(Dist[1], 1u);
  EXPECT_EQ(Dist[3], ~0u);
  EXPECT_EQ(Dist[4], ~0u);
  EXPECT_EQ(Dist[5], ~0u);
}

TEST(Bfs, FlatSnapshotMatchesTreeView) {
  TestGraph T = rmatTestGraph(9, 8, 5);
  FlatSnapshot FS(T.G);
  TreeGraphView TV(T.G);
  FlatGraphView FV(FS);
  EXPECT_EQ(bfsDistances(TV, 0), bfsDistances(FV, 0));
}

TEST(Bfs, NoDenseMatchesDefault) {
  TestGraph T = rmatTestGraph(9, 8, 6);
  TreeGraphView View(T.G);
  EdgeMapOptions NoDense;
  NoDense.NoDense = true;
  EXPECT_EQ(bfsDistances(View, 0), bfsDistances(View, 0, NoDense));
}

//===----------------------------------------------------------------------===
// BC.
//===----------------------------------------------------------------------===

class BcParamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BcParamTest, MatchesBrandesOnRmat) {
  TestGraph T = rmatTestGraph(8, 6, GetParam());
  TreeGraphView View(T.G);
  auto Got = bc(View, 0);
  auto Ref = refBrandes(T.A, 0);
  ASSERT_EQ(Got.size(), Ref.size());
  for (size_t I = 0; I < Got.size(); ++I)
    ASSERT_NEAR(Got[I], Ref[I], 1e-6 * (1.0 + std::fabs(Ref[I])))
        << "vertex " << I;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BcParamTest, ::testing::Values(1, 2, 3, 4));

TEST(Bc, StarCenterDependency) {
  const VertexId N = 50;
  Graph G = Graph::fromEdges(N, starGraph(N));
  TreeGraphView View(G);
  auto Scores = bc(View, 1); // a leaf
  // All shortest paths from leaf 1 to other leaves pass through center 0:
  // dependency of 0 is (N-2) (one per other leaf).
  EXPECT_NEAR(Scores[0], double(N - 2), 1e-9);
  EXPECT_NEAR(Scores[2], 0.0, 1e-9);
}

TEST(Bc, FlatViewMatchesTreeView) {
  TestGraph T = rmatTestGraph(8, 8, 7);
  FlatSnapshot FS(T.G);
  TreeGraphView TV(T.G);
  FlatGraphView FV(FS);
  auto A = bc(TV, 3), B = bc(FV, 3);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(A[I], B[I], 1e-9);
}

//===----------------------------------------------------------------------===
// MIS.
//===----------------------------------------------------------------------===

class MisParamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MisParamTest, ValidOnRmat) {
  TestGraph T = rmatTestGraph(9, 6, GetParam());
  TreeGraphView View(T.G);
  auto In = mis(View, GetParam());
  EXPECT_TRUE(isValidMis(T.A, In));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisParamTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Mis, CliqueHasExactlyOne) {
  Graph G = Graph::fromEdges(20, cliqueGraph(20));
  TreeGraphView View(G);
  auto In = mis(View);
  int Count = 0;
  for (uint8_t B : In)
    Count += B;
  EXPECT_EQ(Count, 1);
}

TEST(Mis, EdgelessGraphAllIn) {
  Graph G = Graph::fromEdges(10, {});
  TreeGraphView View(G);
  auto In = mis(View);
  for (uint8_t B : In)
    EXPECT_EQ(B, 1);
}

//===----------------------------------------------------------------------===
// 2-hop and Local-Cluster (local algorithms).
//===----------------------------------------------------------------------===

TEST(TwoHop, MatchesReference) {
  TestGraph T = rmatTestGraph(8, 6, 11);
  TreeGraphView View(T.G);
  for (VertexId Src = 0; Src < 40; Src += 7) {
    std::set<VertexId> Ref = {Src};
    for (VertexId U : T.A[Src]) {
      Ref.insert(U);
      for (VertexId W : T.A[U])
        Ref.insert(W);
    }
    EXPECT_EQ(twoHop(View, Src),
              std::vector<VertexId>(Ref.begin(), Ref.end()))
        << "source " << Src;
  }
}

TEST(TwoHop, IsolatedVertex) {
  Graph G = Graph::fromEdges(5, {{1, 2}, {2, 1}});
  TreeGraphView View(G);
  EXPECT_EQ(twoHop(View, 0), (std::vector<VertexId>{0}));
}

TEST(LocalCluster, FindsPlantedCommunity) {
  // Two 30-cliques joined by a single edge: the sweep from inside one
  // clique should cut at (or very near) the bridge.
  std::vector<EdgePair> E;
  auto AddClique = [&](VertexId Base, VertexId Size) {
    for (VertexId I = 0; I < Size; ++I)
      for (VertexId J = 0; J < Size; ++J)
        if (I != J)
          E.push_back({Base + I, Base + J});
  };
  AddClique(0, 30);
  AddClique(30, 30);
  E.push_back({0, 30});
  E.push_back({30, 0});
  Graph G = Graph::fromEdges(60, E);
  TreeGraphView View(G);
  auto R = localCluster(View, 5, 1e-7, 15);
  EXPECT_LT(R.Conductance, 0.05);
  // The cluster should be (nearly) the first clique.
  size_t InFirst = 0;
  for (VertexId V : R.Cluster)
    InFirst += V < 30 ? 1 : 0;
  EXPECT_GE(InFirst * 10, R.Cluster.size() * 9);
}

TEST(LocalCluster, SeedAlwaysCovered) {
  TestGraph T = rmatTestGraph(8, 6, 13);
  TreeGraphView View(T.G);
  auto R = localCluster(View, 1);
  EXPECT_FALSE(R.Cluster.empty());
}

//===----------------------------------------------------------------------===
// Extensions: CC, PageRank, k-core.
//===----------------------------------------------------------------------===

TEST(ConnectedComponents, MatchesReferenceLabels) {
  // Three components: a path, a clique, an isolated vertex.
  std::vector<EdgePair> E = pathGraph(5); // 0..4
  auto C = cliqueGraph(4);                // relabel to 10..13
  for (auto &P : C)
    E.push_back({P.first + 10, P.second + 10});
  Graph G = Graph::fromEdges(20, E);
  TreeGraphView View(G);
  auto Labels = connectedComponents(View);
  for (VertexId V = 0; V <= 4; ++V)
    EXPECT_EQ(Labels[V], 0u);
  for (VertexId V = 10; V <= 13; ++V)
    EXPECT_EQ(Labels[V], 10u);
  EXPECT_EQ(Labels[7], 7u);
}

TEST(ConnectedComponents, RmatSingleGiantComponent) {
  TestGraph T = rmatTestGraph(9, 8, 17);
  TreeGraphView View(T.G);
  auto Labels = connectedComponents(View);
  auto Dist = refBfs(T.A, 0);
  for (VertexId V = 0; V < T.N; ++V) {
    if (Dist[V] != ~0u) {
      ASSERT_EQ(Labels[V], Labels[0]);
    }
  }
}

TEST(PageRank, SumsToOneOnConnected) {
  Graph G = Graph::fromEdges(64, cliqueGraph(64));
  TreeGraphView View(G);
  auto P = pageRank(View, 30);
  double Sum = 0.0;
  for (double X : P)
    Sum += X;
  EXPECT_NEAR(Sum, 1.0, 1e-6);
  // Symmetric graph: uniform scores.
  for (double X : P)
    EXPECT_NEAR(X, 1.0 / 64, 1e-9);
}

TEST(PageRank, StarConcentratesOnCenter) {
  Graph G = Graph::fromEdges(50, starGraph(50));
  TreeGraphView View(G);
  auto P = pageRank(View, 40);
  for (VertexId V = 1; V < 50; ++V)
    EXPECT_GT(P[0], P[V]);
}

TEST(KCore, CliquePlusPath) {
  // A 5-clique (core 4) with a path tail (core 1).
  std::vector<EdgePair> E = cliqueGraph(5);
  E.push_back({4, 5});
  E.push_back({5, 4});
  E.push_back({5, 6});
  E.push_back({6, 5});
  Graph G = Graph::fromEdges(7, E);
  TreeGraphView View(G);
  auto Core = kCore(View);
  for (VertexId V = 0; V < 5; ++V)
    EXPECT_EQ(Core[V], 4u) << "clique vertex " << V;
  EXPECT_EQ(Core[5], 1u);
  EXPECT_EQ(Core[6], 1u);
}

TEST(KCore, DegenerateGraphs) {
  Graph Empty = Graph::fromEdges(4, {});
  TreeGraphView EV(Empty);
  auto Core = kCore(EV);
  for (uint32_t C : Core)
    EXPECT_EQ(C, 0u);
}

//===----------------------------------------------------------------------===
// Triangle counting.
//===----------------------------------------------------------------------===

TEST(Triangles, StructuredGraphs) {
  // Clique K6: C(6,3) = 20 triangles.
  Graph K = Graph::fromEdges(6, cliqueGraph(6));
  TreeGraphView KV(K);
  EXPECT_EQ(triangleCount(KV), 20u);
  // Path: none.
  Graph P = Graph::fromEdges(10, pathGraph(10));
  TreeGraphView PV(P);
  EXPECT_EQ(triangleCount(PV), 0u);
  // Grid: none (no odd cycles).
  Graph Gr = Graph::fromEdges(12, gridGraph(3, 4));
  TreeGraphView GV(Gr);
  EXPECT_EQ(triangleCount(GV), 0u);
}

TEST(Triangles, MatchesBruteForceOnRmat) {
  for (uint64_t Seed : {5, 6}) {
    auto E = rmatGraphEdges(7, 6, Seed);
    const VertexId N = 1 << 7;
    Graph G = Graph::fromEdges(N, E);
    TreeGraphView V(G);
    EXPECT_EQ(triangleCount(V), bruteTriangles(N, E)) << "seed " << Seed;
  }
}

TEST(Triangles, StableUnderUpdates) {
  // Inserting then deleting a batch leaves the triangle count unchanged.
  auto E = rmatGraphEdges(7, 4, 9);
  const VertexId N = 1 << 7;
  Graph G = Graph::fromEdges(N, E);
  TreeGraphView V0(G);
  uint64_t Before = triangleCount(V0);
  auto Batch = dedupEdges(symmetrize(uniformRandomEdges(N, 200, 10)));
  Graph G2 = G.insertEdges(Batch).deleteEdges(Batch);
  // Deleting can remove edges that were already in E; rebuild check:
  // compare against a fresh graph with the same logical edge set.
  std::set<EdgePair> Ref(E.begin(), E.end());
  for (const EdgePair &P : Batch)
    Ref.erase(P);
  Graph Fresh =
      Graph::fromEdges(N, std::vector<EdgePair>(Ref.begin(), Ref.end()));
  TreeGraphView V2(G2), VF(Fresh);
  EXPECT_EQ(triangleCount(V2), triangleCount(VF));
  EXPECT_EQ(triangleCount(V0), Before) << "old snapshot unchanged";
}

//===----------------------------------------------------------------------===
// Algorithms over freshly-updated snapshots (streaming correctness).
//===----------------------------------------------------------------------===

TEST(StreamingAlgorithms, BfsAfterBatchUpdatesMatchesRebuild) {
  const VertexId N = 256;
  auto Initial = rmatGraphEdges(8, 4, 21);
  Graph G = Graph::fromEdges(N, Initial);
  std::vector<EdgePair> All = Initial;
  for (int Round = 0; Round < 4; ++Round) {
    auto Raw = uniformRandomEdges(N, 300, 500 + Round);
    auto Batch = dedupEdges(symmetrize(Raw));
    G = G.insertEdges(Batch);
    All.insert(All.end(), Batch.begin(), Batch.end());
  }
  Graph Fresh = Graph::fromEdges(N, All);
  TreeGraphView VG(G), VF(Fresh);
  EXPECT_EQ(bfsDistances(VG, 0), bfsDistances(VF, 0));
  EXPECT_EQ(G.numEdges(), Fresh.numEdges());
}
