//===- tests/graph_test.cpp - Aspen graph snapshot tests ------------------===//
//
// The tree-of-trees graph (Section 5): construction, batch updates
// cross-checked against a reference adjacency model, snapshot isolation,
// flat snapshots, and memory/leak accounting - parameterized over the
// three edge-set representations of Table 2.
//
//===----------------------------------------------------------------------===//

#include "graph/graph.h"
#include "gen/generators.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace aspen;

namespace {

using RefModel = std::map<VertexId, std::set<VertexId>>;

RefModel refFromEdges(const std::vector<EdgePair> &Edges) {
  RefModel M;
  for (const EdgePair &E : Edges)
    M[E.first].insert(E.second);
  return M;
}

template <class G> bool graphMatchesRef(const G &Graph, const RefModel &M) {
  for (const auto &[V, Nbrs] : M) {
    auto Got = Graph.findVertex(V).toVector();
    if (Got != std::vector<VertexId>(Nbrs.begin(), Nbrs.end()))
      return false;
  }
  return true;
}

uint64_t refEdgeCount(const RefModel &M) {
  uint64_t C = 0;
  for (const auto &KV : M)
    C += KV.second.size();
  return C;
}

std::vector<EdgePair> randomEdgeBatch(size_t K, VertexId N, uint64_t Seed) {
  return tabulate(K, [&](size_t I) {
    uint64_t H = hashAt(Seed, I);
    return EdgePair{VertexId(H % N), VertexId((H >> 32) % N)};
  });
}

template <class GraphT> class GraphRepTest : public ::testing::Test {};
using GraphReps = ::testing::Types<Graph, GraphNoDE, GraphUncompressed>;

} // namespace

TYPED_TEST_SUITE(GraphRepTest, GraphReps);

TYPED_TEST(GraphRepTest, EmptyGraph) {
  TypeParam G = TypeParam::fromEdges(0, {});
  EXPECT_EQ(G.numVertices(), 0u);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_EQ(G.vertexUniverse(), 0u);
}

TYPED_TEST(GraphRepTest, VerticesWithoutEdges) {
  TypeParam G = TypeParam::fromEdges(100, {});
  EXPECT_EQ(G.numVertices(), 100u);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_TRUE(G.hasVertex(0));
  EXPECT_TRUE(G.hasVertex(99));
  EXPECT_FALSE(G.hasVertex(100));
  EXPECT_EQ(G.degree(5), 0u);
}

TYPED_TEST(GraphRepTest, BuildMatchesReference) {
  auto Edges = rmatGraphEdges(10, 4, 7);
  TypeParam G = TypeParam::fromEdges(1 << 10, Edges);
  RefModel M = refFromEdges(Edges);
  EXPECT_EQ(G.numEdges(), refEdgeCount(M));
  EXPECT_TRUE(graphMatchesRef(G, M));
  EXPECT_TRUE(G.checkInvariants());
}

TYPED_TEST(GraphRepTest, DegreesMatchReference) {
  auto Edges = rmatGraphEdges(9, 8, 11);
  TypeParam G = TypeParam::fromEdges(1 << 9, Edges);
  RefModel M = refFromEdges(Edges);
  for (VertexId V = 0; V < (1 << 9); ++V) {
    auto It = M.find(V);
    uint64_t Expect = It == M.end() ? 0 : It->second.size();
    ASSERT_EQ(G.degree(V), Expect) << "vertex " << V;
  }
}

TYPED_TEST(GraphRepTest, InsertEdgesBatch) {
  const VertexId N = 512;
  TypeParam G = TypeParam::fromEdges(N, {});
  RefModel M;
  for (int Round = 0; Round < 8; ++Round) {
    auto Batch = randomEdgeBatch(500 + Round * 100, N, 100 + Round);
    G = G.insertEdges(Batch);
    for (const EdgePair &E : Batch)
      M[E.first].insert(E.second);
    ASSERT_EQ(G.numEdges(), refEdgeCount(M)) << "round " << Round;
    ASSERT_TRUE(graphMatchesRef(G, M)) << "round " << Round;
    ASSERT_TRUE(G.checkInvariants()) << "round " << Round;
  }
}

TYPED_TEST(GraphRepTest, DeleteEdgesBatch) {
  const VertexId N = 512;
  auto Edges = randomEdgeBatch(4000, N, 33);
  TypeParam G = TypeParam::fromEdges(N, Edges);
  RefModel M = refFromEdges(Edges);
  for (int Round = 0; Round < 6; ++Round) {
    // Delete a mix of present and absent edges.
    std::vector<EdgePair> Batch;
    for (size_t I = Round; I < Edges.size(); I += 5)
      Batch.push_back(Edges[I]);
    auto Absent = randomEdgeBatch(200, N, 5000 + Round);
    Batch.insert(Batch.end(), Absent.begin(), Absent.end());
    G = G.deleteEdges(Batch);
    for (const EdgePair &E : Batch) {
      auto It = M.find(E.first);
      if (It != M.end())
        It->second.erase(E.second);
    }
    ASSERT_EQ(G.numEdges(), refEdgeCount(M)) << "round " << Round;
    ASSERT_TRUE(graphMatchesRef(G, M)) << "round " << Round;
    ASSERT_TRUE(G.checkInvariants()) << "round " << Round;
  }
  // Vertices survive even with empty edge sets.
  EXPECT_EQ(G.numVertices(), N);
}

TYPED_TEST(GraphRepTest, MixedInsertDeleteMatchesReference) {
  const VertexId N = 300;
  TypeParam G = TypeParam::fromEdges(N, {});
  RefModel M;
  for (int Round = 0; Round < 12; ++Round) {
    auto Batch = randomEdgeBatch(400, N, 700 + Round);
    if (Round % 3 == 2) {
      G = G.deleteEdges(Batch);
      for (const EdgePair &E : Batch) {
        auto It = M.find(E.first);
        if (It != M.end())
          It->second.erase(E.second);
      }
    } else {
      G = G.insertEdges(Batch);
      for (const EdgePair &E : Batch)
        M[E.first].insert(E.second);
    }
    ASSERT_EQ(G.numEdges(), refEdgeCount(M)) << "round " << Round;
    ASSERT_TRUE(graphMatchesRef(G, M)) << "round " << Round;
  }
}

TYPED_TEST(GraphRepTest, SnapshotIsolation) {
  const VertexId N = 256;
  auto Edges = randomEdgeBatch(2000, N, 44);
  TypeParam V1 = TypeParam::fromEdges(N, Edges);
  RefModel M1 = refFromEdges(Edges);
  uint64_t EdgesBefore = V1.numEdges();

  TypeParam Snapshot = V1; // O(1) acquire
  auto Batch = randomEdgeBatch(1000, N, 45);
  TypeParam V2 = V1.insertEdges(Batch);
  TypeParam V3 = V2.deleteEdges(Edges);

  // The old snapshot is untouched by updates on newer versions.
  EXPECT_EQ(Snapshot.numEdges(), EdgesBefore);
  EXPECT_TRUE(graphMatchesRef(Snapshot, M1));
  EXPECT_TRUE(V3.checkInvariants());
}

TYPED_TEST(GraphRepTest, InsertDeleteVertices) {
  TypeParam G = TypeParam::fromEdges(10, {});
  G = G.insertVertices({20, 25, 30});
  EXPECT_EQ(G.numVertices(), 13u);
  EXPECT_TRUE(G.hasVertex(25));
  EXPECT_EQ(G.vertexUniverse(), 31u);
  // Inserting existing vertices keeps their edges.
  G = G.insertEdges({{20, 25}, {20, 30}});
  G = G.insertVertices({20});
  EXPECT_EQ(G.degree(20), 2u);
  G = G.deleteVertices({20, 7});
  EXPECT_EQ(G.numVertices(), 11u);
  EXPECT_FALSE(G.hasVertex(20));
  EXPECT_FALSE(G.hasVertex(7));
}

TYPED_TEST(GraphRepTest, RemoveIsolatedVertices) {
  TypeParam G = TypeParam::fromEdges(10, {{1, 2}, {2, 1}, {3, 1}});
  G = G.removeIsolatedVertices();
  EXPECT_EQ(G.numVertices(), 3u);
  EXPECT_TRUE(G.hasVertex(1));
  EXPECT_TRUE(G.hasVertex(2));
  EXPECT_TRUE(G.hasVertex(3));
  EXPECT_FALSE(G.hasVertex(0));
}

TYPED_TEST(GraphRepTest, LeakFreeAcrossUpdates) {
  int64_t BaseBytes = liveCountedBytes();
  int64_t BaseNodes = totalPoolLiveBytes();
  {
    const VertexId N = 256;
    TypeParam G = TypeParam::fromEdges(N, randomEdgeBatch(3000, N, 55));
    for (int Round = 0; Round < 6; ++Round) {
      auto Batch = randomEdgeBatch(800, N, 900 + Round);
      TypeParam Snapshot = G;
      G = G.insertEdges(Batch);
      G = G.deleteEdges(Batch);
    }
  }
  EXPECT_EQ(liveCountedBytes(), BaseBytes) << "leaked chunk bytes";
  EXPECT_EQ(totalPoolLiveBytes(), BaseNodes) << "leaked tree nodes";
}

namespace {

template <class GraphT> class BatchMergeTest : public ::testing::Test {};
using MergeReps = ::testing::Types<Graph, HybridGraph>;

/// In-order (vertex, neighbours) of every vertex with an edge.
template <class G>
std::vector<std::pair<VertexId, std::vector<VertexId>>>
nonEmptyContents(const G &Gr) {
  std::vector<std::pair<VertexId, std::vector<VertexId>>> Out;
  G::VT::forEachSeq(Gr.root(), [&](VertexId V, const auto &S) {
    if (!S.empty())
      Out.push_back({V, S.toVector()});
  });
  return Out;
}

} // namespace

TYPED_TEST_SUITE(BatchMergeTest, MergeReps);

// The path-copying batch merge against a from-scratch build of the same
// edge set, over small and bulk batches, deletes of present and absent
// edges, and sources past the built universe (new vertices, which go
// through multiInsert; deletes from them are ignored).
TYPED_TEST(BatchMergeTest, MatchesFromEdgesRebuild) {
  const VertexId N = 400;
  auto Init = randomEdgeBatch(3000, N, 31);
  TypeParam G = TypeParam::fromEdges(N, Init);
  std::set<EdgePair> Edges(Init.begin(), Init.end());
  for (int Round = 0; Round < 18; ++Round) {
    size_t K = Round % 4 == 0 ? 2500 : 12;
    auto Batch = randomEdgeBatch(K, N + 60, 800 + Round);
    if (Round % 3 == 2) {
      // Half of the current edges in a stride, plus the random ones.
      size_t I = 0;
      for (const EdgePair &E : Edges)
        if (I++ % 2 == size_t(Round) % 2 && Batch.size() < 2 * K)
          Batch.push_back(E);
      G = G.deleteEdges(Batch);
      for (const EdgePair &E : Batch)
        Edges.erase(E);
    } else {
      G = G.insertEdges(Batch);
      Edges.insert(Batch.begin(), Batch.end());
    }
    TypeParam Rebuilt = TypeParam::fromEdges(
        N, std::vector<EdgePair>(Edges.begin(), Edges.end()));
    ASSERT_TRUE(G.checkInvariants()) << "round " << Round;
    ASSERT_EQ(G.numEdges(), Edges.size()) << "round " << Round;
    ASSERT_EQ(nonEmptyContents(G), nonEmptyContents(Rebuilt))
        << "round " << Round;
    for (VertexId V = 0; V < N; ++V)
      ASSERT_TRUE(G.hasVertex(V)) << "vertex " << V;
  }
}

TEST(GraphMemory, CompressedSmallerThanUncompressed) {
  // Table 2's ordering: DE < No-DE < uncompressed trees.
  auto Edges = rmatGraphEdges(12, 8, 66);
  Graph GD = Graph::fromEdges(1 << 12, Edges);
  GraphNoDE GN = GraphNoDE::fromEdges(1 << 12, Edges);
  GraphUncompressed GU = GraphUncompressed::fromEdges(1 << 12, Edges);
  EXPECT_LT(GD.memoryBytes(), GN.memoryBytes());
  EXPECT_LT(GN.memoryBytes(), GU.memoryBytes());
}

TEST(FlatSnapshotTest, MatchesTreeAccess) {
  auto Edges = rmatGraphEdges(10, 6, 77);
  Graph G = Graph::fromEdges(1 << 10, Edges);
  FlatSnapshot FS(G);
  EXPECT_EQ(FS.numVertices(), G.vertexUniverse());
  EXPECT_EQ(FS.numEdges(), G.numEdges());
  for (VertexId V = 0; V < FS.numVertices(); V += 3) {
    ASSERT_EQ(FS.degree(V), G.degree(V));
    ASSERT_EQ(FS.edges(V).toVector(), G.findVertex(V).toVector());
  }
}

TEST(FlatSnapshotTest, SurvivesSourceGraphDestruction) {
  auto Edges = rmatGraphEdges(9, 4, 88);
  FlatSnapshot FS;
  RefModel M = refFromEdges(Edges);
  {
    Graph G = Graph::fromEdges(1 << 9, Edges);
    FS = FlatSnapshot(G);
  } // G destroyed; FS's per-slot references keep trees alive.
  for (const auto &[V, Nbrs] : M)
    ASSERT_EQ(FS.edges(V).toVector(),
              std::vector<VertexId>(Nbrs.begin(), Nbrs.end()));
}

TEST(GraphViews, TreeAndFlatViewsAgree) {
  auto Edges = rmatGraphEdges(9, 6, 99);
  Graph G = Graph::fromEdges(1 << 9, Edges);
  FlatSnapshot FS(G);
  TreeGraphView TV(G);
  FlatGraphView FV(FS);
  EXPECT_EQ(TV.numVertices(), FV.numVertices());
  EXPECT_EQ(TV.numEdges(), FV.numEdges());
  for (VertexId V = 0; V < TV.numVertices(); V += 5) {
    ASSERT_EQ(TV.degree(V), FV.degree(V));
    std::vector<VertexId> A, B;
    TV.mapNeighbors(V, [&](VertexId U) { A.push_back(U); });
    FV.mapNeighbors(V, [&](VertexId U) { B.push_back(U); });
    ASSERT_EQ(A, B);
  }
}

TEST(GraphViews, IndexedMapHasCorrectIndices) {
  auto Edges = rmatGraphEdges(8, 8, 111);
  Graph G = Graph::fromEdges(1 << 8, Edges);
  TreeGraphView TV(G);
  for (VertexId V = 0; V < 1 << 8; V += 7) {
    std::vector<VertexId> Slots(G.degree(V), NoVertex);
    TV.mapNeighborsIndexed(V, [&](size_t I, VertexId U) {
      ASSERT_LT(I, Slots.size());
      Slots[I] = U;
    });
    ASSERT_EQ(Slots, G.findVertex(V).toVector());
  }
}

TEST(GraphBuild, DuplicateEdgesInBatchCombine) {
  Graph G = Graph::fromEdges(4, {{1, 2}, {1, 2}, {1, 3}, {1, 2}});
  EXPECT_EQ(G.degree(1), 2u);
  G = G.insertEdges({{2, 3}, {2, 3}, {2, 3}});
  EXPECT_EQ(G.degree(2), 1u);
  EXPECT_EQ(G.numEdges(), 3u);
}

TEST(GraphBuild, AutoCreatesSourcesOnInsert) {
  Graph G = Graph::fromEdges(4, {});
  G = G.insertEdges({{10, 1}});
  EXPECT_TRUE(G.hasVertex(10));
  EXPECT_EQ(G.degree(10), 1u);
  // Deleting edges of an unknown vertex is a no-op (no vertex creation).
  G = G.deleteEdges({{77, 1}});
  EXPECT_FALSE(G.hasVertex(77));
}

TYPED_TEST(GraphRepTest, NeighborCursorMatchesTraversal) {
  // The cursor surface (edgesView / neighborCursor) must agree with the
  // recursive traversals on every vertex, through both graph views.
  using GraphT = TypeParam;
  auto Edges = randomEdgeBatch(4000, 200, 77);
  RefModel M = refFromEdges(Edges);
  GraphT G = GraphT::fromEdges(200, Edges);
  TreeGraphView<typename GraphT::VertexEntry::ValT> TV(G);
  for (VertexId V = 0; V < 200; ++V) {
    std::vector<VertexId> Want;
    TV.mapNeighbors(V, [&](VertexId U) { Want.push_back(U); });
    std::vector<VertexId> Got;
    for (auto Cu = TV.neighborCursor(V); !Cu.done(); Cu.advance())
      Got.push_back(Cu.value());
    ASSERT_EQ(Got, Want) << "vertex " << V;
    // The snapshot-level cursor shortcut agrees with the view's.
    std::vector<VertexId> Direct;
    for (auto Cu = G.neighborCursor(V); !Cu.done(); Cu.advance())
      Direct.push_back(Cu.value());
    ASSERT_EQ(Direct, Want) << "vertex " << V;
    const auto &Ref = M.count(V) ? M[V] : std::set<VertexId>{};
    ASSERT_EQ(Got, std::vector<VertexId>(Ref.begin(), Ref.end()));
  }
}

TEST(FlatSnapshotCursor, MatchesTreeCursor) {
  auto Edges = randomEdgeBatch(5000, 128, 78);
  Graph G = Graph::fromEdges(128, Edges);
  FlatSnapshot FS(G);
  FlatGraphView<CTreeSet<VertexId, DeltaByteCodec>> FV(FS);
  TreeGraphView<CTreeSet<VertexId, DeltaByteCodec>> TV(G);
  for (VertexId V = 0; V < 128; ++V) {
    std::vector<VertexId> A, B;
    for (auto Cu = FV.neighborCursor(V); !Cu.done(); Cu.advance())
      A.push_back(Cu.value());
    for (auto Cu = TV.neighborCursor(V); !Cu.done(); Cu.advance())
      B.push_back(Cu.value());
    ASSERT_EQ(A, B) << "vertex " << V;
  }
}
