//===- tests/hybrid_set_test.cpp - Degree-adaptive hybrid edge sets -------===//
//
// The hybrid representation (graph/hybrid_set.h): the inline/chunked
// class boundary and migration across it, membership against std::set in
// both classes, the cost of an update to a high-degree vertex,
// differential equality of all ten algorithms on hybrid vs pure-chunked
// views, and threshold-crossing churn through the store at one shard and
// at four (including the flat refresh path).
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
#include "store/sharded_graph.h"
#include "util/hash.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

using namespace aspen;

namespace {

using HS = HybridEdgeSetT<uint32_t, DeltaByteCodec>;
using CS = CTreeSet<uint32_t, DeltaByteCodec>;

/// A small chunk size so modest test sets span many chunks.
HybridParams testParams() {
  HybridParams P;
  P.LogB = 4; // b = 16
  return P;
}

std::vector<uint32_t> sortedUnique(std::vector<uint32_t> V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
  return V;
}

std::vector<uint32_t> randomKeys(size_t N, uint64_t Seed, uint32_t Range) {
  std::vector<uint32_t> Out(N);
  for (size_t I = 0; I < N; ++I)
    Out[I] = uint32_t(hashAt(Seed, I) % Range);
  return Out;
}

std::vector<EdgePair> randomBatch(VertexId N, size_t K, uint64_t Seed) {
  return dedupEdges(symmetrize(uniformRandomEdges(N, K, Seed)));
}

/// Pin the canonical (sequential) schedule for bit-exactness assertions
/// on float-accumulating algorithms (see sharded_graph_test.cpp).
struct SequentialScope {
  SequentialScope() { setSequentialMode(true); }
  ~SequentialScope() { setSequentialMode(false); }
};

} // namespace

//===----------------------------------------------------------------------===
// Degree classes and membership.
//===----------------------------------------------------------------------===

TEST(HybridSet, ClassBoundaries) {
  HybridParams P = testParams();
  // Exactly HybridInlineCap elements: inline. One more: chunked.
  for (size_t N : {size_t(0), size_t(1), size_t(8), size_t(9), size_t(63),
                   size_t(64), size_t(200)}) {
    std::vector<uint32_t> E(N);
    for (size_t I = 0; I < N; ++I)
      E[I] = uint32_t(3 * I + 1);
    HS S = HS::buildSorted(E.data(), E.size(), P);
    ASSERT_EQ(S.size(), N);
    ASSERT_TRUE(S.checkInvariants(P)) << "N=" << N;
    HybridClass Expect = N <= HybridInlineCap ? HybridClass::Inline
                                              : HybridClass::Chunked;
    EXPECT_EQ(int(S.degreeClass()), int(Expect)) << "N=" << N;
    EXPECT_EQ(S.memoryBytes() == 0, Expect == HybridClass::Inline);
    EXPECT_EQ(S.toVector(), E);
  }
}

TEST(HybridSet, ContainsMatchesReferenceInEveryClass) {
  HybridParams P = testParams();
  for (size_t N : {size_t(5), size_t(40), size_t(500)}) {
    auto E = sortedUnique(randomKeys(N, 17 + N, uint32_t(N * 8)));
    HS S = HS::buildSorted(E.data(), E.size(), P);
    std::set<uint32_t> Ref(E.begin(), E.end());
    for (uint32_t X = 0; X < uint32_t(N * 8); ++X)
      ASSERT_EQ(S.contains(X), Ref.count(X) > 0)
          << "N=" << N << " X=" << X;
  }
}

TEST(HybridSet, CursorAndTraversalAgreeAcrossClasses) {
  HybridParams P = testParams();
  for (size_t N : {size_t(3), size_t(30), size_t(300)}) {
    auto E = sortedUnique(randomKeys(N, 29 + N, uint32_t(N * 16)));
    HS S = HS::buildSorted(E.data(), E.size(), P);
    std::vector<uint32_t> ByCursor;
    for (auto C = S.cursor(); !C.done(); C.advance())
      ByCursor.push_back(C.value());
    EXPECT_EQ(ByCursor, E);
    std::vector<uint32_t> ByIndexed(E.size(), ~0u);
    S.forEachIndexed([&](size_t I, uint32_t V) { ByIndexed[I] = V; });
    EXPECT_EQ(ByIndexed, E);
    size_t Stop = E.size() / 2 + 1;
    std::vector<uint32_t> Seen;
    S.iterCond([&](uint32_t V) {
      Seen.push_back(V);
      return Seen.size() < Stop;
    });
    EXPECT_EQ(Seen.size(), std::min(Stop, E.size()));
  }
}

TEST(HybridSet, ViewOutlivesInlineSource) {
  // Inline views copy elements by value: reassigning the source set must
  // not invalidate a previously taken view (the flat-snapshot pages rely
  // on this under the page-sharing refresh).
  HybridParams P = testParams();
  std::vector<uint32_t> E = {2, 4, 6, 8};
  HS S = HS::buildSorted(E.data(), E.size(), P);
  HS::View V = S.view();
  S = HS(); // drop the source
  EXPECT_EQ(V.size(), 4u);
  EXPECT_TRUE(V.contains(6));
  EXPECT_FALSE(V.contains(5));
  EXPECT_EQ(V.toVector(), E);
}

//===----------------------------------------------------------------------===
// Class migration through the set algebra, with leak accounting.
//===----------------------------------------------------------------------===

TEST(HybridSet, ChurnAcrossAllThresholds) {
  HybridParams P = testParams();
  int64_t BaseBytes = liveCountedBytes();
  int64_t BaseNodes = NodePool<HS::Node>::liveCount();
  {
    HS S;
    std::set<uint32_t> Ref;
    auto CheckAll = [&](int Round) {
      ASSERT_EQ(S.size(), Ref.size()) << "round " << Round;
      ASSERT_TRUE(S.checkInvariants(P)) << "round " << Round;
      ASSERT_EQ(S.toVector(),
                std::vector<uint32_t>(Ref.begin(), Ref.end()))
          << "round " << Round;
    };
    for (int Round = 0; Round < 30; ++Round) {
      size_t K = 1 + size_t(hashAt(5, Round) % 40);
      auto Batch = randomKeys(K, 100 + Round, 600);
      if (Round % 4 == 3) {
        S = S.multiDelete(Batch, P);
        for (uint32_t V : Batch)
          Ref.erase(V);
      } else {
        S = S.multiInsert(Batch, P);
        Ref.insert(Batch.begin(), Batch.end());
      }
      CheckAll(Round);
    }
    // Force the full arc: grow to many chunks, then shrink to inline,
    // then to empty.
    std::vector<uint32_t> Big(300);
    for (size_t I = 0; I < Big.size(); ++I)
      Big[I] = uint32_t(1000 + I);
    S = S.multiInsert(Big, P);
    Ref.insert(Big.begin(), Big.end());
    EXPECT_EQ(int(S.degreeClass()), int(HybridClass::Chunked));
    CheckAll(100);

    std::vector<uint32_t> All(Ref.begin(), Ref.end());
    std::vector<uint32_t> Keep(All.begin(), All.begin() + 5);
    std::vector<uint32_t> Del(All.begin() + 5, All.end());
    S = S.multiDelete(Del, P);
    for (uint32_t V : Del)
      Ref.erase(V);
    EXPECT_EQ(int(S.degreeClass()), int(HybridClass::Inline));
    CheckAll(101);

    S = S.multiDelete(Keep, P);
    EXPECT_TRUE(S.empty());
  }
  EXPECT_EQ(liveCountedBytes(), BaseBytes) << "leaked chunks";
  EXPECT_EQ(NodePool<HS::Node>::liveCount(), BaseNodes)
      << "leaked tree nodes";
}

TEST(HybridSet, SetAlgebraMatchesReference) {
  HybridParams P = testParams();
  // Mixed classes on both sides: inline x chunked, chunked x chunked, ...
  const size_t Sizes[] = {4, 30, 120};
  for (size_t NA : Sizes) {
    for (size_t NB : Sizes) {
      auto A = sortedUnique(randomKeys(NA, NA * 31, 400));
      auto B = sortedUnique(randomKeys(NB, NB * 37 + 1, 400));
      HS TA = HS::buildSorted(A.data(), A.size(), P);
      HS TB = HS::buildSorted(B.data(), B.size(), P);

      std::vector<uint32_t> RefU, RefD, RefI;
      std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                     std::back_inserter(RefU));
      std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                          std::back_inserter(RefD));
      std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                            std::back_inserter(RefI));

      HS U = HS::setUnion(TA, TB);
      HS D = HS::setDifference(TA, TB);
      HS I = HS::setIntersect(TA, TB);
      ASSERT_TRUE(U.checkInvariants(P)) << NA << "x" << NB;
      ASSERT_TRUE(D.checkInvariants(P)) << NA << "x" << NB;
      ASSERT_TRUE(I.checkInvariants(P)) << NA << "x" << NB;
      EXPECT_EQ(U.toVector(), RefU) << NA << "x" << NB;
      EXPECT_EQ(D.toVector(), RefD) << NA << "x" << NB;
      EXPECT_EQ(I.toVector(), RefI) << NA << "x" << NB;
      // Inputs survive (value semantics).
      EXPECT_EQ(TA.toVector(), A);
      EXPECT_EQ(TB.toVector(), B);
    }
  }
}

//===----------------------------------------------------------------------===
// Graph-level: the cost of a hub update, and the containsEdge probe
// surface.
//===----------------------------------------------------------------------===

namespace {

HybridGraph hybridGraph(VertexId N, const std::vector<EdgePair> &Edges,
                        HybridParams P) {
  return HybridGraph::fromEdges(N, Edges, P);
}

} // namespace

// A flat-snapshot slot (key, degree, view) fills one cache line.
static_assert(sizeof(VertexSlot<HybridEdgeSet>) == 64,
              "a hybrid vertex slot must stay one cache line");

TEST(HybridGraph, HubUpdateCostIndependentOfDegree) {
  // One hub grows to high degree; a 20-edge insert into it must allocate
  // only the chunks on its paths, not anything sized by the degree. The
  // old snapshot stays pinned, so every byte the insert allocates stays
  // live and shows in liveCountedBytes().
  const VertexId N = 1 << 17, Hub = 0;
  for (VertexId Degree : {VertexId(2000), VertexId(55000)}) {
    std::vector<EdgePair> Edges;
    for (VertexId I = 1; I <= Degree; ++I)
      Edges.push_back({Hub, 2 * I});
    HybridGraph G = HybridGraph::fromEdges(N, Edges);
    ASSERT_EQ(G.degree(Hub), Degree);
    std::vector<EdgePair> Batch;
    for (VertexId I = 0; I < 20; ++I)
      Batch.push_back({Hub, 2 * (I * (Degree / 20)) + 1});
    int64_t Before = liveCountedBytes();
    HybridGraph G2 = G.insertEdges(Batch);
    int64_t Growth = liveCountedBytes() - Before;
    ASSERT_EQ(G2.degree(Hub), Degree + 20);
    EXPECT_LT(Growth, int64_t(16 << 10)) << "degree " << Degree;
    EXPECT_TRUE(G2.checkInvariants());
    EXPECT_EQ(G.degree(Hub), Degree);
  }
}

TEST(HybridGraph, ContainsEdgeProbeSurface) {
  HybridParams P = testParams();
  const VertexId N = 512;
  auto Edges = randomBatch(N, 6000, 11);
  HybridGraph G = hybridGraph(N, Edges, P);
  Graph GC = Graph::fromEdges(N, Edges);

  TreeGraphView<HybridEdgeSet> HV(G);
  FlatSnapshotT<HybridEdgeSet> FS(G);
  FlatGraphView<HybridEdgeSet> FV(FS);
  TreeGraphView<CS> CV(GC);

  for (VertexId U = 0; U < N; U += 3) {
    auto Adj = GC.findVertex(U).toVector();
    std::set<VertexId> Ref(Adj.begin(), Adj.end());
    for (VertexId X = 0; X < N; X += 7) {
      ASSERT_EQ(G.containsEdge(U, X), Ref.count(X) > 0)
          << U << "->" << X;
      ASSERT_EQ(HV.containsEdge(U, X), Ref.count(X) > 0);
      ASSERT_EQ(FV.containsEdge(U, X), Ref.count(X) > 0);
      ASSERT_EQ(CV.containsEdge(U, X), Ref.count(X) > 0);
    }
  }
}

TEST(HybridGraph, IsWithinTwoHopsMatchesMaterializedTwoHop) {
  HybridParams P = testParams();
  const VertexId N = 200;
  auto Edges = randomBatch(N, 900, 13);
  HybridGraph G = hybridGraph(N, Edges, P);
  Graph GC = Graph::fromEdges(N, Edges);
  TreeGraphView<HybridEdgeSet> HV(G);
  TreeGraphView<CS> CV(GC);
  for (VertexId Src : {VertexId(0), VertexId(7), VertexId(100)}) {
    auto Hops = twoHop(CV, Src);
    std::set<VertexId> Ref(Hops.begin(), Hops.end());
    for (VertexId T = 0; T < N; ++T) {
      ASSERT_EQ(isWithinTwoHops(HV, Src, T), Ref.count(T) > 0)
          << Src << "~" << T;
      ASSERT_EQ(isWithinTwoHops(CV, Src, T), Ref.count(T) > 0)
          << Src << "~" << T;
    }
  }
}

//===----------------------------------------------------------------------===
// Differential: all ten algorithms bit-identical on hybrid vs chunked.
//===----------------------------------------------------------------------===

namespace {

/// Both views over the same logical graph: hybrid (inline and chunked
/// vertices under the test chunk size) and the default pure-chunked
/// representation.
struct DiffPair {
  Graph Chunked;
  HybridGraph Hybrid;
  DiffPair(VertexId N, const std::vector<EdgePair> &Edges)
      : Chunked(Graph::fromEdges(N, Edges)),
        Hybrid(HybridGraph::fromEdges(N, Edges, testParams())) {}
};

} // namespace

TEST(HybridDifferential, AllAlgorithmsMatchChunkedExactly) {
  const VertexId N = 1 << 10;
  DiffPair G(N, randomBatch(N, 8000, 21));
  TreeGraphView<CS> SV(G.Chunked);
  TreeGraphView<HybridEdgeSet> DV(G.Hybrid);

  SequentialScope Seq;
  EXPECT_EQ(bfs(SV, 3), bfs(DV, 3));
  EXPECT_EQ(bfsDistances(SV, 3), bfsDistances(DV, 3));
  EXPECT_EQ(connectedComponents(SV), connectedComponents(DV));
  EXPECT_EQ(kCore(SV), kCore(DV));
  EXPECT_EQ(pageRank(SV), pageRank(DV));
  EXPECT_EQ(triangleCount(SV), triangleCount(DV));
  EXPECT_EQ(mis(SV), mis(DV));
  EXPECT_EQ(bc(SV, 5), bc(DV, 5));
  EXPECT_EQ(twoHop(SV, 11), twoHop(DV, 11));
  {
    auto LS = localCluster(SV, 17);
    auto LD = localCluster(DV, 17);
    EXPECT_EQ(LS.Cluster, LD.Cluster);
    EXPECT_EQ(LS.Conductance, LD.Conductance);
  }
}

TEST(HybridDifferential, AllAlgorithmsMatchOnFlatViews) {
  const VertexId N = 1 << 10;
  DiffPair G(N, randomBatch(N, 8000, 22));
  FlatSnapshot FSC(G.Chunked);
  FlatGraphView<CS> SV(FSC);
  FlatSnapshotT<HybridEdgeSet> FSH(G.Hybrid);
  FlatGraphView<HybridEdgeSet> DV(FSH);

  SequentialScope Seq;
  EXPECT_EQ(bfs(SV, 3), bfs(DV, 3));
  EXPECT_EQ(bfsDistances(SV, 3), bfsDistances(DV, 3));
  EXPECT_EQ(connectedComponents(SV), connectedComponents(DV));
  EXPECT_EQ(kCore(SV), kCore(DV));
  EXPECT_EQ(pageRank(SV), pageRank(DV));
  EXPECT_EQ(triangleCount(SV), triangleCount(DV));
  EXPECT_EQ(mis(SV), mis(DV));
  EXPECT_EQ(bc(SV, 5), bc(DV, 5));
  EXPECT_EQ(twoHop(SV, 11), twoHop(DV, 11));
  {
    auto LS = localCluster(SV, 17);
    auto LD = localCluster(DV, 17);
    EXPECT_EQ(LS.Cluster, LD.Cluster);
    EXPECT_EQ(LS.Conductance, LD.Conductance);
  }
}

TEST(HybridDifferential, IntegerAlgorithmsMatchUnderParallelism) {
  const VertexId N = 1 << 10;
  DiffPair G(N, randomBatch(N, 8000, 23));
  TreeGraphView<CS> SV(G.Chunked);
  TreeGraphView<HybridEdgeSet> DV(G.Hybrid);

  EXPECT_EQ(bfsDistances(SV, 3), bfsDistances(DV, 3));
  EXPECT_EQ(connectedComponents(SV), connectedComponents(DV));
  EXPECT_EQ(kCore(SV), kCore(DV));
  EXPECT_EQ(triangleCount(SV), triangleCount(DV));
  EXPECT_EQ(mis(SV), mis(DV));
  EXPECT_EQ(twoHop(SV, 11), twoHop(DV, 11));
}

//===----------------------------------------------------------------------===
// Threshold-crossing churn through the stores: one designated vertex is
// driven past degree 64 and back below HybridInlineCap while the store
// replays the
// same batches into a pure-chunked reference; every epoch must agree,
// including through acquireFlat()'s refresh path.
//===----------------------------------------------------------------------===

namespace {

/// Batches driving vertex \p Hub across the class boundary and back.
std::vector<std::pair<bool, std::vector<EdgePair>>>
churnSchedule(VertexId N, VertexId Hub) {
  std::vector<std::pair<bool, std::vector<EdgePair>>> Out;
  auto HubBatch = [&](VertexId Lo, VertexId Hi) {
    std::vector<EdgePair> B;
    for (VertexId V = Lo; V < Hi; ++V) {
      if (V == Hub)
        continue;
      B.push_back({Hub, V});
      B.push_back({V, Hub});
    }
    return B;
  };
  // Grow the hub past degree 64 (several chunks under testParams) in two
  // steps, with unrelated noise batches interleaved, then delete back
  // below HybridInlineCap, then a final regrow to chunked degree.
  Out.push_back({true, HubBatch(1, 40)});
  Out.push_back({true, randomBatch(N, 300, 91)});
  Out.push_back({true, HubBatch(40, 120)});
  Out.push_back({true, randomBatch(N, 300, 92)});
  Out.push_back({false, HubBatch(4, 120)});
  Out.push_back({false, randomBatch(N, 200, 92)});
  Out.push_back({true, HubBatch(150, 170)});
  return Out;
}

} // namespace

TEST(HybridStores, SingleShardChurnAcrossThresholds) {
  HybridParams P = testParams();
  const VertexId N = 256, Hub = 0;
  HybridShardedGraphStore Store(1, N, {}, P);
  Graph Ref = Graph::fromEdges(N, {});

  for (auto &[IsInsert, Batch] : churnSchedule(N, Hub)) {
    if (IsInsert) {
      Store.insertBatch(Batch);
      Ref = Ref.insertEdges(Batch);
    } else {
      Store.deleteBatch(Batch);
      Ref = Ref.deleteEdges(Batch);
    }
    auto V = Store.acquire();
    const HybridGraph &G = V.shard(0);
    ASSERT_TRUE(G.checkInvariants());
    ASSERT_EQ(G.numEdges(), Ref.numEdges());
    for (VertexId U = 0; U < N; ++U)
      ASSERT_EQ(G.findVertex(U).toVector(), Ref.findVertex(U).toVector())
          << "vertex " << U;
    // The hub's class follows its current degree.
    HybridEdgeSet HubSet = G.findVertex(Hub);
    EXPECT_EQ(int(HubSet.degreeClass()),
              int(HubSet.size() > HybridInlineCap ? HybridClass::Chunked
                                                  : HybridClass::Inline));
    // The flat path must agree epoch to epoch (refresh or rebuild).
    auto FE = Store.acquireFlat();
    ASSERT_EQ(FE->NumEdges, Ref.numEdges());
    FlatGraphView<HybridEdgeSet> FV(FE->Flats[0]);
    for (VertexId U = 0; U < N; ++U) {
      std::vector<VertexId> Adj;
      FV.mapNeighbors(U, [&](VertexId X) { Adj.push_back(X); });
      ASSERT_EQ(Adj, Ref.findVertex(U).toVector()) << "flat vertex " << U;
    }
  }
  // The incremental refresh path must actually have been exercised.
  EXPECT_GT(Store.flatStats().Refreshes, 0u);
}

TEST(HybridStores, ShardedChurnAcrossThresholds) {
  HybridParams P = testParams();
  const VertexId N = 256, Hub = 0;
  HybridShardedGraphStore Store(4, N, {}, P);
  EXPECT_EQ(Store.buildParams(), P);
  Graph Ref = Graph::fromEdges(N, {});

  for (auto &[IsInsert, Batch] : churnSchedule(N, Hub)) {
    if (IsInsert) {
      Store.insertBatch(Batch);
      Ref = Ref.insertEdges(Batch);
    } else {
      Store.deleteBatch(Batch);
      Ref = Ref.deleteEdges(Batch);
    }
    auto E = Store.acquire();
    ASSERT_EQ(E.numEdges(), Ref.numEdges());
    for (size_t Sh = 0; Sh < 4; ++Sh)
      ASSERT_TRUE(E.shard(Sh).checkInvariants()) << "shard " << Sh;
    auto V = E.view();
    for (VertexId U = 0; U < N; ++U) {
      std::vector<VertexId> Adj;
      for (auto C = V.neighborCursor(U); !C.done(); C.advance())
        Adj.push_back(C.value());
      ASSERT_EQ(Adj, Ref.findVertex(U).toVector()) << "vertex " << U;
      ASSERT_EQ(V.containsEdge(U, Hub),
                Ref.edgesView(U).contains(Hub));
    }
    // Flat epoch agreement (composed hot-flat view).
    auto FE = Store.acquireFlat();
    auto FV = FE->view();
    ASSERT_EQ(FV.numEdges(), Ref.numEdges());
    for (VertexId U = 0; U < N; ++U) {
      std::vector<VertexId> Adj;
      FV.mapNeighbors(U, [&](VertexId X) { Adj.push_back(X); });
      ASSERT_EQ(Adj, Ref.findVertex(U).toVector()) << "flat vertex " << U;
      ASSERT_EQ(FV.containsEdge(U, Hub),
                Ref.edgesView(U).contains(Hub));
    }
  }
}

TEST(HybridStores, NoLeaksThroughVersionChains) {
  int64_t BaseBytes = liveCountedBytes();
  {
    HybridParams P = testParams();
    const VertexId N = 128;
    HybridShardedGraphStore Store(1, N, {}, P);
    for (int B = 0; B < 8; ++B) {
      Store.insertBatch(randomBatch(N, 400, 700 + B));
      auto V = Store.acquire();
      ASSERT_TRUE(V.shard(0).checkInvariants());
      (void)Store.acquireFlat();
    }
    for (int B = 0; B < 4; ++B)
      Store.deleteBatch(randomBatch(N, 300, 700 + B));
  }
  EXPECT_EQ(liveCountedBytes(), BaseBytes)
      << "leaked chunks through the version chain";
}
