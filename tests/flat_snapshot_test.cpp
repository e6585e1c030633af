//===- tests/flat_snapshot_test.cpp - Incremental flat snapshots ----------===//
//
// Differential coverage for the paged-CoW flat snapshot (DESIGN.md
// Section 4): the write-once full build, epoch-to-epoch refresh against
// from-scratch rebuilds across churned epochs (inserts + deletes +
// vertex-universe growth) on the store at one shard and at four, page
// sharing, refresh at the page and directory edges of the two-level page
// table on both stores, the writers' maintenance of the live flat (one
// refresh per install after its ack, hits for readers, release of the
// superseded flat, failed installs, concurrent writers and readers),
// graph-view trait coverage of the flat views, and empty reads of
// vertices past the universe through every view.
//
//===----------------------------------------------------------------------===//

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/cc.h"
#include "algorithms/kcore.h"
#include "algorithms/mis.h"
#include "algorithms/pagerank.h"
#include "algorithms/triangle_count.h"
#include "gen/generators.h"
#include "ligra/edge_map.h"
#include "durable_test_util.h"
#include "store/sharded_graph.h"
#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

using namespace aspen;

namespace {

using ES = CTreeSet<VertexId, DeltaByteCodec>;

std::vector<EdgePair> randomBatch(VertexId N, size_t K, uint64_t Seed) {
  return dedupEdges(symmetrize(uniformRandomEdges(N, K, Seed)));
}

/// Pin the canonical (sequential) schedule for bit-exactness assertions
/// on float-accumulating algorithms.
struct SequentialScope {
  SequentialScope() { setSequentialMode(true); }
  ~SequentialScope() { setSequentialMode(false); }
};

/// Adjacency of \p U through a view's cursor surface.
template <class View>
std::vector<VertexId> adjacency(const View &V, VertexId U) {
  std::vector<VertexId> Out;
  for (auto C = V.neighborCursor(U); !C.done(); C.advance())
    Out.push_back(C.value());
  return Out;
}

/// The flat snapshot must agree with its source snapshot slot by slot.
void expectFlatMatchesTree(const FlatSnapshot &FS, const Graph &G) {
  ASSERT_EQ(FS.numVertices(), G.vertexUniverse());
  EXPECT_EQ(FS.numEdges(), G.numEdges());
  for (VertexId V = 0; V < FS.numVertices(); ++V) {
    ASSERT_EQ(FS.degree(V), G.degree(V)) << "vertex " << V;
    ASSERT_EQ(FS.edges(V).toVector(), G.findVertex(V).toVector())
        << "vertex " << V;
  }
}

// Trait coverage: both flat views (and the tree views they substitute
// for) satisfy the graph-view concept and the streaming-cursor surface.
static_assert(IsGraphViewV<TreeGraphView<ES>>, "");
static_assert(IsGraphViewV<FlatGraphView<ES>>, "");
static_assert(IsGraphViewV<ShardedGraphStore::View>, "");
static_assert(IsGraphViewV<ShardedGraphStore::FlatView>, "");
static_assert(HasNeighborCursorV<TreeGraphView<ES>>, "");
static_assert(HasNeighborCursorV<FlatGraphView<ES>>, "");
static_assert(HasNeighborCursorV<ShardedGraphStore::View>, "");
static_assert(HasNeighborCursorV<ShardedGraphStore::FlatView>, "");

} // namespace

//===----------------------------------------------------------------------===
// Paged write-once build.
//===----------------------------------------------------------------------===

TEST(FlatPaged, BuildMatchesTreeAccessWithHoles) {
  // Sparse sources: the universe is full of holes, every one of which
  // must come out as an empty slot of the write-once build.
  Graph G = Graph().insertEdges(
      {{5, 1}, {5, 9}, {100, 2}, {1000, 3}, {2500, 4}, {2500, 5}});
  FlatSnapshot FS(G);
  ASSERT_EQ(FS.numVertices(), 2501u);
  expectFlatMatchesTree(FS, G);
  EXPECT_EQ(FS.degree(6), 0u);
  EXPECT_TRUE(FS.edges(6).toVector().empty());
}

TEST(FlatPaged, BuildMatchesOnDenseGraph) {
  const VertexId N = 3000; // non-page-aligned universe
  Graph G = Graph::fromEdges(N, randomBatch(N, 20000, 71));
  FlatSnapshot FS(G);
  expectFlatMatchesTree(FS, G);
}

TEST(FlatPaged, CopySharesPages) {
  const VertexId N = 5000;
  Graph G = Graph::fromEdges(N, randomBatch(N, 10000, 72));
  FlatSnapshot A(G);
  FlatSnapshot B(A);
  EXPECT_EQ(A.sharedPages(), A.numPages());
  EXPECT_EQ(B.numPages(), A.numPages());
  expectFlatMatchesTree(B, G);
}

TEST(FlatPaged, MemoryBytesAccountsPageMetadata) {
  const VertexId N = 4096;
  Graph G = Graph::fromEdges(N, randomBatch(N, 8000, 73));
  FlatSnapshot FS(G);
  // Table 2 honesty: the footprint must cover the slot payload of every
  // page plus the per-page refcount header and the page table, i.e. be
  // strictly larger than the bare slot arrays.
  size_t SlotBytes =
      FS.numPages() * FlatSnapshot::PageSlots *
      (sizeof(FlatSnapshot::SetView) + sizeof(uint32_t));
  EXPECT_GT(FS.memoryBytes(), SlotBytes);
  EXPECT_LT(FS.memoryBytes(), SlotBytes + FS.numPages() * 64 +
                                  (FS.numPages() + 1) * sizeof(void *) * 2);
}

TEST(FlatPaged, VerticesBeyondUniverseReadEmpty) {
  // Vertex 100000 is only an edge target: it lies past every slot of the
  // single flat and of each shard's flat, so every view must read it as
  // an empty vertex instead of indexing past the page table.
  const std::vector<EdgePair> Edges = {{0, 100000}, {1, 2}};
  const VertexId Far = 100000;
  Graph G = Graph::fromEdges(4, Edges);
  FlatSnapshot FS(G);
  uint64_t Expected = 0;
  G.findVertex(0).forEachSeq([&](VertexId U) { Expected += G.degree(U); });

  auto Check = [&](const auto &V, const char *Name) {
    SCOPED_TRACE(Name);
    EXPECT_EQ(V.degree(Far), 0u);
    size_t Visited = 0;
    V.mapNeighbors(Far, [&](VertexId) { ++Visited; });
    EXPECT_EQ(Visited, 0u);
    EXPECT_TRUE(V.neighborCursor(Far).done());
    EXPECT_FALSE(V.containsEdge(Far, 0));
    uint64_t Sum = 0;
    V.mapNeighbors(0, [&](VertexId U) { Sum += V.degree(U); });
    EXPECT_EQ(Sum, Expected);
  };
  Check(TreeGraphView(G), "tree");
  Check(FlatGraphView(FS), "flat");
  for (size_t S : {1, 4}) {
    ShardedGraphStore Store(S, 4, Edges);
    auto R = Store.acquire();
    auto FE = Store.acquireFlat();
    SCOPED_TRACE(testing::Message() << "S=" << S);
    Check(R.view(), "store view");
    Check(FE->view(), "store flat view");
  }
}

//===----------------------------------------------------------------------===
// refresh() against from-scratch rebuilds.
//===----------------------------------------------------------------------===

TEST(FlatRefresh, MatchesRebuildAcrossChurnedEpochs) {
  const VertexId N = 2048;
  ShardedGraphStore Store(1, N, randomBatch(N, 8000, 80));

  auto First = Store.acquireFlat(); // cold: full rebuild
  EXPECT_EQ(Store.flatStats().Rebuilds, 1u);

  for (int E = 0; E < 24; ++E) {
    if (E % 3 == 2) {
      // Every third epoch deletes a slice of an earlier insert batch.
      Store.deleteBatch(randomBatch(N, 60, 81 + uint64_t(E) - 2));
    } else {
      auto Batch = randomBatch(N, 60, 81 + uint64_t(E));
      // Universe growth: a source beyond every previous id.
      VertexId Grown = N + VertexId(E) * 7 + 1;
      Batch.push_back({Grown, VertexId(E)});
      Batch.push_back({VertexId(E), Grown});
      Store.insertBatch(Batch);
    }
    auto FE = Store.acquireFlat();
    auto R = Store.acquire();
    expectFlatMatchesTree(FE->Flats[0], R.shard(0));

    // Algorithm results must be bit-identical between the flat and the
    // tree view of the same version.
    TreeGraphView<ES> TV(R.shard(0));
    FlatGraphView<ES> FV(FE->Flats[0]);
    EXPECT_EQ(bfsDistances(TV, 0), bfsDistances(FV, 0));
    EXPECT_EQ(connectedComponents(TV), connectedComponents(FV));
  }
  auto Stats = Store.flatStats();
  EXPECT_EQ(Stats.Rebuilds, 1u) << "churn epochs must refresh, not rebuild";
  EXPECT_EQ(Stats.Refreshes, 24u);
}

TEST(FlatRefresh, WritersRefreshEveryEpochAndReadersHit) {
  const VertexId N = 4096;
  ShardedGraphStore Store(1, N, randomBatch(N, 8000, 90));
  auto A = Store.acquireFlat();
  // Several epochs between acquireFlat calls: each writer refreshed the
  // live flat after its own batch, so the next read is a hit.
  for (int E = 0; E < 5; ++E)
    Store.insertBatch(randomBatch(N, 20, 91 + uint64_t(E)));
  EXPECT_EQ(Store.flatStats().Refreshes, 5u);
  auto B = Store.acquireFlat();
  auto C = Store.acquireFlat(); // unchanged epoch: the same object
  EXPECT_EQ(B.get(), C.get());
  EXPECT_EQ(Store.flatStats().Hits, 2u);
  EXPECT_EQ(Store.flatStats().Rebuilds, 1u);
  expectFlatMatchesTree(B->Flats[0], Store.acquire().shard(0));
  // The superseded flat snapshot A still answers for its own version.
  EXPECT_EQ(A->BatchSeq, 0u);
  EXPECT_EQ(A->Flats[0].numVertices(), N);
}

TEST(FlatRefresh, LargeBatchRefreshes) {
  const VertexId N = 1 << 14;
  ShardedGraphStore Store(1, N, randomBatch(N, 30000, 95));
  (void)Store.acquireFlat();
  // Touches well over a quarter of the vertices: with the slots from the
  // merge, the writer refreshes at any batch size.
  Store.insertBatch(randomBatch(N, 30000, 96));
  auto FE = Store.acquireFlat();
  auto Stats = Store.flatStats();
  EXPECT_EQ(Stats.Rebuilds, 1u);
  EXPECT_EQ(Stats.Refreshes, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
  expectFlatMatchesTree(FE->Flats[0], Store.acquire().shard(0));
}

TEST(FlatRefresh, SharesUntouchedPagesWithPredecessor) {
  const VertexId N = 1 << 15; // 32 pages
  ShardedGraphStore Store(1, N, randomBatch(N, 60000, 100));
  auto FA = Store.acquireFlat();
  const FlatSnapshot &A = FA->Flats[0];
  // One batch confined to a narrow id range: most pages must be shared.
  std::vector<EdgePair> Batch;
  for (VertexId V = 100; V < 140; ++V)
    Batch.push_back({V, (V * 7) % N});
  Store.insertBatch(symmetrize(Batch));
  auto FB = Store.acquireFlat();
  const FlatSnapshot &B = FB->Flats[0];
  EXPECT_EQ(Store.flatStats().Refreshes, 1u);
  ASSERT_EQ(B.numPages(), A.numPages());
  // The touched sources span a handful of pages; everything else is
  // co-owned with A. The budget is in slots (4 x 1024 unshared), so it
  // does not depend on the page size.
  EXPECT_LE((B.numPages() - B.sharedPages()) * FlatSnapshot::PageSlots,
            4u * 1024);
  expectFlatMatchesTree(B, Store.acquire().shard(0));
}

//===----------------------------------------------------------------------===
// Sharded store: composed flat epochs.
//===----------------------------------------------------------------------===

TEST(ShardedFlat, MatchesTreeViewAcrossChurnedEpochs) {
  const VertexId N = 2048;
  ShardedGraphStore Store(4, N, randomBatch(N, 8000, 110));
  (void)Store.acquireFlat();
  EXPECT_EQ(Store.flatStats().Rebuilds, 1u);

  for (int E = 0; E < 24; ++E) {
    if (E % 3 == 2) {
      Store.deleteBatch(randomBatch(N, 60, 111 + uint64_t(E) - 2));
    } else {
      auto Batch = randomBatch(N, 60, 111 + uint64_t(E));
      VertexId Grown = N + VertexId(E) * 5 + 1;
      Batch.push_back({Grown, VertexId(E)});
      Batch.push_back({VertexId(E), Grown});
      Store.insertBatch(Batch);
    }
    auto FE = Store.acquireFlat();
    auto R = Store.acquire();
    ASSERT_EQ(FE->BatchSeq, R.batchSeq());
    auto TV = R.view();
    auto FV = FE->view();
    ASSERT_EQ(FV.numVertices(), TV.numVertices());
    ASSERT_EQ(FV.numEdges(), TV.numEdges());
    for (VertexId V = 0; V < TV.numVertices(); ++V) {
      ASSERT_EQ(FV.degree(V), TV.degree(V)) << "vertex " << V;
      ASSERT_EQ(adjacency(FV, V), adjacency(TV, V)) << "vertex " << V;
    }
    EXPECT_EQ(bfsDistances(TV, 0), bfsDistances(FV, 0));
    EXPECT_EQ(connectedComponents(TV), connectedComponents(FV));
  }
  auto Stats = Store.flatStats();
  EXPECT_EQ(Stats.Rebuilds, 1u);
  EXPECT_EQ(Stats.Refreshes, 24u);
}

TEST(ShardedFlat, AllAlgorithmsMatchTreeViewExactly) {
  const VertexId N = 1 << 12;
  auto Edges = randomBatch(N, 16000, 112);
  ShardedGraphStore Store(4, N, Edges);
  (void)Store.acquireFlat();
  Store.insertBatch(randomBatch(N, 120, 113));
  auto FE = Store.acquireFlat();
  EXPECT_EQ(Store.flatStats().Refreshes, 1u);
  auto R = Store.acquire();
  auto TV = R.view();
  auto FV = FE->view();

  SequentialScope Seq;
  EXPECT_EQ(bfs(TV, 3), bfs(FV, 3));
  EXPECT_EQ(bfsDistances(TV, 3), bfsDistances(FV, 3));
  EXPECT_EQ(connectedComponents(TV), connectedComponents(FV));
  EXPECT_EQ(kCore(TV), kCore(FV));
  EXPECT_EQ(pageRank(TV), pageRank(FV));
  EXPECT_EQ(triangleCount(TV), triangleCount(FV));
  EXPECT_EQ(mis(TV), mis(FV));
  EXPECT_EQ(bc(TV, 5), bc(FV, 5));
}

TEST(ShardedFlat, UntouchedShardsShareWholesale) {
  const VertexId N = 1 << 12;
  ShardedGraphStore Store(4, N, randomBatch(N, 16000, 114));
  auto A = Store.acquireFlat();
  // A batch whose endpoints all live in shard 0 (ids ≡ 0 mod 4).
  std::vector<EdgePair> Batch;
  for (VertexId V = 0; V < 160; V += 4)
    Batch.push_back({V, (V + 64) % N});
  Store.insertBatch(symmetrize(Batch));
  auto B = Store.acquireFlat();
  EXPECT_EQ(Store.flatStats().Refreshes, 1u);
  // Shards 1..3 are untouched: their flats share every page with A's
  // (wholesale copies); shard 0 shares all but the repaired pages.
  for (size_t Sh = 1; Sh < 4; ++Sh)
    EXPECT_EQ(B->Flats[Sh].sharedPages(), B->Flats[Sh].numPages())
        << "shard " << Sh;
  EXPECT_GE(B->Flats[0].sharedPages() + 2, B->Flats[0].numPages());
}

TEST(ShardedFlat, SingleShardStoreMatchesDirectFlat) {
  const VertexId N = 1500;
  auto Edges = randomBatch(N, 6000, 115);
  ShardedGraphStore Store(1, N, Edges);
  auto Batch = randomBatch(N, 80, 116);
  Store.insertBatch(Batch);
  FlatSnapshot FS(Graph::fromEdges(N, Edges).insertEdges(Batch));
  auto FE = Store.acquireFlat();
  auto FV = FE->view();
  ASSERT_EQ(FV.numVertices(), FS.numVertices());
  ASSERT_EQ(FV.numEdges(), FS.numEdges());
  for (VertexId V = 0; V < FV.numVertices(); ++V) {
    ASSERT_EQ(FV.degree(V), FS.degree(V));
    ASSERT_EQ(adjacency(FV, V), FS.edges(V).toVector());
  }
}

//===----------------------------------------------------------------------===
// Page and directory edges of the two-level page table, on both stores:
// every refreshed flat against a from-scratch build of the same epoch.
//===----------------------------------------------------------------------===

namespace {

template <class Store> class FlatEdges : public ::testing::Test {
protected:
  using Flat = typename Store::Flat;
  static constexpr VertexId Page = VertexId(Flat::PageSlots);
  static constexpr VertexId Dir = VertexId(Flat::PageSlots * Flat::DirPages);
};
using FlatStores =
    ::testing::Types<ShardedGraphStore, HybridShardedGraphStore>;
TYPED_TEST_SUITE(FlatEdges, FlatStores);

/// Every shard of \p FE equals a full build of the store's current epoch,
/// slot by slot.
template <class Store>
void expectMatchesRebuild(Store &St, const typename Store::FlatEpoch &FE) {
  auto R = St.acquire();
  ASSERT_EQ(FE.BatchSeq, R.batchSeq());
  for (size_t Sh = 0; Sh < R.numShards(); ++Sh) {
    const typename Store::Flat &F = FE.Flats[Sh];
    typename Store::Flat Rebuilt(R.shard(Sh), unsigned(FE.LogShards));
    ASSERT_EQ(F.numVertices(), Rebuilt.numVertices()) << "shard " << Sh;
    ASSERT_EQ(F.numEdges(), Rebuilt.numEdges()) << "shard " << Sh;
    for (VertexId L = 0; L < F.numVertices(); ++L) {
      ASSERT_EQ(F.degree(L), Rebuilt.degree(L))
          << "shard " << Sh << " slot " << L;
      ASSERT_EQ(F.edges(L).toVector(), Rebuilt.edges(L).toVector())
          << "shard " << Sh << " slot " << L;
    }
  }
}

/// Edges from each of \p Sources to a few distinct targets below \p N.
std::vector<EdgePair> edgesFrom(const std::vector<VertexId> &Sources,
                                VertexId N) {
  std::vector<EdgePair> Out;
  for (VertexId V : Sources)
    for (VertexId K = 1; K <= 3; ++K)
      Out.push_back({V, VertexId((uint64_t(V) * 7 + K * 13) % N)});
  return dedupEdges(std::move(Out));
}

/// Every edge of \p Sources in the store's current epoch.
template <class Store>
std::vector<EdgePair> allEdgesOf(Store &St,
                                 const std::vector<VertexId> &Sources) {
  auto R = St.acquire();
  auto V = R.view();
  std::vector<EdgePair> Out;
  for (VertexId S : Sources)
    for (VertexId U : adjacency(V, S))
      Out.push_back({S, U});
  return dedupEdges(std::move(Out));
}

} // namespace

TYPED_TEST(FlatEdges, FirstAndLastSlotsOfPagesAndDirectories) {
  using Store = TypeParam;
  const VertexId P = TestFixture::Page, D = TestFixture::Dir;
  for (size_t S : {1u, 4u}) {
    // Three directories per shard, the last one partial.
    const VertexId Slots = 2 * D + P / 2;
    const VertexId N = Slots * VertexId(S);
    Store St(S, N, randomBatch(N, 2000, 120 + S));
    (void)St.acquireFlat();
    std::vector<VertexId> Edge;
    for (VertexId Slot : {VertexId(0), P - 1, P, 2 * P - 1, D - 1, D,
                          D + P - 1, 2 * D - 1, 2 * D, Slots - 1}) {
      Edge.push_back(Slot * VertexId(S)); // shard 0
      if (S > 1)
        Edge.push_back(Slot * VertexId(S) + VertexId(S - 1)); // last shard
    }
    St.insertBatch(edgesFrom(Edge, N));
    expectMatchesRebuild(St, *St.acquireFlat());
    // Delete-to-empty: every edge of the edge-slot vertices goes.
    St.deleteBatch(allEdgesOf(St, Edge));
    auto FE = St.acquireFlat();
    expectMatchesRebuild(St, *FE);
    for (VertexId V : Edge)
      EXPECT_EQ(FE->view().degree(V), 0u) << "vertex " << V;
    auto Stats = St.flatStats();
    EXPECT_EQ(Stats.Rebuilds, 1u) << S << " shards";
    EXPECT_EQ(Stats.Refreshes, 2u) << S << " shards";
  }
}

TYPED_TEST(FlatEdges, UniverseGrowthAcrossDirectoryBoundaries) {
  using Store = TypeParam;
  const VertexId P = TestFixture::Page, D = TestFixture::Dir;
  for (size_t S : {1u, 4u}) {
    const VertexId Sv = VertexId(S);
    // One directory per shard, its last page partial.
    const VertexId N = (D - 2) * Sv;
    Store St(S, N, randomBatch(N, 1000, 130 + S));
    (void)St.acquireFlat();
    // Into the next directory, into the old partial last page, and one
    // touched slot inside the old universe.
    St.insertBatch(edgesFrom({(D + 3) * Sv, (D - 1) * Sv, (P - 1) * Sv}, N));
    expectMatchesRebuild(St, *St.acquireFlat());
    // Growth that skips a whole directory, in the last shard.
    St.insertBatch(edgesFrom({(3 * D + P + 1) * Sv + (Sv - 1)}, N));
    expectMatchesRebuild(St, *St.acquireFlat());
    // A grown vertex deleted to empty.
    St.deleteBatch(allEdgesOf(St, {(D + 3) * Sv}));
    expectMatchesRebuild(St, *St.acquireFlat());
    auto Stats = St.flatStats();
    EXPECT_EQ(Stats.Rebuilds, 1u) << S << " shards";
    EXPECT_EQ(Stats.Refreshes, 3u) << S << " shards";
  }
}

TYPED_TEST(FlatEdges, EveryEpochRefreshesAtEdges) {
  using Store = TypeParam;
  const VertexId P = TestFixture::Page, D = TestFixture::Dir;
  for (size_t S : {1u, 4u}) {
    const VertexId Sv = VertexId(S);
    const VertexId N = 2 * D * Sv;
    Store St(S, N, randomBatch(N, 2000, 140 + S));
    (void)St.acquireFlat();
    // Six epochs at page and directory edges, growth and deletes to
    // empty among them; each writer refreshes the flat after its batch.
    std::vector<std::function<void()>> Steps = {
        [&] { St.insertBatch(edgesFrom({0, (P - 1) * Sv, P * Sv}, N)); },
        [&] { St.insertBatch(edgesFrom({(D - 1) * Sv, D * Sv + Sv - 1}, N)); },
        [&] { St.deleteBatch(allEdgesOf(St, {(P - 1) * Sv})); },
        [&] { St.insertBatch(edgesFrom({(2 * D + 1) * Sv}, N)); }, // growth
        [&] { St.insertBatch(edgesFrom({(P - 1) * Sv, (2 * D - 1) * Sv}, N)); },
        [&] { St.deleteBatch(allEdgesOf(St, {(2 * D + 1) * Sv})); }};
    for (auto &Step : Steps) {
      Step();
      expectMatchesRebuild(St, *St.acquireFlat());
    }
    auto Stats = St.flatStats();
    EXPECT_EQ(Stats.Rebuilds, 1u) << S << " shards";
    EXPECT_EQ(Stats.Refreshes, 6u) << S << " shards";
    EXPECT_EQ(Stats.Hits, 6u) << S << " shards";
  }
}

TYPED_TEST(FlatEdges, WriterReleasesSupersededFlat) {
  using Store = TypeParam;
  using FlatEpochPtr = std::shared_ptr<const typename Store::FlatEpoch>;
  const int64_t BaseBytes = liveCountedBytes();
  const int64_t BaseNodes = totalPoolLiveBytes();
  {
    const VertexId N = 2 * TestFixture::Dir * 4;
    Store St(4, N, randomBatch(N, 4000, 150));
    FlatEpochPtr A = St.acquireFlat();
    std::vector<std::vector<VertexId>> Before(N);
    {
      auto R = St.acquire();
      for (VertexId V = 0; V < N; ++V)
        Before[V] = adjacency(R.view(), V);
    }
    St.insertBatch(randomBatch(N, 60, 151));
    EXPECT_EQ(St.flatStats().Refreshes, 1u);
    // The writer dropped its reference to the superseded flat: the
    // reader's pin is the last one, and it still answers for its epoch.
    EXPECT_EQ(A.use_count(), 1);
    EXPECT_EQ(A->BatchSeq, 0u);
    FlatEpochPtr B = St.acquireFlat();
    ASSERT_NE(B.get(), A.get());
    auto OV = A->view();
    auto BV = B->view();
    size_t Changed = 0;
    for (VertexId V = 0; V < N; ++V) {
      ASSERT_EQ(adjacency(OV, V), Before[V]) << "vertex " << V;
      Changed += adjacency(BV, V) != Before[V];
    }
    EXPECT_GT(Changed, 0u);
    // Unpinned, a superseded flat is gone when the writer returns.
    std::weak_ptr<const typename Store::FlatEpoch> W = B;
    B.reset();
    St.insertBatch(randomBatch(N, 60, 152));
    EXPECT_TRUE(W.expired());
  }
  EXPECT_EQ(liveCountedBytes(), BaseBytes);
  EXPECT_EQ(totalPoolLiveBytes(), BaseNodes);
}

//===----------------------------------------------------------------------===
// Slot digests: the merge records each touched vertex's new slot, and the
// writer's refresh writes those slots instead of looking the vertices
// up. Every refreshed flat must equal a fresh build of the same epoch.
//===----------------------------------------------------------------------===

namespace {

template <class Store> class SlotDigest : public ::testing::Test {};
TYPED_TEST_SUITE(SlotDigest, FlatStores);

/// Sources Base, Base + Step, ... (Count of them).
std::vector<VertexId> strided(VertexId Base, VertexId Step, size_t Count) {
  std::vector<VertexId> Out;
  for (size_t I = 0; I < Count; ++I)
    Out.push_back(Base + VertexId(I) * Step);
  return Out;
}

} // namespace

TYPED_TEST(SlotDigest, SameVerticesEveryEpoch) {
  using Store = TypeParam;
  for (size_t S : {1u, 4u}) {
    const VertexId N = 1024 * VertexId(S);
    Store St(S, N, randomBatch(N, 3000, 160 + S));
    (void)St.acquireFlat();
    // The same vertices in every epoch: inserted, deleted down to empty,
    // re-inserted, and deleted again, each epoch refreshed by its writer
    // from the slots its merge set.
    auto Hot = strided(3, 5, 12);
    St.insertBatch(edgesFrom(Hot, N));
    St.insertBatch(edgesFrom(strided(4, 7, 12), N));
    St.deleteBatch(allEdgesOf(St, Hot));
    expectMatchesRebuild(St, *St.acquireFlat());
    St.insertBatch(edgesFrom({Hot[0], Hot[5]}, N));
    auto FE = St.acquireFlat();
    expectMatchesRebuild(St, *FE);
    EXPECT_EQ(FE->view().degree(Hot[1]), 0u);
    EXPECT_GT(FE->view().degree(Hot[5]), 0u);
    // Ending on the delete: the newest slot of each is empty.
    St.deleteBatch(allEdgesOf(St, Hot));
    FE = St.acquireFlat();
    expectMatchesRebuild(St, *FE);
    for (VertexId V : Hot)
      EXPECT_EQ(FE->view().degree(V), 0u) << "vertex " << V;
    auto Stats = St.flatStats();
    EXPECT_EQ(Stats.Rebuilds, 1u) << S << " shards";
    EXPECT_EQ(Stats.Refreshes, 5u) << S << " shards";
  }
}

TYPED_TEST(SlotDigest, CoalescedInstallsRefresh) {
  using Store = TypeParam;
  for (size_t S : {1u, 4u}) {
    const VertexId N = 1024 * VertexId(S);
    Store St(S, N, randomBatch(N, 3000, 170 + S));
    (void)St.acquireFlat();
    // Three batches in one install, two of them on the same vertices:
    // one refresh from the group's merged slots. Then a coalesced delete
    // and a plain batch, one refresh each.
    auto A = edgesFrom(strided(10, 3, 8), N);
    auto B = edgesFrom(strided(11, 3, 8), N);
    auto C = edgesFrom(strided(10, 6, 4), N);
    EdgeSpan Spans[] = {{A.data(), A.size()},
                        {B.data(), B.size()},
                        {C.data(), C.size()}};
    EXPECT_EQ(St.applySpans(Spans, 3, /*Insert=*/true), 3u);
    expectMatchesRebuild(St, *St.acquireFlat());
    EdgeSpan Del[] = {{A.data(), A.size()}, {C.data(), C.size()}};
    St.applySpans(Del, 2, /*Insert=*/false);
    St.insertBatch(edgesFrom(strided(12, 9, 5), N));
    expectMatchesRebuild(St, *St.acquireFlat());
    auto Stats = St.flatStats();
    EXPECT_EQ(Stats.Rebuilds, 1u) << S << " shards";
    EXPECT_EQ(Stats.Refreshes, 3u) << S << " shards";
  }
}

TYPED_TEST(SlotDigest, NewVerticesInsideAndPastTheUniverse) {
  using Store = TypeParam;
  for (size_t S : {1u, 4u}) {
    const VertexId Sv = VertexId(S);
    const VertexId N = 512 * Sv;
    Store St(S, N, randomBatch(N, 2000, 180 + S));
    (void)St.acquireFlat();
    // Growth leaves unmaterialized ids between N and the new vertex.
    St.insertBatch(edgesFrom({N + 300 * Sv}, N));
    expectMatchesRebuild(St, *St.acquireFlat());
    // Those ids are inside the flat's universe now but not in the tree:
    // the merge inserts them, and their slots come from the new tree.
    St.insertBatch(edgesFrom({N + 7 * Sv, N + 100 * Sv + Sv - 1, 5}, N));
    // A delete from a still-missing id is ignored.
    St.deleteBatch({{N + 8 * Sv, 1}});
    St.insertBatch(edgesFrom({N + 7 * Sv, N + 400 * Sv}, N));
    auto FE = St.acquireFlat();
    expectMatchesRebuild(St, *FE);
    EXPECT_GT(FE->view().degree(N + 7 * Sv), 0u);
    auto Stats = St.flatStats();
    EXPECT_EQ(Stats.Rebuilds, 1u) << S << " shards";
    EXPECT_EQ(Stats.Refreshes, 4u) << S << " shards";
  }
}

TYPED_TEST(SlotDigest, ManyEpochsWithoutReadersStayRefreshed) {
  using Store = TypeParam;
  const VertexId N = 1024;
  Store St(1, N, randomBatch(N, 3000, 190));
  (void)St.acquireFlat();
  // 40 distinct vertices, touched by 8 batches and nobody reading: every
  // writer refreshes from its own slots, so there is no replay window to
  // outrun and no rebuild.
  auto Hot = strided(1, 25, 40);
  for (int I = 0; I < 8; ++I) {
    if (I % 2)
      St.deleteBatch(allEdgesOf(St, Hot));
    else
      St.insertBatch(edgesFrom(Hot, N));
  }
  expectMatchesRebuild(St, *St.acquireFlat());
  EXPECT_EQ(St.flatStats().Rebuilds, 1u);
  EXPECT_EQ(St.flatStats().Refreshes, 8u);
  EXPECT_EQ(St.flatStats().Hits, 1u);
}

//===----------------------------------------------------------------------===
// Writer-side maintenance: once a flat is live, the writer of every
// install refreshes it after its ack, in install order; a reader only
// loads it. Both stores, at one shard and at eight.
//===----------------------------------------------------------------------===

namespace {

template <class Store> class WriterFlat : public ::testing::Test {};
TYPED_TEST_SUITE(WriterFlat, FlatStores);

} // namespace

TYPED_TEST(WriterFlat, EveryInstallLeavesAHit) {
  using Store = TypeParam;
  for (size_t S : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << S << " shards");
    const VertexId Sv = VertexId(S);
    const VertexId N = 512 * Sv;
    Store St(S, N, randomBatch(N, 2000, 200 + S));
    (void)St.acquireFlat();
    uint64_t Installs = 0;
    auto ExpectHit = [&] {
      ++Installs;
      FlatMaintenanceStats Before = St.flatStats();
      auto FE = St.acquireFlat();
      FlatMaintenanceStats After = St.flatStats();
      EXPECT_EQ(After.Hits, Before.Hits + 1);
      EXPECT_EQ(After.Refreshes, Installs); // one per install, groups too
      EXPECT_EQ(After.Rebuilds, 1u);
      expectMatchesRebuild(St, *FE);
    };
    auto A = edgesFrom(strided(5, 3, 30), N);
    auto B = edgesFrom(strided(6, 11, 20), N);
    auto C = edgesFrom(strided(7, 2, 25), N);
    St.insertBatch(A);
    ExpectHit();
    St.deleteBatch(A);
    ExpectHit();
    EdgeSpan Ins[] = {{A.data(), A.size()},
                      {B.data(), B.size()},
                      {C.data(), C.size()}};
    St.applySpans(Ins, 3, /*Insert=*/true);
    ExpectHit();
    EdgeSpan Del[] = {{B.data(), B.size()}, {C.data(), C.size()}};
    St.applySpans(Del, 2, /*Insert=*/false);
    ExpectHit();
    St.insertBatch(edgesFrom({N + 9 * Sv, N + 300 * Sv + Sv - 1}, N));
    ExpectHit();
  }
}

TYPED_TEST(WriterFlat, ColdStoreCountsNoRefreshes) {
  using Store = TypeParam;
  for (size_t S : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << S << " shards");
    const VertexId N = 512 * VertexId(S);
    Store St(S, N, randomBatch(N, 2000, 210 + S));
    auto A = edgesFrom(strided(5, 3, 30), N);
    auto B = edgesFrom(strided(6, 11, 20), N);
    St.insertBatch(A);
    St.deleteBatch(A);
    EdgeSpan Ins[] = {{A.data(), A.size()}, {B.data(), B.size()}};
    St.applySpans(Ins, 2, /*Insert=*/true);
    FlatMaintenanceStats Cold = St.flatStats();
    EXPECT_EQ(Cold.Rebuilds, 0u);
    EXPECT_EQ(Cold.Refreshes, 0u);
    EXPECT_EQ(Cold.Hits, 0u);
    // The first read builds the flat; from then on writers maintain it.
    expectMatchesRebuild(St, *St.acquireFlat());
    St.deleteBatch(B);
    expectMatchesRebuild(St, *St.acquireFlat());
    FlatMaintenanceStats Live = St.flatStats();
    EXPECT_EQ(Live.Rebuilds, 1u);
    EXPECT_EQ(Live.Refreshes, 1u);
    EXPECT_EQ(Live.Hits, 1u);
  }
}

TYPED_TEST(WriterFlat, FailedInstallLeavesTheCurrentEpoch) {
  using Store = TypeParam;
  for (size_t S : {1u, 8u}) {
    // Before publication (the WAL append) and after it (the group commit).
    for (const char *Site : {"wal.enqueue.before", "wal.sync.before"}) {
      SCOPED_TRACE(testing::Message() << S << " shards, " << Site);
      const VertexId N = 256 * VertexId(S);
      dtest::TempDir D;
      Store St(dtest::optsFor(D.path()), S, N);
      St.insertBatch(randomBatch(N, 1000, 220 + S));
      (void)St.acquireFlat();
      {
        FailpointGuard G(Site, FailAction::crash());
        EXPECT_ANY_THROW(St.insertBatch(edgesFrom(strided(1, 3, 20), N)));
      }
      bool Published = St.batchSeq() == 2;
      EXPECT_EQ(Published, std::string(Site) == "wal.sync.before");
      // Unpublished, the live flat still renders the current epoch (a
      // hit); published, the flat was dropped and the read rebuilds.
      auto FE = St.acquireFlat();
      expectMatchesRebuild(St, *FE);
      FlatMaintenanceStats Stats = St.flatStats();
      EXPECT_EQ(Stats.Rebuilds, Published ? 2u : 1u);
      EXPECT_EQ(Stats.Hits, Published ? 0u : 1u);
      EXPECT_EQ(Stats.Refreshes, 0u);
    }
  }
}

TYPED_TEST(WriterFlat, DisjointWritersAndReadersSeeWholeEpochs) {
  using Store = TypeParam;
  const size_t Writers = 4, Batches = 24, K = 6;
  // Writer W's batch B: K fresh edges from the sources Src(W, B, J), all
  // in shard 2W of an 8-shard store (shard = v & 7).
  auto Src = [&](size_t W, size_t B, size_t J) {
    return VertexId((B * K + J) * 8 + 2 * W);
  };
  const VertexId N = VertexId(Batches * K * 8 + 8);
  for (size_t S : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << S << " shards");
    Store St(S, N);
    (void)St.acquireFlat();
    std::atomic<size_t> Running{Writers}, ReadersUp{0};
    std::atomic<uint64_t> Violations{0}, Checked{0};

    std::vector<std::thread> Ts;
    for (size_t W = 0; W < Writers; ++W)
      Ts.emplace_back([&, W] {
        while (ReadersUp.load() < 2)
          std::this_thread::yield();
        for (size_t B = 0; B < Batches; ++B) {
          std::vector<EdgePair> Batch;
          for (size_t J = 0; J < K; ++J)
            Batch.push_back({Src(W, B, J), VertexId(B * 7 + J)});
          St.insertBatch(Batch);
        }
        Running.fetch_sub(1);
      });
    for (int R = 0; R < 2; ++R)
      Ts.emplace_back([&] {
        uint64_t LastSeq = 0;
        ReadersUp.fetch_add(1);
        do {
          auto FE = St.acquireFlat();
          auto V = FE->view();
          bool Ok = FE->BatchSeq >= LastSeq &&
                    FE->NumEdges == FE->BatchSeq * K;
          LastSeq = FE->BatchSeq;
          // Each writer's batches are a prefix, and the prefixes add up
          // to the flat's BatchSeq: a whole-epoch cut.
          uint64_t Applied = 0;
          for (size_t W = 0; W < Writers; ++W) {
            size_t Done = 0;
            while (Done < Batches && V.degree(Src(W, Done, 0)) > 0)
              ++Done;
            for (size_t B = 0; B < Batches; ++B)
              for (size_t J = 0; J < K; ++J)
                Ok &= V.degree(Src(W, B, J)) == (B < Done ? 1u : 0u);
            Applied += Done;
          }
          Ok &= Applied == FE->BatchSeq;
          // Slot by slot against a rebuild of the shards it renders.
          for (size_t Sh = 0; Sh < FE->Flats.size(); ++Sh) {
            const typename Store::Flat &F = FE->Flats[Sh];
            typename Store::Flat Re(F.graph(), unsigned(FE->LogShards));
            Ok &= F.numVertices() == Re.numVertices();
            for (VertexId L = 0; Ok && L < F.numVertices(); ++L)
              Ok &= F.degree(L) == Re.degree(L) &&
                    F.edges(L).toVector() == Re.edges(L).toVector();
          }
          Violations.fetch_add(!Ok);
          Checked.fetch_add(1);
        } while (Running.load() > 0);
      });
    for (auto &T : Ts)
      T.join();
    EXPECT_EQ(Violations.load(), 0u);
    EXPECT_GT(Checked.load(), 0u);
    auto FE = St.acquireFlat();
    EXPECT_EQ(FE->BatchSeq, Writers * Batches);
    expectMatchesRebuild(St, *FE);
    FlatMaintenanceStats Stats = St.flatStats();
    EXPECT_EQ(Stats.Rebuilds, 1u);
    EXPECT_EQ(Stats.Refreshes, Writers * Batches);
  }
}
