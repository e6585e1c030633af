//===- tests/flat_snapshot_test.cpp - Incremental flat snapshots ----------===//
//
// Differential coverage for the paged-CoW flat snapshot (DESIGN.md
// Section 4): the write-once full build, epoch-to-epoch refresh against
// from-scratch rebuilds across churned epochs (inserts + deletes +
// vertex-universe growth) on the store at one shard and at four, the
// refresh-vs-rebuild policy (threshold, cache hits), page sharing, and
// graph-view trait coverage of the flat views.
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
#include "store/sharded_graph.h"

#include <gtest/gtest.h>

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
static_assert(IsGraphViewV<ShardedGraphView>, "");
static_assert(IsGraphViewV<ShardedFlatView>, "");
static_assert(HasNeighborCursorV<TreeGraphView<ES>>, "");
static_assert(HasNeighborCursorV<FlatGraphView<ES>>, "");
static_assert(HasNeighborCursorV<ShardedGraphView>, "");
static_assert(HasNeighborCursorV<ShardedFlatView>, "");

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

TEST(FlatRefresh, MultiEpochReplayAndCacheHits) {
  const VertexId N = 4096;
  ShardedGraphStore Store(1, N, randomBatch(N, 8000, 90));
  auto A = Store.acquireFlat();
  // Several epochs between acquireFlat calls: one refresh replays them all.
  for (int E = 0; E < 5; ++E)
    Store.insertBatch(randomBatch(N, 20, 91 + uint64_t(E)));
  auto B = Store.acquireFlat();
  EXPECT_EQ(Store.flatStats().Refreshes, 1u);
  auto C = Store.acquireFlat(); // unchanged epoch: cached object
  EXPECT_EQ(B.get(), C.get());
  EXPECT_GE(Store.flatStats().Hits, 1u);
  expectFlatMatchesTree(B->Flats[0], Store.acquire().shard(0));
  // The superseded flat snapshot A still answers for its own version.
  EXPECT_EQ(A->Flats[0].numVertices(), N);
}

TEST(FlatRefresh, LargeBatchFallsBackToRebuild) {
  const VertexId N = 1 << 14;
  ShardedGraphStore Store(1, N, randomBatch(N, 30000, 95));
  (void)Store.acquireFlat();
  // Touches well over universe/8 distinct sources: rebuild path.
  Store.insertBatch(randomBatch(N, 30000, 96));
  auto FE = Store.acquireFlat();
  auto Stats = Store.flatStats();
  EXPECT_EQ(Stats.Rebuilds, 2u);
  EXPECT_EQ(Stats.Refreshes, 0u);
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
  // co-owned with A.
  EXPECT_GE(B.sharedPages(), B.numPages() - 4);
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
