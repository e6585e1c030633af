//===- tests/version_list_test.cpp - One-shard flat maintenance -----------===//
//
// The writer-side flat maintenance of a one-shard store
// (store/sharded_graph.h): once acquireFlat() has built the flat, every
// writer refreshes it from its own merge's slots, however long readers
// stay away and however wide the batch. Epoch pinning, handle moves,
// reclamation and acquire under concurrent installs are covered by
// sharded_graph_test and concurrency_test.
//
//===----------------------------------------------------------------------===//

#include "gen/generators.h"
#include "store/sharded_graph.h"

#include <gtest/gtest.h>

using namespace aspen;

namespace {

std::vector<EdgePair> randomEdgeBatch(size_t K, VertexId N, uint64_t Seed) {
  return tabulate(K, [&](size_t I) {
    uint64_t H = hashAt(Seed, I);
    return EdgePair{VertexId(H % N), VertexId((H >> 32) % N)};
  });
}

/// The flat of the store's current epoch, checked against the tree.
void expectCurrent(ShardedGraphStore &Store) {
  auto FE = Store.acquireFlat();
  auto R = Store.acquire();
  ASSERT_EQ(FE->BatchSeq, R.batchSeq());
  const Graph &G = R.shard(0);
  const FlatSnapshot &FS = FE->Flats[0];
  ASSERT_EQ(FS.numVertices(), G.vertexUniverse());
  for (VertexId V = 0; V < FS.numVertices(); ++V)
    ASSERT_EQ(FS.edges(V).toVector(), G.findVertex(V).toVector())
        << "vertex " << V;
}

} // namespace

TEST(SingleShardFlat, LongGapsBetweenReadsStayRefreshed) {
  const VertexId N = 4096;
  ShardedGraphStore Store(1, N, randomEdgeBatch(500, N, 21));
  (void)Store.acquireFlat(); // initial full build
  ASSERT_EQ(Store.flatStats().Rebuilds, 1u);
  for (int I = 0; I < 10; ++I)
    Store.insertBatch(randomEdgeBatch(8, N, 300 + I));
  expectCurrent(Store);
  EXPECT_EQ(Store.flatStats().Refreshes, 10u);
  // 70 further epochs without a read: each writer still refreshed, so
  // the read is a hit, never a rebuild.
  for (int I = 0; I < 70; ++I)
    Store.insertBatch(randomEdgeBatch(8, N, 400 + I));
  expectCurrent(Store);
  EXPECT_EQ(Store.flatStats().Rebuilds, 1u);
  EXPECT_EQ(Store.flatStats().Refreshes, 80u);
  EXPECT_EQ(Store.flatStats().Hits, 2u);
}

TEST(SingleShardFlat, WideBatchRefreshes) {
  const VertexId N = 64;
  ShardedGraphStore Store(1, N);
  (void)Store.acquireFlat();
  ASSERT_EQ(Store.flatStats().Rebuilds, 1u);
  // A batch touching most of the vertices is refreshed like any other:
  // the writer has its slots, so no size bound sends it to a rebuild.
  std::vector<EdgePair> Wide;
  for (VertexId U = 0; U < 40; ++U)
    Wide.push_back({U, VertexId((U + 1) % N)});
  Store.insertBatch(Wide);
  expectCurrent(Store);
  Store.insertBatch({{3, 5}, {3, 7}});
  expectCurrent(Store);
  EXPECT_EQ(Store.flatStats().Rebuilds, 1u);
  EXPECT_EQ(Store.flatStats().Refreshes, 2u);
}
