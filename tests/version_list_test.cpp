//===- tests/version_list_test.cpp - Digest log tests ---------------------===//
//
// The bounded DeltaLogT digest window (store/sharded_graph.h) behind the
// store's incremental flat refresh, exercised both directly and through
// a one-shard store's acquireFlat(). Epoch pinning, handle moves,
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

} // namespace

//===----------------------------------------------------------------------===//
// DeltaLogT edge cases: the bounded digest window behind acquireFlat()'s
// incremental refresh. Wraparound past MaxEntries, gap/clear semantics,
// and replay-after-clear recovery of the incremental path.
//===----------------------------------------------------------------------===//

TEST(DeltaLog, ReplayCoversContiguousSpansOnly) {
  DeltaLogT<int> Log;
  for (uint64_t S = 1; S <= 5; ++S)
    Log.record(S, int(S) * 10);
  std::vector<int> Got;
  EXPECT_TRUE(Log.replay(0, 5, [&](int D) { Got.push_back(D); }));
  EXPECT_EQ(Got, (std::vector<int>{10, 20, 30, 40, 50}));
  Got.clear();
  EXPECT_TRUE(Log.replay(2, 4, [&](int D) { Got.push_back(D); }));
  EXPECT_EQ(Got, (std::vector<int>{30, 40}));
  // Degenerate spans: empty span is trivially covered, reversed is not.
  EXPECT_TRUE(Log.replay(3, 3, [&](int) { FAIL(); }));
  EXPECT_FALSE(Log.replay(4, 2, [&](int) { FAIL(); }));
  // Spans beyond the recorded history are not covered.
  EXPECT_FALSE(Log.replay(0, 6, [&](int) { FAIL(); }));
}

TEST(DeltaLog, NonSuccessorRecordClearsHistory) {
  DeltaLogT<int> Log;
  Log.record(1, 10);
  Log.record(2, 20);
  Log.record(5, 50); // stamps 3 and 4 went unrecorded: history is invalid
  EXPECT_EQ(Log.size(), 1u);
  EXPECT_FALSE(Log.replay(0, 5, [&](int) { FAIL(); }));
  std::vector<int> Got;
  EXPECT_TRUE(Log.replay(4, 5, [&](int D) { Got.push_back(D); }));
  EXPECT_EQ(Got, (std::vector<int>{50}));
}

TEST(DeltaLog, BoundedWindowEvictsOldestOnWraparound) {
  DeltaLogT<int> Log; // default bound: 64 entries
  for (uint64_t S = 1; S <= 80; ++S)
    Log.record(S, int(S));
  EXPECT_EQ(Log.size(), 64u);
  // Oldest surviving stamp is 17: a consumer pinned before that rebuilds.
  EXPECT_FALSE(Log.replay(15, 80, [&](int) { FAIL(); }));
  size_t Count = 0;
  EXPECT_TRUE(Log.replay(16, 80, [&](int) { ++Count; }));
  EXPECT_EQ(Count, 64u);
  Count = 0;
  EXPECT_TRUE(Log.replay(70, 80, [&](int) { ++Count; }));
  EXPECT_EQ(Count, 10u);
}

TEST(DeltaLog, WeightBoundEvictsOldest) {
  DeltaLogT<int> Log;
  // Weights 3 each under a bound of 10: at most three entries survive.
  for (uint64_t S = 1; S <= 5; ++S)
    Log.record(S, int(S), 3, 10);
  EXPECT_EQ(Log.size(), 3u);
  EXPECT_FALSE(Log.replay(1, 5, [&](int) { FAIL(); }));
  std::vector<int> Got;
  EXPECT_TRUE(Log.replay(2, 5, [&](int D) { Got.push_back(D); }));
  EXPECT_EQ(Got, (std::vector<int>{3, 4, 5}));
  // Weightless entries never evict; one heavier than the bound empties
  // the log, itself included.
  Log.record(6, 6, 0, 10);
  EXPECT_EQ(Log.size(), 4u);
  Log.record(7, 7, 11, 10);
  EXPECT_EQ(Log.size(), 0u);
  EXPECT_FALSE(Log.replay(6, 7, [&](int) { FAIL(); }));
  // Recording resumes with the weight the log was emptied of.
  Log.record(8, 8, 10, 10);
  EXPECT_EQ(Log.size(), 1u);
  EXPECT_TRUE(Log.replay(7, 8, [&](int) {}));
}

TEST(DeltaLog, ReplayAfterClearRequiresFreshHistory) {
  DeltaLogT<int> Log;
  for (uint64_t S = 1; S <= 4; ++S)
    Log.record(S, int(S));
  Log.clear();
  EXPECT_EQ(Log.size(), 0u);
  EXPECT_FALSE(Log.replay(0, 4, [&](int) { FAIL(); }));
  // Recording resumes cleanly; only the new span is covered.
  Log.record(5, 500);
  Log.record(6, 600);
  EXPECT_FALSE(Log.replay(3, 6, [&](int) { FAIL(); }));
  std::vector<int> Got;
  EXPECT_TRUE(Log.replay(4, 6, [&](int D) { Got.push_back(D); }));
  EXPECT_EQ(Got, (std::vector<int>{500, 600}));
}

TEST(SingleShardFlat, RebuildsWhenDigestWindowExceeded) {
  const VertexId N = 4096;
  ShardedGraphStore Store(1, N, randomEdgeBatch(500, N, 21));
  (void)Store.acquireFlat(); // initial full build
  ASSERT_EQ(Store.flatStats().Rebuilds, 1u);
  // Within the 64-epoch window and under the touched cap: refresh.
  for (int I = 0; I < 10; ++I)
    Store.insertBatch(randomEdgeBatch(8, N, 300 + I));
  (void)Store.acquireFlat();
  EXPECT_EQ(Store.flatStats().Refreshes, 1u);
  EXPECT_EQ(Store.flatStats().Rebuilds, 1u);
  // 70 further epochs without an acquire: the bounded log wraps past the
  // cached stamp, so the next acquire must take the full rebuild path.
  for (int I = 0; I < 70; ++I)
    Store.insertBatch(randomEdgeBatch(8, N, 400 + I));
  (void)Store.acquireFlat();
  EXPECT_EQ(Store.flatStats().Rebuilds, 2u);
  EXPECT_EQ(Store.flatStats().Refreshes, 1u);
}

TEST(SingleShardFlat, OversizeDigestClearsThenIncrementalPathRecovers) {
  const VertexId N = 64; // touched cap = N / FlatRefreshDenominator = 8
  ShardedGraphStore Store(1, N);
  (void)Store.acquireFlat();
  ASSERT_EQ(Store.flatStats().Rebuilds, 1u);
  // A batch touching far more than N/8 distinct vertices records no
  // digest (refreshing would cost as much as rebuilding), clearing the
  // log: the next acquire rebuilds.
  std::vector<EdgePair> Wide;
  for (VertexId U = 0; U < 40; ++U)
    Wide.push_back({U, VertexId((U + 1) % N)});
  Store.insertBatch(Wide);
  (void)Store.acquireFlat();
  EXPECT_EQ(Store.flatStats().Rebuilds, 2u);
  EXPECT_EQ(Store.flatStats().Refreshes, 0u);
  // A subsequent narrow batch restarts the digest history from the
  // rebuilt flat's stamp: incremental refresh works again.
  Store.insertBatch({{3, 5}, {3, 7}});
  (void)Store.acquireFlat();
  EXPECT_EQ(Store.flatStats().Refreshes, 1u);
  EXPECT_EQ(Store.flatStats().Rebuilds, 2u);
}
