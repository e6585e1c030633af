//===- tests/version_list_test.cpp - Version list and digest log tests ----===//
//
// The version-maintenance core of Section 6 (store/version_list.h):
// stamps, pinning, move semantics, reclamation, and concurrent
// acquire/release under installs; plus the bounded DeltaLogT digest
// window behind the store's incremental flat refresh, exercised both
// directly and through a one-shard store's acquireFlat().
//
//===----------------------------------------------------------------------===//

#include "gen/generators.h"
#include "store/sharded_graph.h"
#include "store/version_list.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace aspen;

namespace {

std::vector<EdgePair> randomEdgeBatch(size_t K, VertexId N, uint64_t Seed) {
  return tabulate(K, [&](size_t I) {
    uint64_t H = hashAt(Seed, I);
    return EdgePair{VertexId(H % N), VertexId((H >> 32) % N)};
  });
}

} // namespace

//===----------------------------------------------------------------------===
// The extracted VersionListT core (store/version_list.h), independent of
// graphs: stamps, pinning, move semantics, and reclamation of arbitrary
// payloads.
//===----------------------------------------------------------------------===

namespace {

/// Payload that counts live instances so reclamation is observable.
struct Tracked {
  static std::atomic<int> Live;
  int Value;
  explicit Tracked(int V) : Value(V) { Live.fetch_add(1); }
  Tracked(const Tracked &O) : Value(O.Value) { Live.fetch_add(1); }
  Tracked(Tracked &&O) noexcept : Value(O.Value) { Live.fetch_add(1); }
  ~Tracked() { Live.fetch_sub(1); }
};
std::atomic<int> Tracked::Live{0};

} // namespace

TEST(VersionList, StampsAndPinning) {
  VersionListT<int> L(10);
  auto H0 = L.acquire();
  EXPECT_EQ(H0.value(), 10);
  EXPECT_EQ(H0.stamp(), 0u);
  EXPECT_EQ(L.set(20), 1u);
  EXPECT_EQ(L.set(30), 2u);
  EXPECT_EQ(L.currentStamp(), 2u);
  // The pinned handle still reads the old value.
  EXPECT_EQ(H0.value(), 10);
  auto H2 = L.acquire();
  EXPECT_EQ(H2.value(), 30);
  EXPECT_EQ(H2.stamp(), 2u);
}

TEST(VersionList, HandleMoveSemantics) {
  VersionListT<int> L(1);
  auto A = L.acquire();
  auto B = std::move(A);
  EXPECT_FALSE(A.valid());
  EXPECT_TRUE(B.valid());
  EXPECT_EQ(B.value(), 1);
  B.reset();
  EXPECT_FALSE(B.valid());
}

TEST(VersionList, ReclaimsUnpinnedVersions) {
  EXPECT_EQ(Tracked::Live.load(), 0);
  {
    VersionListT<Tracked> L(Tracked(0));
    auto Pin = L.acquire();
    for (int I = 1; I <= 50; ++I)
      L.set(Tracked(I));
    // Only the pinned initial version and the current one survive.
    EXPECT_EQ(Tracked::Live.load(), 2);
    EXPECT_EQ(Pin.value().Value, 0);
    Pin.reset();
    EXPECT_EQ(Tracked::Live.load(), 1);
  }
  EXPECT_EQ(Tracked::Live.load(), 0);
}

TEST(VersionList, ConcurrentAcquireReleaseUnderSets) {
  VersionListT<uint64_t> L(0);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Violations{0};
  std::thread Writer([&] {
    for (uint64_t I = 1; I <= 2000; ++I)
      L.set(I);
    Done.store(true);
  });
  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      uint64_t Last = 0;
      while (!Done.load()) {
        auto H = L.acquire();
        // Values are installed in order, so observations are monotone,
        // and a handle's value/stamp never change while held.
        if (H.value() < Last || H.value() != H.stamp())
          Violations.fetch_add(1);
        Last = H.value();
      }
    });
  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
  EXPECT_EQ(L.acquire().value(), 2000u);
}

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
