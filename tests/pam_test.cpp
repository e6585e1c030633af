//===- tests/pam_test.cpp - Purely-functional tree tests ------------------===//

#include "pam/tree.h"
#include "util/hash.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

using namespace aspen;

namespace {

/// Simple integer-set entry (no value, no augmentation).
struct SetEntry {
  using KeyT = uint32_t;
  using ValT = Empty;
  using AugT = Empty;
  static bool less(uint32_t A, uint32_t B) { return A < B; }
  static AugT augOfEntry(const KeyT &, const ValT &) { return {}; }
  static AugT augIdentity() { return {}; }
  static AugT augCombine(AugT, AugT) { return {}; }
};

/// Key-value entry with a sum augmentation over values.
struct MapEntry {
  using KeyT = uint32_t;
  using ValT = int64_t;
  using AugT = int64_t;
  static bool less(uint32_t A, uint32_t B) { return A < B; }
  static AugT augOfEntry(const KeyT &, const ValT &V) { return V; }
  static AugT augIdentity() { return 0; }
  static AugT augCombine(AugT A, AugT B) { return A + B; }
};

using S = Tree<SetEntry>;
using M = Tree<MapEntry>;

std::vector<std::pair<uint32_t, Empty>> keysToEntries(
    const std::vector<uint32_t> &Keys) {
  std::vector<std::pair<uint32_t, Empty>> Out;
  Out.reserve(Keys.size());
  for (uint32_t K : Keys)
    Out.push_back({K, Empty{}});
  return Out;
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

std::vector<uint32_t> treeKeys(const S::Node *T) {
  std::vector<uint32_t> Out;
  S::forEachSeq(T, [&](uint32_t K, Empty) { Out.push_back(K); });
  return Out;
}

int64_t livePamNodes() {
  return NodePool<PamNode<SetEntry>>::liveCount() +
         NodePool<PamNode<MapEntry>>::liveCount();
}

} // namespace

TEST(PamNodeLayout, SetNodeIs32Bytes) {
  // The paper reports 32 bytes per uncompressed (edge) tree node.
  EXPECT_LE(sizeof(PamNode<SetEntry>), 32u);
}

TEST(PamBasic, EmptyTree) {
  EXPECT_EQ(S::size(nullptr), 0u);
  EXPECT_TRUE(S::validate(nullptr));
  EXPECT_EQ(S::findNode(nullptr, 5u), nullptr);
  S::release(nullptr); // no-op
}

TEST(PamBasic, SingletonAndFind) {
  auto *T = S::singleton(42u, Empty{});
  EXPECT_EQ(S::size(T), 1u);
  EXPECT_NE(S::findNode(T, 42u), nullptr);
  EXPECT_EQ(S::findNode(T, 41u), nullptr);
  S::release(T);
}

TEST(PamBasic, InsertAscending) {
  int64_t Base = livePamNodes();
  S::Node *T = nullptr;
  for (uint32_t I = 0; I < 2000; ++I)
    T = S::insert(T, I, Empty{});
  EXPECT_EQ(S::size(T), 2000u);
  EXPECT_TRUE(S::validate(T)) << "balance must hold under sorted inserts";
  for (uint32_t I = 0; I < 2000; ++I)
    ASSERT_NE(S::findNode(T, I), nullptr);
  S::release(T);
  EXPECT_EQ(livePamNodes(), Base);
}

TEST(PamBasic, InsertDescending) {
  S::Node *T = nullptr;
  for (uint32_t I = 2000; I > 0; --I)
    T = S::insert(T, I, Empty{});
  EXPECT_EQ(S::size(T), 2000u);
  EXPECT_TRUE(S::validate(T));
  S::release(T);
}

TEST(PamBasic, InsertRandomMatchesStdSet) {
  auto Keys = randomKeys(5000, 1, 100000);
  S::Node *T = nullptr;
  std::set<uint32_t> Ref;
  for (uint32_t K : Keys) {
    T = S::insert(T, K, Empty{});
    Ref.insert(K);
  }
  EXPECT_EQ(S::size(T), Ref.size());
  EXPECT_TRUE(S::validate(T));
  EXPECT_EQ(treeKeys(T), std::vector<uint32_t>(Ref.begin(), Ref.end()));
  S::release(T);
}

TEST(PamBasic, RemoveMatchesStdSet) {
  auto Keys = sortedUnique(randomKeys(3000, 2, 10000));
  S::Node *T = S::buildSorted(keysToEntries(Keys).data(), Keys.size());
  std::set<uint32_t> Ref(Keys.begin(), Keys.end());
  for (size_t I = 0; I < Keys.size(); I += 2) {
    T = S::remove(T, Keys[I]);
    Ref.erase(Keys[I]);
  }
  // Also remove keys that are absent.
  T = S::remove(T, 999999u);
  EXPECT_EQ(S::size(T), Ref.size());
  EXPECT_TRUE(S::validate(T));
  EXPECT_EQ(treeKeys(T), std::vector<uint32_t>(Ref.begin(), Ref.end()));
  S::release(T);
}

TEST(PamBasic, BuildSortedIsBalancedAndOrdered) {
  auto Keys = sortedUnique(randomKeys(100000, 3, 1u << 30));
  S::Node *T = S::buildSorted(keysToEntries(Keys).data(), Keys.size());
  EXPECT_EQ(S::size(T), Keys.size());
  EXPECT_TRUE(S::validate(T));
  EXPECT_EQ(treeKeys(T), Keys);
  S::release(T);
}

TEST(PamBasic, FindLE) {
  std::vector<uint32_t> Keys = {10, 20, 30, 40};
  S::Node *T = S::buildSorted(keysToEntries(Keys).data(), Keys.size());
  EXPECT_EQ(S::findLE(T, 5u), nullptr);
  EXPECT_EQ(S::findLE(T, 10u)->Key, 10u);
  EXPECT_EQ(S::findLE(T, 25u)->Key, 20u);
  EXPECT_EQ(S::findLE(T, 100u)->Key, 40u);
  EXPECT_EQ(S::first(T)->Key, 10u);
  EXPECT_EQ(S::last(T)->Key, 40u);
  S::release(T);
}

TEST(PamSplitJoin, SplitBasic) {
  auto Keys = sortedUnique(randomKeys(10000, 5, 1u << 20));
  S::Node *T = S::buildSorted(keysToEntries(Keys).data(), Keys.size());
  uint32_t Pivot = Keys[Keys.size() / 2];
  auto Sp = S::split(T, Pivot);
  EXPECT_TRUE(Sp.Found);
  EXPECT_TRUE(S::validate(Sp.Left));
  EXPECT_TRUE(S::validate(Sp.Right));
  auto L = treeKeys(Sp.Left), R = treeKeys(Sp.Right);
  for (uint32_t K : L)
    ASSERT_LT(K, Pivot);
  for (uint32_t K : R)
    ASSERT_GT(K, Pivot);
  EXPECT_EQ(L.size() + R.size() + 1, Keys.size());
  S::release(Sp.Left);
  S::release(Sp.Right);
}

TEST(PamSplitJoin, SplitAbsentKey) {
  std::vector<uint32_t> Keys = {2, 4, 6, 8, 10};
  S::Node *T = S::buildSorted(keysToEntries(Keys).data(), Keys.size());
  auto Sp = S::split(T, 5u);
  EXPECT_FALSE(Sp.Found);
  EXPECT_EQ(treeKeys(Sp.Left), (std::vector<uint32_t>{2, 4}));
  EXPECT_EQ(treeKeys(Sp.Right), (std::vector<uint32_t>{6, 8, 10}));
  S::release(Sp.Left);
  S::release(Sp.Right);
}

TEST(PamSplitJoin, Join2Concatenates) {
  auto A = sortedUnique(randomKeys(1000, 6, 1000));
  std::vector<uint32_t> B;
  for (uint32_t K : sortedUnique(randomKeys(5000, 7, 100000)))
    if (K > 2000)
      B.push_back(K);
  S::Node *TA = S::buildSorted(keysToEntries(A).data(), A.size());
  S::Node *TB = S::buildSorted(keysToEntries(B).data(), B.size());
  S::Node *T = S::join2(TA, TB);
  EXPECT_TRUE(S::validate(T));
  auto All = A;
  All.insert(All.end(), B.begin(), B.end());
  EXPECT_EQ(treeKeys(T), All);
  S::release(T);
}

TEST(PamSetOps, UnionMatchesStdSet) {
  for (uint64_t Seed = 10; Seed < 16; ++Seed) {
    auto A = sortedUnique(randomKeys(4000, Seed, 20000));
    auto B = sortedUnique(randomKeys(4000, Seed + 100, 20000));
    S::Node *TA = S::buildSorted(keysToEntries(A).data(), A.size());
    S::Node *TB = S::buildSorted(keysToEntries(B).data(), B.size());
    S::Node *U = S::unionWith(TA, TB, [](Empty, Empty) { return Empty{}; });
    std::set<uint32_t> Ref(A.begin(), A.end());
    Ref.insert(B.begin(), B.end());
    EXPECT_TRUE(S::validate(U));
    EXPECT_EQ(treeKeys(U), std::vector<uint32_t>(Ref.begin(), Ref.end()));
    S::release(U);
  }
}

TEST(PamSetOps, IntersectMatchesStdSet) {
  auto A = sortedUnique(randomKeys(6000, 20, 10000));
  auto B = sortedUnique(randomKeys(6000, 21, 10000));
  S::Node *TA = S::buildSorted(keysToEntries(A).data(), A.size());
  S::Node *TB = S::buildSorted(keysToEntries(B).data(), B.size());
  S::Node *I = S::intersectWith(TA, TB, [](Empty, Empty) { return Empty{}; });
  std::vector<uint32_t> Ref;
  std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                        std::back_inserter(Ref));
  EXPECT_TRUE(S::validate(I));
  EXPECT_EQ(treeKeys(I), Ref);
  S::release(I);
}

TEST(PamSetOps, DifferenceMatchesStdSet) {
  auto A = sortedUnique(randomKeys(6000, 30, 10000));
  auto B = sortedUnique(randomKeys(6000, 31, 10000));
  S::Node *TA = S::buildSorted(keysToEntries(A).data(), A.size());
  S::Node *TB = S::buildSorted(keysToEntries(B).data(), B.size());
  S::Node *D = S::difference(TA, TB);
  std::vector<uint32_t> Ref;
  std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                      std::back_inserter(Ref));
  EXPECT_TRUE(S::validate(D));
  EXPECT_EQ(treeKeys(D), Ref);
  S::release(D);
}

TEST(PamSetOps, UnionWithEmpty) {
  auto A = sortedUnique(randomKeys(100, 40, 1000));
  S::Node *TA = S::buildSorted(keysToEntries(A).data(), A.size());
  S::Node *U = S::unionWith(TA, nullptr, [](Empty, Empty) { return Empty{}; });
  EXPECT_EQ(treeKeys(U), A);
  U = S::unionWith(nullptr, U, [](Empty, Empty) { return Empty{}; });
  EXPECT_EQ(treeKeys(U), A);
  S::release(U);
}

TEST(PamSetOps, MultiInsertCombines) {
  std::vector<std::pair<uint32_t, int64_t>> Init = {{1, 10}, {3, 30}, {5, 50}};
  M::Node *T = M::buildSorted(Init.data(), Init.size());
  std::vector<std::pair<uint32_t, int64_t>> Batch = {{2, 20}, {3, 300}};
  T = M::multiInsert(T, Batch.data(), Batch.size(),
                     [](int64_t Old, int64_t New) { return Old + New; });
  std::map<uint32_t, int64_t> Ref = {{1, 10}, {2, 20}, {3, 330}, {5, 50}};
  std::map<uint32_t, int64_t> Got;
  M::forEachSeq(T, [&](uint32_t K, int64_t V) { Got[K] = V; });
  EXPECT_EQ(Got, Ref);
  // Augmentation = sum of all values.
  EXPECT_EQ(M::aug(T), 10 + 20 + 330 + 50);
  M::release(T);
}

//===----------------------------------------------------------------------===
// multiUpdate: path-copying batch updates against a std::map reference.
//===----------------------------------------------------------------------===

namespace {

using MapPairs = std::vector<std::pair<uint32_t, int64_t>>;

/// Distinct nodes on the search paths of \p Keys in \p T: the nodes a
/// path-copying update of a shared tree must copy.
size_t searchPathNodes(const M::Node *T, const std::vector<uint32_t> &Keys) {
  std::set<const M::Node *> Seen;
  for (uint32_t K : Keys)
    for (const M::Node *N = T; N;) {
      Seen.insert(N);
      if (K < N->Key)
        N = N->Left;
      else if (N->Key < K)
        N = N->Right;
      else
        break;
    }
  return Seen.size();
}

std::map<uint32_t, int64_t> mapOf(const M::Node *T) {
  std::map<uint32_t, int64_t> Out;
  M::forEachSeq(T, [&](uint32_t K, int64_t V) { Out[K] = V; });
  return Out;
}

/// Run multiUpdate (values add) of \p Batch over a tree of \p Init, sole
/// owned or pinned by a second root, and check it against the reference.
void checkMultiUpdate(const MapPairs &Init, const MapPairs &Batch,
                      bool Pinned) {
  SCOPED_TRACE(testing::Message() << "tree " << Init.size() << ", batch "
                                  << Batch.size() << ", pinned " << Pinned);
  int64_t Base = livePamNodes();
  {
    M::Node *T = M::buildSorted(Init.data(), Init.size());
    std::map<uint32_t, int64_t> Before = mapOf(T), Ref = Before;
    std::vector<uint32_t> Keys, Absent;
    for (const auto &[K, V] : Batch) {
      Keys.push_back(K);
      auto It = Ref.find(K);
      if (It != Ref.end())
        It->second += V;
      else
        Absent.push_back(K);
    }
    M::Node *Pin = nullptr;
    size_t PathNodes = 0;
    if (Pinned) {
      Pin = T;
      M::retain(Pin);
      PathNodes = searchPathNodes(T, Keys);
    }
    int64_t Live = livePamNodes();
    std::vector<int> SetCalls(Batch.size(), 0), MissCalls(Batch.size(), 0);
    T = M::multiUpdate(
        T, Batch.data(), Batch.size(),
        [](int64_t Old, int64_t New) { return Old + New; },
        [&](size_t I, const M::Node *N) {
          ++SetCalls[I];
          EXPECT_EQ(N->Key, Batch[I].first);
          EXPECT_EQ(N->Val, Ref[N->Key]);
        },
        [&](size_t I) { ++MissCalls[I]; });
    // Pinned: exactly the search-path nodes are new; sole owned: the
    // copies replace the originals, which are freed.
    EXPECT_EQ(livePamNodes() - Live, int64_t(PathNodes));
    EXPECT_TRUE(M::validate(T));
    EXPECT_EQ(mapOf(T), Ref);
    int64_t Sum = 0;
    for (const auto &KV : Ref)
      Sum += KV.second;
    EXPECT_EQ(M::aug(T), Sum);
    std::vector<uint32_t> Missed;
    for (size_t I = 0; I < Batch.size(); ++I) {
      EXPECT_EQ(SetCalls[I] + MissCalls[I], 1) << "entry " << I;
      if (MissCalls[I])
        Missed.push_back(Batch[I].first);
    }
    EXPECT_EQ(Missed, Absent);
    if (Pin) {
      EXPECT_TRUE(M::validate(Pin));
      EXPECT_EQ(mapOf(Pin), Before) << "pinned version must not change";
      M::release(Pin);
    }
    M::release(T);
  }
  EXPECT_EQ(livePamNodes(), Base) << "all nodes must be reclaimed";
}

} // namespace

TEST(PamMultiUpdate, MatchesReferenceOnRandomBatches) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    size_t N = 1 + hashAt(Seed, 0) % 3000;
    auto Keys = sortedUnique(randomKeys(N, Seed, 10000));
    MapPairs Init;
    for (uint32_t K : Keys)
      Init.push_back({K, int64_t(hashAt(Seed, K) % 100)});
    // Present and absent keys mixed (the range is wider than the tree's).
    auto BatchKeys =
        sortedUnique(randomKeys(1 + hashAt(Seed, 1) % 400, Seed + 50, 12000));
    MapPairs Batch;
    for (uint32_t K : BatchKeys)
      Batch.push_back({K, int64_t(K % 7 + 1)});
    MapPairs Every;
    for (const auto &KV : Init)
      Every.push_back({KV.first, 3});
    const MapPairs Ends = {{Init.front().first, 5}, {Init.back().first, 9}};
    for (bool Pinned : {false, true}) {
      checkMultiUpdate(Init, Batch, Pinned);
      checkMultiUpdate(Init, {}, Pinned);
      checkMultiUpdate(Init, Every, Pinned);
      checkMultiUpdate(Init, Ends, Pinned);
    }
  }
}

TEST(PamMultiUpdate, EmptyTreeReportsEveryKeyMissing) {
  checkMultiUpdate({}, {{1, 1}, {4, 2}, {9, 3}}, false);
  checkMultiUpdate({}, {}, false);
}

TEST(PamMultiUpdate, LargeBatchForksAndMatches) {
  // Big enough on both sides of the root to take the parallel fork.
  MapPairs Init, Batch;
  for (uint32_t K = 0; K < 40000; K += 2)
    Init.push_back({K, 1});
  for (uint32_t K = 0; K < 40000; K += 3)
    Batch.push_back({K, 2});
  for (bool Pinned : {false, true})
    checkMultiUpdate(Init, Batch, Pinned);
}

TEST(PamAug, SumAugTracksValues) {
  M::Node *T = nullptr;
  int64_t Sum = 0;
  for (uint32_t I = 0; I < 1000; ++I) {
    int64_t V = int64_t(hash64(I) % 1000);
    T = M::insert(T, I, V);
    Sum += V;
  }
  EXPECT_EQ(M::aug(T), Sum);
  // Removal updates the augmented sum.
  const M::Node *N = M::findNode(T, 500u);
  int64_t V500 = N->Val;
  T = M::remove(T, 500u);
  EXPECT_EQ(M::aug(T), Sum - V500);
  M::release(T);
}

TEST(PamPersistence, SnapshotsAreImmutable) {
  auto Keys = sortedUnique(randomKeys(10000, 50, 1u << 20));
  S::Node *V1 = S::buildSorted(keysToEntries(Keys).data(), Keys.size());
  auto Before = treeKeys(V1);
  // Snapshot: retain, then apply destructive updates to a new version.
  S::retain(V1);
  S::Node *V2 = V1;
  for (uint32_t I = 0; I < 500; ++I)
    V2 = S::insert(V2, uint32_t(3000000 + I), Empty{});
  for (size_t I = 0; I < Keys.size(); I += 3)
    V2 = S::remove(V2, Keys[I]);
  // The old version still reads exactly as before.
  EXPECT_EQ(treeKeys(V1), Before);
  EXPECT_TRUE(S::validate(V1));
  EXPECT_TRUE(S::validate(V2));
  S::release(V2);
  EXPECT_EQ(treeKeys(V1), Before) << "releasing v2 must not damage v1";
  S::release(V1);
}

TEST(PamPersistence, ManySnapshots) {
  std::vector<S::Node *> Versions;
  S::Node *Cur = nullptr;
  for (uint32_t I = 0; I < 200; ++I) {
    Cur = S::insert(Cur, I, Empty{});
    S::retain(Cur);
    Versions.push_back(Cur);
  }
  for (size_t V = 0; V < Versions.size(); ++V)
    ASSERT_EQ(S::size(Versions[V]), V + 1);
  for (S::Node *V : Versions)
    S::release(V);
  S::release(Cur);
}

TEST(PamPersistence, LeakFreeUnderSetOps) {
  int64_t Base = livePamNodes();
  {
    auto A = sortedUnique(randomKeys(5000, 60, 30000));
    auto B = sortedUnique(randomKeys(5000, 61, 30000));
    S::Node *TA = S::buildSorted(keysToEntries(A).data(), A.size());
    S::Node *TB = S::buildSorted(keysToEntries(B).data(), B.size());
    S::retain(TA); // keep a snapshot of A across the union
    S::Node *U = S::unionWith(TA, TB, [](Empty, Empty) { return Empty{}; });
    EXPECT_EQ(treeKeys(TA), A) << "input snapshot unchanged";
    S::Node *D = S::difference(U, TA); // consumes U and TA
    std::vector<uint32_t> Ref;
    std::set_difference(B.begin(), B.end(), A.begin(), A.end(),
                        std::back_inserter(Ref));
    EXPECT_EQ(treeKeys(D), Ref);
    S::release(D);
  }
  EXPECT_EQ(livePamNodes(), Base) << "all nodes must be reclaimed";
}

TEST(PamFilter, KeepsMatchingEntries) {
  auto Keys = sortedUnique(randomKeys(5000, 70, 100000));
  S::Node *T = S::buildSorted(keysToEntries(Keys).data(), Keys.size());
  T = S::filter(T, [](uint32_t K, Empty) { return K % 2 == 0; });
  std::vector<uint32_t> Ref;
  for (uint32_t K : Keys)
    if (K % 2 == 0)
      Ref.push_back(K);
  EXPECT_TRUE(S::validate(T));
  EXPECT_EQ(treeKeys(T), Ref);
  S::release(T);
}

TEST(PamTraversal, IndexedMatchesOrder) {
  auto Keys = sortedUnique(randomKeys(20000, 80, 1u << 22));
  S::Node *T = S::buildSorted(keysToEntries(Keys).data(), Keys.size());
  std::vector<uint32_t> ByIndex(Keys.size(), 0);
  S::forEachIndexed(T, 0, [&](size_t I, uint32_t K, Empty) {
    ByIndex[I] = K;
  });
  EXPECT_EQ(ByIndex, Keys);
  S::release(T);
}

TEST(PamTraversal, IterCondStopsEarly) {
  std::vector<uint32_t> Keys = {1, 2, 3, 4, 5, 6, 7, 8};
  S::Node *T = S::buildSorted(keysToEntries(Keys).data(), Keys.size());
  std::vector<uint32_t> Seen;
  bool Finished = S::iterCond(T, [&](uint32_t K, Empty) {
    Seen.push_back(K);
    return K < 5;
  });
  EXPECT_FALSE(Finished);
  EXPECT_EQ(Seen, (std::vector<uint32_t>{1, 2, 3, 4, 5}));
  S::release(T);
}

//===----------------------------------------------------------------------===
// Property sweep: randomized operation sequences cross-checked against
// std::set, with balance/size validation after every phase.
//===----------------------------------------------------------------------===

class PamRandomOps : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PamRandomOps, MixedBatchOpsMatchReference) {
  uint64_t Seed = GetParam();
  int64_t Base = livePamNodes();
  {
    std::set<uint32_t> Ref;
    S::Node *T = nullptr;
    for (int Round = 0; Round < 12; ++Round) {
      uint64_t Op = hashAt(Seed, 1000 + Round) % 3;
      auto Batch = sortedUnique(
          randomKeys(1 + hashAt(Seed, Round) % 2000, Seed * 31 + Round,
                     8000));
      S::Node *TB = S::buildSorted(keysToEntries(Batch).data(), Batch.size());
      if (Op == 0) {
        T = S::unionWith(T, TB, [](Empty, Empty) { return Empty{}; });
        Ref.insert(Batch.begin(), Batch.end());
      } else if (Op == 1) {
        T = S::difference(T, TB);
        for (uint32_t K : Batch)
          Ref.erase(K);
      } else {
        T = S::intersectWith(T, TB, [](Empty, Empty) { return Empty{}; });
        std::set<uint32_t> NewRef;
        for (uint32_t K : Batch)
          if (Ref.count(K))
            NewRef.insert(K);
        Ref = std::move(NewRef);
      }
      ASSERT_TRUE(S::validate(T)) << "round " << Round;
      ASSERT_EQ(S::size(T), Ref.size()) << "round " << Round;
      ASSERT_EQ(treeKeys(T),
                std::vector<uint32_t>(Ref.begin(), Ref.end()));
    }
    S::release(T);
  }
  EXPECT_EQ(livePamNodes(), Base);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PamRandomOps,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
