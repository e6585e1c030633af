//===- tests/parallel_test.cpp - Scheduler and primitive tests ------------===//

#include "gen/generators.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "store/sharded_graph.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <set>
#include <thread>

using namespace aspen;

TEST(Scheduler, WorkersPositive) {
  EXPECT_GE(numWorkers(), 1);
  EXPECT_GE(workerId(), 0);
  EXPECT_LT(workerId(), maxContexts());
}

TEST(Scheduler, ParallelDoRunsBoth) {
  std::atomic<int> Count{0};
  parallelDo([&] { Count.fetch_add(1); }, [&] { Count.fetch_add(2); });
  EXPECT_EQ(Count.load(), 3);
}

TEST(Scheduler, ParallelDoNested) {
  std::atomic<int> Count{0};
  parallelDo(
      [&] {
        parallelDo([&] { Count.fetch_add(1); }, [&] { Count.fetch_add(1); });
      },
      [&] {
        parallelDo([&] { Count.fetch_add(1); }, [&] { Count.fetch_add(1); });
      });
  EXPECT_EQ(Count.load(), 4);
}

TEST(Scheduler, ParallelForCoversRange) {
  const size_t N = 100000;
  std::vector<std::atomic<int>> Hits(N);
  parallelFor(0, N, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(Scheduler, ParallelForEmptyAndSingle) {
  std::atomic<int> Count{0};
  parallelFor(10, 10, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 0);
  parallelFor(10, 11, [&](size_t I) { Count.fetch_add(int(I)); });
  EXPECT_EQ(Count.load(), 10);
}

TEST(Scheduler, NestedParallelForDeep) {
  std::atomic<int64_t> Total{0};
  parallelFor(0, 64, [&](size_t I) {
    parallelFor(0, 64, [&](size_t J) { Total.fetch_add(int64_t(I + J)); },
                4);
  }, 1);
  // sum_{i,j} (i+j) = 64*sum(i) + 64*sum(j) = 2*64*(63*64/2)
  EXPECT_EQ(Total.load(), 2 * 64 * (63 * 64 / 2));
}

TEST(Scheduler, MultipleApplicationThreads) {
  // Multiple OS threads issuing parallel work concurrently (the Section 7.3
  // concurrent updates+queries pattern).
  std::atomic<int64_t> Total{0};
  auto Work = [&] {
    for (int R = 0; R < 10; ++R) {
      int64_t Local = reduceSum(10000, [](size_t I) { return int64_t(I); });
      Total.fetch_add(Local);
    }
  };
  std::thread T1(Work), T2(Work), T3(Work);
  Work();
  T1.join();
  T2.join();
  T3.join();
  int64_t Expect = 4 * 10 * (9999LL * 10000 / 2);
  EXPECT_EQ(Total.load(), Expect);
}

namespace {

/// Every vertex's neighbor list in the store's current epoch.
std::vector<std::vector<VertexId>> neighborLists(ShardedGraphStore &S) {
  auto R = S.acquire();
  auto V = R.view();
  std::vector<std::vector<VertexId>> Out(V.numVertices());
  for (VertexId U = 0; U < V.numVertices(); ++U)
    V.mapNeighbors(U, [&](VertexId X) { Out[U].push_back(X); });
  return Out;
}

} // namespace

TEST(Scheduler, ContextIdsRecycleAcrossThreadChurn) {
  // Each short-lived thread takes a context id when it first touches the
  // store. Ids go back when a thread exits, so twice maxContexts() threads
  // in a row never index past the per-context arrays of the scheduler
  // and the allocator.
  const VertexId N = 1 << 10;
  const size_t Threads = 2 * size_t(maxContexts());
  std::vector<std::vector<EdgePair>> Batches(Threads);
  for (size_t I = 0; I < Threads; ++I)
    Batches[I] = uniformRandomEdges(N, 16, I + 1);

  ShardedGraphStore S(4, N), Ref(4, N);
  std::vector<int> Ids(Threads, -1);
  for (size_t I = 0; I < Threads; ++I) {
    std::thread T([&, I] {
      Ids[I] = workerId();
      S.insertBatch(Batches[I]);
    });
    T.join();
  }
  for (size_t I = 0; I < Threads; ++I) {
    ASSERT_GE(Ids[I], 0) << "thread " << I;
    ASSERT_LT(Ids[I], maxContexts()) << "thread " << I;
    Ref.insertBatch(Batches[I]);
  }
  EXPECT_EQ(S.acquire().numEdges(), Ref.acquire().numEdges());
  EXPECT_EQ(neighborLists(S), neighborLists(Ref));
}

TEST(Scheduler, LiveThreadsGetDistinctContextIds) {
  const int Threads = 64;
  std::atomic<int> Arrived{0};
  std::vector<int> Ids(Threads, -1);
  std::vector<std::thread> Ts;
  for (int I = 0; I < Threads; ++I)
    Ts.emplace_back([&, I] {
      Ids[I] = workerId();
      Arrived.fetch_add(1);
      // Latch: nobody exits (and frees its id) until all hold one.
      while (Arrived.load() < Threads)
        std::this_thread::yield();
    });
  for (auto &T : Ts)
    T.join();
  std::set<int> Distinct(Ids.begin(), Ids.end());
  EXPECT_EQ(Distinct.size(), size_t(Threads));
  EXPECT_GE(*Distinct.begin(), 0);
  EXPECT_LT(*Distinct.rbegin(), maxContexts());
}

TEST(Scheduler, WorkerCountFromEnvIsClamped) {
  int Default = detail::workerCountFromEnv(nullptr);
  EXPECT_GE(Default, 1);
  EXPECT_LE(Default, maxContexts() / 2);
  EXPECT_EQ(detail::workerCountFromEnv("4"), 4);
  // Non-numeric and non-positive values count as unset.
  EXPECT_EQ(detail::workerCountFromEnv("0"), Default);
  EXPECT_EQ(detail::workerCountFromEnv("-3"), Default);
  EXPECT_EQ(detail::workerCountFromEnv("abc"), Default);
  // Helper threads take ids below the pool size: at most half the ids.
  EXPECT_EQ(detail::workerCountFromEnv("100000"), maxContexts() / 2);
}

TEST(Primitives, Tabulate) {
  auto V = tabulate(1000, [](size_t I) { return I * I; });
  ASSERT_EQ(V.size(), 1000u);
  for (size_t I = 0; I < V.size(); ++I)
    ASSERT_EQ(V[I], I * I);
}

TEST(Primitives, ReduceSumMatchesSequential) {
  const size_t N = 1 << 20;
  int64_t Par = reduceSum(N, [](size_t I) { return int64_t(I % 97); });
  int64_t Seq = 0;
  for (size_t I = 0; I < N; ++I)
    Seq += int64_t(I % 97);
  EXPECT_EQ(Par, Seq);
}

TEST(Primitives, ReduceMax) {
  auto V = tabulate(100000, [](size_t I) {
    return int((I * 2654435761u) % 1000003);
  });
  int Par = reduceMax(V.size(), [&](size_t I) { return V[I]; }, -1);
  int Seq = *std::max_element(V.begin(), V.end());
  EXPECT_EQ(Par, Seq);
}

TEST(Primitives, ReduceEmpty) {
  EXPECT_EQ(reduceSum(0, [](size_t) { return 1; }), 0);
  EXPECT_EQ(reduceMax(0, [](size_t) { return 7; }, -5), -5);
}

TEST(Primitives, ScanExclusive) {
  for (size_t N : {size_t(0), size_t(1), size_t(7), size_t(4097),
                   size_t(1 << 18)}) {
    std::vector<int64_t> Data(N);
    for (size_t I = 0; I < N; ++I)
      Data[I] = int64_t(I % 13) - 3;
    std::vector<int64_t> Ref(N);
    int64_t Acc = 0;
    for (size_t I = 0; I < N; ++I) {
      Ref[I] = Acc;
      Acc += Data[I];
    }
    int64_t Total = scanExclusive(Data);
    EXPECT_EQ(Total, Acc) << "N=" << N;
    EXPECT_EQ(Data, Ref) << "N=" << N;
  }
}

TEST(Primitives, FilterPreservesOrder) {
  const size_t N = 200000;
  auto In = tabulate(N, [](size_t I) { return int(hash64(I) % 1000); });
  auto Out = filter(In, [](int X) { return X % 3 == 0; });
  std::vector<int> Ref;
  for (int X : In)
    if (X % 3 == 0)
      Ref.push_back(X);
  EXPECT_EQ(Out, Ref);
}

TEST(Primitives, FilterAllAndNone) {
  auto In = tabulate(1000, [](size_t I) { return int(I); });
  EXPECT_EQ(filter(In, [](int) { return true; }).size(), 1000u);
  EXPECT_EQ(filter(In, [](int) { return false; }).size(), 0u);
}

TEST(Primitives, ParallelSortMatchesStdSort) {
  for (size_t N : {size_t(0), size_t(1), size_t(100), size_t(100000),
                   size_t(1 << 20)}) {
    auto V = tabulate(N, [](size_t I) { return uint32_t(hash64(I)); });
    auto Ref = V;
    parallelSort(V);
    std::sort(Ref.begin(), Ref.end());
    EXPECT_EQ(V, Ref) << "N=" << N;
  }
}

TEST(Primitives, ParallelSortStable) {
  // Sort pairs by first only; equal keys must preserve input order.
  const size_t N = 300000;
  auto V = tabulate(N, [](size_t I) {
    return std::make_pair(uint32_t(hash64(I) % 50), uint32_t(I));
  });
  auto Ref = V;
  parallelSort(V, [](const auto &A, const auto &B) {
    return A.first < B.first;
  });
  std::stable_sort(Ref.begin(), Ref.end(), [](const auto &A, const auto &B) {
    return A.first < B.first;
  });
  EXPECT_EQ(V, Ref);
}

TEST(Primitives, RandomPermutationIsPermutation) {
  auto P = randomPermutation(10000, 42);
  std::vector<bool> Seen(10000, false);
  for (size_t X : P) {
    ASSERT_LT(X, 10000u);
    ASSERT_FALSE(Seen[X]);
    Seen[X] = true;
  }
  auto P2 = randomPermutation(10000, 43);
  EXPECT_NE(P, P2);
  auto P3 = randomPermutation(10000, 42);
  EXPECT_EQ(P, P3) << "same seed must be deterministic";
}
