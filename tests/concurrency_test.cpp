//===- tests/concurrency_test.cpp - Concurrent readers/writer fuzzing -----===//
//
// Stress tests for the paper's core concurrency claims (Section 6): any
// number of readers on acquired versions run concurrently with a single
// writer; no reader is ever blocked, torn, or sees a partially-applied
// batch; memory is reclaimed exactly.
//
//===----------------------------------------------------------------------===//

#include "algorithms/bfs.h"
#include "gen/generators.h"
#include "serve/server.h"
#include "store/sharded_graph.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace aspen;

namespace {

/// Batches constructed so that every version's edge count identifies the
/// exact prefix of batches applied: batch i consists of edges with a
/// disjoint id range, so numEdges is a strict witness of atomicity.
std::vector<EdgePair> disjointBatch(int I, size_t Size, VertexId N) {
  std::vector<EdgePair> Out;
  for (size_t J = 0; J < Size; ++J) {
    uint64_t Id = uint64_t(I) * Size + J;
    Out.push_back({VertexId(Id % N), VertexId((Id / N) % N)});
  }
  return Out;
}

} // namespace

TEST(Concurrency, ReadersSeeOnlyWholeBatches) {
  const VertexId N = 512;
  const size_t BatchSize = 128;
  const int NumBatches = 60;
  ShardedGraphStore Store(1, N);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Violations{0};

  std::thread Writer([&] {
    for (int B = 0; B < NumBatches; ++B)
      Store.insertBatch(disjointBatch(B, BatchSize, N));
    Done.store(true);
  });

  std::vector<std::thread> Readers;
  for (int R = 0; R < 4; ++R)
    Readers.emplace_back([&] {
      while (!Done.load()) {
        auto V = Store.acquire();
        uint64_t E = V.shard(0).numEdges();
        // Every batch is disjoint, so the count must be an exact multiple
        // of the batch size (no partially-visible batch).
        if (E % BatchSize != 0)
          Violations.fetch_add(1);
        // The version is immutable: re-reading gives the same count.
        if (V.shard(0).numEdges() != E)
          Violations.fetch_add(1);
      }
    });

  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
  EXPECT_EQ(Store.acquire().shard(0).numEdges(),
            uint64_t(NumBatches) * BatchSize);
}

TEST(Concurrency, MixedInsertDeleteWithReaderValidation) {
  const VertexId N = 256;
  auto Fixed = dedupEdges(symmetrize(uniformRandomEdges(N, 2000, 1)));
  ShardedGraphStore Store(1, N, Fixed);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Violations{0};

  // The writer repeatedly inserts and deletes the same churn batch; the
  // fixed edge set is never touched, so every version contains it.
  auto Churn = dedupEdges(symmetrize(uniformRandomEdges(N, 300, 999)));
  std::vector<EdgePair> ChurnOnly;
  {
    std::set<EdgePair> FixedSet(Fixed.begin(), Fixed.end());
    for (const EdgePair &E : Churn)
      if (!FixedSet.count(E))
        ChurnOnly.push_back(E);
  }

  std::thread Writer([&] {
    for (int I = 0; I < 25; ++I) {
      Store.insertBatch(ChurnOnly);
      Store.deleteBatch(ChurnOnly);
    }
    Done.store(true);
  });

  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&](){
      uint64_t FixedCount = Fixed.size();
      while (!Done.load()) {
        auto V = Store.acquire();
        uint64_t E = V.shard(0).numEdges();
        // Either all churn edges are present or none are.
        if (E != FixedCount && E != FixedCount + ChurnOnly.size())
          Violations.fetch_add(1);
        if (!V.shard(0).checkInvariants())
          Violations.fetch_add(1);
      }
    });

  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
  EXPECT_EQ(Store.acquire().shard(0).numEdges(), Fixed.size());
}

TEST(Concurrency, FlatSnapshotsDuringUpdates) {
  const VertexId N = 256;
  auto Fixed = dedupEdges(symmetrize(uniformRandomEdges(N, 3000, 2)));
  ShardedGraphStore Store(1, N, Fixed);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Violations{0};

  std::thread Writer([&] {
    RMatGenerator Stream(8, 777);
    for (int B = 0; B < 30; ++B)
      Store.insertBatch(Stream.edges(uint64_t(B) * 100, 100));
    Done.store(true);
  });

  std::thread Reader([&] {
    while (!Done.load()) {
      auto V = Store.acquire();
      FlatSnapshot FS(V.shard(0));
      // The flat snapshot must agree with the tree view of its version.
      if (FS.numEdges() != V.shard(0).numEdges())
        Violations.fetch_add(1);
      for (VertexId X = 0; X < N; X += 37)
        if (FS.degree(X) != V.shard(0).degree(X))
          Violations.fetch_add(1);
      // And it must support queries while newer versions appear.
      FlatGraphView FV(FS);
      bfs(FV, 0);
    }
  });

  Writer.join();
  Reader.join();
  EXPECT_EQ(Violations.load(), 0u);
}

TEST(Concurrency, QueriesOutliveReleasedVersions) {
  const VertexId N = 128;
  ShardedGraphStore Store(
      1, N, dedupEdges(symmetrize(uniformRandomEdges(N, 1000, 3))));
  // Acquire a version, let the writer race far ahead, then verify the old
  // version still answers correctly after many newer versions were
  // created and collected.
  auto Old = Store.acquire();
  uint64_t OldEdges = Old.shard(0).numEdges();
  auto OldAdj = Old.shard(0).findVertex(5).toVector();
  for (int I = 0; I < 50; ++I)
    Store.insertBatch(disjointBatch(I, 64, N));
  EXPECT_EQ(Old.shard(0).numEdges(), OldEdges);
  EXPECT_EQ(Old.shard(0).findVertex(5).toVector(), OldAdj);
  EXPECT_TRUE(Old.shard(0).checkInvariants());
}

TEST(Concurrency, ManyConcurrentLocalQueriesOnePerVersion) {
  // Many threads each pin their own version and run local queries while
  // the writer streams; versions differ but each must be self-consistent.
  const VertexId N = 512;
  ShardedGraphStore Store(
      1, N, dedupEdges(symmetrize(uniformRandomEdges(N, 4000, 4))));
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Violations{0};

  std::thread Writer([&] {
    for (int B = 0; B < 30; ++B)
      Store.insertBatch(disjointBatch(B, 50, N));
    Done.store(true);
  });

  std::vector<std::thread> Readers;
  for (int R = 0; R < 4; ++R)
    Readers.emplace_back([&, R] {
      uint64_t Q = 0;
      while (!Done.load()) {
        auto V = Store.acquire();
        // Sum of degrees must equal numEdges on any single version.
        uint64_t DegSum = 0;
        for (VertexId X = 0; X < N; ++X)
          DegSum += V.shard(0).degree(X);
        if (DegSum != V.shard(0).numEdges())
          Violations.fetch_add(1);
        ++Q;
      }
      (void)Q;
    });

  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
}

TEST(Concurrency, ShardedChurnReadersSeeAllOrNone) {
  // Sharded counterpart of MixedInsertDeleteWithReaderValidation: the
  // writer cycles a churn batch in and out of a 4-shard store while
  // readers assert that every acquired epoch contains either all churn
  // edges or none (batch atomicity across shards).
  const VertexId N = 256;
  auto Fixed = dedupEdges(symmetrize(uniformRandomEdges(N, 2000, 11)));
  ShardedGraphStore Store(4, N, Fixed);
  uint64_t FixedCount = Store.acquire().numEdges();
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Violations{0};

  auto Churn = dedupEdges(symmetrize(uniformRandomEdges(N, 300, 888)));
  std::vector<EdgePair> ChurnOnly;
  {
    std::set<EdgePair> FixedSet(Fixed.begin(), Fixed.end());
    for (const EdgePair &E : Churn)
      if (!FixedSet.count(E))
        ChurnOnly.push_back(E);
  }

  std::thread Writer([&] {
    for (int I = 0; I < 25; ++I) {
      Store.insertBatch(ChurnOnly);
      Store.deleteBatch(ChurnOnly);
    }
    Done.store(true);
  });

  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      while (!Done.load()) {
        auto E = Store.acquire();
        uint64_t Edges = E.numEdges();
        if (Edges != FixedCount && Edges != FixedCount + ChurnOnly.size())
          Violations.fetch_add(1);
        uint64_t ShardSum = 0;
        for (size_t S = 0; S < E.numShards(); ++S) {
          if (!E.shard(S).checkInvariants())
            Violations.fetch_add(1);
          ShardSum += E.shard(S).numEdges();
        }
        if (ShardSum != Edges)
          Violations.fetch_add(1);
      }
    });

  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
  EXPECT_EQ(Store.acquire().numEdges(), FixedCount);
}

TEST(Concurrency, ShardedQueriesRunOnPinnedEpochs) {
  // Readers run BFS over pinned sharded epochs while writers stream; the
  // composed view must stay self-consistent for the lifetime of the pin.
  const VertexId N = 512;
  ShardedGraphStore Store(
      4, N, dedupEdges(symmetrize(uniformRandomEdges(N, 4000, 12))));
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Violations{0};

  std::thread Writer([&] {
    RMatGenerator Stream(9, 555);
    for (int B = 0; B < 30; ++B)
      Store.insertBatch(Stream.edges(uint64_t(B) * 100, 100));
    Done.store(true);
  });

  std::vector<std::thread> Readers;
  for (int R = 0; R < 2; ++R)
    Readers.emplace_back([&] {
      while (!Done.load()) {
        auto E = Store.acquire();
        auto V = E.view();
        uint64_t DegSum = 0;
        for (VertexId X = 0; X < V.numVertices(); ++X)
          DegSum += V.degree(X);
        if (DegSum != E.numEdges())
          Violations.fetch_add(1);
        bfs(V, 0);
      }
    });

  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
}

TEST(Concurrency, HotFlatReadersDuringIngest) {
  // Readers loop acquireFlat() — the store-maintained hot flat snapshot,
  // refreshed by the writer from its merge's slots after each batch —
  // while the writer streams disjoint batches. Every returned flat must
  // be a consistent whole-batch cut: edge count a multiple of the batch
  // size and equal to the sum of its slot degrees.
  const VertexId N = 4096;
  const size_t BatchSize = 128;
  const int NumBatches = 40;
  ShardedGraphStore Store(1, N);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Violations{0};

  std::thread Writer([&] {
    for (int B = 0; B < NumBatches; ++B)
      Store.insertBatch(disjointBatch(B, BatchSize, N));
    Done.store(true);
  });

  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      while (!Done.load()) {
        auto FE = Store.acquireFlat();
        const FlatSnapshot &FS = FE->Flats[0];
        uint64_t E = FS.numEdges();
        if (E % BatchSize != 0)
          Violations.fetch_add(1);
        uint64_t DegSum = 0;
        for (VertexId V = 0; V < FS.numVertices(); ++V)
          DegSum += FS.degree(V);
        if (DegSum != E)
          Violations.fetch_add(1);
        FlatGraphView FV(FS);
        bfs(FV, 0);
      }
    });

  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
  auto Last = Store.acquireFlat();
  EXPECT_EQ(Last->NumEdges, uint64_t(NumBatches) * BatchSize);
  auto Stats = Store.flatStats();
  EXPECT_GE(Stats.Refreshes + Stats.Rebuilds, 1u);
}

TEST(Concurrency, ShardedHotFlatChurnSeesAllOrNone) {
  // Sharded counterpart: churn a batch in and out of a 4-shard store
  // while readers acquire hot flat epochs. Batch atomicity must survive
  // the flat rendering: every flat epoch contains all churn edges or
  // none, and its composed view's degrees sum to its edge count.
  const VertexId N = 256;
  auto Fixed = dedupEdges(symmetrize(uniformRandomEdges(N, 2000, 21)));
  ShardedGraphStore Store(4, N, Fixed);
  uint64_t FixedCount = Store.acquire().numEdges();
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Violations{0};

  auto Churn = dedupEdges(symmetrize(uniformRandomEdges(N, 300, 22)));
  std::vector<EdgePair> ChurnOnly;
  {
    std::set<EdgePair> FixedSet(Fixed.begin(), Fixed.end());
    for (const EdgePair &E : Churn)
      if (!FixedSet.count(E))
        ChurnOnly.push_back(E);
  }

  std::thread Writer([&] {
    for (int I = 0; I < 20; ++I) {
      Store.insertBatch(ChurnOnly);
      Store.deleteBatch(ChurnOnly);
    }
    Done.store(true);
  });

  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      while (!Done.load()) {
        auto FE = Store.acquireFlat();
        uint64_t E = FE->NumEdges;
        if (E != FixedCount && E != FixedCount + ChurnOnly.size())
          Violations.fetch_add(1);
        auto V = FE->view();
        uint64_t DegSum = 0;
        for (VertexId X = 0; X < V.numVertices(); ++X)
          DegSum += V.degree(X);
        if (DegSum != E)
          Violations.fetch_add(1);
        bfs(V, 0);
      }
    });

  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
  EXPECT_EQ(Store.acquireFlat()->NumEdges, FixedCount);
}

TEST(Concurrency, ParallelSetOpsOnSharedInputs) {
  // Two application threads run set operations against the SAME shared
  // tree concurrently; shared subtrees are read-only so both must get
  // correct results.
  auto Keys = tabulate(20000, [](size_t I) {
    return uint32_t(hashAt(50, I) % 100000);
  });
  using CT = CTreeSet<uint32_t, DeltaByteCodec>;
  CT Shared = CT::fromUnsorted(Keys);
  std::vector<uint32_t> SortedKeys = Shared.toVector();

  std::atomic<uint64_t> Violations{0};
  auto Work = [&](uint64_t Seed) {
    for (int I = 0; I < 10; ++I) {
      auto Batch = tabulate(2000, [&](size_t J) {
        return uint32_t(hashAt(Seed + I, J) % 100000);
      });
      CT Mine = Shared.multiInsert(Batch);
      std::set<uint32_t> Ref(SortedKeys.begin(), SortedKeys.end());
      Ref.insert(Batch.begin(), Batch.end());
      if (Mine.size() != Ref.size())
        Violations.fetch_add(1);
      if (!Mine.checkInvariants())
        Violations.fetch_add(1);
    }
  };
  std::thread T1(Work, 60), T2(Work, 61), T3(Work, 62);
  T1.join();
  T2.join();
  T3.join();
  EXPECT_EQ(Violations.load(), 0u);
  EXPECT_EQ(Shared.toVector(), SortedKeys) << "shared input unchanged";
}

namespace {

/// Deep unbalanced fork tree with tiny leaves: maximizes push/pop/steal
/// traffic on the Chase-Lev deques (every leaf is an independently
/// stealable job and the owner races thieves for the bottom entry).
uint64_t forkSum(uint64_t Lo, uint64_t Hi) {
  if (Hi - Lo <= 4) {
    uint64_t S = 0;
    for (uint64_t I = Lo; I < Hi; ++I)
      S += hash64(I) & 0xff;
    return S;
  }
  uint64_t Mid = Lo + (Hi - Lo) / 3 + 1; // unbalanced: steal-heavy
  uint64_t A = 0, B = 0;
  parallelDo([&] { A = forkSum(Lo, Mid); }, [&] { B = forkSum(Mid, Hi); });
  return A + B;
}

} // namespace

TEST(Concurrency, ChaseLevDequeStress) {
  // Many application threads hammer the scheduler with nested fork-join
  // work at steal-heavy grain sizes, each checking its deterministic
  // sum. Run under TSan in CI, this exercises every deque transition:
  // owner push/pop, popIfLocal rescinding, thief CAS races on the last
  // element, and cross-thread Job publication.
  const uint64_t N = 20000;
  uint64_t Expected = 0;
  for (uint64_t I = 0; I < N; ++I)
    Expected += hash64(I) & 0xff;

  std::atomic<uint64_t> Violations{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 6; ++T)
    Threads.emplace_back([&] {
      for (int Round = 0; Round < 8; ++Round)
        if (forkSum(0, N) != Expected)
          Violations.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
}

TEST(Concurrency, ChaseLevNestedParallelFor) {
  // Nested parallelFors with grain 1 from several registered threads:
  // band tasks of the inner loops interleave with outer-loop stealing,
  // so deques hold jobs from multiple nesting levels at once.
  std::atomic<uint64_t> Violations{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      for (int Round = 0; Round < 4; ++Round) {
        std::atomic<uint64_t> Sum{0};
        parallelFor(
            0, 64,
            [&](size_t I) {
              std::atomic<uint64_t> Local{0};
              parallelFor(
                  0, 64,
                  [&](size_t J) {
                    Local.fetch_add(hash64(I * 64 + J) & 7);
                  },
                  1);
              Sum.fetch_add(Local.load() + I);
            },
            1);
        uint64_t Expected = 0;
        for (size_t I = 0; I < 64; ++I) {
          Expected += I;
          for (size_t J = 0; J < 64; ++J)
            Expected += hash64(I * 64 + J) & 7;
        }
        if (Sum.load() != Expected)
          Violations.fetch_add(1);
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
}

TEST(Concurrency, ServingSessionsVersusIngestStress) {
  // The full serving stack under TSan: external tenants flood the
  // admission queue with queries (worker-owned contexts, pinned tree + flat
  // epochs, lock-free acquireFlat fast path) while others stream write
  // batches that the worker holding the write class installs in
  // coalesced groups. Every pinned epoch must stay self-consistent;
  // shedding is the only allowed failure mode.
  const VertexId N = 1 << 10;
  auto Fixed = dedupEdges(symmetrize(uniformRandomEdges(N, 3000, 17)));
  HybridShardedGraphStore Store(4, N, Fixed);
  SnapshotServer::Options O;
  O.Workers = 3;
  O.ReadQueueCap = 256;
  O.WriteQueueCap = 32;
  SnapshotServer Server(Store, O);

  std::atomic<uint64_t> Violations{0};
  const size_t Tenants = 3, WriterThreads = 2;
  const size_t QueriesPer = 40, WritesPer = 12;
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < Tenants; ++T)
    Ts.emplace_back([&, T] {
      for (size_t I = 0; I < QueriesPer; ++I) {
        while (!Server.submitQuery([&](auto &QC) {
          // Tree pin and flat pin are separate epochs, but each must be
          // internally consistent (degree sum == its own edge count).
          auto &R = QC.snapshot();
          auto V = R.view();
          uint64_t Sum = 0;
          for (VertexId U = 0; U < N; ++U)
            Sum += V.degree(U);
          if (Sum != R.numEdges())
            Violations.fetch_add(1);
          auto F = QC.flat();
          if (F->view().numEdges() != F->NumEdges)
            Violations.fetch_add(1);
        }))
          std::this_thread::yield(); // shed: retry (bounded queue)
      }
    });
  for (size_t W = 0; W < WriterThreads; ++W)
    Ts.emplace_back([&, W] {
      for (size_t I = 0; I < WritesPer; ++I) {
        auto B = dedupEdges(symmetrize(
            uniformRandomEdges(N, 150, 9000 + W * WritesPer + I)));
        while (!(I % 2 ? Server.submitDelete(B) : Server.submitInsert(B)))
          std::this_thread::yield();
      }
    });
  for (auto &T : Ts)
    T.join();
  Server.drain();
  Server.stop();

  auto St = Server.stats();
  EXPECT_EQ(Violations.load(), 0u);
  EXPECT_EQ(St.QueriesDone, Tenants * QueriesPer);
  EXPECT_EQ(St.WritesDone, WriterThreads * WritesPer);
  EXPECT_EQ(St.QueryErrors, 0u);
  EXPECT_EQ(St.WriteErrors, 0u);
  EXPECT_EQ(Store.batchSeq(), uint64_t(WriterThreads * WritesPer));
}
