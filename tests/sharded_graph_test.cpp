//===- tests/sharded_graph_test.cpp - Sharded store consistency -----------===//
//
// The sharded versioned store (store/sharded_graph.h): hash-partition
// correctness, batch-ingest equivalence with a plain graph snapshot,
// epoch atomicity under concurrent writers and readers (no torn
// cross-shard cuts), exact reclamation at one shard and at four, and the
// differential guarantee that every algorithm over the store's View
// matches the single-snapshot result exactly.
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

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

using namespace aspen;

namespace {

using ES = CTreeSet<VertexId, DeltaByteCodec>;

std::vector<EdgePair> randomBatch(VertexId N, size_t K, uint64_t Seed) {
  return dedupEdges(symmetrize(uniformRandomEdges(N, K, Seed)));
}

/// Adjacency of \p V through the view's cursor surface.
template <class View>
std::vector<VertexId> adjacency(const View &V, VertexId U) {
  std::vector<VertexId> Out;
  for (auto C = V.neighborCursor(U); !C.done(); C.advance())
    Out.push_back(C.value());
  return Out;
}

} // namespace

/// Build \p Store over \p Edges at \p Shards shards and check it against
/// an independent std::set adjacency: every owned vertex below N and
/// every edge source is materialized exactly once, in its owning shard,
/// with exactly the reference neighbors, and every shard's trees pass
/// their structural audit.
template <class Store>
void expectBuildMatchesReference(size_t Shards, VertexId N,
                                 const std::vector<EdgePair> &Edges) {
  VertexId Universe = N;
  for (const EdgePair &E : Edges)
    Universe = std::max(Universe, VertexId(E.first + 1));
  std::vector<std::set<VertexId>> Ref(Universe);
  std::set<VertexId> Present;
  for (VertexId U = 0; U < N; ++U)
    Present.insert(U);
  uint64_t RefEdges = 0;
  for (const EdgePair &E : Edges) {
    RefEdges += Ref[E.first].insert(E.second).second;
    Present.insert(E.first);
  }

  Store St(Shards, N, Edges);
  ASSERT_EQ(St.numShards(), Shards);
  auto R = St.acquire();
  EXPECT_EQ(R.numEdges(), RefEdges);
  auto V = R.view();
  EXPECT_EQ(V.numVertices(), Universe);
  uint64_t ShardEdges = 0;
  size_t ShardVertices = 0;
  for (size_t Sh = 0; Sh < Shards; ++Sh) {
    EXPECT_TRUE(R.shard(Sh).checkInvariants()) << "shard " << Sh;
    ShardEdges += R.shard(Sh).numEdges();
    ShardVertices += R.shard(Sh).numVertices();
  }
  EXPECT_EQ(ShardEdges, RefEdges);
  EXPECT_EQ(ShardVertices, Present.size());
  for (VertexId U = 0; U < Universe; ++U) {
    EXPECT_EQ(R.shard(St.shardOf(U)).hasVertex(U), Present.count(U) == 1)
        << "vertex " << U;
    ASSERT_EQ(V.degree(U), Ref[U].size()) << "vertex " << U;
    ASSERT_EQ(adjacency(V, U),
              std::vector<VertexId>(Ref[U].begin(), Ref[U].end()))
        << "vertex " << U;
  }
}

TEST(ShardedGraph, BuildMatchesSingleStore) {
  const VertexId N = 1 << 10;
  auto Random = randomBatch(N, 6000, 1);
  // Every edge twice, plus a run of one repeated edge.
  auto Dups = uniformRandomEdges(N, 3000, 11);
  Dups.insert(Dups.end(), Dups.begin(), Dups.end());
  Dups.insert(Dups.end(), 50, EdgePair{5, 9});
  // Edges among the low half only: the high half stays isolated.
  auto Isolated = uniformRandomEdges(N / 2, 2000, 12);
  // N not a multiple of any shard count above one.
  const VertexId Odd = 1001;
  auto OddEdges = uniformRandomEdges(Odd, 4000, 13);
  // Sources at or above N still materialize, in their owning shard.
  std::vector<EdgePair> Beyond = {{3, 4}, {N + 5, 1}, {N + 5, 2}, {N + 2, 0}};

  struct Input {
    const char *Name;
    VertexId N;
    const std::vector<EdgePair> &Edges;
  };
  const std::vector<EdgePair> Empty;
  for (const Input &In :
       {Input{"random", N, Random}, Input{"dups", N, Dups},
        Input{"isolated", N, Isolated}, Input{"empty", N, Empty},
        Input{"odd-n", Odd, OddEdges}, Input{"beyond-n", N, Beyond}})
    for (size_t Shards : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string(In.Name) + " shards=" +
                   std::to_string(Shards));
      expectBuildMatchesReference<ShardedGraphStore>(Shards, In.N, In.Edges);
      expectBuildMatchesReference<HybridShardedGraphStore>(Shards, In.N,
                                                           In.Edges);
    }
  // fromEdges is the one-shard case of the same build.
  Graph Single = Graph::fromEdges(Odd, OddEdges);
  ShardedGraphStore One(1, Odd, OddEdges);
  auto R = One.acquire();
  for (VertexId U = 0; U < Odd; ++U)
    ASSERT_EQ(Single.findVertex(U).toVector(), adjacency(R.view(), U));
}

TEST(ShardedGraph, ShardsPartitionVertices) {
  const VertexId N = 512;
  auto Edges = randomBatch(N, 3000, 2);
  ShardedGraphStore Store(4, N, Edges);
  auto R = Store.acquire();
  // Every vertex is materialized in exactly its owning shard.
  std::vector<int> Seen(N, 0);
  for (size_t S = 0; S < Store.numShards(); ++S)
    R.shard(S).forEachVertex([&](VertexId V, const ES &) {
      EXPECT_EQ(Store.shardOf(V), S);
      ++Seen[V];
    });
  for (VertexId V = 0; V < N; ++V)
    EXPECT_EQ(Seen[V], 1) << "vertex " << V;
}

TEST(ShardedGraph, InsertDeleteBatchEquivalence) {
  const VertexId N = 1 << 10;
  auto Base = randomBatch(N, 4000, 3);
  auto B1 = randomBatch(N, 1500, 40);
  auto B2 = randomBatch(N, 800, 41);
  for (size_t Shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(Shards));
    Graph Single = Graph::fromEdges(N, Base);
    ShardedGraphStore Store(Shards, N, Base);
    Single = Single.insertEdges(B1);
    Store.insertBatch(B1);
    Single = Single.deleteEdges(B2);
    Store.deleteBatch(B2);
    Single = Single.insertEdges(B2);
    Store.insertBatch(B2);

    auto R = Store.acquire();
    EXPECT_EQ(R.batchSeq(), 3u);
    EXPECT_EQ(R.numEdges(), Single.numEdges());
    auto V = R.view();
    for (VertexId U = 0; U < N; ++U)
      ASSERT_EQ(adjacency(V, U), Single.findVertex(U).toVector())
          << "vertex " << U;
    for (size_t S = 0; S < Store.numShards(); ++S)
      EXPECT_TRUE(R.shard(S).checkInvariants());
  }
}

TEST(ShardedGraph, EmptyAndSubsetBatches) {
  const VertexId N = 256;
  ShardedGraphStore Store(4, N);
  EXPECT_EQ(Store.acquire().numEdges(), 0u);
  // Empty batch still advances the epoch atomically.
  EXPECT_EQ(Store.insertBatch(nullptr, 0), 1u);
  // A batch touching a single shard (sources all congruent mod 4).
  std::vector<EdgePair> OneShard;
  for (VertexId I = 0; I < 40; ++I)
    OneShard.push_back({VertexId(4 * I), VertexId(I + 1)});
  EXPECT_EQ(Store.insertBatch(OneShard), 2u);
  auto R = Store.acquire();
  EXPECT_EQ(R.numEdges(), OneShard.size());
  EXPECT_EQ(R.shard(0).numEdges(), OneShard.size());
  EXPECT_EQ(R.shard(1).numEdges(), 0u);
}

TEST(ShardedGraph, PinnedEpochSurvivesUpdates) {
  const VertexId N = 512;
  for (size_t Shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(Shards));
    ShardedGraphStore Store(Shards, N, randomBatch(N, 3000, 5));
    auto Old = Store.acquire();
    uint64_t OldEdges = Old.numEdges();
    auto OldAdj = adjacency(Old.view(), 7);
    for (int I = 0; I < 20; ++I)
      Store.insertBatch(randomBatch(N, 500, 100 + I));
    EXPECT_EQ(Old.numEdges(), OldEdges);
    EXPECT_EQ(adjacency(Old.view(), 7), OldAdj);
    auto Fresh = Store.acquire();
    EXPECT_GE(Fresh.numEdges(), OldEdges);
    EXPECT_EQ(Fresh.batchSeq(), 20u);
  }
}

TEST(ShardedGraph, RefMoveSemantics) {
  ShardedGraphStore Store(1, 4, {{0, 1}});
  auto R1 = Store.acquire();
  auto R2 = std::move(R1);
  EXPECT_FALSE(R1.valid());
  EXPECT_TRUE(R2.valid());
  EXPECT_EQ(R2.numEdges(), 1u);
  R2.reset();
  EXPECT_FALSE(R2.valid());
}

TEST(ShardedGraph, LeakFreeReclamation) {
  int64_t BaseBytes = liveCountedBytes();
  int64_t BaseNodes = totalPoolLiveBytes();
  for (size_t Shards : {1u, 4u}) {
    const VertexId N = 256;
    ShardedGraphStore Store(Shards, N, randomBatch(N, 2000, 6));
    for (int I = 0; I < 10; ++I) {
      auto Pin = Store.acquire(); // pin, update, release via scope exit
      Store.insertBatch(randomBatch(N, 300, 200 + I));
      Store.deleteBatch(randomBatch(N, 100, 300 + I));
    }
  }
  EXPECT_EQ(liveCountedBytes(), BaseBytes);
  EXPECT_EQ(totalPoolLiveBytes(), BaseNodes);
}

TEST(ShardedGraph, RefOutlivesStore) {
  int64_t BaseBytes = liveCountedBytes();
  int64_t BaseNodes = totalPoolLiveBytes();
  {
    const VertexId N = 256;
    ShardedGraphStore::Ref R;
    uint64_t Edges = 0;
    std::vector<VertexId> Adj;
    {
      ShardedGraphStore Store(4, N, randomBatch(N, 2000, 7));
      Store.insertBatch(randomBatch(N, 300, 8));
      R = Store.acquire();
      Edges = R.numEdges();
      Adj = adjacency(R.view(), 7);
    } // R still pins the store's current epoch
    ASSERT_TRUE(R.valid());
    EXPECT_EQ(R.batchSeq(), 1u);
    EXPECT_EQ(R.numEdges(), Edges);
    EXPECT_EQ(adjacency(R.view(), 7), Adj);
    for (size_t Sh = 0; Sh < R.numShards(); ++Sh)
      EXPECT_TRUE(R.shard(Sh).checkInvariants());
    EXPECT_GT(totalPoolLiveBytes(), BaseNodes);
    R.reset();
    EXPECT_EQ(totalPoolLiveBytes(), BaseNodes);
  }
  EXPECT_EQ(liveCountedBytes(), BaseBytes);
}

TEST(ShardedGraph, CheckpointNowOnMemoryStoreThrows) {
  ShardedGraphStore Store(2, 16, {{0, 1}});
  EXPECT_EQ(Store.durability(), nullptr);
  EXPECT_THROW(Store.checkpointNow(), std::logic_error);
  // The store is unharmed and keeps ingesting.
  EXPECT_EQ(Store.insertBatch({{1, 2}}), 1u);
  EXPECT_EQ(Store.acquire().numEdges(), 2u);
}

//===----------------------------------------------------------------------===
// Epoch atomicity: concurrent writers and readers, no torn cross-shard
// cuts. Batches are built so that the aggregate edge count identifies an
// exact set of whole batches; a reader observing anything else saw a torn
// epoch.
//===----------------------------------------------------------------------===

TEST(ShardedGraph, ConcurrentWritersNoTornEpochs) {
  const VertexId N = 1024;
  const size_t BatchSize = 128; // distinct edges per batch, all shards
  const int BatchesPerWriter = 20;
  const int Writers = 3;
  ShardedGraphStore Store(4, N);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Violations{0};

  // Writer W's batch B holds edges with globally unique ids, so every
  // published epoch's edge count must be a multiple of BatchSize, and the
  // per-shard counts must sum to it (consistent cut).
  auto MakeBatch = [&](int W, int B) {
    std::vector<EdgePair> Out;
    for (size_t J = 0; J < BatchSize; ++J) {
      uint64_t Id =
          (uint64_t(W) * BatchesPerWriter + uint64_t(B)) * BatchSize + J;
      Out.push_back({VertexId(Id % N), VertexId((Id / N) % N)});
    }
    return Out;
  };

  std::vector<std::thread> Ws;
  for (int W = 0; W < Writers; ++W)
    Ws.emplace_back([&, W] {
      for (int B = 0; B < BatchesPerWriter; ++B)
        Store.insertBatch(MakeBatch(W, B));
    });

  std::vector<std::thread> Rs;
  for (int R = 0; R < 3; ++R)
    Rs.emplace_back([&] {
      uint64_t LastSeq = 0;
      while (!Done.load()) {
        auto E = Store.acquire();
        uint64_t Edges = E.numEdges();
        if (Edges % BatchSize != 0)
          Violations.fetch_add(1); // torn epoch
        uint64_t ShardSum = 0;
        for (size_t S = 0; S < E.numShards(); ++S)
          ShardSum += E.shard(S).numEdges();
        if (ShardSum != Edges)
          Violations.fetch_add(1); // aggregate disagrees with the cut
        if (E.batchSeq() < LastSeq)
          Violations.fetch_add(1); // epochs must be monotone
        LastSeq = E.batchSeq();
      }
    });

  for (auto &T : Ws)
    T.join();
  Done.store(true);
  for (auto &T : Rs)
    T.join();
  EXPECT_EQ(Violations.load(), 0u);
  auto Final = Store.acquire();
  EXPECT_EQ(Final.batchSeq(), uint64_t(Writers) * BatchesPerWriter);
  EXPECT_EQ(Final.numEdges(),
            uint64_t(Writers) * BatchesPerWriter * BatchSize);
}

TEST(ShardedGraph, DisjointShardWritersCommitIndependently) {
  // Writers whose batches touch disjoint shards: both streams must land
  // completely, and every epoch is still a consistent cut.
  const VertexId N = 1024;
  ShardedGraphStore Store(4, N);
  const int PerWriter = 25;
  auto ShardBatch = [&](size_t Sh, int B) {
    // Sources congruent to Sh mod 4 only.
    std::vector<EdgePair> Out;
    for (VertexId J = 0; J < 32; ++J)
      Out.push_back({VertexId((uint64_t(B) * 32 + J) * 4 + Sh) % N,
                     VertexId(J + 1)});
    return dedupEdges(Out);
  };
  std::thread W0([&] {
    for (int B = 0; B < PerWriter; ++B)
      Store.insertBatch(ShardBatch(0, B));
  });
  std::thread W1([&] {
    for (int B = 0; B < PerWriter; ++B)
      Store.insertBatch(ShardBatch(2, B));
  });
  W0.join();
  W1.join();
  auto R = Store.acquire();
  EXPECT_EQ(R.batchSeq(), uint64_t(2 * PerWriter));
  EXPECT_EQ(R.shard(1).numEdges(), 0u);
  EXPECT_EQ(R.shard(3).numEdges(), 0u);
  uint64_t Sum = 0;
  for (size_t S = 0; S < 4; ++S)
    Sum += R.shard(S).numEdges();
  EXPECT_EQ(Sum, R.numEdges());
}

//===----------------------------------------------------------------------===
// Differential: every algorithm over a sharded view matches the
// single-store result exactly (same process, same worker count, so even
// floating-point accumulation orders agree).
//===----------------------------------------------------------------------===

namespace {

/// Pin the canonical (sequential) schedule for bit-exactness assertions:
/// float accumulations through CAS loops are order-nondeterministic under
/// real parallelism on BOTH views, so exact equality is only meaningful
/// on the canonical schedule.
struct SequentialScope {
  SequentialScope() { setSequentialMode(true); }
  ~SequentialScope() { setSequentialMode(false); }
};

} // namespace

TEST(ShardedGraph, AllAlgorithmsMatchSingleStoreExactly) {
  const VertexId N = 1 << 10;
  auto Edges = randomBatch(N, 8000, 7);
  Graph Single = Graph::fromEdges(N, Edges);
  ShardedGraphStore Store(4, N, Edges);
  auto R = Store.acquire();
  TreeGraphView<ES> SV(Single);
  auto DV = R.view();

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

TEST(ShardedGraph, IntegerAlgorithmsMatchUnderParallelism) {
  // Deterministic-result algorithms must agree on the real parallel
  // schedule too (schedule-dependent float orders excluded above).
  const VertexId N = 1 << 10;
  auto Edges = randomBatch(N, 8000, 8);
  Graph Single = Graph::fromEdges(N, Edges);
  ShardedGraphStore Store(4, N, Edges);
  auto R = Store.acquire();
  TreeGraphView<ES> SV(Single);
  auto DV = R.view();

  EXPECT_EQ(bfsDistances(SV, 3), bfsDistances(DV, 3));
  EXPECT_EQ(connectedComponents(SV), connectedComponents(DV));
  EXPECT_EQ(kCore(SV), kCore(DV));
  EXPECT_EQ(triangleCount(SV), triangleCount(DV));
  EXPECT_EQ(mis(SV), mis(DV));
  EXPECT_EQ(twoHop(SV, 11), twoHop(DV, 11));
  // BFS parents can differ under parallel CAS races; reachability must
  // not.
  auto PS = bfs(SV, 3);
  auto PD = bfs(DV, 3);
  ASSERT_EQ(PS.size(), PD.size());
  for (size_t I = 0; I < PS.size(); ++I)
    EXPECT_EQ(PS[I] == NoVertex, PD[I] == NoVertex) << "vertex " << I;
}

TEST(ShardedGraph, AlgorithmsMatchAfterConcurrentIngest) {
  // Stream batches in from a writer thread; a reader repeatedly pins an
  // epoch and checks one cheap differential against a single store built
  // from the same prefix (identified by the epoch's batch sequence).
  const VertexId N = 512;
  const int Batches = 12;
  std::vector<std::vector<EdgePair>> Stream;
  for (int B = 0; B < Batches; ++B)
    Stream.push_back(randomBatch(N, 400, 500 + B));

  ShardedGraphStore Store(4, N);
  std::thread Writer([&] {
    for (auto &B : Stream)
      Store.insertBatch(B);
  });

  std::atomic<uint64_t> Violations{0};
  std::thread Reader([&] {
    for (int I = 0; I < 40; ++I) {
      auto E = Store.acquire();
      uint64_t Seq = E.batchSeq();
      Graph Prefix = Graph::fromEdges(N, {});
      for (uint64_t B = 0; B < Seq; ++B)
        Prefix = Prefix.insertEdges(Stream[size_t(B)]);
      TreeGraphView<ES> PV(Prefix);
      if (connectedComponents(PV) != connectedComponents(E.view()))
        Violations.fetch_add(1);
      if (Prefix.numEdges() != E.numEdges())
        Violations.fetch_add(1);
    }
  });
  Writer.join();
  Reader.join();
  EXPECT_EQ(Violations.load(), 0u);
}
