//===- bench/bench_flat_snapshot.cpp - Table 6 + incremental refresh ------===//
//
// Section A reproduces Table 6: BFS running time without a flat snapshot
// (vertex lookups through the vertex tree) and with one (including the
// time to build the snapshot), plus the snapshot-construction time
// itself. Expected shape (paper): 1.12-1.34x speedup including
// construction; the flat snapshot costs 15-24% of the BFS time.
//
// Section B measures what makes flat views economical under streaming
// (DESIGN.md Section 4): per batch size (0.01% / 0.1% / 1% of n touched
// sources), the cost of a full from-scratch flat rebuild versus the
// writer's maintenance of a live flat: insertBatch on a store whose flat
// is live (the writer refreshes it after the batch and releases the one
// it superseded) against the same batch on a store nobody reads flat,
// timed in alternating order. The acceptance bar for the incremental
// path is >= 5x at <= 1% touched.
//
// Section C times the shape the server runs: a hybrid (and a C-tree)
// store at S=8 over rMAT at one scale above the small input, fed 10-edge
// symmetric rMAT batches, with the same live-against-cold insertBatch
// pair per batch, and the reader's acquireFlat() after it (a hit).
//
// Section D justifies the page-table geometry (DESIGN.md Section 4): the
// same per-shard refreshes, full builds and a flat BFS at several page
// sizes and directory fanouts; and the refresh-vs-rebuild crossover,
// timed at touched sets of n/64 .. n/2, which shows why a writer never
// needs to fall back to a rebuild.
//
// Metric trail: -json <path> writes every reported metric as flat JSON
// (BENCH_flat_snapshot.json is the committed trail; CI uploads it) and
// -compare <path> annotates rows against a previous file, following the
// bench_chunk_ops convention.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "algorithms/bfs.h"
#include "store/sharded_graph.h"

#include <algorithm>
#include <functional>
#include <memory>

using namespace aspen;

namespace {

//===----------------------------------------------------------------------===
// Section A: Table 6.
//===----------------------------------------------------------------------===

void runTable6(const BenchConfig &C, const std::vector<BenchInput> &Inputs) {
  printHeader("Table 6: BFS with and without flat snapshots");
  std::printf("%-12s %12s %12s %9s %12s\n", "Graph", "Without FS",
              "With FS", "Speedup", "FS Time");
  for (const BenchInput &In : Inputs) {
    Graph G = Graph::fromEdges(In.N, In.Edges);
    TreeGraphView TV(G);

    double Without = benchTime(C.Rounds, [&] { bfs(TV, 0); });
    double FsTime = benchTime(C.Rounds, [&] { FlatSnapshot FS(G); });
    double With = benchTime(C.Rounds, [&] {
      FlatSnapshot FS(G); // included in the with-FS time, as in the paper
      FlatGraphView FV(FS);
      bfs(FV, 0);
    });
    std::string Scope = "table6/" + In.Name;
    recordMetric(Scope + "/bfs_tree_s", Without);
    recordMetric(Scope + "/bfs_flat_incl_build_s", With);
    recordMetric(Scope + "/flat_build_s", FsTime);
    std::printf("%-12s %12s %12s %8.2fx %12s%s\n", In.Name.c_str(),
                fmtTime(Without).c_str(), fmtTime(With).c_str(),
                Without / With, fmtTime(FsTime).c_str(),
                compareSuffix(Scope + "/flat_build_s", FsTime).c_str());
  }
}

//===----------------------------------------------------------------------===
// Section B: rebuild vs incremental refresh per batch size.
//===----------------------------------------------------------------------===

/// A batch of ~K distinct-source undirected updates drawn from an rMAT
/// stream (realistic degree skew; symmetrized like every input).
std::vector<EdgePair> updateBatch(const BenchInput &In, size_t K,
                                  uint64_t Seq) {
  std::vector<EdgePair> Out;
  Out.reserve(2 * K);
  for (size_t I = 0; I < K; ++I) {
    // Deterministic picks from the input's own edges: updates hit
    // existing vertices with the graph's degree distribution.
    const EdgePair &E = In.Edges[size_t(hashAt(Seq, I) % In.Edges.size())];
    Out.push_back(E);
    Out.push_back({E.second, E.first});
  }
  return dedupEdges(std::move(Out));
}

/// Per-batch insertBatch times of two stores fed the same batches: \p Live,
/// whose flat is live (so each insert includes the writer's refresh and
/// the release of the flat it superseded), and \p Cold, read by nobody.
/// The two inserts alternate in order; Maintain gets their difference.
struct LivePair {
  std::vector<double> WithFlat, NoFlat, Maintain;

  template <class Store>
  void insert(Store &Live, Store &Cold, const std::vector<EdgePair> &Batch) {
    bool LiveFirst = WithFlat.size() % 2 == 0;
    double TL = 0, TC = 0;
    for (int I = 0; I < 2; ++I) {
      bool DoLive = (I == 0) == LiveFirst;
      Timer T;
      (DoLive ? Live : Cold).insertBatch(Batch);
      (DoLive ? TL : TC) = T.elapsed();
    }
    WithFlat.push_back(TL);
    NoFlat.push_back(TC);
    Maintain.push_back(TL - TC);
  }
};

void runRefresh(const BenchConfig &C, const std::vector<BenchInput> &Inputs) {
  printHeader("Incremental flat snapshots: full rebuild vs the writer's "
              "refresh + release");
  std::printf("%-12s %10s %9s %12s %12s %12s %12s %9s\n", "Graph", "Batch",
              "Touched", "Rebuild", "Insert+flat", "Insert", "Maintain",
              "Speedup");
  const double Fracs[] = {0.0001, 0.001, 0.01};
  const char *FracNames[] = {"0.01%", "0.1%", "1%"};
  const int Rounds = 4 * C.Rounds; // paired differences need more samples
  for (const BenchInput &In : Inputs) {
    for (int F = 0; F < 3; ++F) {
      size_t K = std::max<size_t>(1, size_t(double(In.N) * Fracs[F] / 2));
      ShardedGraphStore Live(1, In.N, In.Edges), Cold(1, In.N, In.Edges);
      (void)Live.acquireFlat(); // from here on its writers maintain it
      double RebuildT = benchTime(C.Rounds, [&] {
        FlatSnapshot FS(Live.acquire().shard(0));
      });

      LivePair P;
      uint64_t TouchedSum = 0;
      for (int R = 0; R < Rounds; ++R) {
        auto Batch = updateBatch(In, K, uint64_t(R) * 7919 + F);
        // The slots this refresh writes: distinct sources of the
        // (sorted, deduplicated) batch.
        for (size_t I = 0; I < Batch.size(); ++I)
          TouchedSum += (I == 0 || Batch[I].first != Batch[I - 1].first);
        P.insert(Live, Cold, Batch);
      }
      double WithT = percentile(P.WithFlat, 0.5);
      double NoT = percentile(P.NoFlat, 0.5);
      double MaintainT = percentile(P.Maintain, 0.5);
      auto Stats = Live.flatStats();
      bool AllRefreshed =
          Stats.Rebuilds == 1 && Stats.Refreshes == uint64_t(Rounds);
      std::string Scope =
          "refresh/" + In.Name + "/b" + FracNames[F];
      recordMetric(Scope + "/rebuild_s", RebuildT);
      recordMetric(Scope + "/insert_flat_s", WithT);
      recordMetric(Scope + "/insert_noflat_s", NoT);
      recordMetric(Scope + "/maintain_s", MaintainT);
      recordMetric(Scope + "/maintain_speedup", RebuildT / MaintainT);
      char Touched[32];
      std::snprintf(Touched, sizeof(Touched), "%llu",
                    static_cast<unsigned long long>(TouchedSum /
                                                    uint64_t(Rounds)));
      std::printf("%-12s %10s %9s %12s %12s %12s %12s %8.2fx%s%s\n",
                  In.Name.c_str(), FracNames[F], Touched,
                  fmtTime(RebuildT).c_str(), fmtTime(WithT).c_str(),
                  fmtTime(NoT).c_str(), fmtTime(MaintainT).c_str(),
                  RebuildT / MaintainT,
                  AllRefreshed ? "" : "  [not every batch refreshed]",
                  compareSuffix(Scope + "/maintain_s", MaintainT).c_str());
    }
  }
}

//===----------------------------------------------------------------------===
// Section C: the served shape.
//===----------------------------------------------------------------------===

/// 10-edge symmetric rMAT batches over \p In's vertex range: batch B is
/// edges [10B, 10B + 10) of a stream seeded apart from the base graph's.
std::vector<EdgePair> servedBatch(const BenchInput &In, uint64_t Seed,
                                  size_t B) {
  RMatGenerator Gen(int(detail::log2Floor(In.N)), Seed + 0x5e7);
  return dedupEdges(symmetrize(Gen.edges(uint64_t(B) * 10, 10)));
}

template <class Store>
void runServed(const BenchConfig &C, const BenchInput &In,
               const char *StoreName) {
  const size_t Batches = 100 * size_t(C.Rounds);
  Store Live(8, In.N, In.Edges), Cold(8, In.N, In.Edges);
  (void)Live.acquireFlat();
  LivePair P;
  std::vector<double> Pin;
  for (size_t B = 0; B < Batches; ++B) {
    P.insert(Live, Cold, servedBatch(In, C.Seed, B));
    std::shared_ptr<const typename Store::FlatEpoch> FE;
    Timer T;
    FE = Live.acquireFlat(); // the reader's pin: a hit
    Pin.push_back(T.elapsed());
  }
  auto Stats = Live.flatStats();
  bool AllRefreshed = Stats.Rebuilds == 1 && Stats.Refreshes == Batches &&
                      Stats.Hits == Batches;
  std::string Scope = std::string("served/") + StoreName + "/" + In.Name;
  double W50 = percentile(P.WithFlat, 0.5), W90 = percentile(P.WithFlat, 0.9);
  double N50 = percentile(P.NoFlat, 0.5), N90 = percentile(P.NoFlat, 0.9);
  double M50 = percentile(P.Maintain, 0.5);
  double M90 = percentile(P.Maintain, 0.9);
  double Pin50 = percentile(Pin, 0.5);
  recordMetric(Scope + "/insert_flat_s", W50);
  recordMetric(Scope + "/insert_flat_p90_s", W90);
  recordMetric(Scope + "/insert_noflat_s", N50);
  recordMetric(Scope + "/insert_noflat_p90_s", N90);
  recordMetric(Scope + "/maintain_s", M50);
  recordMetric(Scope + "/maintain_p90_s", M90);
  recordMetric(Scope + "/pin_s", Pin50);
  std::printf("%-20s %12s %12s %12s %12s %12s %12s%s%s\n",
              (std::string(StoreName) + "/" + In.Name).c_str(),
              fmtTime(W50).c_str(), fmtTime(W90).c_str(),
              fmtTime(N50).c_str(), fmtTime(M50).c_str(),
              fmtTime(M90).c_str(), fmtTime(Pin50).c_str(),
              AllRefreshed ? "" : "  [not every batch refreshed]",
              compareSuffix(Scope + "/maintain_s", M50).c_str());
}

//===----------------------------------------------------------------------===
// Section D: page-table geometry and the refresh/rebuild crossover.
//===----------------------------------------------------------------------===

/// A recorded run of epochs on an S=8 store with every step's per-shard
/// touched slots (looked up in the new epoch, as the merge records them),
/// so each geometry replays the identical refreshes.
template <class EdgeSet> struct EpochChain {
  using Store = ShardedGraphStoreT<EdgeSet>;
  std::unique_ptr<Store> St; // outlives the Refs below
  std::vector<typename Store::Ref> Epochs;
  std::vector<std::vector<std::vector<VertexSlot<EdgeSet>>>>
      Touched; // [step][shard]

  EpochChain(const BenchInput &In, size_t Steps,
             const std::function<std::vector<EdgePair>(size_t)> &BatchOf)
      : St(std::make_unique<Store>(8, In.N, In.Edges)) {
    Epochs.push_back(St->acquire());
    for (size_t K = 0; K < Steps; ++K) {
      std::vector<EdgePair> B = BatchOf(K); // sorted by source
      std::vector<std::vector<VertexId>> T(8);
      for (size_t I = 0; I < B.size(); ++I)
        if (I == 0 || B[I].first != B[I - 1].first)
          T[St->shardOf(B[I].first)].push_back(B[I].first);
      St->insertBatch(B);
      Epochs.push_back(St->acquire());
      std::vector<std::vector<VertexSlot<EdgeSet>>> Slots(8);
      for (size_t Sh = 0; Sh < 8; ++Sh)
        Slots[Sh] = Epochs.back().shard(Sh).slotsOf(T[Sh].data(),
                                                    T[Sh].size());
      Touched.push_back(std::move(Slots));
    }
  }
};

template <class EdgeSet, size_t PageBytes, size_t DirFanout>
void sweepOne(const BenchConfig &C, const char *StoreName,
              const EpochChain<EdgeSet> &Small,
              const EpochChain<EdgeSet> &Large,
              const GraphSnapshotT<EdgeSet> &Whole) {
  using FlatG = FlatSnapshotT<EdgeSet, PageBytes, DirFanout>;
  using Ref = typename ShardedGraphStoreT<EdgeSet>::Ref;
  const size_t S = 8;
  auto BuildAll = [&](const Ref &E) {
    std::vector<FlatG> Fs(S);
    parallelFor(0, S, [&](size_t Sh) {
      Fs[Sh] = FlatG(E.shard(Sh), detail::log2Floor(S));
    }, 1);
    return Fs;
  };
  // Median per-step refresh (as the writer runs it: untouched shards
  // shared wholesale) and median release of the superseded flats.
  auto Replay = [&](const EpochChain<EdgeSet> &Ch, double &ReleaseOut) {
    std::vector<FlatG> Cur = BuildAll(Ch.Epochs[0]);
    std::vector<double> Times, Releases;
    for (size_t K = 1; K < Ch.Epochs.size(); ++K) {
      std::vector<FlatG> Next(S);
      Timer T;
      parallelFor(0, S, [&](size_t Sh) {
        const GraphSnapshotT<EdgeSet> &Snap = Ch.Epochs[K].shard(Sh);
        if (Snap.root() == Cur[Sh].graph().root()) {
          Next[Sh] = Cur[Sh];
          return;
        }
        const std::vector<VertexSlot<EdgeSet>> &Tk = Ch.Touched[K - 1][Sh];
        Next[Sh] = FlatG::refresh(Cur[Sh], Snap, Tk.data(), Tk.size());
      }, 1);
      Times.push_back(T.elapsed());
      T.reset();
      Cur = std::move(Next); // the chain still pins every tree version
      Releases.push_back(T.elapsed());
    }
    ReleaseOut = percentile(Releases, 0.5);
    return percentile(Times, 0.5);
  };
  double BuildT = benchTime(C.Rounds, [&] { BuildAll(Small.Epochs[0]); });
  double ReleaseSmall = 0, ReleaseLarge = 0; // the 1% release goes unrecorded
  double RefreshSmall = Replay(Small, ReleaseSmall);
  double RefreshLarge = Replay(Large, ReleaseLarge);
  FlatG WholeFlat(Whole);
  FlatGraphView FV(WholeFlat);
  double BfsT = benchTime(C.Rounds, [&] { bfs(FV, 0); });

  char Geo[64];
  std::snprintf(Geo, sizeof(Geo), "p%zu-d%zu", PageBytes, DirFanout);
  std::string Scope = std::string("geometry/") + StoreName + "/" + Geo;
  recordMetric(Scope + "/build_s", BuildT);
  recordMetric(Scope + "/refresh_b10_s", RefreshSmall);
  recordMetric(Scope + "/release_b10_s", ReleaseSmall);
  recordMetric(Scope + "/refresh_b1%_s", RefreshLarge);
  recordMetric(Scope + "/bfs_flat_s", BfsT);
  std::printf("%-28s %6zu %10s %12s %12s %12s %12s%s\n",
              (std::string(StoreName) + "/" + Geo).c_str(), FlatG::PageSlots,
              fmtTime(BuildT).c_str(), fmtTime(RefreshSmall).c_str(),
              fmtTime(ReleaseSmall).c_str(), fmtTime(RefreshLarge).c_str(),
              fmtTime(BfsT).c_str(),
              compareSuffix(Scope + "/refresh_b10_s", RefreshSmall).c_str());
}

template <class EdgeSet>
void runGeometry(const BenchConfig &C, const BenchInput &In,
                 const char *StoreName) {
  // 10-edge batches (the served shape) and batches touching ~1% of the
  // vertices, both replayed identically for every geometry.
  EpochChain<EdgeSet> Small(In, 100, [&](size_t B) {
    return servedBatch(In, C.Seed, B);
  });
  size_t K1 = std::max<size_t>(1, size_t(In.N) / 200);
  EpochChain<EdgeSet> Large(In, size_t(2 * C.Rounds), [&](size_t B) {
    return updateBatch(In, K1, uint64_t(B) * 7919 + 11);
  });
  auto Whole = GraphSnapshotT<EdgeSet>::fromEdges(In.N, In.Edges);
  sweepOne<EdgeSet, 1024, 16>(C, StoreName, Small, Large, Whole);
  sweepOne<EdgeSet, 2048, 16>(C, StoreName, Small, Large, Whole);
  sweepOne<EdgeSet, 4096, 16>(C, StoreName, Small, Large, Whole);
  sweepOne<EdgeSet, 8192, 16>(C, StoreName, Small, Large, Whole);
  sweepOne<EdgeSet, 16384, 16>(C, StoreName, Small, Large, Whole);
  sweepOne<EdgeSet, 4096, 8>(C, StoreName, Small, Large, Whole);
  sweepOne<EdgeSet, 4096, 32>(C, StoreName, Small, Large, Whole);
  sweepOne<EdgeSet, 4096, 64>(C, StoreName, Small, Large, Whole);
  sweepOne<EdgeSet, 4096, 256>(C, StoreName, Small, Large, Whole);
}

/// Refresh of n / Den uniformly spread touched vertices (the successor is
/// the same snapshot, so every slot is rewritten but none changes)
/// against a full rebuild, at the default geometry. The slots are looked
/// up once, untimed: a store's refresh takes them from the merge. The
/// sweep runs to n/2, past any batch a writer would rather rebuild for.
template <class EdgeSet>
void runCrossover(const BenchConfig &C, const BenchInput &In,
                  const char *StoreName) {
  using FlatG = FlatSnapshotT<EdgeSet>;
  auto G = GraphSnapshotT<EdgeSet>::fromEdges(In.N, In.Edges);
  FlatG Base(G);
  double RebuildT = benchTime(C.Rounds, [&] { FlatG FS(G); });
  for (uint64_t Den : {64, 32, 16, 8, 4, 2}) {
    std::vector<VertexId> Keys;
    for (VertexId V = 0; V < In.N; ++V)
      if (hashAt(C.Seed + Den, V) % Den == 0)
        Keys.push_back(V);
    auto Slots = G.slotsOf(Keys.data(), Keys.size());
    double RefreshT = benchTime(C.Rounds, [&] {
      FlatG FS = FlatG::refresh(Base, G, Slots.data(), Slots.size());
    });
    std::string Scope = std::string("crossover/") + StoreName + "/" +
                        In.Name + "/n_over_" + std::to_string(Den);
    recordMetric(Scope + "/rebuild_s", RebuildT);
    recordMetric(Scope + "/refresh_slots_s", RefreshT);
    recordMetric(Scope + "/speedup_slots", RebuildT / RefreshT);
    std::printf("%-28s %10zu %12s %12s %8.2fx%s\n",
                (std::string(StoreName) + "/" + In.Name + " n/" +
                 std::to_string(Den)).c_str(),
                Keys.size(), fmtTime(RebuildT).c_str(),
                fmtTime(RefreshT).c_str(), RebuildT / RefreshT,
                compareSuffix(Scope + "/speedup_slots", RebuildT / RefreshT)
                    .c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  BenchConfig C = parseBenchConfig(Argc, Argv);
  // Sub-10ms BFS runs are noisy; more rounds stabilize the medians.
  if (C.Rounds < 5)
    C.Rounds = 5;
  auto Inputs = makeInputs(C);
  printEnvironment();

  std::string ComparePath = CL.getString("compare");
  if (!ComparePath.empty() && !loadBenchBaseline(ComparePath))
    std::fprintf(stderr, "warning: cannot read -compare file %s\n",
                 ComparePath.c_str());

  runTable6(C, Inputs);
  runRefresh(C, Inputs);

  BenchConfig Mid = C;
  Mid.LogN = C.LogN + 1;
  BenchInput Served = makeInput(Mid);
  printHeader("Served shape: S=8 store, 10-edge batches, insertBatch with "
              "a live flat vs without, and the reader's pin");
  std::printf("%-20s %12s %12s %12s %12s %12s %12s\n", "Store",
              "Ins+flat p50", "Ins+flat p90", "Insert p50", "Maintain p50",
              "Maintain p90", "Pin p50");
  runServed<HybridShardedGraphStore>(C, Served, "hybrid-s8");
  runServed<ShardedGraphStore>(C, Served, "ctree-s8");

  printHeader("Page-table geometry sweep (S=8 per-shard refresh, "
              "S=1 flat BFS)");
  std::printf("%-28s %6s %10s %12s %12s %12s %12s\n", "Geometry", "Slots",
              "Build", "Refresh b10", "Release b10", "Refresh b1%",
              "BFS flat");
  runGeometry<HybridEdgeSet>(C, Served, "hybrid-s8");
  runGeometry<CTreeSet<VertexId, DeltaByteCodec>>(C, Served, "ctree-s8");

  printHeader("Refresh vs rebuild crossover (S=1, uniform touched sets)");
  std::printf("%-28s %10s %12s %12s %9s\n", "Input", "Touched", "Rebuild",
              "Refresh", "Speedup");
  runCrossover<HybridEdgeSet>(C, Served, "hybrid");
  runCrossover<CTreeSet<VertexId, DeltaByteCodec>>(C, Served, "ctree");

  finishMetricTrail(CL);
  return 0;
}
