//===- bench/bench_concurrent.cpp - Table 7 + sharded ingest --------------===//
//
// Section A reproduces Table 7: one writer thread applies single edge
// updates (each an undirected edge = two directed updates in one batch)
// to a one-shard store while a query thread runs BFS from random sources
// on acquired snapshots. Reports update throughput (directed edges/sec),
// the average latency to make an edge visible, and the average BFS
// latency running concurrently with updates (C) versus in isolation (I).
//
// Section B measures the store (store/sharded_graph.h): batch ingest
// throughput at 1/2/4 shards (and 8 with -large) on rmat inputs, with
// -writers concurrent ingest threads, while a reader thread samples
// epoch-acquire + degree-probe latency percentiles and checks that every
// acquired epoch is a consistent cut (per-shard counts sum to the
// aggregate). Ingest work per shard runs in parallel, so the 4-shard /
// 1-shard ratio tracks the worker count.
//
// Metric trail: -json <path> writes every reported metric as flat JSON
// (BENCH_concurrent.json is the committed trail; CI uploads it), and
// -compare <path> annotates rows against a previous file, following the
// bench_chunk_ops convention.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "algorithms/bfs.h"
#include "store/sharded_graph.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace aspen;

namespace {

//===----------------------------------------------------------------------===
// Section A: Table 7 (single-edge updates vs concurrent BFS).
//===----------------------------------------------------------------------===

void runTable7(const BenchConfig &C, const BenchInput &In,
               size_t StreamLen) {
  // Sample StreamLen edges from the graph; delete the first 90% upfront
  // (they will be re-inserted), keep 10% in the graph (they will be
  // deleted during the stream).
  auto Perm = randomPermutation(In.Edges.size(), C.Seed + 5);
  size_t Sampled = std::min(StreamLen, In.Edges.size());
  std::vector<EdgePair> Inserts, Deletes;
  for (size_t I = 0; I < Sampled; ++I) {
    if (I < Sampled * 9 / 10)
      Inserts.push_back(In.Edges[Perm[I]]);
    else
      Deletes.push_back(In.Edges[Perm[I]]);
  }
  ShardedGraphStore Store(1, In.N, In.Edges);
  Store.deleteBatch(Inserts);

  // Build the mixed update stream (insert/delete ops in random order).
  struct Update {
    EdgePair E;
    bool Insert;
  };
  std::vector<Update> Stream;
  for (const EdgePair &E : Inserts)
    Stream.push_back({E, true});
  for (const EdgePair &E : Deletes)
    Stream.push_back({E, false});
  auto Shuffle = randomPermutation(Stream.size(), C.Seed + 6);
  std::vector<Update> Mixed(Stream.size());
  for (size_t I = 0; I < Stream.size(); ++I)
    Mixed[I] = Stream[Shuffle[I]];

  // Isolated BFS latency baseline.
  const int QueryRounds = 10;
  double Isolated;
  {
    auto V = Store.acquire();
    FlatSnapshot FS(V.shard(0));
    FlatGraphView FV(FS);
    Isolated = timeIt([&] {
      for (int I = 0; I < QueryRounds; ++I)
        bfs(FV, VertexId(hashAt(C.Seed, I) % In.N));
    }) / QueryRounds;
  }

  // Concurrent run: writer applies one undirected update at a time
  // (two directed edges per batch, as in the paper).
  std::atomic<bool> WriterDone{false};
  std::atomic<uint64_t> Updates{0};
  double WriterSeconds = 0;
  std::thread Writer([&] {
    Timer T;
    for (const Update &U : Mixed) {
      std::vector<EdgePair> Batch = {U.E, {U.E.second, U.E.first}};
      if (U.Insert)
        Store.insertBatch(Batch);
      else
        Store.deleteBatch(Batch);
      Updates.fetch_add(2, std::memory_order_relaxed);
    }
    WriterSeconds = T.elapsed();
    WriterDone.store(true);
  });

  double ConcurrentSum = 0;
  uint64_t ConcurrentQueries = 0;
  while (!WriterDone.load()) {
    auto V = Store.acquire();
    FlatSnapshot FS(V.shard(0));
    FlatGraphView FV(FS);
    ConcurrentSum += timeIt([&] {
      bfs(FV, VertexId(hashAt(C.Seed, ConcurrentQueries) % In.N));
    });
    ++ConcurrentQueries;
  }
  Writer.join();

  double UpdatesPerSec = double(Updates.load()) / WriterSeconds;
  double Latency = WriterSeconds / double(Mixed.size());
  double Concurrent = ConcurrentQueries
                          ? ConcurrentSum / double(ConcurrentQueries)
                          : 0.0;

  printHeader("Table 7: simultaneous updates and queries");
  std::printf("%-12s %16s %14s %14s %14s\n", "Graph", "Edges/sec",
              "Upd. latency", "BFS lat. (C)", "BFS lat. (I)");
  std::printf("%-12s %16s %14s %14s %14s\n", In.Name.c_str(),
              fmtRate(UpdatesPerSec).c_str(), fmtTime(Latency).c_str(),
              fmtTime(Concurrent).c_str(), fmtTime(Isolated).c_str());
  std::printf("\nconcurrent queries completed: %zu; query slowdown: %.1f%%\n",
              size_t(ConcurrentQueries),
              Isolated > 0 ? (Concurrent / Isolated - 1.0) * 100.0 : 0.0);
  recordMetric("table7/updates/edges_s", UpdatesPerSec);
  recordMetric("table7/bfs/concurrent_s", Concurrent);
  recordMetric("table7/bfs/isolated_s", Isolated);
}

//===----------------------------------------------------------------------===
// Section B: batch ingest across shard counts.
//===----------------------------------------------------------------------===

/// Escape hatch so the reader's degree probes aren't optimized away.
volatile uint64_t GProbeSink = 0;

struct IngestResult {
  double Seconds = 0;
  double P50 = 0, P95 = 0, P99 = 0;
  uint64_t ReaderViolations = 0;
  uint64_t Queries = 0;
};

/// Drive \p Writers threads over the batch stream (round-robin slices)
/// against \p Ingest, with one concurrent latency-sampling reader.
template <class IngestFn, class SampleFn>
IngestResult driveIngest(const std::vector<std::vector<EdgePair>> &Batches,
                         int Writers, const IngestFn &Ingest,
                         const SampleFn &Sample) {
  std::atomic<bool> Done{false};
  std::vector<double> Lat;
  uint64_t Violations = 0;
  std::thread Reader([&] {
    uint64_t Q = 0;
    while (!Done.load(std::memory_order_relaxed)) {
      Timer T;
      if (!Sample(Q))
        ++Violations;
      Lat.push_back(T.elapsed());
      ++Q;
    }
  });

  Timer T;
  std::vector<std::thread> Ws;
  for (int W = 0; W < Writers; ++W)
    Ws.emplace_back([&, W] {
      for (size_t B = size_t(W); B < Batches.size(); B += size_t(Writers))
        Ingest(Batches[B]);
    });
  for (auto &Th : Ws)
    Th.join();
  IngestResult R;
  R.Seconds = T.elapsed();
  Done.store(true);
  Reader.join();
  R.Queries = Lat.size();
  R.P50 = percentile(Lat, 0.50);
  R.P95 = percentile(Lat, 0.95);
  R.P99 = percentile(Lat, 0.99);
  R.ReaderViolations = Violations;
  return R;
}

void runShardedIngest(const BenchConfig &C, const BenchInput &In,
                      size_t BatchSize, size_t NumBatches, int Writers) {
  printHeader("sharded store: batch ingest across shard counts");
  std::printf("%zu batches x %zu directed edges, %d writer thread(s), "
              "%d worker(s)\n",
              NumBatches, BatchSize, Writers, numWorkers());

  // A fresh rmat stream (disjoint seed) provides the update batches.
  RMatGenerator Gen(C.LogN, C.Seed + 9);
  std::vector<std::vector<EdgePair>> Batches;
  for (size_t B = 0; B < NumBatches; ++B)
    Batches.push_back(Gen.edges(uint64_t(B) * BatchSize, BatchSize));
  uint64_t TotalEdges = uint64_t(NumBatches) * BatchSize;

  std::printf("%-18s %14s %12s %12s %12s %10s\n", "Store", "Edges/sec",
              "reader p50", "p95", "p99", "queries");

  double OneShardRate = 0;
  std::vector<size_t> ShardCounts = {1, 2, 4};
  if (C.Large)
    ShardCounts.push_back(8);
  for (size_t Shards : ShardCounts) {
    ShardedGraphStore Store(Shards, In.N, In.Edges);
    IngestResult R = driveIngest(
        Batches, Writers,
        [&](const std::vector<EdgePair> &B) { Store.insertBatch(B); },
        [&](uint64_t Q) {
          auto E = Store.acquire();
          auto V = E.view();
          uint64_t DegSum = 0;
          for (int I = 0; I < 64; ++I)
            DegSum += V.degree(VertexId(hashAt(C.Seed + Q, I) % In.N));
          GProbeSink += DegSum;
          // Consistency audit: the aggregate must equal the cut's sum.
          uint64_t ShardSum = 0;
          for (size_t S = 0; S < E.numShards(); ++S)
            ShardSum += E.shard(S).numEdges();
          return ShardSum == E.numEdges();
        });
    double Rate = double(TotalEdges) / R.Seconds;
    char Name[32];
    std::snprintf(Name, sizeof(Name), "sharded S=%zu", Shards);
    std::string Key =
        "ingest/sharded" + std::to_string(Shards) + "/edges_s";
    recordMetric(Key, Rate);
    recordMetric("ingest/sharded" + std::to_string(Shards) +
                     "/reader_p50_s",
                 R.P50);
    recordMetric("ingest/sharded" + std::to_string(Shards) +
                     "/reader_p99_s",
                 R.P99);
    std::printf("%-18s %14s %12s %12s %12s %10zu%s\n", Name,
                fmtRate(Rate).c_str(), fmtTime(R.P50).c_str(),
                fmtTime(R.P95).c_str(), fmtTime(R.P99).c_str(),
                size_t(R.Queries), compareSuffix(Key, Rate).c_str());
    if (R.ReaderViolations)
      std::printf("  !! %llu torn epochs observed\n",
                  (unsigned long long)R.ReaderViolations);
    if (Shards == 1)
      OneShardRate = Rate;
    if (Shards == 4 && OneShardRate > 0) {
      recordMetric("ingest/sharded4_vs_sharded1", Rate / OneShardRate);
      std::printf("\n4-shard / 1-shard ingest ratio: %.2fx\n",
                  Rate / OneShardRate);
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig C = parseBenchConfig(Argc, Argv);
  CommandLine CL(Argc, Argv);
  size_t StreamLen =
      size_t(CL.getInt("updates", 4000)); // single-edge updates
  size_t BatchSize = size_t(CL.getInt("batchsize", 100000));
  size_t NumBatches = size_t(CL.getInt("batches", 6));
  int Writers = int(CL.getInt("writers", 2));
  std::string ComparePath = CL.getString("compare");
  if (!ComparePath.empty() && !loadBenchBaseline(ComparePath))
    std::fprintf(stderr, "warning: cannot read -compare file %s\n",
                 ComparePath.c_str());

  BenchInput In = makeInput(C);
  printEnvironment();

  if (!CL.has("nosingle"))
    runTable7(C, In, StreamLen);
  if (!CL.has("nosharded"))
    runShardedIngest(C, In, BatchSize, NumBatches, Writers);

  finishMetricTrail(CL);
  return 0;
}
