//===- perfbench/aspen_perf.cpp - End-to-end serving benchmark ------------===//
//
// Three fixed-work workloads driven through the public serving API
// (SnapshotServerT over a hybrid 8-shard ShardedGraphStoreT, optionally
// durable), measured from outside the library:
//
//   tiny_stream     open loop: 10-edge insert batches + neighborhood
//                   queries on a memory-only store (the paper's headline
//                   small-batch path)
//   bulk_analytics  closed loop: two 50K-edge insert batches, then one
//                   batch deleting both; each write is followed by one BFS
//                   on the fresh flat snapshot
//   durable_stream  open loop: 1000-edge batches + light queries on a
//                   FsyncOnCommit store with automatic checkpoints
//
// Inputs come from --seed and are generated, together with every
// correctness reference, before any timer starts. A run is split into
// rounds; each round replays its slice of the streams on a freshly set-up
// store, and each end-to-end metric is its better quartile over the rounds.
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds, replays a slice through the isolation passes, writes
// the spans to --trace-out and prints the per-layer metrics. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
// perfbench/README.md defines every metric.
//
//===----------------------------------------------------------------------===//

#include "algorithms/bfs.h"
#include "gen/generators.h"
#include "memory/pool_allocator.h"
#include "parallel/scheduler.h"
#include "serve/server.h"
#include "util/hash.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace aspen;
namespace fs = std::filesystem;

namespace {

using Store = HybridShardedGraphStore;
using Server = SnapshotServerT<Store>;

//===----------------------------------------------------------------------===
// Workloads.
//===----------------------------------------------------------------------===

constexpr int LogN = 17;            ///< rMAT-17 base graph
constexpr uint64_t EdgeFactor = 8;  ///< ~1.7M directed base edges
constexpr size_t Shards = 8;
constexpr size_t TraceRounds = 6;    ///< --trace 1: untraced/traced pairs
constexpr int SetupReps = 3;         ///< setups per round
constexpr double LatencyLimitS = 1.0;  ///< open loop: slower = failed
constexpr double DrainLimitS = 0.5;    ///< open loop: backlog allowance
constexpr double IsoBudgetS = 2.0;     ///< isolation pass time budget

struct WorkloadSpec {
  const char *Name;
  bool Durable;
  bool ClosedLoop;
  size_t BatchEdges;
  double BatchesPerS;  ///< open loop: offered batch rate
  double QueriesPerS;  ///< open loop: offered query rate
  double StepsPerS;    ///< closed loop: (batch, BFS) steps per second run
  size_t ServerWorkers;
  int AspenWorkers;    ///< generator + ServerWorkers + AspenWorkers-1 <= 4
  size_t Rounds;       ///< --trace 0: rounds per run
};

const WorkloadSpec Workloads[] = {
    {"tiny_stream", false, false, 10, 1000, 4000, 0, 2, 1, 10},
    {"bulk_analytics", false, true, 50000, 0, 0, 18, 1, 3, 5},
    {"durable_stream", true, false, 1000, 50, 50, 0, 2, 1, 5},
};

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double usOf(int64_t Ns) { return double(Ns) * 1e-3; }

struct Pcts {
  double P50 = 0, P90 = 0, P99 = 0, Max = 0;
};

/// Nearest-rank \p P-quantile (0 for no values).
double quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t I = size_t(std::ceil(P * double(V.size())));
  return V[std::min(V.size() - 1, I ? I - 1 : 0)];
}

Pcts pcts(const std::vector<double> &V) {
  Pcts R;
  if (V.empty())
    return R;
  R.P50 = quantile(V, 0.50);
  R.P90 = quantile(V, 0.90);
  R.P99 = quantile(V, 0.99);
  R.Max = *std::max_element(V.begin(), V.end());
  return R;
}

uint64_t keyOf(EdgePair E) { return uint64_t(E.first) << 32 | E.second; }

//===----------------------------------------------------------------------===
// Inputs and references (built before any timer).
//===----------------------------------------------------------------------===

/// One write: insert or delete fresh batches Batch .. Batch + Count - 1.
struct Op {
  uint32_t Batch;
  bool Insert;
  uint32_t Count = 1;
};

struct Inputs {
  VertexId N = VertexId(1) << LogN;
  std::vector<EdgePair> Base;       ///< symmetrized, deduplicated rMAT
  std::vector<uint64_t> BaseKeys;   ///< sorted keys of Base
  std::vector<std::vector<EdgePair>> Fresh; ///< distinct edges not in Base
  std::vector<Op> Ops;              ///< the write stream
  std::vector<int64_t> OpDue;       ///< open loop: due offset (ns)
  std::vector<VertexId> QSrc;       ///< query sources
  std::vector<int64_t> QDue;        ///< open loop: due offset (ns)
  std::vector<uint64_t> RefReach;   ///< closed loop: BFS reach after op i
  std::vector<uint64_t> RefEdges;   ///< closed loop: edge count after op i

  /// The edges op \p O writes.
  std::vector<EdgePair> edgesOf(const Op &O) const {
    if (O.Count == 1)
      return Fresh[O.Batch];
    std::vector<EdgePair> E;
    for (uint32_t B = O.Batch; B < O.Batch + O.Count; ++B)
      E.insert(E.end(), Fresh[B].begin(), Fresh[B].end());
    return E;
  }
};

/// \p NumBatches symmetric batches of exactly \p B edges (B/2 undirected
/// rMAT edges, both directions) that are in neither the base graph nor
/// any other batch, so the edge count after k installed insert batches
/// is |Base| + k*B whatever order they install in. Symmetric like the
/// base graph, as the direction-optimizing BFS assumes.
std::vector<std::vector<EdgePair>>
freshBatches(const std::vector<uint64_t> &BaseKeys, uint64_t Seed,
             size_t NumBatches, size_t B) {
  RMatGenerator Gen(LogN, hash64(Seed) ^ 0x9e3779b97f4a7c15ULL);
  size_t Want = NumBatches * (B / 2);
  std::vector<EdgePair> Out; // undirected, normalized first < second
  Out.reserve(Want);
  std::vector<uint64_t> Taken;
  uint64_t At = 0;
  while (Out.size() < Want) {
    size_t Count = 2 * (Want - Out.size()) + 1024;
    std::vector<EdgePair> Cand = Gen.edges(At, Count);
    At += Count;
    std::vector<std::pair<uint64_t, uint32_t>> K(Cand.size());
    for (size_t I = 0; I < Cand.size(); ++I) {
      EdgePair &E = Cand[I];
      if (E.first > E.second)
        std::swap(E.first, E.second);
      K[I] = {keyOf(E), uint32_t(I)};
    }
    std::sort(K.begin(), K.end());
    std::vector<char> Keep(Cand.size(), 0);
    for (size_t I = 0; I < K.size(); ++I) {
      uint64_t Key = K[I].first;
      const EdgePair &E = Cand[K[I].second];
      if ((I && K[I - 1].first == Key) || E.first == E.second ||
          std::binary_search(BaseKeys.begin(), BaseKeys.end(), Key) ||
          std::binary_search(Taken.begin(), Taken.end(), Key))
        continue;
      Keep[K[I].second] = 1;
    }
    size_t Before = Out.size();
    for (size_t I = 0; I < Cand.size() && Out.size() < Want; ++I)
      if (Keep[I])
        Out.push_back(Cand[I]);
    for (size_t I = Before; I < Out.size(); ++I)
      Taken.push_back(keyOf(Out[I]));
    std::sort(Taken.begin(), Taken.end());
  }
  std::vector<std::vector<EdgePair>> Batches(NumBatches);
  for (size_t I = 0; I < NumBatches; ++I)
    for (size_t J = I * (B / 2); J < (I + 1) * (B / 2); ++J) {
      Batches[I].push_back(Out[J]);
      Batches[I].push_back({Out[J].second, Out[J].first});
    }
  return Batches;
}

/// Plain CSR for the reference BFS.
struct RefCsr {
  std::vector<uint64_t> Off;
  std::vector<VertexId> Dst;

  RefCsr(const std::vector<EdgePair> &E, VertexId N) : Off(N + 1, 0) {
    for (const EdgePair &P : E)
      ++Off[P.first + 1];
    for (VertexId V = 0; V < N; ++V)
      Off[V + 1] += Off[V];
    Dst.resize(E.size());
    std::vector<uint64_t> Pos(Off.begin(), Off.end() - 1);
    for (const EdgePair &P : E)
      Dst[Pos[P.first]++] = P.second;
  }
};

/// Vertices reachable from \p Src (itself included) over Base + Extra.
uint64_t refReach(const RefCsr &Base, const RefCsr *Extra, VertexId Src,
                  VertexId N) {
  std::vector<char> Seen(N, 0);
  std::vector<VertexId> Queue;
  Queue.reserve(N);
  Seen[Src] = 1;
  Queue.push_back(Src);
  for (size_t H = 0; H < Queue.size(); ++H) {
    VertexId U = Queue[H];
    for (const RefCsr *G : {&Base, Extra}) {
      if (!G)
        continue;
      for (uint64_t I = G->Off[U]; I < G->Off[U + 1]; ++I) {
        VertexId X = G->Dst[I];
        if (!Seen[X]) {
          Seen[X] = 1;
          Queue.push_back(X);
        }
      }
    }
  }
  return Queue.size();
}

Inputs makeInputs(const WorkloadSpec &W, uint64_t Seed, double Seconds) {
  Inputs In;
  In.Base = rmatGraphEdges(LogN, EdgeFactor, Seed);
  In.BaseKeys.resize(In.Base.size());
  for (size_t I = 0; I < In.Base.size(); ++I)
    In.BaseKeys[I] = keyOf(In.Base[I]); // dedupEdges sorts by (src, dst)

  // Query sources: uniform over the base graph's non-isolated vertices.
  std::vector<VertexId> Active;
  for (const EdgePair &E : In.Base)
    if (Active.empty() || Active.back() != E.first)
      Active.push_back(E.first);
  auto Source = [&](size_t J) {
    return Active[hashAt(Seed + 1, J) % Active.size()];
  };

  if (W.ClosedLoop) {
    // Cycles of three steps, each step a write then one BFS: insert fresh
    // batch 2c, insert fresh batch 2c+1, delete both again in one batch.
    // Both unionBC and diffBC run and the graph stays within Base + two
    // batches. Inserts and deletes take different times, so with as many
    // of each the ack p50 would sit on the gap between the two modes; at
    // two inserts per delete it falls inside the insert mode.
    size_t Steps = std::max<size_t>(3, size_t(W.StepsPerS * Seconds) / 3 * 3);
    In.Fresh = freshBatches(In.BaseKeys, Seed, Steps / 3 * 2, W.BatchEdges);
    for (size_t I = 0; I < Steps; ++I) {
      uint32_t C = uint32_t(I / 3), P = uint32_t(I % 3);
      In.Ops.push_back(P < 2 ? Op{2 * C + P, true} : Op{2 * C, false, 2});
      In.QSrc.push_back(Source(I));
      In.RefEdges.push_back(In.Base.size() + (P < 2 ? P + 1 : 0) * W.BatchEdges);
    }
    RefCsr BaseCsr(In.Base, In.N);
    In.RefReach.assign(Steps, 0);
    std::atomic<size_t> Next{0};
    std::vector<std::thread> Ts;
    for (int T = 0; T < 4; ++T)
      Ts.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < Steps;) {
          size_t P = I % 3;
          if (P < 2) {
            RefCsr Extra(In.edgesOf({uint32_t(I / 3 * 2), true, uint32_t(P + 1)}),
                         In.N);
            In.RefReach[I] = refReach(BaseCsr, &Extra, In.QSrc[I], In.N);
          } else {
            In.RefReach[I] = refReach(BaseCsr, nullptr, In.QSrc[I], In.N);
          }
        }
      });
    for (std::thread &T : Ts)
      T.join();
    return In;
  }

  // Open loop: batches and queries at fixed rates for Seconds; the query
  // schedule starts half a query interval after the batch schedule.
  size_t NB = size_t(std::llround(W.BatchesPerS * Seconds));
  size_t NQ = size_t(std::llround(W.QueriesPerS * Seconds));
  In.Fresh = freshBatches(In.BaseKeys, Seed, NB, W.BatchEdges);
  for (size_t K = 0; K < NB; ++K) {
    In.Ops.push_back({uint32_t(K), true});
    In.OpDue.push_back(int64_t(double(K) * 1e9 / W.BatchesPerS));
  }
  for (size_t J = 0; J < NQ; ++J) {
    In.QSrc.push_back(Source(J));
    In.QDue.push_back(int64_t((double(J) + 0.5) * 1e9 / W.QueriesPerS));
  }
  return In;
}

//===----------------------------------------------------------------------===
// Process-level measurements.
//===----------------------------------------------------------------------===

/// Reset the peak-RSS watermark (Linux clear_refs "5").
void resetPeakRss() {
  std::ofstream F("/proc/self/clear_refs");
  F << "5";
}

double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::vector<uint64_t> storeKeys(Store &S) {
  Store::Ref R = S.acquire();
  Store::View V = R.view();
  std::vector<uint64_t> K;
  K.reserve(R.numEdges());
  for (VertexId U = 0; U < V.numVertices(); ++U)
    V.mapNeighbors(U, [&](VertexId X) { K.push_back(uint64_t(U) << 32 | X); });
  std::sort(K.begin(), K.end());
  return K;
}

double bytesPerEdge(Store &S) {
  Store::Ref R = S.acquire();
  double Bytes = 0;
  for (size_t Sh = 0; Sh < R.numShards(); ++Sh)
    Bytes += double(R.shard(Sh).memoryBytes());
  return R.numEdges() ? Bytes / double(R.numEdges()) : 0.0;
}

//===----------------------------------------------------------------------===
// Rounds: each replays one slice of the input streams on a fresh store.
//===----------------------------------------------------------------------===

/// The part of the input streams one round replays.
struct Slice {
  size_t OpLo = 0, OpHi = 0; ///< write ops
  size_t QLo = 0, QHi = 0;   ///< queries (closed loop: one per op)
  int64_t Off = 0;           ///< open loop: due offset of the round start
};

std::vector<Slice> slices(const WorkloadSpec &W, const Inputs &In,
                          double Seconds, size_t Rounds) {
  std::vector<Slice> Out(Rounds);
  for (size_t R = 0; R < Rounds; ++R) {
    Slice &S = Out[R];
    if (W.ClosedLoop) {
      // Whole cycles: a round never splits inserts from their delete.
      size_t N = In.Ops.size();
      S.OpLo = S.QLo = N * R / Rounds / 3 * 3;
      S.OpHi = S.QHi = R + 1 == Rounds ? N : N * (R + 1) / Rounds / 3 * 3;
      continue;
    }
    int64_t Lo = int64_t(Seconds * 1e9 * double(R) / double(Rounds));
    int64_t Hi = int64_t(Seconds * 1e9 * double(R + 1) / double(Rounds));
    auto Idx = [](const std::vector<int64_t> &Due, int64_t T) {
      return size_t(std::lower_bound(Due.begin(), Due.end(), T) - Due.begin());
    };
    S.Off = Lo;
    S.OpLo = Idx(In.OpDue, Lo);
    S.OpHi = R + 1 == Rounds ? In.OpDue.size() : Idx(In.OpDue, Hi);
    S.QLo = Idx(In.QDue, Lo);
    S.QHi = R + 1 == Rounds ? In.QDue.size() : Idx(In.QDue, Hi);
  }
  return Out;
}

struct QRec {
  int64_t Due = 0, Send = 0, Start = 0, Pinned = 0, Done = 0;
  uint64_t Seq = 0, Edges = 0, Misses = 0, Result = 0;
  bool Admitted = false;
};

/// One trace span as a JSON line. Spans of one request share its id
/// (\p Kind + \p Id); \p Parent names the span that contains it.
void span(FILE *F, const char *Kind, size_t Id, const char *Parent,
          const char *Name, int64_t Start, int64_t End) {
  std::fprintf(F, "{\"request\":\"%s%zu\",", Kind, Id);
  if (Parent)
    std::fprintf(F, "\"parent\":\"%s\",", Parent);
  std::fprintf(F, "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
               Name, (long long)Start, (long long)End);
}

void querySpans(FILE *F, const char *Kind, size_t Id, const QRec &Rc) {
  span(F, Kind, Id, nullptr, "query", Rc.Due, Rc.Done);
  span(F, Kind, Id, "query", "serve.query_wait", Rc.Due, Rc.Start);
  span(F, Kind, Id, "query", "store.flat_pin", Rc.Start, Rc.Pinned);
  span(F, Kind, Id, "query", "algorithms.compute", Rc.Pinned, Rc.Done);
}

/// What one round measured. Traced rounds also fill the per-layer part.
struct RoundResult {
  uint64_t Attempted = 0, Failed = 0;
  bool Sustained = true;
  double SetupS = 0, PeakRssMb = 0, BytesPerEdge = 0;
  double IngestEdgesPerS = 0, QueriesPerS = 0;
  std::vector<double> AckUs, QueryUs, LateUs;
  std::vector<double> ServerAckUs; ///< send -> ack per write op (-1 = shed)
  // Traced only.
  std::vector<double> WaitUs, PinUs, ComputeUs, WalSyncUs;
  Server::Stats St;
  FlatMaintenanceStats Flat;
  uint64_t Ops = 0, AllocEvents = 0, CtxMisses = 0, Queries = 0;
  WalStats Wal;
  uint64_t WalEdges = 0, CkptCount = 0;
  double CkptBytes = 0, RecoverS = 0;
};

class Bench {
public:
  Bench(const WorkloadSpec &W, const Inputs &In, std::string WorkDir)
      : W(W), In(In), WorkDir(std::move(WorkDir)) {
    if (W.Durable)
      makeBaseDir();
  }

  RoundResult round(const Slice &Sl, bool Traced, FILE *Spans);

  struct Iso {
    std::vector<double> FrontUs, PrepUs, CommitUs;
    double Speedup = 0;
  };
  Iso isolation(const Slice &Sl, FILE *Spans);

private:
  DurabilityOptions durOpts(const std::string &Dir) const {
    DurabilityOptions O;
    O.Dir = Dir;
    O.FsyncOnCommit = true;
    O.CheckpointEveryBatches = CkptEvery;
    return O;
  }

  /// Durable base: the base graph as one batch plus a checkpoint, written
  /// once per process (input preparation, untimed). Every durable store
  /// opens a private copy of it.
  void makeBaseDir() {
    BaseDir = WorkDir + "/base";
    LiveDir = WorkDir + "/live";
    Store S(durOpts(BaseDir), Shards, In.N);
    S.insertBatch(In.Base);
    S.checkpointNow();
  }

  /// A fresh store holding the base graph. \p Seconds gets the timed
  /// part: the store build (or durable recovery) plus the first
  /// acquireFlat().
  std::unique_ptr<Store> openFresh(double &Seconds) {
    std::unique_ptr<Store> S;
    if (W.Durable) {
      // The store that used LiveDir before has been destroyed.
      fs::remove_all(LiveDir);
      fs::copy(BaseDir, LiveDir);
      int64_t T0 = nowNs();
      S = std::make_unique<Store>(durOpts(LiveDir), Shards, In.N);
      S->acquireFlat();
      Seconds = double(nowNs() - T0) * 1e-9;
    } else {
      std::vector<EdgePair> Edges = In.Base;
      int64_t T0 = nowNs();
      S = std::make_unique<Store>(Shards, In.N, std::move(Edges));
      S->acquireFlat();
      Seconds = double(nowNs() - T0) * 1e-9;
    }
    return S;
  }

  void runOpen(Store &S, Server &Srv, const Slice &Sl, bool Traced,
               RoundResult &R, FILE *Spans);
  void runClosed(Server &Srv, const Slice &Sl, bool Traced, RoundResult &R,
                 FILE *Spans);

  const WorkloadSpec &W;
  const Inputs &In;
  std::string WorkDir, BaseDir, LiveDir; ///< durable: base copy, live store
  uint64_t CkptEvery = 0;
  uint64_t BaseSeq = 0;
  std::vector<char> Installed; ///< per fresh batch: in the final state
};

RoundResult Bench::round(const Slice &Sl, bool Traced, FILE *Spans) {
  RoundResult R;
  // Durable: the round's one automatic checkpoint falls due at its last
  // batch. It runs after that batch's fsync, so it delays no ack; its
  // stall lands in the two rates, whose window ends at quiescence.
  CkptEvery = W.Durable ? Sl.OpHi - Sl.OpLo : 0;
  resetPeakRss();
  std::vector<double> Setup;
  std::unique_ptr<Store> S;
  for (int I = 0; I < SetupReps; ++I) {
    S.reset();
    double T = 0;
    S = openFresh(T);
    Setup.push_back(T);
  }
  R.SetupS = quantile(Setup, 0.5);
  // Durable: write out the set-ups' directory copies and deletions before
  // the timed part, so the WAL's fsyncs do not also flush them.
  if (W.Durable)
    ::sync();
  BaseSeq = S->batchSeq();
  Installed.assign(In.Fresh.size(), 0);

  Server::Options O;
  O.Workers = W.ServerWorkers;
  O.ReadQueueCap = size_t(1) << 16;
  O.WriteQueueCap = size_t(1) << 14;
  uint64_t Allocs0 = countedAllocEvents();
  FlatMaintenanceStats Flat0 = S->flatStats();
  {
    Server Srv(*S, O);
    if (W.ClosedLoop)
      runClosed(Srv, Sl, Traced, R, Spans);
    else
      runOpen(*S, Srv, Sl, Traced, R, Spans);
    R.St = Srv.stats();
    Srv.stop();
  }
  FlatMaintenanceStats Flat1 = S->flatStats();
  R.Flat.Hits = Flat1.Hits - Flat0.Hits;
  R.Flat.Refreshes = Flat1.Refreshes - Flat0.Refreshes;
  R.Flat.Rebuilds = Flat1.Rebuilds - Flat0.Rebuilds;
  R.AllocEvents = countedAllocEvents() - Allocs0;
  R.PeakRssMb = peakRssMb();
  R.BytesPerEdge = bytesPerEdge(*S);
  R.Failed += R.St.QueryErrors + R.St.WriteErrors;

  // Final state against the reference (outside every timer).
  std::vector<uint64_t> Added;
  for (size_t B = 0; B < In.Fresh.size(); ++B)
    if (Installed[B])
      for (const EdgePair &E : In.Fresh[B])
        Added.push_back(keyOf(E));
  std::sort(Added.begin(), Added.end());
  std::vector<uint64_t> Ref(In.BaseKeys.size() + Added.size());
  std::merge(In.BaseKeys.begin(), In.BaseKeys.end(), Added.begin(),
             Added.end(), Ref.begin());
  ++R.Attempted;
  if (storeKeys(*S) != Ref) {
    std::printf("# FAIL final store differs from the reference\n");
    ++R.Failed;
  }

  if (W.Durable) {
    if (Traced) {
      size_t Files = 0;
      for (const auto &E : fs::directory_iterator(LiveDir))
        if (E.path().filename().string().rfind("ckpt-", 0) == 0) {
          R.CkptBytes += double(E.file_size());
          ++Files;
        }
      R.CkptBytes = Files ? R.CkptBytes / double(Files) : 0;
    }
    // Reopen the directory: recovery must reproduce the reference.
    S.reset();
    int64_t T0 = nowNs();
    Store Re(durOpts(LiveDir), Shards, In.N);
    R.RecoverS = double(nowNs() - T0) * 1e-9;
    ++R.Attempted;
    if (storeKeys(Re) != Ref) {
      std::printf("# FAIL recovered store differs from the reference\n");
      ++R.Failed;
    }
  }
  return R;
}

void Bench::runOpen(Store &S, Server &Srv, const Slice &Sl, bool Traced,
                    RoundResult &R, FILE *Spans) {
  // Local indices: batch k is op Sl.OpLo + k, query j is Sl.QLo + j.
  const size_t NB = Sl.OpHi - Sl.OpLo, NQ = Sl.QHi - Sl.QLo;
  auto OpDue = [&](size_t K) { return In.OpDue[Sl.OpLo + K] - Sl.Off; };
  auto QDue = [&](size_t J) { return In.QDue[Sl.QLo + J] - Sl.Off; };
  std::vector<QRec> Q(NQ);
  std::vector<int64_t> BSend(NB, 0);
  std::vector<uint32_t> Admitted; // batches in admission order
  Admitted.reserve(NB);
  std::vector<int64_t> AckNs(NB, 0), SeqNs(NB, 0);
  size_t Acked = 0, SeqSeen = 0;
  std::atomic<uint64_t> QDone{0};
  uint64_t QAdmitted = 0, Shed = 0;

  DurabilityEngine *D = S.durability();
  uint64_t DurMax = BaseSeq, LastCkpt = D ? D->lastCheckpointSeq() : 0;
  int64_t LastDurPoll = 0;
  WalStats WalPrev;
  auto AddWal = [&](const WalStats &Ws) {
    R.Wal.Appends += Ws.Appends;
    R.Wal.GroupCommits += Ws.GroupCommits;
    R.Wal.BytesWritten += Ws.BytesWritten;
  };

  // Record acknowledgements: the k-th acknowledged batch is matched with
  // the k-th admitted one (the ingest front acknowledges in FIFO order).
  // Durable acks are detected through durableSeq(), which restarts at
  // every WAL rotation, hence the running max; walStats() restarts too,
  // so it is accumulated across rotations.
  auto Poll = [&](int64_t Now) {
    uint64_t Pub = S.batchSeq() - BaseSeq;
    if (Traced)
      while (SeqSeen < Pub && SeqSeen < Admitted.size())
        SeqNs[SeqSeen++] = Now;
    uint64_t Ack = Pub;
    if (D) {
      if (Now - LastDurPoll >= 5000) {
        LastDurPoll = Now;
        DurMax = std::max(DurMax, D->durableSeq());
        if (Traced) {
          WalStats Ws = D->walStats();
          if (Ws.Appends < WalPrev.Appends)
            AddWal(WalPrev);
          WalPrev = Ws;
          uint64_t C = D->lastCheckpointSeq();
          R.CkptCount += C != LastCkpt;
          LastCkpt = C;
        }
      }
      Ack = std::min(Pub, DurMax - BaseSeq);
    }
    while (Acked < Ack && Acked < Admitted.size())
      AckNs[Acked++] = Now;
  };

  // Neighborhood query: flat pin, then the degree of each neighbor.
  auto Neighborhood = [&](Server::QueryContext &QC, size_t J) {
    QRec &Rc = Q[J];
    if (Traced)
      Rc.Start = nowNs();
    uint64_t M0 = QC.ctx().missCount();
    const auto &F = QC.flat();
    if (Traced)
      Rc.Pinned = nowNs();
    Store::FlatView V = F->view();
    VertexId Src = In.QSrc[Sl.QLo + J];
    uint64_t Sum = V.degree(Src);
    V.mapNeighbors(Src, [&](VertexId U) { Sum += V.degree(U); });
    Rc.Result = Sum;
    Rc.Seq = F->BatchSeq;
    Rc.Edges = F->NumEdges;
    Rc.Misses = QC.ctx().missCount() - M0;
    Rc.Done = nowNs();
    QDone.fetch_add(1, std::memory_order_release);
  };

  const int64_t T0 = nowNs() + 2000000;
  size_t BI = 0, QI = 0;
  while (BI < NB || QI < NQ) {
    int64_t DB = BI < NB ? T0 + OpDue(BI) : INT64_MAX;
    int64_t DQ = QI < NQ ? T0 + QDue(QI) : INT64_MAX;
    int64_t Now = nowNs();
    if (Now < std::min(DB, DQ)) {
      Poll(Now);
      continue;
    }
    if (DB <= DQ) {
      const Op &Wr = In.Ops[Sl.OpLo + BI];
      std::vector<EdgePair> E = In.edgesOf(Wr);
      BSend[BI] = nowNs();
      if (Srv.submitInsert(std::move(E))) {
        Admitted.push_back(uint32_t(BI));
        Installed[Wr.Batch] = 1;
      } else {
        ++Shed;
      }
      ++BI;
    } else {
      size_t J = QI++;
      Q[J].Due = DQ;
      Q[J].Send = nowNs();
      if (Srv.submitQuery([&Neighborhood, J](Server::QueryContext &QC) {
            Neighborhood(QC, J);
          })) {
        Q[J].Admitted = true;
        ++QAdmitted;
      } else {
        ++Shed;
      }
    }
  }

  // Drain: everything admitted must complete. A backlog that outlives
  // the schedule by more than DrainLimitS means the offered rate was not
  // sustained.
  const int64_t LastDue =
      T0 + std::max(NB ? OpDue(NB - 1) : 0, NQ ? QDue(NQ - 1) : 0);
  const int64_t GiveUp = nowNs() + int64_t(30e9);
  for (int64_t Now = nowNs();
       (Acked < Admitted.size() ||
        QDone.load(std::memory_order_acquire) < QAdmitted) &&
       Now < GiveUp;
       Now = nowNs())
    Poll(Now);
  Srv.drain();
  Poll(nowNs() + 5000);
  const int64_t Quiet = nowNs(); // every request done, checkpoint included
  int64_t LastDone = 0;
  for (size_t K = 0; K < Acked; ++K)
    LastDone = std::max(LastDone, AckNs[K]);
  for (const QRec &Rc : Q)
    LastDone = std::max(LastDone, Rc.Done);
  R.Sustained = LastDone - LastDue <= int64_t(DrainLimitS * 1e9);

  R.Ops = NB + NQ;
  if (Traced && D) {
    WalStats Ws = D->walStats();
    if (Ws.Appends < WalPrev.Appends)
      AddWal(WalPrev);
    AddWal(Ws);
    R.WalEdges = Acked * W.BatchEdges;
  }

  // Latencies, failures and the per-query epoch check: a query pinned at
  // BatchSeq s must see |Base| + (s - BaseSeq) * BatchEdges edges. Each
  // request counts as failed at most once: when it never finished, took
  // longer than LatencyLimitS, finished past the drain allowance (a
  // growing backlog does not get its latencies reported as valid) or, for
  // a query, saw the wrong edge count.
  auto Bad = [&](int64_t Due, int64_t Done) {
    return !Done || Done - Due > int64_t(LatencyLimitS * 1e9) ||
           Done - LastDue > int64_t(DrainLimitS * 1e9);
  };
  const uint64_t BaseEdges = In.Base.size();
  R.Attempted += NB + NQ;
  uint64_t Wrong = 0, Failed = Shed;
  R.ServerAckUs.assign(NB, -1.0);
  for (size_t K = 0; K < Admitted.size(); ++K) {
    size_t B = Admitted[K];
    int64_t Due = T0 + OpDue(B);
    if (Bad(Due, K < Acked ? AckNs[K] : 0))
      ++Failed;
    if (K >= Acked)
      continue;
    R.AckUs.push_back(usOf(AckNs[K] - Due));
    R.LateUs.push_back(usOf(BSend[B] - Due));
    R.ServerAckUs[B] = usOf(AckNs[K] - BSend[B]);
    if (Traced && D)
      R.WalSyncUs.push_back(usOf(AckNs[K] - SeqNs[K]));
    if (Spans) {
      size_t Id = Sl.OpLo + B;
      span(Spans, "b", Id, nullptr, "batch", Due, AckNs[K]);
      span(Spans, "b", Id, "batch", "gen.late", Due, BSend[B]);
      span(Spans, "b", Id, "batch", "serve.install", BSend[B], SeqNs[K]);
      if (D)
        span(Spans, "b", Id, "batch", "store.wal_sync", SeqNs[K], AckNs[K]);
    }
  }
  for (size_t J = 0; J < NQ; ++J) {
    const QRec &Rc = Q[J];
    if (!Rc.Admitted)
      continue;
    bool IsWrong = Rc.Done && (Rc.Seq < BaseSeq ||
                               Rc.Edges != BaseEdges +
                                               (Rc.Seq - BaseSeq) * W.BatchEdges);
    Wrong += IsWrong;
    if (IsWrong || Bad(Rc.Due, Rc.Done))
      ++Failed;
    if (!Rc.Done)
      continue;
    R.QueryUs.push_back(usOf(Rc.Done - Rc.Due));
    R.LateUs.push_back(usOf(Rc.Send - Rc.Due));
    R.CtxMisses += Rc.Misses;
    ++R.Queries;
    if (Traced) {
      R.WaitUs.push_back(usOf(Rc.Start - Rc.Due));
      R.PinUs.push_back(usOf(Rc.Pinned - Rc.Start));
      R.ComputeUs.push_back(usOf(Rc.Done - Rc.Pinned));
    }
    if (Spans)
      querySpans(Spans, "q", Sl.QLo + J, Rc);
  }
  if (Wrong)
    std::printf("# FAIL %llu queries saw an edge count off the reference\n",
                (unsigned long long)Wrong);
  if (!R.Sustained)
    std::printf("# FAIL offered rate not sustained (backlog drained %.3f s "
                "after the schedule)\n",
                double(LastDone - LastDue) * 1e-9);
  R.Failed += Failed;
  // Open loop: rates from the first due time to quiescence.
  const double WindowS = double(Quiet - T0) * 1e-9;
  R.IngestEdgesPerS = double(Acked * W.BatchEdges) / WindowS;
  R.QueriesPerS = double(R.Queries) / WindowS;
}

void Bench::runClosed(Server &Srv, const Slice &Sl, bool Traced,
                      RoundResult &R, FILE *Spans) {
  const size_t NS = Sl.OpHi - Sl.OpLo;
  std::vector<QRec> Q(NS);
  uint64_t Wrong = 0, Failed = 0, AckEdges = 0;
  double AckSum = 0, QSum = 0;

  // BFS from the step's source on the fresh flat snapshot.
  auto Bfs = [&](Server::QueryContext &QC, size_t I) {
    QRec &Rc = Q[I];
    if (Traced)
      Rc.Start = nowNs();
    uint64_t M0 = QC.ctx().missCount();
    const auto &F = QC.flat();
    if (Traced)
      Rc.Pinned = nowNs();
    std::vector<VertexId> Parents =
        bfs(F->view(), In.QSrc[Sl.QLo + I], QC.ctx());
    uint64_t Reach = 0;
    for (VertexId P : Parents)
      Reach += P != NoVertex;
    Rc.Result = Reach;
    Rc.Seq = F->BatchSeq;
    Rc.Edges = F->NumEdges;
    Rc.Misses = QC.ctx().missCount() - M0;
    Rc.Done = nowNs();
  };

  R.ServerAckUs.assign(NS, -1.0);
  for (size_t I = 0; I < NS; ++I) {
    const Op &Wr = In.Ops[Sl.OpLo + I];
    std::vector<EdgePair> E = In.edgesOf(Wr);
    const size_t NumEdges = E.size();
    int64_t Send = nowNs();
    bool Ok = Wr.Insert ? Srv.submitInsert(std::move(E))
                        : Srv.submitDelete(std::move(E));
    if (!Ok) {
      ++Failed;
      continue;
    }
    // Closed loop: the batch is the only request in flight, so drain()
    // returns at its acknowledgement (the generator blocks, leaving the
    // cores to the server and the scheduler).
    Srv.drain();
    int64_t Ack = nowNs();
    for (uint32_t B = Wr.Batch; B < Wr.Batch + Wr.Count; ++B)
      Installed[B] = Wr.Insert;
    R.AckUs.push_back(usOf(Ack - Send));
    R.ServerAckUs[I] = usOf(Ack - Send);
    AckSum += double(Ack - Send) * 1e-9;
    AckEdges += NumEdges;

    QRec &Rc = Q[I];
    Rc.Due = Rc.Send = nowNs();
    if (!Srv.submitQuery([&Bfs, I](Server::QueryContext &QC) { Bfs(QC, I); })) {
      ++Failed;
      continue;
    }
    Rc.Admitted = true;
    Srv.drain();
    double Us = usOf(Rc.Done - Rc.Send);
    R.QueryUs.push_back(Us);
    QSum += Us * 1e-6;
    Wrong += Rc.Result != In.RefReach[Sl.OpLo + I] ||
             Rc.Edges != In.RefEdges[Sl.OpLo + I];
    R.CtxMisses += Rc.Misses;
    ++R.Queries;
    if (Traced) {
      R.WaitUs.push_back(usOf(Rc.Start - Rc.Send));
      R.PinUs.push_back(usOf(Rc.Pinned - Rc.Start));
      R.ComputeUs.push_back(usOf(Rc.Done - Rc.Pinned));
    }
    if (Spans) {
      span(Spans, "s", Sl.OpLo + I, nullptr, "batch", Send, Ack);
      querySpans(Spans, "s", Sl.OpLo + I, Rc);
    }
  }
  R.Ops = 2 * NS;
  if (Wrong)
    std::printf("# FAIL %llu BFS answers differ from the reference\n",
                (unsigned long long)Wrong);
  R.Attempted += 2 * NS;
  R.Failed += Failed + Wrong;
  // Closed loop: rates over the time each request type was in flight.
  R.IngestEdgesPerS = AckSum > 0 ? double(AckEdges) / AckSum : 0;
  R.QueriesPerS = QSum > 0 ? double(R.QueryUs.size()) / QSum : 0;
}

/// Isolation passes: the slice's write stream replayed with no server
/// and no queries, (A) through IngestFrontT::insertBatch, (B) through
/// prepareSpans + commitPrepared, and (C) as B under sequential mode.
/// Pass A runs for at most IsoBudgetS; B and C replay the same prefix.
Bench::Iso Bench::isolation(const Slice &Sl, FILE *Spans) {
  Iso R;
  double Ignored = 0;
  size_t M = 0;
  std::vector<std::array<int64_t, 2>> FrontNs;
  std::vector<std::array<int64_t, 3>> PcNs;
  {
    std::unique_ptr<Store> S = openFresh(Ignored);
    IngestFrontT<Store> Front(*S);
    int64_t Stop = nowNs() + int64_t(IsoBudgetS * 1e9);
    for (; Sl.OpLo + M < Sl.OpHi && nowNs() < Stop; ++M) {
      const Op &Wr = In.Ops[Sl.OpLo + M];
      const std::vector<EdgePair> E = In.edgesOf(Wr);
      int64_t T0 = nowNs();
      if (Wr.Insert)
        Front.insertBatch(E);
      else
        Front.deleteBatch(E);
      int64_t T1 = nowNs();
      R.FrontUs.push_back(usOf(T1 - T0));
      FrontNs.push_back({T0, T1});
    }
  }
  auto PrepareCommit = [&](bool Record) {
    std::unique_ptr<Store> S = openFresh(Ignored);
    int64_t Total = 0;
    for (size_t I = 0; I < M; ++I) {
      const Op &Wr = In.Ops[Sl.OpLo + I];
      const std::vector<EdgePair> E = In.edgesOf(Wr);
      EdgeSpan Sp{E.data(), E.size()};
      int64_t T0 = nowNs();
      Store::PreparedIngest P = S->prepareSpans(&Sp, 1, Wr.Insert);
      int64_t T1 = nowNs();
      S->commitPrepared(std::move(P));
      int64_t T2 = nowNs();
      Total += T2 - T0;
      if (Record) {
        R.PrepUs.push_back(usOf(T1 - T0));
        R.CommitUs.push_back(usOf(T2 - T1));
        PcNs.push_back({T0, T1, T2});
      }
    }
    return double(Total);
  };
  double Par = PrepareCommit(true);
  setSequentialMode(true);
  double Seq = PrepareCommit(false);
  setSequentialMode(false);
  R.Speedup = Par > 0 ? Seq / Par : 0;
  if (Spans) {
    for (size_t K = 0; K < FrontNs.size(); ++K)
      span(Spans, "iso", K, nullptr, "iso.front", FrontNs[K][0], FrontNs[K][1]);
    for (size_t K = 0; K < PcNs.size(); ++K) {
      span(Spans, "iso", K, nullptr, "store.prepare", PcNs[K][0], PcNs[K][1]);
      span(Spans, "iso", K, nullptr, "store.commit", PcNs[K][1], PcNs[K][2]);
    }
  }
  return R;
}

//===----------------------------------------------------------------------===
// Reporting.
//===----------------------------------------------------------------------===

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  double AcrossRounds = 0.5; ///< end-to-end: quantile taken over rounds
};

void emit(uint64_t Attempted, uint64_t Failed, bool Correct,
          const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-32s %14.4f %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(),
                std::isfinite(Ms[I].Value) ? Ms[I].Value : 0.0, Ms[I].Unit);
  std::printf("}}\n");
}

/// The end-to-end metrics of one round. Noise from other tenants of the
/// machine only ever adds time, so a run reports each metric's better
/// quartile over its rounds: the lower one, or the upper one for the two
/// rates. It stays put while up to three quarters of the rounds land in a
/// burst of noise, and it still moves with a change that slows every
/// round. setup_s, itself a median of set-ups, stays the median.
std::vector<Metric> endToEnd(const RoundResult &R) {
  Pcts A = pcts(R.AckUs), Q = pcts(R.QueryUs);
  return {{"setup_s", R.SetupS, "s", 0.5},
          {"ingest_ack_p50_us", A.P50, "us", 0.25},
          {"ingest_ack_p90_us", A.P90, "us", 0.25},
          {"ingest_edges_per_s", R.IngestEdgesPerS, "1/s", 0.75},
          {"query_p50_us", Q.P50, "us", 0.25},
          {"query_p90_us", Q.P90, "us", 0.25},
          {"queries_per_s", R.QueriesPerS, "1/s", 0.75},
          {"bytes_per_edge", R.BytesPerEdge, "B", 0.25},
          {"peak_rss_mb", R.PeakRssMb, "MB", 0.25}};
}

std::vector<Metric> acrossRounds(const std::vector<RoundResult> &Rs) {
  std::vector<Metric> Out = endToEnd(Rs.front());
  for (size_t M = 0; M < Out.size(); ++M) {
    std::vector<double> V;
    for (const RoundResult &R : Rs)
      V.push_back(endToEnd(R)[M].Value);
    Out[M].Value = quantile(V, Out[M].AcrossRounds);
  }
  return Out;
}

template <class T> void append(std::vector<T> &To, const std::vector<T> &From) {
  To.insert(To.end(), From.begin(), From.end());
}

std::vector<Metric> perLayer(const std::vector<RoundResult> &Untraced,
                             const std::vector<RoundResult> &Traced,
                             const Bench::Iso &I) {
  // Pool the traced rounds.
  RoundResult T;
  std::vector<double> Recover;
  for (const RoundResult &R : Traced) {
    append(T.AckUs, R.AckUs);
    append(T.QueryUs, R.QueryUs);
    append(T.LateUs, R.LateUs);
    append(T.WaitUs, R.WaitUs);
    append(T.PinUs, R.PinUs);
    append(T.ComputeUs, R.ComputeUs);
    append(T.WalSyncUs, R.WalSyncUs);
    T.St.Front.Submitted += R.St.Front.Submitted;
    T.St.Front.Installs += R.St.Front.Installs;
    T.St.EpochLagSum += R.St.EpochLagSum;
    T.St.QueriesDone += R.St.QueriesDone;
    T.St.SessionWaits += R.St.SessionWaits;
    T.St.Admission.ShedReads += R.St.Admission.ShedReads;
    T.St.Admission.ShedWrites += R.St.Admission.ShedWrites;
    T.Flat.Hits += R.Flat.Hits;
    T.Flat.Refreshes += R.Flat.Refreshes;
    T.Flat.Rebuilds += R.Flat.Rebuilds;
    T.Ops += R.Ops;
    T.AllocEvents += R.AllocEvents;
    T.CtxMisses += R.CtxMisses;
    T.Queries += R.Queries;
    T.Wal.Appends += R.Wal.Appends;
    T.Wal.GroupCommits += R.Wal.GroupCommits;
    T.Wal.BytesWritten += R.Wal.BytesWritten;
    T.WalEdges += R.WalEdges;
    T.CkptCount += R.CkptCount;
    T.CkptBytes += R.CkptBytes / double(Traced.size());
    Recover.push_back(R.RecoverS);
  }
  // Server ack minus the isolated front call, batch by batch (the
  // isolation passes replay the first traced round's slice).
  std::vector<double> Overhead;
  const std::vector<double> &Ack0 = Traced.front().ServerAckUs;
  for (size_t K = 0; K < I.FrontUs.size() && K < Ack0.size(); ++K)
    if (Ack0[K] >= 0)
      Overhead.push_back(Ack0[K] - I.FrontUs[K]);
  // Tracing overhead: traced vs untraced rounds, on ack p50 + query p50.
  auto Sum50 = [](const std::vector<RoundResult> &Rs) {
    std::vector<double> V;
    for (const RoundResult &R : Rs)
      V.push_back(pcts(R.AckUs).P50 + pcts(R.QueryUs).P50);
    return quantile(V, 0.5);
  };
  double Overheadfrac = Sum50(Traced) / std::max(1e-9, Sum50(Untraced)) - 1;

  Pcts Wait = pcts(T.WaitUs), Ov = pcts(Overhead), Prep = pcts(I.PrepUs),
       Com = pcts(I.CommitUs), Pin = pcts(T.PinUs), Sync = pcts(T.WalSyncUs),
       Comp = pcts(T.ComputeUs), Late = pcts(T.LateUs), Ack = pcts(T.AckUs),
       Q = pcts(T.QueryUs);
  const Server::Stats &St = T.St;
  return {
      {"serve.query_wait_p50_us", Wait.P50, "us"},
      {"serve.query_wait_p90_us", Wait.P90, "us"},
      {"serve.write_overhead_p50_us", Ov.P50, "us"},
      {"serve.write_overhead_p90_us", Ov.P90, "us"},
      {"serve.batches_per_install",
       St.Front.Installs ? double(St.Front.Submitted) / St.Front.Installs : 0,
       "batches"},
      {"serve.epoch_lag_mean",
       double(St.EpochLagSum) / double(std::max<uint64_t>(1, St.QueriesDone)),
       "batches"},
      {"serve.session_waits", double(St.SessionWaits), "count"},
      {"serve.shed", double(St.Admission.ShedReads + St.Admission.ShedWrites),
       "count"},
      {"store.prepare_p50_us", Prep.P50, "us"},
      {"store.prepare_p90_us", Prep.P90, "us"},
      {"store.commit_p50_us", Com.P50, "us"},
      {"store.commit_p90_us", Com.P90, "us"},
      {"store.flat_pin_p50_us", Pin.P50, "us"},
      {"store.flat_pin_p90_us", Pin.P90, "us"},
      {"store.flat_hits", double(T.Flat.Hits), "count"},
      {"store.flat_refreshes", double(T.Flat.Refreshes), "count"},
      {"store.flat_rebuilds", double(T.Flat.Rebuilds), "count"},
      {"store.wal_sync_p50_us", Sync.P50, "us"},
      {"store.wal_sync_p90_us", Sync.P90, "us"},
      {"store.wal_records_per_commit",
       T.Wal.GroupCommits ? double(T.Wal.Appends) / T.Wal.GroupCommits : 0,
       "records"},
      {"store.wal_bytes_per_edge",
       T.WalEdges ? double(T.Wal.BytesWritten) / double(T.WalEdges) : 0, "B"},
      {"store.ckpt_count", double(T.CkptCount), "count"},
      {"store.ckpt_bytes", T.CkptBytes, "B"},
      {"store.recover_s", quantile(Recover, 0.5), "s"},
      {"algorithms.compute_p50_us", Comp.P50, "us"},
      {"algorithms.compute_p90_us", Comp.P90, "us"},
      {"memory.counted_allocs_per_op",
       double(T.AllocEvents) / double(std::max<uint64_t>(1, T.Ops)), "count"},
      {"memory.ctx_misses",
       double(T.CtxMisses) / double(std::max<uint64_t>(1, T.Queries)),
       "count"},
      {"parallel.bulk_ingest_speedup", I.Speedup, "x"},
      {"gen.late_p90_us", Late.P90, "us"},
      {"gen.late_max_us", Late.Max, "us"},
      {"tail.ingest_ack_p99_us", Ack.P99, "us"},
      {"tail.query_p99_us", Q.P99, "us"},
      {"trace.overhead_frac", Overheadfrac, "frac"},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: aspen_perf --workload <tiny_stream|bulk_analytics|"
               "durable_stream> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--trace-out <file>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name, WorkDir, TraceOut;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      Name = V;
    else if (K == "--seed")
      Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      Trace = V == "1";
    else if (K == "--workdir")
      WorkDir = V;
    else if (K == "--trace-out")
      TraceOut = V;
    else
      return usage();
  }
  const WorkloadSpec *W = nullptr;
  for (const WorkloadSpec &S : Workloads)
    if (Name == S.Name)
      W = &S;
  if (!W || WorkDir.empty() || !(Seconds > 0))
    return usage();

  // Thread budget: generator + server workers + (ASPEN_WORKERS - 1)
  // scheduler helpers stay within the core count. Must precede the first
  // scheduler use.
  setenv("ASPEN_WORKERS", std::to_string(W->AspenWorkers).c_str(), 1);
  size_t Rounds = Trace ? TraceRounds : W->Rounds;
  std::printf("# config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
              "%g, \"trace\": %d, \"rounds\": %zu, \"nproc\": %u, "
              "\"aspen_workers\": %d, \"server_workers\": %zu, \"log_n\": %d, "
              "\"shards\": %zu}\n",
              W->Name, (unsigned long long)Seed, Seconds, int(Trace), Rounds,
              std::thread::hardware_concurrency(), numWorkers(),
              W->ServerWorkers, LogN, Shards);

  fs::remove_all(WorkDir);
  fs::create_directories(WorkDir);
  {
    Inputs In = makeInputs(*W, Seed, Seconds);
    std::vector<Slice> Sl = slices(*W, In, Seconds, Rounds);
    Bench B(*W, In, WorkDir);
    // Spans stay in memory while a round measures and are written out
    // after it.
    FILE *Spans = Trace && !TraceOut.empty()
                      ? std::fopen(TraceOut.c_str(), "w")
                      : nullptr;
    // The trace run alternates untraced and traced rounds, so the two
    // halves see the same machine conditions.
    std::vector<RoundResult> Untraced, Traced;
    uint64_t Attempted = 0, Failed = 0;
    bool Sustained = true;
    for (size_t R = 0; R < Rounds; ++R) {
      bool T = Trace && R % 2 == 1;
      RoundResult Res = B.round(Sl[R], T, T ? Spans : nullptr);
      Attempted += Res.Attempted;
      Failed += Res.Failed;
      Sustained &= Res.Sustained;
      Pcts A = pcts(Res.AckUs), Q = pcts(Res.QueryUs);
      std::printf("# round %zu%s: setup %.4f s, ack p50/p90 %.1f/%.1f us, "
                  "query p50/p90 %.1f/%.1f us\n",
                  R, T ? " (traced)" : "", Res.SetupS, A.P50, A.P90, Q.P50,
                  Q.P90);
      (T ? Traced : Untraced).push_back(std::move(Res));
    }
    if (!Trace) {
      emit(Attempted, Failed, Failed == 0 && Sustained,
           acrossRounds(Untraced));
    } else {
      Bench::Iso I = B.isolation(Sl[1], Spans);
      emit(Attempted, Failed, Failed == 0 && Sustained,
           perLayer(Untraced, Traced, I));
    }
    if (Spans)
      std::fclose(Spans);
  }
  fs::remove_all(WorkDir);
  return 0;
}
