//===- serve/server.h - Multi-tenant snapshot server ----------------------===//
//
// The end-to-end serving assembly (DESIGN.md Section 8): a worker pool
// over a sharded store that serves pinned-snapshot queries concurrently
// with coalesced ingest.
//
//   requests -> AdmissionQueueT (bounded, weighted-fair, load-shedding)
//     reads  -> the worker's own AlgoContext -> QueryContext (lazy pins)
//               or, at an idle server, the submitting thread
//     writes -> one worker at a time holds the write class, takes the
//               queued same-kind prefix (up to MaxCoalesce batches) and
//               installs it through IngestFrontT as one epoch
//
// The admission queue is the only write queue. Since one write group is
// in flight at a time, installs, sequence numbers and acknowledgements
// follow submission order at any worker count.
//
// Every worker owns one AlgoContext for its lifetime (allocation-free
// at steady state). Every query runs on a context no other running query
// uses, and pins at most one tree epoch (acquire) and one flat epoch
// (acquireFlat) for its own lifetime — epoch-consistent reads while the
// writer streams. Epoch lag — how many batches landed between a query's
// admission and its dequeue, before it pins — is tracked per query;
// bounded queues keep it bounded under overload (shed, don't stall).
// A request takes no server-wide lock outside the admission queue.
//
// Caller-run reads: a query submitted while every worker is parked and
// nothing is queued runs at once on the submitting thread, on the
// server's one caller context, instead of paying for a worker's wake.
// At most one caller runs a read at a time (the admission queue's caller
// slot), so at most Workers + 1 reads run at once. No worker then holds
// a write group, so the store's flat is current and the pin does not
// wait. A query may therefore run before submitQuery returns: it must
// not wait for anything its submitting thread does after the call.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_SERVE_SERVER_H
#define ASPEN_SERVE_SERVER_H

#include "memory/algo_context.h"
#include "serve/admission.h"
#include "serve/ingest_front.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

namespace aspen {

/// Multi-tenant snapshot server over a sharded store.
template <class Store> class SnapshotServerT {
public:
  struct Options {
    size_t Workers = 4;         ///< worker threads (each owns a context)
    size_t ReadQueueCap = 1024; ///< queued queries before shedding
    size_t WriteQueueCap = 64;  ///< queued batches before shedding
  };

  /// Per-query execution context: the workspace of the worker (or of
  /// the caller slot) plus lazily pinned snapshots. Pins live exactly as
  /// long as the query runs.
  class QueryContext {
  public:
    AlgoContext &ctx() { return Ctx; }

    /// Tree-epoch pin (first call acquires; later calls reuse).
    const typename Store::Ref &snapshot() {
      if (!Pinned.valid())
        Pinned = S.acquire();
      return Pinned;
    }

    /// Flat-epoch pin (first call acquires; later calls reuse). The
    /// store's writers keep the flat current, so a pin is the store's
    /// lock-free fast path, or a wait for an in-flight refresh.
    const std::shared_ptr<const typename Store::FlatEpoch> &flat() {
      if (!FlatPin)
        FlatPin = S.acquireFlat();
      return FlatPin;
    }

  private:
    friend class SnapshotServerT;
    QueryContext(Store &S, AlgoContext &Ctx) : S(S), Ctx(Ctx) {}
    Store &S;
    AlgoContext &Ctx;
    typename Store::Ref Pinned;
    std::shared_ptr<const typename Store::FlatEpoch> FlatPin;
  };

  using Query = std::function<void(QueryContext &)>;

  struct Stats {
    uint64_t QueriesDone = 0;
    uint64_t WritesDone = 0;
    uint64_t QueryErrors = 0;
    uint64_t WriteErrors = 0;
    uint64_t EpochLagSum = 0; ///< batches landed while queries queued
    uint64_t EpochLagMax = 0;
    uint64_t CallerReads = 0; ///< queries run on their submitting thread
    AdmissionStats Admission;                  ///< shed/admit counts
    typename IngestFrontT<Store>::Stats Front; ///< coalescing stats
    uint64_t SessionWaits = 0; ///< always 0: no query waits for a context
  };

  SnapshotServerT(Store &S, Options O = {})
      : S(S), Front(S), Queue({O.ReadQueueCap, O.WriteQueueCap}),
        Workers(O.Workers ? O.Workers : 1) {
    Threads.reserve(Workers);
    for (size_t I = 0; I < Workers; ++I)
      Threads.emplace_back([this] { workerLoop(); });
  }

  SnapshotServerT(const SnapshotServerT &) = delete;
  SnapshotServerT &operator=(const SnapshotServerT &) = delete;
  ~SnapshotServerT() { stop(); }

  /// Admit a query; false = shed (read queue full) or stopped. The query
  /// may pin snapshots via its QueryContext. It runs on a worker, with
  /// that worker's context, or, when every worker is parked and no read
  /// is queued, on the calling thread before this returns.
  bool submitQuery(Query Q) {
    InFlight.fetch_add(1); // before the claim, so drain() sees the read
    if (Queue.claimCaller(Workers)) {
      runRead(Q, CallerCtx, 0); // never queued: no lag
      CallerReads.fetch_add(1, std::memory_order_relaxed);
      Queue.releaseCaller();
      Q = nullptr; // free the query before acknowledging
      finish(1);
      return true;
    }
    Item It;
    It.Q = std::move(Q);
    It.SubmitSeq = S.batchSeq();
    return admit(RequestClass::Read, std::move(It));
  }

  /// Admit an insert batch; false = shed (write queue full). The batch
  /// is installed in submission order, possibly in one epoch with the
  /// same-kind batches queued next to it.
  bool submitInsert(std::vector<EdgePair> Edges) {
    Item It;
    It.Edges = std::move(Edges);
    It.Insert = true;
    return push(RequestClass::Write, std::move(It));
  }

  /// Admit a delete batch; false = shed.
  bool submitDelete(std::vector<EdgePair> Edges) {
    Item It;
    It.Edges = std::move(Edges);
    It.Insert = false;
    return push(RequestClass::Write, std::move(It));
  }

  /// Block until every admitted request has completed.
  void drain() {
    std::unique_lock<std::mutex> L(DrainM);
    DrainCV.wait(L, [&] { return InFlight.load() == 0; });
  }

  /// Stop admitting, drain admitted work (a caller-run read included),
  /// join the workers. Idempotent.
  void stop() {
    Queue.stop();
    for (std::thread &T : Threads)
      if (T.joinable())
        T.join();
    Threads.clear();
    drain();
  }

  Stats stats() const {
    Stats R;
    R.QueriesDone = QueriesDone.load(std::memory_order_relaxed);
    R.WritesDone = WritesDone.load(std::memory_order_relaxed);
    R.QueryErrors = QueryErrors.load(std::memory_order_relaxed);
    R.WriteErrors = WriteErrors.load(std::memory_order_relaxed);
    R.EpochLagSum = EpochLagSum.load(std::memory_order_relaxed);
    R.EpochLagMax = EpochLagMax.load(std::memory_order_relaxed);
    R.CallerReads = CallerReads.load(std::memory_order_relaxed);
    R.Admission = Queue.stats();
    R.Front = Front.stats();
    return R;
  }

private:
  struct Item {
    Query Q;                     // reads
    std::vector<EdgePair> Edges; // writes (owned until installed)
    bool Insert = false;
    uint64_t SubmitSeq = 0;
  };

  bool push(RequestClass C, Item It) {
    InFlight.fetch_add(1); // optimistic: rolled back on shed
    return admit(C, std::move(It));
  }

  /// Queue a request already counted in InFlight; a shed rolls it back.
  bool admit(RequestClass C, Item It) {
    if (Queue.tryPush(C, std::move(It)))
      return true;
    finish(1);
    return false;
  }

  /// Retire \p N admitted (or rolled-back) requests; the last one out
  /// wakes drain().
  void finish(uint64_t N) {
    if (InFlight.fetch_sub(N) != N)
      return;
    { std::lock_guard<std::mutex> L(DrainM); }
    DrainCV.notify_all();
  }

  void workerLoop() {
    AlgoContext Ctx;
    std::vector<Item> Group;
    std::vector<EdgeSpan> Spans;
    auto SameKind = [](const Item &A, const Item &B) {
      return A.Insert == B.Insert;
    };
    while (auto C = Queue.popGroup(Group, IngestFrontT<Store>::MaxCoalesce,
                                   SameKind)) {
      if (*C == RequestClass::Read) {
        Item &It = Group.front();
        // The lag counts the batches that landed while this read queued,
        // not those that land while it runs.
        runRead(It.Q, Ctx, S.batchSeq() - It.SubmitSeq);
      } else {
        Spans.clear();
        for (const Item &It : Group)
          Spans.push_back({It.Edges.data(), It.Edges.size()});
        try {
          Front.install(Spans.data(), Spans.size(), Group.front().Insert);
        } catch (...) {
          WriteErrors.fetch_add(Group.size(), std::memory_order_relaxed);
        }
        Queue.releaseWrites();
        WritesDone.fetch_add(Group.size(), std::memory_order_relaxed);
      }
      size_t Done = Group.size();
      Group.clear(); // free the query or the edges before acknowledging
      finish(Done);
    }
  }

  /// Run one read on \p Ctx and count it; \p Lag is the number of
  /// batches that landed while it queued.
  void runRead(const Query &Q, AlgoContext &Ctx, uint64_t Lag) {
    try {
      QueryContext QC(S, Ctx);
      Q(QC);
    } catch (...) {
      QueryErrors.fetch_add(1, std::memory_order_relaxed);
    }
    EpochLagSum.fetch_add(Lag, std::memory_order_relaxed);
    uint64_t Prev = EpochLagMax.load(std::memory_order_relaxed);
    while (Lag > Prev && !EpochLagMax.compare_exchange_weak(
                             Prev, Lag, std::memory_order_relaxed))
      ;
    QueriesDone.fetch_add(1, std::memory_order_relaxed);
  }

  Store &S;
  IngestFrontT<Store> Front;
  AdmissionQueueT<Item> Queue;
  const size_t Workers;
  std::vector<std::thread> Threads;
  AlgoContext CallerCtx; ///< used only by the caller slot's holder

  std::atomic<uint64_t> QueriesDone{0}, WritesDone{0}, CallerReads{0};
  std::atomic<uint64_t> QueryErrors{0}, WriteErrors{0};
  std::atomic<uint64_t> EpochLagSum{0}, EpochLagMax{0};

  std::atomic<uint64_t> InFlight{0}; ///< admitted, not yet finished
  std::mutex DrainM; ///< drain() waits under it
  std::condition_variable DrainCV;
};

/// Default serving configuration: degree-adaptive hybrid shards (the
/// serving benchmark's default store).
using SnapshotServer = SnapshotServerT<HybridShardedGraphStore>;

} // namespace aspen

#endif // ASPEN_SERVE_SERVER_H
