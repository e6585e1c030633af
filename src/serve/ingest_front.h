//===- serve/ingest_front.h - Coalescing, pipelining writer front ---------===//
//
// The per-store ingest front-queue (DESIGN.md Section 8). Concurrent
// writer threads submit batches here instead of calling the store
// directly; the front turns a contended same-shard writer stream — which
// would serialize end-to-end on the shard writer locks — into:
//
//   1. COALESCING: while one group holds the shard locks, every batch
//      that queues up behind it is drained as one merged span (a maximal
//      same-kind FIFO prefix, capped at MaxCoalesce). The store installs
//      the merged span as a single epoch advancing BatchSeq by the group
//      size; set semantics make the result byte-identical to
//      one-at-a-time ingest, and each batch keeps its own sequence
//      number and WAL record.
//   2. PIPELINING: the drained group's prepare phase (split + group/sort
//      + edge-set builds — the CPU-heavy part) runs with no locks held,
//      overlapping the predecessor group's merge/install. One group
//      prepares at a time (bounding scratch footprint); commits retire
//      in strict FIFO ticket order, so acknowledgement order equals
//      submission order.
//
// The combining thread is one of the submitters (flat combining): a
// submitter whose request is still queued and who finds no active
// preparer drains the next group and drives it to completion — possibly
// helping requests ahead of its own — then rechecks. Batches are
// acknowledged (submit returns the batch's own sequence number) only
// after their group's install is published and, on a durable store,
// group-committed.
//
// FIFO commit ordering means the front serializes installs even when
// consecutive groups touch disjoint shards; the front is the right tool
// for hot-shard writer streams, while uncorrelated writers can still
// call the store directly and merge concurrently.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_SERVE_INGEST_FRONT_H
#define ASPEN_SERVE_INGEST_FRONT_H

#include "store/sharded_graph.h"

#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <vector>

namespace aspen {

/// Coalescing + pipelining writer front over a sharded store.
template <class Store> class IngestFrontT {
public:
  struct Stats {
    uint64_t Submitted = 0; ///< batches accepted
    uint64_t Installs = 0;  ///< store installs (groups)
    uint64_t Coalesced = 0; ///< batches that shared an install with others
    uint64_t MaxGroup = 0;  ///< largest group drained
  };

  /// Most batches one group drains (and the store installs as one
  /// epoch); bounds a group's prepare footprint and commit latency.
  static constexpr size_t MaxCoalesce = 32;

  explicit IngestFrontT(Store &S) : S(S) {}

  IngestFrontT(const IngestFrontT &) = delete;
  IngestFrontT &operator=(const IngestFrontT &) = delete;

  /// Submit an insert batch; blocks until the batch's install is
  /// published (and durable, on a durable store). Returns the batch's
  /// own sequence number. The edges must stay alive for the call.
  uint64_t insertBatch(const EdgePair *Edges, size_t K) {
    return submit(EdgeSpan{Edges, K}, /*Insert=*/true);
  }
  uint64_t insertBatch(const std::vector<EdgePair> &Edges) {
    return insertBatch(Edges.data(), Edges.size());
  }

  /// Submit a delete batch (same contract as insertBatch).
  uint64_t deleteBatch(const EdgePair *Edges, size_t K) {
    return submit(EdgeSpan{Edges, K}, /*Insert=*/false);
  }
  uint64_t deleteBatch(const std::vector<EdgePair> &Edges) {
    return deleteBatch(Edges.data(), Edges.size());
  }

  Stats stats() const {
    std::lock_guard<std::mutex> L(M);
    return St;
  }

  Store &store() { return S; }

private:
  struct Request {
    EdgeSpan Span;
    bool Insert;
    uint64_t Seq = 0;
    std::exception_ptr Err;
    bool Done = false;
  };

  uint64_t submit(EdgeSpan Span, bool Insert) {
    Request R{Span, Insert, 0, nullptr, false};
    std::unique_lock<std::mutex> L(M);
    Pending.push_back(&R);
    ++St.Submitted;
    for (;;) {
      if (R.Done) {
        if (R.Err)
          std::rethrow_exception(R.Err);
        return R.Seq;
      }
      if (!PrepActive && !Pending.empty()) {
        runGroup(L); // drains + prepares + commits one group
        continue;    // our request may have been in it (or moved up)
      }
      CV.wait(L);
    }
  }

  /// Drain one maximal same-kind FIFO prefix and drive it through
  /// prepare (single active preparer) and commit (FIFO ticket order).
  /// Called with \p L held; returns with \p L held.
  void runGroup(std::unique_lock<std::mutex> &L) {
    PrepActive = true;
    bool Insert = Pending.front()->Insert;
    std::vector<Request *> Group;
    while (!Pending.empty() && Pending.front()->Insert == Insert &&
           Group.size() < MaxCoalesce) {
      Group.push_back(Pending.front());
      Pending.pop_front();
    }
    uint64_t Ticket = NextTicket++;
    ++St.Installs;
    if (Group.size() > 1)
      St.Coalesced += Group.size();
    St.MaxGroup = std::max(St.MaxGroup, uint64_t(Group.size()));
    L.unlock();

    std::vector<EdgeSpan> Spans(Group.size());
    for (size_t I = 0; I < Group.size(); ++I)
      Spans[I] = Group[I]->Span;

    // Prepare with no locks held: overlaps the predecessor group's
    // commit, which is the pipelining half of the front.
    std::exception_ptr Err;
    std::optional<typename Store::PreparedIngest> P;
    try {
      P.emplace(S.prepareSpans(Spans.data(), Spans.size(), Insert));
    } catch (...) {
      Err = std::current_exception();
    }

    // Single-preparer stage ends: hand the prepare slot to the next
    // group before we block on our commit turn.
    {
      std::lock_guard<std::mutex> G(M);
      PrepActive = false;
    }
    CV.notify_all();

    // Commit in strict ticket order (ack order == submission order). A
    // failed prepare still takes and advances its turn, else successors
    // would wait forever.
    {
      std::unique_lock<std::mutex> TL(TurnM);
      TurnCV.wait(TL, [&] { return CommitTurn == Ticket; });
    }
    uint64_t LastSeq = 0;
    if (!Err) {
      try {
        LastSeq = S.commitPrepared(std::move(*P));
      } catch (...) {
        Err = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> TL(TurnM);
      ++CommitTurn;
    }
    TurnCV.notify_all();

    L.lock();
    // Acknowledge under M: batch I of the group owns sequence number
    // LastSeq - (N-1-I). Requests may be freed by their submitters the
    // moment they observe Done, so nothing touches them after this loop.
    for (size_t I = 0; I < Group.size(); ++I) {
      Group[I]->Err = Err;
      Group[I]->Seq = Err ? 0 : LastSeq - (Group.size() - 1 - I);
      Group[I]->Done = true;
    }
    CV.notify_all();
  }

  Store &S;

  mutable std::mutex M; ///< queue, preparer flag, stats, acknowledgements
  std::condition_variable CV;
  std::deque<Request *> Pending;
  bool PrepActive = false;
  uint64_t NextTicket = 0;
  Stats St;

  std::mutex TurnM; ///< FIFO commit tickets
  std::condition_variable TurnCV;
  uint64_t CommitTurn = 0;
};

} // namespace aspen

#endif // ASPEN_SERVE_INGEST_FRONT_H
