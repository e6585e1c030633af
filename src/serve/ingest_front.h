//===- serve/ingest_front.h - Coalesced group installer -------------------===//
//
// The per-store write installer of the snapshot server (DESIGN.md
// Section 8). The server's admission queue is its only write queue: the
// one worker that holds the write class pops the maximal same-kind FIFO
// prefix of queued batches (capped at MaxCoalesce) and hands it here as
// one group. install() prepares the group's spans (split + group/sort +
// edge-set builds) and commits them as a single epoch advancing BatchSeq
// by the group size. Set semantics make the result byte-identical to
// one-at-a-time ingest, and each batch keeps its own sequence number and
// WAL record.
//
// The front keeps no queue of its own: ordering comes from the caller.
// Because one group is in flight at a time, installs, sequence numbers
// and acknowledgements follow submission order. insertBatch/deleteBatch
// are the one-batch case, for callers that write without a server.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_SERVE_INGEST_FRONT_H
#define ASPEN_SERVE_INGEST_FRONT_H

#include "store/sharded_graph.h"

#include <algorithm>
#include <mutex>
#include <vector>

namespace aspen {

/// Installs groups of same-kind batches into a sharded store.
template <class Store> class IngestFrontT {
public:
  struct Stats {
    uint64_t Submitted = 0; ///< batches accepted
    uint64_t Installs = 0;  ///< store installs (groups)
    uint64_t Coalesced = 0; ///< batches that shared an install with others
    uint64_t MaxGroup = 0;  ///< largest group installed
  };

  /// Most batches one group takes (and the store installs as one epoch);
  /// bounds a group's prepare footprint and commit latency.
  static constexpr size_t MaxCoalesce = 32;

  explicit IngestFrontT(Store &S) : S(S) {}

  IngestFrontT(const IngestFrontT &) = delete;
  IngestFrontT &operator=(const IngestFrontT &) = delete;

  /// Install \p N same-kind batches as one epoch; returns once it is
  /// published (and durable, on a durable store). Batch I of the group
  /// owns sequence number Last - (N-1-I), where Last is the returned
  /// one. The edges must stay alive for the call.
  uint64_t install(const EdgeSpan *Spans, size_t N, bool Insert) {
    {
      std::lock_guard<std::mutex> L(M);
      St.Submitted += N;
      ++St.Installs;
      if (N > 1)
        St.Coalesced += N;
      St.MaxGroup = std::max(St.MaxGroup, uint64_t(N));
    }
    return S.applySpans(Spans, N, Insert);
  }

  /// Install one insert batch; returns its sequence number.
  uint64_t insertBatch(const EdgePair *Edges, size_t K) {
    EdgeSpan Span{Edges, K};
    return install(&Span, 1, /*Insert=*/true);
  }
  uint64_t insertBatch(const std::vector<EdgePair> &Edges) {
    return insertBatch(Edges.data(), Edges.size());
  }

  /// Install one delete batch (same contract as insertBatch).
  uint64_t deleteBatch(const EdgePair *Edges, size_t K) {
    EdgeSpan Span{Edges, K};
    return install(&Span, 1, /*Insert=*/false);
  }
  uint64_t deleteBatch(const std::vector<EdgePair> &Edges) {
    return deleteBatch(Edges.data(), Edges.size());
  }

  Stats stats() const {
    std::lock_guard<std::mutex> L(M);
    return St;
  }

private:
  Store &S;
  mutable std::mutex M; ///< guards St
  Stats St;
};

} // namespace aspen

#endif // ASPEN_SERVE_INGEST_FRONT_H
