//===- serve/session.h - Pooled per-session AlgoContexts ------------------===//
//
// Multi-tenant sessions share a fixed pool of AlgoContext workspaces
// (DESIGN.md Section 8). A lease holds a context until it is destroyed;
// the snapshot server's workers each lease one for their lifetime, and
// run every query on it. Because contexts cache their workspace blocks
// between runs, steady-state queries across many sessions are
// allocation-free — the pool's warm contexts stand in for per-session
// workspaces without O(sessions) memory.
//
// An optional per-context retain limit (AlgoContext::setRetainLimit)
// bounds what one leased context may pin between queries, so a single
// hub-sized query cannot grow every pool slot to the high-water mark.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_SERVE_SESSION_H
#define ASPEN_SERVE_SESSION_H

#include "memory/algo_context.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

namespace aspen {

/// Fixed-capacity pool of reusable AlgoContexts with RAII leases.
class SessionPool {
public:
  /// \p Capacity contexts, each optionally retain-limited to
  /// \p RetainBytes (0 = unlimited).
  explicit SessionPool(size_t Capacity, size_t RetainBytes = 0) {
    All.reserve(Capacity);
    Free.reserve(Capacity);
    for (size_t I = 0; I < Capacity; ++I) {
      All.push_back(std::make_unique<AlgoContext>());
      if (RetainBytes)
        All.back()->setRetainLimit(RetainBytes);
      Free.push_back(All.back().get());
    }
  }

  SessionPool(const SessionPool &) = delete;
  SessionPool &operator=(const SessionPool &) = delete;

  /// RAII context lease; returns the context to the pool on destruction.
  class Lease {
  public:
    Lease() = default;
    Lease(Lease &&O) noexcept : P(O.P), C(O.C) {
      O.P = nullptr;
      O.C = nullptr;
    }
    Lease &operator=(Lease &&O) noexcept {
      if (this != &O) {
        release();
        P = O.P;
        C = O.C;
        O.P = nullptr;
        O.C = nullptr;
      }
      return *this;
    }
    ~Lease() { release(); }

    explicit operator bool() const { return C != nullptr; }
    AlgoContext &ctx() { return *C; }
    AlgoContext *operator->() { return C; }

    /// Explicit early return to the pool.
    void release() {
      if (P)
        P->giveBack(C);
      P = nullptr;
      C = nullptr;
    }

  private:
    friend class SessionPool;
    Lease(SessionPool *P, AlgoContext *C) : P(P), C(C) {}
    SessionPool *P = nullptr;
    AlgoContext *C = nullptr;
  };

  /// Lease a context, blocking until one is free. With pool capacity >=
  /// the number of holders (the server sizes it to its workers), this
  /// never blocks.
  Lease lease() {
    std::unique_lock<std::mutex> L(M);
    if (Free.empty())
      ++Waits;
    CV.wait(L, [&] { return !Free.empty(); });
    AlgoContext *C = Free.back();
    Free.pop_back();
    return Lease(this, C);
  }

  /// Non-blocking lease; an empty Lease (operator bool false) means the
  /// pool is exhausted.
  Lease tryLease() {
    std::lock_guard<std::mutex> L(M);
    if (Free.empty())
      return Lease();
    AlgoContext *C = Free.back();
    Free.pop_back();
    return Lease(this, C);
  }

  size_t capacity() const { return All.size(); }
  size_t available() const {
    std::lock_guard<std::mutex> L(M);
    return Free.size();
  }
  /// Number of lease() calls that had to block.
  uint64_t waitCount() const {
    std::lock_guard<std::mutex> L(M);
    return Waits;
  }

private:
  friend class Lease;
  void giveBack(AlgoContext *C) {
    {
      std::lock_guard<std::mutex> L(M);
      Free.push_back(C);
    }
    CV.notify_one();
  }

  mutable std::mutex M;
  std::condition_variable CV;
  std::vector<std::unique_ptr<AlgoContext>> All;
  std::vector<AlgoContext *> Free; ///< LIFO: the warmest context first
  uint64_t Waits = 0;
};

} // namespace aspen

#endif // ASPEN_SERVE_SESSION_H
