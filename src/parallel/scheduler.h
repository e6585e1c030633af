//===- parallel/scheduler.h - Fork-join work-stealing scheduler -----------===//
//
// The paper runs Aspen on a custom Cilk-like work-stealing scheduler
// (Section 7, experimental setup). This file provides the reproduction's
// equivalent substrate: a binary fork-join scheduler with per-context work
// deques and randomized stealing.
//
// Design notes:
//  * Any OS thread may call parallelDo/parallelFor; on first use it is
//    registered with its own deque slot, so multiple application threads
//    (e.g. a writer streaming updates concurrently with query threads, as
//    in Section 7.3) can share the worker pool safely.
//  * Forked jobs live on the forking frame's stack; a blocked joiner helps
//    by stealing other jobs, so nested parallelism composes.
//  * Deques are lock-free Chase-Lev rings (Chase & Lev, SPAA'05): the
//    owner pushes and pops at the bottom with plain stores, thieves CAS
//    the top. The fine-grained forks from the within-shard parallel batch
//    merges (C-tree unionBC/diffBC groups, work-weighted pam forks) make
//    deque traffic frequent enough that the old mutex deque's lock
//    hand-offs showed up; see DESIGN.md §5 for the memory-ordering
//    argument. Capacity is fixed; on the (never-seen-in-practice)
//    overflow, pushJob reports failure and parallelDo simply runs both
//    sides inline, which is always correct.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_PARALLEL_SCHEDULER_H
#define ASPEN_PARALLEL_SCHEDULER_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>

namespace aspen {

/// Number of parallel execution contexts (worker threads plus registered
/// application threads share this many workers' worth of parallelism).
int numWorkers();

/// Identifier of the calling thread's context in [0, maxContexts());
/// registers the thread on first call. An application thread's id is
/// recycled when the thread exits; more than maxContexts() live threads
/// abort the process.
int workerId();

/// Upper bound on context ids ever returned by workerId(); use for sizing
/// per-context arrays (e.g. allocator free lists).
int maxContexts();

/// When enabled, parallelDo/parallelFor run inline on the calling thread
/// (single-threaded measurements, Tables 3/4/11). The worker pool stays
/// alive but idle. Not meant to be toggled while parallel work is running.
void setSequentialMode(bool Enabled);
bool sequentialMode();

/// A CPU-friendly pause for busy-wait loops (x86 PAUSE; a yield where the
/// ISA has no such hint).
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// One step of a polling loop's back-off: a pause, and on every
/// \p YieldEvery-th step a yield, so a thread sharing this CPU still runs
/// while the poller waits. \p Step counts the poller's idle steps.
inline void spinStep(unsigned Step, unsigned YieldEvery) {
  if (Step % YieldEvery == 0)
    std::this_thread::yield();
  else
    cpuRelax();
}

namespace detail {

/// Type-erased forked task. Lives on the stack of the forking frame.
struct Job {
  void (*Run)(void *) = nullptr;
  void *Arg = nullptr;
  std::atomic<bool> Done{false};
};

/// Push \p J onto the calling context's deque (making it stealable).
/// Returns false if the deque is full; the caller must then run the job
/// inline instead of forking.
bool pushJob(Job *J);

/// Try to remove \p J from the calling context's deque. Returns true if the
/// job was reclaimed (not stolen) and should be run inline by the caller.
bool popJobIfLocal(Job *J);

/// Help the scheduler until \p J completes: repeatedly steal and run other
/// jobs, spinning briefly when none are available.
void waitForJob(Job *J);

/// True when the pool has more than one worker.
bool parallelismEnabled();

/// Pool size for an ASPEN_WORKERS value \p Env (null when unset): a
/// positive integer, else the hardware concurrency, clamped to
/// [1, maxContexts() / 2] so application threads keep half the ids.
int workerCountFromEnv(const char *Env);

} // namespace detail

/// Run \p Left and \p Right, potentially in parallel; returns when both
/// have completed.
template <class L, class R> void parallelDo(L &&Left, R &&Right) {
  if (!detail::parallelismEnabled()) {
    Left();
    Right();
    return;
  }
  using RightFn = std::remove_reference_t<R>;
  detail::Job J;
  J.Arg = const_cast<void *>(static_cast<const void *>(&Right));
  J.Run = [](void *Arg) { (*static_cast<RightFn *>(Arg))(); };
  if (!detail::pushJob(&J)) {
    Left();
    Right();
    return;
  }
  Left();
  if (detail::popJobIfLocal(&J)) {
    Right();
    return;
  }
  detail::waitForJob(&J);
}

namespace detail {

/// Spawn \p K copies of Fn via a binary fork tree (each leaf call is an
/// independently stealable job).
template <class F> void spawnK(size_t K, const F &Fn) {
  if (K <= 1) {
    Fn();
    return;
  }
  size_t Half = K / 2;
  parallelDo([&] { spawnK(Half, Fn); }, [&] { spawnK(K - Half, Fn); });
}

} // namespace detail

/// Apply `Fn(i)` for i in [Lo, Hi) in parallel. \p Grain bounds the size
/// of a sequentially-executed chunk; 0 selects an automatic grain.
///
/// Implementation: up to numWorkers() "band" tasks are forked; bands claim
/// fixed-size chunks from a shared atomic counter. This keeps the number
/// of fork-join operations per loop at O(P) regardless of the trip count
/// (the per-chunk cost is a single relaxed fetch_add) while retaining
/// dynamic load balancing across chunks.
template <class F>
void parallelFor(size_t Lo, size_t Hi, const F &Fn, size_t Grain = 0) {
  if (Hi <= Lo)
    return;
  size_t N = Hi - Lo;
  size_t P = static_cast<size_t>(numWorkers());
  if (Grain == 0) {
    Grain = N / (64 * P) + 1;
    if (Grain > 2048)
      Grain = 2048;
  }
  if (N <= Grain || !detail::parallelismEnabled()) {
    for (size_t I = Lo; I < Hi; ++I)
      Fn(I);
    return;
  }
  size_t NumChunks = (N + Grain - 1) / Grain;
  size_t NumBands = NumChunks < P ? NumChunks : P;
  std::atomic<size_t> NextChunk{0};
  detail::spawnK(NumBands, [&] {
    while (true) {
      size_t C = NextChunk.fetch_add(1, std::memory_order_relaxed);
      if (C >= NumChunks)
        return;
      size_t CLo = Lo + C * Grain;
      size_t CHi = CLo + Grain < Hi ? CLo + Grain : Hi;
      for (size_t I = CLo; I < CHi; ++I)
        Fn(I);
    }
  });
}

} // namespace aspen

#endif // ASPEN_PARALLEL_SCHEDULER_H
