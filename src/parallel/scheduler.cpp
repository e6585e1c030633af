//===- parallel/scheduler.cpp - Fork-join work-stealing scheduler ---------===//

#include "parallel/scheduler.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

using namespace aspen;
using namespace aspen::detail;

namespace {

/// Per-context lock-free work deque (Chase & Lev, SPAA'05; memory orders
/// after the C11 mapping of Lê et al., PPoPP'13). The owner pushes and
/// pops at Bottom; thieves CAS Top. Indices grow monotonically and wrap
/// into a fixed power-of-two ring.
///
/// Two deviations from the textbook version, both deliberate:
///
///  * No resizing. Deque depth equals the nesting depth of in-flight
///    parallelDo frames on the owning thread's stack, which is bounded by
///    tree recursion depth plus steal-help nesting — far below Cap. If
///    the ring ever fills, push() reports failure and the forking frame
///    runs the job inline (always correct, never blocks).
///  * The fence-based orderings are expressed as seq_cst *operations* on
///    Top/Bottom rather than standalone atomic_thread_fence: TSan does
///    not model fences, and the operation form is what keeps the
///    concurrency suites TSan-clean. On x86 the cost difference is one
///    locked instruction in pop(), which the steal-free common case
///    (push + popIfLocal) never pays beyond a store-load barrier.
///
/// Safety sketch: a slot written by push() is published by the release
/// store to Bottom; a thief's seq_cst load of Bottom that observes the
/// new value therefore also observes the Job pointer and the Job fields
/// written before the push. A slot is never overwritten while a thief
/// could still CAS its index: reusing slot (T & Mask) requires Bottom to
/// advance Cap past T, which the full-check in push() forbids while
/// Top == T. A stale Job pointer read by a slow thief is discarded when
/// its CAS on Top fails, so it is never dereferenced.
struct alignas(64) WorkDeque {
  static constexpr uint64_t CapLog = 10;
  static constexpr uint64_t Cap = uint64_t(1) << CapLog; // 1024 jobs
  static constexpr uint64_t Mask = Cap - 1;

  std::atomic<uint64_t> Top{0};    ///< next index thieves take from
  std::atomic<uint64_t> Bottom{0}; ///< next index the owner pushes to
  std::atomic<Job *> Slots[Cap];

  /// Owner only. Returns false when the ring is full.
  bool push(Job *J) {
    uint64_t B = Bottom.load(std::memory_order_relaxed);
    uint64_t T = Top.load(std::memory_order_acquire);
    if (B - T >= Cap)
      return false;
    Slots[B & Mask].store(J, std::memory_order_relaxed);
    // Release publishes the slot (and the Job it points to) to thieves.
    Bottom.store(B + 1, std::memory_order_release);
    return true;
  }

  /// Owner only: take the most recently pushed job, or nullptr if the
  /// deque is empty / the last job was stolen.
  Job *pop() {
    uint64_t B = Bottom.load(std::memory_order_relaxed);
    uint64_t T = Top.load(std::memory_order_acquire);
    if (B == T)
      return nullptr;
    B -= 1;
    // seq_cst store-load pairing with steal(): either the thief sees the
    // reservation (its Bottom load reads <= B) or we see its CAS (our
    // Top load below reads the advanced value) — both never claim the
    // same slot.
    Bottom.store(B, std::memory_order_seq_cst);
    Job *J = Slots[B & Mask].load(std::memory_order_relaxed);
    T = Top.load(std::memory_order_seq_cst);
    if (int64_t(B - T) < 0) { // thieves emptied it first
      Bottom.store(B + 1, std::memory_order_relaxed);
      return nullptr;
    }
    if (B == T) { // last element: race the thieves for it
      if (!Top.compare_exchange_strong(T, T + 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed))
        J = nullptr;
      Bottom.store(B + 1, std::memory_order_relaxed);
    }
    return J;
  }

  /// Owner only: pop() specialized to commit only when the bottom job is
  /// \p Expected. In strict fork-join the bottom job at join time is
  /// either \p Expected or a job of an *enclosing* frame (when Expected
  /// was stolen) — the peek keeps us from popping the latter.
  bool popIfLocal(Job *Expected) {
    uint64_t B = Bottom.load(std::memory_order_relaxed);
    uint64_t T = Top.load(std::memory_order_acquire);
    if (B == T)
      return false; // empty: Expected was stolen
    if (Slots[(B - 1) & Mask].load(std::memory_order_relaxed) != Expected)
      return false; // bottom belongs to an enclosing frame
    B -= 1;
    Bottom.store(B, std::memory_order_seq_cst);
    T = Top.load(std::memory_order_seq_cst);
    if (int64_t(B - T) < 0) {
      Bottom.store(B + 1, std::memory_order_relaxed);
      return false;
    }
    if (B == T) {
      bool Won = Top.compare_exchange_strong(T, T + 1,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed);
      Bottom.store(B + 1, std::memory_order_relaxed);
      return Won;
    }
    return true;
  }

  /// Thief: take the oldest job (largest remaining work), or nullptr.
  Job *steal() {
    uint64_t T = Top.load(std::memory_order_seq_cst);
    uint64_t B = Bottom.load(std::memory_order_seq_cst);
    if (int64_t(B - T) <= 0)
      return nullptr;
    Job *J = Slots[T & Mask].load(std::memory_order_relaxed);
    if (!Top.compare_exchange_strong(T, T + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      return nullptr; // lost the race; caller retries elsewhere
    return J;
  }

  /// Cheap non-committal peek for idle thieves.
  bool looksEmpty() const {
    uint64_t T = Top.load(std::memory_order_relaxed);
    uint64_t B = Bottom.load(std::memory_order_relaxed);
    return int64_t(B - T) <= 0;
  }
};

class Scheduler {
public:
  static constexpr int MaxContextsV = 512;

  Scheduler() {
    int P = workerCountFromEnv(std::getenv("ASPEN_WORKERS"));
    Workers = P;
    Deques = new WorkDeque[MaxContextsV];
    // Context ids [1, P) are reserved for the helper threads below;
    // application threads are assigned ids from P upward so the two id
    // spaces never collide (slot 0 is intentionally unused).
    NextContext.store(P, std::memory_order_relaxed);
    for (int I = 1; I < P; ++I)
      Threads.emplace_back([this, I] { workerLoop(I); });
  }

  ~Scheduler() {
    Shutdown.store(true, std::memory_order_release);
    for (auto &T : Threads)
      T.join();
    delete[] Deques;
  }

  /// Hand the calling application thread a context id: the most recently
  /// freed one (whose pool free lists and scratch cache it inherits), else
  /// a never-used one. The mutex orders the previous owner's last use of
  /// the id's per-context state before the new owner's first.
  static int registerContext() {
    std::lock_guard<std::mutex> L(IdM);
    if (NumFree)
      return FreeIds[--NumFree];
    int Id = NextContext.load(std::memory_order_relaxed);
    if (Id >= MaxContextsV) {
      std::fprintf(stderr, "aspen: more than %d threads use the scheduler "
                           "at once; context ids exhausted\n",
                   MaxContextsV);
      std::abort();
    }
    NextContext.store(Id + 1, std::memory_order_release);
    return Id;
  }

  /// Return an exited thread's id for reuse. Its deque is empty: every
  /// job the thread forked was joined before it exited.
  static void releaseContext(int Id) {
    std::lock_guard<std::mutex> L(IdM);
    FreeIds[NumFree++] = Id;
  }

  bool push(int Ctx, Job *J) { return Deques[Ctx].push(J); }

  bool popIfLocal(int Ctx, Job *J) { return Deques[Ctx].popIfLocal(J); }

  /// Take one job: prefer own deque's bottom, then steal a random
  /// victim's top. The looksEmpty peek keeps idle thieves from issuing
  /// CAS traffic against quiet deques. Returns nullptr if no work was
  /// found after a few attempts.
  Job *findWork(int Ctx, uint64_t &Rng) {
    if (Job *J = Deques[Ctx].pop())
      return J;
    int Limit = NextContext.load(std::memory_order_acquire);
    for (int Attempt = 0; Attempt < 8; ++Attempt) {
      Rng = Rng * 6364136223846793005ULL + 1442695040888963407ULL;
      int Victim = static_cast<int>((Rng >> 33) % static_cast<uint64_t>(
                                        Limit > 0 ? Limit : 1));
      if (Victim == Ctx)
        continue;
      WorkDeque &D = Deques[Victim];
      if (D.looksEmpty())
        continue;
      if (Job *J = D.steal())
        return J;
    }
    return nullptr;
  }

  static void runJob(Job *J) {
    J->Run(J->Arg);
    J->Done.store(true, std::memory_order_release);
  }

  void waitFor(int Ctx, Job *J) {
    uint64_t Rng = 0x9e3779b97f4a7c15ULL * (Ctx + 1);
    unsigned Idle = 0;
    while (!J->Done.load(std::memory_order_acquire)) {
      if (Job *Other = findWork(Ctx, Rng)) {
        runJob(Other);
        Idle = 0;
        continue;
      }
      // Joins are latency-critical: spin with pauses, occasionally yield.
      spinStep(++Idle, 64);
    }
  }

  void workerLoop(int Ctx) {
    WorkerIdTL = Ctx;
    uint64_t Rng = 0x243f6a8885a308d3ULL * (Ctx + 1);
    unsigned Idle = 0;
    while (!Shutdown.load(std::memory_order_acquire)) {
      if (Job *J = findWork(Ctx, Rng)) {
        runJob(J);
        Idle = 0;
        continue;
      }
      // Stay responsive for bursty fork-join regions: spin briefly, then
      // yield, and only back off to short sleeps after ~a millisecond of
      // idleness (a sleeping worker would miss a whole parallel region).
      ++Idle;
      if (Idle < 2048) {
        cpuRelax();
      } else if (Idle < 16384) {
        spinStep(Idle, 8);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  }

  int workers() const { return Workers; }

  static thread_local int WorkerIdTL;
  /// Set once the thread's id went back to the free list (thread exit).
  static thread_local bool IdReleasedTL;

  // Id hand-out. Static and trivially destructible: a thread may still
  // free pool memory, and so need an id, while statics (this scheduler
  // included) are destroyed at exit.
  static std::atomic<int> NextContext; ///< one past the highest id used
  static std::mutex IdM;               ///< guards FreeIds/NumFree
  static int FreeIds[MaxContextsV];    ///< ids of exited threads (LIFO)
  static int NumFree;

  std::atomic<bool> Shutdown{false};
  WorkDeque *Deques = nullptr;
  std::vector<std::thread> Threads;
  int Workers = 1;
};

thread_local int Scheduler::WorkerIdTL = -1;
thread_local bool Scheduler::IdReleasedTL = false;
std::atomic<int> Scheduler::NextContext{0};
std::mutex Scheduler::IdM;
int Scheduler::FreeIds[Scheduler::MaxContextsV];
int Scheduler::NumFree = 0;

Scheduler &scheduler() {
  static Scheduler S;
  return S;
}

/// Gives an application thread's context id back when the thread exits,
/// so ids stay below maxContexts() however many threads come and go.
struct ContextIdRelease {
  ~ContextIdRelease() {
    Scheduler::releaseContext(Scheduler::WorkerIdTL);
    Scheduler::WorkerIdTL = -1;
    Scheduler::IdReleasedTL = true;
  }
};

std::atomic<bool> SequentialModeFlag{false};

} // namespace

void aspen::setSequentialMode(bool Enabled) {
  SequentialModeFlag.store(Enabled, std::memory_order_release);
}

bool aspen::sequentialMode() {
  return SequentialModeFlag.load(std::memory_order_acquire);
}

int aspen::numWorkers() { return scheduler().workers(); }

int aspen::maxContexts() { return Scheduler::MaxContextsV; }

int aspen::workerId() {
  if (Scheduler::WorkerIdTL < 0) {
    // Application ids start above the helpers', so the pool must exist
    // first; it is never re-entered once destroyed.
    static const bool Started = (scheduler(), true);
    (void)Started;
    Scheduler::WorkerIdTL = Scheduler::registerContext();
    // After its release ran (a static destroyed at exit, a late
    // thread_local), a thread keeps the id it takes here.
    if (!Scheduler::IdReleasedTL) {
      thread_local ContextIdRelease Release;
      (void)Release;
    }
  }
  return Scheduler::WorkerIdTL;
}

int aspen::detail::workerCountFromEnv(const char *Env) {
  long P = 0;
  if (Env) {
    char *End = nullptr;
    P = std::strtol(Env, &End, 10);
    if (End == Env || *End != '\0')
      P = 0; // not a number: treat as unset
  }
  if (P <= 0)
    P = static_cast<long>(std::thread::hardware_concurrency());
  long Max = maxContexts() / 2;
  return static_cast<int>(P < 1 ? 1 : P > Max ? Max : P);
}

bool aspen::detail::parallelismEnabled() {
  return scheduler().workers() > 1 &&
         !SequentialModeFlag.load(std::memory_order_relaxed);
}

bool aspen::detail::pushJob(Job *J) { return scheduler().push(workerId(), J); }

bool aspen::detail::popJobIfLocal(Job *J) {
  return scheduler().popIfLocal(workerId(), J);
}

void aspen::detail::waitForJob(Job *J) { scheduler().waitFor(workerId(), J); }
