//===- serve/admission.h - Bounded two-class admission queue --------------===//
//
// Admission control + backpressure for the snapshot server (DESIGN.md
// Section 8). Requests are classed as reads (queries) or writes (ingest
// batches) and admitted into bounded FIFO queues; a full queue REJECTS
// the request (tryPush returns false) instead of blocking the client, so
// overload degrades to load shedding with bounded queueing delay for
// admitted requests rather than unbounded latency collapse.
//
// The consumer side is weighted-fair: when both classes are waiting,
// workers serve ReadsPerWrite reads per write, so a query flood cannot
// starve ingest (epoch lag stays bounded) and a writer burst cannot
// starve queries. When one class is empty, the other is served
// unconditionally (work conserving — credits only throttle against
// actual waiting work).
//
// Write groups: popGroup() hands a consumer that batches writes the
// maximal run of queued writes its predicate groups with the first, and
// holds the write class until releaseWrites(). While it is held no other
// pop takes a write, so groups are taken, and can be installed, strictly
// in submission order. A group is one write for the fairness credit.
//
// Wake path: an idle worker first polls the available count for
// SpinWindow and only then parks on the condition variable, because
// waking a parked thread costs far more than a flat-hit query does. At
// most one worker polls at a time; the others park at once, so an idle
// server costs one core for one window and then nothing. A push notifies
// only a parked worker, and only when the poller cannot take the item
// itself. The write class counts as one available item while it is free
// and non-empty, and as none while held, so writes queued behind a held
// group neither wake a worker nor keep the poller spinning.
//
// Caller slot: when every consumer is parked and nothing is available,
// claimCaller() lets the submitting thread serve one read itself instead
// of pushing it and paying for a wake. One caller holds the slot at a
// time, until releaseCaller(); a caller-served read counts as admitted.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_SERVE_ADMISSION_H
#define ASPEN_SERVE_ADMISSION_H

#include "parallel/scheduler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace aspen {

enum class RequestClass : uint8_t { Read, Write };

/// Admit/shed counters of an AdmissionQueueT (request-type independent).
struct AdmissionStats {
  uint64_t AdmittedReads = 0;
  uint64_t AdmittedWrites = 0;
  uint64_t ShedReads = 0;
  uint64_t ShedWrites = 0;
};

/// Bounded two-class MPMC admission queue with weighted-fair pops.
template <class Req> class AdmissionQueueT {
public:
  struct Options {
    size_t ReadCap = 1024; ///< max queued reads before shedding
    size_t WriteCap = 64;  ///< max queued writes before shedding
  };

  using Stats = AdmissionStats;

  /// Fairness ratio when both classes wait: reads served per write.
  static constexpr unsigned ReadsPerWrite = 8;

  explicit AdmissionQueueT(Options O = {}) : O(O) {}

  AdmissionQueueT(const AdmissionQueueT &) = delete;
  AdmissionQueueT &operator=(const AdmissionQueueT &) = delete;

  /// How long an idle worker polls for an arrival before it parks. It
  /// spans tiny_stream's 200 us mean gap between requests; the
  /// serve/handoff/gap_* rows of BENCH_serving.json show the handoff
  /// latency on either side of it, serve/handoff/idle_cpu_frac that the
  /// poller parks once traffic stops.
  static constexpr std::chrono::microseconds SpinWindow{300};

  /// Admit or shed: false when the class's queue is at capacity (or the
  /// queue is stopped). Never blocks.
  bool tryPush(RequestClass C, Req R) {
    bool Wake;
    {
      std::lock_guard<std::mutex> L(M);
      std::deque<Req> &Q = C == RequestClass::Read ? Reads : Writes;
      size_t Cap = C == RequestClass::Read ? O.ReadCap : O.WriteCap;
      if (Stopped.load(std::memory_order_relaxed) || Q.size() >= Cap) {
        ++(C == RequestClass::Read ? St.ShedReads : St.ShedWrites);
        return false;
      }
      Q.push_back(std::move(R));
      ++(C == RequestClass::Read ? St.AdmittedReads : St.AdmittedWrites);
      // A polling worker takes one item without being woken; anything
      // beyond that needs a parked worker.
      size_t Before = Available.load();
      size_t Now = recount();
      Wake = Parked && Now > Before && (Now > 1 || !Polling.load());
    }
    if (Wake)
      CV.notify_one();
    return true;
  }

  /// Blocking weighted-fair pop of one request. Returns nullopt only when
  /// the queue is stopped and nothing is left that this caller may take
  /// (writes held by a popGroup() caller are its to serve).
  std::optional<std::pair<RequestClass, Req>> pop() {
    std::unique_lock<std::mutex> L(M, std::defer_lock);
    if (!await(L))
      return std::nullopt;
    return take();
  }

  /// As pop(), into \p Group (cleared first). A read comes alone. A write
  /// comes with the writes queued right behind it that \p Same(first,
  /// next) accepts, FIFO, up to \p Max in all, and holds the write class:
  /// the caller must call releaseWrites() once the group is done.
  template <class SameFn>
  std::optional<RequestClass> popGroup(std::vector<Req> &Group, size_t Max,
                                       SameFn Same) {
    std::unique_lock<std::mutex> L(M, std::defer_lock);
    if (!await(L))
      return std::nullopt;
    auto Taken = take();
    Group.clear();
    Group.push_back(std::move(Taken.second));
    if (Taken.first == RequestClass::Write) {
      while (Group.size() < Max && !Writes.empty() &&
             Same(Group.front(), Writes.front())) {
        Group.push_back(std::move(Writes.front()));
        Writes.pop_front();
      }
      WritesHeld = true;
      recount();
    }
    return Taken.first;
  }

  /// Give back the write class a popGroup() write took. The caller pops
  /// again next, so it takes one newly available item itself; a parked
  /// worker is woken only for more than that.
  void releaseWrites() {
    bool Wake;
    {
      std::lock_guard<std::mutex> L(M);
      WritesHeld = false;
      size_t Now = recount();
      Wake = Parked && Now > 1;
    }
    if (Wake)
      CV.notify_one();
  }

  /// Claim the caller slot: true when \p Consumers consumers are parked,
  /// no item is available, no other caller holds the slot and the queue
  /// is not stopped. The claimed read counts in AdmittedReads; the caller
  /// serves it and then calls releaseCaller().
  bool claimCaller(size_t Consumers) {
    std::lock_guard<std::mutex> L(M);
    if (CallerBusy || Parked != Consumers || Available.load() ||
        Stopped.load(std::memory_order_relaxed))
      return false;
    CallerBusy = true;
    ++St.AdmittedReads;
    return true;
  }

  /// Give back the caller slot claimCaller() granted.
  void releaseCaller() {
    std::lock_guard<std::mutex> L(M);
    CallerBusy = false;
  }

  /// Stop admitting; wake all poppers and end a poll. Already-admitted
  /// requests still drain through pop().
  void stop() {
    {
      std::lock_guard<std::mutex> L(M);
      Stopped.store(true, std::memory_order_relaxed);
    }
    CV.notify_all();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> L(M);
    return St;
  }

private:
  /// Wait until an item is available (true, with \p L locked) or the
  /// queue is stopped with nothing available (false, unlocked).
  bool await(std::unique_lock<std::mutex> &L) {
    for (;;) {
      if (Available.load()) {
        L.lock();
        if (Available.load())
          return true;
        L.unlock(); // another worker won the item: poll again
      }
      if (!Polling.exchange(true)) {
        poll();
        Polling.store(false);
        if (Available.load())
          continue;
      }
      L.lock();
      ++Parked;
      CV.wait(L, [&] {
        return Stopped.load(std::memory_order_relaxed) || Available.load();
      });
      --Parked;
      if (Available.load())
        return true;
      L.unlock(); // stopped and drained
      return false;
    }
  }

  /// Wait, without the lock, until an item is available, stop() is
  /// called or SpinWindow has passed.
  void poll() const {
    auto Deadline = std::chrono::steady_clock::now() + SpinWindow;
    for (unsigned Step = 1; !Available.load(std::memory_order_acquire) &&
                            !Stopped.load(std::memory_order_relaxed);
         ++Step) {
      spinStep(Step, 8);
      if (std::chrono::steady_clock::now() >= Deadline)
        return;
    }
  }

  /// A write may be taken: one is queued and no popGroup() holds the
  /// class. M held.
  bool writeReady() const { return !WritesHeld && !Writes.empty(); }

  /// Republish Available from the queues; M held. Returns the new count.
  size_t recount() {
    size_t N = Reads.size() + writeReady();
    Available.store(N);
    return N;
  }

  /// Weighted-fair dequeue of one item; M held and an item available.
  std::pair<RequestClass, Req> take() {
    // Both waiting: spend read credit first.
    bool TakeWrite = writeReady() && (Reads.empty() || Credit == 0);
    if (TakeWrite)
      Credit = ReadsPerWrite;
    else if (writeReady() && Credit)
      --Credit; // only charge credit while a write actually waits
    std::deque<Req> &Q = TakeWrite ? Writes : Reads;
    std::pair<RequestClass, Req> Out(
        TakeWrite ? RequestClass::Write : RequestClass::Read,
        std::move(Q.front()));
    Q.pop_front();
    recount();
    return Out;
  }

  Options O;
  mutable std::mutex M;
  std::condition_variable CV;
  std::deque<Req> Reads, Writes;
  unsigned Credit = ReadsPerWrite;
  Stats St;
  bool WritesHeld = false; ///< a popGroup() write group is out (under M)
  /// Reads.size() + writeReady(), readable without M (written under M).
  std::atomic<size_t> Available{0};
  std::atomic<bool> Stopped{false}; ///< written under M
  std::atomic<bool> Polling{false}; ///< a worker is in poll()
  size_t Parked = 0;                ///< workers waiting on CV (under M)
  bool CallerBusy = false;          ///< the caller slot is out (under M)
};

} // namespace aspen

#endif // ASPEN_SERVE_ADMISSION_H
