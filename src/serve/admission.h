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
// Wake path: an idle worker first polls the queued count for SpinWindow
// and only then parks on the condition variable, because waking a parked
// thread costs far more than a flat-hit query does. At most one worker
// polls at a time; the others park at once, so an idle server costs one
// core for one window and then nothing. A push notifies only a parked
// worker, and only when the poller cannot take the item itself.
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
      size_t Depth = Queued.fetch_add(1) + 1;
      Wake = Parked && (Depth > 1 || !Polling.load());
    }
    if (Wake)
      CV.notify_one();
    return true;
  }

  /// Blocking weighted-fair pop. Returns nullopt only when the queue is
  /// stopped AND drained — admitted requests are always served.
  std::optional<std::pair<RequestClass, Req>> pop() {
    std::unique_lock<std::mutex> L(M, std::defer_lock);
    for (;;) {
      if (Queued.load()) {
        L.lock();
        if (Queued.load())
          return take();
        L.unlock(); // another worker won the item: poll again
      }
      if (!Polling.exchange(true)) {
        poll();
        Polling.store(false);
        if (Queued.load())
          continue;
      }
      L.lock();
      ++Parked;
      CV.wait(L, [&] {
        return Stopped.load(std::memory_order_relaxed) || Queued.load();
      });
      --Parked;
      if (!Queued.load())
        return std::nullopt; // stopped and drained
      return take();
    }
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

  bool stopped() const { return Stopped.load(std::memory_order_relaxed); }

  size_t depth(RequestClass C) const {
    std::lock_guard<std::mutex> L(M);
    return (C == RequestClass::Read ? Reads : Writes).size();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> L(M);
    return St;
  }

private:
  /// Wait, without the lock, until an item is queued, stop() is called
  /// or SpinWindow has passed.
  void poll() const {
    auto Deadline = std::chrono::steady_clock::now() + SpinWindow;
    for (unsigned Step = 1; !Queued.load(std::memory_order_acquire) &&
                            !Stopped.load(std::memory_order_relaxed);
         ++Step) {
      spinStep(Step, 8);
      if (std::chrono::steady_clock::now() >= Deadline)
        return;
    }
  }

  /// Weighted-fair dequeue of one item; M held and an item queued.
  std::pair<RequestClass, Req> take() {
    Queued.fetch_sub(1);
    bool TakeWrite;
    if (Writes.empty())
      TakeWrite = false;
    else if (Reads.empty())
      TakeWrite = true;
    else
      TakeWrite = Credit == 0; // both waiting: spend read credit first
    if (TakeWrite) {
      Credit = ReadsPerWrite;
      Req R = std::move(Writes.front());
      Writes.pop_front();
      return std::make_pair(RequestClass::Write, std::move(R));
    }
    if (!Writes.empty() && Credit)
      --Credit; // only charge credit while a write actually waits
    Req R = std::move(Reads.front());
    Reads.pop_front();
    return std::make_pair(RequestClass::Read, std::move(R));
  }

  Options O;
  mutable std::mutex M;
  std::condition_variable CV;
  std::deque<Req> Reads, Writes;
  unsigned Credit = ReadsPerWrite;
  Stats St;
  /// Reads.size() + Writes.size(), readable without M (written under M).
  std::atomic<size_t> Queued{0};
  std::atomic<bool> Stopped{false}; ///< written under M
  std::atomic<bool> Polling{false}; ///< a worker is in poll()
  unsigned Parked = 0;              ///< workers waiting on CV (under M)
};

} // namespace aspen

#endif // ASPEN_SERVE_ADMISSION_H
