//===- store/version_list.h - Refcounted version-list core ----------------===//
//
// The reusable core of the version-maintenance layer (Section 6, documented
// in DESIGN.md): a single-slot chain of immutable values where one writer
// installs new versions with set() while any number of readers acquire()
// and release() them. Readers are never blocked for more than the duration
// of a pointer swap and always see a complete, immutable value.
//
// The payload T is opaque: store/sharded_graph.h instantiates it with a
// cross-shard Epoch (a vector of per-shard snapshots; one shard is the
// paper's single graph). Reclamation is by reference
// count: a version is destroyed once it is no longer current and its last
// reader releases it, so structural sharing between consecutive versions
// (purely-functional trees) collapses to exactly the nodes unique to dead
// versions.
//
// Deviation from the paper: the paper uses the lock-free version-list
// algorithm of Ben-David et al. [8]; we protect the list manipulation with
// a short critical section (tens of nanoseconds against millisecond-scale
// queries). See DESIGN.md Section 1.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_STORE_VERSION_LIST_H
#define ASPEN_STORE_VERSION_LIST_H

#include <atomic>
#include <cassert>
#include <deque>
#include <mutex>
#include <utility>

namespace aspen {

/// Refcounted chain of immutable versions of a value of type \p T.
template <class T> class VersionListT {
  struct VersionNode {
    T Value;
    std::atomic<int64_t> Refs;
    uint64_t Stamp;

    VersionNode(T Value, int64_t InitialRefs, uint64_t Stamp)
        : Value(std::move(Value)), Refs(InitialRefs), Stamp(Stamp) {}
  };

public:
  /// RAII handle to an acquired version; releasing is automatic.
  class Handle {
  public:
    Handle() = default;
    Handle(const Handle &) = delete;
    Handle &operator=(const Handle &) = delete;
    Handle(Handle &&O) noexcept : VL(O.VL), N(O.N) {
      O.VL = nullptr;
      O.N = nullptr;
    }
    Handle &operator=(Handle &&O) noexcept {
      if (this != &O) {
        reset();
        VL = O.VL;
        N = O.N;
        O.VL = nullptr;
        O.N = nullptr;
      }
      return *this;
    }
    ~Handle() { reset(); }

    /// The immutable value this version refers to.
    const T &value() const {
      assert(N && "empty version handle");
      return N->Value;
    }

    /// Monotone timestamp of the version (install sequence number).
    uint64_t stamp() const { return N ? N->Stamp : 0; }

    bool valid() const { return N != nullptr; }

    /// Explicit early release.
    void reset() {
      if (VL && N)
        VL->releaseNode(N);
      VL = nullptr;
      N = nullptr;
    }

  private:
    friend class VersionListT;
    Handle(VersionListT *VL, VersionNode *N) : VL(VL), N(N) {}
    VersionListT *VL = nullptr;
    VersionNode *N = nullptr;
  };

  explicit VersionListT(T Initial) {
    Current = new VersionNode(std::move(Initial), /*InitialRefs=*/1, 0);
  }

  VersionListT(const VersionListT &) = delete;
  VersionListT &operator=(const VersionListT &) = delete;

  ~VersionListT() {
    // All readers must have released their versions by now.
    std::lock_guard<std::mutex> Lock(M);
    int64_t Left = Current->Refs.fetch_sub(1, std::memory_order_acq_rel);
    assert(Left == 1 && "destroying version list with live readers");
    (void)Left;
    delete Current;
  }

  /// Acquire the latest version. Never blocked by the writer for more than
  /// the duration of a pointer swap.
  Handle acquire() {
    std::lock_guard<std::mutex> Lock(M);
    Current->Refs.fetch_add(1, std::memory_order_relaxed);
    return Handle(this, Current);
  }

  /// Install a new value as the current version. Atomic with respect to
  /// acquire(); the previous version survives until its last reader
  /// releases it. Returns the new version's stamp.
  uint64_t set(T Value) {
    VersionNode *Old;
    uint64_t S;
    {
      std::lock_guard<std::mutex> Lock(M);
      S = Stamp.fetch_add(1) + 1;
      auto *N = new VersionNode(std::move(Value), /*InitialRefs=*/1, S);
      Old = Current;
      Current = N;
    }
    releaseNode(Old); // drop the current-slot reference
    return S;
  }

  /// Stamp of the most recently installed version.
  uint64_t currentStamp() const {
    return Stamp.load(std::memory_order_relaxed);
  }

private:
  friend class Handle;

  void releaseNode(VersionNode *N) {
    if (N->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last reference: N is no longer current (the current-slot reference
      // would still be outstanding), so nobody can acquire it again.
      delete N;
    }
  }

  mutable std::mutex M;
  VersionNode *Current = nullptr;
  std::atomic<uint64_t> Stamp{0};
};

/// Bounded log of per-install deltas keyed by version stamp - the second
/// reusable piece of the version-maintenance core. A store records, for
/// each installed version, a small summary of what changed relative to
/// its predecessor (the graph stores record the touched-vertex digest);
/// an incremental consumer pinned at stamp F catches up to stamp T by
/// replaying the deltas for (F, T] instead of reprocessing the whole
/// value.
///
/// The log only answers for *contiguous* spans: recording a stamp that
/// does not directly follow the previous recorded stamp (an install whose
/// delta was not captured, e.g. a raw set()) clears the log, so a
/// successful replay() is always a complete, gap-free reconstruction and
/// anything else falls back to the consumer's full rebuild. Bounded to
/// \p MaxEntries recent installs; older consumers rebuild too.
///
/// record() is called by writers (serialized by the store's install
/// protocol); replay() by readers. Both take the internal mutex, so the
/// log is safe against concurrent readers and a concurrent writer.
template <class DeltaT> class DeltaLogT {
  struct Entry {
    uint64_t Stamp;
    DeltaT Delta;
  };

public:
  explicit DeltaLogT(size_t MaxEntries = 64) : MaxEntries(MaxEntries) {}

  /// Record the delta of the install that produced \p Stamp. Clears the
  /// log first when \p Stamp is not the successor of the last recorded
  /// stamp (some install went unrecorded; spans across it must rebuild).
  void record(uint64_t Stamp, DeltaT Delta) {
    std::lock_guard<std::mutex> Lock(M);
    if (!Entries.empty() && Entries.back().Stamp + 1 != Stamp)
      Entries.clear();
    Entries.push_back(Entry{Stamp, std::move(Delta)});
    while (Entries.size() > MaxEntries)
      Entries.pop_front();
  }

  /// Drop every recorded delta (e.g. after an install whose delta was
  /// deliberately not captured); subsequent replays across this point
  /// report non-coverage.
  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    Entries.clear();
  }

  /// Invoke \p Fn on the delta of every stamp in (\p From, \p To], oldest
  /// first. Returns false without invoking \p Fn at all when the log does
  /// not cover the whole span (gap, trimmed history, or From > To).
  template <class F> bool replay(uint64_t From, uint64_t To, F &&Fn) const {
    std::lock_guard<std::mutex> Lock(M);
    if (From >= To)
      return From == To;
    if (Entries.empty() || Entries.front().Stamp > From + 1 ||
        Entries.back().Stamp < To)
      return false;
    size_t I = size_t(From + 1 - Entries.front().Stamp);
    for (uint64_t S = From + 1; S <= To; ++S, ++I)
      Fn(Entries[I].Delta);
    return true;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Entries.size();
  }

private:
  mutable std::mutex M;
  std::deque<Entry> Entries;
  size_t MaxEntries;
};

} // namespace aspen

#endif // ASPEN_STORE_VERSION_LIST_H
