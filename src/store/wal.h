//===- store/wal.h - Checksummed group-commit write-ahead log -------------===//
//
// The redo log of the durability subsystem (DESIGN.md Section 7): every
// acknowledged update batch is appended as one checksummed record before
// the caller's insert/delete returns. Records carry the store's batch
// sequence number, so recovery (store/durability.h) can replay exactly
// the suffix a checkpoint does not cover, in install order, through the
// same ingest pipeline that produced the original epochs.
//
// On-disk layout of one segment file:
//
//   [SegmentHeader: magic u64, first-seq hint u64]
//   [Record]* where Record =
//     u32 Crc        crc32c over the remaining header fields + payload
//     u32 PayloadBytes
//     u64 Seq        monotonic batch sequence number (store-assigned)
//     u8  Kind       1 = insert batch, 2 = delete batch
//     u8  Pad[7]
//     u8  Payload[PayloadBytes]   (EdgePair array; Bytes % 8 == 0)
//
// Group commit: writers enqueue serialized records under the log mutex
// (cheap memcpy, called under the store's install ordering so the file
// order equals the install order) and then sync(Seq). The first syncing
// thread becomes the flush leader: it drains the whole pending buffer
// with one write(2) + one fsync(2) and wakes every waiter whose record
// the group covered. Concurrent appenders therefore share fsyncs instead
// of paying one each — the classic group-commit latency/throughput trade.
//
// Torn tails: a crash can leave a partially written record at the end of
// a segment. open() scans the segment and truncates at the first record
// that is short, fails its CRC, or breaks sequence monotonicity —
// everything before that point was fully acknowledged-durable or is a
// complete unacknowledged record (safe to keep: replay is idempotent at
// the batch level because recovery rebuilds state from the checkpoint
// forward). All I/O goes through the util/failpoint.h wrappers so the
// crash-recovery suite can tear writes and fail fsyncs at will.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_STORE_WAL_H
#define ASPEN_STORE_WAL_H

#include "util/crc.h"
#include "util/failpoint.h"
#include "util/types.h"

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <stdexcept>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

namespace aspen {

inline constexpr uint64_t WalMagic = 0x314C4157'4E505341ULL; // "ASPNWAL1"

enum class WalKind : uint8_t { InsertBatch = 1, DeleteBatch = 2 };

/// One decoded record handed to scan callbacks. \p Edges points into the
/// scan buffer; copy before the callback returns if you keep it.
struct WalRecordView {
  WalKind Kind;
  uint64_t Seq;
  const EdgePair *Edges;
  size_t NumEdges;
};

/// Thrown when the log was poisoned by an earlier I/O failure (a failed
/// group commit leaves the durable prefix unknown; the store must not
/// acknowledge anything after it).
struct WalDeadError : std::runtime_error {
  WalDeadError() : std::runtime_error("WAL poisoned by earlier I/O failure") {}
};

namespace detail {

struct WalSegmentHeader {
  uint64_t Magic;
  uint64_t FirstSeqHint;
};

struct WalRecordHeader {
  uint32_t Crc;
  uint32_t PayloadBytes;
  uint64_t Seq;
  uint8_t Kind;
  uint8_t Pad[7];
};
static_assert(sizeof(WalSegmentHeader) == 16, "packed segment header");
static_assert(sizeof(WalRecordHeader) == 24, "packed record header");
static_assert(sizeof(EdgePair) == 8 && alignof(EdgePair) == 4,
              "WAL payloads are raw EdgePair arrays");

/// CRC of a record: the header fields after Crc, then the payload.
inline uint32_t walRecordCrc(const WalRecordHeader &H, const void *Payload) {
  uint32_t C = crc32c(reinterpret_cast<const uint8_t *>(&H) + 4,
                      sizeof(WalRecordHeader) - 4);
  return crc32c(Payload, H.PayloadBytes, C);
}

} // namespace detail

/// Summary of one segment file produced by walScanSegment.
struct WalScanResult {
  bool HeaderValid = false; ///< segment header present and well-formed
  uint64_t MinSeq = 0;      ///< 0 when the segment holds no valid record
  uint64_t MaxSeq = 0;
  size_t NumRecords = 0;
  size_t ValidBytes = 0; ///< prefix length covered by valid records
  bool Torn = false;     ///< trailing bytes past the valid prefix
};

/// Scan \p Path, invoking \p Fn(WalRecordView) for every valid record in
/// file order, stopping at the first short/corrupt/non-monotonic record.
/// With \p TruncateTorn the file is truncated to the valid prefix (the
/// open-for-append protocol); recovery scans read-only. A missing or
/// headerless file yields an empty result.
template <class F>
WalScanResult walScanSegment(const std::string &Path, bool TruncateTorn,
                             F &&Fn) {
  using namespace detail;
  WalScanResult R;
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return R;
  std::vector<uint8_t> Buf;
  {
    struct stat St;
    if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
      ::close(Fd);
      return R;
    }
    Buf.resize(size_t(St.st_size));
    size_t Done = 0;
    while (Done < Buf.size()) {
      ssize_t N = ::read(Fd, Buf.data() + Done, Buf.size() - Done);
      if (N <= 0)
        break;
      Done += size_t(N);
    }
    Buf.resize(Done);
  }
  ::close(Fd);

  WalSegmentHeader SH;
  if (Buf.size() < sizeof(SH)) {
    R.Torn = !Buf.empty();
    if (TruncateTorn && R.Torn)
      (void)::truncate(Path.c_str(), 0);
    return R;
  }
  std::memcpy(&SH, Buf.data(), sizeof(SH));
  if (SH.Magic != WalMagic) {
    R.Torn = true;
    if (TruncateTorn)
      (void)::truncate(Path.c_str(), 0);
    return R;
  }
  R.HeaderValid = true;
  size_t Off = sizeof(SH);
  uint64_t PrevSeq = 0;
  while (Off + sizeof(WalRecordHeader) <= Buf.size()) {
    WalRecordHeader H;
    std::memcpy(&H, Buf.data() + Off, sizeof(H));
    size_t PayloadOff = Off + sizeof(H);
    if (H.PayloadBytes % sizeof(EdgePair) != 0 ||
        PayloadOff + H.PayloadBytes > Buf.size())
      break; // short / absurd payload: torn tail
    if (walRecordCrc(H, Buf.data() + PayloadOff) != H.Crc)
      break; // checksum mismatch: torn or bit-flipped
    if (H.Kind != uint8_t(WalKind::InsertBatch) &&
        H.Kind != uint8_t(WalKind::DeleteBatch))
      break;
    if (R.NumRecords > 0 && H.Seq <= PrevSeq)
      break; // sequence must be strictly monotone within a segment
    WalRecordView V;
    V.Kind = WalKind(H.Kind);
    V.Seq = H.Seq;
    V.Edges = reinterpret_cast<const EdgePair *>(Buf.data() + PayloadOff);
    V.NumEdges = H.PayloadBytes / sizeof(EdgePair);
    Fn(V);
    if (R.NumRecords == 0)
      R.MinSeq = H.Seq;
    R.MaxSeq = H.Seq;
    PrevSeq = H.Seq;
    ++R.NumRecords;
    Off = PayloadOff + H.PayloadBytes;
  }
  R.ValidBytes = Off;
  R.Torn = Off < Buf.size();
  if (TruncateTorn && R.Torn)
    (void)::truncate(Path.c_str(), off_t(Off));
  return R;
}

/// Scan summary without consuming the records.
inline WalScanResult walScanSegment(const std::string &Path,
                                    bool TruncateTorn = false) {
  return walScanSegment(Path, TruncateTorn, [](const WalRecordView &) {});
}

/// Read-only integrity verdict on a segment, for the scrubber
/// (store/replication.h): a sealed segment is clean iff its header
/// validates and every byte is covered by valid records (sealing flushes
/// the whole group and open() truncates torn tails, so trailing garbage
/// on a sealed file can only be bit rot). The active segment may carry
/// an in-flight tail; it is clean as long as the valid record prefix
/// reaches \p MinDurableSeq (the durable watermark sampled before the
/// scan — anything less means a checksummed, acknowledged record no
/// longer verifies).
inline bool walSegmentClean(const std::string &Path, bool Sealed,
                            uint64_t MinDurableSeq = 0) {
  WalScanResult R = walScanSegment(Path, /*TruncateTorn=*/false);
  if (!R.HeaderValid)
    return false;
  if (Sealed)
    return !R.Torn;
  return R.MaxSeq >= MinDurableSeq;
}

/// Commit statistics (bench_wal and the recovery tests read these).
struct WalStats {
  uint64_t Appends = 0;      ///< records enqueued
  uint64_t GroupCommits = 0; ///< write+fsync flushes
  uint64_t BytesWritten = 0; ///< record bytes (excl. segment header)
};

/// One open, append-only WAL segment with group commit. A store owns one
/// (behind DurabilityEngine) and rotates to a fresh segment after each
/// checkpoint. enqueue() must be called in increasing-Seq order — the
/// store calls it under its commit lock — while sync() is free-threaded.
class WalLog {
public:
  /// Open \p Path for append. An existing segment is scanned and its
  /// torn tail truncated; a missing/empty one gets a fresh header.
  WalLog(std::string Path, bool FsyncOnCommit, uint64_t FirstSeqHint = 1)
      : Path(std::move(Path)), FsyncOnCommit(FsyncOnCommit) {
    WalScanResult R = walScanSegment(this->Path, /*TruncateTorn=*/true);
    Fd = ::open(this->Path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (Fd < 0)
      throw std::runtime_error("cannot open WAL segment " + this->Path);
    if (!R.HeaderValid) {
      detail::WalSegmentHeader SH{WalMagic, FirstSeqHint};
      fpWrite(Fd, &SH, sizeof(SH), "wal.header.write");
      if (FsyncOnCommit && !fpFsync(Fd, "wal.fsync"))
        throw std::runtime_error("WAL header fsync failed");
    }
    DurableSeqV = R.MaxSeq; // everything surviving the scan is on disk
    MaxSeqV = R.MaxSeq;
    MinSeqV = R.MinSeq;
    NumRecordsV = R.NumRecords;
  }

  WalLog(const WalLog &) = delete;
  WalLog &operator=(const WalLog &) = delete;
  ~WalLog() {
    if (Fd >= 0)
      ::close(Fd);
  }

  const std::string &path() const { return Path; }

  /// Serialize one batch record into the pending group. \p Seq must
  /// exceed every previously enqueued sequence number (store install
  /// order). Does not block on I/O; pair with sync(Seq).
  void enqueue(WalKind Kind, uint64_t Seq, const EdgePair *Edges, size_t N) {
    ASPEN_FAILPOINT("wal.enqueue.before");
    detail::WalRecordHeader H;
    std::memset(&H, 0, sizeof(H));
    H.PayloadBytes = uint32_t(N * sizeof(EdgePair));
    H.Seq = Seq;
    H.Kind = uint8_t(Kind);
    H.Crc = detail::walRecordCrc(H, Edges);
    std::lock_guard<std::mutex> Lock(M);
    if (Dead)
      throw WalDeadError();
    size_t At = Pending.size();
    Pending.resize(At + sizeof(H) + H.PayloadBytes);
    std::memcpy(Pending.data() + At, &H, sizeof(H));
    if (H.PayloadBytes)
      std::memcpy(Pending.data() + At + sizeof(H), Edges, H.PayloadBytes);
    MaxSeqV = Seq;
    if (NumRecordsV == 0 && MinSeqV == 0)
      MinSeqV = Seq;
    ++NumRecordsV;
    ++Stats.Appends;
  }

  /// Block until every record with sequence <= \p Seq is durable. The
  /// first arriving thread flushes the whole pending group (one write +
  /// one fsync); the rest wait on the group's completion.
  void sync(uint64_t Seq) {
    ASPEN_FAILPOINT("wal.sync.before");
    std::unique_lock<std::mutex> Lock(M);
    for (;;) {
      if (Dead)
        throw WalDeadError();
      if (DurableSeqV >= Seq)
        return;
      if (!Flushing) {
        Flushing = true;
        std::vector<uint8_t> Buf;
        Buf.swap(Pending);
        uint64_t GroupMax = MaxSeqV;
        Lock.unlock();
        std::exception_ptr Err;
        bool FsyncOk = true;
        try {
          if (!Buf.empty())
            fpWrite(Fd, Buf.data(), Buf.size(), "wal.record.write");
          if (FsyncOnCommit)
            FsyncOk = fpFsync(Fd, "wal.fsync");
        } catch (...) {
          Err = std::current_exception();
        }
        Lock.lock();
        Flushing = false;
        if (Err || !FsyncOk) {
          // The durable prefix is now unknown: poison the log so no
          // later batch can be acknowledged past the failure.
          Dead = true;
          CV.notify_all();
          if (Err)
            std::rethrow_exception(Err);
          throw WalDeadError();
        }
        Stats.BytesWritten += Buf.size();
        ++Stats.GroupCommits;
        DurableSeqV = GroupMax;
        CV.notify_all();
        continue; // re-check: our Seq is covered now
      }
      CV.wait(Lock);
    }
  }

  /// Highest sequence number known durable.
  uint64_t durableSeq() const {
    std::lock_guard<std::mutex> Lock(M);
    return DurableSeqV;
  }

  /// Range of sequence numbers this segment holds ([0,0] when empty).
  std::pair<uint64_t, uint64_t> seqRange() const {
    std::lock_guard<std::mutex> Lock(M);
    return {MinSeqV, MaxSeqV};
  }

  bool empty() const {
    std::lock_guard<std::mutex> Lock(M);
    return NumRecordsV == 0;
  }

  WalStats stats() const {
    std::lock_guard<std::mutex> Lock(M);
    return Stats;
  }

private:
  std::string Path;
  bool FsyncOnCommit;
  int Fd = -1;

  mutable std::mutex M;
  std::condition_variable CV;
  std::vector<uint8_t> Pending; ///< serialized records awaiting flush
  bool Flushing = false;
  bool Dead = false;
  uint64_t DurableSeqV = 0;
  uint64_t MinSeqV = 0;
  uint64_t MaxSeqV = 0;
  size_t NumRecordsV = 0;
  WalStats Stats;
};

} // namespace aspen

#endif // ASPEN_STORE_WAL_H
