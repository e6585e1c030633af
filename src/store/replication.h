//===- store/replication.h - Snapshot shipping + background scrubbing -----===//
//
// Self-healing durability on top of the durable directory (DESIGN.md
// Section 9). Three pieces:
//
//   * ShipServer — serves a leader's durability directory over a
//     ByteTransport (store/transport.h): a listing of checkpoint and WAL
//     files, and range reads of any of them. Stateless per connection;
//     the client drives.
//   * Replicator — pulls a follower directory into sync with the
//     leader: fetches checkpoint generations and the WAL tail, verifies
//     every transfer with CRC32C, resumes torn transfers from the last
//     chunk boundary, and retries dropped connections with bounded
//     exponential backoff + deterministic jitter. After catchUp() the
//     follower directory recovers (DurabilityEngine) to a byte-identical
//     store.
//   * Scrubber — re-verifies checkpoint page CRCs and WAL record CRCs
//     once per pass interval, quarantines corrupt checkpoint generations
//     (recovery ignores *.quarantine; the next checkpoint is forced
//     full), and repairs by re-fetching the file from a replica when a
//     connector is configured.
//
// Wire protocol (all little-endian, over any ByteTransport):
//
//   frame   := header payload
//   header  := u8 type, u8 pad[3], u32 payloadBytes, u32 payloadCrc
//
// The payload CRC32C is checked on every received frame, so in-transit
// corruption surfaces as a (retryable) TransportError, never as bad
// bytes on disk. File fetches additionally carry a whole-range CRC in
// the FileEnd frame — the client verifies it against everything it wrote
// (including any resumed prefix re-read from its own .part file) before
// renaming the fetch into place.
//
// Crash/fault matrix hooks: "repl.server.chunk" (leader dies mid-ship),
// "repl.send"/"repl.recv" (transport-level drops, torn sends, bit
// flips — see store/transport.h), and "repl.chunk.write" (follower
// dies / tears mid-write of fetched bytes).
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_STORE_REPLICATION_H
#define ASPEN_STORE_REPLICATION_H

#include "store/durability.h"
#include "store/transport.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace aspen {

//===----------------------------------------------------------------------===
// Frame layer.
//===----------------------------------------------------------------------===

namespace repl {

enum class Msg : uint8_t {
  ListReq = 1,  ///< -> server: list replicable files
  ListResp = 2, ///< <- server: u32 count, {u16 nameLen, name, u64 size}*
  FetchReq = 3, ///< -> server: u64 offset, u32 chunkBytes, u16 nameLen, name
  Chunk = 4,    ///< <- server: u64 offset, bytes
  FileEnd = 5,  ///< <- server: u64 endOffset, u32 rangeCrc (from offset)
  Err = 6,      ///< <- server: utf-8 message (file vanished, bad request)
};

/// Frames above this are a protocol violation, not a big file (files
/// stream as many bounded Chunk frames).
inline constexpr uint32_t MaxFrameBytes = 64u << 20;

struct FrameHeader {
  uint8_t Type;
  uint8_t Pad[3] = {0, 0, 0};
  uint32_t PayloadBytes;
  uint32_t PayloadCrc;
};
static_assert(sizeof(FrameHeader) == 12, "packed frame header");

inline void sendFrame(ByteTransport &T, Msg Type, const void *Payload,
                      size_t N) {
  if (N > MaxFrameBytes)
    throw TransportError("frame too large");
  FrameHeader H;
  H.Type = uint8_t(Type);
  H.PayloadBytes = uint32_t(N);
  H.PayloadCrc = crc32c(Payload, N);
  // One send per frame keeps the ShortWrite/BitFlip failpoints on
  // "repl.send" tearing/corrupting header+payload as a unit, like a
  // real torn packet run.
  std::vector<uint8_t> Buf(sizeof(H) + N);
  std::memcpy(Buf.data(), &H, sizeof(H));
  if (N)
    std::memcpy(Buf.data() + sizeof(H), Payload, N);
  T.send(Buf.data(), Buf.size());
}

struct Frame {
  Msg Type;
  std::vector<uint8_t> Payload;
};

/// Receive one frame; nullopt on orderly close at a frame boundary.
/// A CRC mismatch or torn frame is a TransportError (retry, reconnect).
inline std::optional<Frame> recvFrame(ByteTransport &T) {
  FrameHeader H;
  uint8_t *P = reinterpret_cast<uint8_t *>(&H);
  size_t First = T.recv(P, sizeof(H));
  if (First == 0)
    return std::nullopt; // clean close between frames
  size_t Done = First;
  while (Done < sizeof(H)) {
    size_t R = T.recv(P + Done, sizeof(H) - Done);
    if (R == 0)
      throw TransportError("connection closed mid-header");
    Done += R;
  }
  if (H.PayloadBytes > MaxFrameBytes)
    throw TransportError("oversized frame");
  Frame F;
  F.Type = Msg(H.Type);
  F.Payload.resize(H.PayloadBytes);
  recvExact(T, F.Payload.data(), F.Payload.size());
  if (crc32c(F.Payload.data(), F.Payload.size()) != H.PayloadCrc)
    throw TransportError("frame checksum mismatch");
  return F;
}

/// A replicable file as the server lists it.
struct RemoteFile {
  std::string Name;
  uint64_t Bytes;
};

/// Names the replication protocol will serve or write: exactly the
/// checkpoint and WAL segment patterns (no path separators possible —
/// both parsers demand fixed shapes), so a hostile or corrupt listing
/// cannot escape the durability directory.
inline bool isReplicableName(const std::string &Name) {
  return detail::ckptSeqOfName(Name).has_value() ||
         DurabilityEngine::walGenOfName(Name).has_value();
}

inline std::vector<RemoteFile> listReplicable(const std::string &Dir) {
  std::vector<RemoteFile> Out;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Out;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (!isReplicableName(Name))
      continue;
    struct stat St;
    if (::stat((Dir + "/" + Name).c_str(), &St) == 0)
      Out.push_back(RemoteFile{Name, uint64_t(St.st_size)});
  }
  ::closedir(D);
  std::sort(Out.begin(), Out.end(),
            [](const RemoteFile &A, const RemoteFile &B) {
              return A.Name < B.Name;
            });
  return Out;
}

} // namespace repl

//===----------------------------------------------------------------------===
// Server side: serve one connection against a durability directory.
//===----------------------------------------------------------------------===

/// Serves LIST and ranged FETCH against \p Dir until the peer closes.
/// Per-connection and stateless; run one per accepted transport. Throws
/// TransportError when the connection dies and SimulatedCrash when a
/// "repl.server.chunk" failpoint kills the leader mid-ship — the hosting
/// service treats both as "this connection is over".
class ShipServer {
public:
  explicit ShipServer(std::string Dir) : Dir(std::move(Dir)) {}

  void serve(ByteTransport &T) {
    while (auto F = repl::recvFrame(T)) {
      switch (F->Type) {
      case repl::Msg::ListReq:
        handleList(T);
        break;
      case repl::Msg::FetchReq:
        handleFetch(T, F->Payload);
        break;
      default:
        sendErr(T, "unexpected message type");
        return;
      }
    }
  }

private:
  void handleList(ByteTransport &T) {
    std::vector<repl::RemoteFile> Files = repl::listReplicable(Dir);
    std::vector<uint8_t> Payload;
    ByteWriter W(Payload);
    W.put<uint32_t>(uint32_t(Files.size()));
    for (const repl::RemoteFile &F : Files) {
      W.put<uint16_t>(uint16_t(F.Name.size()));
      W.bytes(F.Name.data(), F.Name.size());
      W.put<uint64_t>(F.Bytes);
    }
    repl::sendFrame(T, repl::Msg::ListResp, Payload.data(), Payload.size());
  }

  void handleFetch(ByteTransport &T, const std::vector<uint8_t> &Req) {
    uint64_t Offset;
    uint32_t ChunkBytes;
    std::string Name;
    try {
      ByteReader R(Req.data(), Req.size());
      Offset = R.get<uint64_t>();
      ChunkBytes = R.get<uint32_t>();
      uint16_t Len = R.get<uint16_t>();
      const uint8_t *P = R.bytes(Len);
      Name.assign(reinterpret_cast<const char *>(P), Len);
      if (!R.exhausted())
        throw CorruptCheckpoint("trailing fetch bytes");
    } catch (const CorruptCheckpoint &) {
      sendErr(T, "malformed fetch request");
      return;
    }
    if (!repl::isReplicableName(Name) || ChunkBytes == 0 ||
        ChunkBytes > repl::MaxFrameBytes / 2) {
      sendErr(T, "bad fetch: " + Name);
      return;
    }
    int Fd = ::open((Dir + "/" + Name).c_str(), O_RDONLY);
    if (Fd < 0) {
      // Trimmed/retired between LIST and FETCH — the client re-lists.
      sendErr(T, "no such file: " + Name);
      return;
    }
    struct FdCloser {
      int Fd;
      ~FdCloser() { ::close(Fd); }
    } Closer{Fd};
    struct stat St;
    if (::fstat(Fd, &St) != 0) {
      sendErr(T, "stat failed: " + Name);
      return;
    }
    // Snapshot the size once: checkpoint files are immutable and sealed
    // WAL segments are immutable; the active segment may grow under us,
    // but serving a fixed prefix is still a consistent (resumable) read.
    uint64_t Size = uint64_t(St.st_size);
    uint64_t Off = Offset > Size ? Size : Offset;
    uint32_t RangeCrc = 0;
    std::vector<uint8_t> Buf;
    std::vector<uint8_t> ChunkPayload;
    while (Off < Size) {
      ASPEN_FAILPOINT("repl.server.chunk"); // leader dies mid-ship
      size_t N = size_t(std::min<uint64_t>(ChunkBytes, Size - Off));
      Buf.resize(N);
      ssize_t Got = ::pread(Fd, Buf.data(), N, off_t(Off));
      if (Got != ssize_t(N)) {
        sendErr(T, "read failed: " + Name);
        return;
      }
      RangeCrc = crc32c(Buf.data(), N, RangeCrc);
      ChunkPayload.clear();
      ByteWriter W(ChunkPayload);
      W.put<uint64_t>(Off);
      W.bytes(Buf.data(), N);
      repl::sendFrame(T, repl::Msg::Chunk, ChunkPayload.data(),
                      ChunkPayload.size());
      Off += N;
    }
    std::vector<uint8_t> End;
    ByteWriter W(End);
    W.put<uint64_t>(Size);
    W.put<uint32_t>(RangeCrc);
    repl::sendFrame(T, repl::Msg::FileEnd, End.data(), End.size());
  }

  void sendErr(ByteTransport &T, const std::string &What) {
    repl::sendFrame(T, repl::Msg::Err, What.data(), What.size());
  }

  std::string Dir;
};

/// Hosts a ShipServer in-process: every connect() hands back the client
/// end of a fresh socketpair with a server thread draining the other
/// end. Connection threads are joined at destruction.
class InProcessShipService {
public:
  explicit InProcessShipService(std::string Dir) : Dir(std::move(Dir)) {}
  InProcessShipService(const InProcessShipService &) = delete;
  InProcessShipService &operator=(const InProcessShipService &) = delete;
  ~InProcessShipService() {
    for (std::thread &Th : Threads)
      Th.join();
  }

  std::unique_ptr<ByteTransport> connect() {
    auto [Client, Server] = makePipeTransportPair();
    std::shared_ptr<ByteTransport> S(std::move(Server));
    std::string D = Dir;
    std::lock_guard<std::mutex> Lock(M);
    Threads.emplace_back([S, D] {
      try {
        ShipServer(D).serve(*S);
      } catch (const std::exception &) {
        // Connection died (peer gone, injected leader crash): the
        // client's retry/backoff path owns recovery.
      }
    });
    return std::move(Client);
  }

  /// The connector the Replicator/Scrubber take.
  std::function<std::unique_ptr<ByteTransport>()> connector() {
    return [this] { return connect(); };
  }

private:
  std::string Dir;
  std::mutex M;
  std::vector<std::thread> Threads;
};

/// Hosts a ShipServer behind a unix-domain socket for separate-process
/// followers. One accept thread; one handler thread per connection.
class UnixShipService {
public:
  UnixShipService(std::string Dir, const std::string &SocketPath)
      : Dir(std::move(Dir)), Listener(SocketPath) {
    Acceptor = std::thread([this] {
      for (;;) {
        std::unique_ptr<ByteTransport> T;
        try {
          T = Listener.accept();
        } catch (const TransportError &) {
          return; // listener stopped
        }
        std::shared_ptr<ByteTransport> S(std::move(T));
        std::string D = this->Dir;
        std::lock_guard<std::mutex> Lock(M);
        Handlers.emplace_back([S, D] {
          try {
            ShipServer(D).serve(*S);
          } catch (const std::exception &) {
          }
        });
      }
    });
  }

  UnixShipService(const UnixShipService &) = delete;
  UnixShipService &operator=(const UnixShipService &) = delete;

  ~UnixShipService() {
    Listener.stop();
    Acceptor.join();
    for (std::thread &Th : Handlers)
      Th.join();
  }

  std::function<std::unique_ptr<ByteTransport>()> connector() {
    std::string P = Listener.path();
    return [P] { return connectUnixSocket(P); };
  }

private:
  std::string Dir;
  UnixSocketListener Listener;
  std::thread Acceptor;
  std::mutex M;
  std::vector<std::thread> Handlers;
};

//===----------------------------------------------------------------------===
// Client side: backoff, catch-up, repair fetches.
//===----------------------------------------------------------------------===

/// Bounded exponential backoff with deterministic jitter. Deterministic
/// on Seed so fault-matrix tests replay exactly; Jitter de-synchronizes
/// a fleet of followers hammering a recovering leader.
struct BackoffPolicy {
  static constexpr double Multiplier = 2.0;
  static constexpr double Jitter = 0.2; ///< +/- fraction of the delay

  uint64_t BaseMs = 10;
  uint64_t MaxMs = 1000;
  size_t MaxAttempts = 8;
  uint64_t Seed = 0x9E3779B97F4A7C15ULL;

  /// Delay before retry number \p Attempt (0-based; attempt 0 is the
  /// first *retry*, after the initial failure).
  uint64_t delayMs(size_t Attempt) const {
    double D = double(BaseMs);
    for (size_t I = 0; I < Attempt; ++I)
      D = std::min(D * Multiplier, double(MaxMs));
    // splitmix64 over (Seed, Attempt) — deterministic jitter.
    uint64_t X = Seed + (uint64_t(Attempt) + 1) * 0x9E3779B97F4A7C15ULL;
    X ^= X >> 30, X *= 0xBF58476D1CE4E5B9ULL;
    X ^= X >> 27, X *= 0x94D049BB133111EBULL;
    X ^= X >> 31;
    double U = double(X >> 11) * (1.0 / double(uint64_t(1) << 53));
    double J = 1.0 + Jitter * (2.0 * U - 1.0);
    double Out = std::min(D * J, double(MaxMs));
    return Out < 0 ? 0 : uint64_t(Out);
  }
};

struct ReplicationStats {
  uint64_t Attempts = 0;     ///< catch-up passes started (1 = no retry)
  uint64_t Reconnects = 0;   ///< retries after a transport failure
  uint64_t FilesFetched = 0; ///< files pulled (fully or by resume)
  uint64_t FilesSkipped = 0; ///< already present with matching size
  uint64_t FilesDeleted = 0; ///< local files retired to match the leader
  uint64_t BytesFetched = 0; ///< payload bytes received in Chunk frames
  uint64_t Resumes = 0;      ///< fetches resumed from a partial .part
  uint64_t BackoffMsTotal = 0;
};

/// Pulls a follower durability directory into sync with a leader served
/// by ShipServer. Not thread-safe; one replicator per follower dir.
class Replicator {
public:
  using ConnectFn = std::function<std::unique_ptr<ByteTransport>()>;

  Replicator(std::string FollowerDir, ConnectFn Connect,
             BackoffPolicy Backoff = {}, size_t ChunkBytes = 256 * 1024)
      : Dir(std::move(FollowerDir)), Connect(std::move(Connect)),
        Backoff(Backoff), ChunkBytes(ChunkBytes ? ChunkBytes : 1) {
    if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST)
      throw std::runtime_error("cannot create follower dir " + Dir);
  }

  /// One full catch-up: list the leader, retire local files it no longer
  /// has, fetch everything missing or larger, verify, rename into place.
  /// Transport failures (drops, torn transfers, leader mid-ship death)
  /// retry with backoff up to MaxAttempts, resuming partial fetches from
  /// the last chunk boundary; the final failure rethrows. SimulatedCrash
  /// (an injected *follower* death) always escapes immediately — the
  /// crash tests re-open and re-run catchUp() like a restarted process.
  ReplicationStats catchUp() {
    Stats = ReplicationStats{};
    for (size_t Attempt = 0;; ++Attempt) {
      ++Stats.Attempts;
      try {
        catchUpOnce();
        return Stats;
      } catch (const TransportError &) {
        if (Attempt + 1 >= Backoff.MaxAttempts)
          throw;
        uint64_t Ms = Backoff.delayMs(Attempt);
        Stats.BackoffMsTotal += Ms;
        ++Stats.Reconnects;
        if (Ms)
          std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
      }
    }
  }

  const ReplicationStats &stats() const { return Stats; }

  /// Fetch one named file to \p DestPath (via .part + rename), verifying
  /// the transfer CRC and then \p Validate over the complete file. Used
  /// by the scrubber's repair path. Returns false when the leader does
  /// not have the file or validation fails; transport errors retry with
  /// the same backoff as catchUp().
  bool fetchFileTo(const std::string &Name, const std::string &DestPath,
                   const std::function<bool(const std::string &)> &Validate) {
    for (size_t Attempt = 0;; ++Attempt) {
      try {
        auto T = Connect();
        uint64_t Size = 0;
        {
          bool Found = false;
          for (const repl::RemoteFile &F : fetchListing(*T))
            if (F.Name == Name) {
              Found = true;
              Size = F.Bytes;
              break;
            }
          if (!Found)
            return false;
        }
        std::string Part = DestPath + ".part";
        fetchInto(*T, Name, Size, Part);
        if (Validate && !Validate(Part)) {
          (void)::unlink(Part.c_str());
          return false;
        }
        if (::rename(Part.c_str(), DestPath.c_str()) != 0)
          throw std::runtime_error("rename failed: " + DestPath);
        syncDir();
        return true;
      } catch (const TransportError &) {
        if (Attempt + 1 >= Backoff.MaxAttempts)
          throw;
        uint64_t Ms = Backoff.delayMs(Attempt);
        Stats.BackoffMsTotal += Ms;
        ++Stats.Reconnects;
        if (Ms)
          std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
      }
    }
  }

private:
  std::vector<repl::RemoteFile> fetchListing(ByteTransport &T) {
    repl::sendFrame(T, repl::Msg::ListReq, nullptr, 0);
    auto F = repl::recvFrame(T);
    if (!F || F->Type != repl::Msg::ListResp)
      throw TransportError("bad listing response");
    std::vector<repl::RemoteFile> Out;
    try {
      ByteReader R(F->Payload.data(), F->Payload.size());
      uint32_t N = R.get<uint32_t>();
      if (N > (1u << 20))
        throw CorruptCheckpoint("absurd listing");
      Out.reserve(N);
      for (uint32_t I = 0; I < N; ++I) {
        uint16_t Len = R.get<uint16_t>();
        const uint8_t *P = R.bytes(Len);
        std::string Name(reinterpret_cast<const char *>(P), Len);
        uint64_t Bytes = R.get<uint64_t>();
        if (!repl::isReplicableName(Name))
          throw CorruptCheckpoint("unreplicable name in listing");
        Out.push_back(repl::RemoteFile{std::move(Name), Bytes});
      }
      if (!R.exhausted())
        throw CorruptCheckpoint("trailing listing bytes");
    } catch (const CorruptCheckpoint &) {
      throw TransportError("malformed listing");
    }
    return Out;
  }

  void catchUpOnce() {
    auto T = Connect();
    std::vector<repl::RemoteFile> Remote = fetchListing(*T);
    std::map<std::string, uint64_t> RemoteSize;
    for (const repl::RemoteFile &F : Remote)
      RemoteSize[F.Name] = F.Bytes;

    // Retire local files the leader no longer has (trimmed WAL, retired
    // checkpoint generations) and .part leftovers whose base vanished.
    {
      DIR *D = ::opendir(Dir.c_str());
      if (!D)
        throw std::runtime_error("cannot open follower dir " + Dir);
      std::vector<std::string> Drop;
      while (struct dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if (repl::isReplicableName(Name)) {
          if (!RemoteSize.count(Name))
            Drop.push_back(Name);
        } else if (Name.size() > 5 &&
                   Name.rfind(".part") == Name.size() - 5 &&
                   !RemoteSize.count(Name.substr(0, Name.size() - 5))) {
          Drop.push_back(Name);
        }
      }
      ::closedir(D);
      for (const std::string &Name : Drop) {
        (void)::unlink((Dir + "/" + Name).c_str());
        ++Stats.FilesDeleted;
      }
    }

    // Fetch everything missing or short. Checkpoints and sealed WAL
    // segments are immutable, and the active segment is append-only, so
    // "same size" ⇒ "same bytes" and a local prefix is always a valid
    // resume base.
    for (const repl::RemoteFile &F : Remote) {
      std::string Final = Dir + "/" + F.Name;
      struct stat St;
      if (::stat(Final.c_str(), &St) == 0 && uint64_t(St.st_size) == F.Bytes) {
        ++Stats.FilesSkipped;
        continue;
      }
      fetchInto(*T, F.Name, F.Bytes, Final + ".part");
      if (::rename((Final + ".part").c_str(), Final.c_str()) != 0)
        throw std::runtime_error("rename failed: " + Final);
    }
    syncDir();
  }

  /// Fetch \p Name (whose remote size is \p Size) into \p Part, resuming
  /// any existing partial at its last whole-chunk boundary. On return the
  /// file is complete, CRC-verified end-to-end, and fsynced.
  void fetchInto(ByteTransport &T, const std::string &Name, uint64_t Size,
                 const std::string &Part) {
    // Resume point: whole chunks only, so the server-side range CRC
    // composes with a CRC of our own verified prefix.
    uint64_t Resume = 0;
    {
      struct stat St;
      if (::stat(Part.c_str(), &St) == 0 && St.st_size > 0) {
        Resume = (uint64_t(St.st_size) / ChunkBytes) * ChunkBytes;
        if (Resume > Size)
          Resume = 0; // leader restarted with a shorter file: start over
        if (Resume)
          ++Stats.Resumes;
      }
    }
    int Fd = ::open(Part.c_str(), O_WRONLY | O_CREAT, 0644);
    if (Fd < 0)
      throw std::runtime_error("cannot create " + Part);
    struct FdCloser {
      int Fd;
      ~FdCloser() { ::close(Fd); }
    } Closer{Fd};
    if (::ftruncate(Fd, off_t(Resume)) != 0)
      throw std::runtime_error("truncate failed: " + Part);

    std::vector<uint8_t> Req;
    {
      ByteWriter W(Req);
      W.put<uint64_t>(Resume);
      W.put<uint32_t>(uint32_t(ChunkBytes));
      W.put<uint16_t>(uint16_t(Name.size()));
      W.bytes(Name.data(), Name.size());
    }
    repl::sendFrame(T, repl::Msg::FetchReq, Req.data(), Req.size());

    uint64_t Off = Resume;
    uint32_t RangeCrc = 0; // over bytes received from Resume onward
    if (::lseek(Fd, off_t(Resume), SEEK_SET) < 0)
      throw std::runtime_error("seek failed: " + Part);
    for (;;) {
      auto F = repl::recvFrame(T);
      if (!F)
        throw TransportError("connection closed mid-fetch: " + Name);
      if (F->Type == repl::Msg::Err)
        throw TransportError("server error: " +
                             std::string(F->Payload.begin(),
                                         F->Payload.end()));
      if (F->Type == repl::Msg::FileEnd) {
        uint64_t End;
        uint32_t Crc;
        try {
          ByteReader R(F->Payload.data(), F->Payload.size());
          End = R.get<uint64_t>();
          Crc = R.get<uint32_t>();
        } catch (const CorruptCheckpoint &) {
          throw TransportError("malformed FileEnd");
        }
        if (End != Off || End != Size)
          throw TransportError("short fetch: " + Name);
        if (Crc != RangeCrc)
          throw TransportError("range checksum mismatch: " + Name);
        break;
      }
      if (F->Type != repl::Msg::Chunk)
        throw TransportError("unexpected frame mid-fetch");
      uint64_t ChunkOff;
      try {
        ByteReader R(F->Payload.data(), F->Payload.size());
        ChunkOff = R.get<uint64_t>();
      } catch (const CorruptCheckpoint &) {
        throw TransportError("malformed chunk");
      }
      if (ChunkOff != Off)
        throw TransportError("chunk offset mismatch");
      const uint8_t *Data = F->Payload.data() + sizeof(uint64_t);
      size_t N = F->Payload.size() - sizeof(uint64_t);
      RangeCrc = crc32c(Data, N, RangeCrc);
      fpWrite(Fd, Data, N, "repl.chunk.write");
      Off += N;
      Stats.BytesFetched += N;
    }
    if (!fpFsync(Fd, "repl.part.fsync"))
      throw std::runtime_error("fsync failed: " + Part);
    ++Stats.FilesFetched;
  }

  void syncDir() {
    int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (DirFd >= 0) {
      (void)::fsync(DirFd);
      ::close(DirFd);
    }
  }

  std::string Dir;
  ConnectFn Connect;
  BackoffPolicy Backoff;
  size_t ChunkBytes;
  ReplicationStats Stats;
};

//===----------------------------------------------------------------------===
// Background scrubber.
//===----------------------------------------------------------------------===

struct ScrubOptions {
  /// Sleep between full passes of the background thread.
  uint64_t PassIntervalMs = 1000;
};

struct ScrubStats {
  uint64_t Passes = 0;
  uint64_t FilesVerified = 0;
  uint64_t BytesVerified = 0;
  uint64_t CorruptFound = 0;
  uint64_t Quarantined = 0;   ///< checkpoint generations set aside
  uint64_t Repaired = 0;      ///< files restored from the replica
  uint64_t RepairFailed = 0;  ///< corruption left standing (no replica,
                              ///< replica lacks the file, or re-fetch
                              ///< did not validate)
};

/// Re-verifies every checkpoint and WAL file in an engine's directory
/// against its checksums, once per PassIntervalMs. A corrupt checkpoint
/// generation is quarantined through the engine (so recovery and the
/// incremental chain stop trusting it) and, when a repair connector is
/// configured, restored by a verified re-fetch from the replica. A
/// corrupt *sealed* WAL segment is repaired in place the same way (never
/// quarantined: renaming log records away could widen the damage); the
/// active segment is only ever reported, since its tail is in flight.
class Scrubber {
public:
  using ConnectFn = Replicator::ConnectFn;

  Scrubber(DurabilityEngine &Engine, ScrubOptions O = {},
           ConnectFn Repair = nullptr)
      : Engine(Engine), Opts(O), Repair(std::move(Repair)) {}
  ~Scrubber() { stop(); }
  Scrubber(const Scrubber &) = delete;
  Scrubber &operator=(const Scrubber &) = delete;

  /// One synchronous pass over the directory. Safe to call concurrently
  /// with the engine's appends/checkpoints (files that vanish mid-pass
  /// were legitimately retired and are skipped, not flagged).
  ScrubStats scrubOnce() {
    const std::string &Dir = Engine.options().Dir;
    std::string Active = Engine.activeSegmentPath();
    // Sampled *before* scanning: records acknowledged after this point
    // may legitimately still be mid-flight in the active tail.
    uint64_t DurableFloor = Engine.durableSeq();

    std::vector<std::string> Names;
    {
      DIR *D = ::opendir(Dir.c_str());
      if (D) {
        while (struct dirent *E = ::readdir(D))
          if (repl::isReplicableName(E->d_name))
            Names.push_back(E->d_name);
        ::closedir(D);
      }
    }
    std::sort(Names.begin(), Names.end());

    ScrubStats Delta;
    for (const std::string &Name : Names) {
      std::string Path = Dir + "/" + Name;
      struct stat St;
      if (::stat(Path.c_str(), &St) != 0)
        continue; // retired between listing and scrub — not corruption
      if (auto Seq = detail::ckptSeqOfName(Name))
        scrubCheckpoint(Dir, Name, *Seq, uint64_t(St.st_size), Delta);
      else
        scrubWal(Dir, Name, Path == Active, DurableFloor,
                 uint64_t(St.st_size), Delta);
      if (StopFlag.load(std::memory_order_relaxed))
        break;
    }
    ++Delta.Passes;
    accumulate(Delta);
    return Delta;
  }

  /// Start the background thread (idempotent).
  void start() {
    std::lock_guard<std::mutex> Lock(LifeM);
    if (Thread.joinable())
      return;
    StopFlag.store(false, std::memory_order_relaxed);
    Thread = std::thread([this] {
      while (!StopFlag.load(std::memory_order_relaxed)) {
        scrubOnce();
        pausableSleep(Opts.PassIntervalMs);
      }
    });
  }

  /// Stop and join the background thread (idempotent).
  void stop() {
    std::lock_guard<std::mutex> Lock(LifeM);
    {
      std::lock_guard<std::mutex> SLock(SleepM);
      StopFlag.store(true, std::memory_order_relaxed);
    }
    SleepCV.notify_all();
    if (Thread.joinable())
      Thread.join();
  }

  /// Lifetime totals across every pass (thread-safe snapshot).
  ScrubStats stats() const {
    std::lock_guard<std::mutex> Lock(StatsM);
    return Totals;
  }

private:
  void scrubCheckpoint(const std::string &Dir, const std::string &Name,
                       uint64_t Seq, uint64_t Bytes, ScrubStats &Delta) {
    ++Delta.FilesVerified;
    Delta.BytesVerified += Bytes;
    if (readCheckpointFile(Dir + "/" + Name))
      return; // every page CRC holds
    ++Delta.CorruptFound;
    if (Engine.quarantineCheckpoint(Seq))
      ++Delta.Quarantined;
    if (!Repair) {
      ++Delta.RepairFailed;
      return;
    }
    std::string Final = Dir + "/" + Name;
    Replicator R(Dir, Repair);
    bool Ok = false;
    try {
      Ok = R.fetchFileTo(Name, Final, [&](const std::string &P) {
        auto L = readCheckpointFile(P);
        return L && L->Seq == Seq;
      });
    } catch (const TransportError &) {
      Ok = false;
    }
    if (!Ok) {
      ++Delta.RepairFailed;
      return;
    }
    (void)::unlink((Final + ".quarantine").c_str());
    auto M = peekCheckpointMeta(Final);
    Engine.noteCheckpointRepaired(Seq, M ? M->BaseSeq : 0);
    ++Delta.Repaired;
  }

  void scrubWal(const std::string &Dir, const std::string &Name,
                bool IsActive, uint64_t DurableFloor, uint64_t Bytes,
                ScrubStats &Delta) {
    ++Delta.FilesVerified;
    Delta.BytesVerified += Bytes;
    std::string Path = Dir + "/" + Name;
    if (walSegmentClean(Path, /*Sealed=*/!IsActive, DurableFloor))
      return;
    ++Delta.CorruptFound;
    // The active segment's tail is in flight — never rewrite it under
    // the appender; detection alone is the verdict.
    if (IsActive || !Repair) {
      ++Delta.RepairFailed;
      return;
    }
    Replicator R(Dir, Repair);
    bool Ok = false;
    try {
      // In-place repair: fetch beside the corrupt segment, validate the
      // complete replacement, then rename over it. On any failure the
      // corrupt original stays put — a partially-valid log prefix beats
      // a missing generation at recovery.
      Ok = R.fetchFileTo(Name, Path, [&](const std::string &P) {
        return walSegmentClean(P, /*Sealed=*/true);
      });
    } catch (const TransportError &) {
      Ok = false;
    }
    if (Ok)
      ++Delta.Repaired;
    else
      ++Delta.RepairFailed;
  }

  void accumulate(const ScrubStats &D) {
    std::lock_guard<std::mutex> Lock(StatsM);
    Totals.Passes += D.Passes;
    Totals.FilesVerified += D.FilesVerified;
    Totals.BytesVerified += D.BytesVerified;
    Totals.CorruptFound += D.CorruptFound;
    Totals.Quarantined += D.Quarantined;
    Totals.Repaired += D.Repaired;
    Totals.RepairFailed += D.RepairFailed;
  }

  void pausableSleep(uint64_t Ms) {
    std::unique_lock<std::mutex> Lock(SleepM);
    SleepCV.wait_for(Lock, std::chrono::milliseconds(Ms), [this] {
      return StopFlag.load(std::memory_order_relaxed);
    });
  }

  DurabilityEngine &Engine;
  ScrubOptions Opts;
  ConnectFn Repair;

  std::mutex LifeM;
  std::thread Thread;
  std::atomic<bool> StopFlag{false};
  std::mutex SleepM;
  std::condition_variable SleepCV;

  mutable std::mutex StatsM;
  ScrubStats Totals;
};

} // namespace aspen

#endif // ASPEN_STORE_REPLICATION_H
