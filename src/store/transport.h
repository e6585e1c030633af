//===- store/transport.h - Byte-stream transports for replication ---------===//
//
// The replication layer (store/replication.h) moves checkpoint and WAL
// bytes between stores over a minimal byte-stream abstraction: ordered,
// reliable, connection-oriented, no message framing (the protocol layer
// frames + checksums on top). Two implementations ship:
//
//   * makePipeTransportPair() — an in-process socketpair(2), for tests,
//     benchmarks, and same-process leader/follower topologies.
//   * UnixSocketListener / connectUnixSocket() — a filesystem-named
//     AF_UNIX stream socket, for separate-process topologies.
//
// Both are one FdTransport underneath. Failure is a thrown
// TransportError (peer gone, injected fault) — the replication driver's
// retry/backoff loop owns the recovery policy, transports stay dumb.
//
// Fault injection: send and recv route through the failpoint registry
// (sites "repl.send" / "repl.recv"). SoftError models a dropped
// connection, ShortWrite a torn transfer (prefix delivered, then the
// connection dies), BitFlip in-transit corruption (delivered, wrong —
// the frame CRC on the receiving side must catch it), and Crash
// simulated process death mid-ship on whichever side hits the site.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_STORE_TRANSPORT_H
#define ASPEN_STORE_TRANSPORT_H

#include "util/failpoint.h"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <utility>
#include <vector>

namespace aspen {

/// Connection-level failure (peer closed, I/O error, injected fault).
/// Retryable by design: the replication driver reconnects and resumes.
struct TransportError : std::runtime_error {
  explicit TransportError(const std::string &What)
      : std::runtime_error("transport error: " + What) {}
};

/// An ordered, reliable byte stream between two replication endpoints.
class ByteTransport {
public:
  virtual ~ByteTransport() = default;

  /// Write exactly \p N bytes or throw TransportError.
  virtual void send(const void *P, size_t N) = 0;

  /// Read up to \p N bytes; 0 = orderly close by the peer. Throws
  /// TransportError on I/O failure.
  virtual size_t recv(void *P, size_t N) = 0;

  /// Half-close the write side (the peer's recv() drains then sees 0).
  virtual void shutdownWrite() = 0;
};

/// Read exactly \p N bytes or throw (EOF mid-object is a torn transfer).
inline void recvExact(ByteTransport &T, void *P, size_t N) {
  uint8_t *Out = static_cast<uint8_t *>(P);
  size_t Done = 0;
  while (Done < N) {
    size_t R = T.recv(Out + Done, N - Done);
    if (R == 0)
      throw TransportError("connection closed mid-message");
    Done += R;
  }
}

/// File-descriptor transport over a connected stream socket (both the
/// in-process socketpair and the unix-socket flavors).
class FdTransport : public ByteTransport {
public:
  explicit FdTransport(int Fd) : Fd(Fd) {}
  FdTransport(const FdTransport &) = delete;
  FdTransport &operator=(const FdTransport &) = delete;
  ~FdTransport() override {
    if (Fd >= 0)
      ::close(Fd);
  }

  void send(const void *P, size_t N) override {
    const uint8_t *Src = static_cast<const uint8_t *>(P);
    std::vector<uint8_t> Flipped; // only on BitFlip injection
    size_t Persist = N;
    bool DropAfter = false;
    FailAction A;
    if (failpoints().check("repl.send", A)) {
      switch (A.K) {
      case FailAction::Crash:
        throw SimulatedCrash("repl.send");
      case FailAction::SoftError:
        throw TransportError("injected connection drop (send)");
      case FailAction::ShortWrite: // torn transfer: prefix, then drop
        Persist = A.Arg < N ? size_t(A.Arg) : N;
        DropAfter = true;
        break;
      case FailAction::BitFlip: // in-transit corruption; CRC must catch
        Flipped.assign(Src, Src + N);
        if (N)
          Flipped[size_t(A.Arg / 8) % N] ^= uint8_t(1u << (A.Arg % 8));
        Src = Flipped.data();
        break;
      case FailAction::FailFsync:
        break; // not meaningful on a transport
      }
    }
    size_t Done = 0;
    while (Done < Persist) {
      ssize_t W = ::send(Fd, Src + Done, Persist - Done, MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        throw TransportError(std::string("send failed: ") +
                             std::strerror(errno));
      }
      Done += size_t(W);
    }
    if (DropAfter)
      throw TransportError("injected torn transfer (send)");
  }

  size_t recv(void *P, size_t N) override {
    FailAction A;
    if (failpoints().check("repl.recv", A)) {
      if (A.K == FailAction::Crash)
        throw SimulatedCrash("repl.recv");
      throw TransportError("injected connection drop (recv)");
    }
    for (;;) {
      ssize_t R = ::recv(Fd, P, N, 0);
      if (R >= 0)
        return size_t(R);
      if (errno == EINTR)
        continue;
      throw TransportError(std::string("recv failed: ") +
                           std::strerror(errno));
    }
  }

  void shutdownWrite() override { ::shutdown(Fd, SHUT_WR); }

private:
  int Fd;
};

/// An in-process connected pair: bytes sent on one end arrive on the
/// other. {client, server} by convention (the pair is symmetric).
inline std::pair<std::unique_ptr<ByteTransport>,
                 std::unique_ptr<ByteTransport>>
makePipeTransportPair() {
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
    throw TransportError(std::string("socketpair failed: ") +
                         std::strerror(errno));
  return {std::make_unique<FdTransport>(Fds[0]),
          std::make_unique<FdTransport>(Fds[1])};
}

/// Listening unix-domain stream socket. accept() blocks; stopping the
/// listener (destructor or stop()) unblocks it with a TransportError.
class UnixSocketListener {
public:
  explicit UnixSocketListener(std::string Path) : Path(std::move(Path)) {
    if (this->Path.size() >= sizeof(sockaddr_un{}.sun_path))
      throw TransportError("unix socket path too long: " + this->Path);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      throw TransportError(std::string("socket failed: ") +
                           std::strerror(errno));
    (void)::unlink(this->Path.c_str()); // stale socket from a dead peer
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, this->Path.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
        ::listen(Fd, 8) != 0) {
      int E = errno;
      ::close(Fd);
      Fd = -1;
      throw TransportError(std::string("bind/listen failed: ") +
                           std::strerror(E));
    }
  }

  UnixSocketListener(const UnixSocketListener &) = delete;
  UnixSocketListener &operator=(const UnixSocketListener &) = delete;
  ~UnixSocketListener() {
    stop();
    if (Fd >= 0)
      ::close(Fd);
  }

  std::unique_ptr<ByteTransport> accept() {
    int C = ::accept(Fd, nullptr, nullptr);
    if (C < 0)
      throw TransportError(std::string("accept failed: ") +
                           std::strerror(errno));
    return std::make_unique<FdTransport>(C);
  }

  /// Shut the listening socket down (unblocks accept(), and every later
  /// accept() fails) and remove the filesystem name. Idempotent, and safe
  /// while another thread is inside accept(): the descriptor itself is
  /// closed only by the destructor, so a concurrent accept() never reads
  /// a descriptor being reset or reused.
  void stop() {
    if (Fd >= 0 && !Stopped.exchange(true)) {
      ::shutdown(Fd, SHUT_RDWR);
      (void)::unlink(Path.c_str());
    }
  }

  const std::string &path() const { return Path; }

private:
  std::string Path;
  int Fd = -1; ///< written only by the constructor
  std::atomic<bool> Stopped{false};
};

inline std::unique_ptr<ByteTransport>
connectUnixSocket(const std::string &Path) {
  if (Path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw TransportError("unix socket path too long: " + Path);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    throw TransportError(std::string("socket failed: ") +
                         std::strerror(errno));
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    int E = errno;
    ::close(Fd);
    throw TransportError(std::string("connect failed: ") +
                         std::strerror(E));
  }
  return std::make_unique<FdTransport>(Fd);
}

} // namespace aspen

#endif // ASPEN_STORE_TRANSPORT_H
