// Fault-tolerant message transport for the distributed runtime.
//
// Frames travel over local stream sockets (AF_UNIX) in a fixed binary
// format: a 32-byte header (magic, type, epoch, rank, payload length)
// followed by the payload and a trailing CRC-32 of the payload, so a torn
// or corrupted message surfaces as a structured TransportError instead of
// deserializing garbage. All *blocking* socket entry points — connect,
// accept, receive — live in transport.cpp behind deadline-aware wrappers
// (poll + bounded retry with exponential backoff); qpinn_lint bans the raw
// calls everywhere else so no code path can block without a timeout.
//
// Failure taxonomy:
//   TransportError — the operation failed after bounded retries (connect
//     refused, receive deadline, corrupt frame); carries op / peer rank /
//     attempt count for diagnosis and test assertions.
//   PeerLostError — the peer is gone (EOF on the stream, or the
//     coordinator aborted the epoch after a heartbeat timeout); the caller
//     is expected to run the recovery state machine, not retry.
//
// Fault injection (see util/fault.hpp): send_frame consults the injector
// before every send — "dist.drop_msg" silently discards the frame,
// "dist.delay" sleeps delay_ms() first — scoped to QPINN_FAULT_RANK.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace qpinn::dist {

/// Timeouts and retry policy for every transport operation.
struct TransportOptions {
  /// Per-attempt connect timeout and per-wait receive timeout.
  std::int64_t message_timeout_ms = 1000;
  /// Coordinator-side epoch deadline: a rank whose contribution has not
  /// arrived this many ms into the gather is declared lost. Contributions
  /// double as heartbeats, so no extra threads are needed.
  std::int64_t heartbeat_timeout_ms = 2000;
  /// Bounded retries for connects and sum-awaits (attempts = retries + 1).
  std::int64_t max_retries = 4;
  /// Exponential backoff between connect attempts: initial, doubling, cap.
  std::int64_t backoff_initial_ms = 50;
  std::int64_t backoff_max_ms = 1000;
  /// How long recovery waits for a replacement rank to dial in.
  std::int64_t rejoin_timeout_ms = 20000;

  /// Defaults overridden by QPINN_DIST_MESSAGE_TIMEOUT_MS,
  /// QPINN_DIST_HEARTBEAT_TIMEOUT_MS, QPINN_DIST_MAX_RETRIES,
  /// QPINN_DIST_BACKOFF_MS and QPINN_DIST_REJOIN_TIMEOUT_MS.
  static TransportOptions from_env();
};

/// A transport operation failed after its bounded retries.
class TransportError : public Error {
 public:
  TransportError(const std::string& op, std::int64_t rank,
                 std::int64_t attempts, const std::string& detail);

  const std::string& op() const { return op_; }
  std::int64_t rank() const { return rank_; }
  std::int64_t attempts() const { return attempts_; }

 private:
  std::string op_;
  std::int64_t rank_ = -1;
  std::int64_t attempts_ = 0;
};

/// A peer process is gone (EOF) or the coordinator aborted the epoch.
class PeerLostError : public Error {
 public:
  explicit PeerLostError(std::int64_t rank, const std::string& detail = "");

  std::int64_t rank() const { return rank_; }

 private:
  std::int64_t rank_ = -1;
};

/// Message kinds understood by the runtime.
enum class MsgType : std::uint32_t {
  kHello = 1,        // worker -> root: join (payload "rejoin" on re-entry)
  kHelloAck = 2,     // root -> worker: join accepted
  kGradContrib = 3,  // worker -> root: this epoch's reduction contribution
  kGradSum = 4,      // root -> worker: rank-ordered sum for the epoch
  kEpochAbort = 5,   // root -> worker: a peer died, roll back this epoch;
                     // worker -> root: echoed on entering recovery
  kSync = 6,         // root -> rejoiner: authoritative trainer sync state
  kResume = 7,       // root -> worker: recovery done; payload "rank world"
  kShutdown = 8,     // root -> worker: training finished, close cleanly
};

/// One message: header fields plus an opaque payload.
struct Frame {
  MsgType type = MsgType::kHello;
  std::int64_t epoch = 0;
  std::int64_t rank = 0;
  std::string payload;
};

/// Fixed wire-format geometry: a 32-byte header (magic, type, epoch, rank,
/// payload length) followed by the payload and a CRC-32 of the payload.
constexpr std::size_t kFrameHeaderBytes = 32;
constexpr std::size_t kFrameTrailerBytes = sizeof(std::uint32_t);
/// Hard cap on a payload length field, enforced before any allocation so a
/// corrupt or hostile length can never drive a multi-gigabyte resize.
constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

/// Serializes one frame into its wire form: header, payload, CRC trailer.
std::string encode_frame(const Frame& frame);

/// Decodes one complete frame from an untrusted byte buffer. Every header
/// field is validated before the payload is touched: the magic word, the
/// message type (must be a known MsgType), and the payload length (hard
/// cap, and it must account for exactly the bytes present). The payload
/// CRC-32 must match. Throws TransportError naming the defect; never
/// crashes or allocates more than `len` bytes. recv_frame applies the same
/// validation on the streaming path, and fuzz/fuzz_frame_decode.cpp drives
/// this entry point directly.
Frame decode_frame(const void* data, std::size_t len,
                   std::int64_t peer_rank = -1);

/// RAII file-descriptor wrapper for one connected stream socket.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Connected socketpair for in-process (loopback) communicators.
  static void make_pair(Socket& a, Socket& b);

 private:
  int fd_ = -1;
};

/// Listening AF_UNIX socket owned by the coordinator; removes a stale
/// socket file on bind and unlinks it again on destruction.
class Listener {
 public:
  explicit Listener(const std::string& endpoint);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accepts one peer, or nullopt when `timeout_ms` elapses first.
  std::optional<Socket> accept_peer(std::int64_t timeout_ms);

  const std::string& endpoint() const { return endpoint_; }

 private:
  std::string endpoint_;
  int fd_ = -1;
};

/// Dials the coordinator's endpoint with bounded retry and exponential
/// backoff (the coordinator may not be listening yet when a worker
/// starts). Throws TransportError after the retry budget is spent.
Socket connect_peer(const std::string& endpoint, const TransportOptions& opts,
                    std::int64_t self_rank);

/// Sends one frame, applying the armed dist faults for `self_rank` first
/// (delay, then drop). Throws PeerLostError when the peer has hung up.
void send_frame(Socket& socket, const Frame& frame, std::int64_t self_rank);

/// Receives one frame, waiting at most `timeout_ms`. Returns nullopt on
/// timeout, throws PeerLostError on EOF and TransportError on a corrupt
/// frame (bad magic, bad CRC, oversized payload).
std::optional<Frame> recv_frame(Socket& socket, std::int64_t timeout_ms,
                                std::int64_t peer_rank);

/// True when `socket` has readable data (or EOF) within `timeout_ms`.
bool wait_readable(const Socket& socket, std::int64_t timeout_ms);

/// Indices of the sockets with readable data (or EOF) once any becomes
/// ready, waiting at most `timeout_ms`; empty on timeout.
std::vector<std::size_t> wait_any_readable(
    const std::vector<const Socket*>& sockets, std::int64_t timeout_ms);

/// Monotonic milliseconds for transport deadlines (steady_clock).
std::int64_t steady_now_ms();

}  // namespace qpinn::dist
