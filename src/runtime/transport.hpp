#pragma once
// The remote-worker wire protocol and the Transport seam underneath
// RemoteWorkerBackend.
//
// Every message is one fixed-size, length-prefixed frame:
//
//   [u32 payload_len = 29][u8 type][u32 worker][u64 seq][u64 a][u64 b]
//
// all fields little-endian regardless of host order, so traces and golden
// tests are byte-identical across platforms. The frame vocabulary is the
// protocol the paper's §6 sketch needs and nothing more:
//
//   kHello        worker -> pool   "I joined" (a = pid); ends provisioning
//   kSubmit       pool -> worker   lease `seq` opens (a = pool backlog, the
//                                  piggybacked steal hint; b = number of
//                                  task brackets the lease covers in batched
//                                  mode, 0 on the unbatched legacy path)
//   kComplete     worker -> pool   lease `seq` closes
//   kHeartbeat    pool -> worker   liveness probe `seq`
//   kHeartbeatAck worker -> pool   probe reply
//   kStealHint    pool -> worker   advisory: backlog exists (a = depth)
//   kRetire       pool -> worker   clean shutdown request
//   kRetired      worker -> pool   shutdown acknowledged
//   kSubmitNamed  pool -> worker   execute REGISTERED muscle `a` remotely;
//                                  b = byte length of the encoded argument
//                                  payload that follows the frame
//   kResultNamed  worker -> pool   named call `seq` resolved (a = status,
//                                  see NamedStatus; b = result payload len)
//
// The named frames are the one variable-length part of the dialect: the
// fixed 33-byte frame is a header and exactly `b` payload bytes follow it
// (bounded by kMaxNamedPayload — a larger advertised length poisons the
// link rather than driving an allocation). Everything else stays the
// fixed-size protocol PR 5 shipped, byte-identical.
//
// A Transport is one worker's duplex channel. Implementations:
//   * PipeTransport (subprocess_backend.cpp): a socketpair to a fork()ed
//     worker process — real fds, real EOF-on-crash, real join latency;
//   * TcpTransport (tcp_transport.cpp): a real socket to a TcpWorkerHost on
//     another host — the first transport whose remote side executes
//     registered muscles instead of echoing brackets;
//   * FakeWorkerTransport (fake_transport.cpp): a seeded, virtual-clock
//     double that injects every failure mode deterministically.
//
// encode/decode are freestanding and heap-free so the fork()ed worker child
// (which may only use async-signal-safe operations) can share them.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/clock.hpp"

namespace askel {

/// Wire values — never renumber.
enum class WireFrameType : std::uint8_t {
  kHello = 1,
  kSubmit = 2,
  kComplete = 3,
  kHeartbeat = 4,
  kHeartbeatAck = 5,
  kStealHint = 6,
  kRetire = 7,
  kRetired = 8,
  kSubmitNamed = 9,
  kResultNamed = 10,
};

const char* to_string(WireFrameType t);

/// True for the frame types followed by `b` payload bytes on the wire.
bool frame_has_payload(WireFrameType t);

/// Outcome of a named-muscle execution, carried in kResultNamed's `a`.
enum class NamedStatus : std::uint8_t {
  kOk = 0,             // result payload is the encoded return value
  kUnknownMuscle = 1,  // the wire id is not registered on the worker host
  kBadArgument = 2,    // the argument payload did not decode
  kUnsupported = 3,    // the remote side has no muscle table (subprocess echo)
};

/// Hard ceiling on a named frame's payload: a frame advertising more is
/// treated as a poisoned link, never as an allocation request.
inline constexpr std::uint64_t kMaxNamedPayload = 64 * 1024;

struct WireFrame {
  WireFrameType type = WireFrameType::kHello;
  std::uint32_t worker = 0;  // worker index the frame concerns
  std::uint64_t seq = 0;     // lease / probe sequence number (per worker)
  std::uint64_t a = 0;       // kHello: pid; kSubmit/kStealHint: backlog depth
  std::uint64_t b = 0;       // kSubmit: batched-lease bracket count (0 = unbatched)

  bool operator==(const WireFrame&) const = default;
};

inline constexpr std::size_t kWireFramePayloadSize = 1 + 4 + 8 + 8 + 8;
inline constexpr std::size_t kWireFrameSize = 4 + kWireFramePayloadSize;
using WireFrameBytes = std::array<std::uint8_t, kWireFrameSize>;

/// Serialize (length prefix included). Pure, heap-free, async-signal-safe.
WireFrameBytes encode_frame(const WireFrame& f);

/// Parse one whole frame (length prefix included). False on a short buffer,
/// a wrong length prefix, or an unknown type — the caller treats any of
/// those as a poisoned link.
bool decode_frame(const std::uint8_t* wire, std::size_t size, WireFrame& out);

/// One outbound frame and its payload (named dialect: `frame.b` == size).
struct OutFrame {
  WireFrame frame;
  const std::uint8_t* payload = nullptr;
  std::size_t size = 0;
};

/// One remote worker's duplex channel.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Ship a frame. False = link down (the caller recovers the session).
  virtual bool send(const WireFrame& f) = 0;
  /// Ship a frame plus its variable payload (named dialect; `f.b` must
  /// already equal `size`). Default: payload-less frames forward to send();
  /// a transport that predates the dialect refuses real payloads.
  virtual bool send(const WireFrame& f, const std::uint8_t* /*payload*/,
                    std::size_t size) {
    return size == 0 ? send(f) : false;
  }
  /// Ship several frames, in order; fd transports put them in one write.
  /// False = link down, with no telling how many went out: the caller
  /// treats the whole group as unsent. Default: one send per frame.
  virtual bool send_frames(std::span<const OutFrame> frames) {
    for (const OutFrame& o : frames) {
      if (!send(o.frame, o.payload, o.size)) return false;
    }
    return true;
  }
  /// Next inbound frame, waiting up to `timeout` seconds (0 = only what is
  /// already deliverable; virtual-time transports never wait). False =
  /// nothing arrived — check alive() to tell timeout from a dead link.
  /// A payload frame read through this overload stays in sync (the payload
  /// bytes are consumed) but the payload itself is discarded.
  virtual bool recv(WireFrame& out, Duration timeout) = 0;
  /// Payload-aware recv: `payload` is cleared, then filled for named
  /// frames. Default forwards to the frame-only recv (transports without
  /// the dialect never produce payload frames).
  virtual bool recv(WireFrame& out, std::vector<std::uint8_t>& payload,
                    Duration timeout) {
    payload.clear();
    return recv(out, timeout);
  }
  virtual bool alive() const = 0;
  /// Best-effort retire + teardown. Idempotent.
  virtual void close() = 0;
};

/// Provisions transports, one join attempt per call.
class TransportFactory {
 public:
  struct Connect {
    std::unique_ptr<Transport> transport;  // non-null: the worker joined
    bool failed = false;                   // true: provisioning it failed
    // neither: still joining — poll again (after advancing virtual time,
    // or after a real-time backoff).
  };

  virtual ~TransportFactory() = default;
  virtual Connect try_connect(int worker) = 0;
};

}  // namespace askel
