#pragma once
// Shared fd-level frame I/O — the one copy of the short-write / short-read /
// EINTR / deadline logic every real (fd-backed) transport uses.
//
// Before this header existed, PipeTransport (subprocess_backend.cpp) carried
// a private write_full/read loop; growing a second fd transport (TCP) would
// have meant a second copy of exactly the code whose edge cases — a short
// write resumed after EINTR, send() returning 0, a peer stalling mid-frame —
// are the ones that only bite under real network load. The helpers here are
// that audit, factored once:
//
//   * write_full: send() with MSG_NOSIGNAL (a dead peer must surface as
//     EPIPE, never SIGPIPE), resumes after EINTR *without losing the partial
//     progress*, and treats n == 0 as a hard error (a blocking stream send
//     never legitimately writes nothing — looping on it would spin forever);
//   * read_full: the blocking mirror, used by the fork()ed subprocess child
//     (async-signal-safe: no locks, no allocation, fixed caller buffers);
//   * FrameReader: the deadline-honoring, buffered read every non-child
//     reader uses (FdTransport pool-side, TcpWorkerHost's serve loop). It
//     makes one recv per wake and decodes every whole frame that recv
//     brought in from its buffer, so a Complete and a ResultNamed written
//     together cost one wake, not a poll+read pair per header and per
//     payload. Every poll uses the REMAINING time to the deadline computed
//     once at entry — the timeout is never re-armed after a partial read,
//     so a peer trickling one byte per poll cannot extend the total wait
//     past `timeout` (tests/tcp_transport_test.cpp pins total wait <=
//     timeout + epsilon). The result distinguishes a clean timeout
//     (nothing buffered, the stream is still in sync) from a mid-frame
//     stall (the stream is desynced for good — the caller poisons the
//     link); an advertised payload past kMaxNamedPayload is rejected from
//     the header alone, before the buffer grows.
//
// FdTransport wraps the helpers into the Transport contract over any
// connected stream fd; PipeTransport (socketpair to a fork child) and
// TcpTransport (socket to a worker host) derive from it and only add their
// teardown hooks.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "runtime/transport.hpp"
#include "util/clock.hpp"

namespace askel {
namespace frame_io {

/// Write exactly `size` bytes to a connected stream fd. MSG_NOSIGNAL on
/// every send; EINTR resumes with the partial progress kept; n == 0 and
/// every other error return false. Async-signal-safe.
bool write_full(int fd, const std::uint8_t* data, std::size_t size);

/// Blocking read of exactly `size` bytes (EINTR-resumed, EOF = false).
/// Async-signal-safe — this is the fork()ed worker child's read loop.
bool read_full(int fd, std::uint8_t* data, std::size_t size);

enum class ReadResult {
  kFrame,         // one whole frame (and its payload, if any) decoded
  kTimeout,       // deadline passed with NOTHING buffered: stream in sync
  kMidFrameStall, // deadline passed mid-frame: stream desynced — poison it
  kClosed,        // EOF or hard error
  kGarbage,       // bytes arrived but did not decode / payload oversized
};

/// Append one encoded frame and its payload to `out` (one write's worth).
void append_frame(std::vector<std::uint8_t>& out, const WireFrame& f,
                  const std::uint8_t* payload, std::size_t size);

/// Buffered frame reader over one stream fd. Owned by the fd's single
/// reader (not thread-safe); the fd stays the caller's to close.
class FrameReader {
 public:
  explicit FrameReader(int fd);

  /// Next frame, waiting up to `timeout` seconds with the deadline anchored
  /// here, once: a frame already buffered returns without a system call,
  /// otherwise each wake is one poll plus one recv of whatever arrived. A
  /// named frame's payload (`out.b` bytes, bounded by kMaxNamedPayload)
  /// comes under the same deadline; `payload` may be null, in which case
  /// the bytes are consumed (keeping the stream in sync) and discarded.
  ReadResult read(Duration timeout, WireFrame& out,
                  std::vector<std::uint8_t>* payload);

  /// True when a whole frame (and its payload) is buffered: the next read()
  /// returns it without touching the fd.
  bool has_frame() const;

 private:
  /// Bytes the buffered frame needs in total, or 0 while its header is
  /// incomplete; `garbage` is set when the header cannot be a frame.
  std::size_t frame_bytes(WireFrame& f, bool& garbage) const;

  int fd_;
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;  // first unread byte
  std::size_t tail_ = 0;  // one past the last received byte
};

}  // namespace frame_io

/// Transport over one connected stream fd — the shared body of
/// PipeTransport (socketpair to a fork child) and TcpTransport (socket to a
/// remote worker host). Every send, a payload frame or a send_frames group
/// included, is one write. Locking: `mu_` serializes send/close against each
/// other; recv stays lease-owner-only (the session machine's contract), so
/// it reads the fd without the mutex — close() shuts the socket down before
/// closing so a concurrent recv wakes with EOF instead of touching a
/// recycled fd number.
class FdTransport : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd), reader_(fd) {}
  ~FdTransport() override;

  bool send(const WireFrame& f) override;
  bool send(const WireFrame& f, const std::uint8_t* payload,
            std::size_t size) override;
  bool send_frames(std::span<const OutFrame> frames) override;
  bool recv(WireFrame& out, Duration timeout) override;
  bool recv(WireFrame& out, std::vector<std::uint8_t>& payload,
            Duration timeout) override;
  bool alive() const override;
  void close() override;

 protected:
  /// Teardown hook, called once under mu_ with the fd already shut down and
  /// closed: PipeTransport reaps its child and un-registers the parent fd.
  virtual void on_close_locked(int fd) { (void)fd; }

 private:
  bool recv_impl(WireFrame& out, std::vector<std::uint8_t>* payload,
                 Duration timeout);

  int fd_ = -1;
  std::atomic<bool> alive_{true};
  std::mutex mu_;                  // send/close vs each other
  std::vector<std::uint8_t> out_;  // under mu_: the next write's bytes
  frame_io::FrameReader reader_;   // recv side only (lease owner)
};

}  // namespace askel
