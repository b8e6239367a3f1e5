#include "runtime/frame_io.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>

namespace askel {
namespace frame_io {

bool write_full(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t at = 0;
  while (at < size) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    const ssize_t n = ::send(fd, data + at, size - at, MSG_NOSIGNAL);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
      continue;
    }
    // EINTR after a partial write resumes at `at` — progress is never lost.
    if (n < 0 && errno == EINTR) continue;
    // n == 0: a blocking stream send never legitimately writes nothing;
    // treating it as retryable would spin forever on a broken socket.
    return false;
  }
  return true;
}

bool read_full(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t at = 0;
  while (at < size) {
    const ssize_t n = ::read(fd, data + at, size - at);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or hard error
  }
  return true;
}

void append_frame(std::vector<std::uint8_t>& out, const WireFrame& f,
                  const std::uint8_t* payload, std::size_t size) {
  const WireFrameBytes bytes = encode_frame(f);
  out.insert(out.end(), bytes.begin(), bytes.end());
  if (size > 0) out.insert(out.end(), payload, payload + size);
}

namespace {
// One recv's reach: a pipelined request pair or a coalesced reply pair with
// small payloads fits many times over.
constexpr std::size_t kReadChunk = 4096;
}  // namespace

FrameReader::FrameReader(int fd) : fd_(fd), buf_(kReadChunk) {}

std::size_t FrameReader::frame_bytes(WireFrame& f, bool& garbage) const {
  garbage = false;
  if (tail_ - head_ < kWireFrameSize) return 0;
  if (!decode_frame(buf_.data() + head_, kWireFrameSize, f)) {
    garbage = true;
    return 0;
  }
  if (!frame_has_payload(f.type)) return kWireFrameSize;
  // Variable payload: `b` carries the byte count. An advertised length past
  // the protocol ceiling is a poisoned link, never an allocation request.
  if (f.b > kMaxNamedPayload) {
    garbage = true;
    return 0;
  }
  return kWireFrameSize + static_cast<std::size_t>(f.b);
}

bool FrameReader::has_frame() const {
  WireFrame f;
  bool garbage = false;
  const std::size_t need = frame_bytes(f, garbage);
  return need > 0 && tail_ - head_ >= need;
}

ReadResult FrameReader::read(Duration timeout, WireFrame& out,
                             std::vector<std::uint8_t>* payload) {
  if (fd_ < 0) return ReadResult::kClosed;
  // The deadline anchors HERE, once: every wake of this call — header,
  // decode and payload — spends from the same budget.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(0.0, timeout)));
  for (;;) {
    bool garbage = false;
    const std::size_t need = frame_bytes(out, garbage);
    if (garbage) return ReadResult::kGarbage;
    if (need > 0 && tail_ - head_ >= need) {
      if (payload != nullptr) {
        payload->assign(buf_.data() + head_ + kWireFrameSize,
                        buf_.data() + head_ + need);
      }
      head_ += need;
      if (head_ == tail_) head_ = tail_ = 0;
      return ReadResult::kFrame;
    }
    // Make room for the rest of this frame (the header, until it decodes):
    // slide the partial frame to the front, and grow only for a validated
    // payload length.
    const std::size_t want = std::max(need, kWireFrameSize);
    if (buf_.size() - head_ < want) {
      std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                buf_.begin() + static_cast<std::ptrdiff_t>(tail_),
                buf_.begin());
      tail_ -= head_;
      head_ = 0;
      if (buf_.size() < want) buf_.resize(want);
    }
    const double remaining_s =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    if (remaining_s <= 0.0) {
      // Nothing buffered is just "no frame"; a timeout MID-frame means the
      // byte stream is desynced for good.
      return tail_ == head_ ? ReadResult::kTimeout
                            : ReadResult::kMidFrameStall;
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int r;
    do {
      r = ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining_s * 1000.0)));
    } while (r < 0 && errno == EINTR);
    if (r <= 0) continue;  // loop re-checks the ORIGINAL deadline
    const ssize_t n = ::read(fd_, buf_.data() + tail_, buf_.size() - tail_);
    if (n > 0) {
      tail_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ReadResult::kClosed;  // EOF: the peer went away
  }
}

}  // namespace frame_io

FdTransport::~FdTransport() {
  // Derived destructors normally call close() themselves (so their
  // on_close_locked hook runs while the derived object is still whole);
  // this is the backstop for the plain-FdTransport case.
  FdTransport::close();
}

bool FdTransport::send(const WireFrame& f) { return send(f, nullptr, 0); }

bool FdTransport::send(const WireFrame& f, const std::uint8_t* payload,
                       std::size_t size) {
  const OutFrame one{f, payload, size};
  return send_frames({&one, 1});
}

bool FdTransport::send_frames(std::span<const OutFrame> frames) {
  std::lock_guard lock(mu_);
  if (fd_ < 0) return false;
  out_.clear();
  for (const OutFrame& o : frames) {
    frame_io::append_frame(out_, o.frame, o.payload, o.size);
  }
  if (!frame_io::write_full(fd_, out_.data(), out_.size())) {
    alive_.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

bool FdTransport::recv(WireFrame& out, Duration timeout) {
  return recv_impl(out, nullptr, timeout);
}

bool FdTransport::recv(WireFrame& out, std::vector<std::uint8_t>& payload,
                       Duration timeout) {
  return recv_impl(out, &payload, timeout);
}

bool FdTransport::recv_impl(WireFrame& out,
                            std::vector<std::uint8_t>* payload,
                            Duration timeout) {
  if (fd_ < 0) return false;
  switch (reader_.read(timeout, out, payload)) {
    case frame_io::ReadResult::kFrame:
      return true;
    case frame_io::ReadResult::kTimeout:
      return false;  // stream still in sync; the link stays up
    case frame_io::ReadResult::kMidFrameStall:
    case frame_io::ReadResult::kGarbage:
    case frame_io::ReadResult::kClosed:
      alive_.store(false, std::memory_order_release);
      return false;
  }
  return false;
}

bool FdTransport::alive() const {
  return alive_.load(std::memory_order_acquire);
}

void FdTransport::close() {
  std::lock_guard lock(mu_);
  if (fd_ >= 0) {
    // shutdown first: a recv blocked in poll() on another thread wakes with
    // EOF instead of racing a recycled fd number.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    const int fd = fd_;
    fd_ = -1;
    alive_.store(false, std::memory_order_release);
    on_close_locked(fd);
    return;
  }
  alive_.store(false, std::memory_order_release);
}

}  // namespace askel
