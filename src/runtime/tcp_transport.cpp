#include "runtime/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "runtime/frame_io.hpp"

namespace askel {

namespace {

bool set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

/// The pool-side transport is the shared FdTransport verbatim — TCP adds no
/// teardown of its own (no child to reap); the alias exists for on-wire
/// clarity in stack traces and docs.
class TcpTransport final : public FdTransport {
 public:
  using FdTransport::FdTransport;
  ~TcpTransport() override { close(); }
};

}  // namespace

// ---- worker-host side -------------------------------------------------------

TcpWorkerHost::TcpWorkerHost(MuscleTable& table, TcpWorkerHostConfig cfg)
    : table_(table), cfg_(cfg) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  acceptor_ = std::thread([this] { accept_loop(); });
}

TcpWorkerHost::~TcpWorkerHost() { stop(); }

void TcpWorkerHost::stop() {
  if (stop_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  if (listen_fd_ >= 0) {
    // shutdown is not defined for listeners everywhere; close() alone wakes
    // the acceptor's poll with POLLNVAL/err and it checks stop_.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  {
    // Kick every live session out of its poll: shutdown delivers EOF; the
    // serve loop owns the close() itself.
    std::lock_guard lock(mu_);
    for (const int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> sessions;
  {
    std::lock_guard lock(mu_);
    sessions.swap(sessions_);
  }
  for (auto& t : sessions) {
    if (t.joinable()) t.join();
  }
  listen_fd_ = -1;
}

void TcpWorkerHost::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int r;
    do {
      r = ::poll(&pfd, 1, 50);
    } while (r < 0 && errno == EINTR);
    if (stop_.load(std::memory_order_acquire)) return;
    if (r <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) return;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener gone
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard lock(mu_);
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    ++accepted_;
    session_fds_.push_back(fd);
    sessions_.emplace_back([this, fd] { serve(fd); });
  }
}

void TcpWorkerHost::serve(int fd) {
  const auto forget_fd = [this, fd] {
    std::lock_guard lock(mu_);
    std::erase(session_fds_, fd);
  };
  // Replies queue here and go out in one write once no further whole
  // request is buffered: a pipelined Submit + SubmitNamed pair is answered
  // by one Complete + ResultNamed write, so the pool side wakes once.
  std::vector<std::uint8_t> replies;
  const auto reply = [&replies](const WireFrame& f,
                                const std::uint8_t* payload = nullptr,
                                std::size_t size = 0) {
    frame_io::append_frame(replies, f, payload, size);
  };
  // Hello first — the factory's try_connect waits for it before declaring
  // the join complete, same contract as the subprocess child.
  reply(WireFrame{WireFrameType::kHello, 0, 0,
                  static_cast<std::uint64_t>(::getpid()), 0});
  frame_io::FrameReader reader(fd);
  std::vector<std::uint8_t> payload;
  int tasks = 0;
  bool open = true;
  while (open) {
    if (!replies.empty() && !reader.has_frame()) {
      if (!frame_io::write_full(fd, replies.data(), replies.size())) break;
      replies.clear();
    }
    if (stop_.load(std::memory_order_acquire)) break;
    WireFrame f;
    // Short poll so stop() never waits long; the deadline semantics under
    // test live pool-side in FdTransport, not here.
    const auto res = reader.read(0.1, f, &payload);
    if (res == frame_io::ReadResult::kTimeout) continue;
    if (res != frame_io::ReadResult::kFrame) break;  // EOF / desync / garbage
    switch (f.type) {
      case WireFrameType::kSubmit:
        ++tasks;
        if (cfg_.crash_after_tasks > 0 && tasks >= cfg_.crash_after_tasks) {
          // Crash hook: die BETWEEN Submit and Complete — the pool holds an
          // open lease and must recover it off the EOF. Replies still held
          // die with the process, as a real crash's unsent output would.
          forget_fd();
          ::close(fd);
          return;
        }
        reply(WireFrame{WireFrameType::kComplete, f.worker, f.seq, 0, 0});
        break;
      case WireFrameType::kHeartbeat:
        reply(WireFrame{WireFrameType::kHeartbeatAck, f.worker, f.seq, 0, 0});
        break;
      case WireFrameType::kSubmitNamed: {
        PodValue arg, result;
        NamedStatus status = NamedStatus::kOk;
        if (!decode_pod(payload.data(), payload.size(), arg)) {
          status = NamedStatus::kBadArgument;
        } else if (!table_.invoke(static_cast<WireMuscleId>(f.a), arg,
                                  result)) {
          status = NamedStatus::kUnknownMuscle;
        }
        std::vector<std::uint8_t> out;
        if (status == NamedStatus::kOk) {
          out = encode_pod(result);
          if (out.size() > kMaxNamedPayload) {
            // A result too large for the wire is the muscle's bug; answer
            // it as a protocol error rather than poisoning the link.
            status = NamedStatus::kBadArgument;
            out.clear();
          }
        }
        {
          std::lock_guard lock(mu_);
          ++named_calls_;
          if (status != NamedStatus::kOk) ++named_errors_;
        }
        reply(WireFrame{WireFrameType::kResultNamed, f.worker, f.seq,
                        static_cast<std::uint64_t>(status),
                        static_cast<std::uint64_t>(out.size())},
              out.data(), out.size());
        break;
      }
      case WireFrameType::kRetire:
        reply(WireFrame{WireFrameType::kRetired, f.worker, f.seq, 0, 0});
        frame_io::write_full(fd, replies.data(), replies.size());  // best effort
        open = false;
        break;
      case WireFrameType::kStealHint:
      default:
        break;  // advisory / unknown: ignore
    }
  }
  forget_fd();
  ::close(fd);
}

std::uint64_t TcpWorkerHost::sessions_accepted() const {
  std::lock_guard lock(mu_);
  return accepted_;
}

std::uint64_t TcpWorkerHost::named_calls() const {
  std::lock_guard lock(mu_);
  return named_calls_;
}

std::uint64_t TcpWorkerHost::named_errors() const {
  std::lock_guard lock(mu_);
  return named_errors_;
}

// ---- pool side --------------------------------------------------------------

TcpTransportFactory::TcpTransportFactory(TcpBackendConfig cfg)
    : cfg_(std::move(cfg)) {}

TransportFactory::Connect TcpTransportFactory::try_connect(int worker) {
  if (worker >= cfg_.max_workers) return Connect{nullptr, true};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    return Connect{nullptr, true};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Connect{nullptr, true};
  // One deadline, anchored HERE, covers the nonblocking connect and the
  // hello wait — the same shape as the subprocess fork + hello join.
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration<double>(std::max(0.0, cfg_.connect_timeout));
  if (!set_nonblocking(fd, true)) {
    ::close(fd);
    return Connect{nullptr, true};
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    ::close(fd);
    return Connect{nullptr, true};
  }
  if (rc != 0) {
    for (;;) {
      const double remaining_s =
          std::chrono::duration<double>(deadline -
                                        std::chrono::steady_clock::now())
              .count();
      if (remaining_s <= 0.0) {
        ::close(fd);
        return Connect{nullptr, true};
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      int r;
      do {
        r = ::poll(&pfd, 1,
                   static_cast<int>(std::ceil(remaining_s * 1000.0)));
      } while (r < 0 && errno == EINTR);
      if (r > 0) break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return Connect{nullptr, true};
    }
  }
  if (!set_nonblocking(fd, false)) {
    ::close(fd);
    return Connect{nullptr, true};
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto transport = std::make_unique<TcpTransport>(fd);
  const double hello_wait =
      std::chrono::duration<double>(deadline - std::chrono::steady_clock::now())
          .count();
  WireFrame hello;
  if (!transport->recv(hello, std::max(0.0, hello_wait)) ||
      hello.type != WireFrameType::kHello) {
    return Connect{nullptr, true};  // transport dtor closes the socket
  }
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  {
    std::lock_guard lock(mu_);
    join_us_.push_back(us);
  }
  return Connect{std::move(transport), false};
}

std::vector<double> TcpTransportFactory::join_latencies_us() const {
  std::lock_guard lock(mu_);
  return join_us_;
}

}  // namespace askel
