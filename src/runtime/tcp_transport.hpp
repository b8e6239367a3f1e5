#pragma once
// TcpBackend: RemoteWorkerBackend over real TCP sockets — the first backend
// whose remote side can EXECUTE work (registered muscles, muscle_table.hpp)
// instead of merely echoing lease brackets.
//
// Two halves, deliberately startable in different processes / on different
// hosts:
//
//   * TcpWorkerHost — the worker-host side. Binds a listener (port 0 =
//     ephemeral, port() reports the choice), accepts one connection per
//     pool-worker session and runs a serve loop per connection: sends
//     kHello first (mirroring the subprocess child, so try_connect's "wait
//     for hello" contract is transport-independent), then answers
//       kSubmit      -> kComplete          (batch-transparent: one Complete
//                                           per Submit regardless of `b`)
//       kHeartbeat   -> kHeartbeatAck
//       kSubmitNamed -> kResultNamed       (decode argument, look the wire
//                                           id up in the muscle table,
//                                           execute, encode the result)
//       kRetire      -> kRetired + close
//     A malformed argument answers kBadArgument, an unregistered id
//     kUnknownMuscle — protocol errors are *replies*, never torn links.
//     Requests come through the buffered frame_io::FrameReader; replies
//     are held while another whole request is already buffered, then
//     written together, so a pipelined Submit + SubmitNamed pair is
//     answered by one Complete + ResultNamed write.
//     The crash_after_tasks hook closes the connection after the Nth
//     Submit WITHOUT completing it — a deterministic "peer died between
//     Submit and Complete" for the crash-recovery conformance tests.
//
//   * TcpTransportFactory / TcpBackend — the pool side. try_connect does a
//     nonblocking connect with the deadline anchored once at entry
//     (covering connect AND the hello wait, exactly the subprocess join
//     contract), sets TCP_NODELAY (frames are 33 bytes; Nagle would add
//     40 ms to every lease round trip), and hands back an FdTransport —
//     the same deadline-honoring frame I/O the subprocess transport uses
//     (frame_io.hpp), which is the point: one audited wire layer.
//
// Loopback is the tested configuration (conformance + bench); nothing here
// assumes it — the host field takes any IPv4 address.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/muscle_table.hpp"
#include "runtime/remote_backend.hpp"
#include "runtime/transport.hpp"

namespace askel {

struct TcpWorkerHostConfig {
  /// 0 = ephemeral (the OS picks; read it back via port()).
  std::uint16_t port = 0;
  /// Test hook mirroring SubprocessBackendConfig::crash_after_tasks: the
  /// serve loop closes its connection after reading the Nth Submit and
  /// BEFORE writing its Complete (0 = never) — a real peer death inside
  /// the lease window, detected pool-side as EOF.
  int crash_after_tasks = 0;
};

/// The worker-host side: listener + one serve thread per accepted session.
/// Lifecycle: constructor binds and starts accepting (listening() false =
/// bind failed); stop() (or the destructor) closes the listener, shuts down
/// every live session socket and joins all threads.
class TcpWorkerHost {
 public:
  explicit TcpWorkerHost(MuscleTable& table = default_muscle_table(),
                         TcpWorkerHostConfig cfg = {});
  ~TcpWorkerHost();

  TcpWorkerHost(const TcpWorkerHost&) = delete;
  TcpWorkerHost& operator=(const TcpWorkerHost&) = delete;

  bool listening() const { return listen_fd_ >= 0; }
  std::uint16_t port() const { return port_; }
  void stop();

  std::uint64_t sessions_accepted() const;
  std::uint64_t named_calls() const;
  /// Named calls that answered a non-kOk status (bad argument / unknown id).
  std::uint64_t named_errors() const;

 private:
  void accept_loop();
  void serve(int fd);

  MuscleTable& table_;
  const TcpWorkerHostConfig cfg_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  mutable std::mutex mu_;  // sessions_ / session_fds_ / stats
  std::vector<std::thread> sessions_;
  std::vector<int> session_fds_;
  std::uint64_t accepted_ = 0;
  std::uint64_t named_calls_ = 0;
  std::uint64_t named_errors_ = 0;
};

struct TcpBackendConfig {
  /// The worker host to dial. Loopback default matches the in-process
  /// TcpWorkerHost arrangement the tests and bench use.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int max_workers = 64;
  /// One try_connect deadline covering the nonblocking connect AND the
  /// hello wait, anchored once at entry.
  Duration connect_timeout = 5.0;
  Duration complete_timeout = 2.0;
  Duration heartbeat_timeout = 1.0;
  /// Per-lease task batching (RemoteBackendConfig::lease_batch).
  int lease_batch = 1;
  Duration batch_flush = 0.005;
};

class TcpTransportFactory final : public TransportFactory {
 public:
  explicit TcpTransportFactory(TcpBackendConfig cfg = {});
  Connect try_connect(int worker) override;

  /// Observed connect -> Hello latencies (microseconds), in join order —
  /// the transport bench reports these next to the subprocess fork+hello
  /// numbers.
  std::vector<double> join_latencies_us() const;

 private:
  const TcpBackendConfig cfg_;
  mutable std::mutex mu_;
  std::vector<double> join_us_;
};

namespace detail {
/// Base-from-member: the factory must outlive (construct before) the
/// RemoteWorkerBackend base that references it.
struct TcpFactoryHolder {
  explicit TcpFactoryHolder(const TcpBackendConfig& cfg) : factory(cfg) {}
  TcpTransportFactory factory;
};
}  // namespace detail

class TcpBackend : private detail::TcpFactoryHolder,
                   public RemoteWorkerBackend {
 public:
  explicit TcpBackend(TcpBackendConfig cfg = {})
      : detail::TcpFactoryHolder(cfg),
        RemoteWorkerBackend(factory, remote_config(cfg)) {}

  TcpTransportFactory& transport_factory() { return factory; }

 private:
  static RemoteBackendConfig remote_config(const TcpBackendConfig& cfg) {
    RemoteBackendConfig r;
    r.max_workers = cfg.max_workers;
    r.connect_timeout = cfg.connect_timeout + 1.0;
    r.complete_timeout = cfg.complete_timeout;
    r.heartbeat_timeout = cfg.heartbeat_timeout;
    r.lease_batch = cfg.lease_batch;
    r.batch_flush = cfg.batch_flush;
    r.name = "tcp";
    return r;
  }
};

}  // namespace askel
