// Wire-layer hardening suite over REAL sockets: the deadline semantics,
// peer-death behavior and payload framing of the shared fd transport
// (frame_io.hpp), plus the TCP worker host / factory pair end to end.
//
// The deadline pins are the load-bearing ones:
//   * a peer stalled MID-frame cannot wedge recv past its timeout — the
//     total wait is <= timeout + epsilon, and the desynced link is poisoned;
//   * a peer TRICKLING bytes cannot extend the wait either — every poll
//     uses the remaining time to the deadline anchored at entry, so
//     progress never re-arms the clock;
//   * a dead peer surfaces as a failed send (MSG_NOSIGNAL -> EPIPE), never
//     SIGPIPE — the process surviving these tests IS the assertion.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/frame_io.hpp"
#include "runtime/muscle_table.hpp"
#include "runtime/subprocess_backend.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/transport.hpp"

namespace askel {
namespace {

using namespace std::chrono_literals;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A connected AF_UNIX stream pair: [0] wrapped in FdTransport, [1] raw for
/// the test to play the (mis)behaving peer.
struct Pair {
  std::unique_ptr<FdTransport> transport;
  int transport_fd = -1;  // [0]: for reader tests that read it directly
  int peer = -1;

  Pair() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    transport = std::make_unique<FdTransport>(sv[0]);
    transport_fd = sv[0];
    peer = sv[1];
  }
  ~Pair() {
    if (peer >= 0) ::close(peer);
  }
};

// ------------------------------------------------------ deadline honoring --

TEST(FrameIo, CleanTimeoutLeavesTheLinkAlive) {
  Pair p;
  WireFrame f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.transport->recv(f, 0.05));
  EXPECT_LT(seconds_since(t0), 0.5);
  // Nothing was consumed: the stream is still in sync, the link stays up.
  EXPECT_TRUE(p.transport->alive());
}

TEST(FrameIo, StalledMidFrameHonorsTheDeadlineAndPoisonsTheLink) {
  Pair p;
  // The peer writes HALF a frame and stalls (descheduled, wedged, hostile).
  const WireFrameBytes bytes = encode_frame(
      WireFrame{WireFrameType::kComplete, 0, 1, 0, 0});
  ASSERT_EQ(::send(p.peer, bytes.data(), 10, MSG_NOSIGNAL), 10);
  WireFrame f;
  const double timeout = 0.2;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.transport->recv(f, timeout));
  const double waited = seconds_since(t0);
  // The satellite pin: total wait <= timeout + epsilon (generous for CI
  // load), and it genuinely waited out the deadline rather than bailing.
  EXPECT_LE(waited, timeout + 0.3);
  EXPECT_GE(waited, timeout * 0.5);
  // A timeout MID-frame means the byte stream is desynced for good.
  EXPECT_FALSE(p.transport->alive());
}

TEST(FrameIo, TricklingPeerCannotExtendTheDeadline) {
  Pair p;
  // One byte every 20 ms: under a per-read re-armed timeout a whole frame
  // (33 bytes) would take ~0.66 s and recv would never time out at all.
  // The anchored deadline must cut it off at `timeout` regardless.
  std::atomic<bool> stop{false};
  std::thread trickler([&] {
    const WireFrameBytes bytes = encode_frame(
        WireFrame{WireFrameType::kComplete, 0, 1, 0, 0});
    std::size_t at = 0;
    while (!stop.load(std::memory_order_acquire) && at < bytes.size()) {
      if (::send(p.peer, bytes.data() + at, 1, MSG_NOSIGNAL) != 1) break;
      ++at;
      std::this_thread::sleep_for(20ms);
    }
  });
  WireFrame f;
  const double timeout = 0.2;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.transport->recv(f, timeout));
  const double waited = seconds_since(t0);
  stop.store(true, std::memory_order_release);
  trickler.join();
  EXPECT_LE(waited, timeout + 0.3);     // progress never re-armed the clock
  EXPECT_FALSE(p.transport->alive());   // partial frame = desynced
}

// --------------------------------------------------------- peer death ------

TEST(FrameIo, DeadPeerFailsTheSendInsteadOfRaisingSigpipe) {
  Pair p;
  ::close(p.peer);
  p.peer = -1;
  // The first send may land in the kernel buffer of a half-closed pair;
  // by the second the RST/EPIPE is definitive. Surviving this loop at all
  // is the SIGPIPE regression assertion (MSG_NOSIGNAL on every send path).
  bool failed = false;
  for (int k = 0; k < 4 && !failed; ++k) {
    failed = !p.transport->send(WireFrame{WireFrameType::kHeartbeat, 0,
                                          static_cast<std::uint64_t>(k), 0, 0});
  }
  EXPECT_TRUE(failed);
  EXPECT_FALSE(p.transport->alive());
}

TEST(FrameIo, PeerCloseSurfacesAsDeadLinkOnRecv) {
  Pair p;
  ::close(p.peer);
  p.peer = -1;
  WireFrame f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.transport->recv(f, 5.0));
  EXPECT_LT(seconds_since(t0), 1.0);  // EOF is immediate, not a timeout
  EXPECT_FALSE(p.transport->alive());
}

// ----------------------------------------------------------- payload I/O ---

TEST(FrameIo, NamedFramesRoundTripPayloadOverARealSocket) {
  Pair p;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};
  const WireFrame f{WireFrameType::kSubmitNamed, 3, 9, 7,
                    static_cast<std::uint64_t>(payload.size())};
  ASSERT_TRUE(p.transport->send(f, payload.data(), payload.size()));
  WireFrame got;
  std::vector<std::uint8_t> got_payload;
  frame_io::FrameReader reader(p.peer);
  ASSERT_EQ(reader.read(1.0, got, &got_payload), frame_io::ReadResult::kFrame);
  EXPECT_EQ(got, f);
  EXPECT_EQ(got_payload, payload);
}

TEST(FrameIo, PayloadlessRecvConsumesThePayloadToKeepSync) {
  Pair p;
  const std::vector<std::uint8_t> payload = {9, 9, 9, 9};
  ASSERT_TRUE(p.transport->send(
      WireFrame{WireFrameType::kResultNamed, 0, 1, 0, payload.size()},
      payload.data(), payload.size()));
  ASSERT_TRUE(p.transport->send(
      WireFrame{WireFrameType::kComplete, 0, 2, 0, 0}));
  // Reading the named frame through the frame-only overload must discard
  // the payload bytes, leaving the NEXT frame intact on the stream.
  WireFrame f;
  frame_io::FrameReader reader(p.peer);
  ASSERT_EQ(reader.read(1.0, f, nullptr), frame_io::ReadResult::kFrame);
  EXPECT_EQ(f.type, WireFrameType::kResultNamed);
  ASSERT_EQ(reader.read(1.0, f, nullptr), frame_io::ReadResult::kFrame);
  EXPECT_EQ(f.type, WireFrameType::kComplete);
  EXPECT_EQ(f.seq, 2u);
}

TEST(FrameIo, OversizedAdvertisedPayloadPoisonsNeverAllocates) {
  Pair p;
  const WireFrameBytes bytes = encode_frame(
      WireFrame{WireFrameType::kSubmitNamed, 0, 1, 1, kMaxNamedPayload + 1});
  ASSERT_TRUE(frame_io::write_full(p.peer, bytes.data(), bytes.size()));
  WireFrame f;
  EXPECT_FALSE(p.transport->recv(f, 0.5));
  EXPECT_FALSE(p.transport->alive());  // hostile length = poisoned link
}

// ------------------------------------------------ buffered reader contract --

TEST(FrameReader, TwoFramesInOneSegmentDecodeAsTwoFrames) {
  Pair p;
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> result = {4, 5, 6};
  frame_io::append_frame(wire, WireFrame{WireFrameType::kComplete, 0, 1, 0, 0},
                         nullptr, 0);
  frame_io::append_frame(
      wire, WireFrame{WireFrameType::kResultNamed, 0, 2, 0, result.size()},
      result.data(), result.size());
  ASSERT_TRUE(frame_io::write_full(p.peer, wire.data(), wire.size()));
  frame_io::FrameReader reader(p.transport_fd);
  WireFrame f;
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(reader.read(1.0, f, &payload), frame_io::ReadResult::kFrame);
  EXPECT_EQ(f.type, WireFrameType::kComplete);
  EXPECT_TRUE(payload.empty());
  // The first wake buffered the second frame whole: it decodes with a zero
  // timeout, i.e. without another recv.
  EXPECT_TRUE(reader.has_frame());
  ASSERT_EQ(reader.read(0.0, f, &payload), frame_io::ReadResult::kFrame);
  EXPECT_EQ(f.type, WireFrameType::kResultNamed);
  EXPECT_EQ(f.seq, 2u);
  EXPECT_EQ(payload, result);
  EXPECT_FALSE(reader.has_frame());
}

TEST(FrameReader, HeaderAndPayloadSplitAcrossSegments) {
  Pair p;
  const std::vector<std::uint8_t> arg = {7, 8, 9, 10, 11};
  const WireFrame sent{WireFrameType::kSubmitNamed, 1, 3, 5, arg.size()};
  const WireFrameBytes header = encode_frame(sent);
  std::thread writer([&] {
    // Half the header, the rest of it, then the payload: three segments.
    ASSERT_TRUE(frame_io::write_full(p.peer, header.data(), 20));
    std::this_thread::sleep_for(20ms);
    ASSERT_TRUE(frame_io::write_full(p.peer, header.data() + 20,
                                     header.size() - 20));
    std::this_thread::sleep_for(20ms);
    ASSERT_TRUE(frame_io::write_full(p.peer, arg.data(), arg.size()));
  });
  frame_io::FrameReader reader(p.transport_fd);
  WireFrame f;
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(reader.read(2.0, f, &payload), frame_io::ReadResult::kFrame);
  writer.join();
  EXPECT_EQ(f, sent);
  EXPECT_EQ(payload, arg);
}

TEST(FrameReader, TrickleCannotStretchTheWaitPastTheTimeout) {
  Pair p;
  std::atomic<bool> stop{false};
  std::thread trickler([&] {
    const WireFrameBytes bytes = encode_frame(
        WireFrame{WireFrameType::kComplete, 0, 1, 0, 0});
    for (std::size_t at = 0;
         !stop.load(std::memory_order_acquire) && at < bytes.size(); ++at) {
      if (::send(p.peer, bytes.data() + at, 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(20ms);
    }
  });
  frame_io::FrameReader reader(p.transport_fd);
  WireFrame f;
  const double timeout = 0.2;
  const auto t0 = std::chrono::steady_clock::now();
  const frame_io::ReadResult res = reader.read(timeout, f, nullptr);
  const double waited = seconds_since(t0);
  stop.store(true, std::memory_order_release);
  trickler.join();
  EXPECT_EQ(res, frame_io::ReadResult::kMidFrameStall);
  EXPECT_LE(waited, timeout + 0.3);
}

TEST(FrameReader, PartialHeaderAtTheDeadlineIsAMidFrameStall) {
  Pair p;
  const WireFrameBytes bytes = encode_frame(
      WireFrame{WireFrameType::kHeartbeatAck, 0, 1, 0, 0});
  ASSERT_TRUE(frame_io::write_full(p.peer, bytes.data(), 12));
  frame_io::FrameReader reader(p.transport_fd);
  WireFrame f;
  EXPECT_EQ(reader.read(0.05, f, nullptr), frame_io::ReadResult::kMidFrameStall);
  // A clean timeout, by contrast, needs nothing buffered.
  Pair idle;
  frame_io::FrameReader idle_reader(idle.transport_fd);
  EXPECT_EQ(idle_reader.read(0.02, f, nullptr), frame_io::ReadResult::kTimeout);
}

TEST(FrameReader, OversizeLengthIsRejectedFromTheHeaderAlone) {
  Pair p;
  const WireFrameBytes bytes = encode_frame(
      WireFrame{WireFrameType::kResultNamed, 0, 1, 0, kMaxNamedPayload + 1});
  ASSERT_TRUE(frame_io::write_full(p.peer, bytes.data(), bytes.size()));
  frame_io::FrameReader reader(p.transport_fd);
  WireFrame f;
  std::vector<std::uint8_t> payload;
  const auto t0 = std::chrono::steady_clock::now();
  // Garbage at once: no wait for the advertised bytes, no buffer grown or
  // payload sized for them.
  EXPECT_EQ(reader.read(5.0, f, &payload), frame_io::ReadResult::kGarbage);
  EXPECT_LT(seconds_since(t0), 1.0);
  EXPECT_EQ(payload.capacity(), 0u);
}

TEST(FrameReader, EofMidFrameIsClosed) {
  Pair p;
  const WireFrameBytes bytes = encode_frame(
      WireFrame{WireFrameType::kComplete, 0, 1, 0, 0});
  ASSERT_TRUE(frame_io::write_full(p.peer, bytes.data(), 10));
  ::close(p.peer);
  p.peer = -1;
  frame_io::FrameReader reader(p.transport_fd);
  WireFrame f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(reader.read(5.0, f, nullptr), frame_io::ReadResult::kClosed);
  EXPECT_LT(seconds_since(t0), 1.0);
}

TEST(FdTransport, SendFramesPutsTheGroupOnTheWireInOrderInOneWrite) {
  Pair p;
  const std::vector<std::uint8_t> arg = {1, 2, 3};
  const WireFrame window{WireFrameType::kSubmit, 0, 1, 0, 5};
  const WireFrame call{WireFrameType::kSubmitNamed, 0, 2, 9, arg.size()};
  const OutFrame group[] = {OutFrame{window}, OutFrame{call, arg.data(), arg.size()}};
  ASSERT_TRUE(p.transport->send_frames(group));
  // One write: the whole group is readable at once, Submit first.
  std::vector<std::uint8_t> expected;
  frame_io::append_frame(expected, window, nullptr, 0);
  frame_io::append_frame(expected, call, arg.data(), arg.size());
  std::vector<std::uint8_t> got(expected.size() + 16);
  const ssize_t n = ::recv(p.peer, got.data(), got.size(), MSG_DONTWAIT);
  ASSERT_EQ(n, static_cast<ssize_t>(expected.size()));
  got.resize(static_cast<std::size_t>(n));
  EXPECT_EQ(got, expected);
}

// ------------------------------------------------- host + factory, E2E -----

TEST(TcpTransport, ConnectJoinsAndServesTheLeaseProtocol) {
  TcpWorkerHost host;
  ASSERT_TRUE(host.listening());
  TcpBackendConfig cfg;
  cfg.port = host.port();
  TcpTransportFactory factory(cfg);
  TransportFactory::Connect c = factory.try_connect(0);
  ASSERT_FALSE(c.failed);
  ASSERT_NE(c.transport, nullptr);  // hello already consumed by the factory
  // Submit -> Complete, batch-transparent.
  ASSERT_TRUE(c.transport->send(
      WireFrame{WireFrameType::kSubmit, 0, 1, 0, 16}));
  WireFrame f;
  ASSERT_TRUE(c.transport->recv(f, 2.0));
  EXPECT_EQ(f.type, WireFrameType::kComplete);
  EXPECT_EQ(f.seq, 1u);
  // Heartbeat -> ack.
  ASSERT_TRUE(c.transport->send(
      WireFrame{WireFrameType::kHeartbeat, 0, 2, 0, 0}));
  ASSERT_TRUE(c.transport->recv(f, 2.0));
  EXPECT_EQ(f.type, WireFrameType::kHeartbeatAck);
  EXPECT_EQ(f.seq, 2u);
  // Retire -> retired.
  ASSERT_TRUE(c.transport->send(
      WireFrame{WireFrameType::kRetire, 0, 3, 0, 0}));
  ASSERT_TRUE(c.transport->recv(f, 2.0));
  EXPECT_EQ(f.type, WireFrameType::kRetired);
  const auto joins = factory.join_latencies_us();
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_GT(joins[0], 0.0);
  EXPECT_EQ(host.sessions_accepted(), 1u);
}

TEST(TcpTransport, ExecutesRegisteredMusclesAndAnswersProtocolErrors) {
  MuscleTable table;
  const WireMuscleId dbl = table.register_muscle(
      "double", [](const PodValue& v) {
        return PodValue::of_i64(v.as_i64() * 2);
      });
  TcpWorkerHost host(table);
  ASSERT_TRUE(host.listening());
  TcpBackendConfig cfg;
  cfg.port = host.port();
  TcpTransportFactory factory(cfg);
  TransportFactory::Connect c = factory.try_connect(0);
  ASSERT_NE(c.transport, nullptr);
  // kOk: the registered muscle really executed on the worker host.
  WireFrame reply;
  std::vector<std::uint8_t> result;
  {
    SCOPED_TRACE("ok");
    std::vector<std::uint8_t> wire_arg = encode_pod(PodValue::of_i64(21));
    ASSERT_TRUE(c.transport->send(
        WireFrame{WireFrameType::kSubmitNamed, 0, 1, dbl,
                  static_cast<std::uint64_t>(wire_arg.size())},
        wire_arg.data(), wire_arg.size()));
    ASSERT_TRUE(c.transport->recv(reply, result, 2.0));
    EXPECT_EQ(reply.type, WireFrameType::kResultNamed);
    EXPECT_EQ(reply.a, static_cast<std::uint64_t>(NamedStatus::kOk));
    PodValue out;
    ASSERT_TRUE(decode_pod(result.data(), result.size(), out));
    EXPECT_EQ(out.as_i64(), 42);
  }
  // kUnknownMuscle: a reply, not a torn link.
  {
    SCOPED_TRACE("unknown");
    std::vector<std::uint8_t> wire_arg = encode_pod(PodValue::of_void());
    ASSERT_TRUE(c.transport->send(
        WireFrame{WireFrameType::kSubmitNamed, 0, 2, 999,
                  static_cast<std::uint64_t>(wire_arg.size())},
        wire_arg.data(), wire_arg.size()));
    ASSERT_TRUE(c.transport->recv(reply, result, 2.0));
    EXPECT_EQ(reply.a, static_cast<std::uint64_t>(NamedStatus::kUnknownMuscle));
  }
  // kBadArgument: a payload that does not decode.
  {
    SCOPED_TRACE("bad-argument");
    const std::vector<std::uint8_t> garbage = {0xDE, 0xAD};
    ASSERT_TRUE(c.transport->send(
        WireFrame{WireFrameType::kSubmitNamed, 0, 3, dbl,
                  static_cast<std::uint64_t>(garbage.size())},
        garbage.data(), garbage.size()));
    ASSERT_TRUE(c.transport->recv(reply, result, 2.0));
    EXPECT_EQ(reply.a, static_cast<std::uint64_t>(NamedStatus::kBadArgument));
  }
  // The link survived every protocol error and still serves leases.
  ASSERT_TRUE(c.transport->send(WireFrame{WireFrameType::kSubmit, 0, 4, 0, 0}));
  ASSERT_TRUE(c.transport->recv(reply, 2.0));
  EXPECT_EQ(reply.type, WireFrameType::kComplete);
  EXPECT_EQ(host.named_calls(), 3u);
  EXPECT_EQ(host.named_errors(), 2u);
}

TEST(TcpTransport, ConnectToNobodyFailsWithinTheDeadline) {
  // Bind-then-close: the port is (almost surely) unserved again; loopback
  // refuses immediately, and try_connect must report failure, not hang.
  TcpBackendConfig cfg;
  {
    TcpWorkerHost ephemeral;
    ASSERT_TRUE(ephemeral.listening());
    cfg.port = ephemeral.port();
  }  // host gone: the port is closed again
  cfg.connect_timeout = 1.0;
  TcpTransportFactory factory(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const TransportFactory::Connect c = factory.try_connect(0);
  EXPECT_TRUE(c.failed);
  EXPECT_EQ(c.transport, nullptr);
  EXPECT_LT(seconds_since(t0), 2.0);
}

TEST(TcpBackend, NamedCallEndToEndThroughTheSessionMachine) {
  MuscleTable table;
  table.register_muscle("sum-bytes", [](const PodValue& v) {
    std::int64_t sum = 0;
    for (const char c : v.as_bytes()) sum += static_cast<unsigned char>(c);
    return PodValue::of_i64(sum);
  });
  TcpWorkerHost host(table);
  ASSERT_TRUE(host.listening());
  TcpBackendConfig cfg;
  cfg.port = host.port();
  cfg.max_workers = 2;
  TcpBackend backend(cfg);
  backend.bind([](int, bool) {});
  ASSERT_NE(backend.provision(0, 1), WorkerBackend::Provision::kFailed);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (backend.live_sessions() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(backend.live_sessions(), 1);
  const NamedCallResult ok =
      backend.call_named(0, 1, PodValue::of_bytes("\x01\x02\x03"));
  ASSERT_TRUE(ok.transported);
  EXPECT_EQ(ok.status, NamedStatus::kOk);
  EXPECT_EQ(ok.value.as_i64(), 6);
  const NamedCallResult unknown =
      backend.call_named(0, 42, PodValue::of_void());
  ASSERT_TRUE(unknown.transported);
  EXPECT_EQ(unknown.status, NamedStatus::kUnknownMuscle);
  const RemoteBackendStats s = backend.stats();
  EXPECT_EQ(s.named_calls, 2u);
  EXPECT_EQ(s.named_errors, 1u);
  EXPECT_EQ(s.leases, s.completes + s.losses_recovered);
  EXPECT_EQ(s.losses_recovered, 0u);
}

TEST(TcpBackend, NamedCallInsideAnUnbatchedBracketBooksNoFalseLoss) {
  // lease_batch 1: the pool task's bracket Complete reaches the session
  // before the named call's result. The call's receive loop must settle the
  // bracket, not discard its Complete as stale — otherwise task_end waits
  // out complete_timeout and books a loss for a healthy round trip.
  MuscleTable table;
  const WireMuscleId inc = table.register_muscle(
      "inc", [](const PodValue& v) { return PodValue::of_i64(v.as_i64() + 1); });
  TcpWorkerHost host(table);
  ASSERT_TRUE(host.listening());
  TcpBackendConfig cfg;
  cfg.port = host.port();
  cfg.max_workers = 1;
  cfg.complete_timeout = 2.0;
  TcpBackend backend(cfg);
  ResizableThreadPool pool(1, 1);
  pool.set_backend(&backend);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (backend.live_sessions() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(backend.live_sessions(), 1);
  const RemoteBackendStats before = backend.stats();
  std::int64_t got = 0;
  const auto t0 = std::chrono::steady_clock::now();
  pool.submit([&] {
    const NamedCallResult r = backend.call_named(0, inc, PodValue::of_i64(41));
    if (r.transported && r.status == NamedStatus::kOk) got = r.value.as_i64();
  });
  pool.wait_idle();
  const double task_s = seconds_since(t0);
  const RemoteBackendStats s = backend.stats();
  pool.set_backend(nullptr);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(s.leases - before.leases, 2u);  // the bracket + the call
  EXPECT_EQ(s.completes - before.completes, 2u);
  EXPECT_EQ(s.losses_recovered, 0u);
  EXPECT_EQ(s.ignored_completes, 0u);
  EXPECT_LT(task_s, cfg.complete_timeout / 4);
}

TEST(SubprocessNamed, ForkChildAnswersUnsupportedWithoutDesyncing) {
  // The fork child has no muscle table; it must consume the argument
  // payload (stream stays in sync) and answer kUnsupported — after which
  // the ordinary lease protocol still works on the same link.
  SubprocessBackendConfig cfg;
  cfg.max_workers = 1;
  SubprocessBackend backend(cfg);
  backend.bind([](int, bool) {});
  ASSERT_NE(backend.provision(0, 1), WorkerBackend::Provision::kFailed);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (backend.live_sessions() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(backend.live_sessions(), 1);
  const NamedCallResult res =
      backend.call_named(0, 1, PodValue::of_bytes("payload to consume"));
  ASSERT_TRUE(res.transported);
  EXPECT_EQ(res.status, NamedStatus::kUnsupported);
  // The link is intact: an ordinary lease still round-trips.
  const std::uint64_t lease = backend.task_begin(0, 0);
  ASSERT_NE(lease, 0u);
  backend.task_end(0, lease);
  const RemoteBackendStats s = backend.stats();
  EXPECT_EQ(s.leases, 2u);
  EXPECT_EQ(s.completes, 2u);
  EXPECT_EQ(s.losses_recovered, 0u);
}

}  // namespace
}  // namespace askel
