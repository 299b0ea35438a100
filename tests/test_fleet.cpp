// Fleet-layer tests: the binary wire protocol (codec round-trips and
// corruption rejection), the POSIX socket layer (endpoint parsing, Unix/TCP
// round-trips), and the worker/router pair end to end — in-process workers
// behind real sockets, checked bitwise against the in-process SolveService
// (the fleet's core contract: distribution never changes the answer).
#include <gtest/gtest.h>

#include <csignal>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "fleet/launch.hpp"
#include "fleet/router.hpp"
#include "fleet/socket.hpp"
#include "fleet/wire.hpp"
#include "fleet/worker.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

using fleet::Endpoint;
using fleet::FleetRouter;
using fleet::FleetRouterConfig;
using fleet::FleetWorker;
using fleet::FleetWorkerConfig;
using fleet::Frame;
using fleet::FrameType;
using fleet::WireError;
using fleet::WireReader;
using fleet::WireShardStats;
using fleet::WireSolveRequest;
using fleet::WireWriter;
using serve::ServeStatus;

std::vector<value_t> random_rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

SolverOptions small_options(index_t k = 4) {
  SolverOptions opt;
  opt.num_subdomains = k;
  opt.seed = 3;
  return opt;
}

serve::SolveRequest make_request(const std::shared_ptr<const CsrMatrix>& a,
                                 const SolverOptions& opt, index_t nrhs,
                                 std::uint64_t seed) {
  serve::SolveRequest r;
  r.a = a;
  r.opt = opt;
  r.nrhs = nrhs;
  r.b = random_rhs(a->rows * nrhs, seed);
  return r;
}

/// Fresh Unix endpoint per call — paths are per-pid so parallel ctest
/// invocations never collide.
Endpoint test_endpoint() {
  static int counter = 0;
  return Endpoint::parse("unix:/tmp/pdslin-test-" +
                         std::to_string(::getpid()) + "-" +
                         std::to_string(counter++) + ".sock");
}

WireSolveRequest make_wire_request(const CsrMatrix& a, index_t nrhs,
                                   std::uint64_t seed) {
  WireSolveRequest w;
  w.opt = small_options();
  w.a = a;
  w.nrhs = nrhs;
  w.b = random_rhs(a.rows * nrhs, seed);
  w.timeout_seconds = 2.5;
  w.fp = serve::fingerprint_of(w.a);
  w.options_hash = serve::setup_options_hash(w.opt);
  return w;
}

// -------------------------------------------------------------- wire codecs

TEST(FleetWire, PrimitivesRoundTrip) {
  WireWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(-0.125);
  w.str("fleet");
  w.array(std::vector<std::int32_t>{3, -1, 7});
  const std::vector<std::uint8_t> buf = w.take();

  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_EQ(r.str(), "fleet");
  EXPECT_EQ(r.array<std::int32_t>(), (std::vector<std::int32_t>{3, -1, 7}));
  EXPECT_TRUE(r.done());

  // Overrun and element-size mismatch must throw, not read garbage.
  WireReader r2(buf);
  (void)r2.u8();
  EXPECT_THROW((void)r2.array<std::int64_t>(), WireError);
  WireReader r3(std::span<const std::uint8_t>(buf.data(), 2));
  (void)r3.u8();
  EXPECT_THROW((void)r3.u32(), WireError);
}

TEST(FleetWire, FrameHeaderLayoutIsPinned) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> frame =
      fleet::encode_frame(FrameType::Ping, 0x1122334455667788ull, payload);
  ASSERT_EQ(frame.size(), fleet::kFrameHeaderBytes + payload.size());

  auto u16_at = [&](std::size_t off) {
    return static_cast<std::uint16_t>(frame[off] | (frame[off + 1] << 8));
  };
  auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | frame[off + static_cast<std::size_t>(i)];
    }
    return v;
  };
  // Little-endian header: magic, version, type, request_id, len, checksum.
  EXPECT_EQ(frame[0], 'P');
  EXPECT_EQ(frame[1], 'D');
  EXPECT_EQ(frame[2], 'S');
  EXPECT_EQ(frame[3], 'L');
  EXPECT_EQ(u16_at(4), fleet::kWireVersion);
  EXPECT_EQ(u16_at(6), static_cast<std::uint16_t>(FrameType::Ping));
  EXPECT_EQ(u64_at(8), 0x1122334455667788ull);
  EXPECT_EQ(u64_at(16), payload.size());
  EXPECT_EQ(u64_at(24),
            serve::hash_bytes(payload.data(), payload.size()));
  EXPECT_EQ(0, std::memcmp(frame.data() + fleet::kFrameHeaderBytes,
                           payload.data(), payload.size()));
}

/// Deliver raw bytes through a socketpair and read_frame the other end.
int deliver(const std::vector<std::uint8_t>& bytes, Frame& out) {
  int fds[2];
  EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  EXPECT_TRUE(fleet::write_all(fds[0], bytes.data(), bytes.size()));
  ::close(fds[0]);  // EOF after our bytes
  int rc = -99;
  try {
    rc = fleet::read_frame(fds[1], out);
  } catch (...) {
    ::close(fds[1]);
    throw;
  }
  ::close(fds[1]);
  return rc;
}

TEST(FleetWire, FrameRoundTripAndCleanEof) {
  const std::vector<std::uint8_t> payload{9, 8, 7};
  Frame f;
  ASSERT_EQ(1, deliver(fleet::encode_frame(FrameType::Error, 77, payload), f));
  EXPECT_EQ(f.type, FrameType::Error);
  EXPECT_EQ(f.request_id, 77u);
  EXPECT_EQ(f.payload, payload);

  Frame eof;
  EXPECT_EQ(0, deliver({}, eof));  // EOF at a frame boundary is clean
}

TEST(FleetWire, FrameRejectsCorruption) {
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const std::vector<std::uint8_t> good =
      fleet::encode_frame(FrameType::Ping, 1, payload);
  Frame f;

  auto corrupt = [&](std::size_t off, std::uint8_t delta) {
    std::vector<std::uint8_t> bad = good;
    bad[off] ^= delta;
    return bad;
  };
  EXPECT_THROW(deliver(corrupt(0, 0xff), f), WireError);   // magic
  EXPECT_THROW(deliver(corrupt(4, 0xff), f), WireError);   // version
  EXPECT_THROW(deliver(corrupt(24, 0x01), f), WireError);  // checksum
  EXPECT_THROW(deliver(corrupt(32, 0x01), f), WireError);  // payload byte

  // payload_len above the defensive ceiling must not allocate.
  std::vector<std::uint8_t> huge = good;
  huge[16 + 4] = 0x01;  // payload_len |= 2^32
  EXPECT_THROW(deliver(huge, f), WireError);

  // Truncated payload: header promises more bytes than arrive before EOF.
  std::vector<std::uint8_t> truncated = good;
  truncated.pop_back();
  EXPECT_THROW(deliver(truncated, f), WireError);
}

TEST(FleetWire, SolveRequestRoundTrip) {
  // Every options field crossing the wire is covered field by field in
  // EveryOptionFieldRoundTrips; this pins the request frame around them.
  const WireSolveRequest req =
      make_wire_request(testing::grid_laplacian(9, 7), 3, 11);
  const WireSolveRequest got =
      fleet::decode_solve_request(fleet::encode_solve_request(req));

  EXPECT_EQ(got.fp, req.fp);
  EXPECT_EQ(got.options_hash, req.options_hash);
  EXPECT_EQ(got.a.rows, req.a.rows);
  EXPECT_EQ(got.a.row_ptr, req.a.row_ptr);
  EXPECT_EQ(got.a.col_idx, req.a.col_idx);
  EXPECT_EQ(got.a.values, req.a.values);
  EXPECT_EQ(got.incidence.rows, 0);
  EXPECT_EQ(got.nrhs, req.nrhs);
  EXPECT_EQ(got.b, req.b);
  EXPECT_EQ(got.timeout_seconds, req.timeout_seconds);
  EXPECT_EQ(got.opt.num_subdomains, req.opt.num_subdomains);
  EXPECT_EQ(got.opt.seed, req.opt.seed);
  EXPECT_EQ(serve::setup_options_hash(got.opt),
            serve::setup_options_hash(req.opt));

  // With an incidence matrix attached.
  WireSolveRequest with_inc = req;
  with_inc.incidence = testing::grid_laplacian(5, 5);
  const WireSolveRequest got2 =
      fleet::decode_solve_request(fleet::encode_solve_request(with_inc));
  EXPECT_EQ(got2.incidence.rows, 25);
  EXPECT_EQ(got2.incidence.values, with_inc.incidence.values);
}

/// A different valid value for one options field: the next enumerator
/// (wrapping after `last`), the other bool, or a shifted number.
template <typename T>
T perturbed(T v, const std::optional<T>& last) {
  if constexpr (std::is_enum_v<T>) {
    return v == *last ? T{} : static_cast<T>(static_cast<int>(v) + 1);
  } else if constexpr (std::is_same_v<T, bool>) {
    return !v;
  } else if constexpr (std::is_floating_point_v<T>) {
    return v + 0.5;
  } else {
    return last && v == *last ? v - 1 : v + 1;
  }
}

std::vector<std::uint8_t> encode_options(const SolverOptions& opt) {
  WireWriter w;
  fleet::encode_solver_options(w, opt);
  return w.take();
}

SolverOptions decode_options(const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  SolverOptions opt = fleet::decode_solver_options(r);
  if (!r.done()) throw WireError("trailing bytes after options");
  return opt;
}

/// Default options with `edit` applied to the field named `key`.
template <typename Edit>
SolverOptions options_with(std::string_view key, Edit edit) {
  SolverOptions opt;
  bool found = false;
  for_each_option(opt, [&](const auto& field) {
    if (key != field.key) return;
    edit(field);
    found = true;
  });
  EXPECT_TRUE(found) << "no options field " << key;
  return opt;
}

// Table-driven: perturb each SolverOptions field in turn. Each must cross
// the wire (encode → decode → encode is byte-identical and differs from the
// default encoding) and move setup_options_hash exactly when the table marks
// it setup-affecting — the worker re-hashes the decoded options and rejects
// a request whose hash does not match.
TEST(FleetWire, EveryOptionFieldRoundTrips) {
  const SolverOptions base;
  const std::vector<std::uint8_t> base_bytes = encode_options(base);
  const std::uint64_t base_hash = serve::setup_options_hash(base);
  int fields = 0, setup_fields = 0;
  for_each_option(base, [&](const auto& field) {
    SCOPED_TRACE(field.key);
    ++fields;
    setup_fields += field.setup ? 1 : 0;
    const SolverOptions opt = options_with(field.key, [](const auto& f) {
      f.value = perturbed(f.value, f.last);
    });
    const std::vector<std::uint8_t> bytes = encode_options(opt);
    EXPECT_NE(bytes, base_bytes);
    EXPECT_EQ(encode_options(decode_options(bytes)), bytes);
    EXPECT_EQ(serve::setup_options_hash(opt) != base_hash, field.setup);
  });
  EXPECT_EQ(fields, 30);
  EXPECT_EQ(setup_fields, 21);
}

/// The default options encoding with the i64 of field `key` set to `raw`:
/// the field sits at the first byte where a perturbed copy's encoding
/// differs (little-endian, so a ±1 step changes the first byte).
std::vector<std::uint8_t> options_with_raw(std::string_view key,
                                           std::int64_t raw) {
  std::vector<std::uint8_t> bytes = encode_options(SolverOptions{});
  const std::vector<std::uint8_t> moved =
      encode_options(options_with(key, [](const auto& f) {
        f.value = perturbed(f.value, f.last);
      }));
  const auto at = static_cast<std::size_t>(
      std::mismatch(bytes.begin(), bytes.end(), moved.begin()).first -
      bytes.begin());
  EXPECT_LE(at + 8, bytes.size());
  for (std::size_t k = 0; k < 8; ++k) {
    bytes[at + k] =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(raw) >> (8 * k));
  }
  return bytes;
}

TEST(FleetWire, OptionsDecoderRejectsOutOfRange) {
  // Controls: in-range values written the same way decode.
  EXPECT_EQ(decode_options(options_with_raw("lu_kernel", 0)).assembly.lu.kernel,
            LuKernel::Scalar);
  EXPECT_EQ(decode_options(options_with_raw("num_subdomains", 1 << 30))
                .num_subdomains,
            1 << 30);
  // int fields take any int, negative included.
  EXPECT_EQ(decode_options(options_with_raw("gmres_max_iterations", -1))
                .gmres.max_iterations,
            -1);

  // Enums past their last enumerator, or negative.
  EXPECT_THROW(decode_options(options_with_raw("lu_kernel", 2)), WireError);
  EXPECT_THROW(decode_options(options_with_raw("partitioning", -1)),
               WireError);
  // Index fields: negative, or past today's 2^30 ceiling.
  EXPECT_THROW(decode_options(options_with_raw("num_subdomains", -1)),
               WireError);
  EXPECT_THROW(
      decode_options(options_with_raw("rhs_block_size", (1ll << 30) + 1)),
      WireError);
  // int fields whose i64 does not fit in int.
  EXPECT_THROW(decode_options(options_with_raw("gmres_restart", 1ll << 31)),
               WireError);
  EXPECT_THROW(decode_options(options_with_raw("bicgstab_max_iterations",
                                               -(1ll << 31) - 1)),
               WireError);
  // unsigned fields: negative, or past 2^32 − 1.
  EXPECT_THROW(decode_options(options_with_raw("threads", -1)), WireError);
  EXPECT_THROW(decode_options(options_with_raw("lu_threads", 1ll << 32)),
               WireError);
}

TEST(FleetWire, ServeRequestEncoderMatchesWireEncoder) {
  // The zero-copy overload (router path) must produce byte-identical
  // payloads to the WireSolveRequest overload.
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(8, 6));
  serve::SolveRequest req = make_request(a, small_options(), 2, 21);
  req.timeout_seconds = 1.5;

  WireSolveRequest wire;
  wire.fp = serve::fingerprint_of(*a);
  wire.options_hash = serve::setup_options_hash(req.opt);
  wire.opt = req.opt;
  wire.a = *a;
  wire.nrhs = req.nrhs;
  wire.b = req.b;
  wire.timeout_seconds = req.timeout_seconds;

  EXPECT_EQ(fleet::encode_solve_request(req, wire.fp, wire.options_hash),
            fleet::encode_solve_request(wire));
}

TEST(FleetWire, FingerprintMismatchRejected) {
  // The worker re-derives the fingerprint from the decoded CSR; a client
  // whose fp disagrees with its own matrix bytes is detected end to end.
  WireSolveRequest req = make_wire_request(testing::grid_laplacian(6, 6), 1, 5);
  req.fp.values ^= 1;
  EXPECT_THROW(
      (void)fleet::decode_solve_request(fleet::encode_solve_request(req)),
      WireError);
}

TEST(FleetWire, SolveResponseRoundTrip) {
  serve::SolveResponse resp;
  resp.status = ServeStatus::Degraded;
  resp.x = {1.5, -2.25, 0.0, 1e-300};
  resp.columns.resize(2);
  resp.columns[0].iterations = 12;
  resp.columns[0].relative_residual = 1e-9;
  resp.columns[0].converged = true;
  resp.columns[1].iterations = 300;
  resp.columns[1].relative_residual = 0.5;
  resp.columns[1].converged = false;
  resp.cache_hit = true;
  resp.symbolic_reuse = true;
  resp.batch_width = 7;
  resp.detail = "fallback answered";
  resp.queue_seconds = 0.25;
  resp.setup_seconds = 1.75;
  resp.solve_seconds = 0.0625;

  const serve::SolveResponse got =
      fleet::decode_solve_response(fleet::encode_solve_response(resp));
  EXPECT_EQ(got.status, resp.status);
  EXPECT_EQ(got.x, resp.x);
  ASSERT_EQ(got.columns.size(), 2u);
  EXPECT_EQ(got.columns[0].iterations, 12);
  EXPECT_EQ(got.columns[0].relative_residual, 1e-9);
  EXPECT_TRUE(got.columns[0].converged);
  EXPECT_FALSE(got.columns[1].converged);
  EXPECT_TRUE(got.cache_hit);
  EXPECT_TRUE(got.symbolic_reuse);
  EXPECT_EQ(got.batch_width, 7);
  EXPECT_EQ(got.detail, resp.detail);
  EXPECT_EQ(got.queue_seconds, resp.queue_seconds);
  EXPECT_EQ(got.setup_seconds, resp.setup_seconds);
  EXPECT_EQ(got.solve_seconds, resp.solve_seconds);

  // Trailing garbage after a structurally valid payload is rejected.
  std::vector<std::uint8_t> padded = fleet::encode_solve_response(resp);
  padded.push_back(0);
  EXPECT_THROW((void)fleet::decode_solve_response(padded), WireError);
}

TEST(FleetWire, ShardStatsRoundTrip) {
  WireShardStats s;
  s.accepted = 101;
  s.completed = 95;
  s.ok = 90;
  s.degraded = 3;
  s.failed = 2;
  s.timeouts = 1;
  s.rejected = 4;
  s.batches = 40;
  s.setups_built = 6;
  s.cache_hits = 75;
  s.cache_misses = 25;
  s.cache_symbolic_hits = 5;
  s.cache_evictions = 2;
  s.cache_bytes = 1ull << 33;
  s.cache_entries = 6;
  s.in_flight = 6;
  s.draining = 1;

  const WireShardStats got =
      fleet::decode_shard_stats(fleet::encode_shard_stats(s));
  EXPECT_EQ(got.accepted, s.accepted);
  EXPECT_EQ(got.completed, s.completed);
  EXPECT_EQ(got.ok, s.ok);
  EXPECT_EQ(got.degraded, s.degraded);
  EXPECT_EQ(got.failed, s.failed);
  EXPECT_EQ(got.timeouts, s.timeouts);
  EXPECT_EQ(got.rejected, s.rejected);
  EXPECT_EQ(got.batches, s.batches);
  EXPECT_EQ(got.setups_built, s.setups_built);
  EXPECT_EQ(got.cache_hits, s.cache_hits);
  EXPECT_EQ(got.cache_misses, s.cache_misses);
  EXPECT_EQ(got.cache_symbolic_hits, s.cache_symbolic_hits);
  EXPECT_EQ(got.cache_evictions, s.cache_evictions);
  EXPECT_EQ(got.cache_bytes, s.cache_bytes);
  EXPECT_EQ(got.cache_entries, s.cache_entries);
  EXPECT_EQ(got.in_flight, s.in_flight);
  EXPECT_EQ(got.draining, s.draining);
  EXPECT_EQ(got.cache_hit_rate(), 0.75);
}

// ------------------------------------------------------------ socket layer

TEST(FleetSocket, EndpointParse) {
  const Endpoint u = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.to_string(), "unix:/tmp/x.sock");

  const Endpoint t = Endpoint::parse("tcp:127.0.0.1:7070");
  EXPECT_EQ(t.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 7070);
  EXPECT_EQ(t.to_string(), "tcp:127.0.0.1:7070");

  EXPECT_THROW(Endpoint::parse("http:/x"), Error);
  EXPECT_THROW(Endpoint::parse("unix:"), Error);
  EXPECT_THROW(Endpoint::parse("tcp:hostonly"), Error);
  EXPECT_THROW(Endpoint::parse("tcp:h:notaport"), Error);
}

TEST(FleetSocket, UnixListenConnectRoundTrip) {
  const Endpoint ep = test_endpoint();
  fleet::Socket listener = fleet::listen_on(ep);
  ASSERT_TRUE(listener.valid());

  fleet::Socket client = fleet::connect_to(ep, 2000);
  ASSERT_TRUE(client.valid());
  fleet::Socket server = fleet::accept_on(listener, 2000);
  ASSERT_TRUE(server.valid());

  const char msg[] = "ping over unix";
  ASSERT_TRUE(fleet::write_all(client.fd(), msg, sizeof(msg)));
  char buf[sizeof(msg)] = {};
  ASSERT_EQ(1, fleet::read_exact(server.fd(), buf, sizeof(msg)));
  EXPECT_STREQ(buf, msg);

  // Clean EOF after close; half-closed reads report it as rc 0.
  client.close();
  EXPECT_EQ(0, fleet::read_exact(server.fd(), buf, 1));
  ::unlink(ep.path.c_str());
}

TEST(FleetSocket, TcpEphemeralPortResolves) {
  const Endpoint ask = Endpoint::parse("tcp:127.0.0.1:0");
  fleet::Socket listener = fleet::listen_on(ask);
  const Endpoint real = fleet::local_endpoint(listener, ask);
  EXPECT_GT(real.port, 0);

  fleet::Socket client = fleet::connect_to(real, 2000);
  ASSERT_TRUE(client.valid());
  fleet::Socket server = fleet::accept_on(listener, 2000);
  ASSERT_TRUE(server.valid());
  const std::uint32_t word = 0xa5a5a5a5u;
  ASSERT_TRUE(fleet::write_all(client.fd(), &word, sizeof(word)));
  std::uint32_t got = 0;
  ASSERT_EQ(1, fleet::read_exact(server.fd(), &got, sizeof(got)));
  EXPECT_EQ(got, word);
}

TEST(FleetSocket, ConnectFailuresAreStatusNotExceptions) {
  // Dead endpoints are shard-health signals, never throws.
  EXPECT_FALSE(
      fleet::connect_to(Endpoint::parse("unix:/tmp/pdslin-test-nobody.sock"),
                        200)
          .valid());
}

// ----------------------------------------------------------- worker/router

serve::ServiceConfig worker_service_config() {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  return cfg;
}

TEST(FleetEndToEnd, FleetAnswersBitwiseIdenticalToService) {
  auto a1 = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  auto a2 = std::make_shared<const CsrMatrix>(testing::grid_laplacian(11, 13));
  const SolverOptions opt = small_options();

  // Reference answers from the in-process service.
  std::vector<std::vector<value_t>> ref;
  {
    serve::SolveService service(worker_service_config());
    for (int i = 0; i < 6; ++i) {
      auto r = service.solve(
          make_request(i % 2 == 0 ? a1 : a2, opt, 1 + i % 2, 40 + i));
      ASSERT_EQ(r.status, ServeStatus::Ok);
      ref.push_back(std::move(r.x));
    }
  }

  // Same requests through two real workers behind the router.
  FleetWorkerConfig w0{test_endpoint(), worker_service_config()};
  FleetWorkerConfig w1{test_endpoint(), worker_service_config()};
  FleetWorker worker0(w0), worker1(w1);
  worker0.start();
  worker1.start();

  FleetRouterConfig rcfg;
  rcfg.shards = {{"w0", w0.endpoint}, {"w1", w1.endpoint}};
  rcfg.heartbeat_period_ms = 50;
  FleetRouter router(rcfg);
  router.start();

  std::vector<std::future<serve::SolveResponse>> fs;
  for (int i = 0; i < 6; ++i) {
    fs.push_back(router.submit(
        make_request(i % 2 == 0 ? a1 : a2, opt, 1 + i % 2, 40 + i)));
  }
  for (int i = 0; i < 6; ++i) {
    const auto r = fs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, ServeStatus::Ok) << r.detail;
    ASSERT_EQ(r.x.size(), ref[static_cast<std::size_t>(i)].size());
    EXPECT_EQ(0,
              std::memcmp(r.x.data(), ref[static_cast<std::size_t>(i)].data(),
                          r.x.size() * sizeof(value_t)))
        << "fleet answer " << i << " differs from single-process bytes";
  }

  // Routing is deterministic and health-blind: repeated lookups agree, and
  // both setup classes landed where route_of said they would.
  const auto key1 = serve::fingerprint_of(*a1);
  const auto key2 = serve::fingerprint_of(*a2);
  const std::uint64_t oh = serve::setup_options_hash(opt);
  EXPECT_EQ(router.route_of(key1, oh), router.route_of(key1, oh));
  EXPECT_EQ(router.route_of(key2, oh), router.route_of(key2, oh));

  // Graceful fleet shutdown: both workers drain and ack.
  EXPECT_EQ(router.broadcast_shutdown(10000), 2u);
  router.stop();
  worker0.stop();
  worker1.stop();
  EXPECT_TRUE(worker0.stop_requested());
}

TEST(FleetEndToEnd, FailsOverPastDeadShard) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  const SolverOptions opt = small_options();

  FleetWorkerConfig wcfg{test_endpoint(), worker_service_config()};
  FleetWorker worker(wcfg);
  worker.start();

  // Shard "dead" has no listener; every request routed there must fail over
  // to the ring successor and still return the correct bytes.
  FleetRouterConfig rcfg;
  rcfg.shards = {{"dead", test_endpoint()}, {"live", wcfg.endpoint}};
  rcfg.connect_timeout_ms = 200;
  rcfg.heartbeat_period_ms = 30;
  rcfg.heartbeat_timeout_ms = 150;
  rcfg.degraded_after_misses = 1;
  rcfg.down_after_misses = 2;
  FleetRouter router(rcfg);
  router.start();

  std::vector<value_t> ref;
  {
    serve::SolveService service(worker_service_config());
    auto r = service.solve(make_request(a, opt, 1, 91));
    ASSERT_EQ(r.status, ServeStatus::Ok);
    ref = std::move(r.x);
  }
  for (int i = 0; i < 4; ++i) {
    const auto r = router.solve(make_request(a, opt, 1, 91));
    ASSERT_EQ(r.status, ServeStatus::Ok) << r.detail;
    EXPECT_EQ(0, std::memcmp(r.x.data(), ref.data(),
                             ref.size() * sizeof(value_t)));
  }

  // The heartbeat ladder marks the dead shard Down (bounded wait).
  std::size_t dead = rcfg.shards[0].name == "dead" ? 0 : 1;
  for (int spins = 0; spins < 200; ++spins) {
    if (router.shard_health(dead).state == fleet::ShardState::Down) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(router.shard_health(dead).state, fleet::ShardState::Down);
  EXPECT_EQ(router.shard_health(1 - dead).name, "live");

  router.stop();
  worker.stop();
}

TEST(FleetEndToEnd, ShutdownFrameDrainsThenAcks) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  const SolverOptions opt = small_options();

  FleetWorkerConfig wcfg{test_endpoint(), worker_service_config()};
  FleetWorker worker(wcfg);
  worker.start();

  fleet::Socket sock = fleet::connect_to(wcfg.endpoint, 2000);
  ASSERT_TRUE(sock.valid());

  // Pipeline a solve, then Shutdown. The worker must answer the solve
  // before acking — nothing accepted is ever dropped.
  const serve::SolveRequest req = make_request(a, opt, 1, 17);
  const std::vector<std::uint8_t> payload = fleet::encode_solve_request(
      req, serve::fingerprint_of(*a), serve::setup_options_hash(opt));
  ASSERT_TRUE(
      fleet::write_frame(sock.fd(), FrameType::SolveRequest, 5, payload));
  ASSERT_TRUE(fleet::write_frame(sock.fd(), FrameType::Shutdown, 6));

  Frame resp;
  ASSERT_EQ(1, fleet::read_frame(sock.fd(), resp));
  EXPECT_EQ(resp.type, FrameType::SolveResponse);
  EXPECT_EQ(resp.request_id, 5u);
  EXPECT_EQ(fleet::decode_solve_response(resp.payload).status, ServeStatus::Ok);

  Frame ack;
  ASSERT_EQ(1, fleet::read_frame(sock.fd(), ack));
  EXPECT_EQ(ack.type, FrameType::ShutdownAck);
  EXPECT_TRUE(worker.stop_requested());
  worker.stop();
  EXPECT_EQ(worker.stats_snapshot().completed, 1);
}

TEST(FleetEndToEnd, RouterStopFailsOutstandingStructurally) {
  // A router with only dead shards produces structured Failed responses —
  // never a hang, never an exception.
  FleetRouterConfig rcfg;
  rcfg.shards = {{"dead0", test_endpoint()}, {"dead1", test_endpoint()}};
  rcfg.connect_timeout_ms = 100;
  rcfg.max_failover_hops = 1;
  FleetRouter router(rcfg);
  router.start();

  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(8, 8));
  const auto r = router.solve(make_request(a, small_options(), 1, 3));
  EXPECT_EQ(r.status, ServeStatus::Failed);
  EXPECT_NE(r.detail.find("fleet:"), std::string::npos);
  router.stop();
}

// ------------------------------------------------------------- supervisor

#ifdef PDSLIN_WORKER_BIN

TEST(FleetSupervisor, RestartsKilledWorkerWithBackoff) {
  const long long restarts_before =
      obs::counter("fleet.shard.restarts").value();

  fleet::SupervisorOptions sopt;
  sopt.spawn.worker_bin = PDSLIN_WORKER_BIN;
  sopt.spawn.endpoint = test_endpoint();
  sopt.backoff_initial_ms = 50;  // keep the drill fast
  sopt.poll_interval_ms = 20;
  fleet::WorkerSupervisor sup(sopt);

  const pid_t first = sup.pid();
  ASSERT_GT(first, 0);
  EXPECT_EQ(sup.restarts(), 0);
  EXPECT_FALSE(sup.gave_up());

  // The failover drill: SIGKILL the worker out from under the supervisor.
  ASSERT_EQ(::kill(first, SIGKILL), 0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (sup.restarts() >= 1 && sup.pid() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(sup.restarts(), 1) << "supervisor never restarted the worker";
  const pid_t second = sup.pid();
  EXPECT_GT(second, 0);
  EXPECT_NE(second, first);
  EXPECT_FALSE(sup.gave_up());
  EXPECT_GE(obs::counter("fleet.shard.restarts").value(),
            restarts_before + 1);

  // The respawned incarnation must accept connections on the same endpoint.
  fleet::Socket probe = fleet::connect_to(sup.endpoint(), 2000);
  EXPECT_TRUE(probe.valid());

  sup.stop();
  EXPECT_LT(sup.pid(), 0);
}

TEST(FleetSupervisor, GivesUpAfterMaxRestartsWhenBinaryVanishes) {
  // Spawn from a private copy of the worker binary, then delete the copy:
  // every respawn attempt execs a missing path and fails fast, so the
  // supervisor must walk the backoff ladder and latch gave_up() after
  // max_restarts burned attempts.
  const std::string copy = "/tmp/pdslin-test-worker-" +
                           std::to_string(::getpid()) + "-vanish";
  std::filesystem::copy_file(PDSLIN_WORKER_BIN, copy,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::permissions(copy,
                               std::filesystem::perms::owner_all |
                                   std::filesystem::perms::group_read |
                                   std::filesystem::perms::group_exec);

  fleet::SupervisorOptions sopt;
  sopt.spawn.worker_bin = copy;
  sopt.spawn.endpoint = test_endpoint();
  sopt.max_restarts = 2;
  sopt.backoff_initial_ms = 20;
  sopt.backoff_max_ms = 100;
  sopt.poll_interval_ms = 20;
  fleet::WorkerSupervisor sup(sopt);

  const pid_t first = sup.pid();
  ASSERT_GT(first, 0);
  std::filesystem::remove(copy);
  ASSERT_EQ(::kill(first, SIGKILL), 0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (sup.gave_up()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(sup.gave_up());
  EXPECT_EQ(sup.restarts(), 0);
  sup.stop();
}

#endif  // PDSLIN_WORKER_BIN

}  // namespace
}  // namespace pdslin
