// Binary wire protocol of the solve fleet (docs/FLEET.md has the byte-level
// frame layout). Every message is one length-prefixed frame:
//
//   header (32 bytes, little-endian):
//     u32 magic      "PDSL" (0x4C534450)
//     u16 version    kWireVersion — a mismatched peer is rejected up front
//     u16 type       FrameType
//     u64 request_id correlates responses with requests (pipelining is
//                    explicit: responses may return out of order)
//     u64 payload_len
//     u64 checksum   FNV-1a over the payload bytes
//   payload (payload_len bytes, per-type codec below; the SolverOptions
//            of a solve request follow the for_each_option table, see
//            encode_solver_options)
//
// The length prefix makes framing self-synchronizing under normal operation;
// the magic + version + checksum make corruption and protocol drift loud
// (WireError) instead of silent. Solve payloads additionally carry the
// client-computed setup fingerprint, which the worker re-derives from the
// decoded CSR — an end-to-end integrity check stronger than the transport
// checksum alone.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/fingerprint.hpp"
#include "util/error.hpp"

namespace pdslin::fleet {

inline constexpr std::uint32_t kWireMagic = 0x4C534450u;  // "PDSL"
inline constexpr std::uint16_t kWireVersion = 4;
/// Defensive ceiling on payload_len: a garbage header must not turn into a
/// multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 31;
inline constexpr std::size_t kFrameHeaderBytes = 32;

enum class FrameType : std::uint16_t {
  SolveRequest = 1,   // WireSolveRequest payload
  SolveResponse = 2,  // WireSolveResponse payload
  Ping = 3,           // empty payload (heartbeat probe)
  Pong = 4,           // WireShardStats payload (heartbeat + telemetry)
  Shutdown = 5,       // empty payload: drain accepted work, then close
  ShutdownAck = 6,    // empty payload
  Error = 7,          // UTF-8 detail string (decode/dispatch failure)
};

const char* to_string(FrameType t);

/// Malformed frame or payload: bad magic/version/checksum, truncated or
/// oversized payload, codec overrun, fingerprint mismatch.
class WireError : public Error {
 public:
  explicit WireError(const std::string& what) : Error("wire: " + what) {}
};

struct Frame {
  FrameType type = FrameType::Error;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

// ------------------------------------------------------------- byte codecs

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void bytes(const void* data, std::size_t len);
  void str(std::string_view s);
  /// Length-prefixed array of raw elements (u8 element size tag + u64
  /// count + payload) — index/value arrays travel as single memcpys.
  template <typename T>
  void array(const std::vector<T>& v) {
    u8(static_cast<std::uint8_t>(sizeof(T)));
    u64(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader; throws WireError on overrun
/// or any structural mismatch.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}
  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  template <typename T>
  std::vector<T> array() {
    if (u8() != sizeof(T)) throw WireError("array element size mismatch");
    const std::uint64_t count = u64();
    if (count > kMaxPayloadBytes / sizeof(T)) {
      throw WireError("array length exceeds payload ceiling");
    }
    std::vector<T> out(static_cast<std::size_t>(count));
    raw(out.data(), out.size() * sizeof(T));
    return out;
  }
  /// All payload consumed? Codecs check this to reject trailing garbage.
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  void raw(void* out, std::size_t len);
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------ frame I/O

/// Serialize header + payload into one buffer (single write on the wire).
std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload);

/// Write one frame; returns false on a broken connection.
bool write_frame(int fd, FrameType type, std::uint64_t request_id,
                 std::span<const std::uint8_t> payload);
bool write_frame(int fd, FrameType type, std::uint64_t request_id);

/// Read one frame (blocking). Returns 1 on success, 0 on clean EOF at a
/// frame boundary; throws WireError on garbage (bad magic/version/checksum,
/// truncated payload). timeout_ms >= 0 bounds each wait and returns -2 on
/// expiry (read_frame with the default blocks forever).
int read_frame(int fd, Frame& out, int timeout_ms = -1);

// ----------------------------------------------------------- payload codecs

/// A solve job as it travels router → worker.
struct WireSolveRequest {
  /// Client-computed fingerprint of `a` — the routing key half. The decoder
  /// re-derives it from the decoded matrix and throws WireError on mismatch.
  serve::Fingerprint fp;
  /// setup_options_hash(opt) — the other half of the routing key.
  std::uint64_t options_hash = 0;
  SolverOptions opt;
  CsrMatrix a;
  CsrMatrix incidence;  // rows == 0 → absent
  index_t nrhs = 1;
  std::vector<value_t> b;  // n × nrhs column-major
  double timeout_seconds = 0.0;
};

std::vector<std::uint8_t> encode_solve_request(const WireSolveRequest& req);
/// Same bytes, encoded straight from a serve request (no matrix copy).
/// `fp`/`options_hash` must be fingerprint_of(*req.a)/setup_options_hash —
/// the router computes them once for routing and passes them through.
std::vector<std::uint8_t> encode_solve_request(const serve::SolveRequest& req,
                                               const serve::Fingerprint& fp,
                                               std::uint64_t options_hash);
WireSolveRequest decode_solve_request(std::span<const std::uint8_t> payload);

/// serve::SolveResponse, worker → router.
std::vector<std::uint8_t> encode_solve_response(
    const serve::SolveResponse& resp);
serve::SolveResponse decode_solve_response(
    std::span<const std::uint8_t> payload);

/// Pong payload: one shard's health/telemetry snapshot (service counters +
/// factor-cache counters + liveness). The router mirrors these into the
/// fleet.* metrics family.
struct WireShardStats {
  // service
  std::int64_t accepted = 0;
  std::int64_t completed = 0;
  std::int64_t ok = 0;
  std::int64_t degraded = 0;
  std::int64_t failed = 0;
  std::int64_t timeouts = 0;
  std::int64_t rejected = 0;
  std::int64_t batches = 0;
  std::int64_t setups_built = 0;
  // factor cache
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_symbolic_hits = 0;
  std::int64_t cache_evictions = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_entries = 0;
  // liveness
  std::int64_t in_flight = 0;  // accepted − completed at snapshot time
  std::uint8_t draining = 0;   // worker received Shutdown / SIGTERM

  [[nodiscard]] double cache_hit_rate() const {
    const std::int64_t lookups = cache_hits + cache_misses;
    return lookups > 0 ? static_cast<double>(cache_hits) /
                             static_cast<double>(lookups)
                       : 0.0;
  }
};

std::vector<std::uint8_t> encode_shard_stats(const WireShardStats& s);
WireShardStats decode_shard_stats(std::span<const std::uint8_t> payload);

/// SolverOptions codec, shared by request encode/decode (public so tests
/// can round-trip options in isolation). One value per for_each_option
/// field, in table order: f64 for a double, u8 for a bool, u64 for a
/// std::uint64_t, i64 for every other integer and enum. The decoder
/// range-checks each integer (WireError on a value outside its field's
/// range).
void encode_solver_options(WireWriter& w, const SolverOptions& opt);
SolverOptions decode_solver_options(WireReader& r);

/// CSR codec: dimensions + the three compressed arrays (raw, tagged with
/// element sizes). An empty matrix encodes as rows == 0.
void encode_csr(WireWriter& w, const CsrMatrix& a);
CsrMatrix decode_csr(WireReader& r);

}  // namespace pdslin::fleet
