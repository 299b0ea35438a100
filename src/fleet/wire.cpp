#include "fleet/wire.hpp"

#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>

#include "core/schur_solver.hpp"
#include "fleet/socket.hpp"

namespace pdslin::fleet {

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::SolveRequest: return "SolveRequest";
    case FrameType::SolveResponse: return "SolveResponse";
    case FrameType::Ping: return "Ping";
    case FrameType::Pong: return "Pong";
    case FrameType::Shutdown: return "Shutdown";
    case FrameType::ShutdownAck: return "ShutdownAck";
    case FrameType::Error: return "Error";
  }
  return "Unknown";
}

// ------------------------------------------------------------- byte codecs

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::bytes(const void* data, std::size_t len) {
  if (len == 0) return;  // empty arrays may carry a null data()
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

void WireWriter::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void WireReader::raw(void* out, std::size_t len) {
  if (len > data_.size() - pos_) throw WireError("payload overrun");
  if (len == 0) return;  // empty arrays may hand over a null out
  std::memcpy(out, data_.data() + pos_, len);
  pos_ += len;
}

std::uint8_t WireReader::u8() {
  std::uint8_t v;
  raw(&v, 1);
  return v;
}

std::uint16_t WireReader::u16() {
  std::uint8_t b[2];
  raw(b, 2);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t WireReader::u32() {
  std::uint8_t b[4];
  raw(b, 4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

std::uint64_t WireReader::u64() {
  std::uint8_t b[8];
  raw(b, 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::uint64_t len = u64();
  if (len > kMaxPayloadBytes) throw WireError("string length exceeds ceiling");
  std::string out(static_cast<std::size_t>(len), '\0');
  raw(out.data(), out.size());
  return out;
}

// ------------------------------------------------------------ frame I/O

std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload) {
  WireWriter w;
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(request_id);
  w.u64(payload.size());
  w.u64(serve::hash_bytes(payload.data(), payload.size()));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

bool write_frame(int fd, FrameType type, std::uint64_t request_id,
                 std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> buf =
      encode_frame(type, request_id, payload);
  return write_all(fd, buf.data(), buf.size());
}

bool write_frame(int fd, FrameType type, std::uint64_t request_id) {
  return write_frame(fd, type, request_id, {});
}

int read_frame(int fd, Frame& out, int timeout_ms) {
  std::uint8_t hdr[kFrameHeaderBytes];
  int rc = timeout_ms < 0 ? read_exact(fd, hdr, sizeof(hdr))
                          : read_exact_timeout(fd, hdr, sizeof(hdr),
                                               timeout_ms);
  if (rc <= 0) return rc;

  WireReader r(hdr);
  if (r.u32() != kWireMagic) throw WireError("bad magic");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    throw WireError("version mismatch: got " + std::to_string(version) +
                    ", speak " + std::to_string(kWireVersion));
  }
  const auto type = static_cast<FrameType>(r.u16());
  out.request_id = r.u64();
  const std::uint64_t len = r.u64();
  const std::uint64_t checksum = r.u64();
  if (len > kMaxPayloadBytes) throw WireError("payload length exceeds ceiling");

  out.type = type;
  out.payload.resize(static_cast<std::size_t>(len));
  if (len > 0) {
    rc = timeout_ms < 0
             ? read_exact(fd, out.payload.data(), out.payload.size())
             : read_exact_timeout(fd, out.payload.data(), out.payload.size(),
                                  timeout_ms);
    if (rc == 0) rc = -1;  // EOF between header and payload is truncation
    if (rc == -1) throw WireError("truncated payload");
    if (rc < 0) return rc;  // -2 timeout propagates
  }
  if (serve::hash_bytes(out.payload.data(), out.payload.size()) != checksum) {
    throw WireError("payload checksum mismatch");
  }
  return 1;
}

// ----------------------------------------------------------- payload codecs

void encode_csr(WireWriter& w, const CsrMatrix& a) {
  w.u64(static_cast<std::uint64_t>(a.rows));
  w.u64(static_cast<std::uint64_t>(a.cols));
  w.array(a.row_ptr);
  w.array(a.col_idx);
  w.array(a.values);
}

CsrMatrix decode_csr(WireReader& r) {
  CsrMatrix a;
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  if (rows > (1u << 30) || cols > (1u << 30)) {
    throw WireError("CSR dimensions exceed ceiling");
  }
  a.rows = static_cast<index_t>(rows);
  a.cols = static_cast<index_t>(cols);
  a.row_ptr = r.array<index_t>();
  a.col_idx = r.array<index_t>();
  a.values = r.array<value_t>();
  if (a.rows > 0) {
    try {
      a.validate();
    } catch (const Error& e) {
      throw WireError(std::string("decoded CSR invalid: ") + e.what());
    }
  } else if (!a.row_ptr.empty() || !a.col_idx.empty() || !a.values.empty()) {
    throw WireError("empty CSR with non-empty arrays");
  }
  return a;
}

namespace {

/// The one narrowing every decoded integer goes through: values with a
/// `last` (enums, index counts) must lie in [0, last], the others in T's
/// range.
template <typename T>
T checked_integer(std::int64_t v, std::optional<T> last, const char* what) {
  using U = typename std::conditional_t<std::is_enum_v<T>,
                                        std::underlying_type<T>,
                                        std::type_identity<T>>::type;
  const std::int64_t lo = last ? 0 : std::numeric_limits<U>::min();
  const std::int64_t hi = last ? static_cast<std::int64_t>(*last)
                               : std::numeric_limits<U>::max();
  if (v < lo || v > hi) {
    throw WireError(std::string("out-of-range value for ") + what);
  }
  return static_cast<T>(v);
}

}  // namespace

void encode_solver_options(WireWriter& w, const SolverOptions& opt) {
  for_each_option(opt, [&w](const auto& field) {
    using T = std::remove_cvref_t<decltype(field.value)>;
    if constexpr (std::is_same_v<T, double>) {
      w.f64(field.value);
    } else if constexpr (std::is_same_v<T, bool>) {
      w.u8(field.value ? 1 : 0);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      w.u64(field.value);
    } else {
      w.i64(static_cast<std::int64_t>(field.value));
    }
  });
}

SolverOptions decode_solver_options(WireReader& r) {
  SolverOptions opt;
  for_each_option(opt, [&r](const auto& field) {
    using T = std::remove_cvref_t<decltype(field.value)>;
    if constexpr (std::is_same_v<T, double>) {
      field.value = r.f64();
    } else if constexpr (std::is_same_v<T, bool>) {
      field.value = r.u8() != 0;
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      field.value = r.u64();
    } else {
      field.value = checked_integer(r.i64(), field.last, field.key);
    }
  });
  return opt;
}

std::vector<std::uint8_t> encode_solve_request(const WireSolveRequest& req) {
  WireWriter w;
  const auto fp_bytes = req.fp.to_bytes();
  w.bytes(fp_bytes.data(), fp_bytes.size());
  w.u64(req.options_hash);
  encode_solver_options(w, req.opt);
  encode_csr(w, req.a);
  encode_csr(w, req.incidence);
  w.i64(req.nrhs);
  w.array(req.b);
  w.f64(req.timeout_seconds);
  return w.take();
}

std::vector<std::uint8_t> encode_solve_request(const serve::SolveRequest& req,
                                               const serve::Fingerprint& fp,
                                               std::uint64_t options_hash) {
  PDSLIN_CHECK_MSG(req.a != nullptr, "wire: solve request without a matrix");
  WireWriter w;
  const auto fp_bytes = fp.to_bytes();
  w.bytes(fp_bytes.data(), fp_bytes.size());
  w.u64(options_hash);
  encode_solver_options(w, req.opt);
  encode_csr(w, *req.a);
  static const CsrMatrix kEmpty{};
  encode_csr(w, req.incidence ? *req.incidence : kEmpty);
  w.i64(req.nrhs);
  w.array(req.b);
  w.f64(req.timeout_seconds);
  return w.take();
}

WireSolveRequest decode_solve_request(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireSolveRequest req;
  std::uint8_t fp_bytes[serve::Fingerprint::kWireBytes];
  for (auto& b : fp_bytes) b = r.u8();
  req.fp = serve::Fingerprint::from_bytes(fp_bytes);
  req.options_hash = r.u64();
  req.opt = decode_solver_options(r);
  req.a = decode_csr(r);
  req.incidence = decode_csr(r);
  req.nrhs = checked_integer<index_t>(r.i64(), kMaxIndexOption, "nrhs");
  req.b = r.array<value_t>();
  req.timeout_seconds = r.f64();
  if (!r.done()) throw WireError("trailing bytes after solve request");

  // End-to-end integrity: the fingerprint computed by the sender must match
  // the one derived from the decoded matrix, and the options hash must match
  // the decoded options — otherwise the request would be solved under a key
  // it was not routed by.
  if (serve::fingerprint_of(req.a) != req.fp) {
    throw WireError("solve request fingerprint mismatch");
  }
  if (serve::setup_options_hash(req.opt) != req.options_hash) {
    throw WireError("solve request options-hash mismatch");
  }
  return req;
}

std::vector<std::uint8_t> encode_solve_response(
    const serve::SolveResponse& resp) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(resp.status));
  w.array(resp.x);
  w.u64(resp.columns.size());
  for (const GmresResult& c : resp.columns) {
    w.i64(c.iterations);
    w.f64(c.relative_residual);
    w.u8(c.converged ? 1 : 0);
  }
  w.u8(resp.cache_hit ? 1 : 0);
  w.u8(resp.symbolic_reuse ? 1 : 0);
  w.i64(resp.batch_width);
  w.str(resp.detail);
  w.f64(resp.queue_seconds);
  w.f64(resp.setup_seconds);
  w.f64(resp.solve_seconds);
  return w.take();
}

serve::SolveResponse decode_solve_response(
    std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  serve::SolveResponse resp;
  const std::uint32_t status = r.u32();
  if (status > static_cast<std::uint32_t>(serve::ServeStatus::Failed)) {
    throw WireError("out-of-range ServeStatus");
  }
  resp.status = static_cast<serve::ServeStatus>(status);
  resp.x = r.array<value_t>();
  const std::uint64_t ncols = r.u64();
  if (ncols > kMaxPayloadBytes / 17) throw WireError("column count ceiling");
  resp.columns.resize(static_cast<std::size_t>(ncols));
  for (GmresResult& c : resp.columns) {
    c.iterations = static_cast<int>(r.i64());
    c.relative_residual = r.f64();
    c.converged = r.u8() != 0;
  }
  resp.cache_hit = r.u8() != 0;
  resp.symbolic_reuse = r.u8() != 0;
  resp.batch_width = static_cast<int>(r.i64());
  resp.detail = r.str();
  resp.queue_seconds = r.f64();
  resp.setup_seconds = r.f64();
  resp.solve_seconds = r.f64();
  if (!r.done()) throw WireError("trailing bytes after solve response");
  return resp;
}

std::vector<std::uint8_t> encode_shard_stats(const WireShardStats& s) {
  WireWriter w;
  w.i64(s.accepted);
  w.i64(s.completed);
  w.i64(s.ok);
  w.i64(s.degraded);
  w.i64(s.failed);
  w.i64(s.timeouts);
  w.i64(s.rejected);
  w.i64(s.batches);
  w.i64(s.setups_built);
  w.i64(s.cache_hits);
  w.i64(s.cache_misses);
  w.i64(s.cache_symbolic_hits);
  w.i64(s.cache_evictions);
  w.u64(s.cache_bytes);
  w.u64(s.cache_entries);
  w.i64(s.in_flight);
  w.u8(s.draining);
  return w.take();
}

WireShardStats decode_shard_stats(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireShardStats s;
  s.accepted = r.i64();
  s.completed = r.i64();
  s.ok = r.i64();
  s.degraded = r.i64();
  s.failed = r.i64();
  s.timeouts = r.i64();
  s.rejected = r.i64();
  s.batches = r.i64();
  s.setups_built = r.i64();
  s.cache_hits = r.i64();
  s.cache_misses = r.i64();
  s.cache_symbolic_hits = r.i64();
  s.cache_evictions = r.i64();
  s.cache_bytes = r.u64();
  s.cache_entries = r.u64();
  s.in_flight = r.i64();
  s.draining = r.u8();
  if (!r.done()) throw WireError("trailing bytes after shard stats");
  return s;
}

}  // namespace pdslin::fleet
