#include "sparse/io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "sparse/convert.hpp"
#include "util/error.hpp"

namespace pdslin {

namespace {
std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}
}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  PDSLIN_CHECK_MSG(static_cast<bool>(std::getline(in, line)), "empty stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  PDSLIN_CHECK_MSG(banner == "%%MatrixMarket", "missing MatrixMarket banner");
  object = lower(object);
  format = lower(format);
  field = lower(field);
  symmetry = lower(symmetry);
  PDSLIN_CHECK_MSG(object == "matrix" && format == "coordinate",
                   "only coordinate matrices are supported");
  PDSLIN_CHECK_MSG(field == "real" || field == "integer" || field == "pattern",
                   "unsupported field type: " + field);
  PDSLIN_CHECK_MSG(symmetry == "general" || symmetry == "symmetric",
                   "unsupported symmetry: " + symmetry);
  const bool pattern = field == "pattern";
  const bool symmetric = symmetry == "symmetric";

  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream sizes(line);
  long long rows = 0, cols = 0, entries = 0;
  sizes >> rows >> cols >> entries;
  PDSLIN_CHECK_MSG(rows > 0 && cols > 0 && entries >= 0, "bad size line");
  // Bound the header before any cast: indices are 32-bit, and a matrix holds
  // at most rows·cols distinct entries (< 2^62 once both are ≤ INT32_MAX).
  constexpr long long kMaxDim = std::numeric_limits<index_t>::max();
  PDSLIN_CHECK_MSG(rows <= kMaxDim && cols <= kMaxDim,
                   "declared size " + std::to_string(rows) + "x" +
                       std::to_string(cols) + " exceeds " +
                       std::to_string(kMaxDim) + " rows or columns");
  PDSLIN_CHECK_MSG(entries <= rows * cols,
                   "declared " + std::to_string(entries) +
                       " entries exceed the " + std::to_string(rows) + "x" +
                       std::to_string(cols) + " matrix");

  // Reserve for the declared entries only up to a bounded amount; a header
  // that overstates them ends in a truncation error below, not in a huge
  // allocation. (2·entries < 2^63 by the check above.)
  constexpr unsigned long long kMaxReserve = 1ULL << 20;
  const auto declared = static_cast<unsigned long long>(entries) *
                        (symmetric ? 2ULL : 1ULL);
  CooMatrix coo(static_cast<index_t>(rows), static_cast<index_t>(cols));
  coo.reserve(static_cast<std::size_t>(std::min(declared, kMaxReserve)));
  for (long long k = 0; k < entries; ++k) {
    long long i = 0, j = 0;
    double v = 1.0;
    in >> i >> j;
    if (!pattern) in >> v;
    PDSLIN_CHECK_MSG(static_cast<bool>(in),
                     "truncated entry list at entry " + std::to_string(k + 1) +
                         " of " + std::to_string(entries));
    // Validate before any narrowing cast: a silently wrapped index would
    // corrupt the COO build (or crash far away in coo_to_csr).
    PDSLIN_CHECK_MSG(i >= 1 && i <= rows && j >= 1 && j <= cols,
                     "entry " + std::to_string(k + 1) + ": index (" +
                         std::to_string(i) + ", " + std::to_string(j) +
                         ") outside the declared " + std::to_string(rows) +
                         "x" + std::to_string(cols) + " matrix");
    PDSLIN_CHECK_MSG(std::isfinite(v),
                     "entry " + std::to_string(k + 1) + ": non-finite value");
    const auto ri = static_cast<index_t>(i - 1);
    const auto cj = static_cast<index_t>(j - 1);
    coo.add(ri, cj, v);
    if (symmetric && ri != cj) coo.add(cj, ri, v);
  }
  return coo_to_csr(coo);
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  PDSLIN_CHECK_MSG(in.good(), "cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a) {
  PDSLIN_CHECK_MSG(a.has_values(), "write requires numeric values");
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows << ' ' << a.cols << ' ' << a.nnz() << '\n';
  out.precision(17);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      out << (i + 1) << ' ' << (a.col_idx[p] + 1) << ' ' << a.values[p] << '\n';
    }
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream out(path);
  PDSLIN_CHECK_MSG(out.good(), "cannot open " + path);
  write_matrix_market(out, a);
}

}  // namespace pdslin
