// Doubly-bordered block-diagonal (DBBD) assembly — turns an unknown
// partition (from NGD or RHB) into the permuted block system of paper
// Eq. (1) and computes the balance statistics of Fig. 3 / Table II.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/nested_dissection.hpp"
#include "sparse/csr.hpp"

namespace pdslin {

struct DbbdPartition {
  index_t n = 0;
  index_t num_parts = 0;
  /// Unknown labels (input copy): 0..k-1 or DissectionResult::kSeparator.
  std::vector<index_t> part;
  /// perm[new] = old. Subdomain 0 unknowns first, …, separator last.
  std::vector<index_t> perm;
  std::vector<index_t> iperm;
  /// Start offset of each subdomain block in the new ordering; size k+1,
  /// domain_offset[k] = separator start.
  std::vector<index_t> domain_offset;
  /// pattern_hash of the incidence SchurSolver::setup() partitioned with (0
  /// when it had none): a partition answers only requests that bring the
  /// same incidence (serve/service.hpp).
  std::uint64_t incidence_hash = 0;
  [[nodiscard]] index_t separator_size() const { return n - domain_offset[num_parts]; }
  [[nodiscard]] index_t domain_size(index_t l) const {
    return domain_offset[l + 1] - domain_offset[l];
  }
};

DbbdPartition build_dbbd(const std::vector<index_t>& part, index_t num_parts);

/// Variant with an explicit separator ordering (e.g. the nested-dissection
/// elimination order — the paper's "natural" ordering in §V-B). The list
/// must contain exactly the separator unknowns; they fill the separator
/// block in the given sequence.
DbbdPartition build_dbbd(const std::vector<index_t>& part, index_t num_parts,
                         const std::vector<index_t>& separator_order);

/// Per-subdomain statistics of the permuted matrix — exactly the quantities
/// the paper's balance plots report.
struct DbbdStats {
  std::vector<long long> dim_d;      // dim(D_ℓ)
  std::vector<long long> nnz_d;      // nnz(D_ℓ)
  std::vector<long long> nnzcol_e;   // nonzero columns of E_ℓ
  std::vector<long long> nnz_e;      // nnz(E_ℓ)
  std::vector<long long> nnzrow_f;   // nonzero rows of F_ℓ
  std::vector<long long> nnz_f;      // nnz(F_ℓ)
  index_t separator_size = 0;
  long long nnz_c = 0;
};

/// `a` is the ORIGINAL (unpermuted) matrix; labels index its unknowns.
DbbdStats dbbd_stats(const CsrMatrix& a, const DbbdPartition& p);

}  // namespace pdslin
