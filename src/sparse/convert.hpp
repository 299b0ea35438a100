// Format conversions: COO → CSR/CSC (summing duplicates), CSR ↔ CSC,
// and transposition. All outputs have sorted indices within each major slot.
#pragma once

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace pdslin {

/// Build CSR from COO; duplicate (i, j) entries are summed.
CsrMatrix coo_to_csr(const CooMatrix& coo);

/// Build CSC from COO; duplicate (i, j) entries are summed.
CscMatrix coo_to_csc(const CooMatrix& coo);

/// Reinterpret the same matrix in the other layout (no transpose).
CscMatrix csr_to_csc(const CsrMatrix& a);
CsrMatrix csc_to_csr(const CscMatrix& a);

/// Bᵀ in the same layout as the input.
CsrMatrix transpose(const CsrMatrix& a);
CscMatrix transpose(const CscMatrix& a);

/// Pattern-only copy (values dropped).
CsrMatrix pattern_of(const CsrMatrix& a);

}  // namespace pdslin
