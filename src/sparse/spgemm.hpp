// Sparse matrix–matrix products (Gustavson's algorithm).
//
// Used by the Schur assembly T̃ = W̃ G̃ (paper Eq. (5)) and by the structural
// factorization check str(A) = str(MᵀM) (paper Eq. (11)).
#pragma once

#include "sparse/csr.hpp"

namespace pdslin {

/// Numeric C = A·B (both CSR, result CSR with sorted rows).
CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b);

/// Symbolic pattern of A·B (no values, sorted rows).
CsrMatrix spgemm_pattern(const CsrMatrix& a, const CsrMatrix& b);

/// Symbolic pattern of AᵀA for a (rectangular) CSR A — the structural
/// product the hypergraph pipeline needs, computed without forming Aᵀ
/// explicitly as a separate user step.
CsrMatrix ata_pattern(const CsrMatrix& a);

}  // namespace pdslin
