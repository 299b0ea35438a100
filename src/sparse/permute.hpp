// Row/column permutations of sparse matrices.
//
// Convention used throughout the library: a permutation is stored as a vector
// `perm` with perm[new_index] = old_index, i.e. the new object at position i
// is the old object perm[i]. The inverse (iperm[old] = new) is computed where
// needed.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

/// iperm[perm[i]] = i.
std::vector<index_t> invert_permutation(std::span<const index_t> perm);

/// True if `perm` is a permutation of 0..n-1.
bool is_permutation(std::span<const index_t> perm, index_t n);

/// B = P A Qᵀ with B(i, j) = A(rowperm[i], colperm[j]), every row sorted:
/// two stable counting passes, by columns and then by rows, so entries
/// with equal indices keep their stored order.
CsrMatrix permute(const CsrMatrix& a, std::span<const index_t> rowperm,
                  std::span<const index_t> colperm);

/// The same B stored by columns, every column sorted: the first of
/// permute's two counting passes.
CscMatrix permuted_csc(const CsrMatrix& a, std::span<const index_t> rowperm,
                       std::span<const index_t> colperm);

/// Symmetric permutation B(i, j) = A(perm[i], perm[j]).
CsrMatrix permute_symmetric(const CsrMatrix& a, std::span<const index_t> perm);

}  // namespace pdslin
