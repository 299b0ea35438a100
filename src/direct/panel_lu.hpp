// Supernodal blocked LU — the panel kernel behind lu_factorize (see
// direct/lu.hpp for the kernel contract and direct/kernels.hpp for the
// microkernel bitwise-order contract).
//
// Symbolic phase: symmetrize the pattern, take the symbolic Cholesky factor
// (a structural superset of the diagonal-pivoted LU fill, George/Ng), find
// its dense tail — the trailing columns whose symbolic columns are full to
// the bottom — and carve the columns before it into panels by relaxed
// amalgamation of e-tree chains (the panel straddling the tail start is
// cut there). The tail is one more panel. Each panel records its dense row
// list plus the supernode→supernode update edges.
// Numeric phase: panels are factored left-looking over the supernodal
// elimination forest — gather/TRSM/scatter for the U-part rows of each
// update, gather/GEMM/scatter for the below-diagonal block, then an
// in-panel dense factorization. Before the tail, threshold pivoting is
// confined to the diagonal. Inside the tail a row exchange changes no
// structure, so the tail is factored right-looking in blocks of
// panel_max_width columns with threshold row pivoting, reproducing the
// scalar kernel's pivot choices; tail rows of earlier L columns are
// relabeled through its exchanges at extraction. Scheduling is pipelined
// (parallel/pipeline.hpp) when opt.threads > 1, the tail being one task;
// results are bitwise identical for any thread count.
#pragma once

#include <optional>

#include "direct/lu.hpp"

namespace pdslin {

/// Attempt the supernodal factorization. Returns std::nullopt — the caller
/// reruns the scalar kernel, which reproduces the exact scalar result
/// (including its singularity error) — when threshold pivoting wants an
/// off-diagonal pivot before the dense tail, a column is numerically
/// singular, a nonzero numerator gives a zero L multiplier, or a factor
/// value is not finite.
std::optional<LuFactors> panel_lu_factorize(const CscMatrix& a,
                                            const LuOptions& opt);

}  // namespace pdslin
