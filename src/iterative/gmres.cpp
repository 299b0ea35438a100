#include "iterative/gmres.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/ops.hpp"
#include "util/error.hpp"

namespace pdslin {

MatrixOperator::MatrixOperator(const CsrMatrix& a) : a_(a) {
  PDSLIN_CHECK(a.rows == a.cols);
}

void MatrixOperator::apply(std::span<const value_t> x,
                           std::span<value_t> y) const {
  spmv(a_, x, y);
}

void IdentityOperator::apply(std::span<const value_t> x,
                             std::span<value_t> y) const {
  PDSLIN_CHECK(x.size() == y.size());
  std::copy(x.begin(), x.end(), y.begin());
}

void GmresWorkspace::ensure(index_t n, int m) {
  const auto un = static_cast<std::size_t>(n);
  const auto um = static_cast<std::size_t>(m);
  auto fit = [&](std::vector<value_t>& buf, std::size_t size) {
    if (buf.size() < size) {
      buf.resize(size);
      ++allocations;
    }
  };
  if (v.size() < um + 1) {
    v.resize(um + 1);
    ++allocations;
  }
  for (auto& vi : v) fit(vi, un);
  if (h.size() < um + 1) {
    h.resize(um + 1);
    ++allocations;
  }
  for (auto& hi : h) {
    if (hi.size() < um) {
      hi.assign(um, 0.0);
      ++allocations;
    }
  }
  fit(cs, um);
  fit(sn, um);
  fit(g, um + 1);
  fit(y, um);
  fit(tmp, un);
  fit(z, un);
}

GmresResult gmres(const LinearOperator& a, const LinearOperator* precond,
                  std::span<const value_t> b, std::span<value_t> x,
                  const GmresOptions& opt, GmresWorkspace* ws) {
  PDSLIN_SPAN("gmres");
  static obs::Counter& iter_counter = obs::counter("gmres.iters");
  static obs::Counter& restart_counter = obs::counter("gmres.restarts");
  const index_t n = a.size();
  PDSLIN_CHECK(b.size() == static_cast<std::size_t>(n));
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(n));
  const int m = std::max(1, opt.restart);

  GmresResult result;
  const value_t bnorm = norm2(b);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    result.converged = true;
    return result;
  }

  // Krylov basis (m+1 vectors) and the Hessenberg system in Givens form,
  // from the caller's workspace when given (allocation-free steady state).
  GmresWorkspace local;
  GmresWorkspace& w = ws != nullptr ? *ws : local;
  w.ensure(n, m);
  auto& v = w.v;
  auto& h = w.h;
  auto& cs = w.cs;
  auto& sn = w.sn;
  auto& g = w.g;
  auto& tmp = w.tmp;
  auto& z = w.z;

  while (result.iterations < opt.max_iterations) {
    if (result.iterations > 0) restart_counter.add();
    // r = b − A x (true residual: every restart cycle — and every happy
    // breakdown, see below — re-anchors on it). For x = 0, A·x is +0.0
    // and b − (+0.0) is b bit for bit, so the apply is skipped.
    if (is_zero(x)) {
      std::copy(b.begin(), b.end(), v[0].begin());
    } else {
      a.apply(x, tmp);
      for (index_t i = 0; i < n; ++i) v[0][i] = b[i] - tmp[i];
    }
    const value_t beta = norm2(std::span<const value_t>(v[0].data(), n));
    result.relative_residual = beta / bnorm;
    if (result.relative_residual <= opt.rel_tolerance) {
      result.converged = true;
      return result;
    }
    for (index_t i = 0; i < n; ++i) v[0][i] /= beta;
    std::fill(g.begin(), g.begin() + m + 1, 0.0);
    g[0] = beta;

    int k = 0;
    bool happy = false;  // h[k+1][k] == 0: the Krylov space closed
    for (; k < m && result.iterations < opt.max_iterations; ++k) {
      ++result.iterations;
      iter_counter.add();
      // w = A M⁻¹ v_k.
      if (precond != nullptr) {
        precond->apply(std::span<const value_t>(v[k].data(), n),
                       std::span<value_t>(z.data(), n));
        a.apply(std::span<const value_t>(z.data(), n),
                std::span<value_t>(tmp.data(), n));
      } else {
        a.apply(std::span<const value_t>(v[k].data(), n),
                std::span<value_t>(tmp.data(), n));
      }
      // Modified Gram–Schmidt.
      for (int i = 0; i <= k; ++i) {
        h[i][k] = dot(std::span<const value_t>(tmp.data(), n),
                      std::span<const value_t>(v[i].data(), n));
        axpy(-h[i][k], std::span<const value_t>(v[i].data(), n),
             std::span<value_t>(tmp.data(), n));
      }
      h[k + 1][k] = norm2(std::span<const value_t>(tmp.data(), n));
      // Happy breakdown: A M⁻¹ v_k ∈ span(v_0..v_k), so there is no v_{k+1}
      // to normalize. Stop expanding the basis and back-substitute with the
      // k+1 vectors we have — continuing would orthogonalize the next step
      // against whatever stale v[k+1] is left in the workspace.
      happy = !(h[k + 1][k] > 0.0);
      if (!happy) {
        for (index_t i = 0; i < n; ++i) v[k + 1][i] = tmp[i] / h[k + 1][k];
      }
      // Apply previous Givens rotations to the new column.
      for (int i = 0; i < k; ++i) {
        const value_t t = cs[i] * h[i][k] + sn[i] * h[i + 1][k];
        h[i + 1][k] = -sn[i] * h[i][k] + cs[i] * h[i + 1][k];
        h[i][k] = t;
      }
      // New rotation annihilating h[k+1][k].
      const value_t denom = std::hypot(h[k][k], h[k + 1][k]);
      if (denom == 0.0) {
        cs[k] = 1.0;
        sn[k] = 0.0;
      } else {
        cs[k] = h[k][k] / denom;
        sn[k] = h[k + 1][k] / denom;
      }
      h[k][k] = denom;
      h[k + 1][k] = 0.0;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];

      result.relative_residual = std::abs(g[k + 1]) / bnorm;
      if (happy || result.relative_residual <= opt.rel_tolerance) {
        ++k;
        break;
      }
    }

    // Back-substitute y from the triangular Hessenberg system.
    auto& y = w.y;
    for (int i = k - 1; i >= 0; --i) {
      value_t s = g[i];
      for (int j = i + 1; j < k; ++j) s -= h[i][j] * y[j];
      y[i] = (h[i][i] != 0.0) ? s / h[i][i] : 0.0;
    }
    // x += M⁻¹ (V y).
    std::fill(tmp.begin(), tmp.begin() + n, 0.0);
    for (int i = 0; i < k; ++i) {
      axpy(y[i], std::span<const value_t>(v[i].data(), n),
           std::span<value_t>(tmp.data(), n));
    }
    if (precond != nullptr) {
      precond->apply(std::span<const value_t>(tmp.data(), n),
                     std::span<value_t>(z.data(), n));
      axpy(1.0, std::span<const value_t>(z.data(), n), x);
    } else {
      axpy(1.0, std::span<const value_t>(tmp.data(), n), x);
    }
    // On a happy breakdown the Givens residual |g[k+1]| is 0 by
    // construction even when H is singular (A singular on the closed
    // space), so it cannot be trusted as a convergence certificate. Loop
    // back: the top of the cycle recomputes the *true* residual and either
    // returns converged or keeps iterating from the updated x.
    if (!happy && result.relative_residual <= opt.rel_tolerance) {
      result.converged = true;
      return result;
    }
  }
  // Final true residual check.
  a.apply(x, tmp);
  for (index_t i = 0; i < n; ++i) tmp[i] = b[i] - tmp[i];
  result.relative_residual =
      norm2(std::span<const value_t>(tmp.data(), n)) / bnorm;
  result.converged = result.relative_residual <= opt.rel_tolerance;
  return result;
}

}  // namespace pdslin
