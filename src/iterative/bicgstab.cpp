#include "iterative/bicgstab.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/ops.hpp"
#include "util/error.hpp"

namespace pdslin {

void BicgstabWorkspace::ensure(index_t n) {
  const auto un = static_cast<std::size_t>(n);
  for (std::vector<value_t>* buf :
       {&r, &r0, &p, &v, &s, &t, &phat, &shat, &x_snapshot}) {
    if (buf->size() < un) {
      buf->resize(un);
      ++allocations;
    }
  }
}

BicgstabResult bicgstab(const LinearOperator& a, const LinearOperator* precond,
                        std::span<const value_t> b, std::span<value_t> x,
                        const KrylovOptions& opt, BicgstabWorkspace* ws) {
  PDSLIN_SPAN("bicgstab");
  static obs::Counter& iter_counter = obs::counter("bicgstab.iters");
  const index_t n = a.size();
  PDSLIN_CHECK(b.size() == static_cast<std::size_t>(n));
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(n));

  BicgstabResult result;
  const value_t bnorm = norm2(b);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    result.converged = true;
    return result;
  }

  BicgstabWorkspace local;
  BicgstabWorkspace& w = ws != nullptr ? *ws : local;
  w.ensure(n);
  const auto span_of = [n](std::vector<value_t>& buf) {
    return std::span<value_t>(buf.data(), static_cast<std::size_t>(n));
  };
  const auto cspan_of = [n](const std::vector<value_t>& buf) {
    return std::span<const value_t>(buf.data(), static_cast<std::size_t>(n));
  };
  auto r = span_of(w.r);
  auto r0 = span_of(w.r0);
  auto p = span_of(w.p);
  auto v = span_of(w.v);
  auto s = span_of(w.s);
  auto t = span_of(w.t);
  auto phat = span_of(w.phat);
  auto shat = span_of(w.shat);
  auto apply_precond = [&](std::span<const value_t> in, std::span<value_t> out) {
    if (precond != nullptr) {
      precond->apply(in, out);
    } else {
      std::copy(in.begin(), in.end(), out.begin());
    }
  };

  std::fill(p.begin(), p.end(), 0.0);
  std::fill(v.begin(), v.end(), 0.0);
  // r = b − A x; for x = 0, A·x is +0.0 and r is b bit for bit.
  if (is_zero(x)) {
    std::copy(b.begin(), b.end(), r.begin());
  } else {
    a.apply(x, r);
    for (index_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  }
  std::copy(r.begin(), r.end(), r0.begin());

  // Last finite iterate: restored on breakdown so x never carries NaN/Inf
  // out of the solve.
  std::copy(x.begin(), x.end(), w.x_snapshot.begin());
  value_t rho = 1.0, alpha = 1.0, omega = 1.0;
  result.relative_residual = norm2(cspan_of(w.r)) / bnorm;
  value_t last_finite_residual = result.relative_residual;
  const auto finite = [](value_t q) { return std::isfinite(q); };

  while (result.iterations < opt.max_iterations &&
         result.relative_residual > opt.rel_tolerance) {
    ++result.iterations;
    iter_counter.add();
    const value_t rho_new = dot(r0, r);
    if (!finite(rho_new) || rho_new == 0.0 || omega == 0.0) {
      result.breakdown = true;  // ρ ≈ 0 / ω ≈ 0: the recurrence is stuck
      break;
    }
    const value_t beta = (rho_new / rho) * (alpha / omega);
    if (!finite(beta)) {
      result.breakdown = true;
      break;
    }
    rho = rho_new;
    for (index_t i = 0; i < n; ++i) p[i] = r[i] + beta * (p[i] - omega * v[i]);

    apply_precond(p, phat);
    a.apply(phat, v);
    const value_t r0v = dot(r0, v);
    alpha = rho / r0v;
    if (!finite(alpha)) {  // r0v ≈ 0 (or overflow): α would poison x
      result.breakdown = true;
      break;
    }
    for (index_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    const value_t snorm = norm2(cspan_of(w.s));
    if (finite(snorm) && snorm / bnorm <= opt.rel_tolerance) {
      axpy(alpha, phat, x);
      std::copy(s.begin(), s.end(), r.begin());
      result.relative_residual = snorm / bnorm;
      break;
    }

    apply_precond(s, shat);
    a.apply(shat, t);
    const value_t tt = dot(t, t);
    const value_t ts = dot(t, s);
    if (!finite(tt) || !finite(ts) || tt == 0.0) {
      result.breakdown = true;  // ω would be 0 or NaN
      break;
    }
    omega = ts / tt;
    for (index_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
    }
    result.relative_residual = norm2(cspan_of(w.r)) / bnorm;
    if (!finite(result.relative_residual)) {
      result.breakdown = true;
      break;
    }
    std::copy(x.begin(), x.end(), w.x_snapshot.begin());
    last_finite_residual = result.relative_residual;
  }

  if (result.breakdown) {
    obs::counter("bicgstab.breakdowns").add();
    // Roll back to the last finite iterate; report its residual.
    std::copy(w.x_snapshot.begin(), w.x_snapshot.end(), x.begin());
    result.relative_residual = last_finite_residual;
  }

  // True residual check (BiCGSTAB's recurrence can drift).
  a.apply(x, t);
  for (index_t i = 0; i < n; ++i) t[i] = b[i] - t[i];
  const value_t true_rel = norm2(cspan_of(w.t)) / bnorm;
  if (finite(true_rel)) {
    result.relative_residual = true_rel;
  } else {
    result.relative_residual = last_finite_residual;
  }
  result.converged = result.relative_residual <= opt.rel_tolerance * 10.0;
  return result;
}

}  // namespace pdslin
