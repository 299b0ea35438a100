#include "check/generators.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "gen/cavity.hpp"
#include "gen/circuit.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdslin::check {

namespace {

constexpr struct {
  Family f;
  const char* name;
} kFamilies[] = {
    {Family::Grid, "grid"},
    {Family::RandomDiagDom, "random-diag-dom"},
    {Family::PatternSym, "pattern-sym"},
    {Family::SuiteTdr, "suite-tdr"},
    {Family::SuiteAsic, "suite-asic"},
    {Family::BlockDiag, "block-diag"},
    {Family::DenseRow, "dense-row"},
    {Family::Duplicates, "duplicates"},
    {Family::NearSingular, "near-singular"},
    {Family::SingularBlock, "singular-block"},
    {Family::Arrow, "arrow"},
    {Family::AnisoSpd, "aniso-spd"},
    {Family::ShiftedLaplacian, "shifted-laplacian"},
};

/// Pattern-symmetric random matrix assembled straight into COO.
CooMatrix random_pattern_sym(index_t n, double density, Rng& rng,
                             double diag_boost, bool value_symmetric) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < density) {
        const value_t v = rng.uniform(-1.0, 1.0);
        coo.add(i, j, v);
        coo.add(j, i, value_symmetric ? v : rng.uniform(-1.0, 1.0));
      }
    }
    coo.add(i, i, diag_boost + rng.uniform());
  }
  return coo;
}

CsrMatrix grid_laplacian(index_t n) {
  const auto nx = static_cast<index_t>(
      std::max(2.0, std::round(std::sqrt(static_cast<double>(n)))));
  const index_t ny = std::max<index_t>(2, (n + nx - 1) / nx);
  CooMatrix coo(nx * ny, nx * ny);
  auto id = [&](index_t x, index_t y) { return y * nx + x; };
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      const index_t v = id(x, y);
      coo.add(v, v, 4.2);
      if (x + 1 < nx) {
        coo.add(v, id(x + 1, y), -1.0);
        coo.add(id(x + 1, y), v, -1.0);
      }
      if (y + 1 < ny) {
        coo.add(v, id(x, y + 1), -1.0);
        coo.add(id(x, y + 1), v, -1.0);
      }
    }
  }
  return coo_to_csr(coo);
}

/// scale such that the src/gen suite generators land near `n` unknowns.
double suite_scale_for(index_t n, double n_at_unit_scale) {
  // The generators size their grids ∝ scale in each dimension, so unknowns
  // grow roughly linearly in `scale` for the ranges used here; clamp hard.
  return std::clamp(static_cast<double>(n) / n_at_unit_scale, 0.002, 0.2);
}

}  // namespace

const char* to_string(Family f) {
  for (const auto& e : kFamilies) {
    if (e.f == f) return e.name;
  }
  return "?";
}

bool family_from_string(std::string_view name, Family& out) {
  for (const auto& e : kFamilies) {
    if (name == e.name) {
      out = e.f;
      return true;
    }
  }
  return false;
}

std::string CaseSpec::to_string() const {
  std::ostringstream os;
  os << check::to_string(family) << "/n" << n << "/seed" << seed << "/"
     << pdslin::to_string(partitioning) << "/k" << num_subdomains << "/t"
     << threads << "/nrhs" << nrhs << "/"
     << (krylov == KrylovMethod::Gmres ? "gmres" : "bicgstab") << "/"
     << (exact_assembly ? "exact" : "dropped")
     << (partition_values != partition::ValueMode::Off
             ? std::string("/pv-") + partition::to_string(partition_values)
             : "")
     << (serve ? "/serve" : "");
  return os.str();
}

GeneratedProblem build_case(const CaseSpec& spec) {
  PDSLIN_CHECK_MSG(spec.n >= 8, "fuzz cases start at n = 8");
  Rng rng(spec.seed * 0x9E3779B97F4A7C15ULL + 12345);
  GeneratedProblem p;
  p.name = to_string(spec.family);
  p.source = "check";
  const index_t n = spec.n;
  const double density =
      std::clamp(spec.density, 2.0 / std::max<index_t>(n, 2), 1.0);

  switch (spec.family) {
    case Family::Grid:
      p.a = grid_laplacian(n);
      p.positive_definite = true;
      break;
    case Family::RandomDiagDom:
      p.a = coo_to_csr(random_pattern_sym(n, density, rng, 4.0, false));
      p.value_symmetric = false;
      break;
    case Family::PatternSym:
      p.a = coo_to_csr(random_pattern_sym(n, density, rng, 2.5, false));
      p.value_symmetric = false;
      break;
    case Family::SuiteTdr:
      return generate_tdr(suite_scale_for(n, 14000.0), spec.seed, "fuzz-tdr");
    case Family::SuiteAsic:
      return generate_asic(suite_scale_for(n, 40000.0), spec.seed);
    case Family::BlockDiag: {
      // `num_subdomains` disconnected diag-dominant blocks: any sane
      // partitioner finds an empty (or near-empty) separator.
      const index_t blocks = std::max<index_t>(2, spec.num_subdomains);
      const index_t bs = std::max<index_t>(4, n / blocks);
      CooMatrix coo(bs * blocks, bs * blocks);
      for (index_t blk = 0; blk < blocks; ++blk) {
        const index_t off = blk * bs;
        for (index_t i = 0; i < bs; ++i) {
          coo.add(off + i, off + i, 4.0 + rng.uniform());
          for (index_t j = i + 1; j < bs; ++j) {
            if (rng.uniform() < density) {
              coo.add(off + i, off + j, rng.uniform(-1.0, 1.0));
              coo.add(off + j, off + i, rng.uniform(-1.0, 1.0));
            }
          }
        }
      }
      p.a = coo_to_csr(coo);
      p.value_symmetric = false;
      break;
    }
    case Family::DenseRow: {
      CooMatrix coo = random_pattern_sym(n, density, rng, 6.0, false);
      // One fully dense row/column pair with small couplings: a quasi-dense
      // power net (the ASIC_680ks stress of paper §V-B-c).
      const index_t r = static_cast<index_t>(rng.bounded(n));
      for (index_t j = 0; j < n; ++j) {
        if (j == r) continue;
        coo.add(r, j, 0.01 * rng.uniform(-1.0, 1.0));
        coo.add(j, r, 0.01 * rng.uniform(-1.0, 1.0));
      }
      p.a = coo_to_csr(coo);
      p.value_symmetric = false;
      break;
    }
    case Family::Duplicates: {
      // Every logical entry is emitted as 2–3 COO duplicates that must sum
      // to the intended value; exercises the conversion/summing path that
      // FEM assembly relies on.
      CooMatrix base = random_pattern_sym(n, density, rng, 4.0, false);
      CooMatrix coo(n, n);
      const auto& ri = base.row_indices();
      const auto& ci = base.col_indices();
      const auto& vv = base.values();
      for (std::size_t e = 0; e < base.nnz(); ++e) {
        const int pieces = 2 + static_cast<int>(rng.bounded(2));
        value_t rest = vv[e];
        for (int q = 1; q < pieces; ++q) {
          const value_t part = rest * rng.uniform(0.2, 0.8);
          coo.add(ri[e], ci[e], part);
          rest -= part;
        }
        coo.add(ri[e], ci[e], rest);
      }
      p.a = coo_to_csr(coo);
      p.value_symmetric = false;
      break;
    }
    case Family::NearSingular: {
      CsrMatrix a = coo_to_csr(random_pattern_sym(n, density, rng, 3.0, false));
      // Make row r1 ≈ row r0: copy r0's values into r1's slots scaled to
      // near-dependence. Pattern is untouched, so the partitioners see the
      // same structure; conditioning collapses to ~1e10.
      const index_t r0 = 0;
      const index_t r1 = n / 2;
      for (index_t q = a.row_ptr[r1]; q < a.row_ptr[r1 + 1]; ++q) {
        const index_t j = a.col_idx[q];
        value_t v0 = 0.0;
        for (index_t q0 = a.row_ptr[r0]; q0 < a.row_ptr[r0 + 1]; ++q0) {
          if (a.col_idx[q0] == j) v0 = a.values[q0];
        }
        a.values[q] = v0 + 1e-10 * rng.uniform(-1.0, 1.0);
      }
      // Keep a handle on the diagonal so the rows are dependent-ish but the
      // matrix is not exactly singular.
      p.a = std::move(a);
      p.value_symmetric = false;
      break;
    }
    case Family::SingularBlock: {
      CsrMatrix a = coo_to_csr(random_pattern_sym(n, density, rng, 3.0, false));
      // Zero out one row except an off-diagonal duplicate structure: row r1
      // becomes an exact copy of the overlapping part of row r0 and zero
      // elsewhere → the matrix is exactly singular whenever the patterns
      // nest, and numerically singular otherwise.
      const index_t r0 = 0;
      const index_t r1 = n / 2;
      for (index_t q = a.row_ptr[r1]; q < a.row_ptr[r1 + 1]; ++q) {
        const index_t j = a.col_idx[q];
        value_t v0 = 0.0;
        for (index_t q0 = a.row_ptr[r0]; q0 < a.row_ptr[r0 + 1]; ++q0) {
          if (a.col_idx[q0] == j) v0 = a.values[q0];
        }
        a.values[q] = v0;
      }
      p.a = std::move(a);
      p.value_symmetric = false;
      break;
    }
    case Family::Arrow: {
      CooMatrix coo(n, n);
      for (index_t i = 0; i < n; ++i) {
        coo.add(i, i, 5.0 + rng.uniform());
        if (i + 1 < n) {
          coo.add(i, i + 1, rng.uniform(-1.0, 1.0));
          coo.add(i + 1, i, rng.uniform(-1.0, 1.0));
        }
        if (i < n - 1) {
          coo.add(n - 1, i, 0.1 * rng.uniform(-1.0, 1.0));
          coo.add(i, n - 1, 0.1 * rng.uniform(-1.0, 1.0));
        }
      }
      p.a = coo_to_csr(coo);
      p.value_symmetric = false;
      break;
    }
    case Family::AnisoSpd: {
      // 5-point FD of −div(κ(x,y)∇u) with anisotropy and piecewise-constant
      // coefficient jumps of ~1e3 across random tiles: the classic hard SPD
      // preconditioning target, and the family where value-weighted
      // partitioning pays (strong κ couplings stay interior). SPD by
      // construction — symmetric, diagonally dominant with a positive shift.
      const auto nx = static_cast<index_t>(
          std::max(2.0, std::round(std::sqrt(static_cast<double>(n)))));
      const index_t ny = std::max<index_t>(2, (n + nx - 1) / nx);
      // Per-cell coefficient: 4×4 tiles flip between 1 and ~1e3; the x/y
      // anisotropy skews the two edge directions by another 10×.
      const index_t tiles_x = std::max<index_t>(1, nx / 4);
      const index_t tiles_y = std::max<index_t>(1, ny / 4);
      std::vector<double> kappa(
          static_cast<std::size_t>(tiles_x) * tiles_y);
      for (double& k : kappa) k = rng.uniform() < 0.5 ? 1.0 : 1e3;
      const double ax = 1.0, ay = 0.1;
      auto coef = [&](index_t x, index_t y) {
        const index_t tx = std::min(tiles_x - 1, x / 4);
        const index_t ty = std::min(tiles_y - 1, y / 4);
        return kappa[static_cast<std::size_t>(ty) * tiles_x + tx];
      };
      CooMatrix coo(nx * ny, nx * ny);
      auto id = [&](index_t x, index_t y) { return y * nx + x; };
      std::vector<double> diag(static_cast<std::size_t>(nx) * ny, 0.0);
      auto edge = [&](index_t u, index_t v, double w) {
        coo.add(u, v, -w);
        coo.add(v, u, -w);
        diag[static_cast<std::size_t>(u)] += w;
        diag[static_cast<std::size_t>(v)] += w;
      };
      for (index_t y = 0; y < ny; ++y) {
        for (index_t x = 0; x < nx; ++x) {
          // Harmonic mean of the two cell coefficients — the standard FD
          // treatment of a jump across the edge.
          if (x + 1 < nx) {
            const double k0 = coef(x, y), k1 = coef(x + 1, y);
            edge(id(x, y), id(x + 1, y), ax * 2.0 * k0 * k1 / (k0 + k1));
          }
          if (y + 1 < ny) {
            const double k0 = coef(x, y), k1 = coef(x, y + 1);
            edge(id(x, y), id(x, y + 1), ay * 2.0 * k0 * k1 / (k0 + k1));
          }
        }
      }
      for (index_t v = 0; v < nx * ny; ++v) {
        coo.add(v, v, diag[static_cast<std::size_t>(v)] + 0.05);
      }
      p.a = coo_to_csr(coo);
      p.positive_definite = true;
      p.value_symmetric = true;
      break;
    }
    case Family::ShiftedLaplacian: {
      // Grid Laplacian minus a shift inside its spectrum (0, 8): symmetric
      // *indefinite* — the Helmholtz-like regime where both signs of
      // eigenvalue stress the LU(S̃) preconditioner and the Krylov solves.
      // The random fractional shift keeps the matrix safely away from exact
      // eigenvalues of the finite grid.
      const auto nx = static_cast<index_t>(
          std::max(2.0, std::round(std::sqrt(static_cast<double>(n)))));
      const index_t ny = std::max<index_t>(2, (n + nx - 1) / nx);
      const double shift = 1.9 + 0.17 * rng.uniform();
      CooMatrix coo(nx * ny, nx * ny);
      auto id = [&](index_t x, index_t y) { return y * nx + x; };
      for (index_t y = 0; y < ny; ++y) {
        for (index_t x = 0; x < nx; ++x) {
          const index_t v = id(x, y);
          coo.add(v, v, 4.0 - shift);
          if (x + 1 < nx) {
            coo.add(v, id(x + 1, y), -1.0);
            coo.add(id(x + 1, y), v, -1.0);
          }
          if (y + 1 < ny) {
            coo.add(v, id(x, y + 1), -1.0);
            coo.add(id(x, y + 1), v, -1.0);
          }
        }
      }
      p.a = coo_to_csr(coo);
      p.value_symmetric = true;
      break;
    }
  }
  p.a.validate();
  PDSLIN_CHECK_MSG(p.a.rows == p.a.cols, "fuzz case must be square");
  return p;
}

CaseSpec sample_case(std::uint64_t base_seed, int i) {
  CaseSpec spec;
  spec.seed = base_seed + static_cast<std::uint64_t>(i) * 0x100000001B3ULL;
  Rng rng(spec.seed);

  // Problem axes: random.
  static constexpr Family kPool[] = {
      Family::Grid,          Family::RandomDiagDom,    Family::PatternSym,
      Family::SuiteTdr,      Family::SuiteAsic,        Family::BlockDiag,
      Family::DenseRow,      Family::Duplicates,       Family::NearSingular,
      Family::SingularBlock, Family::Arrow,            Family::AnisoSpd,
      Family::ShiftedLaplacian,
  };
  spec.family = kPool[rng.bounded(std::size(kPool))];
  spec.n = 24 + static_cast<index_t>(rng.bounded(170));  // 24 … 193
  spec.density = 0.03 + 0.12 * rng.uniform();
  spec.num_subdomains = index_t{1} << (1 + rng.bounded(3));  // 2, 4, 8

  // Config axes: cycle the full matrix so coverage is guaranteed, not
  // merely probable. Bit layout of i: partitioner, threads, nrhs, serve,
  // krylov, exact/dropped (period 64).
  const unsigned c = static_cast<unsigned>(i);
  spec.partitioning =
      (c & 1u) ? PartitionMethod::RHB : PartitionMethod::NGD;
  spec.threads = (c & 2u) ? 3 : 1;
  spec.nrhs = (c & 4u) ? 3 : 1;
  spec.serve = (c & 8u) != 0;
  spec.krylov = (c & 16u) ? KrylovMethod::Bicgstab : KrylovMethod::Gmres;
  spec.exact_assembly = (c & 32u) == 0;
  // One case in 7 (coprime with 64) runs at 4 threads, so the partition
  // recursion spawns its subtrees.
  if (c % 7u == 4u) spec.threads = 4;
  // Value mode cycles mod 11 (coprime with 64 and 7): pattern-only keeps
  // the majority share; logabs is sampled 2-in-11 and abs 1-in-11, so every
  // (thread count, value-mode) pair is hit over a few hundred seeds.
  switch (c % 11u) {
    case 3u:
    case 8u:
      spec.partition_values = partition::ValueMode::LogAbs;
      break;
    case 6u:
      spec.partition_values = partition::ValueMode::Abs;
      break;
    default:
      break;
  }
  return spec;
}

SolverOptions solver_options_for(const CaseSpec& spec) {
  SolverOptions opt;
  opt.partitioning = spec.partitioning;
  opt.num_subdomains = spec.num_subdomains;
  opt.threads = spec.threads;
  opt.krylov.method = spec.krylov;
  opt.seed = spec.seed;
  opt.partition_values = spec.partition_values;
  if (spec.exact_assembly) {
    opt.assembly.drop_wg = 0.0;
    opt.assembly.drop_s = 0.0;
  }
  opt.krylov.max_iterations = 2000;
  return opt;
}

}  // namespace pdslin::check
