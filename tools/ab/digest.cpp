// Same-bits digest: one "<object> <hash>" line for every set-up and solve
// object of the benchmark systems, so two builds of the library can be
// compared byte for byte by diffing their outputs.
//
//   digest [--threads N] [--smoke]
//
// Per lane (a system with its options) it hashes the partition (part,
// perm, domain_offset); every D_ℓ's colmap, LU row_perm, L and Uᵀ, and the
// pattern statistics of its G and W solves; S̃; LU(S̃) through colmap(),
// its CSC heads, its dense block and its row_perm; three LU(S̃) applies;
// and x, with per-column iterations and residuals, of solve_multi for
// three right-hand sides. The systems are the benchmark's (RHB soed, k 8,
// ε 0.05, drop_wg 1e-6, drop_s 1e-5, system seed 20130520) plus the
// natural and hypergraph RHS orderings and BiCGSTAB on two of them.
// --smoke runs the same lanes at small scales in a few seconds.
//
// The thread count is not printed: the output at any --threads must be the
// same. It includes only public library headers, so one source builds
// against an older checkout's headers and libpdslin.a too.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "../parse_number.hpp"
#include "core/preconditioner.hpp"
#include "core/schur_solver.hpp"
#include "gen/suite.hpp"

using namespace pdslin;

namespace {

/// FNV-1a over raw bytes: the values' bit patterns, not their printed form.
class Hash {
 public:
  template <typename T>
  Hash& add(const std::vector<T>& v) {
    const std::uint64_t size = v.size();
    bytes(&size, sizeof size);
    return bytes(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  Hash& add(const T& x) {
    return bytes(&x, sizeof x);
  }
  Hash& add(const CscMatrix& m) {
    return add(m.rows).add(m.cols).add(m.col_ptr).add(m.row_idx).add(m.values);
  }
  Hash& add(const CsrMatrix& m) {
    return add(m.rows).add(m.cols).add(m.row_ptr).add(m.col_idx).add(m.values);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  Hash& bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ c[i]) * 0x100000001b3ULL;
    }
    return *this;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void print(const std::string& lane, const std::string& object, const Hash& h) {
  std::printf("%s %s %016llx\n", lane.c_str(), object.c_str(),
              static_cast<unsigned long long>(h.value()));
}

/// Uniform values in [−1, 1) from splitmix64, the same on every build.
std::vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<value_t> v(n);
  std::uint64_t s = seed;
  for (value_t& x : v) {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    x = 2.0 * static_cast<double>(z >> 11) * 0x1.0p-53 - 1.0;
  }
  return v;
}

struct Lane {
  const char* matrix;
  double scale;
  double drop_s;
  RhsOrdering ordering;
  KrylovMethod krylov;
};

std::string lane_name(const Lane& l) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s@%g", l.matrix, l.scale);
  std::string name = buf;
  if (l.drop_s != 1e-5) {
    std::snprintf(buf, sizeof buf, "/drop_s=%g", l.drop_s);
    name += buf;
  }
  if (l.ordering != RhsOrdering::Postorder) {
    name += std::string("/") + to_string(l.ordering);
  }
  if (l.krylov != KrylovMethod::Gmres) name += "/bicgstab";
  return name;
}

void digest_lane(const Lane& lane, unsigned threads) {
  const std::string name = lane_name(lane);
  const GeneratedProblem p = make_suite_matrix(lane.matrix, lane.scale, 20130520);
  SolverOptions opt;
  opt.partitioning = PartitionMethod::RHB;
  opt.metric = CutMetric::Soed;
  opt.num_subdomains = 8;
  opt.partition_epsilon = 0.05;
  opt.assembly.drop_wg = 1e-6;
  opt.assembly.drop_s = lane.drop_s;
  opt.assembly.rhs_ordering = lane.ordering;
  opt.krylov.method = lane.krylov;
  opt.threads = threads;
  SchurSolver solver(p.a, opt);
  solver.setup(p.incidence.rows > 0 ? &p.incidence : nullptr);
  solver.factor();

  const DbbdPartition& part = solver.partition();
  print(name, "partition",
        Hash().add(part.part).add(part.perm).add(part.domain_offset));
  const auto& facts = solver.factorizations();
  for (std::size_t l = 0; l < facts.size(); ++l) {
    const SubdomainFactorization& f = facts[l];
    const std::string d = "D" + std::to_string(l) + ".";
    print(name, d + "colmap", Hash().add(f.colmap));
    print(name, d + "row_perm", Hash().add(f.lu.row_perm));
    print(name, d + "L", Hash().add(f.lu.lower));
    print(name, d + "Ut", Hash().add(f.lu.upper_t));
    Hash stats;
    for (const MultiRhsStats* s : {&f.g_stats, &f.w_stats}) {
      stats.add(s->pattern_nnz).add(s->padded_zeros).add(s->union_rows_total)
          .add(s->num_blocks);
    }
    print(name, d + "solve_patterns", stats);
  }
  print(name, "S~", Hash().add(solver.schur_tilde()));

  const SchurPreconditioner* pre = solver.preconditioner();
  if (pre != nullptr) {
    const BlockLuFactors& lu = pre->factors();
    print(name, "LU(S~).colmap", Hash().add(pre->colmap()));
    print(name, "LU(S~).heads", Hash().add(lu.n).add(lu.start)
                                    .add(lu.lower_head).add(lu.upper_t_head));
    print(name, "LU(S~).block", Hash().add(lu.block));
    print(name, "LU(S~).row_perm", Hash().add(lu.row_perm));
    std::vector<value_t> scratch;
    for (std::uint64_t k = 0; k < 3; ++k) {
      const std::vector<value_t> x =
          random_vector(static_cast<std::size_t>(lu.n), 0x5eed0000 + k);
      std::vector<value_t> y(x.size());
      pre->apply_with_scratch(x, y, scratch);
      print(name, "LU(S~).apply" + std::to_string(k), Hash().add(y));
    }
  }

  constexpr index_t kNrhs = 3;
  const std::vector<value_t> b = random_vector(
      static_cast<std::size_t>(p.a.rows) * kNrhs, 0xb0000000);
  std::vector<value_t> x(b.size(), 0.0);
  const std::vector<GmresResult> res = solver.solve_multi(b, x, kNrhs);
  Hash h;
  h.add(x);
  for (const GmresResult& r : res) {
    h.add(r.iterations).add(r.relative_residual).add(r.converged);
  }
  print(name, "x", h);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    unsigned threads = 1;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--threads" && i + 1 < argc) {
        threads = tools::parse_number<unsigned>(arg, argv[++i]);
        if (threads < 1 || threads > 64) {
          throw std::invalid_argument("--threads must be in [1, 64]");
        }
      } else if (arg == "--smoke") {
        smoke = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    // The benchmark systems, then the lanes no benchmark workload runs.
    const double s = smoke ? 0.25 : 1.0;
    const RhsOrdering post = RhsOrdering::Postorder;
    const KrylovMethod gmres = KrylovMethod::Gmres;
    std::vector<Lane> lanes = {
        {"tdr190k", 0.8 * s, 1e-5, post, gmres},
        {"tdr190k", 0.4 * s, 1e-3, post, gmres},
        {"tdr190k", 0.3 * s, 1e-5, post, gmres},
        {"G3_circuit", 2.0 * s, 1e-5, post, gmres},
        {"G3_circuit", 0.5 * s, 1e-5, post, gmres},
        {"matrix211", 0.25 * s, 1e-5, post, gmres},
    };
    for (const Lane base : {lanes[2], lanes[4]}) {
      for (const RhsOrdering o : {RhsOrdering::Natural, RhsOrdering::Hypergraph}) {
        lanes.push_back({base.matrix, base.scale, base.drop_s, o, gmres});
      }
      lanes.push_back(
          {base.matrix, base.scale, base.drop_s, post, KrylovMethod::Bicgstab});
    }
    for (const Lane& lane : lanes) digest_lane(lane, threads);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "digest: %s\n", e.what());
    return 2;
  }
}
