#include "core/stats.hpp"

#include <algorithm>
#include <sstream>

#include "core/config.hpp"

namespace pdslin {

const char* to_string(PartitionMethod m) {
  switch (m) {
    case PartitionMethod::NGD: return "NGD";
    case PartitionMethod::RHB: return "RHB";
  }
  return "?";
}

const char* to_string(RhbConstraintMode m) {
  switch (m) {
    case RhbConstraintMode::SingleW1:  return "w1";
    case RhbConstraintMode::MultiW1W2: return "w1w2";
  }
  return "?";
}

const char* to_string(RhsOrdering o) {
  switch (o) {
    case RhsOrdering::Natural:    return "natural";
    case RhsOrdering::Postorder:  return "postorder";
    case RhsOrdering::Hypergraph: return "hypergraph";
  }
  return "?";
}

const char* to_string(KrylovMethod k) {
  switch (k) {
    case KrylovMethod::Gmres:    return "gmres";
    case KrylovMethod::Bicgstab: return "bicgstab";
  }
  return "?";
}

namespace {
double vec_max(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, x);
  return m;
}
double vec_sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}
}  // namespace

double SolverStats::parallel_time_one_level() const {
  return partition_seconds + vec_max(lu_d_seconds) + vec_max(comp_s_seconds) +
         gather_seconds + lu_s_seconds + solve_seconds;
}

double SolverStats::precond_seconds_serial() const {
  return vec_sum(lu_d_seconds) + vec_sum(comp_s_seconds) + gather_seconds +
         lu_s_seconds;
}

double SolverStats::subdomain_seconds_cpu() const {
  return vec_sum(lu_d_seconds) + vec_sum(comp_s_seconds);
}

double SolverStats::subdomain_seconds_modeled() const {
  return vec_max(lu_d_seconds) + vec_max(comp_s_seconds);
}

double SolverStats::seconds_per_apply() const {
  return solve_applies > 0 ? solve_seconds / static_cast<double>(solve_applies)
                           : 0.0;
}

double SolverStats::iterations_per_second() const {
  return solve_seconds > 0.0 ? static_cast<double>(iterations) / solve_seconds
                             : 0.0;
}

std::string SolverStats::summary() const {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "n_S=" << schur_dim << " nnz(S~)=" << schur_nnz
     << " | partition=" << partition_seconds << "s"
     << " LU(D)max=" << vec_max(lu_d_seconds) << "s"
     << " Comp(S)max=" << vec_max(comp_s_seconds) << "s"
     << " subdomains[wall=" << subdomain_wall_seconds << "s cpu="
     << subdomain_seconds_cpu() << "s]"
     << " LU(S~)=" << lu_s_seconds << "s"
     << " kernels=" << panel::to_string(kernel_path)
     << " solve=" << solve_seconds << "s";
  if (solve_cpu_seconds > 0.0) os << " (cpu=" << solve_cpu_seconds << "s)";
  if (nrhs > 1) os << " nrhs=" << nrhs;
  os << " | iters=" << iterations;
  if (solve_applies > 0) os << " applies=" << solve_applies;
  os << " relres=";
  os.precision(2);
  os << std::scientific << relative_residual
     << (converged ? "" : " (NOT CONVERGED)");
  return os.str();
}

}  // namespace pdslin
