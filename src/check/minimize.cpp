#include "check/minimize.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace pdslin::check {

namespace {

bool still_fails(const CaseSpec& spec, const std::string& primary,
                 const DifferentialOptions& diff, CheckReport& out) {
  const DifferentialResult r = run_differential(spec, diff);
  if (r.ok()) return false;
  if (!r.report.has(primary)) return false;  // failure morphed — reject
  out = r.report;
  return true;
}

/// The shrink ladder: each entry proposes a strictly simpler spec or
/// returns false when it no longer applies.
using Candidate = bool (*)(CaseSpec&);

bool halve_n(CaseSpec& s) {
  if (s.n <= 8) return false;
  s.n = std::max<index_t>(8, s.n / 2);
  return true;
}
bool shave_n(CaseSpec& s) {
  if (s.n <= 8) return false;
  s.n = std::max<index_t>(8, (s.n * 3) / 4);
  return true;
}
bool halve_subdomains(CaseSpec& s) {
  if (s.num_subdomains <= 2) return false;
  s.num_subdomains /= 2;
  return true;
}
bool single_rhs(CaseSpec& s) {
  if (s.nrhs <= 1) return false;
  s.nrhs = 1;
  return true;
}
bool no_serve(CaseSpec& s) {
  if (!s.serve) return false;
  s.serve = false;
  return true;
}
bool serial(CaseSpec& s) {
  if (s.threads <= 1) return false;
  s.threads = 1;
  return true;
}
bool gmres_only(CaseSpec& s) {
  if (s.krylov == KrylovMethod::Gmres) return false;
  s.krylov = KrylovMethod::Gmres;
  return true;
}
bool sparsify(CaseSpec& s) {
  if (s.density <= 0.02) return false;
  s.density = std::max(0.02, s.density / 2.0);
  return true;
}
bool ngd_partitioner(CaseSpec& s) {
  if (s.partitioning == PartitionMethod::NGD) return false;
  s.partitioning = PartitionMethod::NGD;
  return true;
}
/// Fall back to pattern-only partitioning: a failure that survives without
/// |a_ij| net weighting is not the value-weighting lane's fault.
bool pattern_only_partition(CaseSpec& s) {
  if (s.partition_values == partition::ValueMode::Off) return false;
  s.partition_values = partition::ValueMode::Off;
  return true;
}

constexpr Candidate kLadder[] = {
    halve_n,    halve_subdomains, single_rhs, no_serve,
    serial,     gmres_only,       sparsify,   shave_n,
    ngd_partitioner, pattern_only_partition,
};

}  // namespace

MinimizeResult minimize_case(const CaseSpec& failing,
                             const MinimizeOptions& opt) {
  const DifferentialResult first = run_differential(failing, opt.diff);
  PDSLIN_CHECK_MSG(!first.ok(), "minimize_case needs a failing spec");

  MinimizeResult res;
  res.spec = failing;
  res.report = first.report;
  res.primary = first.report.violations.front().checker;
  res.attempts = 1;

  bool progressed = true;
  while (progressed && res.attempts < opt.max_attempts) {
    progressed = false;
    for (const Candidate cand : kLadder) {
      if (res.attempts >= opt.max_attempts) break;
      CaseSpec trial = res.spec;
      if (!cand(trial)) continue;
      CheckReport rep;
      ++res.attempts;
      if (still_fails(trial, res.primary, opt.diff, rep)) {
        res.spec = trial;
        res.report = std::move(rep);
        ++res.shrinks;
        progressed = true;
      }
    }
  }
  return res;
}

}  // namespace pdslin::check
