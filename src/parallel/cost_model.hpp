// Two-level parallel cost model for the Fig. 1 reproduction.
//
// The paper's Fig. 1 runs PDSLin on a Cray XE6 with P cores over k = 8
// subdomains (P/k cores per subdomain via SuperLU_DIST, plus a parallel
// Schur factorization/solve). A few-core host cannot reach those core
// counts, so the intra-subdomain scaling is modeled, not measured
// (DESIGN.md §3): measured serial per-phase work feeds an Amdahl-style
// model with communication overhead calibrated to published SuperLU_DIST
// scaling behaviour.
//
// The model's constants (cost_model.cpp): parallel efficiency 0.78 per
// doubling of cores within a subdomain (SuperLU_DIST-style strong scaling:
// ~0.7–0.85 per doubling), a serial fraction of 0.04 of each phase
// (symbolic setup, pivoting sync), and 2 ms of communication per log₂ of
// the core count added to every phase.
//
// What stays real: all per-subdomain serial work is actually measured, so
// load imbalance — the paper's subject — is measured, not modeled.
#pragma once

#include <vector>

namespace pdslin {

/// Wall time for one phase whose per-subdomain serial work is given, when
/// each subdomain gets `cores_per_domain` cores: the slowest subdomain
/// dominates (the inter-domain load-balance effect the paper studies), and
/// each subdomain's work scales per the intra-domain model.
double two_level_phase_time(const std::vector<double>& serial_work_per_domain,
                            int cores_per_domain);

/// Wall time for a phase executed by all cores jointly (LU(S̃), Schur
/// triangular solves): serial work scaled across `total_cores`.
double global_phase_time(double serial_work, int total_cores);

}  // namespace pdslin
