#include "parallel/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace pdslin {

namespace {

// Parallel efficiency per doubling of cores within a subdomain.
constexpr double kIntraEfficiency = 0.78;
// Fraction of each phase that is serial.
constexpr double kSerialFraction = 0.04;
// Communication seconds per log₂ of the core count.
constexpr double kCommLatency = 0.002;

// Amdahl speedup with per-doubling efficiency decay: doubling cores
// multiplies the parallel part's throughput by 2·e.
double modeled_speedup(int cores) {
  if (cores <= 1) return 1.0;
  const double doublings = std::log2(static_cast<double>(cores));
  const double parallel_speedup = std::pow(2.0 * kIntraEfficiency, doublings);
  return 1.0 /
         (kSerialFraction + (1.0 - kSerialFraction) / parallel_speedup);
}

}  // namespace

double two_level_phase_time(const std::vector<double>& serial_work_per_domain,
                            int cores_per_domain) {
  double slowest = 0.0;
  for (double w : serial_work_per_domain) {
    slowest = std::max(slowest, w / modeled_speedup(cores_per_domain));
  }
  const double comm = kCommLatency * std::log2(std::max(2, cores_per_domain));
  return slowest + comm;
}

double global_phase_time(double serial_work, int total_cores) {
  const double comm = kCommLatency * std::log2(std::max(2, total_cores));
  return serial_work / modeled_speedup(total_cores) + comm;
}

}  // namespace pdslin
