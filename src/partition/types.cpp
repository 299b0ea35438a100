#include "partition/types.hpp"

#include <algorithm>
#include <cmath>

namespace pdslin::partition {

namespace {

constexpr struct {
  ValueMode m;
  const char* name;
} kValueModes[] = {
    {ValueMode::Off, "off"},
    {ValueMode::Abs, "abs"},
    {ValueMode::LogAbs, "logabs"},
};

}  // namespace

const char* to_string(ValueMode m) {
  for (const auto& entry : kValueModes) {
    if (entry.m == m) return entry.name;
  }
  return "?";
}

bool value_mode_from_string(std::string_view name, ValueMode& out) {
  for (const auto& entry : kValueModes) {
    if (name == entry.name) {
      out = entry.m;
      return true;
    }
  }
  return false;
}

int value_weight(double absval, double maxabs, ValueMode m) {
  if (m == ValueMode::Off) return 1;
  if (!(absval > 0.0) || !(maxabs > 0.0) || !std::isfinite(absval) ||
      !std::isfinite(maxabs)) {
    return 1;
  }
  if (absval >= maxabs) return kValueWeightMax;
  if (m == ValueMode::LogAbs) {
    // One weight step per power-of-two band below maxabs; ilogb is exact,
    // so the bucket is a pure function of the two magnitudes.
    const int bands = std::ilogb(maxabs) - std::ilogb(absval);
    return std::max(1, kValueWeightMax - bands);
  }
  // Abs: linear quantization of absval / maxabs onto 1..kValueWeightMax.
  const int w = 1 + static_cast<int>((absval * (kValueWeightMax - 1)) / maxabs);
  return std::clamp(w, 1, kValueWeightMax);
}

}  // namespace pdslin::partition
