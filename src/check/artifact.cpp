#include "check/artifact.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace pdslin::check {

namespace obsjson = pdslin::obs::json;

namespace {

// An integer field of the spec: a finite, integral JSON number in [lo, hi].
// Every integer is read through here, since casting a double that is out
// of an integer type's range is undefined behaviour.
std::uint64_t integer_field(const obsjson::Value& spec, std::string_view key,
                            std::uint64_t lo, std::uint64_t hi) {
  const obsjson::Value& v = spec.at(key);
  PDSLIN_CHECK_MSG(v.is_number() && std::isfinite(v.number) &&
                       v.number == std::floor(v.number) &&
                       v.number >= static_cast<double>(lo) &&
                       v.number <= static_cast<double>(hi),
                   "artifact " + std::string(key) + " must be an integer in [" +
                       std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<std::uint64_t>(v.number);
}

// A boolean field of the spec: a JSON true or false, not a number or string.
bool boolean_field(const obsjson::Value& spec, std::string_view key) {
  const obsjson::Value& v = spec.at(key);
  PDSLIN_CHECK_MSG(v.type == obsjson::Value::Type::Bool,
                   "artifact " + std::string(key) + " must be true or false");
  return v.boolean;
}

// Largest seed a JSON number carries exactly: 2^53 − 1.
constexpr std::uint64_t kMaxSeed = (std::uint64_t{1} << 53) - 1;

}  // namespace

std::string artifact_to_json(const CaseSpec& spec, const CheckReport* report) {
  std::ostringstream os;
  os << "{\n"
     << "  \"artifact\": \"pdslin-fuzz-case\",\n"
     << "  \"version\": 1,\n"
     << "  \"spec\": {\n"
     << "    \"family\": \"" << to_string(spec.family) << "\",\n"
     << "    \"n\": " << spec.n << ",\n"
     << "    \"seed\": " << spec.seed << ",\n"
     << "    \"density\": " << obsjson::number_to_string(spec.density) << ",\n"
     << "    \"partitioning\": \""
     << (spec.partitioning == PartitionMethod::RHB ? "RHB" : "NGD") << "\",\n"
     << "    \"num_subdomains\": " << spec.num_subdomains << ",\n"
     << "    \"threads\": " << spec.threads << ",\n"
     << "    \"nrhs\": " << spec.nrhs << ",\n"
     << "    \"krylov\": \""
     << (spec.krylov == KrylovMethod::Bicgstab ? "bicgstab" : "gmres")
     << "\",\n"
     << "    \"exact_assembly\": " << (spec.exact_assembly ? "true" : "false")
     << ",\n"
     << "    \"serve\": " << (spec.serve ? "true" : "false") << ",\n"
     << "    \"partition_values\": \""
     << partition::to_string(spec.partition_values) << "\"\n"
     << "  }";
  if (report != nullptr && !report->ok()) {
    os << ",\n  \"violations\": [\n";
    for (std::size_t i = 0; i < report->violations.size(); ++i) {
      const Violation& v = report->violations[i];
      os << "    {\"checker\": \"" << obsjson::escape(v.checker)
         << "\", \"detail\": \"" << obsjson::escape(v.detail)
         << "\", \"magnitude\": " << obsjson::number_to_string(v.magnitude)
         << "}" << (i + 1 < report->violations.size() ? "," : "") << "\n";
    }
    os << "  ]";
  }
  os << "\n}\n";
  return os.str();
}

CaseSpec artifact_from_json(std::string_view text) {
  const obsjson::Value doc = obsjson::parse(text);
  PDSLIN_CHECK_MSG(doc.is_object(), "artifact must be a JSON object");
  const obsjson::Value& kind = doc.at("artifact");
  PDSLIN_CHECK_MSG(kind.is_string() && kind.str == "pdslin-fuzz-case",
                   "not a pdslin fuzz-case artifact");
  const obsjson::Value& version = doc.at("version");
  PDSLIN_CHECK_MSG(version.is_number() && version.number == 1.0,
                   "unsupported artifact version");
  const obsjson::Value& s = doc.at("spec");
  PDSLIN_CHECK_MSG(s.is_object(), "artifact spec must be an object");

  CaseSpec spec;
  const obsjson::Value& fam = s.at("family");
  PDSLIN_CHECK_MSG(fam.is_string() && family_from_string(fam.str, spec.family),
                   "unknown fuzz family in artifact");
  spec.n = static_cast<index_t>(integer_field(s, "n", 8, 4096));
  spec.seed = integer_field(s, "seed", 0, kMaxSeed);
  const obsjson::Value& density = s.at("density");
  PDSLIN_CHECK_MSG(density.is_number() && std::isfinite(density.number) &&
                       density.number > 0.0 && density.number <= 1.0,
                   "artifact density must be a number in (0, 1]");
  spec.density = density.number;
  const obsjson::Value& part = s.at("partitioning");
  PDSLIN_CHECK_MSG(part.is_string() && (part.str == "RHB" || part.str == "NGD"),
                   "partitioning must be RHB or NGD");
  spec.partitioning =
      part.str == "RHB" ? PartitionMethod::RHB : PartitionMethod::NGD;
  spec.num_subdomains =
      static_cast<index_t>(integer_field(s, "num_subdomains", 1, 64));
  PDSLIN_CHECK_MSG((spec.num_subdomains & (spec.num_subdomains - 1)) == 0,
                   "artifact num_subdomains must be a power of two");
  spec.threads = static_cast<unsigned>(integer_field(s, "threads", 1, 64));
  // Artifacts from older campaigns carry the removed per-subdomain worker
  // count; the work inside a subdomain is serial now, and its bits never
  // depended on the count.
  if (s.find("inner_threads") != nullptr) {
    (void)integer_field(s, "inner_threads", 1, 64);
  }
  spec.nrhs = static_cast<index_t>(integer_field(s, "nrhs", 1, 64));
  const obsjson::Value& kry = s.at("krylov");
  PDSLIN_CHECK_MSG(
      kry.is_string() && (kry.str == "gmres" || kry.str == "bicgstab"),
      "krylov must be gmres or bicgstab");
  spec.krylov =
      kry.str == "bicgstab" ? KrylovMethod::Bicgstab : KrylovMethod::Gmres;
  spec.exact_assembly = boolean_field(s, "exact_assembly");
  spec.serve = boolean_field(s, "serve");
  // Artifacts from older campaigns name the LU kernel they ran. The scalar
  // and panel kernels give the same factors, so either replays as recorded;
  // other names (the removed lu-fp32 lane) do not.
  if (const obsjson::Value* lk = s.find("lu_kernel")) {
    PDSLIN_CHECK_MSG(
        lk->is_string() && (lk->str == "lu-scalar" || lk->str == "lu-panel"),
        "unknown lu_kernel in artifact");
  }
  // Artifacts from older campaigns name the partition-engine lane they ran.
  // pe-multilevel ran as recorded; pe-parallel ran the same engine at no
  // fewer than 4 threads. The removed pe-geometric and pe-budget0 lanes are
  // unknown names.
  if (const obsjson::Value* pe = s.find("partition_engine")) {
    PDSLIN_CHECK_MSG(pe->is_string() && (pe->str == "pe-multilevel" ||
                                         pe->str == "pe-parallel"),
                     "unknown partition_engine in artifact");
    if (pe->str == "pe-parallel") spec.threads = std::max(spec.threads, 4u);
  }
  // Optional for corpus files written before the value-mode axis existed;
  // those ran pattern-only partitioning.
  if (const obsjson::Value* pv = s.find("partition_values")) {
    PDSLIN_CHECK_MSG(
        pv->is_string() &&
            partition::value_mode_from_string(pv->str, spec.partition_values),
        "unknown partition_values in artifact");
  }
  // Artifacts from older campaigns carry adaptive_sigma; only false (the
  // static drop tolerance every case now runs) replays as recorded.
  if (const obsjson::Value* as = s.find("adaptive_sigma")) {
    PDSLIN_CHECK_MSG(as->type == obsjson::Value::Type::Bool && !as->boolean,
                     "adaptive_sigma must be false: the adaptive-sigma lane "
                     "was removed");
  }
  return spec;
}

void write_artifact(const std::string& path, const CaseSpec& spec,
                    const CheckReport* report) {
  std::ofstream out(path);
  PDSLIN_CHECK_MSG(out.good(), "cannot open artifact file for writing: " + path);
  out << artifact_to_json(spec, report);
  out.close();
  PDSLIN_CHECK_MSG(out.good(), "failed writing artifact file: " + path);
}

CaseSpec load_artifact(const std::string& path) {
  std::ifstream in(path);
  PDSLIN_CHECK_MSG(in.good(), "cannot open artifact file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return artifact_from_json(buf.str());
}

}  // namespace pdslin::check
