#include "check/artifact.hpp"

#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace pdslin::check {

namespace obsjson = pdslin::obs::json;

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
     << "    \"inner_threads\": " << spec.inner_threads << ",\n"
     << "    \"nrhs\": " << spec.nrhs << ",\n"
     << "    \"krylov\": \""
     << (spec.krylov == KrylovMethod::Bicgstab ? "bicgstab" : "gmres")
     << "\",\n"
     << "    \"exact_assembly\": " << (spec.exact_assembly ? "true" : "false")
     << ",\n"
     << "    \"serve\": " << (spec.serve ? "true" : "false") << ",\n"
     << "    \"partition_engine\": \"" << to_string(spec.partition_engine)
     << "\",\n"
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
  spec.n = static_cast<index_t>(s.at("n").number);
  spec.seed = static_cast<std::uint64_t>(s.at("seed").number);
  spec.density = s.at("density").number;
  const obsjson::Value& part = s.at("partitioning");
  PDSLIN_CHECK_MSG(part.is_string() && (part.str == "RHB" || part.str == "NGD"),
                   "partitioning must be RHB or NGD");
  spec.partitioning =
      part.str == "RHB" ? PartitionMethod::RHB : PartitionMethod::NGD;
  spec.num_subdomains = static_cast<index_t>(s.at("num_subdomains").number);
  spec.threads = static_cast<unsigned>(s.at("threads").number);
  spec.inner_threads = static_cast<unsigned>(s.at("inner_threads").number);
  spec.nrhs = static_cast<index_t>(s.at("nrhs").number);
  const obsjson::Value& kry = s.at("krylov");
  PDSLIN_CHECK_MSG(
      kry.is_string() && (kry.str == "gmres" || kry.str == "bicgstab"),
      "krylov must be gmres or bicgstab");
  spec.krylov =
      kry.str == "bicgstab" ? KrylovMethod::Bicgstab : KrylovMethod::Gmres;
  spec.exact_assembly = s.at("exact_assembly").boolean;
  spec.serve = s.at("serve").boolean;
  // Artifacts from older campaigns name the LU kernel they ran. The scalar
  // and panel kernels give the same factors, so either replays as recorded;
  // other names (the removed lu-fp32 lane) do not.
  if (const obsjson::Value* lk = s.find("lu_kernel")) {
    PDSLIN_CHECK_MSG(
        lk->is_string() && (lk->str == "lu-scalar" || lk->str == "lu-panel"),
        "unknown lu_kernel in artifact");
  }
  // Optional for corpus files written before the partition-engine axis
  // existed; those ran the (then-only) serial multilevel engine. The
  // removed pe-geometric and pe-budget0 lanes are unknown names.
  if (const obsjson::Value* pe = s.find("partition_engine")) {
    PDSLIN_CHECK_MSG(
        pe->is_string() &&
            partition_engine_from_string(pe->str, spec.partition_engine),
        "unknown partition_engine in artifact");
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

  PDSLIN_CHECK_MSG(spec.n >= 8 && spec.n <= 4096, "artifact n out of range");
  PDSLIN_CHECK_MSG(spec.num_subdomains >= 1 &&
                       (spec.num_subdomains &
                        (spec.num_subdomains - 1)) == 0,
                   "artifact num_subdomains must be a power of two");
  PDSLIN_CHECK_MSG(spec.nrhs >= 1 && spec.threads >= 1 &&
                       spec.inner_threads >= 1,
                   "artifact counts must be positive");
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
