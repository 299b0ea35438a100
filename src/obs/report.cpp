#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <type_traits>

#include "core/schur_solver.hpp"
#include "core/stats.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace pdslin::obs {

void RunReport::set_config(std::string key, std::string value) {
  for (auto& [k, v] : config) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  config.emplace_back(std::move(key), std::move(value));
}

void RunReport::set_phase(std::string name, double seconds) {
  for (auto& [k, v] : phases) {
    if (k == name) {
      v = seconds;
      return;
    }
  }
  phases.emplace_back(std::move(name), seconds);
}

void RunReport::set_stat(std::string name, double value) {
  for (auto& [k, v] : stats) {
    if (k == name) {
      v = value;
      return;
    }
  }
  stats.emplace_back(std::move(name), value);
}

const double* RunReport::find_stat(std::string_view name) const {
  for (const auto& [k, v] : stats) {
    if (k == name) return &v;
  }
  return nullptr;
}

const std::string* RunReport::find_config(std::string_view key) const {
  for (const auto& [k, v] : config) {
    if (k == key) return &v;
  }
  return nullptr;
}

void RunReport::add_solver(const SolverOptions& opt, const SolverStats& st) {
  for_each_option(opt, [this](const auto& field) {
    using T = std::remove_cvref_t<decltype(field.value)>;
    if constexpr (std::is_enum_v<T>) {
      set_config(field.key, to_string(field.value));
    } else if constexpr (std::is_same_v<T, bool>) {
      set_config(field.key, field.value ? "true" : "false");
    } else if constexpr (std::is_floating_point_v<T>) {
      set_config(field.key, json::number_to_string(field.value));
    } else {
      set_config(field.key, std::to_string(field.value));
    }
  });

  set_phase("partition", st.partition_seconds);
  set_phase("subdomains", st.subdomain_wall_seconds);
  set_phase("gather", st.gather_seconds);
  set_phase("lu_schur", st.lu_s_seconds);
  set_phase("solve", st.solve_seconds);

  set_stat("lu_d_max_seconds",
           st.lu_d_seconds.empty()
               ? 0.0
               : *std::max_element(st.lu_d_seconds.begin(), st.lu_d_seconds.end()));
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  set_stat("lu_d_seconds", sum(st.lu_d_seconds));
  set_stat("lu_d_order_seconds", sum(st.lu_d_order_seconds));
  set_stat("lu_s_analyze_seconds", st.lu_s_analyze_seconds);
  set_stat("comp_s_max_seconds",
           st.comp_s_seconds.empty()
               ? 0.0
               : *std::max_element(st.comp_s_seconds.begin(),
                                   st.comp_s_seconds.end()));
  set_stat("subdomain_cpu_seconds", st.subdomain_seconds_cpu());
  set_stat("comp_s_solve_g_symbolic_seconds", st.solve_g_symbolic_seconds);
  set_stat("comp_s_solve_g_numeric_seconds", st.solve_g_numeric_seconds);
  set_stat("comp_s_solve_w_symbolic_seconds", st.solve_w_symbolic_seconds);
  set_stat("comp_s_solve_w_numeric_seconds", st.solve_w_numeric_seconds);
  set_stat("kernel_path_avx2",
           st.kernel_path == panel::KernelPath::Avx2 ? 1.0 : 0.0);
  set_stat("solve_cpu_seconds", st.solve_cpu_seconds);
  set_stat("schur_dim", static_cast<double>(st.schur_dim));
  set_stat("schur_nnz", static_cast<double>(st.schur_nnz));
  set_stat("precond_nnz", static_cast<double>(st.precond_nnz));
  set_stat("separator_size", static_cast<double>(st.schur_dim));
  set_stat("iterations", st.iterations);
  set_stat("nrhs", st.nrhs);
  set_stat("relative_residual", st.relative_residual);
  set_stat("converged", st.converged ? 1.0 : 0.0);
  set_stat("operator_applies", static_cast<double>(st.operator_applies));
  set_stat("solve_applies", static_cast<double>(st.solve_applies));
  set_stat("solve_workspace_allocs",
           static_cast<double>(st.solve_workspace_allocs));
  set_stat("seconds_per_apply", st.seconds_per_apply());
  set_stat("iterations_per_second", st.iterations_per_second());

  set_stat("partition_multilevel_subtrees",
           static_cast<double>(st.partition_multilevel_subtrees));
  set_stat("partition_balance_ratio", st.partition_balance_ratio);
}

void RunReport::capture_metrics() {
  metrics = MetricsRegistry::instance().snapshot();
}

namespace {

void write_pairs_object(std::ostringstream& os,
                        const std::vector<std::pair<std::string, double>>& kv) {
  os << "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    os << (i ? "," : "") << "\"" << json::escape(kv[i].first)
       << "\":" << json::number_to_string(kv[i].second);
  }
  os << "}";
}

std::string render(const RunReport& r, bool pretty) {
  const char* nl = pretty ? "\n  " : "";
  std::ostringstream os;
  os << "{" << nl << "\"schema_version\":" << r.schema_version << "," << nl
     << "\"tool\":\"" << json::escape(r.tool) << "\"," << nl << "\"matrix\":\""
     << json::escape(r.matrix) << "\"," << nl << "\"n\":" << r.n << "," << nl
     << "\"nnz\":" << r.nnz << "," << nl << "\"config\":{";
  for (std::size_t i = 0; i < r.config.size(); ++i) {
    os << (i ? "," : "") << "\"" << json::escape(r.config[i].first) << "\":\""
       << json::escape(r.config[i].second) << "\"";
  }
  os << "}," << nl << "\"phases\":";
  write_pairs_object(os, r.phases);
  os << "," << nl << "\"stats\":";
  write_pairs_object(os, r.stats);
  os << "," << nl << "\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const MetricSample& s = r.metrics[i];
    os << (i ? "," : "") << "\"" << json::escape(s.name) << "\":";
    switch (s.kind) {
      case MetricSample::Kind::Counter:
        os << "{\"counter\":" << json::number_to_string(s.value) << "}";
        break;
      case MetricSample::Kind::Gauge:
        os << "{\"gauge\":" << json::number_to_string(s.value) << "}";
        break;
      case MetricSample::Kind::Histogram: {
        os << "{\"count\":" << s.count
           << ",\"sum\":" << json::number_to_string(s.value) << ",\"bounds\":[";
        for (std::size_t b = 0; b < s.bounds.size(); ++b) {
          os << (b ? "," : "") << json::number_to_string(s.bounds[b]);
        }
        os << "],\"buckets\":[";
        for (std::size_t b = 0; b < s.buckets.size(); ++b) {
          os << (b ? "," : "") << s.buckets[b];
        }
        os << "]}";
        break;
      }
    }
  }
  os << "}" << (pretty ? "\n}" : "}");
  return os.str();
}

std::vector<std::pair<std::string, double>> read_pairs(
    const json::Value& obj, const char* what) {
  PDSLIN_CHECK_MSG(obj.is_object(), std::string("report: ") + what +
                                        " must be an object");
  std::vector<std::pair<std::string, double>> out;
  out.reserve(obj.object.size());
  for (const auto& [k, v] : obj.object) {
    PDSLIN_CHECK_MSG(v.is_number(), std::string("report: ") + what +
                                        " values must be numbers");
    out.emplace_back(k, v.number);
  }
  return out;
}

}  // namespace

std::string RunReport::to_json() const { return render(*this, true); }

std::string RunReport::to_json_line() const { return render(*this, false); }

RunReport RunReport::from_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  PDSLIN_CHECK_MSG(doc.is_object(), "report: document must be an object");
  RunReport r;
  r.schema_version = static_cast<int>(doc.at("schema_version").number);
  PDSLIN_CHECK_MSG(r.schema_version == kRunReportSchemaVersion,
                   "report: unsupported schema version");
  r.tool = doc.at("tool").str;
  r.matrix = doc.at("matrix").str;
  r.n = static_cast<long long>(doc.at("n").number);
  r.nnz = static_cast<long long>(doc.at("nnz").number);
  const json::Value& cfg = doc.at("config");
  PDSLIN_CHECK_MSG(cfg.is_object(), "report: config must be an object");
  for (const auto& [k, v] : cfg.object) {
    PDSLIN_CHECK_MSG(v.is_string(), "report: config values must be strings");
    r.config.emplace_back(k, v.str);
  }
  r.phases = read_pairs(doc.at("phases"), "phases");
  r.stats = read_pairs(doc.at("stats"), "stats");
  const json::Value& met = doc.at("metrics");
  PDSLIN_CHECK_MSG(met.is_object(), "report: metrics must be an object");
  for (const auto& [name, v] : met.object) {
    PDSLIN_CHECK_MSG(v.is_object(), "report: each metric must be an object");
    MetricSample s;
    s.name = name;
    if (const json::Value* c = v.find("counter")) {
      s.kind = MetricSample::Kind::Counter;
      s.value = c->number;
    } else if (const json::Value* g = v.find("gauge")) {
      s.kind = MetricSample::Kind::Gauge;
      s.value = g->number;
    } else {
      s.kind = MetricSample::Kind::Histogram;
      s.count = static_cast<long long>(v.at("count").number);
      s.value = v.at("sum").number;
      for (const json::Value& b : v.at("bounds").array) s.bounds.push_back(b.number);
      for (const json::Value& b : v.at("buckets").array) {
        s.buckets.push_back(static_cast<long long>(b.number));
      }
    }
    r.metrics.push_back(std::move(s));
  }
  return r;
}

bool report_write_file(const RunReport& report, const std::string& path) {
  const std::string doc = report.to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_error("report: cannot open ", path, " for writing");
    return false;
  }
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fputc('\n', f);
  std::fclose(f);
  if (!ok) log_error("report: short write to ", path);
  return ok;
}

}  // namespace pdslin::obs
