// pdslin_fuzz — deterministic seeded differential fuzzer for the whole
// pipeline.
//
// Samples problems from the src/gen families plus adversarial generators
// (near-singular rows, empty separators, dense rows, duplicate entries),
// runs the full hybrid pipeline across the config matrix (graph vs.
// hypergraph partitioner, threads ∈ {1, k}, nrhs ∈ {1, m}, direct vs. served
// cold/cached, GMRES vs. BiCGSTAB, exact vs. dropped assembly, LU kernel
// scalar vs. supernodal panel (one case in three on scalar)) and diffs every
// stage against the dense oracle; the parallel lanes additionally rerun
// fully serial and the lu-panel lanes rerun on the scalar kernel, and each
// must match bitwise.
// On failure the case is shrunk to a minimal reproducer and written as a
// replayable JSON seed artifact.
//
// Usage:
//   pdslin_fuzz --seeds 500                 # campaign; exit 1 on any failure
//   pdslin_fuzz --seeds 50 --max-n 96       # CTest smoke configuration
//   pdslin_fuzz --minimize --corpus-dir d   # shrink failures + write artifacts
//   pdslin_fuzz --replay tests/corpus/x.json…   # re-run committed artifacts
//   pdslin_fuzz --inject-bug schur-gather-off-by-one --seeds 50 --minimize
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "check/artifact.hpp"
#include "check/differential.hpp"
#include "check/fault.hpp"
#include "check/minimize.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace {

using namespace pdslin;
using namespace pdslin::check;

struct Args {
  int seeds = 100;
  std::uint64_t seed_base = 20260806;
  bool minimize = false;
  std::string corpus_dir;
  index_t max_n = 0;  // 0 = no cap
  int stop_after = 0;  // 0 = run every seed regardless of failures
  bool quiet = false;
  Fault inject = Fault::None;
  std::vector<std::string> replay;
};

void usage() {
  std::cout <<
      "pdslin_fuzz [options]\n"
      "  --seeds N            cases to run (default 100)\n"
      "  --seed-base S        base seed of the campaign (default 20260806)\n"
      "  --minimize           shrink failing cases to minimal reproducers\n"
      "  --corpus-dir DIR     write minimized artifacts into DIR\n"
      "  --max-n N            cap the sampled problem size\n"
      "  --stop-after K       stop after K failures (default: keep going)\n"
      "  --inject-bug NAME    arm a planted fault (schur-gather-off-by-one,\n"
      "                       schur-drop-last-entry) — the gate must catch it\n"
      "  --replay FILE…       replay artifact files instead of sampling\n"
      "  --quiet              only print failures and the summary line\n";
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << what << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      const char* v = next("--seeds");
      if (v == nullptr) return false;
      a.seeds = std::stoi(v);
    } else if (arg == "--seed-base") {
      const char* v = next("--seed-base");
      if (v == nullptr) return false;
      a.seed_base = std::stoull(v);
    } else if (arg == "--minimize") {
      a.minimize = true;
    } else if (arg == "--corpus-dir") {
      const char* v = next("--corpus-dir");
      if (v == nullptr) return false;
      a.corpus_dir = v;
    } else if (arg == "--max-n") {
      const char* v = next("--max-n");
      if (v == nullptr) return false;
      a.max_n = std::stoi(v);
    } else if (arg == "--stop-after") {
      const char* v = next("--stop-after");
      if (v == nullptr) return false;
      a.stop_after = std::stoi(v);
    } else if (arg == "--inject-bug") {
      const char* v = next("--inject-bug");
      if (v == nullptr) return false;
      if (std::strcmp(v, "schur-gather-off-by-one") == 0) {
        a.inject = Fault::SchurGatherOffByOne;
      } else if (std::strcmp(v, "schur-drop-last-entry") == 0) {
        a.inject = Fault::SchurDropLastEntry;
      } else {
        std::cerr << "unknown fault: " << v << "\n";
        return false;
      }
    } else if (arg == "--replay") {
      while (i + 1 < argc && argv[i + 1][0] != '-') a.replay.push_back(argv[++i]);
      if (a.replay.empty()) {
        std::cerr << "--replay needs at least one file\n";
        return false;
      }
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      usage();
      return false;
    }
  }
  return true;
}

struct Campaign {
  int run = 0;
  int failures = 0;
  int skipped_singular = 0;  // oracle-singular / tolerated throws
  int minimized = 0;
  index_t largest_min_n = 0;
};

/// Run one spec; on failure optionally minimize + write an artifact.
void run_one(const Args& args, const CaseSpec& spec, Campaign& c) {
  ++c.run;
  const DifferentialResult r = run_differential(spec);
  if (r.solver_threw && r.ok()) ++c.skipped_singular;
  if (r.ok()) {
    if (!args.quiet) {
      std::cout << "ok    " << spec.to_string() << " (n=" << r.n << ")\n";
    }
    return;
  }
  ++c.failures;
  std::cout << "FAIL  " << spec.to_string() << "\n" << r.report.summary()
            << "\n";
  CaseSpec final_spec = spec;
  const CheckReport* final_report = &r.report;
  MinimizeResult min;
  if (args.minimize) {
    min = minimize_case(spec);
    ++c.minimized;
    final_spec = min.spec;
    final_report = &min.report;
    const DifferentialResult verify = run_differential(final_spec);
    std::cout << "  minimized to " << final_spec.to_string() << " (n="
              << verify.n << ", " << min.shrinks << " shrinks, "
              << min.attempts << " runs)\n";
    c.largest_min_n = std::max(c.largest_min_n, verify.n);
  }
  if (!args.corpus_dir.empty()) {
    const std::string path = args.corpus_dir + "/fuzz-" +
                             std::to_string(c.failures) + "-" +
                             to_string(final_spec.family) + "-n" +
                             std::to_string(final_spec.n) + "-seed" +
                             std::to_string(final_spec.seed) + ".json";
    write_artifact(path, final_spec, final_report);
    std::cout << "  artifact: " << path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (args.inject != Fault::None) inject_fault(args.inject);

  WallTimer timer;
  Campaign c;
  try {
    if (!args.replay.empty()) {
      for (const std::string& path : args.replay) {
        if (args.stop_after > 0 && c.failures >= args.stop_after) break;
        const CaseSpec spec = load_artifact(path);
        if (!args.quiet) std::cout << "replay " << path << "\n";
        run_one(args, spec, c);
      }
    } else {
      for (int i = 0; i < args.seeds; ++i) {
        if (args.stop_after > 0 && c.failures >= args.stop_after) break;
        CaseSpec spec = sample_case(args.seed_base, i);
        if (args.max_n > 0 && spec.n > args.max_n) spec.n = args.max_n;
        run_one(args, spec, c);
      }
    }
  } catch (const Error& e) {
    std::cerr << "fuzz driver error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "FUZZ {\"cases\": " << c.run << ", \"failures\": " << c.failures
            << ", \"tolerated_singular\": " << c.skipped_singular
            << ", \"minimized\": " << c.minimized
            << ", \"largest_minimized_n\": " << c.largest_min_n
            << ", \"injected_fault\": \"" << to_string(args.inject)
            << "\", \"seconds\": " << timer.seconds() << "}\n";
  if (args.inject != Fault::None) {
    // Gate inversion: with a planted bug the campaign MUST fail.
    return c.failures > 0 ? 0 : 1;
  }
  return c.failures > 0 ? 1 : 0;
}
