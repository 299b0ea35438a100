// pdslin_fuzz — deterministic seeded differential fuzzer for the whole
// pipeline.
//
// Samples problems from the src/gen families plus adversarial generators
// (near-singular rows, empty separators, dense rows, duplicate entries),
// runs the full hybrid pipeline across the config matrix (graph vs.
// hypergraph partitioner, threads ∈ {1, k}, nrhs ∈ {1, m}, direct vs. served
// cold/cached, GMRES vs. BiCGSTAB, exact vs. dropped assembly) and diffs
// every stage against the dense oracle; the parallel lanes additionally
// rerun fully serial and must match bitwise, and every LU factor the solver
// holds must equal the scalar kernel's refactorization bitwise.
// On failure the case is shrunk to a minimal reproducer and written as a
// replayable JSON seed artifact.
//
// Usage:
//   pdslin_fuzz --seeds 500                 # campaign; exit 1 on any failure
//   pdslin_fuzz --seeds 50 --max-n 96       # CTest smoke configuration
//   pdslin_fuzz --minimize --corpus-dir d   # shrink failures + write artifacts
//   pdslin_fuzz --replay tests/corpus/x.json…   # re-run committed artifacts
//   pdslin_fuzz --inject-bug schur-gather-off-by-one --seeds 50 --minimize
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/artifact.hpp"
#include "check/differential.hpp"
#include "check/fault.hpp"
#include "check/minimize.hpp"
#include "parse_number.hpp"
#include "util/timer.hpp"

namespace {

using namespace pdslin;
using namespace pdslin::check;
using tools::parse_number;

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

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      a.seeds = parse_number<int>(arg, next());
    } else if (arg == "--seed-base") {
      a.seed_base = parse_number<std::uint64_t>(arg, next());
    } else if (arg == "--minimize") {
      a.minimize = true;
    } else if (arg == "--corpus-dir") {
      a.corpus_dir = next();
    } else if (arg == "--max-n") {
      a.max_n = parse_number<index_t>(arg, next());
    } else if (arg == "--stop-after") {
      a.stop_after = parse_number<int>(arg, next());
    } else if (arg == "--inject-bug") {
      const std::string v = next();
      if (v == "schur-gather-off-by-one") {
        a.inject = Fault::SchurGatherOffByOne;
      } else if (v == "schur-drop-last-entry") {
        a.inject = Fault::SchurDropLastEntry;
      } else {
        throw std::invalid_argument("unknown fault: " + v);
      }
    } else if (arg == "--replay") {
      while (i + 1 < argc && argv[i + 1][0] != '-') a.replay.push_back(argv[++i]);
      if (a.replay.empty()) {
        throw std::invalid_argument("--replay needs at least one file");
      }
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown argument: " + arg +
                                  " (see --help)");
    }
  }
  return a;
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

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.inject != Fault::None) inject_fault(args.inject);

  WallTimer timer;
  Campaign c;
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

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pdslin_fuzz: " << e.what() << "\n";
    return 2;
  }
}
