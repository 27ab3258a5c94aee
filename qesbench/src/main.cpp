// qesbench: runs one benchmark workload against the program's public
// entry points and prints its metrics, checks, and a JSON summary line.
//
//   qesbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--min-reps <k>] [--tiny]
//
// Workloads: wire_steady, oracle_qeopt. With --trace 1 the per-layer
// probes are switched on (timing wrappers, the engine registry,
// per-thread CPU, split oracle steps); end-to-end metrics are still
// reported so run.py can print the tracing overhead. --min-reps sets the
// floor on QE-OPT passes of oracle_qeopt (default 3), which otherwise
// repeats until the next pass would overrun --seconds. --tiny shrinks
// every workload for the self-test. Exits 0 only when every correctness check passed.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "qesbench: %s\nusage: qesbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--min-reps <k>] [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qesbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--min-reps") {
        opt.min_reps = std::stoi(v);
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");
  if (opt.min_reps < 1) return usage("--min-reps must be >= 1");

  qesbench::Report rep;
  try {
    if (opt.workload == "wire_steady") {
      qesbench::run_wire(opt, rep);
    } else if (opt.workload == "oracle_qeopt") {
      qesbench::run_oracle_qeopt(opt, rep);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qesbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  rep.print();
  return rep.correct() ? 0 : 1;
}
