// perfbench -- the repository's benchmark binary.
//
//   perfbench --workload local_mix|wire_tenants|dist_socket --seed N
//             --seconds S [--trace 0|1] [--trace-out PATH] [--setup-only 1]
//
// Every run first times its own set-up (--setup-only 1 stops there).
// Untraced runs (--trace 0) measure the end-to-end metrics; a traced run
// (--trace 1) splits the timed phase into an untraced and a traced half
// (their difference is obs.trace_overhead_frac), then replays sampled
// requests through each layer's public functions and reports the
// per-layer metrics.  The report protocol is in harness.hpp; run.py turns
// it into the benchmark's result line.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload local_mix|wire_tenants|dist_socket --seed N "
               "--seconds S [--trace 0|1] [--trace-out PATH] [--setup-only 1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_config cfg;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      cfg.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--trace-out") {
      cfg.trace_out = val;
    } else if (key == "--setup-only") {
      cfg.setup_only = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(cfg.seconds > 0.0)) return usage();
  // Short smoke runs keep every step, with a shorter warm-up.
  cfg.warmup_seconds = std::min(cfg.warmup_seconds, cfg.seconds / 2);

  perfbench::report rep;
  rep.info("workload", workload);
  rep.info("seed", std::to_string(cfg.seed));
  rep.info("trace", cfg.trace ? "1" : "0");
  int rc = 0;
  if (workload == "local_mix") {
    rc = perfbench::run_local_mix(cfg, rep);
  } else if (workload == "wire_tenants") {
    rc = perfbench::run_wire_tenants(cfg, rep);
  } else if (workload == "dist_socket") {
    rc = perfbench::run_dist_socket(cfg, rep);
  } else {
    return usage();
  }
  std::cout << "correct " << (rep.correct() ? "true" : "false") << "\n" << std::flush;
  return rc != 0 ? rc : (rep.correct() ? 0 : 1);
}
