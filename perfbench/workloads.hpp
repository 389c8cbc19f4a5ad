// perfbench/workloads.hpp -- the three workloads and what they share.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Each runs one workload end to end (setup, warm-up, timed phase and, in
/// traced runs, the replay phase) and writes its report; 0 on completion.
int run_local_mix(const run_config& cfg, report& rep);
int run_wire_tenants(const run_config& cfg, report& rep);
int run_dist_socket(const run_config& cfg, report& rep);

/// Reports the q-quantile of `seconds` (in ms) under `name`, within one
/// request type.  A tail quantile with fewer than 10 samples beyond it is
/// not reported at all (run.py then refuses the run for a missing metric).
inline void report_latency(report& rep, const std::string& name,
                           const std::vector<double>& seconds, double q) {
  const std::optional<double> v = tail_quantile(seconds, q, q > 0.5 ? 10 : 0);
  if (v) {
    rep.metric(name, *v * 1e3, "ms", seconds.size());
  } else {
    rep.info("unreported." + name, std::to_string(seconds.size()) + " samples, " +
                                       std::to_string(samples_beyond(seconds.size(), q)) +
                                       " beyond the quantile; 10 needed");
  }
}

}  // namespace perfbench
