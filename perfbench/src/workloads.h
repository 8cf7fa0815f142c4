// The benchmark's workloads, run through the simulator's public entry
// points (workloads::make_workload, cluster::ClusterCostModel,
// cluster::run, sweep::SweepRunner, prof::retime).
//
//   cg-run-64             socbench run --workload cg --nodes 64
//   tealeaf3d-explain-16  socbench explain --workload tealeaf3d --nodes 16
//                         --energy --dvfs 0.5,0.75 --cap-watts 300, with
//                         the critical-path JSON and folded stacks rendered
//   registry-sweep        SweepRunner over every registered workload x
//                         {2, 8} nodes x {1GbE, 10GbE}: runs, scenario
//                         replays and the sweep report, on 2 threads
//
// Each is a closed-loop batch job in one process.  Only registry-sweep
// reads the seed: it permutes the order requests are submitted in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check.h"
#include "ledger.h"

namespace perfbench {

const std::vector<std::string>& workload_names();

/// Sweep threads the registry sweep uses: 2, never more than the host's.
unsigned sweep_threads();

struct Outcome {
  Checker check{References{}};
  double setup_s = 0.0;  ///< Workload start to the first simulator call.
  double wall_s = 0.0;   ///< Workload start to every output checked.
  /// Traced runs only: the span ledger and the per-layer metrics.
  Ledger ledger;
  std::map<std::string, double> layers;
};

/// Runs one workload.  Untraced, it makes plain library calls; traced, it
/// does the same work with every layer boundary timed from outside and
/// fills Outcome::ledger and Outcome::layers.
Outcome run_workload(const std::string& workload, std::uint64_t seed,
                     bool traced, References refs);

/// Performs only the workload's set-up; returns its host seconds.
double run_setup(const std::string& workload, std::uint64_t seed);

/// One single run (10GbE TX1 nodes, natural rank count) through
/// cluster::run or through the traced pipeline, on any registry workload
/// and shape: the self-tests use small ones.  Both record their outputs
/// under identical keys.
Outcome single_run(const std::string& tag, int nodes, bool explain,
                   bool traced, References refs);

}  // namespace perfbench
