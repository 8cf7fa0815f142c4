// Critical-path profiler, stage 3: what-if re-timing.
//
// evaluate() re-runs sim::Engine over the ops a RunTrace recorded, in
// each rank's program order, with a cost model that reads every duration
// back out of the trace: lane ops take their recorded service time,
// messages their recorded latency and wire time, and the send/recv
// overheads the per-rank constants the profiler derived.  The scheduling
// is the engine's own, so there is nothing to keep in step with it.
// Evaluating the unmodified ("measured") scenario therefore reproduces
// the recorded makespan to the nanosecond exactly when the trace source
// and cost model rebuild the run — analyze() asserts this round trip as
// `evaluator_exact` — and the ideal-network / ideal-balance scenarios
// reproduce the paper's DIMEMAS-style replays from one instrumented pass.
//
// The trace must come from a plain measured run (no engine Scenario), as
// cluster::run produces.
#pragma once

#include <vector>

#include "prof/profiler.h"

namespace soc::prof {

/// Scenario knobs for one re-timing: the engine's own (ideal_network,
/// compute_scale, uncontended) plus the energy what-ifs below.
/// compute_scale cannot be combined with a DVFS factor (evaluate()
/// throws): the two scalings would round in an unspecified order.
struct WhatIf : sim::Scenario {
  /// DVFS state: relative frequency of the compute clocks (CPU + GPU).
  /// Durations of cpu/gpu lane ops scale by 1/dvfs_compute; 1.0 is the
  /// recorded state and is an exact identity (no rounding applied).
  double dvfs_compute = 1.0;
  /// Relative frequency of the memory clock: copy-lane ops scale by
  /// 1/dvfs_dram.  1.0 is an exact identity.
  double dvfs_dram = 1.0;
  /// Whole-cluster power cap in watts (0 = off).  The cap is evaluated
  /// on the measured power timeline by prof::retime() — bins over the
  /// cap dilate, the makespan stretches — and cannot be combined with
  /// the duration-changing knobs above (retime() throws).  evaluate()
  /// ignores it.
  double power_cap_w = 0.0;
};

/// Re-times the trace under the scenario; returns the projected makespan.
SimTime evaluate(const RunTrace& trace, const WhatIf& scenario);

}  // namespace soc::prof
