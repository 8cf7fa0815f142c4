// Trace replay scenarios (the DIMEMAS methodology of §III-B.4).
//
// The paper records Extrae traces on the real cluster and re-simulates
// them under (a) the real network, (b) an ideal network with zero latency
// and unlimited bandwidth, and (c) perfect load balance.  Our op streams
// *are* the traces, so the scenarios are three runs of the same ops with
// different engine scenarios.
//
// The runs take their ops from a factory that opens a fresh source.  When
// the first source is schedule-independent (sim::OpSource), each scenario
// pulls its own fresh source and nothing is stored, so memory follows
// what is in flight.  Otherwise the measured run is teed through
// sim::RecordingSource and the two ideals re-time the recorded programs:
// a source that reads the clock (fault, noise and checkpoint decorators)
// would inject its stalls differently under another schedule.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.h"

namespace soc::trace {

/// The three replays the scalability analysis consumes.
struct ScenarioRuns {
  sim::RunStats measured;      ///< Real network, real load.
  sim::RunStats ideal_network; ///< Zero latency, unlimited bandwidth.
  sim::RunStats ideal_balance; ///< Per-rank compute scaled to the average
                               ///< (real network, per the paper: "we used
                               ///< the traces with the real network").
};

/// Opens a fresh source over the same ops on every call.
using SourceFactory = std::function<std::unique_ptr<sim::OpSource>()>;

/// Runs all three scenarios over the ops `open` yields.  It is called
/// three times when its first source is schedule-independent, and once
/// otherwise.
ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost,
                              const SourceFactory& open,
                              const sim::EngineConfig& config = {});

/// Runs all three scenarios over the same programs.
ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost,
                              const std::vector<sim::Program>& programs,
                              const sim::EngineConfig& config = {});

}  // namespace soc::trace
