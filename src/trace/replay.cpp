#include "trace/replay.h"

#include <optional>
#include <utility>

#include "sim/memo_cost.h"

namespace soc::trace {

ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost,
                              const SourceFactory& open,
                              const sim::EngineConfig& config) {
  // One memo shared across all three scenarios: op durations depend only
  // on the cost model, so the measured replay warms the cache for the
  // what-if replays.  (Ideal network bypasses the cost model inside the
  // engine and ideal balance rescales durations after evaluation, so the
  // cached values are identical across scenarios.)
  const sim::MemoCostModel memo(cost);
  const sim::CostModel& effective =
      cost.memoizable() ? static_cast<const sim::CostModel&>(memo) : cost;
  const auto run = [&](sim::OpSource& source, sim::Scenario scenario) {
    sim::Engine engine(placement, effective, config, std::move(scenario));
    return engine.run(source);
  };

  // A source that reads the clock is recorded once; any other is opened
  // afresh for each what-if.
  const std::unique_ptr<sim::OpSource> first = open();
  std::optional<sim::RecordingSource> recording;
  if (!first->schedule_independent()) recording.emplace(*first);
  const auto reopen = [&]() -> std::unique_ptr<sim::OpSource> {
    if (!recording) return open();
    return std::make_unique<sim::ProgramSource>(recording->programs());
  };

  ScenarioRuns runs;
  runs.measured = run(recording ? *recording : *first, {});
  sim::Scenario ideal_network;
  ideal_network.ideal_network = true;
  runs.ideal_network = run(*reopen(), std::move(ideal_network));
  sim::Scenario ideal_balance;
  ideal_balance.compute_scale = sim::ideal_balance_scales(runs.measured);
  runs.ideal_balance = run(*reopen(), std::move(ideal_balance));
  return runs;
}

ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost,
                              const std::vector<sim::Program>& programs,
                              const sim::EngineConfig& config) {
  return replay_scenarios(
      placement, cost,
      [&programs] { return std::make_unique<sim::ProgramSource>(programs); },
      config);
}

}  // namespace soc::trace
