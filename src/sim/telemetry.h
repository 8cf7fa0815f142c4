// Engine self-telemetry: what the *simulator itself* did during a run.
//
// The observers of src/obs observe the simulated cluster; this header
// observes the engine.  An EngineTelemetry instance attached through
// EngineConfig::telemetry makes run() record deterministic work counters:
// events processed, ops fetched, wakes, protocol messages by kind, and the
// event queue's high-water mark.  Every one of them is fixed by the
// simulation's control flow, so the rendered counter document is
// byte-identical across repeated runs and build flavors, and CI compares
// it like any other artifact.  With no telemetry attached every
// instrumentation site is a single pointer test.
#pragma once

#include <cstdint>
#include <vector>

namespace soc::sim {

/// Deterministic work counters of the engine's event queue.  The name is
/// kept for source compatibility with code outside src/ that reads it.
struct ShardCounters {
  std::uint64_t events_processed = 0;
  std::uint64_t wakes = 0;
  std::uint64_t ops_fetched = 0;
  std::uint64_t protos_arrival = 0;
  std::uint64_t protos_rts = 0;
  std::uint64_t protos_cts = 0;
  std::uint64_t queue_high_water = 0;
};

/// Self-instrumentation sink for one Engine::run.  Attach via
/// EngineConfig::telemetry (non-owning; must outlive the run); run()
/// resets it at entry, so instances are reusable across runs.
struct EngineTelemetry {
  std::uint64_t events_committed = 0;
  std::uint64_t commit_records = 0;  ///< Observer-dependent, run-stable.
  /// The engine's queue counters.  One element: the engine is serial
  /// (EngineConfig::shards is always 1).
  std::vector<ShardCounters> shard;

  /// Clears everything (run() calls this).
  void reset() { *this = EngineTelemetry{}; }
};

}  // namespace soc::sim
