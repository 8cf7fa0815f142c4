// Artifact rendering for the engine's self-telemetry (sim/telemetry.h).
//
// Two documents come out of one attached EngineTelemetry, and every
// number in both is fixed by the simulation's control flow:
//
//  - engine_counters_json: the counter section alone,
//    `soccluster-engine-telemetry-counters/v1`.  CI `cmp`s it across
//    repeated runs and build flavors like the other artifacts.
//
//  - engine_telemetry_json: the full `soccluster-engine-telemetry/v1`
//    artifact: the counter section above plus the event queue's
//    high-water mark.
#pragma once

#include <string>

#include "sim/telemetry.h"

namespace soc::obs {

/// The deterministic counter document (ends with a newline).
std::string engine_counters_json(const sim::EngineTelemetry& telemetry);

/// The full telemetry document (ends with a newline).
std::string engine_telemetry_json(const sim::EngineTelemetry& telemetry);

}  // namespace soc::obs
