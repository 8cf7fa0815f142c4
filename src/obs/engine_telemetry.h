// Artifact rendering for the engine's self-telemetry (sim/telemetry.h).
//
// One document, `soccluster-engine-telemetry/v1`, comes out of an
// attached EngineTelemetry: the counter section plus the event queue's
// high-water mark.  Every number in it is fixed by the simulation's
// control flow, so CI `cmp`s it across repeated runs and build flavors
// like the other artifacts.
#pragma once

#include <string>

#include "sim/telemetry.h"

namespace soc::obs {

/// The telemetry document (ends with a newline).
std::string engine_telemetry_json(const sim::EngineTelemetry& telemetry);

}  // namespace soc::obs
