#include "obs/engine_telemetry.h"

#include <cstdint>

#include "obs/json.h"

namespace soc::obs {

namespace {

/// The queue counters of a run (all zero when nothing was recorded).
sim::ShardCounters queue_counters(const sim::EngineTelemetry& t) {
  return t.shard.empty() ? sim::ShardCounters{} : t.shard.front();
}

/// The members of the deterministic counter section, shared verbatim by
/// the standalone counters document and the full artifact (so the CI
/// byte-compare and the full artifact can never drift apart).
void counters_body(JsonWriter& w, const sim::EngineTelemetry& t) {
  const sim::ShardCounters c = queue_counters(t);
  w.field("events_committed", t.events_committed);
  w.field("events_processed", c.events_processed);
  w.field("ops_fetched", c.ops_fetched);
  w.field("wakes", c.wakes);
  w.field("commit_records", t.commit_records);
  w.key("protocol");
  w.begin_object();
  w.field("arrival", c.protos_arrival);
  w.field("rts", c.protos_rts);
  w.field("cts", c.protos_cts);
  w.end_object();
}

}  // namespace

std::string engine_counters_json(const sim::EngineTelemetry& t) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-engine-telemetry-counters/v1");
  w.field("deterministic", true);
  counters_body(w, t);
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

std::string engine_telemetry_json(const sim::EngineTelemetry& t) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-engine-telemetry/v1");
  w.newline();
  w.key("counters");
  w.begin_object();
  w.field("deterministic", true);
  counters_body(w, t);
  w.end_object();
  w.newline();
  w.field("queue_high_water", queue_counters(t).queue_high_water);
  w.newline();
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

}  // namespace soc::obs
