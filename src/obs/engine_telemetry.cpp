#include "obs/engine_telemetry.h"

#include <cstdint>

#include "obs/json.h"

namespace soc::obs {

std::string engine_telemetry_json(const sim::EngineTelemetry& t) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-engine-telemetry/v1");
  w.newline();
  // The queue counters of the run (all zero when nothing was recorded).
  const sim::ShardCounters c =
      t.shard.empty() ? sim::ShardCounters{} : t.shard.front();
  w.key("counters");
  w.begin_object();
  w.field("deterministic", true);
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
  w.end_object();
  w.newline();
  w.field("queue_high_water", c.queue_high_water);
  w.newline();
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

}  // namespace soc::obs
