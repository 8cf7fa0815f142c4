#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "common/alloc_stats.h"
#include "common/error.h"
#include "power/power_model.h"
#include "prof/energy.h"
#include "prof/profile.h"
#include "prof/profiler.h"
#include "sim/memo_cost.h"
#include "sim/telemetry.h"
#include "sweep/grid.h"
#include "sweep/sweep.h"
#include "systems/machines.h"
#include "timed.h"
#include "workloads/op_stream.h"
#include "workloads/scenario.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using namespace soc;

/// Every per-layer metric a traced run reports (zero where the layer is
/// not on the workload's path or not observable from outside; see
/// perfbench/README.md).  bench.trace_overhead_ratio needs the untraced
/// wall as well and is added by run.py.
const char* const kLayerMetrics[] = {
    "workloads.pull_s",      "workloads.first_pull_s",
    "workloads.first_pull_rss_mb", "workloads.ops",
    "workloads.allocs",      "sim.engine_s",
    "sim.engine_self_s",     "sim.events",
    "sim.events_per_self_s", "sim.engine_allocs",
    "sim.rss_growth_mb",     "sim.cost_s",
    "sim.cost_calls",        "sim.memo_hit_ratio",
    "sim.queue_high_water",  "sim.wakes",
    "cluster.cost_model_build_s", "cluster.cost_models_built",
    "cluster.meter_s",       "obs.observer_s",
    "obs.records",           "obs.artifact_s",
    "obs.artifact_bytes",    "prof.analyze_s",
    "prof.energy_attr_s",    "prof.retime_s",
    "prof.retime_calls",     "trace.replay_s",
    "trace.replays",         "sweep.run_s",
    "sweep.cost_model_hits", "sweep.busy_s",
    "sweep.parallel_efficiency", "bench.residual_s",
};

/// Runs `f` inside a ledger span when tracing, bare otherwise.
template <typename F>
decltype(auto) in_span(Ledger* ledger, const char* name, F&& f) {
  if (ledger == nullptr) return f();
  ScopedSpan span(*ledger, name);
  return f();
}

/// Runs one operation and records its outputs; an exception marks it
/// failed instead of ending the workload.  Returns whether the operation
/// produced its outputs (they may still mismatch the references).
template <typename F>
bool attempt(Checker& check, Ledger* ledger, const std::string& op, F&& f) {
  Outputs outputs;
  try {
    outputs = f();
  } catch (const std::exception& e) {
    check.fail(op, std::string("threw: ") + e.what());
    return false;
  }
  in_span(ledger, "bench.check", [&] { check.pass(op, outputs); });
  return true;
}

Outputs run_outputs(const sim::RunStats& stats, double joules) {
  return {{"checksum", hex(stats.event_checksum)},
          {"events", num(stats.events_committed)},
          {"seconds", num(stats.seconds())},
          {"joules", num(joules)}};
}

void begin_layers(Outcome& out) {
  for (const char* name : kLayerMetrics) out.layers[name] = 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// cg-run-64 and tealeaf3d-explain-16: one cluster::run.

struct SingleSpec {
  std::string tag;
  int nodes = 1;
  bool explain = false;  ///< Profile, render artifacts, re-time what-ifs.
};

struct SingleSetup {
  std::unique_ptr<workloads::Workload> workload;
  cluster::RunRequest request;
  std::optional<cluster::ClusterCostModel> cost;
};

SingleSetup setup_single(const SingleSpec& spec, Ledger* ledger) {
  SingleSetup s;
  in_span(ledger, "workloads.make", [&] {
    s.workload = workloads::make_workload(spec.tag);
  });
  s.request.workload = s.workload->name();
  s.request.workload_ref = s.workload.get();
  s.request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit),
                      spec.nodes,
                      sweep::natural_ranks(*s.workload, spec.nodes)};
  in_span(ledger, "cluster.cost_model_build", [&] {
    s.cost.emplace(s.request.config.node, s.request.config.nodes,
                   s.request.config.ranks, s.workload->cpu_profile());
  });
  return s;
}

/// What cluster::run returns plus, for explain, the profile and trace.
struct SingleRun {
  cluster::RunResult result;
  prof::Profile profile;
  prof::RunTrace trace;
};

/// The pipeline cluster::run(request, workload, cost) assembles, built
/// from its public pieces with every layer boundary timed:
/// Workload::stream + apply_scenarios -> MemoCostModel -> sim::Engine ->
/// meter (+ the profiler's analysis when explaining).  The stream and
/// the profiler live until the analysis is done, as in cluster::run.
SingleRun traced_single(const SingleSetup& s, bool explain, Ledger& ledger,
                        std::map<std::string, double>& layers) {
  const cluster::RunRequest& request = s.request;
  const cluster::ClusterConfig& config = request.config;
  const cluster::ClusterCostModel& cost = *s.cost;
  SingleRun run;

  cluster::validate(config);
  const int assemble = ledger.open("sim.assemble");
  workloads::BuildContext ctx;
  ctx.ranks = config.ranks;
  ctx.nodes = config.nodes;
  ctx.mem_model = request.options.mem_model;
  ctx.gpu_work_fraction = request.options.gpu_work_fraction;
  ctx.size_scale = request.options.size_scale;
  ctx.overlap_halos = request.options.overlap_halos;
  PullStats pulls;
  TimedStream stream(workloads::apply_scenarios(s.workload->stream(ctx),
                                                request.scenario, config.nodes),
                     &pulls, /*track_rss=*/true);
  sim::EngineConfig engine_cfg = request.options.engine;
  if (engine_cfg.bisection_bandwidth == 0.0) {
    engine_cfg.bisection_bandwidth =
        config.node.switch_config.bisection_bandwidth;
  }
  sim::EngineTelemetry telemetry;
  engine_cfg.telemetry = &telemetry;
  SOC_CHECK(cost.memoizable(), "ClusterCostModel is expected to memoize");
  const sim::MemoCostModel memo(cost, /*thread_safe=*/engine_cfg.shards > 1);
  const TimedCost timed_cost(memo);
  sim::Engine engine(sim::Placement::block(config.ranks, config.nodes),
                     timed_cost, engine_cfg);
  prof::Profiler profiler;
  TimedObserver observer(profiler);
  if (explain) engine.set_observer(&observer);
  ledger.close(assemble);

  const std::uint64_t allocs0 = allocation_count();
  sim::RunStats stats;
  int engine_span = -1;
  {
    const ScopedSpan span(ledger, "sim.engine");
    engine_span = span.id();
    stats = engine.run(stream);
  }
  const std::uint64_t engine_allocs = allocation_count() - allocs0;
  const double rss_end = rss_mb();
  ledger.add_folded("workloads.pull", engine_span, pulls.pulls.ns,
                    pulls.pulls.calls);
  ledger.add_folded("sim.cost", engine_span, timed_cost.fold().ns,
                    timed_cost.fold().calls);
  if (explain) {
    ledger.add_folded("obs.observer", engine_span, observer.fold().ns,
                      observer.fold().calls);
  }

  in_span(&ledger, "cluster.meter", [&] {
    run.result.stats = stats;
    run.result.energy = power::measure_energy(stats, config.node.power,
                                              config.node.cpu_cores);
    run.result.counters = cost.synthesize_counters(stats);
    run.result.seconds = stats.seconds();
    run.result.gflops = stats.flops_per_second() / 1e9;
    run.result.joules = run.result.energy.joules;
    run.result.average_watts = run.result.energy.average_watts;
    run.result.mflops_per_watt =
        run.result.energy.mflops_per_watt(stats.total_flops);
  });

  if (explain) {
    in_span(&ledger, "prof.analyze",
            [&] { run.profile = prof::analyze(profiler.trace()); });
    in_span(&ledger, "prof.energy_attr", [&] {
      run.profile.energy = prof::attribute_energy(
          profiler.trace(), config.node.power, config.node.cpu_cores);
      run.profile.has_energy = true;
    });
    in_span(&ledger, "prof.trace_copy", [&] { run.trace = profiler.trace(); });
  }

  const double engine_s = seconds(ledger.spans()[engine_span].duration_ns());
  const double self_s =
      static_cast<double>(ledger.self_ns(engine_span)) * 1e-9;
  std::uint64_t high_water = 0;
  std::uint64_t wakes = 0;
  for (const sim::ShardCounters& c : telemetry.shard) {
    high_water = std::max(high_water, c.queue_high_water);
    wakes += c.wakes;
  }
  const double memo_lookups =
      static_cast<double>(memo.hits()) + static_cast<double>(memo.misses());
  layers["workloads.pull_s"] = seconds(pulls.pulls.ns);
  layers["workloads.first_pull_s"] = seconds(pulls.first_pull_ns);
  layers["workloads.first_pull_rss_mb"] = pulls.first_pull_rss_mb;
  layers["workloads.ops"] = static_cast<double>(pulls.ops);
  layers["workloads.allocs"] = static_cast<double>(pulls.pulls.allocs);
  layers["sim.engine_s"] = engine_s;
  layers["sim.engine_self_s"] = self_s;
  layers["sim.events"] = static_cast<double>(stats.events_committed);
  layers["sim.events_per_self_s"] =
      ratio(static_cast<double>(stats.events_committed), self_s);
  layers["sim.engine_allocs"] = static_cast<double>(
      engine_allocs - pulls.pulls.allocs - observer.fold().allocs);
  layers["sim.rss_growth_mb"] = rss_end - pulls.rss_after_first_mb;
  layers["sim.cost_s"] = seconds(timed_cost.fold().ns);
  layers["sim.cost_calls"] = static_cast<double>(timed_cost.fold().calls);
  layers["sim.memo_hit_ratio"] =
      ratio(static_cast<double>(memo.hits()), memo_lookups);
  layers["sim.queue_high_water"] = static_cast<double>(high_water);
  layers["sim.wakes"] = static_cast<double>(wakes);
  layers["obs.observer_s"] = seconds(observer.fold().ns);
  layers["obs.records"] = static_cast<double>(observer.fold().calls);
  return run;
}

/// The explain outputs that follow the run: both artifacts rendered and
/// the four what-if re-timings of socbench explain.
void explain_tail(const SingleSetup& s, SingleRun& run, bool run_ok,
                  Checker& check, Ledger* ledger) {
  const systems::NodeConfig& node = s.request.config.node;
  const auto artifact = [&](const char* op,
                            std::string (*render)(const prof::Profile&)) {
    attempt(check, ledger, op, [&] {
      SOC_CHECK(run_ok, "the run failed");
      const std::string text =
          in_span(ledger, "obs.artifact", [&] { return render(run.profile); });
      return Outputs{{"digest", digest(text)},
                     {"bytes", num(static_cast<std::uint64_t>(text.size()))}};
    });
  };
  artifact("artifact.critical_path_json", &prof::profile_json);
  artifact("artifact.folded_stacks", &prof::folded_stacks);

  // The what-ifs of `socbench explain --dvfs 0.5,0.75 --cap-watts 300`;
  // the memory clock follows the compute clock as in systems::with_dvfs.
  const auto dvfs = [](double f) {
    prof::WhatIf w;
    w.dvfs_compute = f;
    w.dvfs_dram = 0.4 + 0.6 * f;
    return w;
  };
  prof::WhatIf cap;
  cap.power_cap_w = 300.0;
  const std::pair<const char*, prof::WhatIf> retimes[] = {
      {"retime.baseline", prof::WhatIf{}},
      {"retime.dvfs-0.5", dvfs(0.5)},
      {"retime.dvfs-0.75", dvfs(0.75)},
      {"retime.cap-300", cap}};
  for (const auto& [op, what_if] : retimes) {
    attempt(check, ledger, op, [&] {
      SOC_CHECK(run_ok, "the run failed");
      const prof::Retimed t = in_span(ledger, "prof.retime", [&] {
        return prof::retime(run.trace, what_if, node.power, node.cpu_cores);
      });
      Outputs out{{"seconds", num(t.seconds)}, {"joules", num(t.joules)}};
      if (what_if.power_cap_w > 0.0) {
        out.emplace_back("capped_bins",
                         num(static_cast<std::uint64_t>(t.capped_bins)));
      }
      return out;
    });
  }
}

Outcome single(const SingleSpec& spec, bool traced, References refs) {
  Outcome out;
  out.check = Checker(std::move(refs));
  Ledger* ledger = traced ? &out.ledger : nullptr;
  if (traced) begin_layers(out);
  const std::uint64_t t0 = now_ns();
  const int root = traced ? out.ledger.open("workload") : -1;

  const SingleSetup s =
      in_span(ledger, "setup", [&] { return setup_single(spec, ledger); });
  out.setup_s = seconds(now_ns() - t0);

  SingleRun run;
  const bool run_ok = attempt(out.check, ledger, "run", [&] {
    if (traced) {
      // The span's self time is the pipeline's glue and teardown (the
      // stream, engine and profiler are freed as traced_single returns).
      run = in_span(ledger, "cluster.run", [&] {
        return traced_single(s, spec.explain, out.ledger, out.layers);
      });
    } else {
      cluster::RunRequest request = s.request;
      if (spec.explain) {
        request.profile = &run.profile;
        request.run_trace = &run.trace;
      }
      run.result = cluster::run(request, *s.workload, *s.cost);
    }
    return run_outputs(run.result.stats, run.result.joules);
  });
  if (spec.explain) explain_tail(s, run, run_ok, out.check, ledger);

  out.wall_s = seconds(now_ns() - t0);
  if (traced) {
    out.ledger.close(root);
    const Ledger& l = out.ledger;
    out.layers["cluster.cost_model_build_s"] =
        seconds(l.total_ns("cluster.cost_model_build"));
    out.layers["cluster.cost_models_built"] = 1.0;
    out.layers["cluster.meter_s"] = seconds(l.total_ns("cluster.meter"));
    out.layers["obs.artifact_s"] = seconds(l.total_ns("obs.artifact"));
    double bytes = 0.0;
    for (const auto& [key, value] : out.check.outputs()) {
      if (key.starts_with("artifact.") && key.ends_with(".bytes")) {
        bytes += std::stod(value);
      }
    }
    out.layers["obs.artifact_bytes"] = bytes;
    out.layers["prof.analyze_s"] = seconds(l.total_ns("prof.analyze"));
    out.layers["prof.energy_attr_s"] = seconds(l.total_ns("prof.energy_attr"));
    out.layers["prof.retime_s"] = seconds(l.total_ns("prof.retime"));
    out.layers["prof.retime_calls"] =
        static_cast<double>(l.count("prof.retime"));
    out.layers["bench.residual_s"] =
        static_cast<double>(l.self_ns(root)) * 1e-9;
  }
  return out;
}

// ---------------------------------------------------------------------
// registry-sweep: SweepRunner over the whole registry.

/// Deterministic permutation of [0, n) for `seed` (Fisher-Yates driven
/// by splitmix64, so it is the same on every platform).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[next() % i]);
  }
  return order;
}

std::string request_key(const cluster::RunRequest& r) {
  return r.workload + "@" + std::to_string(r.config.nodes) + "/" +
         r.config.node.nic.name;
}

/// Per-request instruments of the traced sweep.
struct Probe {
  std::unique_ptr<TimedWorkload> workload;
  RunMarker marker;
  sim::EngineTelemetry telemetry;
  PullStats run_pulls;
  PullStats replay_pulls;
  std::uint64_t run_cost_ns = 0;
  std::uint64_t replay_cost_ns = 0;
};

struct SweepSetup {
  std::vector<cluster::RunRequest> requests;  ///< Grid order.
  /// Submission order: submitted[i] is requests[order[i]].
  std::vector<std::size_t> order;
  std::vector<cluster::RunRequest> submitted;
  std::vector<std::unique_ptr<Probe>> probes;  ///< Traced only; grid order.
  std::unique_ptr<sweep::SweepRunner> runner;
};

SweepSetup setup_sweep(std::uint64_t seed, bool traced, Ledger* ledger) {
  SweepSetup s;
  sweep::Grid grid;
  grid.workloads = workloads::list();
  grid.nodes = {2, 8};
  grid.nics = {net::NicKind::kGigabit, net::NicKind::kTenGigabit};
  s.requests = grid.requests();
  s.order = permutation(s.requests.size(), seed);
  if (traced) {
    in_span(ledger, "workloads.make", [&] {
      for (const cluster::RunRequest& r : s.requests) {
        auto probe = std::make_unique<Probe>();
        probe->workload = std::make_unique<TimedWorkload>(
            workloads::make_workload(r.workload));
        probe->workload->set_phase(&probe->run_pulls, &probe->run_cost_ns);
        s.probes.push_back(std::move(probe));
      }
    });
  }
  s.submitted.reserve(s.requests.size());
  for (const std::size_t i : s.order) {
    cluster::RunRequest r = s.requests[i];
    if (traced) {
      Probe& p = *s.probes[i];
      r.workload_ref = p.workload.get();
      r.options.observer = &p.marker;
      r.engine_telemetry = &p.telemetry;
    }
    s.submitted.push_back(std::move(r));
  }
  sweep::SweepOptions options;
  options.threads = sweep_threads();
  options.label = "registry-sweep";
  s.runner = std::make_unique<sweep::SweepRunner>(options);
  return s;
}

Outcome registry_sweep(std::uint64_t seed, bool traced, References refs) {
  Outcome out;
  out.check = Checker(std::move(refs));
  Ledger* ledger = traced ? &out.ledger : nullptr;
  if (traced) begin_layers(out);
  const std::uint64_t t0 = now_ns();
  const int root = traced ? out.ledger.open("workload") : -1;

  SweepSetup s = in_span(ledger, "setup",
                         [&] { return setup_sweep(seed, traced, ledger); });
  out.setup_s = seconds(now_ns() - t0);
  const std::size_t n = s.requests.size();
  Checker& check = out.check;

  // Results come back in submission order; checks and the report use
  // grid order, so they do not depend on the seed.
  std::vector<cluster::RunResult> results(n);
  bool runs_ok = true;
  std::string run_error;
  try {
    auto submitted = in_span(ledger, "sweep.run",
                             [&] { return s.runner->run(s.submitted); });
    for (std::size_t i = 0; i < n; ++i) {
      results[s.order[i]] = std::move(submitted[i]);
    }
  } catch (const std::exception& e) {
    runs_ok = false;
    run_error = e.what();
  }
  for (std::size_t i = 0; i < n; ++i) {
    attempt(check, ledger, "run." + request_key(s.requests[i]), [&] {
      SOC_CHECK(runs_ok, "sweep run threw: " + run_error);
      return run_outputs(results[i].stats, results[i].joules);
    });
  }

  for (auto& p : s.probes) {
    p->workload->set_phase(&p->replay_pulls, &p->replay_cost_ns);
  }
  std::vector<trace::ScenarioRuns> replays(n);
  bool replays_ok = true;
  std::string replay_error;
  try {
    auto submitted = in_span(ledger, "trace.replay", [&] {
      return s.runner->replay_scenarios(s.submitted);
    });
    for (std::size_t i = 0; i < n; ++i) {
      replays[s.order[i]] = std::move(submitted[i]);
    }
  } catch (const std::exception& e) {
    replays_ok = false;
    replay_error = e.what();
  }
  for (std::size_t i = 0; i < n; ++i) {
    attempt(check, ledger, "replay." + request_key(s.requests[i]), [&] {
      SOC_CHECK(replays_ok, "sweep replay threw: " + replay_error);
      return Outputs{{"measured", hex(replays[i].measured.event_checksum)},
                     {"ideal_network",
                      hex(replays[i].ideal_network.event_checksum)},
                     {"ideal_balance",
                      hex(replays[i].ideal_balance.event_checksum)}};
    });
  }

  // The summary's simulated_seconds is a float sum in submission order;
  // the report carries the grid-order sum (what an unpermuted sweep
  // reports), and the runner's own sum must agree with it to rounding.
  const sweep::SweepSummary summary = s.runner->summary();
  sweep::SweepSummary canonical = summary;
  canonical.simulated_seconds = 0.0;
  for (const cluster::RunResult& r : results) {
    canonical.simulated_seconds += r.seconds;
  }
  for (const trace::ScenarioRuns& r : replays) {
    canonical.simulated_seconds += r.measured.seconds();
  }
  std::string report;
  attempt(check, ledger, "artifact.sweep_report", [&] {
    SOC_CHECK(runs_ok && replays_ok, "the sweep failed");
    in_span(ledger, "obs.artifact", [&] {
      report = sweep::sweep_report_json("registry-sweep", s.requests, results,
                                        canonical);
    });
    const bool sums_agree =
        std::abs(summary.simulated_seconds - canonical.simulated_seconds) <=
        1e-9 * std::abs(canonical.simulated_seconds);
    return Outputs{{"digest", digest(report)},
                   {"bytes", num(static_cast<std::uint64_t>(report.size()))},
                   {"simulated_seconds_sum_agrees", sums_agree ? "yes" : "no"}};
  });

  out.wall_s = seconds(now_ns() - t0);
  if (traced) {
    out.ledger.close(root);
    const Ledger& l = out.ledger;
    double pull_s = 0.0;
    double run_pull_s = 0.0;
    double first_pull_s = 0.0;
    double ops = 0.0;
    double engine_s = 0.0;
    double cost_build_s = 0.0;
    double wakes = 0.0;
    double high_water = 0.0;
    for (const auto& p : s.probes) {
      run_pull_s += seconds(p->run_pulls.pulls.ns);
      pull_s += seconds(p->run_pulls.pulls.ns + p->replay_pulls.pulls.ns);
      first_pull_s +=
          seconds(p->run_pulls.first_pull_ns + p->replay_pulls.first_pull_ns);
      ops += static_cast<double>(p->run_pulls.ops + p->replay_pulls.ops);
      engine_s += seconds(p->marker.end_ns - p->marker.begin_ns);
      cost_build_s += seconds(p->run_cost_ns);
      for (const sim::ShardCounters& c : p->telemetry.shard) {
        wakes += static_cast<double>(c.wakes);
        high_water =
            std::max(high_water, static_cast<double>(c.queue_high_water));
      }
    }
    double events = 0.0;
    for (const cluster::RunResult& r : results) {
      events += static_cast<double>(r.stats.events_committed);
    }
    const double run_s = seconds(l.total_ns("sweep.run"));
    const double self_s = engine_s - run_pull_s;
    out.layers["workloads.pull_s"] = pull_s;
    out.layers["workloads.first_pull_s"] = first_pull_s;
    out.layers["workloads.ops"] = ops;
    out.layers["sim.engine_s"] = engine_s;
    out.layers["sim.engine_self_s"] = self_s;
    out.layers["sim.events"] = events;
    out.layers["sim.events_per_self_s"] = ratio(events, self_s);
    out.layers["sim.queue_high_water"] = high_water;
    out.layers["sim.wakes"] = wakes;
    out.layers["cluster.cost_model_build_s"] = cost_build_s;
    out.layers["cluster.cost_models_built"] =
        static_cast<double>(summary.cost_models_built);
    out.layers["obs.artifact_s"] = seconds(l.total_ns("obs.artifact"));
    out.layers["obs.artifact_bytes"] = static_cast<double>(report.size());
    out.layers["trace.replay_s"] = seconds(l.total_ns("trace.replay"));
    out.layers["trace.replays"] = static_cast<double>(n);
    out.layers["sweep.run_s"] = run_s;
    out.layers["sweep.cost_model_hits"] =
        static_cast<double>(summary.cost_model_hits);
    out.layers["sweep.busy_s"] = engine_s;
    out.layers["sweep.parallel_efficiency"] =
        ratio(engine_s, static_cast<double>(summary.threads) * run_s);
    out.layers["bench.residual_s"] =
        static_cast<double>(l.self_ns(root)) * 1e-9;
  }
  return out;
}

const SingleSpec* single_spec(const std::string& workload) {
  static const SingleSpec kCg{"cg", 64, false};
  static const SingleSpec kExplain{"tealeaf3d", 16, true};
  if (workload == "cg-run-64") return &kCg;
  if (workload == "tealeaf3d-explain-16") return &kExplain;
  return nullptr;
}

void require_known(const std::string& workload) {
  const auto& names = workload_names();
  SOC_CHECK(std::find(names.begin(), names.end(), workload) != names.end(),
            "unknown workload '" + workload +
                "' (cg-run-64, tealeaf3d-explain-16, registry-sweep)");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "cg-run-64", "tealeaf3d-explain-16", "registry-sweep"};
  return kNames;
}

unsigned sweep_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned host = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    host = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::min(2u, host);
}

Outcome run_workload(const std::string& workload, std::uint64_t seed,
                     bool traced, References refs) {
  require_known(workload);
  if (const SingleSpec* spec = single_spec(workload)) {
    return single(*spec, traced, std::move(refs));
  }
  return registry_sweep(seed, traced, std::move(refs));
}

double run_setup(const std::string& workload, std::uint64_t seed) {
  require_known(workload);
  const std::uint64_t t0 = now_ns();
  if (const SingleSpec* spec = single_spec(workload)) {
    const SingleSetup s = setup_single(*spec, nullptr);
  } else {
    const SweepSetup s = setup_sweep(seed, /*traced=*/false, nullptr);
  }
  return seconds(now_ns() - t0);
}

Outcome single_run(const std::string& tag, int nodes, bool explain,
                   bool traced, References refs) {
  return single(SingleSpec{tag, nodes, explain}, traced, std::move(refs));
}

}  // namespace perfbench
