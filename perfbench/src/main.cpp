// perfbench_workload: runs one benchmark operation in this process and
// prints its result as one JSON line.  perfbench/run.py starts a fresh
// process per operation, so each result's peak RSS and CPU time belong
// to exactly one workload.
//
//   perfbench_workload run    --workload W --seed N --refs FILE  # tracing off
//   perfbench_workload traced --workload W --seed N --refs FILE  # layer ledger
//   perfbench_workload setup  --workload W --seed N              # set-up only
//   perfbench_workload record --workload W --seed N              # references
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/args.h"
#include "common/error.h"
#include "obs/json.h"
#include "workloads.h"

namespace {

using namespace perfbench;

void print_outcome(const std::string& mode, const std::string& workload,
                   const Outcome& out) {
  soc::obs::JsonWriter w;
  w.begin_object();
  w.field("mode", std::string_view(mode));
  w.field("workload", std::string_view(workload));
  w.field("setup_s", out.setup_s);
  w.field("wall_s", out.wall_s);
  w.field("sweep_threads", static_cast<std::uint64_t>(sweep_threads()));
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("compiler", PERFBENCH_COMPILER);
  w.key("mismatches");
  w.begin_array();
  for (const std::string& m : out.check.mismatches()) {
    w.value(std::string_view(m));
  }
  w.end_array();
  w.key("ops");
  w.begin_object();
  for (const auto& [op, ok] : out.check.ops()) w.field(op, ok);
  w.end_object();
  w.key("outputs");
  w.begin_object();
  for (const auto& [key, value] : out.check.outputs()) {
    w.field(key, std::string_view(value));
  }
  w.end_object();
  if (mode == "traced") {
    w.key("layers");
    w.begin_object();
    for (const auto& [key, value] : out.layers) w.field(key, value);
    w.end_object();
    w.key("ledger");
    w.value_raw(out.ledger.json());
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

int run(int argc, char** argv) {
  if (argc < 2) {
    throw soc::Error(
        "usage: perfbench_workload <run|traced|setup|record> --workload W ...");
  }
  const std::string mode = argv[1];
  soc::ArgParser args;
  args.add_flag("--workload", "benchmark workload name");
  args.add_flag("--seed", "input seed (registry-sweep submission order)", "0");
  args.add_flag("--refs", "reference outputs file", "perfbench/references.txt");
  args.parse(argc, argv, 2);
  const std::string workload = args.get("--workload");
  const std::uint64_t seed =
      std::strtoull(args.get("--seed").c_str(), nullptr, 10);

  if (mode == "setup") {
    soc::obs::JsonWriter w;
    w.begin_object();
    w.field("mode", "setup");
    w.field("setup_s", run_setup(workload, seed));
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  if (mode == "record") {
    const Outcome out = run_workload(workload, seed, false, References{});
    for (const auto& [key, value] : out.check.outputs()) {
      std::printf("%s %s %s\n", workload.c_str(), key.c_str(), value.c_str());
    }
    return 0;
  }
  if (mode == "run" || mode == "traced") {
    const References refs = load_references(args.get("--refs"), workload);
    print_outcome(mode, workload,
                  run_workload(workload, seed, mode == "traced", refs));
    return 0;
  }
  throw soc::Error("unknown mode '" + mode + "' (run, traced, setup, record)");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 2;
  }
}
