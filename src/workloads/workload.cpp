#include "workloads/workload.h"

#include <utility>

#include "common/error.h"
#include "workloads/op_stream.h"

namespace soc::workloads {

void validate(const BuildContext& ctx) {
  SOC_CHECK(ctx.ranks > 0, "BuildContext.ranks must be > 0");
  SOC_CHECK(ctx.nodes > 0, "BuildContext.nodes must be > 0");
  SOC_CHECK(ctx.ranks % ctx.nodes == 0,
            "BuildContext.ranks must be a multiple of BuildContext.nodes");
  SOC_CHECK(ctx.gpu_work_fraction >= 0.0 && ctx.gpu_work_fraction <= 1.0,
            "BuildContext.gpu_work_fraction must be within [0, 1]");
  SOC_CHECK(ctx.size_scale > 0.0, "BuildContext.size_scale must be > 0");
}

std::vector<sim::Program> Workload::build(const BuildContext& ctx) const {
  const std::unique_ptr<OpStream> source = stream(ctx);
  std::vector<sim::Program> programs(
      static_cast<std::size_t>(source->ranks()));
  for (int r = 0; r < source->ranks(); ++r) {
    for (sim::Op op = source->get_next(r, 0); op.kind != sim::OpKind::kEnd;
         op = source->get_next(r, 0)) {
      programs[static_cast<std::size_t>(r)].push_back(op);
    }
  }
  return programs;
}

TraceWorkload::TraceWorkload(const std::string& tag,
                             std::vector<sim::Program> programs)
    : recorded_(make_workload(tag)), programs_(std::move(programs)) {}

std::unique_ptr<OpStream> TraceWorkload::stream(const BuildContext& ctx) const {
  validate(ctx);
  SOC_CHECK(ctx.ranks == ranks(),
            "the trace was recorded with " + std::to_string(ranks()) +
                " ranks, not " + std::to_string(ctx.ranks));
  return std::make_unique<ProgramStream>(programs_);
}

}  // namespace soc::workloads
