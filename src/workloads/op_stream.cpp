#include "workloads/op_stream.h"

#include <utility>

#include "common/error.h"

namespace soc::workloads {

bool OpStream::next(int rank, SimTime now, sim::Op* op) {
  sim::Op pulled = get_next(rank, now);
  if (pulled.kind == sim::OpKind::kEnd) return false;
  *op = pulled;
  return true;
}

StepStream::StepStream(int ranks, int steps, Step step)
    : ps_(ranks),
      steps_(steps),
      step_(std::move(step)),
      cursor_(static_cast<std::size_t>(ranks), 0) {
  SOC_CHECK(steps_ >= 0, "StepStream needs a non-negative step count");
}

sim::Op StepStream::get_next(int rank, SimTime /*now*/) {
  SOC_CHECK(rank >= 0 && rank < ps_.ranks(), "StepStream: rank out of range");
  const auto r = static_cast<std::size_t>(rank);
  // A step may emit nothing for this rank (a DNN rank out of images), so
  // keep stepping until it has an op or the steps run out.
  while (cursor_[r] == ps_.programs()[r].size()) {
    if (next_step_ == steps_) return sim::end_op();
    for (int q = 0; q < ps_.ranks(); ++q) {
      ps_.drop_front(q, cursor_[static_cast<std::size_t>(q)]);
      cursor_[static_cast<std::size_t>(q)] = 0;
    }
    step_(next_step_++, ps_);
  }
  return ps_.programs()[r][cursor_[r]++];
}

}  // namespace soc::workloads
