// Workload interface and registry.
//
// Every benchmark of Table I (ClusterSoCBench) and the NPB suite is a
// Workload: it owns (a) a microarchitectural profile for its host-side
// code, (b) a generator that lowers the benchmark's computation and
// communication structure into per-rank op streams, and for the
// scientific codes (c) a small functional kernel (workloads/kernels/)
// proving the numerics the generator's FLOP formulas describe.
//
// Generators are step-wise: stream() computes the run's constants once
// and returns a StepStream (workloads/op_stream.h) that emits one outer
// iteration at a time as the engine pulls, so a run never holds more of
// its programs than the ranks have yet to execute.  build() drains that
// same stream into whole programs for callers that need them up front.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/profile.h"
#include "sim/op.h"

namespace soc::workloads {

class OpStream;

/// Parameters threaded into program generation.
struct BuildContext {
  int ranks = 1;
  int nodes = 1;
  /// CUDA memory-management model for GPU workloads (§III-B.5).
  sim::MemModel mem_model = sim::MemModel::kHostDevice;
  /// Fraction of offloadable work executed on the GPU; the remainder runs
  /// on the host core (the Fig 7 work-ratio study).  1.0 = all GPU.
  double gpu_work_fraction = 1.0;
  /// Optional scale on the benchmark's default problem size (1.0 = the
  /// Table I input).  Used by tests to keep runs quick.
  double size_scale = 1.0;
  /// Overlap halo exchanges with interior compute via non-blocking
  /// messaging (jacobi/tealeaf support this; the overlap ablation bench
  /// quantifies the benefit).
  bool overlap_halos = false;
};

/// Rejects malformed build parameters with a SOC_CHECK naming the
/// offending field.  Every generator calls this before lowering.
void validate(const BuildContext& ctx);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual bool gpu_accelerated() const = 0;

  /// Host-side microarchitectural profile (index 0 is the profile id the
  /// generated CPU ops reference).
  virtual arch::WorkloadProfile cpu_profile() const = 0;

  /// The pull-based form every runner consumes: validates `ctx`, then
  /// generates ops one step at a time as ranks pull them.
  virtual std::unique_ptr<OpStream> stream(const BuildContext& ctx) const = 0;

  /// Whole programs, one per rank: drains stream(ctx) rank by rank (trace
  /// export, the perf harness, tests).  Replaying them commits the same
  /// events as running the stream.
  virtual std::vector<sim::Program> build(const BuildContext& ctx) const;
};

/// A recorded trace as one more workload (codes-workload's pattern: a
/// loaded trace sits behind the same pull API as a generator).  Its
/// stream walks the trace's programs, and its name, GPU flag and CPU
/// profile are those of the registry workload `tag` it was recorded from,
/// so cluster::run prices a replay exactly as it priced the recording.
class TraceWorkload final : public Workload {
 public:
  /// Throws soc::Error for a tag the registry does not know.
  TraceWorkload(const std::string& tag, std::vector<sim::Program> programs);

  std::string name() const override { return recorded_->name(); }
  bool gpu_accelerated() const override {
    return recorded_->gpu_accelerated();
  }
  arch::WorkloadProfile cpu_profile() const override {
    return recorded_->cpu_profile();
  }
  /// The rank count the trace was recorded at.
  int ranks() const { return static_cast<int>(programs_.size()); }
  /// Walks the programs; `ctx.ranks` must equal ranks().  The trace
  /// already carries the size, memory model and GPU share it was recorded
  /// with, so the other build parameters are not read.
  std::unique_ptr<OpStream> stream(const BuildContext& ctx) const override;

 private:
  std::unique_ptr<Workload> recorded_;
  std::vector<sim::Program> programs_;
};

/// All GPGPU-accelerated workloads of Table I, in paper order:
/// hpl, jacobi, cloverleaf, tealeaf2d, tealeaf3d, alexnet, googlenet.
std::vector<std::unique_ptr<Workload>> cluster_soc_bench();

/// The NPB subset of §III-A: bt, cg, ep, ft, is, lu, mg, sp (class C).
std::vector<std::unique_ptr<Workload>> npb_suite();

/// Registered workload tags, in Table I + NPB order.  This is the
/// registry's authoritative name list: socbench usage, grid enumeration,
/// and make_workload's error message all derive from it.
const std::vector<std::string>& list();

/// Creates one workload by its Table I / NPB tag.  An unknown tag fails a
/// SOC_CHECK whose message names every valid tag.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace soc::workloads
