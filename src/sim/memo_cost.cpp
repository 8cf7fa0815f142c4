#include "sim/memo_cost.h"

#include <algorithm>
#include <bit>
#include <initializer_list>

#include "common/error.h"

namespace soc::sim {

namespace {

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t pack_path(int src_node, int dst_node) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_node));
}

// Folds 64-bit words into one hash, one splitmix64 round (FlatMapHash)
// per word.  The round is a bijection, so keys that differ only in their
// last word never share a 64-bit hash.
std::uint64_t hash_words(std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = 0;
  for (const std::uint64_t w : words) h = FlatMapHash<std::uint64_t>{}(h ^ w);
  return h;
}

}  // namespace

std::uint64_t MemoCostModel::CpuKeyHash::operator()(const CpuKey& k) const {
  return hash_words({k.instructions_bits, k.flops_bits,
                     static_cast<std::uint64_t>(k.dram_bytes),
                     static_cast<std::uint32_t>(k.profile)});
}

std::uint64_t MemoCostModel::GpuKeyHash::operator()(const GpuKey& k) const {
  return hash_words({k.flops_bits, k.parallelism_bits,
                     static_cast<std::uint64_t>(k.dram_bytes),
                     (std::uint64_t{k.mem_model} << 8) |
                         (k.double_precision ? 1u : 0u)});
}

std::uint64_t MemoCostModel::CopyKeyHash::operator()(const CopyKey& k) const {
  return hash_words({static_cast<std::uint64_t>(k.bytes),
                     (std::uint64_t{k.kind} << 8) | k.mem_model});
}

std::uint64_t MemoCostModel::TransferKeyHash::operator()(
    const TransferKey& k) const {
  return hash_words({k.path, static_cast<std::uint64_t>(k.bytes)});
}

MemoCostModel::MemoCostModel(const CostModel& base, bool thread_safe)
    : base_(base) {
  SOC_CHECK(!thread_safe,
            "MemoCostModel belongs to one thread: build one per run (a sweep "
            "shares only the immutable base model)");
}

SimTime MemoCostModel::cpu_compute_time(int rank, const Op& op) const {
  const CpuKey key{double_bits(op.instructions), double_bits(op.flops),
                   op.dram_bytes, op.profile};
  Slot& slot = cpu_[key];
  if (!slot.known) {
    slot.value = base_.cpu_compute_time(rank, op);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::gpu_kernel_time(int rank, const Op& op) const {
  const GpuKey key{double_bits(op.flops), double_bits(op.parallelism),
                   op.dram_bytes, static_cast<std::uint8_t>(op.mem_model),
                   op.double_precision};
  Slot& slot = gpu_[key];
  if (!slot.known) {
    slot.value = base_.gpu_kernel_time(rank, op);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::copy_time(int rank, const Op& op) const {
  const CopyKey key{op.bytes, static_cast<std::uint8_t>(op.kind),
                    static_cast<std::uint8_t>(op.mem_model)};
  Slot& slot = copy_[key];
  if (!slot.known) {
    slot.value = base_.copy_time(rank, op);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

void MemoCostModel::grow_latency(std::size_t dim) const {
  std::vector<Slot> wider(dim * dim);
  for (std::size_t src = 0; src < latency_dim_; ++src) {
    const Slot* row = latency_.data() + src * latency_dim_;
    std::copy(row, row + latency_dim_, wider.data() + src * dim);
  }
  latency_ = std::move(wider);
  latency_dim_ = dim;
}

SimTime MemoCostModel::message_latency(int src_node, int dst_node) const {
  const std::size_t src = static_cast<std::size_t>(src_node);
  const std::size_t dst = static_cast<std::size_t>(dst_node);
  const std::size_t largest = std::max(src, dst);
  if (largest >= latency_dim_) {
    SOC_CHECK(src_node >= 0 && dst_node >= 0, "negative node id");
    // Power-of-two widths keep the total copying linear in the final
    // table size when node ids arrive in ascending order.
    grow_latency(std::bit_ceil(largest + 1));
  }
  Slot& slot = latency_[src * latency_dim_ + dst];
  if (!slot.known) {
    slot.value = base_.message_latency(src_node, dst_node);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::message_transfer_time(int src_node, int dst_node,
                                             Bytes bytes) const {
  const TransferKey key{pack_path(src_node, dst_node), bytes};
  Slot& slot = transfer_[key];
  if (!slot.known) {
    slot.value = base_.message_transfer_time(src_node, dst_node, bytes);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::overhead_for(
    int rank, std::vector<Slot>& cache,
    SimTime (CostModel::*method)(int) const) const {
  const std::size_t r = static_cast<std::size_t>(rank);
  if (cache.size() <= r) cache.resize(r + 1);
  Slot& slot = cache[r];
  if (!slot.known) {
    slot.value = (base_.*method)(rank);
    slot.known = true;
    ++misses_;
  } else {
    ++hits_;
  }
  return slot.value;
}

SimTime MemoCostModel::send_overhead(int rank) const {
  return overhead_for(rank, send_overhead_, &CostModel::send_overhead);
}

SimTime MemoCostModel::recv_overhead(int rank) const {
  return overhead_for(rank, recv_overhead_, &CostModel::recv_overhead);
}

}  // namespace soc::sim
