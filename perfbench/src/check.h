// Reference outputs and the per-operation correctness check.
//
// Every operation a workload performs (one simulated run, one scenario
// replay, one what-if re-timing, one rendered artifact) reports its
// outputs as (key, value) strings: event checksums in hex, simulated
// seconds and joules in shortest round-trip form, artifact digests.  The
// Checker compares each against perfbench/references.txt as soon as the
// operation finishes.  A mismatch, a missing reference, or an exception
// marks the operation failed; none of them aborts the workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// key -> expected value, for one workload.
using References = std::map<std::string, std::string>;

/// Loads the references of `workload` from a file of
/// `<workload> <key> <value>` lines ('#' starts a comment).
References load_references(const std::string& path,
                           const std::string& workload);

/// Formats a double in shortest round-trip form (exact comparison).
std::string num(double v);
/// Formats an integer count.
std::string num(std::uint64_t v);
/// 0x-prefixed 16-digit hex, the repo's checksum form.
std::string hex(std::uint64_t v);
/// FNV-1a 64 digest of an artifact's bytes, in hex.
std::string digest(std::string_view bytes);

using Outputs = std::vector<std::pair<std::string, std::string>>;

class Checker {
 public:
  explicit Checker(References refs) : refs_(std::move(refs)) {}

  /// Records one finished operation named `op`; its outputs are checked
  /// under the keys "<op>.<key>".
  void pass(const std::string& op, const Outputs& outputs);
  /// Records one operation that threw or could not produce its outputs.
  void fail(const std::string& op, const std::string& why);

  std::uint64_t attempted() const { return ops_.size(); }
  std::uint64_t failed() const;
  /// Every operation recorded, and whether it passed.
  const std::map<std::string, bool>& ops() const { return ops_; }
  /// Human-readable reasons, one per failed check.
  const std::vector<std::string>& mismatches() const { return mismatches_; }
  /// Every output produced, keyed "<op>.<key>" (the fidelity guard
  /// compares a traced run's outputs against an untraced run's).
  const std::map<std::string, std::string>& outputs() const {
    return outputs_;
  }

 private:
  References refs_;
  std::map<std::string, bool> ops_;
  std::vector<std::string> mismatches_;
  std::map<std::string, std::string> outputs_;
};

}  // namespace perfbench
