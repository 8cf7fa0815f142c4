#include "check.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "cluster/report.h"
#include "common/error.h"
#include "common/hash.h"

namespace perfbench {

References load_references(const std::string& path,
                           const std::string& workload) {
  std::ifstream in(path);
  SOC_CHECK(in.good(), "cannot open reference file " + path);
  References refs;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string w;
    std::string key;
    std::string value;
    if (!(fields >> w)) continue;
    SOC_CHECK(static_cast<bool>(fields >> key >> value),
              "malformed reference line: " + line);
    if (w == workload) refs[key] = value;
  }
  return refs;
}

std::string num(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string hex(std::uint64_t v) { return soc::cluster::checksum_hex(v); }

std::string digest(std::string_view bytes) {
  soc::Fnv1a h;
  for (const char c : bytes) h.mix_byte(static_cast<std::uint8_t>(c));
  return hex(h.value());
}

void Checker::pass(const std::string& op, const Outputs& outputs) {
  bool ok = true;
  for (const auto& [key, value] : outputs) {
    const std::string full = op + "." + key;
    outputs_[full] = value;
    const auto it = refs_.find(full);
    if (it == refs_.end()) {
      mismatches_.push_back(full + ": no reference (got " + value + ")");
      ok = false;
    } else if (it->second != value) {
      mismatches_.push_back(full + ": expected " + it->second + ", got " +
                            value);
      ok = false;
    }
  }
  ops_[op] = ok;
}

void Checker::fail(const std::string& op, const std::string& why) {
  ops_[op] = false;
  mismatches_.push_back(op + ": " + why);
}

std::uint64_t Checker::failed() const {
  std::uint64_t n = 0;
  for (const auto& [op, ok] : ops_) n += ok ? 0 : 1;
  return n;
}

}  // namespace perfbench
