#include "trace/export.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/error.h"

namespace soc::trace {

namespace {

const char* mem_model_token(sim::MemModel mm) {
  switch (mm) {
    case sim::MemModel::kHostDevice: return "hd";
    case sim::MemModel::kZeroCopy: return "zc";
    case sim::MemModel::kUnified: return "um";
  }
  return "hd";
}

sim::MemModel parse_mem_model(const std::string& token, int line) {
  if (token == "hd") return sim::MemModel::kHostDevice;
  if (token == "zc") return sim::MemModel::kZeroCopy;
  if (token == "um") return sim::MemModel::kUnified;
  throw Error("soctrace line " + std::to_string(line) +
              ": unknown memory model '" + token + "'");
}

/// The engine's rank limit (message keys hold rank ids in 16 bits).
constexpr std::size_t kMaxRanks = std::size_t{1} << 16;

[[noreturn]] void fail(int line, const std::string& what) {
  throw Error("soctrace line " + std::to_string(line) + ": " + what);
}

}  // namespace

std::string export_programs(const std::vector<sim::Program>& programs,
                            const std::string& workload) {
  std::ostringstream os;
  os.precision(17);  // doubles must survive the round trip exactly
  os << "soctrace v1 ranks=" << programs.size();
  if (!workload.empty()) os << " workload=" << workload;
  os << "\n";
  for (std::size_t r = 0; r < programs.size(); ++r) {
    os << "rank " << r << "\n";
    for (const sim::Op& op : programs[r]) {
      SOC_CHECK(op.time_scale == 1.0,
                "soctrace v1 cannot carry Op::time_scale != 1");
      switch (op.kind) {
        case sim::OpKind::kCpuCompute:
          os << "cpu " << op.instructions << " " << op.flops << " "
             << op.dram_bytes << " " << op.profile << " " << op.phase << "\n";
          break;
        case sim::OpKind::kGpuKernel:
          os << "gpu " << op.flops << " " << op.dram_bytes << " "
             << mem_model_token(op.mem_model) << " " << op.parallelism << " "
             << (op.double_precision ? 1 : 0) << " " << op.phase << "\n";
          break;
        case sim::OpKind::kCopyH2D:
          os << "h2d " << op.bytes << " " << mem_model_token(op.mem_model)
             << " " << op.phase << "\n";
          break;
        case sim::OpKind::kCopyD2H:
          os << "d2h " << op.bytes << " " << mem_model_token(op.mem_model)
             << " " << op.phase << "\n";
          break;
        case sim::OpKind::kSend:
          os << "send " << op.peer << " " << op.bytes << " " << op.tag << " "
             << op.phase << "\n";
          break;
        case sim::OpKind::kRecv:
          os << "recv " << op.peer << " " << op.bytes << " " << op.tag << " "
             << op.phase << "\n";
          break;
        case sim::OpKind::kIsend:
          os << "isend " << op.peer << " " << op.bytes << " " << op.tag
             << " " << op.phase << "\n";
          break;
        case sim::OpKind::kIrecv:
          os << "irecv " << op.peer << " " << op.bytes << " " << op.tag
             << " " << op.phase << "\n";
          break;
        case sim::OpKind::kWaitAll:
          os << "waitall " << op.phase << "\n";
          break;
        case sim::OpKind::kPhase:
          os << "phase " << op.phase << "\n";
          break;
        case sim::OpKind::kDelay:
          os << "delay " << op.delay_seconds << " " << op.phase << "\n";
          break;
        case sim::OpKind::kEnd:
          SOC_CHECK(false, "soctrace: kEnd sentinel in a program");
          break;
      }
    }
  }
  return os.str();
}

std::vector<sim::Program> import_programs(const std::string& text,
                                          std::string* workload) {
  std::istringstream is(text);
  std::string line;
  int line_no = 0;

  // Header.
  std::size_t ranks = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream hs(line);
    std::string magic;
    std::string version;
    std::string ranks_field;
    std::string workload_field;
    std::string extra;
    hs >> magic >> version >> ranks_field >> workload_field >> extra;
    if (magic != "soctrace" || version != "v1" ||
        ranks_field.rfind("ranks=", 0) != 0 || !extra.empty() ||
        (!workload_field.empty() &&
         workload_field.rfind("workload=", 0) != 0)) {
      fail(line_no,
           "bad header (expected 'soctrace v1 ranks=N [workload=TAG]')");
    }
    // Digits only, and no more ranks than the engine can run, so a
    // corrupt count is refused here rather than allocated.
    const std::string count = ranks_field.substr(6);
    const auto [end, ec] =
        std::from_chars(count.data(), count.data() + count.size(), ranks);
    if (ec != std::errc{} || end != count.data() + count.size() ||
        ranks < 1 || ranks > kMaxRanks) {
      fail(line_no, "rank count '" + count + "' is not within [1, " +
                        std::to_string(kMaxRanks) + "]");
    }
    if (workload != nullptr) {
      *workload = workload_field.empty() ? "" : workload_field.substr(9);
    }
    break;
  }
  SOC_CHECK(ranks > 0, "soctrace: missing or empty header");

  std::vector<sim::Program> programs(ranks);
  std::size_t current = ranks;  // invalid until a 'rank' directive
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string verb;
    ls >> verb;

    if (verb == "rank") {
      std::size_t r = 0;
      if (!(ls >> r) || r >= ranks) fail(line_no, "bad rank directive");
      current = r;
      continue;
    }
    if (current >= ranks) fail(line_no, "op before any 'rank' directive");

    sim::Op op;
    bool ok = true;
    if (verb == "cpu") {
      op.kind = sim::OpKind::kCpuCompute;
      ok = static_cast<bool>(ls >> op.instructions >> op.flops >>
                             op.dram_bytes >> op.profile >> op.phase);
    } else if (verb == "gpu") {
      op.kind = sim::OpKind::kGpuKernel;
      std::string mm;
      int dp = 1;
      ok = static_cast<bool>(ls >> op.flops >> op.dram_bytes >> mm >>
                             op.parallelism >> dp >> op.phase);
      if (ok) {
        op.mem_model = parse_mem_model(mm, line_no);
        op.double_precision = dp != 0;
      }
    } else if (verb == "h2d" || verb == "d2h") {
      op.kind = verb == "h2d" ? sim::OpKind::kCopyH2D : sim::OpKind::kCopyD2H;
      std::string mm;
      ok = static_cast<bool>(ls >> op.bytes >> mm >> op.phase);
      if (ok) op.mem_model = parse_mem_model(mm, line_no);
    } else if (verb == "send" || verb == "recv" || verb == "isend" ||
               verb == "irecv") {
      op.kind = verb == "send"    ? sim::OpKind::kSend
                : verb == "recv"  ? sim::OpKind::kRecv
                : verb == "isend" ? sim::OpKind::kIsend
                                  : sim::OpKind::kIrecv;
      ok = static_cast<bool>(ls >> op.peer >> op.bytes >> op.tag >> op.phase);
    } else if (verb == "waitall") {
      op.kind = sim::OpKind::kWaitAll;
      ok = static_cast<bool>(ls >> op.phase);
    } else if (verb == "phase") {
      op.kind = sim::OpKind::kPhase;
      ok = static_cast<bool>(ls >> op.phase);
    } else if (verb == "delay") {
      op.kind = sim::OpKind::kDelay;
      ok = static_cast<bool>(ls >> op.delay_seconds >> op.phase);
    } else {
      fail(line_no, "unknown op '" + verb + "'");
    }
    if (!ok) fail(line_no, "malformed '" + verb + "' op");
    programs[current].push_back(op);
  }
  return programs;
}

void save_trace(const std::string& path,
                const std::vector<sim::Program>& programs,
                const std::string& workload) {
  std::ofstream out(path);
  SOC_CHECK(out.good(), "cannot open trace file for writing: " + path);
  out << export_programs(programs, workload);
  SOC_CHECK(out.good(), "error writing trace file: " + path);
}

std::vector<sim::Program> load_trace(const std::string& path,
                                     std::string* workload) {
  std::ifstream in(path);
  SOC_CHECK(in.good(), "cannot open trace file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return import_programs(buffer.str(), workload);
}

}  // namespace soc::trace
