#include "common/args.h"

#include <charconv>
#include <sstream>
#include <system_error>

namespace soc {

namespace {

/// Parses all of `text` with `convert` (std::stoi / std::stod); trailing
/// characters or an out-of-range value throw UsageError(`what`).
template <typename Convert>
auto parse_whole(const std::string& text, Convert convert,
                 const std::string& what) {
  std::size_t used = 0;
  try {
    const auto value = convert(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw UsageError(what);
}

int to_int(const std::string& s, std::size_t* used) {
  return std::stoi(s, used);
}

double to_double(const std::string& s, std::size_t* used) {
  return std::stod(s, used);
}

}  // namespace

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         const std::string& default_value) {
  SOC_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{help, default_value, default_value, false, false};
  order_.push_back(name);
}

void ArgParser::add_bool(const std::string& name, const std::string& help) {
  SOC_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{help, "false", "false", true, false};
  order_.push_back(name);
}

void ArgParser::parse(int argc, const char* const* argv, int start) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg;
    std::optional<std::string> inline_value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) throw UsageError("unknown flag: " + name);
    Flag& flag = it->second;
    flag.given = true;
    if (flag.is_bool) {
      if (inline_value.has_value() && *inline_value != "true" &&
          *inline_value != "false") {
        throw UsageError("boolean flag " + name + " takes no value");
      }
      flag.value = inline_value.value_or("true");
    } else if (inline_value.has_value()) {
      flag.value = *inline_value;
    } else {
      if (i + 1 >= argc) throw UsageError("flag " + name + " needs a value");
      flag.value = argv[++i];
    }
  }
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto it = flags_.find(name);
  SOC_CHECK(it != flags_.end(), "undeclared flag: " + name);
  return it->second.value;
}

int ArgParser::get_int(const std::string& name) const {
  const std::string& v = get(name);
  return parse_whole(v, to_int,
                     "flag " + name + " expects an integer, got '" + v + "'");
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& v = get(name);
  return parse_whole(v, to_double,
                     "flag " + name + " expects a number, got '" + v + "'");
}

bool ArgParser::get_bool(const std::string& name) const {
  return get(name) == "true";
}

bool ArgParser::given(const std::string& name) const {
  const auto it = flags_.find(name);
  SOC_CHECK(it != flags_.end(), "undeclared flag: " + name);
  return it->second.given;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  " << name;
    if (!flag.is_bool) os << " <value>";
    os << "\n      " << flag.help;
    if (!flag.is_bool && !flag.default_value.empty()) {
      os << " (default: " << flag.default_value << ")";
    }
    os << "\n";
  }
  return os.str();
}

std::vector<int> parse_int_list(const std::string& csv) {
  std::vector<int> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    out.push_back(
        parse_whole(item, to_int, "bad integer in list: '" + item + "'"));
  }
  if (out.empty()) throw UsageError("empty integer list");
  return out;
}

std::vector<std::string> parse_string_list(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    SOC_CHECK(!item.empty(), "empty entry in list: '" + csv + "'");
    out.push_back(item);
  }
  SOC_CHECK(!out.empty(), "empty string list");
  return out;
}

std::vector<double> parse_double_list(const std::string& csv) {
  std::vector<double> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    out.push_back(
        parse_whole(item, to_double, "bad number in list: '" + item + "'"));
  }
  if (out.empty()) throw UsageError("empty number list");
  return out;
}

unsigned parse_thread_count(const std::string& text,
                            const std::string& source) {
  unsigned threads = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), threads);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw UsageError(source + " must be a whole number >= 0 (0 = all "
                     "cores), got '" + text + "'");
  }
  return threads;
}

}  // namespace soc
