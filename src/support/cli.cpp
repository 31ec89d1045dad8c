#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "support/strings.hpp"

namespace smtu {

void exit_usage_error(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

std::ofstream open_output_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) exit_usage_error("cannot open " + path);
  return out;
}

void create_output_directory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !std::filesystem::is_directory(dir, ec)) {
    exit_usage_error("cannot create directory " + dir);
  }
}

CommandLine::CommandLine(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (starts_with(arg, "--")) {
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        options_.emplace(std::string(arg.substr(2)), "true");
      } else {
        options_.emplace(std::string(arg.substr(2, eq - 2)), std::string(arg.substr(eq + 1)));
      }
    } else if (arg == "-j" || starts_with(arg, "-j")) {
      // Short alias for --jobs: accepts -j4, -j=4, and "-j 4".
      std::string_view value = arg.substr(2);
      if (starts_with(value, "=")) value.remove_prefix(1);
      if (value.empty() && i + 1 < argc) value = argv[++i];
      if (value.empty()) fail("option -j expects a worker count");
      options_.emplace("jobs", std::string(value));
    } else {
      positional_.emplace_back(arg);
    }
  }
}

std::optional<std::string> CommandLine::take(const std::string& key) {
  const auto it = options_.find(key);
  if (it == options_.end()) return std::nullopt;
  std::string value = it->second;
  options_.erase(it);
  return value;
}

std::string CommandLine::get_string(const std::string& key, const std::string& default_value) {
  return take(key).value_or(default_value);
}

i64 CommandLine::get_int(const std::string& key, i64 default_value) {
  const auto raw = take(key);
  if (!raw) return default_value;
  const auto parsed = parse_int(*raw);
  if (!parsed) fail("option --" + key + " expects an integer, got '" + *raw + "'");
  return *parsed;
}

double CommandLine::get_double(const std::string& key, double default_value) {
  const auto raw = take(key);
  if (!raw) return default_value;
  const auto parsed = parse_double(*raw);
  if (!parsed) fail("option --" + key + " expects a number, got '" + *raw + "'");
  return *parsed;
}

bool CommandLine::get_flag(const std::string& key) {
  const auto raw = take(key);
  if (!raw) return false;
  return *raw != "false" && *raw != "0";
}

u32 CommandLine::get_u32(const std::string& key, u32 default_value, u32 min) {
  constexpr u32 kMax = ~u32{0};
  const i64 value = get_int(key, default_value);
  if (value < min || value > kMax) {
    fail(format("option --%s expects an integer in [%u, %u], got '%lld'", key.c_str(), min, kMax,
                static_cast<long long>(value)));
  }
  return static_cast<u32>(value);
}

u64 CommandLine::get_u64(const std::string& key, u64 default_value) {
  const auto raw = take(key);
  if (!raw) return default_value;
  const auto parsed = parse_uint(*raw);
  if (!parsed) {
    fail(format("option --%s expects an integer in [0, %llu], got '%s'", key.c_str(),
                static_cast<unsigned long long>(~u64{0}), raw->c_str()));
  }
  return *parsed;
}

void CommandLine::finish() const {
  if (options_.empty()) return;
  for (const auto& [key, value] : options_) {
    std::fprintf(stderr, "%s: unknown option --%s=%s\n", program_.c_str(), key.c_str(),
                 value.c_str());
  }
  std::exit(2);
}

void CommandLine::fail(const std::string& message) const {
  exit_usage_error(program_ + ": " + message);
}

}  // namespace smtu
