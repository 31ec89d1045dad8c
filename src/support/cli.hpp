// Tiny command-line option parser for bench/example binaries.
//
// Accepts --key=value and --flag forms; positional arguments are collected in
// order. Unknown options are an error so typos in sweep parameters fail fast.
// `-j N` / `-jN` is the one short option, an alias for --jobs=N.
//
// Every mistake on the command line ends the same way: a line on stderr
// naming the option and what it accepts, then exit status 2 — never an
// abort. SMTU_CHECK stays for the program's own invariants.
#pragma once

#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace smtu {

// Prints `message` and a newline to stderr and exits with status 2: the
// outcome of a mistake in the command line or in an input file it names.
[[noreturn]] void exit_usage_error(const std::string& message);

// Opens `path` for writing, or prints "cannot open <path>" and exits with
// status 2: an output file named on the command line that cannot be
// created is a mistake in the command line.
std::ofstream open_output_file(const std::string& path);

// Creates the directory `dir` (and its parents) unless it exists, or
// prints "cannot create directory <dir>" and exits with status 2: the same
// rule for a directory named on the command line, such as --sim-cache.
void create_output_directory(const std::string& dir);

class CommandLine {
 public:
  // Parses argv; fails on malformed input.
  CommandLine(int argc, const char* const* argv);

  // Declared-option accessors; consume the option (for unknown detection).
  std::string get_string(const std::string& key, const std::string& default_value);
  i64 get_int(const std::string& key, i64 default_value);
  double get_double(const std::string& key, double default_value);
  bool get_flag(const std::string& key);
  // An integer stored in a u32: fails unless min <= value <= 2^32 - 1, so a
  // negative count never wraps into a huge one.
  u32 get_u32(const std::string& key, u32 default_value, u32 min = 0);
  // An integer stored in a u64, such as a seed: fails on a sign or a value
  // above 2^64 - 1, so -1 never wraps into 2^64 - 1.
  u64 get_u64(const std::string& key, u64 default_value);

  const std::vector<std::string>& positional() const { return positional_; }

  // Call after all options are declared; fails if unconsumed options remain.
  void finish() const;

  // Fails with "<program>: <message>": for a value the accessors parsed but
  // the caller rejects (out of range, not one of a set, a missing partner).
  [[noreturn]] void fail(const std::string& message) const;

 private:
  std::optional<std::string> take(const std::string& key);

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace smtu
