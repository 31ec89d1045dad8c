// String helpers used by the assembler, Matrix Market reader, and CLI.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hpp"

namespace smtu {

// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

// Splits on runs of whitespace, dropping empty fields.
std::vector<std::string_view> split_whitespace(std::string_view text);

std::string to_lower(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

// Strict integer / floating-point parsing (whole string must be consumed).
std::optional<i64> parse_int(std::string_view text);
std::optional<u64> parse_uint(std::string_view text);
std::optional<double> parse_double(std::string_view text);

// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace smtu
