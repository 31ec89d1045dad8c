#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace smtu {
namespace {

// The writer hands its buffer to the stream once this much has accumulated.
constexpr usize kFlushBytes = usize{64} << 10;

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

// Appends `text` with JSON string escaping; runs that need none are copied
// as one span.
void append_escaped(std::string& out, std::string_view text) {
  usize run = 0;
  for (usize i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (!needs_escape(c)) continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const auto byte = static_cast<unsigned char>(c);
        const char code[] = {'\\', 'u', '0', '0', kHex[byte >> 4], kHex[byte & 0xF]};
        out.append(code, sizeof code);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

// Integers in to_chars' decimal form, which is printf's %lld / %llu.
template <typename Integer>
void append_integer(std::string& out, Integer number) {
  char digits[24];
  const auto result = std::to_chars(digits, digits + sizeof digits, number);
  out.append(digits, result.ptr);
}

}  // namespace

// ---- JsonWriter --------------------------------------------------------------

JsonWriter::~JsonWriter() { flush(); }

void JsonWriter::flush() {
  if (buffer_.empty()) return;
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void JsonWriter::before_value() {
  SMTU_CHECK_MSG(!emitted_root_ || !stack_.empty(), "JSON document already complete");
  if (stack_.empty()) {
    emitted_root_ = true;
    return;
  }
  Frame& frame = stack_.back();
  if (frame.scope == Scope::kObject) {
    SMTU_CHECK_MSG(pending_key_, "object member needs a key first");
    pending_key_ = false;
  } else if (!frame.first) {
    buffer_ += ',';
  }
  frame.first = false;
}

void JsonWriter::after_value() {
  if (stack_.empty() || buffer_.size() >= kFlushBytes) flush();
}

void JsonWriter::write_string(std::string_view text) {
  buffer_ += '"';
  append_escaped(buffer_, text);
  buffer_ += '"';
}

void JsonWriter::begin_object() {
  before_value();
  buffer_ += '{';
  stack_.push_back({Scope::kObject, true});
}

void JsonWriter::end_object() {
  SMTU_CHECK_MSG(!stack_.empty() && stack_.back().scope == Scope::kObject && !pending_key_,
                 "mismatched end_object");
  buffer_ += '}';
  stack_.pop_back();
  after_value();
}

void JsonWriter::begin_array() {
  before_value();
  buffer_ += '[';
  stack_.push_back({Scope::kArray, true});
}

void JsonWriter::end_array() {
  SMTU_CHECK_MSG(!stack_.empty() && stack_.back().scope == Scope::kArray, "mismatched end_array");
  buffer_ += ']';
  stack_.pop_back();
  after_value();
}

void JsonWriter::key(const std::string& name) {
  SMTU_CHECK_MSG(!stack_.empty() && stack_.back().scope == Scope::kObject,
                 "key outside of an object");
  SMTU_CHECK_MSG(!pending_key_, "two keys in a row");
  if (!stack_.back().first) buffer_ += ',';
  write_string(name);
  buffer_ += ':';
  pending_key_ = true;
}

void JsonWriter::value(const std::string& text) {
  before_value();
  write_string(text);
  after_value();
}

void JsonWriter::value(const char* text) {
  before_value();
  write_string(text);
  after_value();
}

void JsonWriter::value(double number) {
  before_value();
  if (std::isfinite(number)) {
    // General format at precision 12 is printf's %.12g, byte for byte.
    char digits[32];
    const auto result =
        std::to_chars(digits, digits + sizeof digits, number, std::chars_format::general, 12);
    buffer_.append(digits, result.ptr);
  } else {
    buffer_ += "null";  // JSON has no Inf/NaN
  }
  after_value();
}

void JsonWriter::value(i64 number) {
  before_value();
  append_integer(buffer_, number);
  after_value();
}

void JsonWriter::value(u64 number) {
  before_value();
  append_integer(buffer_, number);
  after_value();
}

void JsonWriter::value(bool flag) {
  before_value();
  buffer_ += flag ? "true" : "false";
  after_value();
}

void JsonWriter::null() {
  before_value();
  buffer_ += "null";
  after_value();
}

void JsonWriter::raw(std::string_view text) {
  before_value();
  buffer_ += text;
  after_value();
}

void write_table_as_json(std::ostream& out, const TextTable& table) {
  JsonWriter json(out);
  json.begin_array();
  for (usize r = 0; r < table.rows(); ++r) {
    json.begin_object();
    for (usize c = 0; c < table.columns(); ++c) {
      json.key(table.header()[c]);
      const std::string& cell = table.row(r)[c];
      if (const auto integer = parse_int(cell)) {
        json.value(*integer);
      } else if (const auto number = parse_double(cell)) {
        json.value(*number);
      } else {
        json.value(cell);
      }
    }
    json.end_object();
  }
  json.end_array();
  out << '\n';
}

// ---- JsonValue -------------------------------------------------------------

static_assert(sizeof(JsonValue) <= 40, "JsonValue should stay a 32-byte string plus a tag");

bool JsonValue::as_bool() const {
  const bool* flag = std::get_if<bool>(&data_);
  SMTU_CHECK_MSG(flag != nullptr, "JSON value is not a bool");
  return *flag;
}

double JsonValue::as_double() const {
  const Number* number = std::get_if<Number>(&data_);
  SMTU_CHECK_MSG(number != nullptr, "JSON value is not a number");
  return number->real;
}

i64 JsonValue::as_i64() const {
  const Number* number = std::get_if<Number>(&data_);
  SMTU_CHECK_MSG(number != nullptr, "JSON value is not a number");
  switch (number->exact) {
    case Number::Exact::kNegative:
      return static_cast<i64>(number->bits);
    case Number::Exact::kUnsigned:
      SMTU_CHECK_MSG(number->bits <= static_cast<u64>(std::numeric_limits<i64>::max()),
                     "JSON number is not an integer in i64 range");
      return static_cast<i64>(number->bits);
    case Number::Exact::kNone:
      break;
  }
  const double real = number->real;
  SMTU_CHECK_MSG(real >= -0x1p63 && real < 0x1p63 && std::trunc(real) == real,
                 "JSON number is not an integer in i64 range");
  return static_cast<i64>(real);
}

bool JsonValue::is_integer() const {
  const Number* number = std::get_if<Number>(&data_);
  return number != nullptr && number->exact != Number::Exact::kNone;
}

std::optional<u64> JsonValue::try_u64() const {
  const Number* number = std::get_if<Number>(&data_);
  if (number == nullptr) return std::nullopt;
  switch (number->exact) {
    case Number::Exact::kUnsigned:
      return number->bits;
    case Number::Exact::kNegative:
      return std::nullopt;
    case Number::Exact::kNone:
      break;
  }
  const double real = number->real;
  if (!(real >= 0.0 && real < 0x1p64) || std::trunc(real) != real) return std::nullopt;
  return static_cast<u64>(real);
}

u64 JsonValue::as_u64() const {
  SMTU_CHECK_MSG(is_number(), "JSON value is not a number");
  const std::optional<u64> number = try_u64();
  SMTU_CHECK_MSG(number.has_value(), "JSON number is not an integer in u64 range");
  return *number;
}

const std::string& JsonValue::as_string() const {
  const std::string* text = std::get_if<std::string>(&data_);
  SMTU_CHECK_MSG(text != nullptr, "JSON value is not a string");
  return *text;
}

const std::vector<JsonValue>& JsonValue::items() const {
  const auto* items = std::get_if<std::vector<JsonValue>>(&data_);
  SMTU_CHECK_MSG(items != nullptr, "JSON value is not an array");
  return *items;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  const auto* members = std::get_if<std::vector<Member>>(&data_);
  SMTU_CHECK_MSG(members != nullptr, "JSON value is not an object");
  return *members;
}

usize JsonValue::size() const {
  if (const auto* items = std::get_if<std::vector<JsonValue>>(&data_)) return items->size();
  if (const auto* members = std::get_if<std::vector<Member>>(&data_)) return members->size();
  SMTU_CHECK_MSG(false, "JSON value has no size");
  return 0;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const auto* members = std::get_if<std::vector<Member>>(&data_);
  if (members == nullptr) return nullptr;
  for (const Member& member : *members) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  SMTU_CHECK_MSG(value != nullptr, "missing JSON key " + std::string(key));
  return *value;
}

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool flag) {
  JsonValue value;
  value.data_ = flag;
  return value;
}

JsonValue JsonValue::make_number(double number) {
  JsonValue value;
  value.data_ = Number{number, 0, Number::Exact::kNone};
  return value;
}

JsonValue JsonValue::make_string(std::string text) {
  JsonValue value;
  value.data_ = std::move(text);
  return value;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue value;
  value.data_ = std::move(items);
  return value;
}

JsonValue JsonValue::make_object(std::vector<Member> members) {
  JsonValue value;
  value.data_ = std::move(members);
  return value;
}

// ---- parser ----------------------------------------------------------------

// Each parse_* fills `out`, a null JsonValue on entry, and returns false
// after recording the first error. Containers collect their children on two
// scratch stacks shared by every nesting level and move them into a vector
// of exactly the right size when they close.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue value;
    if (parse_value(value, 0)) {
      skip_whitespace();
      if (pos_ == text_.size()) return value;
      fail("trailing characters after JSON document");
    }
    if (error) *error = error_;
    return std::nullopt;
  }

 private:
  using Number = JsonValue::Number;
  static constexpr usize kMaxDepth = 256;

  bool parse_value(JsonValue& out, usize depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': return parse_string(out.data_.emplace<std::string>());
      case 't':
        if (!parse_literal("true")) return false;
        out.data_ = true;
        return true;
      case 'f':
        if (!parse_literal("false")) return false;
        out.data_ = false;
        return true;
      case 'n': return parse_literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, usize depth) {
    ++pos_;  // '{'
    const usize base = members_.size();
    skip_whitespace();
    if (!consume('}')) {
      while (true) {
        skip_whitespace();
        if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
        std::string key;
        if (!parse_string(key)) return false;
        skip_whitespace();
        if (!consume(':')) return fail("expected ':' after object key");
        JsonValue value;
        if (!parse_value(value, depth + 1)) return false;
        members_.emplace_back(std::move(key), std::move(value));
        skip_whitespace();
        if (consume(',')) continue;
        if (consume('}')) break;
        return fail("expected ',' or '}' in object");
      }
    }
    out.data_ = take_above(members_, base);
    return true;
  }

  bool parse_array(JsonValue& out, usize depth) {
    ++pos_;  // '['
    const usize base = items_.size();
    skip_whitespace();
    if (!consume(']')) {
      while (true) {
        JsonValue value;
        if (!parse_value(value, depth + 1)) return false;
        items_.push_back(std::move(value));
        skip_whitespace();
        if (consume(',')) continue;
        if (consume(']')) break;
        return fail("expected ',' or ']' in array");
      }
    }
    out.data_ = take_above(items_, base);
    return true;
  }

  // Moves the entries above `base` off a scratch stack into their own
  // exactly-sized vector.
  template <typename T>
  static std::vector<T> take_above(std::vector<T>& stack, usize base) {
    const auto first = stack.begin() + static_cast<std::ptrdiff_t>(base);
    std::vector<T> taken(std::make_move_iterator(first), std::make_move_iterator(stack.end()));
    stack.erase(first, stack.end());
    return taken;
  }

  bool parse_string(std::string& decoded) {
    ++pos_;  // opening quote
    while (true) {
      const usize run = pos_;
      while (pos_ < text_.size() && !needs_escape(text_[pos_])) ++pos_;
      decoded.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return fail("unterminated string");
      if (text_[pos_] == '"') {
        ++pos_;
        return true;
      }
      if (text_[pos_] != '\\') return fail("raw control character in string");
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': decoded += '"'; break;
        case '\\': decoded += '\\'; break;
        case '/': decoded += '/'; break;
        case 'b': decoded += '\b'; break;
        case 'f': decoded += '\f'; break;
        case 'n': decoded += '\n'; break;
        case 'r': decoded += '\r'; break;
        case 't': decoded += '\t'; break;
        case 'u': {
          std::optional<u32> code = parse_hex4();
          if (!code) return false;
          u32 codepoint = *code;
          if (codepoint >= 0xD800 && codepoint <= 0xDBFF) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return fail("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            std::optional<u32> low = parse_hex4();
            if (!low) return false;
            if (*low < 0xDC00 || *low > 0xDFFF) return fail("invalid low surrogate");
            codepoint = 0x10000 + ((codepoint - 0xD800) << 10) + (*low - 0xDC00);
          } else if (codepoint >= 0xDC00 && codepoint <= 0xDFFF) {
            return fail("unpaired UTF-16 surrogate");
          }
          append_utf8(decoded, codepoint);
          break;
        }
        default: return fail("unknown escape character");
      }
    }
  }

  std::optional<u32> parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
      return std::nullopt;
    }
    u32 value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<u32>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<u32>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<u32>(c - 'A' + 10);
      else {
        fail("invalid \\u escape digit");
        return std::nullopt;
      }
    }
    return value;
  }

  static void append_utf8(std::string& out, u32 codepoint) {
    if (codepoint < 0x80) {
      out += static_cast<char>(codepoint);
    } else if (codepoint < 0x800) {
      out += static_cast<char>(0xC0 | (codepoint >> 6));
      out += static_cast<char>(0x80 | (codepoint & 0x3F));
    } else if (codepoint < 0x10000) {
      out += static_cast<char>(0xE0 | (codepoint >> 12));
      out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (codepoint & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (codepoint >> 18));
      out += static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (codepoint & 0x3F));
    }
  }

  bool parse_number(JsonValue& out) {
    const usize begin = pos_;
    const bool negative = consume('-');
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) return fail("malformed number");
    if (text_[pos_] == '0') {
      ++pos_;  // leading zeros are not allowed
    } else {
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    bool integer = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integer = false;
      ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) return fail("malformed fraction");
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integer = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) return fail("malformed exponent");
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }

    // The span is a valid JSON number, which from_chars reads in full.
    const char* first = text_.data() + begin;
    const char* last = text_.data() + pos_;
    if (integer && negative) {
      i64 exact = 0;
      // "-0" stays a double so its sign survives.
      if (std::from_chars(first, last, exact).ec == std::errc() && exact < 0) {
        out.data_ = Number{static_cast<double>(exact), static_cast<u64>(exact),
                           Number::Exact::kNegative};
        return true;
      }
    } else if (integer) {
      u64 exact = 0;
      if (std::from_chars(first, last, exact).ec == std::errc()) {
        out.data_ = Number{static_cast<double>(exact), exact, Number::Exact::kUnsigned};
        return true;
      }
    }
    double real = 0.0;
    const auto [end, ec] = std::from_chars(first, last, real);
    if (ec == std::errc::result_out_of_range) {
      // from_chars rejects underflow as well as overflow. An underflow is
      // accepted as strtod rounds it, to a (signed) zero or a subnormal.
      real = std::strtod(std::string(first, last).c_str(), nullptr);
      if (!std::isfinite(real)) return fail("number out of range");
    } else if (ec != std::errc() || end != last) {
      return fail("malformed number");
    }
    out.data_ = Number{real, 0, Number::Exact::kNone};
    return true;
  }

  bool parse_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return fail("malformed literal");
    pos_ += literal.size();
    return true;
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool fail(const char* message) {
    if (error_.empty()) error_ = format("%s (at byte %zu)", message, pos_);
    return false;
  }

  std::string_view text_;
  usize pos_ = 0;
  std::string error_;
  std::vector<JsonValue::Member> members_;  // open objects' members, innermost last
  std::vector<JsonValue> items_;            // open arrays' items, innermost last
};

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return JsonParser(text).parse(error);
}

}  // namespace smtu
