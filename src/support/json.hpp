// Minimal JSON support: a streaming writer so benchmark tables and run
// statistics can be exported for plotting/regression tracking, and a small
// recursive-descent parser so tests and tools can validate those exports.
// The writer produces compact, valid JSON with correct string escaping and
// locale-independent number formatting.
//
// The writer buffers: output reaches the stream when the root value closes,
// whenever 64 KiB have accumulated, and when the writer is destroyed. Do not
// write to the stream yourself while a document is open — those bytes would
// land ahead of the document's buffered tail. Writing after the root closes
// (a trailing newline, say) is fine.
#pragma once

#include <initializer_list>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "support/table.hpp"
#include "support/types.hpp"

namespace smtu {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}
  // Hands any unflushed output (an unfinished document) to the stream.
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  // Containers. Every begin_* must be closed by the matching end_*; the
  // writer tracks commas and aborts on mismatched nesting.
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  // Keys (inside objects) and values (inside arrays or after a key).
  void key(const std::string& name);
  void value(const std::string& text);
  void value(const char* text);
  void value(double number);
  void value(i64 number);
  void value(u64 number);
  void value(bool flag);
  void null();

  // Splices `text` — which must itself be valid JSON — as one value.
  // Used to embed pre-rendered sections (e.g. cached profile JSON) without
  // re-serializing them.
  void raw(std::string_view text);

  // True when every container has been closed.
  bool complete() const { return stack_.empty() && emitted_root_; }

 private:
  enum class Scope : u8 { kObject, kArray };
  struct Frame {
    Scope scope;
    bool first;  // no member/element written yet
  };

  void before_value();
  void after_value();
  void write_string(std::string_view text);
  void flush();

  std::ostream& out_;
  std::string buffer_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;
  bool emitted_root_ = false;
};

// Serializes a TextTable as an array of objects keyed by the header cells.
// Numeric-looking cells are emitted as numbers.
void write_table_as_json(std::ostream& out, const TextTable& table);

// Parsed JSON document. A number keeps the exact value of an integer token
// (no fraction or exponent) that fits in u64, or in i64 when negative, next
// to its nearest double; object member order is preserved so golden tests
// can assert stable key ordering.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Kind kind() const { return static_cast<Kind>(data_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  // Typed accessors abort (SMTU_CHECK) on kind mismatch. as_i64/as_u64 also
  // abort on a number that is not an integer in their range.
  bool as_bool() const;
  double as_double() const;
  i64 as_i64() const;
  u64 as_u64() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;    // array elements
  const std::vector<Member>& members() const;     // object members, in order

  // True for a number read from an integer token that fit: its exact value
  // is what as_u64/as_i64 return.
  bool is_integer() const;
  // The value as u64 when it is a number holding an integer in [0, 2^64);
  // nullopt otherwise (for inputs that must not abort on a bad field).
  std::optional<u64> try_u64() const;

  usize size() const;  // array/object element count

  // Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  // Like find, but aborts when the key is missing.
  const JsonValue& at(std::string_view key) const;

  static JsonValue make_null();
  static JsonValue make_bool(bool flag);
  static JsonValue make_number(double number);
  static JsonValue make_string(std::string text);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<Member> members);

 private:
  friend class JsonParser;

  struct Number {
    enum class Exact : u8 { kNone, kUnsigned, kNegative };
    double real = 0.0;           // nearest double
    u64 bits = 0;                // exact integer (two's complement when kNegative)
    Exact exact = Exact::kNone;  // kNone: not an integer token, or out of range
  };

  // Alternatives in Kind order, so index() is the kind.
  std::variant<std::monostate, bool, Number, std::string, std::vector<JsonValue>,
               std::vector<Member>>
      data_;
};

// Parses a complete JSON document (trailing whitespace allowed, nothing
// else). Returns nullopt on malformed input and, when `error` is non-null,
// stores a one-line description with the byte offset.
std::optional<JsonValue> parse_json(std::string_view text, std::string* error = nullptr);

}  // namespace smtu
