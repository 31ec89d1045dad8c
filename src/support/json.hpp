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
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/table.hpp"
#include "support/types.hpp"

namespace smtu {

// A string spelled in the source that JSON writes as it stands: the
// constructor runs at compile time and rejects any text that would need
// escaping. text() views the literal itself, so its data() ends in a NUL.
class JsonLiteral {
 public:
  template <usize N>
  explicit consteval JsonLiteral(const char (&text)[N]) : text_(text, N - 1) {
    for (const char c : text_) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        throw "JsonLiteral: the text needs escaping";
      }
    }
  }
  std::string_view text() const { return text_; }

 private:
  std::string_view text_;
};

// One member of an object written by JsonWriter::flat_object: a literal key
// and an unsigned integer or a literal string.
class JsonField {
 public:
  JsonField(JsonLiteral key, u64 number) : key_(key), number_(number) {}
  JsonField(JsonLiteral key, JsonLiteral text) : key_(key), text_(text.text()), is_text_(true) {}

 private:
  friend class JsonWriter;
  JsonLiteral key_;
  u64 number_ = 0;
  std::string_view text_;
  bool is_text_ = false;
};

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
  void key(std::string_view name);
  void value(std::string_view text);
  void value(const char* text);  // a string literal, not the bool overload
  void value(double number);
  void value(i64 number);
  void value(u64 number);
  void value(bool flag);
  void null();

  // One object of these members, byte for byte what begin_object, key,
  // value and end_object would write, formatted in one pass: for documents
  // that hold many small records.
  void flat_object(std::initializer_list<JsonField> fields);

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

struct JsonMember;

// Parsed JSON document. A number keeps the exact value of an integer token
// (no fraction or exponent) that fits in u64, or in i64 when negative, next
// to its nearest double; object member order is preserved so golden tests
// can assert stable key ordering.
//
// The document is flat: every array's items sit contiguously in one value
// array, every object's members contiguously in one member array, and every
// decoded key and string in one byte arena, all in one block sized before
// the parse. A container is its first child and a count, a string a view
// into the arena, so no value, key or string has an allocation of its own.
//
// Lifetime: the root value parse_json returns owns the document. Every
// value, span, member key and string view reached from it lives exactly as
// long as the root (moving the root keeps them valid); none outlives it.
// Values are move-only, so no copy can outlive the root either.
class JsonValue {
 public:
  enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  JsonValue(JsonValue&& other) noexcept { take(other); }
  JsonValue& operator=(JsonValue&& other) noexcept {
    if (this != &other) {
      if (owner_) release();
      take(other);
    }
    return *this;
  }
  JsonValue(const JsonValue&) = delete;
  JsonValue& operator=(const JsonValue&) = delete;
  ~JsonValue() {
    if (owner_) release();
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors abort (SMTU_CHECK) on kind mismatch. as_i64/as_u64 also
  // abort on a number that is not an integer in their range.
  bool as_bool() const;
  double as_double() const;
  i64 as_i64() const;
  u64 as_u64() const;
  std::string_view as_string() const {
    SMTU_CHECK_MSG(kind_ == Kind::kString, "JSON value is not a string");
    return {node().payload_.chars, size_};
  }
  std::span<const JsonValue> items() const {  // array elements
    SMTU_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
    return {node().payload_.items, size_};
  }
  std::span<const JsonMember> members() const;  // object members, in order

  // True for a number read from an integer token that fit: its exact value
  // is what as_u64/as_i64 return.
  bool is_integer() const { return kind_ == Kind::kNumber && exact_ != Exact::kNone; }
  // The value as u64 when it is a number holding an integer in [0, 2^64);
  // nullopt otherwise (for inputs that must not abort on a bad field).
  std::optional<u64> try_u64() const {
    if (kind_ == Kind::kNumber && exact_ == Exact::kUnsigned) return node().payload_.bits;
    return real_as_u64();
  }

  usize size() const {  // array/object element count
    SMTU_CHECK_MSG(kind_ == Kind::kArray || kind_ == Kind::kObject, "JSON value has no size");
    return size_;
  }

  // Object member lookup: the first member with this key; nullptr when
  // absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  // Like find, but aborts when the key is missing.
  const JsonValue& at(std::string_view key) const;

 private:
  friend class JsonParser;
  struct Document;  // the root value, the flat arrays and the arena

  enum class Exact : u8 { kNone, kUnsigned, kNegative };

  // The value whose payload answers for this one: the document's root for
  // the value parse_json returns, which holds the document instead.
  const JsonValue& node() const { return owner_ ? document_root() : *this; }
  const JsonValue& document_root() const;
  void take(JsonValue& other) {
    kind_ = other.kind_;
    exact_ = other.exact_;
    owner_ = std::exchange(other.owner_, false);
    size_ = other.size_;
    payload_ = other.payload_;
  }
  void release();                          // deletes the document; the root's job
  std::optional<u64> real_as_u64() const;  // try_u64 past the exact unsigned case

  // While parsing, from a container's close to its parent's.
  struct Pending {
    u32 first;    // index of its first child in its array
    u32 subtree;  // where its descendants begin in its parent's array
  };

  Kind kind_ = Kind::kNull;
  Exact exact_ = Exact::kNone;  // numbers: which of bits/real holds the value
  bool owner_ = false;          // the value parse_json returned: payload_.document
  u32 size_ = 0;                // string bytes, array items or object members
  union {
    u64 bits;                   // exact integer, two's complement when negative
    double real;                // number that is not an exact integer
    bool flag;
    const char* chars;          // string bytes in the arena
    const JsonValue* items;     // an array's first item
    const JsonMember* members;  // an object's first member
    const Document* document;   // owned; its root value answers for this one
    Pending pending;
  } payload_{};
};

struct JsonMember {
  std::string_view key;
  JsonValue value;
};

inline std::span<const JsonMember> JsonValue::members() const {
  SMTU_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  return {node().payload_.members, size_};
}

inline const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const JsonMember& member : members()) {
    if (member.key == key) return &member.value;
  }
  return nullptr;
}

// Parses a complete JSON document (trailing whitespace allowed, nothing
// else). Returns nullopt on malformed input and, when `error` is non-null,
// stores a one-line description with the byte offset. A document whose
// arrays, objects or strings would overflow the flat layout's 32-bit counts
// is rejected the same way.
std::optional<JsonValue> parse_json(std::string_view text, std::string* error = nullptr);

namespace detail {
// parse_json with the 32-bit limit on counts and string lengths lowered to
// `max_count`, so tests reach that diagnostic without a 4 GiB document.
std::optional<JsonValue> parse_json_with_limit(std::string_view text, usize max_count,
                                               std::string* error);
}  // namespace detail

}  // namespace smtu
