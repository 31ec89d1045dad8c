#include "support/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <memory_resource>
#include <type_traits>

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

constexpr usize kU64Digits = 20;

char* put(char* at, std::string_view text) {
  std::memcpy(at, text.data(), text.size());
  return at + text.size();
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

void JsonWriter::key(std::string_view name) {
  SMTU_CHECK_MSG(!stack_.empty() && stack_.back().scope == Scope::kObject,
                 "key outside of an object");
  SMTU_CHECK_MSG(!pending_key_, "two keys in a row");
  if (!stack_.back().first) buffer_ += ',';
  write_string(name);
  buffer_ += ':';
  pending_key_ = true;
}

void JsonWriter::flat_object(std::initializer_list<JsonField> fields) {
  before_value();
  // Room for the braces, and per member its quoted key, the ':' and ','
  // and its value: a literal, or at most kU64Digits digits.
  usize most = 2;
  for (const JsonField& field : fields) {
    most += field.key_.text().size() + 4 + (field.is_text_ ? field.text_.size() + 2 : kU64Digits);
  }
  const usize start = buffer_.size();
  buffer_.resize(start + most);
  char* at = buffer_.data() + start;
  *at++ = '{';
  for (const JsonField& field : fields) {
    if (&field != fields.begin()) *at++ = ',';
    *at++ = '"';
    at = put(at, field.key_.text());
    *at++ = '"';
    *at++ = ':';
    if (field.is_text_) {
      *at++ = '"';
      at = put(at, field.text_);
      *at++ = '"';
    } else {
      at = std::to_chars(at, at + kU64Digits, field.number_).ptr;
    }
  }
  *at++ = '}';
  buffer_.resize(static_cast<usize>(at - buffer_.data()));
  after_value();
}

void JsonWriter::value(std::string_view text) {
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

// One block holds the whole document: the parser sizes it, and the two
// arrays and the arena of decoded keys and strings take their room from it
// in turn.
struct JsonValue::Document {
  explicit Document(usize bytes) : block(bytes) {}
  std::pmr::monotonic_buffer_resource block;
  JsonValue root;
  std::pmr::vector<JsonValue> items{&block};     // every array's items, each array's run contiguous
  std::pmr::vector<JsonMember> members{&block};  // every object's members, each object's run contiguous
};

static_assert(sizeof(JsonValue) == 16, "a flat value is a tag, a count and one word");

const JsonValue& JsonValue::document_root() const { return payload_.document->root; }

void JsonValue::release() { delete payload_.document; }

bool JsonValue::as_bool() const {
  SMTU_CHECK_MSG(kind_ == Kind::kBool, "JSON value is not a bool");
  return node().payload_.flag;
}

double JsonValue::as_double() const {
  SMTU_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  const auto& payload = node().payload_;
  switch (exact_) {
    case Exact::kUnsigned: return static_cast<double>(payload.bits);
    case Exact::kNegative: return static_cast<double>(static_cast<i64>(payload.bits));
    case Exact::kNone: break;
  }
  return payload.real;
}

i64 JsonValue::as_i64() const {
  SMTU_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  const auto& payload = node().payload_;
  switch (exact_) {
    case Exact::kNegative:
      return static_cast<i64>(payload.bits);
    case Exact::kUnsigned:
      SMTU_CHECK_MSG(payload.bits <= static_cast<u64>(std::numeric_limits<i64>::max()),
                     "JSON number is not an integer in i64 range");
      return static_cast<i64>(payload.bits);
    case Exact::kNone:
      break;
  }
  const double real = payload.real;
  SMTU_CHECK_MSG(real >= -0x1p63 && real < 0x1p63 && std::trunc(real) == real,
                 "JSON number is not an integer in i64 range");
  return static_cast<i64>(real);
}

std::optional<u64> JsonValue::real_as_u64() const {
  if (kind_ != Kind::kNumber || exact_ != Exact::kNone) return std::nullopt;
  const double real = node().payload_.real;
  if (!(real >= 0.0 && real < 0x1p64) || std::trunc(real) != real) return std::nullopt;
  return static_cast<u64>(real);
}

u64 JsonValue::as_u64() const {
  SMTU_CHECK_MSG(is_number(), "JSON value is not a number");
  const std::optional<u64> number = try_u64();
  SMTU_CHECK_MSG(number.has_value(), "JSON number is not an integer in u64 range");
  return *number;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  SMTU_CHECK_MSG(value != nullptr, "missing JSON key " + std::string(key));
  return *value;
}

// ---- parser ----------------------------------------------------------------

namespace {

// Counts the ':' bytes and the ',' or '[' bytes of `text`. Blocks of at
// most 255 bytes keep the tallies in u8 lanes, which compilers vectorize.
std::pair<usize, usize> count_marks(std::string_view text) {
  constexpr usize kBlock = 255;
  usize colons = 0;
  usize item_marks = 0;
  for (usize at = 0; at < text.size(); at += kBlock) {
    const usize end = std::min(text.size(), at + kBlock);
    u8 block_colons = 0;
    u8 block_marks = 0;
    for (usize i = at; i < end; ++i) {
      const char c = text[i];
      block_colons = static_cast<u8>(block_colons + (c == ':'));
      block_marks = static_cast<u8>(block_marks + ((c == ',') | (c == '[')));
    }
    colons += block_colons;
    item_marks += block_marks;
  }
  return {colons, item_marks};
}

}  // namespace

// Fills the flat document in one recursive-descent pass. Each parse_* fills
// `out`, a null JsonValue on entry, and returns false after recording the
// first error.
//
// A container appends its children to the tail of its array (items or
// members) as it reads them. Its children stay contiguous unless a child's
// own descendants land in the same array between two of them: an array
// inside an array, or an object anywhere below an object. Such a container
// gathers its children when it closes. Each container child records where
// its descendants begin in the parent's array, so a walk back from the tail
// steps from child to child over those runs and moves the children to the
// tail in order. A child moves at most once, and the slot it leaves stays
// unused.
class JsonParser {
 public:
  JsonParser(std::string_view text, usize max_count) : text_(text), max_count_(max_count) {
    // Nothing the document holds ever moves, so a container points at its
    // first child and a string into the arena. A decoded string is never
    // longer than its JSON text. Every member has a ':' of its own and every
    // item a '[' or ',' before it, and a gather leaves at most one unused
    // slot per child, so twice those counts is room the arrays never
    // outgrow; has_room keeps them within max_count as well.
    const auto [colons, item_marks] = count_marks(text);
    const usize item_room = std::min(2 * item_marks, max_count);
    const usize member_room = std::min(2 * colons, max_count);
    doc_ = std::make_unique<JsonValue::Document>(item_room * sizeof(JsonValue) +
                                                 member_room * sizeof(JsonMember) + text.size() +
                                                 kBlockSlack);
    doc_->items.reserve(item_room);
    doc_->members.reserve(member_room);
    chars_end_ = static_cast<char*>(doc_->block.allocate(text.size(), 1));
    items_ = doc_->items.data();
    members_ = doc_->members.data();
  }

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue& root = doc_->root;
    if (parse_value(root, 0)) {
      skip_whitespace();
      if (pos_ == text_.size()) {
        // The views and child pointers in the document rely on this.
        SMTU_CHECK(doc_->items.data() == items_ && doc_->members.data() == members_);
        resolve(root);
        // The value handed out owns the document and answers from its root.
        JsonValue handle;
        handle.kind_ = root.kind_;
        handle.exact_ = root.exact_;
        handle.size_ = root.size_;
        handle.owner_ = true;
        handle.payload_.document = doc_.release();
        return handle;
      }
      fail("trailing characters after JSON document");
    }
    if (error) *error = error_;
    return std::nullopt;
  }

 private:
  using Kind = JsonValue::Kind;
  using Exact = JsonValue::Exact;
  static constexpr usize kMaxDepth = 256;
  // Room for aligning the three parts inside the block.
  static constexpr usize kBlockSlack = 64;

  bool parse_value(JsonValue& out, usize depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_container(out, doc_->members, depth);
      case '[': return parse_container(out, doc_->items, depth);
      case '"': {
        std::string_view text;
        if (!parse_string(text)) return false;
        out.kind_ = Kind::kString;
        out.size_ = static_cast<u32>(text.size());
        out.payload_.chars = text.data();
        return true;
      }
      case 't':
      case 'f': {
        const bool flag = text_[pos_] == 't';
        if (!parse_literal(flag ? "true" : "false")) return false;
        out.kind_ = Kind::kBool;
        out.payload_.flag = flag;
        return true;
      }
      case 'n': return parse_literal("null");
      default: return parse_number(out);
    }
  }

  static JsonValue& value_of(JsonValue& item) { return item; }
  static JsonValue& value_of(JsonMember& member) { return member.value; }

  // An object fills `members`, an array `items`: the grammar differs only
  // in the key before each object value.
  template <typename Entry>
  bool parse_container(JsonValue& out, std::pmr::vector<Entry>& entries, usize depth) {
    constexpr bool kObject = std::is_same_v<Entry, JsonMember>;
    constexpr char kClose = kObject ? '}' : ']';
    ++pos_;  // '{' or '['
    const usize start = entries.size();  // where this container's descendants begin
    usize first = start;
    usize count = 0;
    skip_whitespace();
    if (!consume(kClose)) {
      while (true) {
        Entry entry;
        if constexpr (kObject) {
          skip_whitespace();
          if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
          if (!parse_string(entry.key)) return false;
          skip_whitespace();
          if (!consume(':')) return fail("expected ':' after object key");
        }
        const usize subtree = entries.size();
        JsonValue& value = value_of(entry);
        if (!parse_value(value, depth + 1)) return false;
        if (value.is_array() || value.is_object()) {
          value.payload_.pending.subtree = static_cast<u32>(subtree);
        }
        if (!has_room(entries.size(), 1)) return false;
        if (count++ == 0) first = entries.size();
        entries.push_back(std::move(entry));
        skip_whitespace();
        if (consume(',')) continue;
        if (consume(kClose)) break;
        return fail(kObject ? "expected ',' or '}' in object" : "expected ',' or ']' in array");
      }
    }
    if (entries.size() - first != count) {
      if (!has_room(entries.size(), count)) return false;
      first = gather(entries, start, count);
    }
    // The children are in place for good: their own children need no
    // subtree index any more.
    for (usize i = first; i < first + count; ++i) resolve(value_of(entries[i]));
    out.kind_ = kObject ? Kind::kObject : Kind::kArray;
    out.size_ = static_cast<u32>(count);
    out.payload_.pending = {static_cast<u32>(first), 0};
    return true;
  }

  // Points a closed container at its first child.
  void resolve(JsonValue& value) const {
    if (value.kind_ == Kind::kArray) {
      value.payload_.items = items_ + value.payload_.pending.first;
    } else if (value.kind_ == Kind::kObject) {
      value.payload_.members = members_ + value.payload_.pending.first;
    }
  }

  // Moves the `count` children of the container whose descendants begin at
  // `start` to the tail of `entries`, in order, and returns where they now
  // begin. Walking back from the tail, everything between one child and the
  // one before it is the later child's descendants, which begin at its
  // recorded subtree index.
  template <typename Entry>
  static usize gather(std::pmr::vector<Entry>& entries, usize start, usize count) {
    const usize end = entries.size();
    entries.resize(end + count);
    usize to = end + count;
    usize at = end;
    while (at > start) {
      --at;
      const JsonValue& value = value_of(entries[at]);
      const usize previous =
          value.is_array() || value.is_object() ? value.payload_.pending.subtree : at;
      entries[--to] = std::move(entries[at]);
      at = previous;
    }
    return end;
  }

  // True when `used` + `added` stays within the 32-bit counts and indices
  // of the flat layout; records the error otherwise.
  bool has_room(usize used, usize added) {
    if (added <= max_count_ && used <= max_count_ - added) return true;
    return fail("document too large for 32-bit counts");
  }

  // Decodes a string into the arena and points `out` at it.
  bool parse_string(std::string_view& out) {
    char* const begin = chars_end_;
    char* to = begin;
    ++pos_;  // opening quote
    while (true) {
      while (pos_ < text_.size() && !needs_escape(text_[pos_])) *to++ = text_[pos_++];
      if (pos_ >= text_.size()) return fail("unterminated string");
      if (text_[pos_] == '"') {
        if (!has_room(0, static_cast<usize>(to - begin))) return false;
        ++pos_;
        chars_end_ = to;
        out = std::string_view(begin, static_cast<usize>(to - begin));
        return true;
      }
      if (text_[pos_] != '\\') return fail("raw control character in string");
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': *to++ = '"'; break;
        case '\\': *to++ = '\\'; break;
        case '/': *to++ = '/'; break;
        case 'b': *to++ = '\b'; break;
        case 'f': *to++ = '\f'; break;
        case 'n': *to++ = '\n'; break;
        case 'r': *to++ = '\r'; break;
        case 't': *to++ = '\t'; break;
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
          to = write_utf8(to, codepoint);
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

  // Writes `codepoint` as UTF-8 at `to`; returns the end of what it wrote.
  static char* write_utf8(char* to, u32 codepoint) {
    if (codepoint < 0x80) {
      *to++ = static_cast<char>(codepoint);
    } else if (codepoint < 0x800) {
      *to++ = static_cast<char>(0xC0 | (codepoint >> 6));
      *to++ = static_cast<char>(0x80 | (codepoint & 0x3F));
    } else if (codepoint < 0x10000) {
      *to++ = static_cast<char>(0xE0 | (codepoint >> 12));
      *to++ = static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
      *to++ = static_cast<char>(0x80 | (codepoint & 0x3F));
    } else {
      *to++ = static_cast<char>(0xF0 | (codepoint >> 18));
      *to++ = static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F));
      *to++ = static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
      *to++ = static_cast<char>(0x80 | (codepoint & 0x3F));
    }
    return to;
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
    out.kind_ = Kind::kNumber;
    if (integer && negative) {
      i64 exact = 0;
      // "-0" stays a double so its sign survives.
      if (std::from_chars(first, last, exact).ec == std::errc() && exact < 0) {
        out.exact_ = Exact::kNegative;
        out.payload_.bits = static_cast<u64>(exact);
        return true;
      }
    } else if (integer) {
      u64 exact = 0;
      if (std::from_chars(first, last, exact).ec == std::errc()) {
        out.exact_ = Exact::kUnsigned;
        out.payload_.bits = exact;
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
    out.payload_.real = real;
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
  usize max_count_;  // largest array, object or string the layout counts
  std::string error_;
  std::unique_ptr<JsonValue::Document> doc_;  // handed to the root on success
  // Where the reservations put the arrays; they never move.
  const JsonValue* items_;
  const JsonMember* members_;
  char* chars_end_;  // the arena's first unused byte
};

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return JsonParser(text, std::numeric_limits<u32>::max()).parse(error);
}

std::optional<JsonValue> detail::parse_json_with_limit(std::string_view text, usize max_count,
                                                       std::string* error) {
  return JsonParser(text, max_count).parse(error);
}

}  // namespace smtu
