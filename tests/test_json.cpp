#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>

#include "support/json.hpp"
#include "support/rng.hpp"

namespace smtu {
namespace {

// One root value through the writer (the root closing flushes it).
template <typename T>
std::string render(const T& value) {
  std::ostringstream out;
  JsonWriter json(out);
  json.value(value);
  return out.str();
}

std::string printf_double(const char* spec, double number) {
  char text[64];
  std::snprintf(text, sizeof text, spec, number);
  return text;
}

double double_from_bits(u64 bits) {
  double number;
  std::memcpy(&number, &bits, sizeof number);
  return number;
}

u64 bits_of(double number) {
  u64 bits;
  std::memcpy(&bits, &number, sizeof bits);
  return bits;
}

TEST(Json, SimpleObject) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("name");
  json.value("smtu");
  json.key("count");
  json.value(i64{42});
  json.key("ratio");
  json.value(0.5);
  json.key("ok");
  json.value(true);
  json.key("missing");
  json.null();
  json.end_object();
  EXPECT_TRUE(json.complete());
  EXPECT_EQ(out.str(), R"({"name":"smtu","count":42,"ratio":0.5,"ok":true,"missing":null})");
}

TEST(Json, NestedArraysAndObjects) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.value(i64{1});
  json.begin_object();
  json.key("inner");
  json.begin_array();
  json.value(i64{2});
  json.value(i64{3});
  json.end_array();
  json.end_object();
  json.value(i64{4});
  json.end_array();
  EXPECT_EQ(out.str(), R"([1,{"inner":[2,3]},4])");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(render("plain"), R"("plain")");
  EXPECT_EQ(render("a\"b"), R"("a\"b")");
  EXPECT_EQ(render("back\\slash"), R"("back\\slash")");
  EXPECT_EQ(render("line\nbreak"), R"("line\nbreak")");
  EXPECT_EQ(render(std::string("ctl\x01", 4)), R"("ctl\u0001")");
  EXPECT_EQ(render(std::string("\r\t\x1f", 3)), R"("\r\t\u001f")");
  EXPECT_EQ(render(std::string("\0", 1)), R"("\u0000")");
  // DEL and UTF-8 bytes pass through unescaped.
  EXPECT_EQ(render("\x7f \xc3\xa9"), "\"\x7f \xc3\xa9\"");

  // Keys escape exactly like values.
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("k\"\n");
  json.value(std::string("v"));
  json.end_object();
  EXPECT_EQ(out.str(), R"({"k\"\n":"v"})");
}

TEST(Json, LiteralsAndViewsWriteStrings) {
  // A string literal takes the const char* overload, never the bool one; a
  // view need not end in a NUL, as keys and values read back from a
  // document do not.
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key(std::string_view("key-and-more").substr(0, 3));
  json.begin_array();
  json.value("x");
  json.value(std::string_view("y-and-more").substr(0, 1));
  json.value(std::string("z"));
  json.end_array();
  json.end_object();
  EXPECT_EQ(out.str(), R"({"key":["x","y","z"]})");
}

TEST(Json, FlatObjectWritesWhatTheMemberCallsWrite) {
  // The same records through flat_object and through begin_object, key,
  // value and end_object: as array items, as a member's value, as the root,
  // empty, and with the widest u64.
  const u64 widest = std::numeric_limits<u64>::max();
  std::ostringstream fast;
  {
    JsonWriter json(fast);
    json.begin_object();
    json.key("records");
    json.begin_array();
    json.flat_object({{JsonLiteral("id"), u64{0}},
                      {JsonLiteral("outcome"), JsonLiteral("warm")},
                      {JsonLiteral("total_vus"), widest}});
    json.flat_object({});
    json.flat_object({{JsonLiteral("outcome"), JsonLiteral("")}});
    json.end_array();
    json.key("last");
    json.flat_object({{JsonLiteral("n"), u64{42}}});
    json.end_object();
  }
  std::ostringstream slow;
  {
    JsonWriter json(slow);
    json.begin_object();
    json.key("records");
    json.begin_array();
    json.begin_object();
    json.key("id");
    json.value(u64{0});
    json.key("outcome");
    json.value("warm");
    json.key("total_vus");
    json.value(widest);
    json.end_object();
    json.begin_object();
    json.end_object();
    json.begin_object();
    json.key("outcome");
    json.value("");
    json.end_object();
    json.end_array();
    json.key("last");
    json.begin_object();
    json.key("n");
    json.value(u64{42});
    json.end_object();
    json.end_object();
  }
  EXPECT_EQ(fast.str(), slow.str());
  EXPECT_EQ(fast.str(),
            R"({"records":[{"id":0,"outcome":"warm","total_vus":18446744073709551615},{},)"
            R"({"outcome":""}],"last":{"n":42}})");

  std::ostringstream root;
  {
    JsonWriter json(root);
    json.flat_object({{JsonLiteral("k"), u64{1}}});
    EXPECT_TRUE(json.complete());
  }
  EXPECT_EQ(root.str(), R"({"k":1})");
}

TEST(Json, WriterBuffersUntilTheRootCloses) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_array();
    json.value(i64{1});
    EXPECT_EQ(out.str(), "");
    json.end_array();
    EXPECT_EQ(out.str(), "[1]");
    out << '\n';  // writing after the root closes lands after the document
  }
  EXPECT_EQ(out.str(), "[1]\n");

  // A long document reaches the stream in steps, before it closes.
  std::ostringstream big;
  {
    JsonWriter json(big);
    json.begin_array();
    const std::string chunk(1000, 'x');
    for (int i = 0; i < 100; ++i) json.value(chunk);
    EXPECT_GE(big.str().size(), usize{64} << 10);
    json.end_array();
  }
  EXPECT_EQ(big.str().size(), usize{2 + 100 * 1002 + 99});

  // The destructor hands over an unfinished document.
  std::ostringstream partial;
  {
    JsonWriter json(partial);
    json.begin_object();
    json.key("k");
  }
  EXPECT_EQ(partial.str(), R"({"k":)");
}

// ---- golden byte identity ------------------------------------------------------
// The writer's numbers are pinned to the printf formats every artifact in
// this repository was produced with: %.12g for doubles, %lld / %llu for
// integers.

TEST(JsonGolden, DoublesMatchPrintf) {
  const double table[] = {
      0.1, -0.0, 0.0, 1e21, 1e-7, 5e-324, DBL_MAX, -DBL_MAX, DBL_MIN,
      123456789012.5, 123456789012.0, 1234567890123.0, 999999999999.5,
      0.5, 2.0 / 3.0, -1.5, 1e15, 1e16, 100.0, 0.0001, 0.00001, 1e-300,
  };
  for (const double number : table) {
    EXPECT_EQ(render(number), printf_double("%.12g", number)) << printf_double("%a", number);
  }

  // Uniform bit patterns reach every exponent, subnormals and non-finites.
  Rng rng(0x9E7D0B1E);
  int mismatches = 0;
  for (int i = 0; i < 100000; ++i) {
    const double number = double_from_bits(rng.next_u64());
    const std::string expected =
        std::isfinite(number) ? printf_double("%.12g", number) : std::string("null");
    const std::string written = render(number);
    if (written != expected && ++mismatches <= 5) {
      ADD_FAILURE() << printf_double("%a", number) << ": " << written << " vs " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonGolden, IntegerExtremesMatchPrintf) {
  for (const i64 number : {std::numeric_limits<i64>::min(), std::numeric_limits<i64>::min() + 1,
                           i64{-1}, i64{0}, i64{1}, i64{1} << 53,
                           std::numeric_limits<i64>::max()}) {
    char text[32];
    std::snprintf(text, sizeof text, "%lld", static_cast<long long>(number));
    EXPECT_EQ(render(number), text);
  }
  for (const u64 number : {u64{0}, u64{1}, (u64{1} << 53) + 1, u64{1} << 63,
                           std::numeric_limits<u64>::max()}) {
    char text[32];
    std::snprintf(text, sizeof text, "%llu", static_cast<unsigned long long>(number));
    EXPECT_EQ(render(number), text);
  }
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(out.str(), "[null,null]");
}

TEST(Json, TableSerialization) {
  TextTable table({"matrix", "nnz", "speedup"});
  table.add_row({"qc324-syn", "60006", "21.2"});
  table.add_row({"bcspwr10-syn", "60002", "2.8"});
  std::ostringstream out;
  write_table_as_json(out, table);
  EXPECT_EQ(out.str(),
            "[{\"matrix\":\"qc324-syn\",\"nnz\":60006,\"speedup\":21.2},"
            "{\"matrix\":\"bcspwr10-syn\",\"nnz\":60002,\"speedup\":2.8}]\n");
}

TEST(Json, TableKeepsNonNumericCellsAsStrings) {
  TextTable table({"a", "b"});
  table.add_row({"1.5x", "12%"});
  std::ostringstream out;
  write_table_as_json(out, table);
  EXPECT_EQ(out.str(), "[{\"a\":\"1.5x\",\"b\":\"12%\"}]\n");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_EQ(parse_json("true")->as_bool(), true);
  EXPECT_EQ(parse_json("false")->as_bool(), false);
  EXPECT_EQ(parse_json("42")->as_i64(), 42);
  EXPECT_EQ(parse_json("-7")->as_i64(), -7);
  EXPECT_DOUBLE_EQ(parse_json("-3.5")->as_double(), -3.5);
  EXPECT_DOUBLE_EQ(parse_json("1.25e2")->as_double(), 125.0);
  EXPECT_EQ(parse_json("\"hi\"")->as_string(), "hi");
  EXPECT_EQ(parse_json("  [1, 2]  ")->size(), 2u);
}

TEST(JsonParse, ObjectPreservesMemberOrder) {
  const auto doc = parse_json(R"({"zeta":1,"alpha":2,"mid":3})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  ASSERT_EQ(doc->size(), 3u);
  EXPECT_EQ(doc->members()[0].key, "zeta");
  EXPECT_EQ(doc->members()[1].key, "alpha");
  EXPECT_EQ(doc->members()[2].key, "mid");
  EXPECT_EQ(doc->at("alpha").as_u64(), 2u);
  EXPECT_EQ(doc->find("absent"), nullptr);

  // A repeated key keeps both members; find returns the first.
  const auto repeated = parse_json(R"({"k":1,"x":2,"k":3})");
  ASSERT_TRUE(repeated.has_value());
  EXPECT_EQ(repeated->size(), 3u);
  EXPECT_EQ(repeated->at("k").as_u64(), 1u);
  EXPECT_EQ(repeated->members()[2].value.as_u64(), 3u);
}

TEST(JsonParse, NestedContainersKeepTheirChildrenInOrder) {
  // Arrays inside arrays and objects below objects put their own children
  // between their parent's; every container still sees its own, in order.
  const auto doc = parse_json(
      R"([[1,[2,[3]],4],[],{"a":{"b":[{"c":5},{}],"d":6},"e":[7]},[[[]],8]])");
  ASSERT_TRUE(doc.has_value());
  const auto items = doc->items();
  ASSERT_EQ(items.size(), 4u);
  ASSERT_EQ(items[0].size(), 3u);
  EXPECT_EQ(items[0].items()[0].as_u64(), 1u);
  EXPECT_EQ(items[0].items()[1].items()[0].as_u64(), 2u);
  EXPECT_EQ(items[0].items()[1].items()[1].items()[0].as_u64(), 3u);
  EXPECT_EQ(items[0].items()[2].as_u64(), 4u);
  EXPECT_EQ(items[1].size(), 0u);
  const JsonValue& object = items[2];
  ASSERT_EQ(object.size(), 2u);
  EXPECT_EQ(object.members()[0].key, "a");
  EXPECT_EQ(object.members()[1].key, "e");
  EXPECT_EQ(object.at("a").members()[0].key, "b");
  EXPECT_EQ(object.at("a").at("b").items()[0].at("c").as_u64(), 5u);
  EXPECT_EQ(object.at("a").at("b").items()[1].size(), 0u);
  EXPECT_EQ(object.at("a").at("d").as_u64(), 6u);
  EXPECT_EQ(object.at("e").items()[0].as_u64(), 7u);
  ASSERT_EQ(items[3].size(), 2u);
  EXPECT_EQ(items[3].items()[0].items()[0].size(), 0u);
  EXPECT_EQ(items[3].items()[1].as_u64(), 8u);
}

TEST(JsonParse, ViewsOutliveAMoveOfTheRoot) {
  std::optional<JsonValue> doc = parse_json(R"({"name":"smtu","list":[1,2]})");
  ASSERT_TRUE(doc.has_value());
  const std::string_view name = doc->at("name").as_string();
  const auto list = doc->at("list").items();
  const JsonValue root = std::move(*doc);
  doc.reset();
  EXPECT_EQ(name, "smtu");
  EXPECT_EQ(list[1].as_u64(), 2u);
  EXPECT_EQ(root.members()[0].key, "name");
}

TEST(JsonParse, CountsPastTheLimitAreRejectedAtAnOffset) {
  // The flat layout counts in 32 bits; a document past that is rejected,
  // not wrapped. A lowered limit reaches the same check on small inputs.
  std::string error;
  EXPECT_TRUE(detail::parse_json_with_limit("[1,2]", 2, &error).has_value()) << error;
  EXPECT_FALSE(detail::parse_json_with_limit("[1,2,3]", 2, &error).has_value());
  EXPECT_EQ(error, "document too large for 32-bit counts (at byte 6)");
  EXPECT_FALSE(detail::parse_json_with_limit(R"({"a":1,"b":2,"c":3})", 2, &error).has_value());
  EXPECT_NE(error.find("too large"), std::string::npos) << error;
  EXPECT_TRUE(detail::parse_json_with_limit(R"("abcd")", 4, &error).has_value()) << error;
  EXPECT_FALSE(detail::parse_json_with_limit(R"("abcde")", 4, &error).has_value());
  EXPECT_EQ(error, "document too large for 32-bit counts (at byte 6)");
  // Gathering the outer array's interleaved children needs two more slots.
  EXPECT_TRUE(detail::parse_json_with_limit("[[1],[2]]", 6, &error).has_value()) << error;
  EXPECT_FALSE(detail::parse_json_with_limit("[[1],[2]]", 5, &error).has_value());
  EXPECT_EQ(error, "document too large for 32-bit counts (at byte 9)");
}

TEST(JsonParse, NestedStructure) {
  const auto doc = parse_json(R"({"rows":[{"name":"a","v":[1,2]},{"name":"b","v":[]}]})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue& rows = doc->at("rows");
  ASSERT_TRUE(rows.is_array());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.items()[0].at("name").as_string(), "a");
  EXPECT_EQ(rows.items()[0].at("v").items()[1].as_i64(), 2);
  EXPECT_EQ(rows.items()[1].at("v").size(), 0u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd")")->as_string(), "a\"b\\c\nd");
  EXPECT_EQ(parse_json("\"\\u0041\\u00e9\"")->as_string(), "A\xc3\xa9");
  // A \u surrogate pair decodes to one 4-byte UTF-8 sequence (U+1F600).
  EXPECT_EQ(parse_json("\"\\ud83d\\ude00\"")->as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, MalformedInputsReportOffset) {
  std::string error;
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":1} extra", &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos);
  EXPECT_NE(error.find("at byte"), std::string::npos);
  EXPECT_FALSE(parse_json("\"unterminated", &error).has_value());
  EXPECT_FALSE(parse_json("[1,]", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\" 1}", &error).has_value());
  EXPECT_FALSE(parse_json("nul", &error).has_value());
  EXPECT_FALSE(parse_json("01", &error).has_value());
  EXPECT_FALSE(parse_json("\"\x01\"", &error).has_value());
  EXPECT_FALSE(parse_json(R"("\ud83d")", &error).has_value());
}

TEST(JsonParse, RejectsRunawayNesting) {
  const std::string deep(400, '[');
  std::string error;
  EXPECT_FALSE(parse_json(deep + std::string(400, ']'), &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos);
}

TEST(JsonParse, WriterOutputRoundTrips) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("text");
  json.value("line\nbreak \"quoted\"");
  json.key("big");
  json.value(u64{1} << 53);
  json.key("neg");
  json.value(i64{-12});
  json.key("list");
  json.begin_array();
  json.value(0.25);
  json.value(false);
  json.null();
  json.end_array();
  json.end_object();
  ASSERT_TRUE(json.complete());

  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("text").as_string(), "line\nbreak \"quoted\"");
  EXPECT_EQ(doc->at("big").as_u64(), u64{1} << 53);
  EXPECT_EQ(doc->at("neg").as_i64(), -12);
  EXPECT_DOUBLE_EQ(doc->at("list").items()[0].as_double(), 0.25);
  EXPECT_EQ(doc->at("list").items()[1].as_bool(), false);
  EXPECT_TRUE(doc->at("list").items()[2].is_null());
}

TEST(JsonParse, NumbersMatchStrtod) {
  Rng rng(0x57D70D);
  int mismatches = 0;
  for (int i = 0; i < 100000; ++i) {
    const double number = double_from_bits(rng.next_u64());
    if (!std::isfinite(number)) continue;
    for (const char* spec : {"%.17g", "%.12g"}) {
      const std::string text = printf_double(spec, number);
      const auto parsed = parse_json(text);
      const double expected = std::strtod(text.c_str(), nullptr);
      if ((!parsed || bits_of(parsed->as_double()) != bits_of(expected)) && ++mismatches <= 5) {
        ADD_FAILURE() << text;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonParse, UnderflowIsZeroAndOverflowIsRejected) {
  EXPECT_EQ(bits_of(parse_json("1e-400")->as_double()), bits_of(0.0));
  EXPECT_EQ(bits_of(parse_json("2e-324")->as_double()), bits_of(0.0));
  EXPECT_EQ(bits_of(parse_json("-1e-400")->as_double()), bits_of(-0.0));
  EXPECT_EQ(parse_json("5e-324")->as_double(), std::numeric_limits<double>::denorm_min());
  std::string error;
  EXPECT_FALSE(parse_json("1e400", &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_FALSE(parse_json("[-1e400]", &error).has_value());
}

TEST(JsonParse, IntegersAreExact) {
  EXPECT_EQ(parse_json("18446744073709551615")->as_u64(), std::numeric_limits<u64>::max());
  EXPECT_EQ(parse_json("1152921504606846979")->as_u64(), (u64{1} << 60) + 3);
  EXPECT_EQ(parse_json("-9223372036854775808")->as_i64(), std::numeric_limits<i64>::min());
  EXPECT_EQ(parse_json("9223372036854775807")->as_i64(), std::numeric_limits<i64>::max());
  EXPECT_TRUE(parse_json("42")->is_integer());
  EXPECT_TRUE(parse_json("-42")->is_integer());
  // The double view of an exact integer is its nearest double.
  EXPECT_EQ(parse_json("9007199254740993")->as_double(), 9007199254740992.0);

  // A fraction or exponent makes a real; an integral real still converts.
  EXPECT_FALSE(parse_json("42.0")->is_integer());
  EXPECT_EQ(parse_json("42.0")->as_u64(), 42u);
  EXPECT_EQ(parse_json("-1e3")->as_i64(), -1000);
  // "-0" keeps its sign, as a real.
  EXPECT_FALSE(parse_json("-0")->is_integer());
  EXPECT_TRUE(std::signbit(parse_json("-0")->as_double()));
  // Past u64 the token is a real: still a number, no longer an integer.
  const auto huge = parse_json("18446744073709551616");
  ASSERT_TRUE(huge.has_value());
  EXPECT_FALSE(huge->is_integer());
  EXPECT_EQ(huge->as_double(), 0x1p64);

  EXPECT_FALSE(huge->try_u64().has_value());
  EXPECT_FALSE(parse_json("-1")->try_u64().has_value());
  EXPECT_FALSE(parse_json("2.5")->try_u64().has_value());
  EXPECT_FALSE(parse_json("\"7\"")->try_u64().has_value());
  EXPECT_EQ(parse_json("7")->try_u64().value_or(0), 7u);
}

TEST(JsonDeathTest, IntegerAccessorsRejectNonIntegers) {
  EXPECT_DEATH(parse_json("2.5")->as_u64(), "not an integer in u64 range");
  EXPECT_DEATH(parse_json("-1")->as_u64(), "not an integer in u64 range");
  EXPECT_DEATH(parse_json("18446744073709551616")->as_u64(), "not an integer in u64 range");
  EXPECT_DEATH(parse_json("9223372036854775808")->as_i64(), "not an integer in i64 range");
  EXPECT_DEATH(parse_json("-0.5")->as_i64(), "not an integer in i64 range");
  EXPECT_DEATH(parse_json("1e300")->as_i64(), "not an integer in i64 range");
}

TEST(JsonDeathTest, MisuseAborts) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    EXPECT_DEATH(json.value(i64{1}), "needs a key");
  }
  {
    JsonWriter json(out);
    json.begin_array();
    EXPECT_DEATH(json.key("nope"), "outside of an object");
  }
  {
    JsonWriter json(out);
    json.begin_array();
    EXPECT_DEATH(json.end_object(), "mismatched");
  }
  {
    JsonWriter json(out);
    json.begin_object();
    EXPECT_DEATH(json.flat_object({}), "needs a key");
  }
}

}  // namespace
}  // namespace smtu
