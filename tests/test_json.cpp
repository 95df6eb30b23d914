#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <limits>
#include <string>
#include <vector>

#include "backend/instruction_stream.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"
#include "serve/protocol.hpp"

namespace pimcomp {
namespace {

TEST(JsonValue, Scalars) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_FALSE(Json(false).as_bool());
  EXPECT_DOUBLE_EQ(Json(3.5).as_number(), 3.5);
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json("hello").as_string(), "hello");
}

TEST(JsonValue, TypeMismatchThrows) {
  EXPECT_THROW(Json(1.0).as_string(), JsonError);
  EXPECT_THROW(Json("x").as_number(), JsonError);
  EXPECT_THROW(Json().as_bool(), JsonError);
  EXPECT_THROW(Json(1).at("key"), JsonError);
  EXPECT_THROW(Json(1).at(std::size_t{0}), JsonError);
}

TEST(JsonValue, ArrayOperations) {
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Json::array());
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.at(std::size_t{0}).as_int(), 1);
  EXPECT_EQ(arr.at(1).as_string(), "two");
  EXPECT_THROW(arr.at(3), JsonError);
}

TEST(JsonValue, ObjectOperations) {
  Json obj = Json::object();
  obj["a"] = 1;
  obj["b"] = "text";
  obj["a"] = 2;  // overwrite
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_FALSE(obj.contains("z"));
  EXPECT_EQ(obj.at("a").as_int(), 2);
  EXPECT_EQ(obj.size(), 2u);
  EXPECT_THROW(obj.at("missing"), JsonError);
}

TEST(JsonValue, GetWithFallback) {
  Json obj = Json::object();
  obj["x"] = 5;
  EXPECT_EQ(obj.get("x", 0), 5);
  EXPECT_EQ(obj.get("y", 7), 7);
  EXPECT_EQ(obj.get("name", std::string("none")), "none");
  EXPECT_TRUE(obj.get("flag", true));
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  Json obj = Json::object();
  obj["zebra"] = 1;
  obj["apple"] = 2;
  obj["mango"] = 3;
  const auto& items = obj.items();
  EXPECT_EQ(items[0].first, "zebra");
  EXPECT_EQ(items[1].first, "apple");
  EXPECT_EQ(items[2].first, "mango");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e2").as_number(), -250.0);
  EXPECT_EQ(Json::parse("\"str\"").as_string(), "str");
}

TEST(JsonParse, NestedDocument) {
  const Json doc = Json::parse(R"({
    "name": "vgg16",
    "input": [3, 224, 224],
    "nodes": [{"op": "conv", "stride": 1}, {"op": "pool"}]
  })");
  EXPECT_EQ(doc.at("name").as_string(), "vgg16");
  EXPECT_EQ(doc.at("input").size(), 3u);
  EXPECT_EQ(doc.at("input").at(1).as_int(), 224);
  EXPECT_EQ(doc.at("nodes").at(std::size_t{0}).at("op").as_string(), "conv");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(Json::parse(R"("q\"q")").as_string(), "q\"q");
  EXPECT_EQ(Json::parse(R"("back\\slash")").as_string(), "back\\slash");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(JsonParse, Whitespace) {
  EXPECT_EQ(Json::parse("  [ 1 , 2 ]  ").size(), 2u);
  EXPECT_EQ(Json::parse("{ }").size(), 0u);
  EXPECT_EQ(Json::parse("[]").size(), 0u);
}

TEST(JsonParse, MalformedThrows) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":}"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("[1] trailing"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
}

TEST(JsonDump, CompactAndPretty) {
  Json obj = Json::object();
  obj["a"] = 1;
  Json arr = Json::array();
  arr.push_back(2);
  obj["b"] = std::move(arr);
  EXPECT_EQ(obj.dump(-1), "{\"a\":1,\"b\":[2]}");
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find("\n"), std::string::npos);
}

// One document that exercises every formatting rule: integers below 9e15,
// 17 significant digits otherwise, -0.0, every escape, control bytes and
// empty containers. The expected bytes are what caches, peers and
// fingerprints already hold: never edit them to fit a change.
Json golden_document() {
  Json doc = Json::object();
  doc["int"] = 42;
  doc["negative"] = -7;
  doc["two_pow_53"] = std::int64_t{1} << 53;
  doc["below_9e15"] = 9e15 - 1;
  doc["at_9e15"] = 9e15;
  doc["above_9e15"] = 9e15 + 1;
  doc["tenth"] = 0.1;
  doc["tiny"] = -2.5e-7;
  doc["huge"] = 1e300;
  doc["negative_zero"] = -0.0;
  doc["escapes"] = "quote\" backslash\\ newline\n tab\t return\r slash/";
  doc["control"] = std::string("bell\x07") + '\0' + "unit\x1f";
  doc["empty_array"] = Json::array();
  doc["empty_object"] = Json::object();
  Json nested = Json::array();
  nested.push_back(true);
  nested.push_back(false);
  nested.push_back(Json());
  Json inner = Json::object();
  inner["k"] = Json::array();
  nested.push_back(std::move(inner));
  doc["nested"] = std::move(nested);
  return doc;
}

TEST(JsonDump, GoldenBytes) {
  const Json doc = golden_document();
  EXPECT_EQ(doc.dump(-1),
            R"({"int":42,"negative":-7,"two_pow_53":9007199254740992,"below_9e15":8999999999999999,"at_9e15":9000000000000000,"above_9e15":9000000000000001,"tenth":0.10000000000000001,"tiny":-2.4999999999999999e-07,"huge":1.0000000000000001e+300,"negative_zero":0,"escapes":"quote\" backslash\\ newline\n tab\t return\r slash/","control":"bell\u0007\u0000unit\u001f","empty_array":[],"empty_object":{},"nested":[true,false,null,{"k":[]}]})");
  EXPECT_EQ(doc.dump(2), R"({
  "int": 42,
  "negative": -7,
  "two_pow_53": 9007199254740992,
  "below_9e15": 8999999999999999,
  "at_9e15": 9000000000000000,
  "above_9e15": 9000000000000001,
  "tenth": 0.10000000000000001,
  "tiny": -2.4999999999999999e-07,
  "huge": 1.0000000000000001e+300,
  "negative_zero": 0,
  "escapes": "quote\" backslash\\ newline\n tab\t return\r slash/",
  "control": "bell\u0007\u0000unit\u001f",
  "empty_array": [],
  "empty_object": {},
  "nested": [
    true,
    false,
    null,
    {
      "k": []
    }
  ]
})");
  // Indent 0 (newlines, no padding) is what graph fingerprints hash.
  EXPECT_EQ(doc.dump(0), R"({
"int": 42,
"negative": -7,
"two_pow_53": 9007199254740992,
"below_9e15": 8999999999999999,
"at_9e15": 9000000000000000,
"above_9e15": 9000000000000001,
"tenth": 0.10000000000000001,
"tiny": -2.4999999999999999e-07,
"huge": 1.0000000000000001e+300,
"negative_zero": 0,
"escapes": "quote\" backslash\\ newline\n tab\t return\r slash/",
"control": "bell\u0007\u0000unit\u001f",
"empty_array": [],
"empty_object": {},
"nested": [
true,
false,
null,
{
"k": []
}
]
})");
  // The bytes parse back to the same bytes.
  EXPECT_EQ(Json::parse(doc.dump(-1)).dump(-1), doc.dump(-1));
  EXPECT_EQ(Json::parse(doc.dump(2)).dump(-1), doc.dump(-1));
}

TEST(JsonDump, IntegersStayIntegral) {
  EXPECT_EQ(Json(1000000).dump(-1), "1000000");
  EXPECT_EQ(Json(static_cast<std::int64_t>(1) << 40).dump(-1),
            "1099511627776");
}

TEST(JsonParse, NestingCapThrowsInsteadOfOverflowingTheStack) {
  const auto arrays = [](int depth) {
    const auto n = static_cast<std::size_t>(depth);
    return std::string(n, '[') + std::string(n, ']');
  };
  const auto objects = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += "{\"k\":";
    return text + "0" + std::string(static_cast<std::size_t>(depth), '}');
  };
  EXPECT_NO_THROW(Json::parse(arrays(Json::kMaxDepth)));
  EXPECT_NO_THROW(Json::parse(objects(Json::kMaxDepth)));
  EXPECT_THROW(Json::parse(arrays(Json::kMaxDepth + 1)), JsonError);
  EXPECT_THROW(Json::parse(objects(Json::kMaxDepth + 1)), JsonError);
  // Far past the cap, and unterminated: the cap trips before the end of
  // input, so a hostile line costs one bounded descent.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), JsonError);
  EXPECT_THROW(Json::parse(arrays(100000)), JsonError);
  // Depth counts arrays and objects together.
  const auto mixed = [](int pairs) {
    std::string text;
    for (int i = 0; i < pairs; ++i) text += "[{\"k\":";
    text += "0";
    for (int i = 0; i < pairs; ++i) text += "}]";
    return text;
  };
  EXPECT_NO_THROW(Json::parse(mixed(Json::kMaxDepth / 2)));
  EXPECT_THROW(Json::parse(mixed(Json::kMaxDepth / 2 + 1)), JsonError);
}

TEST(JsonParse, NumberTokenMustBeConsumedEntirely) {
  for (const char* bad :
       {"[1-2, 3]", "1.5e", "1e5.3", "1e", "1e+", "-", "--1", "01", "-01",
        ".5", "5.", "1..2", "+1", "1.2.3", "0x10", "1e5e5", "[1 2]",
        "-inf", "inf", "nan", "1E"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(Json::parse(bad), JsonError);
  }
  EXPECT_EQ(Json::parse("0").as_number(), 0.0);
  EXPECT_EQ(Json::parse("-0").dump(-1), "0");
  EXPECT_EQ(Json::parse("[1,-2,3]").dump(-1), "[1,-2,3]");
  EXPECT_DOUBLE_EQ(Json::parse("1E5").as_number(), 1e5);
  EXPECT_DOUBLE_EQ(Json::parse("1e+5").as_number(), 1e5);
  EXPECT_DOUBLE_EQ(Json::parse("-0.25e-2").as_number(), -0.0025);
  EXPECT_DOUBLE_EQ(Json::parse("10.5").as_number(), 10.5);
}

TEST(JsonParse, ExtremeDoublesRoundTrip) {
  const double cases[] = {
      4.9406564584124654e-324,  // smallest subnormal
      -4.9406564584124654e-324,
      2.2250738585072009e-308,  // largest subnormal
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::denorm_min() * 3,
  };
  for (const double d : cases) {
    SCOPED_TRACE(d);
    const std::string text = Json(d).dump(-1);
    const double back = Json::parse(text).as_number();
    EXPECT_EQ(back, d);
    EXPECT_EQ(Json(back).dump(-1), text);
  }
  EXPECT_THROW(Json::parse("1e400"), JsonError);
  EXPECT_THROW(Json::parse("-1e400"), JsonError);
}

TEST(JsonParse, DuplicateKeyOverwritesInFirstPosition) {
  const Json doc = Json::parse(R"({"a":1,"b":2,"a":[3]})");
  EXPECT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.dump(-1), R"({"a":[3],"b":2})");
}

TEST(JsonParse, WhitespaceIsTheCLocaleSet) {
  EXPECT_EQ(Json::parse(" \t\n\v\f\r[1]\r\n").size(), 1u);
  EXPECT_THROW(Json::parse("\xa0[1]"), JsonError);
}

// ---------------------------------------------------------------------------
// parse_fields: the header-only read the fleet router relays frames with.
// ---------------------------------------------------------------------------

/// A real artifact frame: a small network lowered through isa-json.
std::string real_artifact_frame() {
  GraphBuilder b("json-fields-cnn", {3, 16, 16});
  NodeId x = b.input();
  x = b.conv_relu(x, 8, 3, /*stride=*/1, /*padding=*/1, "conv1");
  x = b.max_pool(x, 2, 2, 0, "pool1");
  x = b.fc(b.flatten(x, "flatten"), 10, "classifier");
  Graph graph = b.build();
  const HardwareConfig hw =
      fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
  CompileOptions options;
  options.mode = PipelineMode::kLowLatency;
  options.ga.population = 4;
  options.ga.generations = 2;
  options.backend = "isa-json";
  const CompileResult result = Compiler(std::move(graph), hw).compile(options);
  return serve::artifact_frame_line(7, "P=20", 3,
                                    result.stream->to_json_text());
}

/// parse_fields(text, {"type", "index"}) must throw exactly when (and with
/// the message) parse(text) does, and keep exactly parse's type/index.
void expect_fields_match_full_parse(const std::string& text) {
  SCOPED_TRACE(text.size() > 160 ? text.substr(0, 160) + "..." : text);
  std::string full_error, fields_error;
  Json full, fields;
  try {
    full = Json::parse(text);
  } catch (const JsonError& e) {
    full_error = e.what();
  }
  try {
    fields = Json::parse_fields(text, {"type", "index"});
  } catch (const JsonError& e) {
    fields_error = e.what();
  }
  EXPECT_EQ(fields_error, full_error);
  if (!full_error.empty()) return;
  if (!full.is_object()) {
    EXPECT_TRUE(fields.is_null());
    return;
  }
  Json kept = Json::object();
  for (const auto& [key, value] : full.items()) {
    if (key == "type" || key == "index") kept[key] = value;
  }
  EXPECT_EQ(fields.dump(-1), kept.dump(-1));
}

TEST(JsonParseFields, AcceptsAndRejectsExactlyWhatParseDoes) {
  std::vector<std::string> corpus;
  const std::string frame = real_artifact_frame();
  ASSERT_GT(frame.size(), 97u * 4);
  corpus.push_back(frame);
  for (std::size_t n = 0; n < frame.size(); n += 97) {
    corpus.push_back(frame.substr(0, n));
  }
  for (const char* bad :
       {"1-2", "1.5e", "1e5.3", "01", "-", ".5", "5.", "+1", "0x10", "1e400",
        "-inf", "nan", "1E"}) {
    const std::string token = bad;
    corpus.push_back(R"({"type":"artifact","junk":)" + token +
                     R"(,"index":1})");
    corpus.push_back(R"({"type":"artifact","index":)" + token + "}");
    corpus.push_back(R"({"skip":[0,{"a":)" + token + R"(}],"type":"x"})");
  }
  // Nesting inside a skipped member counts toward kMaxDepth as in parse():
  // the root object is level 1, so 511 arrays reach the cap, 512 pass it.
  for (const int arrays : {Json::kMaxDepth - 1, Json::kMaxDepth}) {
    const auto n = static_cast<std::size_t>(arrays);
    const std::string deep = std::string(n, '[') + std::string(n, ']');
    corpus.push_back(R"({"type":"t","deep":)" + deep + "}");
    corpus.push_back(R"({"type":"t","index":)" + deep + "}");
  }
  // Duplicated keys: the last value wins in the first position, kept or
  // skipped.
  corpus.push_back(R"({"type":"outcome","index":1,"type":"artifact"})");
  corpus.push_back(R"({"x":{"a":1,"a":2},"type":"t","x":3})");
  // Escapes in keys and skipped strings; non-object roots; trailing bytes.
  corpus.push_back(R"({"ty\u0070e":"artifact","s":"\"\\\/\b\f\n\r\t\u00e9"})");
  corpus.push_back(R"({"s":"bad \q escape","type":"t"})");
  corpus.push_back(R"({"s":"bad \u12G4","type":"t"})");
  for (const char* text :
       {"[1,2]", "\"type\"", "5", "null", "true", "", "   ", "{}",
        R"({"type":"t"} x)", R"({"type":"t",})", R"({"type" "t"})",
        R"({"type":"t","index":2 "x":1})", R"({"type":tru})",
        R"({"a":[1,,2],"type":"t"})", " \t{\"index\" : 4 }\n"}) {
    corpus.push_back(text);
  }
  for (const std::string& text : corpus) expect_fields_match_full_parse(text);
}

TEST(JsonParseFields, KeepsOnlyTheNamedRootMembers) {
  const Json fields = Json::parse_fields(
      R"({"type":"artifact","id":3,"index":2,"artifact":{"index":9}})",
      {"type", "index"});
  EXPECT_EQ(fields.dump(-1), R"({"type":"artifact","index":2})");
  EXPECT_EQ(Json::parse_fields(R"({"a":1})", {"type"}).dump(-1), "{}");
  EXPECT_TRUE(Json::parse_fields("[1]", {"type"}).is_null());
}

class JsonRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(JsonRoundTrip, ParseDumpParseIsStable) {
  const Json first = Json::parse(GetParam());
  const std::string dumped = first.dump(-1);
  const Json second = Json::parse(dumped);
  EXPECT_EQ(second.dump(-1), dumped);
}

INSTANTIATE_TEST_SUITE_P(
    Documents, JsonRoundTrip,
    ::testing::Values(
        R"({"a":1,"b":[true,null,"x"],"c":{"d":2.5}})",
        R"([1,2,3,[4,[5]]])", R"("plain string")", R"(3.14159)",
        R"({"empty_obj":{},"empty_arr":[]})",
        R"({"esc":"line\nbreak\ttab"})"));

}  // namespace
}  // namespace pimcomp
