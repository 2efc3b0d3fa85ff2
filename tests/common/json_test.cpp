// Strict JSON parser: value model, escapes, numbers, and the error
// contract (JsonError with a byte offset; no trailing garbage).
#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"
#include "common/json_probe.hpp"

namespace {

using iotls::common::Json;
using iotls::common::JsonError;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedDocuments) {
  const Json doc = Json::parse(
      "{\"a\": [1, 2, {\"b\": true}], \"c\": {\"d\": null}}");
  const auto& a = doc.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.0);
  EXPECT_TRUE(a[2].at("b").as_bool());
  EXPECT_TRUE(doc.at("c").at("d").is_null());
}

TEST(Json, DecodesStringEscapes) {
  EXPECT_EQ(Json::parse("\"a\\\"b\\\\c\\n\\t\"").as_string(), "a\"b\\c\n\t");
  // BMP \u escape becomes UTF-8.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(Json, FindAndAtContract) {
  const Json doc = Json::parse("{\"k\": 1}");
  EXPECT_NE(doc.find("k"), nullptr);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), JsonError);
  // find on a non-object is nullptr, not a throw.
  EXPECT_EQ(Json::parse("[1]").find("k"), nullptr);
}

TEST(Json, TypedAccessorsThrowOnKindMismatch) {
  const Json doc = Json::parse("{\"k\": 1}");
  EXPECT_THROW((void)doc.as_array(), JsonError);
  EXPECT_THROW((void)doc.at("k").as_string(), JsonError);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{\"a\": 1,}"), JsonError);
  EXPECT_THROW(Json::parse("[1 2]"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("1e"), JsonError);
  // Trailing garbage after a complete document is an error.
  EXPECT_THROW(Json::parse("{} x"), JsonError);
  try {
    Json::parse("[true, fals]");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_GT(e.offset(), 0u);
  }
}

TEST(Json, RejectsRawControlBytesInStrings) {
  // RFC 8259 section 7: U+0000-U+001F must be escaped inside a string.
  for (const char c : {'\0', '\n', '\t', '\x1f'}) {
    const std::string text = std::string("[\"ab") + c + "\"]";
    try {
      Json::parse(text);
      FAIL() << "expected JsonError for byte " << static_cast<int>(c);
    } catch (const JsonError& e) {
      EXPECT_EQ(e.offset(), 4u);
    }
  }
  // The same bytes escaped, DEL and UTF-8 are fine.
  EXPECT_EQ(Json::parse("\"\\n\\u001f\x7f\xc3\xa9\"").as_string(),
            "\n\x1f\x7f\xc3\xa9");
}

TEST(Json, QuoteRoundTripsThroughTheParser) {
  EXPECT_EQ(iotls::common::json_quote(iotls::common::kJsonProbe),
            "\"a\\\"b\\\\c\\u0008\\n\\r\\t\\u0001\\u001f\x7f\xc3\xa9\"");
  EXPECT_EQ(Json::parse(iotls::common::json_quote(iotls::common::kJsonProbe))
                .as_string(),
            iotls::common::kJsonProbe);
  EXPECT_EQ(iotls::common::json_quote(std::string(1, '\0')), "\"\\u0000\"");
}

TEST(Json, WhitespacePaddingIsAccepted) {
  const Json doc = Json::parse("  \n\t{ \"a\" : [ ] }  \n");
  EXPECT_TRUE(doc.at("a").as_array().empty());
}

}  // namespace
