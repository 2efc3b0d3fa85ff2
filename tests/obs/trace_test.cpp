// Span/TraceLog lifecycle: the flight recorder's determinism-facing API.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/json.hpp"
#include "common/json_probe.hpp"
#include "obs/trace.hpp"

namespace iotls::obs {
namespace {

TEST(Span, DefaultConstructedIsDisabledNoOp) {
  Span span;
  EXPECT_FALSE(span.enabled());
  EXPECT_FALSE(span.full());
  span.set_attr("k", "v");
  span.event("record", {{"dir", "c2s"}});
  EXPECT_TRUE(span.attrs().empty());
  EXPECT_TRUE(span.events().empty());
  EXPECT_EQ(span.find("record"), nullptr);
}

TEST(Span, EventsGetMonotonicSequenceNumbers) {
  Span span("conn:test", TraceLevel::Handshake);
  EXPECT_TRUE(span.enabled());
  EXPECT_FALSE(span.full());
  span.event("a");
  span.event("b", {{"x", "1"}});
  span.event("a", {{"x", "2"}});
  ASSERT_EQ(span.events().size(), 3u);
  EXPECT_EQ(span.events()[0].seq, 0u);
  EXPECT_EQ(span.events()[1].seq, 1u);
  EXPECT_EQ(span.events()[2].seq, 2u);
  // find() returns the FIRST event of the type.
  const TraceEvent* first_a = span.find("a");
  ASSERT_NE(first_a, nullptr);
  EXPECT_EQ(first_a->seq, 0u);
  const TraceEvent* b = span.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->attr("x"), nullptr);
  EXPECT_EQ(*b->attr("x"), "1");
  EXPECT_EQ(b->attr("missing"), nullptr);
}

TEST(Span, AttributesKeepInsertionOrder) {
  Span span("s", TraceLevel::Full);
  EXPECT_TRUE(span.full());
  span.set_attr("zebra", "1");
  span.set_attr("alpha", "2");
  ASSERT_EQ(span.attrs().size(), 2u);
  EXPECT_EQ(span.attrs()[0].first, "zebra");
  EXPECT_EQ(span.attrs()[1].first, "alpha");
}

TEST(TraceLevel, FromIntClampsToFull) {
  EXPECT_EQ(trace_level_from_int(0), TraceLevel::Off);
  EXPECT_EQ(trace_level_from_int(1), TraceLevel::Handshake);
  EXPECT_EQ(trace_level_from_int(2), TraceLevel::Full);
  EXPECT_EQ(trace_level_from_int(7), TraceLevel::Full);
  EXPECT_EQ(trace_level_from_int(-3), TraceLevel::Off);
}

TEST(TraceLog, OffLogProducesDisabledSpansAndDropsThem) {
  TraceLog log;  // default Off
  EXPECT_FALSE(log.enabled());
  Span span = log.start_span("s");
  EXPECT_FALSE(span.enabled());
  span.event("e");
  log.add(std::move(span));
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceLog, AddAndMergePreserveOrder) {
  TraceLog parent(TraceLevel::Handshake);
  Span a = parent.start_span("a");
  a.event("e1");
  parent.add(std::move(a));

  TraceLog child(TraceLevel::Handshake);
  Span b = child.start_span("b");
  b.event("e2");
  child.add(std::move(b));
  Span c = child.start_span("c");
  child.add(std::move(c));

  parent.merge(std::move(child));
  ASSERT_EQ(parent.size(), 3u);
  EXPECT_EQ(parent.spans()[0].name(), "a");
  EXPECT_EQ(parent.spans()[1].name(), "b");
  EXPECT_EQ(parent.spans()[2].name(), "c");

  parent.clear();
  EXPECT_EQ(parent.size(), 0u);
}

TEST(TraceLog, JsonlOneObjectPerSpan) {
  TraceLog log(TraceLevel::Handshake);
  Span s = log.start_span("conn:dev:host");
  s.set_attr("device", "dev");
  s.event("outcome", {{"outcome", "success"}});
  log.add(std::move(s));
  Span t = log.start_span("probe:x");
  log.add(std::move(t));
  // Every string field carries control bytes; the line must stay one line.
  const std::string probe = common::kJsonProbe;
  Span u = log.start_span(probe);
  u.set_attr(probe, probe);
  u.event(probe, {{probe, probe}});
  log.add(std::move(u));

  const std::string jsonl = log.to_jsonl();
  // Three lines, each a JSON object naming its span.
  const auto newline = jsonl.find('\n');
  ASSERT_NE(newline, std::string::npos);
  EXPECT_NE(jsonl.find("\"span\":\"conn:dev:host\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"span\":\"probe:x\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"outcome\""), std::string::npos);

  const auto second = jsonl.find('\n', newline + 1);
  ASSERT_NE(second, std::string::npos);
  const std::string last = jsonl.substr(second + 1);
  ASSERT_EQ(last.find('\n'), last.size() - 1);
  const common::Json doc = common::Json::parse(last);
  EXPECT_EQ(doc.at("span").as_string(), probe);
  EXPECT_EQ(doc.at("attrs").at(probe).as_string(), probe);
  const common::Json& event = doc.at("events").as_array().at(0);
  EXPECT_EQ(event.at("type").as_string(), probe);
  EXPECT_EQ(event.at("attrs").at(probe).as_string(), probe);
}

TEST(TraceLog, RenderAndSummaryNameSpansAndCounts) {
  TraceLog log(TraceLevel::Full);
  Span s = log.start_span("conn:a");
  s.event("record", {{"dir", "client->server"}});
  s.event("close");
  log.add(std::move(s));
  const std::string rendered = log.render();
  EXPECT_NE(rendered.find("conn:a"), std::string::npos);
  EXPECT_NE(rendered.find("record"), std::string::npos);
  const std::string summary = log.summary();
  EXPECT_NE(summary.find("1 span"), std::string::npos);
  EXPECT_NE(summary.find("2 events"), std::string::npos);
}

TEST(TraceLog, MoveKeepsSpansAndThreadSafetyMachinery) {
  TraceLog log(TraceLevel::Handshake);
  Span s = log.start_span("s");
  log.add(std::move(s));
  TraceLog moved = std::move(log);
  EXPECT_EQ(moved.size(), 1u);
  Span t = moved.start_span("t");
  moved.add(std::move(t));  // must not crash: mutex travelled with the move
  EXPECT_EQ(moved.size(), 2u);
}

}  // namespace
}  // namespace iotls::obs
