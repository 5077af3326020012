#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

namespace ckpt {
namespace {

std::string Number(double value) {
  std::string out;
  json::AppendNumber(value, &out);
  return out;
}

std::string Escaped(const std::string& s) {
  std::string out;
  json::AppendEscaped(s, &out);
  return out;
}

TEST(JsonFormatNumber, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(Number(0), "0");
  EXPECT_EQ(Number(42), "42");
  EXPECT_EQ(Number(-7), "-7");
  EXPECT_EQ(Number(1e12), "1000000000000");
}

TEST(JsonFormatNumber, FractionsRoundTripTo15Digits) {
  // 15 significant digits: exact dyadic fractions round-trip exactly,
  // anything finer agrees to 1 ulp-at-15-digits.
  EXPECT_EQ(std::stod(Number(3.25)), 3.25);
  EXPECT_EQ(std::stod(Number(0.5)), 0.5);
  const double v = 0.1 + 0.2;
  EXPECT_NEAR(std::stod(Number(v)), v, 1e-15);
}

TEST(JsonFormatNumber, NonFiniteBecomesZero) {
  EXPECT_EQ(Number(std::nan("")), "0");
  EXPECT_EQ(Number(INFINITY), "0");
}

TEST(JsonEscape, ControlCharactersAndQuotes) {
  EXPECT_EQ(Escaped("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(Escaped("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(JsonParse, ScalarsAndNesting) {
  std::string error;
  json::ValuePtr doc = json::Parse(
      R"({"name":"x","n":3.5,"ok":true,"nil":null,"arr":[1,2],"obj":{"k":"v"}})",
      &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->StringOr("name", ""), "x");
  EXPECT_EQ(doc->NumberOr("n", 0), 3.5);
  ASSERT_NE(doc->Find("ok"), nullptr);
  EXPECT_TRUE(doc->Find("ok")->as_bool());
  EXPECT_TRUE(doc->Find("nil")->is_null());
  ASSERT_TRUE(doc->Find("arr")->is_array());
  EXPECT_EQ(doc->Find("arr")->items().size(), 2u);
  EXPECT_EQ(doc->Find("obj")->StringOr("k", ""), "v");
}

TEST(JsonParse, StringEscapes) {
  std::string error;
  json::ValuePtr doc = json::Parse(R"(["a\"b", "Aé", "\n\t"])",
                                   &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->items()[0]->as_string(), "a\"b");
  EXPECT_EQ(doc->items()[1]->as_string(), "A\xc3\xa9");  // UTF-8 for A, é
  EXPECT_EQ(doc->items()[2]->as_string(), "\n\t");
}

TEST(JsonParse, NegativeAndExponentNumbers) {
  std::string error;
  json::ValuePtr doc = json::Parse("[-1.5, 2e3, 0.25]", &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->items()[0]->as_number(), -1.5);
  EXPECT_EQ(doc->items()[1]->as_number(), 2000.0);
  EXPECT_EQ(doc->items()[2]->as_number(), 0.25);
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1}garbage", "+5", ".5", "5.", "-", "1e", "01", "[1e+]",
        "\"raw\x01control\"", "\"bad \\q escape\"", "\"\\u12\""}) {
    std::string error;
    EXPECT_EQ(json::Parse(bad, &error), nullptr) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    EXPECT_NE(error.find("offset"), std::string::npos) << error;
  }
}

TEST(JsonParse, DuplicateKeysKeepLast) {
  std::string error;
  json::ValuePtr doc = json::Parse(R"({"a":1,"a":2})", &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->NumberOr("a", 0), 2.0);
  EXPECT_EQ(doc->members().size(), 1u);
}

TEST(JsonParse, DuplicateKeysInLargeObjects) {
  // Every key twice, the second time with a new value: the first slot
  // keeps the last value, in document order.
  constexpr int kKeys = 100000;
  std::string text = "{";
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 0; k < kKeys; ++k) {
      if (pass + k > 0) text += ",";
      text += "\"k" + std::to_string(k) + "\":";
      text += std::to_string(pass * kKeys + k);
    }
  }
  text += "}";
  std::string error;
  json::ValuePtr doc = json::Parse(text, &error);
  ASSERT_NE(doc, nullptr) << error;
  ASSERT_EQ(doc->members().size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(doc->members()[0].first, "k0");
  EXPECT_EQ(doc->members()[kKeys - 1].first, "k" + std::to_string(kKeys - 1));
  EXPECT_EQ(doc->NumberOr("k0", -1), kKeys);
  EXPECT_EQ(doc->NumberOr("k77", -1), kKeys + 77);
}

TEST(JsonParse, RoundTripsWriterOutput) {
  // The exact shape MetricsRegistry emits for a histogram series.
  const std::string text =
      R"({"metrics":[{"name":"h","labels":{"op":"dump"},"type":"histogram",)"
      R"("count":3,"sum":6.5,"p50":2,"p95":3.5,"p99":3.5,)"
      R"("bounds":[1,10],"bucket_counts":[1,2,0]}]})";
  std::string error;
  json::ValuePtr doc = json::Parse(text, &error);
  ASSERT_NE(doc, nullptr) << error;
  const json::Value* metrics = doc->Find("metrics");
  ASSERT_TRUE(metrics != nullptr && metrics->is_array());
  const json::Value& entry = *metrics->items()[0];
  EXPECT_EQ(entry.StringOr("type", ""), "histogram");
  EXPECT_EQ(entry.NumberOr("p95", 0), 3.5);
  EXPECT_EQ(entry.Find("labels")->StringOr("op", ""), "dump");
  EXPECT_EQ(entry.Find("bucket_counts")->items().size(), 3u);
}

TEST(JsonParse, NumberGrammar) {
  std::string error;
  json::ValuePtr doc =
      json::Parse("[-0, 0, 1E+2, 0.5e-3, 123456789.125, 1e999, -1e-400]",
                  &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->items()[0]->as_number(), 0.0);
  EXPECT_TRUE(std::signbit(doc->items()[0]->as_number()));
  EXPECT_EQ(doc->items()[2]->as_number(), 100.0);
  EXPECT_EQ(doc->items()[3]->as_number(), 0.0005);
  EXPECT_EQ(doc->items()[4]->as_number(), 123456789.125);
  // Out-of-range literals round like strtod: to inf and to -0.
  EXPECT_EQ(doc->items()[5]->as_number(), INFINITY);
  EXPECT_EQ(doc->items()[6]->as_number(), 0.0);
}

TEST(JsonReader, NestingCapFailsCleanly) {
  // 100 000 levels used to recurse until the stack overflowed.
  for (const std::string& deep :
       {std::string(100000, '['), [] {
          std::string s;
          for (int i = 0; i < 100000; ++i) s += "{\"a\":";
          return s;
        }()}) {
    std::string error;
    EXPECT_EQ(json::Parse(deep, &error), nullptr);
    const std::size_t open_at = deep[0] == '[' ? 256 : 256 * 5;
    EXPECT_EQ(error,
              "offset " + std::to_string(open_at) + ": nesting too deep");
    json::Reader reader(deep);
    EXPECT_FALSE(reader.Skip());
    EXPECT_EQ(reader.error(), error);
  }
  const auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  std::string error;
  EXPECT_NE(json::Parse(nested(json::Reader::kMaxDepth), &error), nullptr)
      << error;
  const std::string at_cap_text = nested(json::Reader::kMaxDepth);
  json::Reader at_cap(at_cap_text);
  EXPECT_TRUE(at_cap.Skip() && at_cap.Finish()) << at_cap.error();
  EXPECT_EQ(json::Parse(nested(json::Reader::kMaxDepth + 1), &error), nullptr);
}

TEST(JsonReader, VisitsMembersAndDecodesEscapedKeys) {
  json::Reader reader(R"({"k\u0069nd":"a\"b","n":[1,{"x":2},"s"],"t":7})");
  std::string kind;
  double t = 0;
  int items = 0;
  ASSERT_TRUE(reader.VisitObject([&](std::string_view key) {
    if (key == "kind") {
      std::string_view value;
      reader.ReadString(&value);
      kind = value;
    } else if (key == "n") {
      reader.VisitArray([&] {
        ++items;
        reader.Skip();
      });
    } else {
      reader.ReadNumber(&t);
    }
  })) << reader.error();
  EXPECT_TRUE(reader.Finish());
  EXPECT_EQ(kind, "a\"b");
  EXPECT_EQ(items, 3);
  EXPECT_EQ(t, 7.0);
}

TEST(JsonReader, ErrorsStick) {
  json::Reader reader("[1,]");
  EXPECT_FALSE(reader.Skip());
  const std::string first = reader.error();
  EXPECT_EQ(first, "offset 3: expected value");
  double n = 0;
  EXPECT_FALSE(reader.ReadNumber(&n));
  EXPECT_FALSE(reader.Finish());
  EXPECT_EQ(reader.error(), first);
}

// --- Reader agreement: the visit/skip path against the DOM ----------------

// Random documents over the artifacts' vocabulary: the keys ckpt-report
// reads (some spelled with escapes), every value type, duplicate keys and
// mistyped fields, with whitespace sprinkled between tokens.
class DocGen {
 public:
  explicit DocGen(std::uint64_t seed) : rng_(seed) {}

  std::string Object(int depth) {
    std::string out = "{";
    const int n = Pick(5);
    for (int i = 0; i < n; ++i) {
      if (i > 0) out += ",";
      static const char* const kKeys[] = {
          R"("t")", R"("kind")", R"("candidates")", R"("ph")", R"("cat")",
          R"("args")", R"("\u0074")", R"("k\u0069nd")", R"("c\u0061t")"};
      out += Ws() + kKeys[Pick(9)] + Ws() + ":" + Value(depth + 1);
    }
    return out + Ws() + "}";
  }

  std::string Value(int depth) {
    switch (Pick(depth > 4 ? 4 : 7)) {
      case 0: return Ws() + Number() + Ws();
      case 1: return Ws() + String() + Ws();
      case 2:
        return Ws() + (Pick(3) == 0 ? "null" : Pick(2) ? "true" : "false");
      case 3: return Ws() + Number();
      case 4:
      case 5: return Object(depth);
      default: {
        std::string out = Ws() + "[";
        const int n = Pick(4);
        for (int i = 0; i < n; ++i) {
          out += (i > 0 ? "," : "") + Value(depth + 1);
        }
        return out + "]";
      }
    }
  }

  int Pick(int n) {
    return static_cast<int>(rng_() % static_cast<unsigned>(n));
  }

 private:
  std::string Ws() {
    static const char* const kWs[] = {"", "", "", " ", "\n", "\t ", "\r\n"};
    return kWs[Pick(7)];
  }
  std::string Number() {
    static const char* const kNumbers[] = {
        "0", "-0", "7", "-12", "0.5", "-3.25e-3", "1E+2", "123456789.125",
        "999999999999999", "1e-07", "12345678901234567890123", "1e999"};
    return kNumbers[Pick(12)];
  }
  std::string String() {
    static const char* const kStrings[] = {
        R"("")",          R"("preempt_scan")", R"("ckpt")",
        R"("M")",         R"("a\"b\\c")",   R"("\u0041\u00e9\u20ac")",
        R"("line\nbr\t")", R"("\/\b\f\r")",   R"("M\u0000")"};
    return kStrings[Pick(9)];
  }

  std::mt19937_64 rng_;
};

// ckpt-report's fields from the visit path: NumberOr/StringOr fallbacks,
// last duplicate wins, candidates counted without building them. A valid
// document that is not an object fails with "not a JSON object".
struct Fields {
  double t = 0;
  std::string kind = "?";
  std::size_t candidates = 0;
};

bool VisitFields(const std::string& text, Fields* out, std::string* error) {
  json::Reader reader(text);
  if (reader.Peek() != json::Value::Type::kObject) {
    const bool valid = reader.Skip() && reader.Finish();
    *error = valid ? "not a JSON object" : reader.error();
    return false;
  }
  const bool ok =
      reader.VisitObject([&](std::string_view key) {
        if (key == "t") {
          reader.ReadNumberOr(0, &out->t);
        } else if (key == "kind") {
          std::string_view kind;
          if (reader.ReadStringOr("?", &kind)) out->kind = kind;
        } else if (key == "candidates") {
          out->candidates = 0;
          if (reader.Peek() == json::Value::Type::kArray) {
            reader.VisitArray([&] {
              ++out->candidates;
              reader.Skip();
            });
          } else {
            reader.Skip();
          }
        } else {
          reader.Skip();
        }
      }) &&
      reader.Finish();
  *error = reader.error();
  return ok;
}

bool SkipAccepts(const std::string& text, std::string* error) {
  json::Reader reader(text);
  const bool ok = reader.Skip() && reader.Finish();
  *error = reader.error();
  return ok;
}

TEST(JsonReader, SkipAndVisitAgreeWithDom) {
  DocGen gen(20111);
  int accepted = 0, rejected = 0;
  for (int doc = 0; doc < 400; ++doc) {
    const std::string original = gen.Object(0);
    std::vector<std::string> variants{original};
    for (int k = 0; k < 6; ++k) {
      const std::size_t at = static_cast<std::size_t>(
          gen.Pick(static_cast<int>(original.size())));
      variants.push_back(original.substr(0, at));  // truncated
      std::string flipped = original;
      static const char kFlips[] = "{}[]\",: 0-eE.\\ux\x01";
      flipped[at] = kFlips[gen.Pick(sizeof(kFlips) - 1)];
      variants.push_back(flipped);
      std::string dropped = original;
      dropped.erase(at, 1);
      variants.push_back(dropped);
    }
    for (const std::string& text : variants) {
      std::string dom_error, skip_error, visit_error;
      const json::ValuePtr dom = json::Parse(text, &dom_error);
      ASSERT_EQ(dom != nullptr, SkipAccepts(text, &skip_error)) << text;
      EXPECT_EQ(dom_error, skip_error) << text;
      Fields fields;
      const bool visited = VisitFields(text, &fields, &visit_error);
      ASSERT_EQ(visited, dom != nullptr && dom->is_object()) << text;
      if (dom == nullptr) {
        ++rejected;
        EXPECT_EQ(visit_error, dom_error) << text;
        continue;
      }
      ++accepted;
      EXPECT_EQ(fields.t, dom->NumberOr("t", 0)) << text;
      EXPECT_EQ(fields.kind, dom->StringOr("kind", "?")) << text;
      const json::Value* candidates = dom->Find("candidates");
      const std::size_t dom_candidates =
          candidates != nullptr && candidates->is_array()
              ? candidates->items().size()
              : 0u;
      EXPECT_EQ(fields.candidates, dom_candidates) << text;
    }
  }
  // Both outcomes must be well represented for the agreement to mean much.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 2000);
}

}  // namespace
}  // namespace ckpt
