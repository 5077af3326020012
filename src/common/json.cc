#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace ckpt {
namespace json {

namespace {

// Bytes a JSON string cannot hold raw. Writers escape exactly these; the
// reader stops its clean-run scan on them.
inline bool NeedsEscape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

void AppendEscaped(std::string_view s, std::string* out) {
  std::size_t clean = 0;
  while (clean < s.size() && !NeedsEscape(s[clean])) ++clean;
  out->append(s.data(), clean);
  if (clean == s.size()) return;  // the common case: one bulk append
  for (std::size_t i = clean; i < s.size(); ++i) {
    const char c = s[i];
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendNumber(double value, std::string* out) {
  char buf[32];
  char* end = buf;
  if (std::fabs(value) < 9.0e15 && value == std::trunc(value)) {
    // Integral (nan fails both tests): every digit, no decimal point.
    end = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(value))
              .ptr;
  } else if (std::isfinite(value)) {
    // Exactly the bytes of "%.15g", without printf's format parsing.
    end = std::to_chars(buf, buf + sizeof(buf), value,
                        std::chars_format::general, 15)
              .ptr;
  } else {
    *end++ = '0';  // JSON has no inf/nan
  }
  out->append(buf, static_cast<std::size_t>(end - buf));
}

void AppendInt(std::int64_t value, std::string* out) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, static_cast<std::size_t>(end - buf));
}

const Value* Value::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return value.get();
  }
  return nullptr;
}

double Value::NumberOr(std::string_view key, double fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string Value::StringOr(std::string_view key,
                            const std::string& fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

void Value::DropDuplicateKeys() {
  // Sorting an index keeps this O(n log n) even for the huge objects that
  // hostile input can hold; a per-insert scan would be quadratic.
  if (members_.size() < 2) return;
  std::vector<std::size_t> order(members_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return members_[a].first < members_[b].first;
                   });
  std::vector<bool> dropped(members_.size(), false);
  bool any = false;
  std::size_t first = order[0];  // each run of equal keys ascends by slot
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t slot = order[i];
    if (members_[slot].first != members_[first].first) {
      first = slot;
      continue;
    }
    members_[first].second = std::move(members_[slot].second);
    dropped[slot] = any = true;
  }
  if (!any) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (dropped[i]) continue;
    if (kept != i) members_[kept] = std::move(members_[i]);
    ++kept;
  }
  members_.resize(kept);
}

// ---------------------------------------------------------------------------
// Reader

bool Reader::Fail(const char* reason) {
  if (error_.empty()) {
    error_ = "offset " + std::to_string(pos_) + ": " + reason;
  }
  return false;
}

void Reader::SkipWs() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

Value::Type Reader::Peek() {
  SkipWs();
  if (pos_ >= text_.size()) return Value::Type::kNull;
  switch (text_[pos_]) {
    case '{': return Value::Type::kObject;
    case '[': return Value::Type::kArray;
    case '"': return Value::Type::kString;
    case 't':
    case 'f': return Value::Type::kBool;
    case 'n': return Value::Type::kNull;
    default: return Value::Type::kNumber;
  }
}

bool Reader::Open(char open, char close, bool* empty) {
  if (!ok()) return false;
  SkipWs();
  if (pos_ >= text_.size() || text_[pos_] != open) {
    return Fail(open == '{' ? "expected object" : "expected array");
  }
  if (depth_ == kMaxDepth) return Fail("nesting too deep");
  ++pos_;
  SkipWs();
  *empty = pos_ < text_.size() && text_[pos_] == close;
  if (*empty) {
    ++pos_;
  } else {
    ++depth_;
  }
  return true;
}

bool Reader::More(char close, const char* reason) {
  SkipWs();
  if (pos_ < text_.size()) {
    if (text_[pos_] == ',') {
      ++pos_;
      return true;
    }
    if (text_[pos_] == close) {
      ++pos_;
      --depth_;
      return false;
    }
  }
  return Fail(reason);
}

bool Reader::ReadKey(std::string_view* key) {
  if (!ReadString(key)) return false;
  SkipWs();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return Fail("expected ':' in object");
  }
  ++pos_;
  return true;
}

bool Reader::ReadString(std::string_view* out) {
  if (!ok()) return false;
  SkipWs();
  return ScanString(out);
}

bool Reader::ScanString(std::string_view* out) {
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Fail("expected string");
  }
  const std::size_t start = ++pos_;
  bool decoded = false;  // scratch_ holds the value so far
  while (true) {
    std::size_t run = pos_;
    while (run < text_.size() && !NeedsEscape(text_[run])) ++run;
    if (out != nullptr && decoded) scratch_.append(text_, pos_, run - pos_);
    pos_ = run;
    if (pos_ >= text_.size()) return Fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') {
      if (out != nullptr) {
        *out = decoded ? std::string_view(scratch_)
                       : text_.substr(start, pos_ - 1 - start);
      }
      return true;
    }
    if (c != '\\') {
      --pos_;
      return Fail("control character in string");
    }
    if (out != nullptr && !decoded) {
      scratch_.assign(text_, start, pos_ - 1 - start);
      decoded = true;
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    char decoded_char = 0;
    switch (text_[pos_++]) {
      case '"': decoded_char = '"'; break;
      case '\\': decoded_char = '\\'; break;
      case '/': decoded_char = '/'; break;
      case 'b': decoded_char = '\b'; break;
      case 'f': decoded_char = '\f'; break;
      case 'n': decoded_char = '\n'; break;
      case 'r': decoded_char = '\r'; break;
      case 't': decoded_char = '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (IsDigit(h)) {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return Fail("bad \\u escape");
          }
        }
        if (out == nullptr) continue;
        // UTF-8 encode (surrogate pairs are not produced by our writers;
        // lone surrogates encode as-is, which is fine for reporting).
        if (code < 0x80) {
          scratch_ += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch_ += static_cast<char>(0xC0 | (code >> 6));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          scratch_ += static_cast<char>(0xE0 | (code >> 12));
          scratch_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        }
        continue;
      }
      default: return Fail("bad escape");
    }
    if (out != nullptr) scratch_ += decoded_char;
  }
}

// JSON number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
bool Reader::ScanNumber(std::string_view* token) {
  const std::size_t start = pos_;
  auto digits = [this] {
    const std::size_t first = pos_;
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    return pos_ > first;
  };
  auto at = [this](char c) {
    return pos_ < text_.size() && text_[pos_] == c;
  };
  if (at('-')) ++pos_;
  if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
    const bool signed_only = pos_ > start;
    pos_ = start;
    return Fail(signed_only ? "bad number" : "expected value");
  }
  if (at('0')) {
    ++pos_;
  } else {
    digits();
  }
  bool ok = true;
  if (at('.')) {
    ++pos_;
    ok = digits();
  }
  if (ok && (at('e') || at('E'))) {
    ++pos_;
    if (at('+') || at('-')) ++pos_;
    ok = digits();
  }
  if (!ok) {
    pos_ = start;
    return Fail("bad number");
  }
  *token = text_.substr(start, pos_ - start);
  return true;
}

bool Reader::ReadNumber(double* out) {
  if (!ok()) return false;
  SkipWs();
  std::string_view token;
  if (!ScanNumber(&token)) return false;
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  if (result.ec == std::errc::result_out_of_range) {
    // Overflow to +-inf, underflow to +-0, as strtod rounds them.
    *out = std::strtod(std::string(token).c_str(), nullptr);
  }
  return true;
}

bool Reader::ReadLiteral(bool* truth) {
  if (!ok()) return false;
  SkipWs();
  if (pos_ >= text_.size()) return Fail("unexpected end of input");
  for (std::string_view word : {"true", "false", "null"}) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      if (truth != nullptr) *truth = word == "true";
      return true;
    }
  }
  return Fail("bad literal");
}

bool Reader::ReadValue(ValuePtr* out) {
  const Value::Type type = Peek();
  auto value = std::make_shared<Value>();
  value->type_ = type;
  bool read = false;
  switch (type) {
    case Value::Type::kObject:
      read = VisitObject([&](std::string_view key) {
        std::string name(key);  // reading the member may reuse scratch_
        ValuePtr member;
        if (ReadValue(&member)) {
          value->members_.emplace_back(std::move(name), std::move(member));
        }
      });
      if (read) value->DropDuplicateKeys();
      break;
    case Value::Type::kArray:
      read = VisitArray([&] {
        ValuePtr item;
        if (ReadValue(&item)) value->items_.push_back(std::move(item));
      });
      break;
    case Value::Type::kString: {
      std::string_view s;
      read = ReadString(&s);
      value->string_ = s;
      break;
    }
    case Value::Type::kNumber:
      read = ReadNumber(&value->number_);
      break;
    case Value::Type::kBool:
    case Value::Type::kNull:
      read = ReadLiteral(&value->bool_);
      break;
  }
  if (read) *out = std::move(value);
  return read;
}

bool Reader::ReadNumberOr(double fallback, double* out) {
  if (Peek() == Value::Type::kNumber) return ReadNumber(out);
  *out = fallback;
  return Skip();
}

bool Reader::ReadStringOr(std::string_view fallback, std::string_view* out) {
  if (Peek() == Value::Type::kString) return ReadString(out);
  *out = fallback;
  return Skip();
}

bool Reader::Skip() {
  switch (Peek()) {
    case Value::Type::kObject:
      return VisitObject([this](std::string_view) { Skip(); });
    case Value::Type::kArray:
      return VisitArray([this] { Skip(); });
    case Value::Type::kString:
      return ok() && ScanString(nullptr);
    case Value::Type::kNumber: {
      std::string_view token;
      return ok() && ScanNumber(&token);
    }
    case Value::Type::kBool:
    case Value::Type::kNull:
      return ReadLiteral(nullptr);
  }
  return false;
}

bool Reader::Finish() {
  if (!ok()) return false;
  SkipWs();
  return pos_ == text_.size() || Fail("trailing garbage");
}

ValuePtr Parse(std::string_view text, std::string* error) {
  Reader reader(text);
  ValuePtr value;
  const bool ok = reader.ReadValue(&value) && reader.Finish();
  if (error != nullptr) *error = reader.error();
  return ok ? value : nullptr;
}

}  // namespace json
}  // namespace ckpt
