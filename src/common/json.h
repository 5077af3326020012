// Minimal JSON support without third-party dependencies: one reader for
// the *.metrics.json / *.trace.json / *.audit.jsonl artifacts, and the
// escaping / number helpers every writer (tracer, metrics registry, audit
// log) appends through, so all artifacts spell strings and numbers alike.
//
// json::Reader is the only parser. It walks a text in place: objects and
// arrays are visited member by member, scalars are read or skipped. The
// visit/skip path allocates nothing but one reused buffer for strings
// that contain escapes. json::Parse builds its Value tree on top of it,
// so a text the tree accepts is exactly a text the visit/skip path
// accepts, with the same error. The reader validates the JSON grammar
// (objects, arrays, strings with \uXXXX escapes, numbers, true/false/
// null) and caps nesting at kMaxDepth, rejecting everything else with
// "offset N: reason".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ckpt {
namespace json {

// Appends s escaped for embedding inside double quotes. Clean runs are
// bulk-appended; only '"', '\\' and control bytes take the slow path.
void AppendEscaped(std::string_view s, std::string* out);

// Number spelling shared by every writer: integral values with magnitude
// below 9e15 print every digit without a decimal point (-0 prints "0"),
// other finite values as printf's "%.15g", and inf/nan as "0" because
// JSON has no spelling for them.
void AppendNumber(double value, std::string* out);
// Exact decimal for counters, sequence numbers and sim timestamps.
void AppendInt(std::int64_t value, std::string* out);

class Value;
using ValuePtr = std::shared_ptr<Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<ValuePtr>& items() const { return items_; }
  // Object members in document order (duplicate keys keep the last value
  // in the first key's slot).
  const std::vector<std::pair<std::string, ValuePtr>>& members() const {
    return members_;
  }

  // Object lookup; nullptr when absent or not an object. A linear scan:
  // the artifacts' objects hold a handful of members.
  const Value* Find(std::string_view key) const;
  // Convenience accessors with defaults for absent/mistyped members.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key,
                       const std::string& fallback) const;

 private:
  friend class Reader;  // the only builder of trees

  // Duplicate keys keep the last value in the first key's slot.
  void DropDuplicateKeys();

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<ValuePtr> items_;
  std::vector<std::pair<std::string, ValuePtr>> members_;
};

// Pull reader over one JSON text. Each Read*/Skip/Visit* call consumes one
// value (leading whitespace included). The first error sticks: it is kept
// in error() and every later call returns false.
class Reader {
 public:
  // The writers nest at most ~6 levels; the cap keeps hostile input from
  // exhausting the stack.
  static constexpr int kMaxDepth = 256;

  explicit Reader(std::string_view text) : text_(text) {}

  // Type of the next value, judged by its first byte; anything that opens
  // no other type is taken for a number and validated when read. Returns
  // kNull at end of input, where any read then fails.
  Value::Type Peek();

  bool ReadNumber(double* out);
  // Decoded string. *out points into the text when the string has no
  // escapes, else into a buffer the next read may overwrite.
  bool ReadString(std::string_view* out);
  // Builds the next value as a tree (what Parse uses).
  bool ReadValue(ValuePtr* out);
  // Streaming twins of Value::NumberOr/StringOr: a value of another type
  // is skipped and yields the fallback.
  bool ReadNumberOr(double fallback, double* out);
  bool ReadStringOr(std::string_view fallback, std::string_view* out);
  // Validates and discards the next value without allocating.
  bool Skip();

  // Visits an object: on_member(key) runs once per member, in document
  // order, and must consume the member's value with a Read*/Skip/Visit*
  // call. key is decoded and valid until that value is consumed.
  template <typename F>
  bool VisitObject(F&& on_member);
  // Visits an array: on_item() runs once per element and must consume it.
  template <typename F>
  bool VisitArray(F&& on_item);

  // True when only whitespace remains; fails with "trailing garbage".
  bool Finish();

  bool ok() const { return error_.empty(); }
  // "offset N: reason"; empty while ok().
  const std::string& error() const { return error_; }

 private:
  bool Fail(const char* reason);
  void SkipWs();
  // Consumes `open` ('{' or '[') one level deeper. *empty says the
  // container closed at once; its `close` is then consumed too.
  bool Open(char open, char close, bool* empty);
  // After a member or element: true on ',', false on `close` or an error.
  bool More(char close, const char* reason);
  bool ReadKey(std::string_view* key);
  // true/false/null; *truth (when not null) says which boolean.
  bool ReadLiteral(bool* truth);
  // Validate the string or number at pos_; ScanString decodes into *out
  // unless out is null.
  bool ScanString(std::string_view* out);
  bool ScanNumber(std::string_view* token);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string scratch_;  // decoded strings that contained escapes
  std::string error_;
};

template <typename F>
bool Reader::VisitObject(F&& on_member) {
  bool empty = false;
  if (!Open('{', '}', &empty)) return false;
  if (empty) return true;
  do {
    std::string_view key;
    if (!ReadKey(&key)) return false;
    on_member(key);
    if (!ok()) return false;
  } while (More('}', "expected ',' or '}' in object"));
  return ok();
}

template <typename F>
bool Reader::VisitArray(F&& on_item) {
  bool empty = false;
  if (!Open('[', ']', &empty)) return false;
  if (empty) return true;
  do {
    on_item();
    if (!ok()) return false;
  } while (More(']', "expected ',' or ']' in array"));
  return ok();
}

// Parse one JSON document. On failure returns nullptr and fills *error
// with "offset N: reason" (error may be null when the caller only needs
// the success bit). Trailing whitespace is allowed, trailing garbage is
// not.
ValuePtr Parse(std::string_view text, std::string* error);

}  // namespace json
}  // namespace ckpt
