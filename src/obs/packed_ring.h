// Record storage shared by the Tracer and the AuditLog: a bounded,
// drop-oldest ring of variable-size records packed into byte blocks.
//
// A record is a fixed-size Header in a ring of at most `capacity` slots
// plus a payload: its leading strings (name, category, track for the
// tracer; kind, track for the audit log) back to back, then its args.
// Each arg is one 24-byte cell holding the key pointer, the key length and
// the number or string length; a string's bytes follow its cell, and a
// separator cell opens each candidate list. Every string is copied in at
// the call, so callers may pass views of short-lived buffers; keys are
// string literals (TraceKey) and are kept as pointers.
//
// Payloads fill fixed-size blocks in append order, so the blocks form a
// FIFO: dropping the oldest record releases its bytes, and a block whose
// records have all been dropped goes back to the tail for reuse. Blocks
// never move, so a header points straight at its payload, and nothing is
// copied as the ring grows. Memory therefore follows the most bytes the
// retained records ever needed at once.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace ckpt {

// An arg key. Only string literals convert, and only at compile time
// (consteval), so a key outlives every record that points at it.
class TraceKey {
 public:
  template <std::size_t N>
  consteval TraceKey(const char (&key)[N]) : view_(key, N - 1) {}
  constexpr std::string_view view() const { return view_; }

 private:
  std::string_view view_;
};

// One typed span/instant/audit argument; either a number or a string.
// Trivially copyable: the key views a literal, and a string value views
// the caller's buffer, which the tracer and audit log copy at the call.
struct TraceArg {
  std::string_view key;
  bool is_string = false;
  double num = 0;
  std::string_view str;

  static TraceArg Num(TraceKey key, double value) {
    return {key.view(), false, value, {}};
  }
  static TraceArg Str(TraceKey key, std::string_view value) {
    return {key.view(), true, 0, value};
  }
  // A temporary std::string dies at the end of the statement, before a
  // TraceArgs holding its view reaches the log.
  template <typename S>
    requires std::same_as<S, std::string>
  static TraceArg Str(TraceKey key, S&& value) = delete;
};

using TraceArgs = std::vector<TraceArg>;

// The args of one call, viewed rather than owned: a braced list (which
// lives until the end of the calling statement) or a TraceArgs.
class ArgSpan : public std::span<const TraceArg> {
 public:
  ArgSpan() = default;
  ArgSpan(std::initializer_list<TraceArg> args)
      : std::span<const TraceArg>(args.begin(), args.size()) {}
  ArgSpan(const TraceArgs& args) : std::span<const TraceArg>(args) {}
};

class PackedRing {
 public:
  // Fixed-size part of a record. `data` and `size` locate the payload
  // and are filled by Append; `text` holds the leading strings' lengths.
  struct Header {
    char phase = 0;
    SimTime start = 0;
    SimDuration duration = 0;
    std::int64_t seq = 0;
    std::array<std::uint32_t, 3> text{};
    std::uint32_t size = 0;
    const char* data = nullptr;
  };

  // A payload in parts, encoded in this order: `text` back to back,
  // `packed` verbatim (bytes Encode produced earlier), `args`, then each
  // of `lists` behind a separator.
  struct Payload {
    std::span<const std::string_view> text = {};
    std::string_view packed = {};
    std::span<const TraceArg> args = {};
    std::span<const TraceArgs> lists = {};
  };

  explicit PackedRing(std::size_t capacity);

  PackedRing(const PackedRing&) = delete;
  PackedRing& operator=(const PackedRing&) = delete;

  // Stores `header` with `payload`, first dropping the oldest record when
  // all `capacity` slots are taken.
  void Append(Header header, const Payload& payload);

  static std::size_t EncodedSize(const Payload& payload);
  // Writes EncodedSize(payload) bytes at `out`.
  static void Encode(const Payload& payload, char* out);

  std::size_t size() const { return headers_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return headers_.size() == capacity_; }
  std::int64_t dropped() const { return dropped_; }

  // Record i in insertion order (0 = oldest); i < size().
  const Header& header(std::size_t i) const {
    return headers_[(oldest_ + i) % headers_.size()];
  }
  // Leading string k of record i.
  std::string_view text(std::size_t i, std::size_t k) const;
  // Record i's encoded args: everything after its leading strings.
  std::string_view args(std::size_t i) const;

  // Appends the args at the front of *args, up to the next separator, as
  // one JSON object ({"key":value,...} in order) and consumes them.
  static void AppendArgsJson(std::string_view* args, std::string* out);
  // Decodes and consumes the same args; string values view *args' bytes.
  static TraceArgs DecodeArgs(std::string_view* args);
  // Consumes the separator that opens the next candidate list; false when
  // *args is exhausted.
  static bool NextList(std::string_view* args);

 private:
  struct Block {
    std::unique_ptr<char[]> bytes;
    std::size_t size = 0;
    std::size_t used = 0;
    std::size_t records = 0;  // retained records whose payload is here
  };

  // Claims `bytes` contiguous bytes at the tail for a new payload.
  char* Reserve(std::size_t bytes);
  // Releases the oldest record's payload.
  void Release();

  std::size_t capacity_;
  // Grows to capacity_, then wraps; oldest_ is the oldest record's slot.
  std::vector<Header> headers_;
  std::size_t oldest_ = 0;
  std::int64_t dropped_ = 0;

  // Blocks holding retained payloads, oldest first; back() takes new ones.
  // The bytes a header points at never move.
  std::deque<Block> blocks_;
  // Emptied blocks, reused before anything new is allocated.
  std::vector<Block> spare_;
};

}  // namespace ckpt
