#include "obs/packed_ring.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/json.h"
#include "common/logging.h"

namespace ckpt {

namespace {

// One arg cell. `tag` is a string value's length, or one of the two
// markers below.
struct Cell {
  const char* key;
  std::uint32_t key_size;
  std::uint32_t tag;
  double num;
};
static_assert(sizeof(Cell) == 24);
static_assert(std::is_trivially_copyable_v<Cell>);
static_assert(std::is_trivially_copyable_v<TraceArg>);

constexpr std::uint32_t kNumber = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kSeparator = kNumber - 1;

// Payload block size; a larger payload gets a block of its own size. Pages
// are touched only as payloads are written, so a small log stays small.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

char* Put(std::string_view bytes, char* out) {
  if (!bytes.empty()) std::memcpy(out, bytes.data(), bytes.size());
  return out + bytes.size();
}

char* PutCell(const Cell& cell, char* out) {
  std::memcpy(out, &cell, sizeof cell);
  return out + sizeof cell;
}

std::size_t ArgsSize(std::span<const TraceArg> args) {
  std::size_t bytes = args.size() * sizeof(Cell);
  for (const TraceArg& arg : args) {
    if (arg.is_string) bytes += arg.str.size();
  }
  return bytes;
}

char* PutArgs(std::span<const TraceArg> args, char* out) {
  for (const TraceArg& arg : args) {
    out = PutCell({arg.key.data(), static_cast<std::uint32_t>(arg.key.size()),
                   arg.is_string ? static_cast<std::uint32_t>(arg.str.size())
                                 : kNumber,
                   arg.num},
                  out);
    if (arg.is_string) out = Put(arg.str, out);
  }
  return out;
}

// Reads the cell at the front of *args without consuming it.
Cell PeekCell(std::string_view args) {
  CKPT_CHECK_GE(args.size(), sizeof(Cell));
  Cell cell;
  std::memcpy(&cell, args.data(), sizeof cell);
  return cell;
}

// Consumes one arg at the front of *args, false at a separator or the end.
bool NextArg(std::string_view* args, TraceArg* arg) {
  if (args->empty()) return false;
  const Cell cell = PeekCell(*args);
  if (cell.tag == kSeparator) return false;
  args->remove_prefix(sizeof cell);
  arg->key = std::string_view(cell.key, cell.key_size);
  arg->is_string = cell.tag != kNumber;
  arg->num = arg->is_string ? 0 : cell.num;
  arg->str = {};
  if (arg->is_string) {
    CKPT_CHECK_LE(cell.tag, args->size());
    arg->str = args->substr(0, cell.tag);
    args->remove_prefix(cell.tag);
  }
  return true;
}

}  // namespace

PackedRing::PackedRing(std::size_t capacity) : capacity_(capacity) {
  CKPT_CHECK_GT(capacity, 0u);
  // Header slots are not reserved up front: most runs retire far fewer
  // records than the bound, and short-lived sweep cells each own a log.
}

std::size_t PackedRing::EncodedSize(const Payload& payload) {
  std::size_t bytes = payload.packed.size() + ArgsSize(payload.args);
  for (std::string_view s : payload.text) bytes += s.size();
  for (const TraceArgs& list : payload.lists) {
    bytes += sizeof(Cell) + ArgsSize(list);
  }
  return bytes;
}

void PackedRing::Encode(const Payload& payload, char* out) {
  for (std::string_view s : payload.text) out = Put(s, out);
  out = Put(payload.packed, out);
  out = PutArgs(payload.args, out);
  for (const TraceArgs& list : payload.lists) {
    out = PutCell({nullptr, 0, kSeparator, 0}, out);
    out = PutArgs(list, out);
  }
}

void PackedRing::Append(Header header, const Payload& payload) {
  const std::size_t bytes = EncodedSize(payload);
  CKPT_CHECK_LT(bytes, std::size_t{kNumber});
  std::size_t slot = headers_.size();
  if (full()) {
    // Drop the oldest record; its slot takes the new one.
    slot = oldest_;
    oldest_ = (oldest_ + 1) % capacity_;
    ++dropped_;
    Release();
  } else {
    headers_.emplace_back();
  }
  char* out = Reserve(bytes);
  Encode(payload, out);
  header.size = static_cast<std::uint32_t>(bytes);
  header.data = out;
  headers_[slot] = header;
}

char* PackedRing::Reserve(std::size_t bytes) {
  if (blocks_.empty() || blocks_.back().size - blocks_.back().used < bytes) {
    auto fit = std::find_if(spare_.begin(), spare_.end(),
                            [bytes](const Block& b) { return b.size >= bytes; });
    if (fit != spare_.end()) {
      blocks_.push_back(std::move(*fit));
      spare_.erase(fit);
      blocks_.back().used = 0;
    } else {
      Block& block = blocks_.emplace_back();
      block.size = std::max(kBlockBytes, bytes);
      block.bytes = std::make_unique_for_overwrite<char[]>(block.size);
    }
  }
  Block& block = blocks_.back();
  char* out = block.bytes.get() + block.used;
  block.used += bytes;
  ++block.records;
  return out;
}

void PackedRing::Release() {
  // Records leave in the order they came, so the oldest one's payload is in
  // the front block.
  Block& front = blocks_.front();
  if (--front.records > 0) return;
  spare_.push_back(std::move(front));
  blocks_.pop_front();
}

std::string_view PackedRing::text(std::size_t i, std::size_t k) const {
  const Header& h = header(i);
  std::size_t offset = 0;
  for (std::size_t j = 0; j < k; ++j) offset += h.text[j];
  return {h.data + offset, h.text[k]};
}

std::string_view PackedRing::args(std::size_t i) const {
  const Header& h = header(i);
  const std::size_t text = std::size_t{h.text[0]} + h.text[1] + h.text[2];
  return {h.data + text, h.size - text};
}

void PackedRing::AppendArgsJson(std::string_view* args, std::string* out) {
  out->push_back('{');
  TraceArg arg;
  for (bool first = true; NextArg(args, &arg); first = false) {
    if (!first) out->push_back(',');
    out->push_back('"');
    json::AppendEscaped(arg.key, out);
    *out += "\":";
    if (arg.is_string) {
      out->push_back('"');
      json::AppendEscaped(arg.str, out);
      out->push_back('"');
    } else {
      json::AppendNumber(arg.num, out);
    }
  }
  out->push_back('}');
}

TraceArgs PackedRing::DecodeArgs(std::string_view* args) {
  TraceArgs decoded;
  TraceArg arg;
  while (NextArg(args, &arg)) decoded.push_back(arg);
  return decoded;
}

bool PackedRing::NextList(std::string_view* args) {
  if (args->empty()) return false;
  CKPT_CHECK_EQ(PeekCell(*args).tag, kSeparator);
  args->remove_prefix(sizeof(Cell));
  return true;
}

}  // namespace ckpt
