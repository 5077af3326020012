// The scheduler's pending queue: tasks waiting for a node, in the order a
// scheduling pass visits them (priority descending, then submit time and
// task id ascending).
//
// Entries live in fixed-size chunks, each sorted, and the chunks are kept
// in key order, so a walk over the queue reads memory sequentially and a
// lookup is a binary search over chunks followed by one within a chunk.
// Each entry carries the order key plus what a pass needs to reject a task
// without touching its record: when its resubmit backoff ends and its
// demand. A walk holds a Pos, which stays valid until the queue changes;
// after an insert or erase, a walk finds its place again with UpperBound
// on the key it last visited.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/resources.h"
#include "common/units.h"

namespace ckpt {

struct PendingKey {
  int priority = 0;
  SimTime submit_time = 0;
  std::int64_t id = 0;

  friend bool operator<(const PendingKey& a, const PendingKey& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
    return a.id < b.id;
  }
  friend bool operator==(const PendingKey& a, const PendingKey& b) {
    return a.priority == b.priority && a.submit_time == b.submit_time &&
           a.id == b.id;
  }
};

template <typename Task>
struct PendingEntry {
  PendingKey key;
  SimTime eligible_at = 0;  // not schedulable before this instant
  Resources demand;
  Task* task = nullptr;
};

template <typename Task>
class PendingQueue {
 public:
  using Entry = PendingEntry<Task>;
  // Entries per chunk: a split moves at most half a chunk (~1.8 KB).
  static constexpr size_t kChunkEntries = 64;

  // A walk position; {chunk count, 0} is the end. No chunk is ever empty,
  // so every other position names an entry.
  struct Pos {
    size_t chunk = 0;
    size_t index = 0;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t chunks() const { return chunks_.size(); }

  // False, changing nothing, when an entry with the same key is queued.
  bool Insert(const Entry& entry) {
    if (chunks_.empty()) chunks_.push_back(std::make_unique<Chunk>());
    const size_t c = ChunkFor(entry.key);
    Chunk* chunk = chunks_[c].get();
    size_t i = chunk->LowerBound(entry.key);
    if (i < chunk->size && chunk->entries[i].key == entry.key) return false;
    if (chunk->size == kChunkEntries) {
      // A full chunk: an entry past either end starts a chunk of its own,
      // so runs of appends (arrivals at the tail of their priority class)
      // leave full chunks behind; any other entry splits the chunk in half.
      auto fresh = std::make_unique<Chunk>();
      if (i == 0 || i == kChunkEntries) {
        fresh->entries[0] = entry;
        fresh->size = 1;
        chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(
                                             i == 0 ? c : c + 1),
                       std::move(fresh));
        ++size_;
        return true;
      }
      constexpr size_t kHalf = kChunkEntries / 2;
      std::copy(chunk->entries + kHalf, chunk->entries + kChunkEntries,
                fresh->entries);
      fresh->size = kChunkEntries - kHalf;
      chunk->size = kHalf;
      Chunk* target = chunk;
      if (i > kHalf) {
        target = fresh.get();
        i -= kHalf;
      }
      chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c + 1),
                     std::move(fresh));
      chunk = target;
    }
    std::copy_backward(chunk->entries + i, chunk->entries + chunk->size,
                       chunk->entries + chunk->size + 1);
    chunk->entries[i] = entry;
    ++chunk->size;
    ++size_;
    return true;
  }

  // False when no entry has `key`.
  bool Erase(const PendingKey& key) {
    if (chunks_.empty()) return false;
    const size_t c = ChunkFor(key);
    Chunk* chunk = chunks_[c].get();
    const size_t i = chunk->LowerBound(key);
    if (i == chunk->size || !(chunk->entries[i].key == key)) return false;
    std::copy(chunk->entries + i + 1, chunk->entries + chunk->size,
              chunk->entries + i);
    --chunk->size;
    --size_;
    if (chunk->size == 0) {
      chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(c));
    }
    return true;
  }

  Pos Begin() const { return Pos{}; }

  // The entry at `pos`, or null at the end.
  const Entry* At(Pos pos) const {
    if (pos.chunk == chunks_.size()) return nullptr;
    return &chunks_[pos.chunk]->entries[pos.index];
  }

  void Advance(Pos& pos) const {
    if (++pos.index == chunks_[pos.chunk]->size) {
      ++pos.chunk;
      pos.index = 0;
    }
  }

  // The first position whose key orders after `key`.
  Pos UpperBound(const PendingKey& key) const {
    if (chunks_.empty()) return Pos{};
    const size_t c = ChunkFor(key);
    const Chunk& chunk = *chunks_[c];
    const size_t i = static_cast<size_t>(
        std::upper_bound(chunk.entries, chunk.entries + chunk.size, key,
                         [](const PendingKey& k, const Entry& e) {
                           return k < e.key;
                         }) -
        chunk.entries);
    if (i == chunk.size) return Pos{c + 1, 0};
    return Pos{c, i};
  }

 private:
  struct Chunk {
    size_t size = 0;
    Entry entries[kChunkEntries];

    size_t LowerBound(const PendingKey& key) const {
      return static_cast<size_t>(
          std::lower_bound(entries, entries + size, key,
                           [](const Entry& e, const PendingKey& k) {
                             return e.key < k;
                           }) -
          entries);
    }
  };

  // The last chunk whose first key is at most `key` (chunk 0 when none
  // is): the chunk that holds `key` if it is queued, and where it goes if
  // it is not. Requires at least one chunk.
  size_t ChunkFor(const PendingKey& key) const {
    const auto it = std::upper_bound(
        chunks_.begin() + 1, chunks_.end(), key,
        [](const PendingKey& k, const std::unique_ptr<Chunk>& chunk) {
          return k < chunk->entries[0].key;
        });
    return static_cast<size_t>(it - chunks_.begin()) - 1;
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace ckpt
