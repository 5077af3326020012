// PendingQueue must hold and walk exactly what a std::set ordered by the
// same key would: the scheduling pass visits pending tasks in this order,
// and every decision depends on it. Seeded random inserts, erases and
// walks are checked against the set as they run, alongside the cases
// the scheduler leans on: ties broken by id, victims requeued with their
// old submit times, a walk resumed by key after the queue changed under
// it, chunk splits, emptied chunks and draining to empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "scheduler/pending_queue.h"

namespace ckpt {
namespace {

struct Task {
  PendingKey key;
};

using Queue = PendingQueue<Task>;
constexpr size_t kChunk = Queue::kChunkEntries;

// Task records stay put, so entries can point at them.
class Pool {
 public:
  Task* Make(const PendingKey& key) {
    tasks_.push_back(std::make_unique<Task>(Task{key}));
    return tasks_.back().get();
  }

 private:
  std::vector<std::unique_ptr<Task>> tasks_;
};

Queue::Entry EntryFor(Task* task) {
  Queue::Entry e;
  e.key = task->key;
  e.eligible_at = task->key.submit_time + 7;
  e.demand = Resources{static_cast<double>(task->key.id % 5),
                       static_cast<Bytes>(task->key.id)};
  e.task = task;
  return e;
}

std::vector<PendingKey> Walk(const Queue& q) {
  std::vector<PendingKey> out;
  for (Queue::Pos pos = q.Begin(); const auto* e = q.At(pos); q.Advance(pos)) {
    out.push_back(e->key);
  }
  return out;
}

// The queue's walk equals the set's, and every entry still carries what
// was inserted with it.
void ExpectSameAs(const Queue& q, const std::set<PendingKey>& want) {
  ASSERT_EQ(q.size(), want.size());
  ASSERT_EQ(q.empty(), want.empty());
  const std::vector<PendingKey> got = Walk(q);
  ASSERT_EQ(got.size(), want.size());
  auto it = want.begin();
  for (size_t i = 0; i < got.size(); ++i, ++it) {
    ASSERT_TRUE(got[i] == *it) << "at " << i;
  }
  for (Queue::Pos pos = q.Begin(); const auto* e = q.At(pos); q.Advance(pos)) {
    ASSERT_TRUE(e->task->key == e->key);
    ASSERT_EQ(e->eligible_at, e->key.submit_time + 7);
    ASSERT_EQ(e->demand.memory, e->key.id);
  }
}

PendingKey Key(int priority, SimTime submit, std::int64_t id) {
  return PendingKey{priority, submit, id};
}

TEST(PendingQueue, KeyOrdersPriorityDownThenSubmitThenId) {
  EXPECT_TRUE(Key(5, 100, 9) < Key(4, 0, 0));
  EXPECT_TRUE(Key(5, 10, 9) < Key(5, 11, 0));
  EXPECT_TRUE(Key(5, 10, 1) < Key(5, 10, 2));
  EXPECT_FALSE(Key(5, 10, 2) < Key(5, 10, 2));
}

TEST(PendingQueue, RandomOperationsMatchASet) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    Pool pool;
    Queue q;
    std::set<PendingKey> want;
    std::vector<Task*> queued;
    std::int64_t next_id = 0;
    size_t max_chunks = 0;
    for (int step = 0; step < 6000; ++step) {
      const double draw = rng.Uniform();
      // Inserts outnumber erases until the queue holds a few thousand
      // entries, then the two balance.
      const double insert_share = want.size() < 3000 ? 0.6 : 0.5;
      if (draw < insert_share || queued.empty()) {
        // Few priorities and submit times: many ties fall to the id.
        Task* task = pool.Make(Key(static_cast<int>(rng.UniformInt(0, 11)),
                                   rng.UniformInt(0, 40), next_id++));
        ASSERT_TRUE(q.Insert(EntryFor(task)));
        want.insert(task->key);
        queued.push_back(task);
      } else {
        const size_t i = static_cast<size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(queued.size()) - 1));
        ASSERT_TRUE(q.Erase(queued[i]->key));
        want.erase(queued[i]->key);
        queued[i] = queued.back();
        queued.pop_back();
      }
      max_chunks = std::max(max_chunks, q.chunks());
      if (step % 97 == 0) ExpectSameAs(q, want);
    }
    ExpectSameAs(q, want);
    EXPECT_GT(max_chunks, 16u);
    // No chunk is ever empty, and appends and halving splits keep them at
    // least a quarter full on this mix.
    EXPECT_LE(q.chunks() * kChunk, 4 * q.size() + kChunk);
  }
}

TEST(PendingQueue, DuplicateInsertAndMissingEraseChangeNothing) {
  Pool pool;
  Queue q;
  std::set<PendingKey> want;
  for (std::int64_t id = 0; id < 3 * static_cast<std::int64_t>(kChunk); ++id) {
    Task* task = pool.Make(Key(1, id / 4, id));
    ASSERT_TRUE(q.Insert(EntryFor(task)));
    want.insert(task->key);
  }
  EXPECT_FALSE(q.Insert(EntryFor(pool.Make(Key(1, 3, 13)))));
  EXPECT_FALSE(q.Erase(Key(1, 4, 12)));   // id 12 was submitted at 3
  EXPECT_FALSE(q.Erase(Key(2, 3, 13)));   // right id and time, wrong class
  EXPECT_FALSE(q.Erase(Key(0, 999, 0)));  // past the tail
  ExpectSameAs(q, want);
}

TEST(PendingQueue, EqualSubmitTimesAreBrokenById) {
  Rng rng(11);
  Pool pool;
  Queue q;
  std::vector<std::int64_t> ids;
  for (std::int64_t id = 0; id < 5 * static_cast<std::int64_t>(kChunk); ++id) {
    ids.push_back(id * 3);
  }
  std::shuffle(ids.begin(), ids.end(), rng.engine());
  for (const std::int64_t id : ids) {
    ASSERT_TRUE(q.Insert(EntryFor(pool.Make(Key(4, 500, id)))));
  }
  const std::vector<PendingKey> walk = Walk(q);
  ASSERT_EQ(walk.size(), ids.size());
  for (size_t i = 0; i < walk.size(); ++i) {
    EXPECT_EQ(walk[i].id, static_cast<std::int64_t>(i) * 3);
  }
}

TEST(PendingQueue, RequeuedVictimsReturnToTheirOldPlace) {
  // Arrivals at increasing times; some are placed (erased) and later come
  // back, as preemption victims do, keyed by their original submit time.
  Rng rng(12);
  Pool pool;
  Queue q;
  std::set<PendingKey> want;
  std::vector<Task*> all;
  for (std::int64_t id = 0; id < 8 * static_cast<std::int64_t>(kChunk); ++id) {
    Task* task = pool.Make(Key(static_cast<int>(id % 3), 10 * id, id));
    all.push_back(task);
    ASSERT_TRUE(q.Insert(EntryFor(task)));
    want.insert(task->key);
  }
  std::vector<Task*> placed;
  for (Task* task : all) {
    if (rng.Uniform() < 0.4) {
      ASSERT_TRUE(q.Erase(task->key));
      want.erase(task->key);
      placed.push_back(task);
    }
  }
  ExpectSameAs(q, want);
  // Newer arrivals land at the tails of their classes meanwhile.
  for (std::int64_t id = 10000; id < 10000 + 2 * static_cast<std::int64_t>(kChunk);
       ++id) {
    Task* task = pool.Make(Key(static_cast<int>(id % 3), 100000 + id, id));
    ASSERT_TRUE(q.Insert(EntryFor(task)));
    want.insert(task->key);
  }
  std::shuffle(placed.begin(), placed.end(), rng.engine());
  for (Task* task : placed) {
    ASSERT_TRUE(q.Insert(EntryFor(task)));
    want.insert(task->key);
  }
  ExpectSameAs(q, want);
}

TEST(PendingQueue, HeldPositionIsFoundAgainByKey) {
  // A walk stops at an entry, the queue changes around it (victims of a
  // preemption are queued before and after it, splitting its chunk), and
  // the walk resumes after the entry's key. A std::set iterator held
  // across the same inserts is the reference.
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    Pool pool;
    Queue q;
    std::set<PendingKey> want;
    std::int64_t next_id = 0;
    auto insert_random = [&] {
      Task* task = pool.Make(Key(static_cast<int>(rng.UniformInt(0, 3)),
                                 rng.UniformInt(0, 200), next_id++));
      ASSERT_TRUE(q.Insert(EntryFor(task)));
      want.insert(task->key);
    };
    for (int i = 0; i < 6 * static_cast<int>(kChunk); ++i) insert_random();
    Queue::Pos pos = q.Begin();
    auto held = want.begin();
    const int steps = static_cast<int>(rng.UniformInt(0, 5 * kChunk));
    for (int i = 0; i < steps; ++i) {
      q.Advance(pos);
      ++held;
    }
    ASSERT_TRUE(q.At(pos)->key == *held);
    const PendingKey key = *held;
    for (int i = 0; i < 2 * static_cast<int>(kChunk); ++i) insert_random();
    // A copy of the held key itself goes nowhere.
    EXPECT_FALSE(q.Insert(EntryFor(pool.Make(key))));
    pos = q.UpperBound(key);
    for (++held; held != want.end(); ++held) {
      const auto* e = q.At(pos);
      ASSERT_NE(e, nullptr);
      ASSERT_TRUE(e->key == *held);
      q.Advance(pos);
    }
    EXPECT_EQ(q.At(pos), nullptr);
    ExpectSameAs(q, want);
  }
}

TEST(PendingQueue, UpperBoundOfAbsentKeysAndEnds) {
  Pool pool;
  Queue q;
  EXPECT_EQ(q.At(q.UpperBound(Key(3, 0, 0))), nullptr);
  for (std::int64_t id = 0; id < 2 * static_cast<std::int64_t>(kChunk); ++id) {
    ASSERT_TRUE(q.Insert(EntryFor(pool.Make(Key(3, 2 * id, id)))));
  }
  // Before the head, between two entries, and past the tail.
  EXPECT_TRUE(q.At(q.UpperBound(Key(4, 0, 0)))->key == Key(3, 0, 0));
  EXPECT_TRUE(q.At(q.UpperBound(Key(3, 2 * kChunk - 1, 0)))->key ==
              Key(3, 2 * kChunk, kChunk));
  EXPECT_TRUE(q.At(q.UpperBound(Key(3, 2 * kChunk - 2, kChunk - 1)))->key ==
              Key(3, 2 * kChunk, kChunk));
  EXPECT_EQ(q.At(q.UpperBound(Key(3, 4 * kChunk, 0))), nullptr);
}

TEST(PendingQueue, AppendsFillChunksAndMidInsertsSplitThem) {
  Pool pool;
  Queue q;
  std::set<PendingKey> want;
  const std::int64_t n = 4 * static_cast<std::int64_t>(kChunk);
  for (std::int64_t id = 0; id < n; ++id) {
    Task* task = pool.Make(Key(2, 10 * id, id));
    ASSERT_TRUE(q.Insert(EntryFor(task)));
    want.insert(task->key);
  }
  EXPECT_EQ(q.chunks(), 4u);  // appends leave full chunks behind
  // Into the middle of the full second chunk: it splits in half.
  Task* mid = pool.Make(Key(2, 10 * static_cast<SimTime>(kChunk + kChunk / 4) + 5,
                            n));
  ASSERT_TRUE(q.Insert(EntryFor(mid)));
  want.insert(mid->key);
  EXPECT_EQ(q.chunks(), 5u);
  ExpectSameAs(q, want);
  // Before the head of a full first chunk: a chunk of its own.
  Task* head = pool.Make(Key(3, 0, n + 1));
  ASSERT_TRUE(q.Insert(EntryFor(head)));
  want.insert(head->key);
  EXPECT_EQ(q.chunks(), 6u);
  ExpectSameAs(q, want);
  // Fill the split halves back up and split them again.
  for (std::int64_t i = 0; i < 2 * static_cast<std::int64_t>(kChunk); ++i) {
    Task* task = pool.Make(Key(2, 10 * (kChunk + i) + 3, n + 2 + i));
    ASSERT_TRUE(q.Insert(EntryFor(task)));
    want.insert(task->key);
    if (i % 16 == 0) ExpectSameAs(q, want);
  }
  ExpectSameAs(q, want);
}

TEST(PendingQueue, EmptiedChunksAreDropped) {
  Pool pool;
  Queue q;
  std::set<PendingKey> want;
  std::vector<PendingKey> keys;
  for (std::int64_t id = 0; id < 3 * static_cast<std::int64_t>(kChunk); ++id) {
    Task* task = pool.Make(Key(1, id, id));
    ASSERT_TRUE(q.Insert(EntryFor(task)));
    want.insert(task->key);
    keys.push_back(task->key);
  }
  ASSERT_EQ(q.chunks(), 3u);
  // Empty the middle chunk, then the first: the walk steps straight from
  // one surviving chunk to the next.
  for (size_t i = kChunk; i < 2 * kChunk; ++i) {
    ASSERT_TRUE(q.Erase(keys[i]));
    want.erase(keys[i]);
  }
  EXPECT_EQ(q.chunks(), 2u);
  ExpectSameAs(q, want);
  for (size_t i = 0; i < kChunk; ++i) {
    ASSERT_TRUE(q.Erase(keys[i]));
    want.erase(keys[i]);
  }
  EXPECT_EQ(q.chunks(), 1u);
  ExpectSameAs(q, want);
  EXPECT_TRUE(q.At(q.Begin())->key == keys[2 * kChunk]);
  // An emptied gap takes new entries again.
  Task* back = pool.Make(keys[kChunk + 3]);
  ASSERT_TRUE(q.Insert(EntryFor(back)));
  want.insert(back->key);
  ExpectSameAs(q, want);
}

TEST(PendingQueue, DrainsToEmptyAndRefills) {
  Rng rng(31);
  Pool pool;
  Queue q;
  std::set<PendingKey> want;
  std::vector<PendingKey> keys;
  for (std::int64_t id = 0; id < 7 * static_cast<std::int64_t>(kChunk); ++id) {
    Task* task = pool.Make(Key(static_cast<int>(rng.UniformInt(0, 11)),
                               rng.UniformInt(0, 1000), id));
    ASSERT_TRUE(q.Insert(EntryFor(task)));
    want.insert(task->key);
    keys.push_back(task->key);
  }
  std::shuffle(keys.begin(), keys.end(), rng.engine());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(q.Erase(keys[i]));
    want.erase(keys[i]);
    if (i % 50 == 0) ExpectSameAs(q, want);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.chunks(), 0u);
  EXPECT_EQ(q.At(q.Begin()), nullptr);
  EXPECT_FALSE(q.Erase(keys[0]));
  Task* task = pool.Make(Key(0, 5, 5));
  ASSERT_TRUE(q.Insert(EntryFor(task)));
  want.insert(task->key);
  ExpectSameAs(q, want);
}

}  // namespace
}  // namespace ckpt
