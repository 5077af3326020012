#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace ckpt {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CallbacksCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] {
    ++fired;
    sim.ScheduleAfter(5, [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 6);
}

TEST(Simulator, RunUntilStopsAtBound) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(100, [&] { ++fired; });
  sim.Run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime inner_fire_time = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(25, [&] { inner_fire_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fire_time, 125);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.ScheduleAt(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.EventsProcessed(), 7);
}

// Regression test for the event-core rewrite: a callback that schedules new
// events at the current instant (delay 0) must see them fire after every
// event already pending at that instant, in schedule order — the scheduler
// relies on this when RunSchedulePass is armed from within a completion
// event.
TEST(Simulator, EventsScheduledAtNowFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&] {
    order.push_back(0);
    sim.ScheduleAfter(0, [&] { order.push_back(3); });
    sim.ScheduleAfter(0, [&] {
      order.push_back(4);
      sim.ScheduleAt(sim.Now(), [&] { order.push_back(5); });
    });
  });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.Now(), 10);
}

TEST(Simulator, CancelPreventsCallbackAndIsCountedOut) {
  Simulator sim;
  int fired = 0;
  EventHandle handle = sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  EXPECT_EQ(sim.PendingEvents(), 2);
  EXPECT_TRUE(sim.Cancel(handle));
  EXPECT_FALSE(sim.Cancel(handle));
  EXPECT_EQ(sim.PendingEvents(), 1);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.EventsProcessed(), 1);
  EXPECT_EQ(sim.Now(), 20);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  EventHandle handle = sim.ScheduleAt(1, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(handle));
}

TEST(Simulator, CancelingAllEventsLeavesQueueEmpty) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.ScheduleAt(i, [] {}));
  }
  for (const EventHandle& handle : handles) {
    EXPECT_TRUE(sim.Cancel(handle));
  }
  EXPECT_TRUE(sim.Empty());
  EXPECT_EQ(sim.Run(), 0);
}

TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.ScheduleAt(10, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(5, [] {}), "cannot schedule into the past");
}

}  // namespace
}  // namespace ckpt
