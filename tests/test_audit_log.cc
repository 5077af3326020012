#include "obs/audit_log.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.h"

namespace ckpt {
namespace {

TEST(AuditLog, EventStampsSequenceAndTime) {
  AuditLog log;
  log.Event("preempt_scan", "scheduler", 1000, {TraceArg::Num("task", 7)});
  log.Event("restore_decision", "node/2", 2000, {TraceArg::Num("task", 7)});
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.record(0).seq, 0);
  EXPECT_EQ(log.record(1).seq, 1);
  EXPECT_EQ(log.record(1).t, 2000);
  EXPECT_EQ(log.record(1).track, "node/2");
  EXPECT_EQ(log.dropped(), 0);
  EXPECT_EQ(log.total_appended(), 2);
}

TEST(AuditLog, RingWrapDropsOldestAndCounts) {
  AuditLog log(/*capacity=*/3);
  for (int i = 0; i < 8; ++i) {
    log.Event("preempt_scan", "scheduler", i * 10,
              {TraceArg::Num("task", i)});
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 5);
  EXPECT_EQ(log.total_appended(), 8);
  // Survivors are the newest three, sequence numbers intact.
  EXPECT_EQ(log.record(0).seq, 5);
  EXPECT_EQ(log.record(2).seq, 7);
}

TEST(AuditLog, AppendSwapLeavesCallersRecordIntact) {
  AuditLog log(/*capacity=*/2);
  AuditRecord scratch;
  for (int i = 0; i < 5; ++i) {
    scratch.kind = "preempt_scan";
    scratch.track = "node/" + std::to_string(i);
    scratch.t = i;
    scratch.args = {TraceArg::Num("task", i)};
    scratch.candidates = {{TraceArg::Str("action", "kill")}};
    log.AppendSwap(&scratch);
    // The log copied the record out; the caller still holds what it built.
    EXPECT_EQ(scratch.track, "node/" + std::to_string(i));
    EXPECT_EQ(scratch.seq, 0);
    ASSERT_EQ(scratch.args.size(), 1u);
    EXPECT_EQ(scratch.args[0].num, i);
    ASSERT_EQ(scratch.candidates.size(), 1u);
    EXPECT_EQ(scratch.candidates[0][0].str, "kill");
  }
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 3);
  EXPECT_EQ(log.record(0).seq, 3);
  EXPECT_EQ(log.record(0).track, "node/3");
  EXPECT_EQ(log.record(1).seq, 4);
  EXPECT_EQ(log.record(1).track, "node/4");
  EXPECT_EQ(log.record(1).candidates.at(0).at(0).str, "kill");
}

TEST(AuditLog, RecordIndexIsBoundsChecked) {
  AuditLog log(/*capacity=*/2);
  EXPECT_DEATH(log.record(0), "");
  log.Event("preempt_scan", "scheduler", 1, {});
  EXPECT_EQ(log.record(0).seq, 0);
  EXPECT_DEATH(log.record(1), "");
}

TEST(AuditLog, JsonlShapeAndCandidates) {
  AuditLog log;
  AuditRecord rec;
  rec.kind = "preempt_scan";
  rec.track = "node/0";
  rec.t = 500;
  rec.args = {TraceArg::Num("task", 3), TraceArg::Str("outcome", "preempted")};
  rec.candidates.push_back(
      {TraceArg::Num("task", 9), TraceArg::Str("action", "kill"),
       TraceArg::Str("reason", "selected")});
  log.Append(std::move(rec));
  log.Event("capacity_fallback", "node/1", 600,
            {TraceArg::Str("reason", "image_capacity")});

  const std::string jsonl = log.ToJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    std::string error;
    json::ValuePtr doc = json::Parse(line, &error);
    ASSERT_NE(doc, nullptr) << error << ": " << line;
    EXPECT_EQ(doc->NumberOr("seq", -1), n);
    ++n;
  }
  EXPECT_EQ(n, 2);

  // First record carries the candidates array with its action/reason pair;
  // the candidate-free record omits the key entirely.
  const std::string first = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_NE(first.find("\"candidates\":[{"), std::string::npos);
  EXPECT_NE(first.find("\"action\":\"kill\""), std::string::npos);
  const std::string second = jsonl.substr(jsonl.find('\n') + 1);
  EXPECT_EQ(second.find("candidates"), std::string::npos);
}

TEST(AuditLog, JsonlIsDeterministic) {
  auto fill = [](AuditLog& log) {
    log.Event("am_decision", "am/4", 123,
              {TraceArg::Num("task", 1), TraceArg::Num("threshold", 1.5),
               TraceArg::Str("action", "checkpoint")});
    log.Event("rm_preempt_dispatch", "rm", 456,
              {TraceArg::Num("considered", 4),
               TraceArg::Num("dispatched", 2)});
  };
  AuditLog a, b;
  fill(a);
  fill(b);
  EXPECT_EQ(a.ToJsonl(), b.ToJsonl());
  EXPECT_NE(a.ToJsonl().find("\"kind\":\"am_decision\""), std::string::npos);
}

TEST(AuditLog, EscapesStringsInJsonl) {
  AuditLog log;
  log.Event("preempt_scan", "track\"quote", 1,
            {TraceArg::Str("reason", "line\nbreak")});
  const std::string jsonl = log.ToJsonl();
  EXPECT_NE(jsonl.find("track\\\"quote"), std::string::npos);
  EXPECT_NE(jsonl.find("line\\nbreak"), std::string::npos);
  std::string error;
  EXPECT_NE(json::Parse(jsonl.substr(0, jsonl.find('\n')), &error), nullptr)
      << error;
}

}  // namespace
}  // namespace ckpt
