// The comparison behind the golden-result tests: a run's result fields as
// "name=value" tokens against the line recorded for its cell.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

namespace ckpt {

struct Golden {
  const char* cell;
  const char* fields;  // whitespace-separated "name=value" tokens
};

// Expects `got` to equal, token for token, the line `recorded` holds for
// `cell`. On a mismatch prints the actual line, ready to paste in as the
// new recording.
inline void ExpectGoldenLine(std::span<const Golden> recorded,
                             const char* cell,
                             const std::vector<std::string>& got) {
  std::string line;
  for (const std::string& field : got) line += (line.empty() ? "" : " ") + field;
  const char* golden = nullptr;
  for (const Golden& g : recorded) {
    if (std::strcmp(g.cell, cell) == 0) {
      golden = g.fields;
      break;
    }
  }
  ASSERT_NE(golden, nullptr) << "no recording; actual:\n" << line;
  std::vector<std::string> want;
  std::istringstream in(golden);
  for (std::string token; in >> token;) want.push_back(token);
  ASSERT_EQ(got.size(), want.size()) << "actual:\n" << line;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]);
  }
  if (::testing::Test::HasFailure()) ADD_FAILURE() << "actual:\n" << line;
}

}  // namespace ckpt
