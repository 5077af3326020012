#include "metrics/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace ckpt {

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string RenderTable(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return "";
  std::vector<size_t> widths;
  for (const auto& row : rows) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  for (size_t r = 0; r < rows.size(); ++r) {
    out << "  ";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      out << rows[r][c];
      if (c + 1 < rows[r].size()) {
        out << std::string(widths[c] - rows[r][c].size() + 2, ' ');
      }
    }
    out << "\n";
    if (r == 0) {
      size_t total = 2;
      for (size_t c = 0; c < widths.size(); ++c) {
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
      }
      out << "  " << std::string(total, '-') << "\n";
    }
  }
  return out.str();
}

}  // namespace ckpt
