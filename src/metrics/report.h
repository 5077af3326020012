// ASCII table printer shared by the bench harnesses so every reproduced
// figure/table prints in a uniform format.
#pragma once

#include <string>
#include <vector>

namespace ckpt {

// Fixed-width table: first row is the header.
std::string RenderTable(const std::vector<std::vector<std::string>>& rows);

std::string Fmt(double v, int precision = 2);

}  // namespace ckpt
