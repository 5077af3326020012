// Whole-file output shared by every writer of run artifacts.
#pragma once

#include <string>
#include <string_view>

namespace ckpt {

// Replaces the file at `path` with `content` followed by `trailer` (which
// lets a single-document format end in a newline without copying the
// document to append it). False when the file cannot be opened or any
// byte fails to reach it, including in the final flush at close: a file
// smaller than the stream buffer is written only then.
bool WriteFile(const std::string& path, std::string_view content,
               std::string_view trailer = "");

}  // namespace ckpt
