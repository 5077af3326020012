#include "common/file.h"

#include <fstream>

namespace ckpt {

bool WriteFile(const std::string& path, std::string_view content,
               std::string_view trailer) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  out.close();
  return static_cast<bool>(out);
}

}  // namespace ckpt
