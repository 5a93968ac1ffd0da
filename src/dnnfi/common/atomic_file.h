// Atomic whole-file writes: contents land in a sibling tmp file first and
// are renamed into place, so readers never observe a torn file and a crash
// mid-write leaves the previous version intact (the same discipline
// fault/checkpoint.cpp uses for shard state). rename(2) is atomic within a
// filesystem; callers must keep the final path and its tmp sibling on one.
//
// Each call writes through its own tmp name, "<path>.<pid>.<n>.tmp", so
// concurrent writers of one path (threads, or an orphaned worker and its
// replacement) never truncate each other's tmp: each rename lands one
// complete payload and the last rename wins. The name still ends in ".tmp",
// so directory scans that keep only ".ckpt" files skip it.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>

#include "dnnfi/common/error.h"

namespace dnnfi {

/// Writes `contents` to `path` atomically. On failure the target file is
/// untouched and the call's tmp file is removed.
inline Expected<void> write_file_atomic(const std::string& path,
                                        std::string_view contents) {
  DNNFI_EXPECTS(!path.empty());
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1)) + ".tmp";
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      return fail(Errc::kIo, "cannot open " + tmp + " for writing");
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return fail(Errc::kIo, "short write to " + tmp);
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string why = ec.message();
    std::filesystem::remove(tmp, ec);
    return fail(Errc::kIo, "rename " + tmp + " -> " + path + " failed: " + why);
  }
  return {};
}

}  // namespace dnnfi
