// Per-process temporary paths for tests. ctest runs each test in its own
// process, and two runs of one test binary can overlap (two build trees'
// ctest on one host, say), so a fixture directory or scratch file named
// only after the test would be shared, removed or killed by the other run.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

namespace dnnfi::testutil {

/// temp_directory_path() / (name + "." + pid): unique to this process.
inline std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (name + "." + std::to_string(::getpid()));
}

}  // namespace dnnfi::testutil
