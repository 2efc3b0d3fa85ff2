// Committed digests of the paper and fleet outputs (perfbench/golden.txt).
// Each line is "<key> <hex digest>". The workloads check every output they
// produce against its entry; in record mode they store the digests instead
// and the file is rewritten at exit.
#pragma once

#include <map>
#include <string>

#include "harness.hpp"

namespace perfbench {

class Golden {
 public:
  /// Loads `path`; a missing file reads as empty.
  Golden(std::string path, bool record);

  /// Compares `digest` with the committed entry for `key` and counts one
  /// attempted check in `result` (failed if the entry differs or is absent).
  /// Recording, stores the digest and counts a passing check.
  void check(const std::string& key, const std::string& digest,
             RunResult& result);

  /// Rewrites the file with every entry, sorted by key.
  bool save() const;

 private:
  std::string path_;
  bool record_ = false;
  std::map<std::string, std::string> entries_;
};

}  // namespace perfbench
