#include "golden.hpp"

#include <fstream>

namespace perfbench {

Golden::Golden(std::string path, bool record)
    : path_(std::move(path)), record_(record) {
  std::ifstream in(path_);
  std::string key;
  std::string digest;
  while (in >> key >> digest) entries_[key] = digest;
}

void Golden::check(const std::string& key, const std::string& digest,
                   RunResult& result) {
  if (record_) {
    entries_[key] = digest;
    result.attempt(true, key);
    return;
  }
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    result.attempt(false, key + ": no committed digest");
  } else {
    result.attempt(it->second == digest,
                   key + ": digest " + digest + " != committed " + it->second);
  }
}

bool Golden::save() const {
  std::ofstream out(path_, std::ios::trunc);
  for (const auto& [key, digest] : entries_) out << key << ' ' << digest << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
