// The one file under src/store/ + tools/store/ allowed to touch raw stdio
// (enforced by the iotls-lint `raw-io` rule).
#include "store/io.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"

namespace iotls::store {

namespace {

std::string errno_text() { return std::strerror(errno); }

void count_bytes(const char* name, std::size_t n) {
  if (!obs::metrics_enabled() || n == 0) return;
  obs::MetricsRegistry::global()
      .counter(name, "Capture-store bytes through CheckedFile")
      .inc(static_cast<std::uint64_t>(n));
}

}  // namespace

CheckedFile::CheckedFile(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

CheckedFile::~CheckedFile() {
  if (file_ != nullptr) std::fclose(file_);
}

CheckedFile CheckedFile::open_read(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw StoreIoError("cannot open " + path + " for reading: " +
                       errno_text());
  }
  return CheckedFile(file, path);
}

CheckedFile CheckedFile::create(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw StoreIoError("cannot create " + path + ": " + errno_text());
  }
  return CheckedFile(file, path);
}

void CheckedFile::write(common::BytesView data) {
  if (data.empty()) return;
  if (file_ == nullptr) throw StoreIoError("write to closed file " + path_);
  const std::size_t n = std::fwrite(data.data(), 1, data.size(), file_);
  if (n != data.size()) {
    throw StoreIoError("short write to " + path_ + " (" + std::to_string(n) +
                       "/" + std::to_string(data.size()) + " bytes): " +
                       errno_text());
  }
  written_ += n;
  count_bytes("iotls_store_bytes_written_total", n);
}

void CheckedFile::write(const std::string& text) {
  write(common::BytesView(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::size_t CheckedFile::read(void* out, std::size_t n) {
  if (file_ == nullptr) throw StoreIoError("read from closed file " + path_);
  const std::size_t got = std::fread(out, 1, n, file_);
  if (got < n) {
    if (std::ferror(file_) != 0) {
      throw StoreIoError("read error on " + path_ + ": " + errno_text());
    }
    eof_ = true;
  }
  read_count_ += got;
  count_bytes("iotls_store_bytes_read_total", got);
  return got;
}

void CheckedFile::read_exact(void* out, std::size_t n,
                             const std::string& context) {
  const std::size_t got = read(out, n);
  if (got != n) {
    throw StoreCorruptionError(path_ + ": truncated " + context + " (got " +
                               std::to_string(got) + " of " +
                               std::to_string(n) + " bytes)");
  }
}

void CheckedFile::seek(std::uint64_t offset) {
  if (file_ == nullptr) throw StoreIoError("seek on closed file " + path_);
  if (offset > static_cast<std::uint64_t>(
                   std::numeric_limits<long>::max()) ||
      std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    throw StoreIoError("cannot seek to offset " + std::to_string(offset) +
                       " in " + path_ + ": " + errno_text());
  }
  eof_ = false;
}

std::uint64_t CheckedFile::tell() const {
  if (file_ == nullptr) throw StoreIoError("tell on closed file " + path_);
  const long pos = std::ftell(file_);
  if (pos < 0) {
    throw StoreIoError("cannot tell position in " + path_ + ": " +
                       errno_text());
  }
  return static_cast<std::uint64_t>(pos);
}

void CheckedFile::close() {
  if (file_ == nullptr) return;
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) {
    throw StoreIoError("close failed on " + path_ + ": " + errno_text());
  }
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw StoreIoError("cannot stat " + path + ": " + ec.message());
  }
  return static_cast<std::uint64_t>(size);
}

}  // namespace iotls::store
