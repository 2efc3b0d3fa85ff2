// Checked file I/O — the store's single chokepoint for raw stdio.
//
// Every byte the capture store reads or writes flows through CheckedFile:
// OS failures become typed StoreIoError, short reads inside a structure
// become StoreCorruptionError (a truncated tail, not a crash), and the
// iotls_store_bytes_{read,written}_total metrics are fed in one place.
//
// The `raw-io` lint rule enforces the chokepoint: src/store/io.cpp is the
// only file under src/store/ + tools/store/ allowed to call fopen/fread/
// fwrite and friends.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/bytes.hpp"
#include "store/format.hpp"

namespace iotls::store {

class CheckedFile {
 public:
  /// Open an existing file for reading; StoreIoError if it cannot be opened.
  static CheckedFile open_read(const std::string& path);

  /// Create (truncate) a file for writing; StoreIoError on failure.
  static CheckedFile create(const std::string& path);

  /// Not movable: both factories return a prvalue, and the owner of an
  /// open file keeps it where it was made.
  CheckedFile(const CheckedFile&) = delete;
  CheckedFile& operator=(const CheckedFile&) = delete;
  ~CheckedFile();

  /// Append `data`; throws StoreIoError on any short or failed write.
  void write(common::BytesView data);
  void write(const std::string& text);

  /// Read up to `n` bytes; returns the count actually read (short only at
  /// end-of-file). Throws StoreIoError on a stream error.
  [[nodiscard]] std::size_t read(void* out, std::size_t n);

  /// Read exactly `n` bytes or throw StoreCorruptionError naming `context`
  /// — a short read inside a framed structure means the tail is truncated.
  void read_exact(void* out, std::size_t n, const std::string& context);

  /// True once a read returned 0 bytes.
  [[nodiscard]] bool at_eof() const { return eof_; }

  /// Reposition the read head to an absolute byte offset (read-only files;
  /// the query layer's block skipping). Clears the EOF latch. Throws
  /// StoreIoError on failure.
  void seek(std::uint64_t offset);

  /// Current byte offset; StoreIoError on failure.
  [[nodiscard]] std::uint64_t tell() const;

  /// Flush and close. Idempotent; the destructor closes without throwing.
  void close();

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return written_; }
  [[nodiscard]] std::uint64_t bytes_read() const { return read_count_; }

 private:
  CheckedFile(std::FILE* file, std::string path);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t written_ = 0;
  std::uint64_t read_count_ = 0;
  bool eof_ = false;
};

/// Size of a file in bytes (StoreIoError if it cannot be stat'ed).
std::uint64_t file_size(const std::string& path);

}  // namespace iotls::store
