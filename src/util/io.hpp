#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

namespace caml::io {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data` — the checksum
/// every CAMLF1 container carries over its payload.
std::uint32_t crc32(std::string_view data);

/// Incremental CRC-32 over a byte stream: feed chunks through update()
/// and read value() at any point. Equivalent to crc32() over the
/// concatenation, so writers can checksum while streaming instead of
/// buffering the whole payload.
class Crc32 {
 public:
  void update(std::string_view data);
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// Reads a whole file into memory. Throws caml::Error when the file
/// cannot be opened or read.
std::string read_file(const std::string& path);

/// All-or-nothing file replacement: buffers the payload in memory and,
/// on commit(), writes it to `<path>.tmp.<pid>`, fsyncs, renames over
/// `path` and fsyncs the parent directory. A crash (or injected fault)
/// at any point leaves the previous file intact — readers only ever see
/// the old bytes or the complete new bytes, never a torn mix.
///
/// `fault_point` names this writer's fault-injection site (see
/// util/fault.hpp); the default tags generic artifact writes.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path, std::string fault_point = "atomic");
  /// Removes the temp file if commit() was never reached or failed.
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Buffer to stream the new contents into.
  std::ostream& stream() { return buffer_; }

  /// Durably publishes the buffered bytes. Throws caml::Error on any
  /// I/O failure (the target is left untouched). At most one commit.
  void commit();

  /// Discards the buffered bytes and removes the temp file (no-op when
  /// nothing was staged). Called by the destructor.
  void abort() noexcept;

 private:
  std::string path_;
  std::string tmp_;
  std::string point_;
  std::ostringstream buffer_;
  bool committed_ = false;
};

/// One-shot atomic write of `payload` to `path` (no container framing).
void write_file_atomic(const std::string& path, std::string_view payload,
                       const std::string& fault_point = "atomic");

/// Read-only memory mapping of a whole file (RAII). The mapping is
/// private and never written through; bytes() stays valid until the
/// object (or the object it was moved into) is destroyed. Throws
/// caml::Error when the file cannot be opened, stat'ed or mapped.
///
/// The file descriptor is kept open for the mapping's lifetime: it pins
/// the inode (an unlink or atomic-rename replacement can never reclaim
/// the backing pages while we serve from them) and lets size_changed()
/// revalidate the on-disk size, catching in-place truncation — the one
/// mutation that makes accesses beyond the new EOF raise SIGBUS.
class MappedFile {
 public:
  MappedFile() = default;
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::string_view bytes() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }
  bool mapped() const { return data_ != nullptr; }

  /// True when the mapped file's current on-disk size no longer matches
  /// the mapped size — someone truncated or rewrote it in place, and
  /// pages beyond the new EOF would SIGBUS on access. Best-effort: an
  /// fstat failure reports "changed" (assume the worst).
  bool size_changed() const;

 private:
  void reset() noexcept;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  int fd_ = -1;  ///< pins the inode; -1 for empty/unmapped files
};

/// Checksummed container framing for durable artifacts. The on-disk
/// layout is a single header line followed by the raw payload bytes:
///
///   CAMLF1 <kind> len=<payload-bytes> crc32=<8-hex-digits>\n
///   <payload>
///
/// `kind` tags the payload type ("models", "camodel",
/// "journal") so loading the wrong artifact into a parser fails loud,
/// and the CRC turns silent truncation or bit rot into a ParseError
/// naming the file and byte offset instead of garbage models.
inline constexpr std::string_view kContainerMagic = "CAMLF1";

/// Frames `payload` (header + payload bytes) without touching disk.
std::string frame_checksummed(std::string_view kind, std::string_view payload);

/// True when `bytes` starts with the container magic — used by loaders
/// that also accept raw files.
bool is_checksummed(std::string_view bytes);

/// Validates the container (magic, kind, declared length, CRC) and
/// returns the payload. Throws caml::ParseError describing the failure,
/// the offending file and the byte offset.
std::string unwrap_checksummed(std::string_view bytes, std::string_view kind,
                               const std::string& path_for_errors);

/// frame + atomic write in one step.
void write_checksummed_file(const std::string& path, std::string_view kind,
                            std::string_view payload,
                            const std::string& fault_point = "atomic");

/// Streaming CAMLF1 writer: the atomic-publish guarantees of
/// AtomicFileWriter plus container framing, without ever holding the
/// payload in memory. Bytes flow straight to the staging file in fixed
/// chunks while a Crc32 runs incrementally; commit() back-patches the
/// header — written as a fixed-width placeholder (`len=` zero-padded to
/// 20 digits, which every existing reader parses) — then fsyncs and
/// renames. Saving a store costs O(chunk) resident memory instead of
/// 2-3x the serialized size.
class ChecksummedFileWriter {
 public:
  ChecksummedFileWriter(std::string path, std::string kind,
                        std::string fault_point = "atomic");
  /// Removes the staging file when commit() was never reached.
  ~ChecksummedFileWriter();

  ChecksummedFileWriter(const ChecksummedFileWriter&) = delete;
  ChecksummedFileWriter& operator=(const ChecksummedFileWriter&) = delete;

  /// Payload stream; bytes are chunk-flushed to the staging file.
  std::ostream& stream() { return out_; }
  /// Raw payload bytes (the binary-store writer path).
  void write(const void* data, std::size_t n);
  /// Payload bytes flushed to the staging file so far; the final total
  /// (chunks may still be buffered) only after commit().
  std::uint64_t bytes_written() const { return payload_bytes_; }

  /// Flushes, patches the real header, fsyncs and atomically publishes.
  /// Throws caml::Error on any I/O failure; the target is untouched.
  void commit();
  void abort() noexcept;

 private:
  class Buf;
  void flush_chunk(const char* data, std::size_t n);
  void open_staging();

  std::string path_;
  std::string tmp_;
  std::string kind_;
  std::string point_;
  int fd_ = -1;
  Crc32 crc_;
  std::uint64_t payload_bytes_ = 0;
  bool committed_ = false;
  std::unique_ptr<Buf> buf_;
  std::ostream out_;
};

/// read + validate + unwrap in one step.
std::string read_checksummed_file(const std::string& path, std::string_view kind);

/// Reads a file that is either a validated CAMLF1 container of `kind` or
/// an unframed artifact (returned verbatim, unvalidated) — the load path
/// for .camodel files, which `caml predict` and `caml query` write as
/// raw interchange text.
std::string read_checksummed_or_raw(const std::string& path, std::string_view kind);

}  // namespace caml::io
