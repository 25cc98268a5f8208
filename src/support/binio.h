// Bounds-checked little-endian binary encoding, the byte-level layer of
// the exploration checkpoint format (sched/checkpoint.h).
//
// Writers append to a growable buffer; readers consume a byte span and
// throw BinError the moment a read would run past the end or a size
// prefix is implausible — *before* allocating, so a corrupt or
// truncated payload can cost at most an exception, never an OOM or a
// crash.  All integers are fixed-width little-endian (the format is a
// persistent artifact; host byte order must not leak into it).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cac::support {

/// Malformed binary input: truncated stream, oversized length prefix,
/// or an out-of-range enum tag.  Checkpoint loading translates this
/// into a structured CheckpointError.
class BinError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }

  /// Length-prefixed string (u64 size + raw bytes).
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  /// Raw bytes, no size prefix; pair with a reader that knows the size.
  void bytes(const void* data, std::size_t n) {
    if (n == 0) return;  // data may be null (an empty vector's data())
    buf_.append(static_cast<const char*>(data), n);
  }

  /// An array of little-endian words, no size prefix.
  template <typename T>
  void words(const T* v, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(v, n * sizeof(T));
    } else {
      for (std::size_t i = 0; i < n; ++i) put_le(v[i]);
    }
  }

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    char out[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(out, sizeof(T));
  }

  std::string buf_;
};

class BinReader {
 public:
  explicit BinReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::string str() {
    const std::uint64_t n = u64();
    need(n);  // validates the length prefix before allocating
    std::string out(data_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  void bytes(void* out, std::size_t n) {
    need(n);
    if (n == 0) return;  // out may be null (an empty vector's data())
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  /// The counterpart of BinWriter::words.
  template <typename T>
  void words(T* out, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(out, n * sizeof(T));
    } else {
      for (std::size_t i = 0; i < n; ++i) out[i] = get_le<T>();
    }
  }

  /// Read a count prefix for elements of at least `elem_bytes` each,
  /// rejecting counts the remaining input cannot possibly hold — the
  /// guard that keeps corrupt size fields from turning into huge
  /// reserve() calls.
  std::uint64_t count(std::size_t elem_bytes = 1) {
    const std::uint64_t n = u64();
    if (elem_bytes != 0 && n > remaining() / elem_bytes) {
      throw BinError("implausible element count in binary input");
    }
    return n;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::uint64_t n) const {
    if (n > remaining()) throw BinError("truncated binary input");
  }

  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace cac::support
