// Minimal big-endian byte readers/writers shared by rdata and message
// codecs. Deliberately bounds-checked: the scanner parses responses from
// simulated-but-untrusted peers, and the property tests feed junk.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace zh::dns {

/// Append-only big-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void bytes(const std::vector<std::uint8_t>& data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  /// Overwrites a previously written u16 at `offset` (for length patches).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  std::size_t size() const noexcept { return out_.size(); }
  const std::vector<std::uint8_t>& data() const noexcept { return out_; }
  /// Empties the sink but keeps its capacity for the next message.
  void clear() noexcept { out_.clear(); }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked big-endian cursor over a byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

  bool seek(std::size_t pos) noexcept {
    if (pos > data_.size()) return false;
    pos_ = pos;
    return true;
  }

  std::optional<std::uint8_t> u8() noexcept {
    if (remaining() < 1) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint16_t> u16() noexcept {
    if (remaining() < 2) return std::nullopt;
    const std::uint16_t v = static_cast<std::uint16_t>(
        (std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::optional<std::uint32_t> u32() noexcept {
    if (remaining() < 4) return std::nullopt;
    const std::uint32_t v =
        (std::uint32_t{data_[pos_]} << 24) |
        (std::uint32_t{data_[pos_ + 1]} << 16) |
        (std::uint32_t{data_[pos_ + 2]} << 8) | std::uint32_t{data_[pos_ + 3]};
    pos_ += 4;
    return v;
  }
  std::optional<std::vector<std::uint8_t>> bytes(std::size_t n) {
    if (remaining() < n) return std::nullopt;
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::optional<std::span<const std::uint8_t>> view(std::size_t n) noexcept {
    if (remaining() < n) return std::nullopt;
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> whole() const noexcept { return data_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace zh::dns
