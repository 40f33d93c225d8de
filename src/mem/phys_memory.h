// Physical memory model: a flat byte-addressable DRAM with little-endian
// multi-byte accessors, mirroring the 4 GiB DDR3 SO-DIMM of the prototype.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "support/status.h"

namespace roload::mem {

inline constexpr std::uint64_t kPageSize = 4096;
inline constexpr unsigned kPageShift = 12;

class PhysMemory {
 public:
  explicit PhysMemory(std::uint64_t size_bytes);

  std::uint64_t size() const { return bytes_.size(); }
  bool Contains(std::uint64_t addr, unsigned bytes) const {
    return addr + bytes <= bytes_.size() && addr + bytes >= addr;
  }

  // Checked accessors; width in {1,2,4,8}; little-endian.
  std::uint64_t Read(std::uint64_t addr, unsigned bytes) const;
  void Write(std::uint64_t addr, unsigned bytes, std::uint64_t value);

  // Inline unchecked variants for the CPU's fetches, loads and stores on
  // every execute tier: identical to Read/Write minus the bounds CHECK —
  // every caller sits behind a Contains() test that already proved the
  // range. Each memcpy length is a compile-time constant, so an access
  // lowers to one host load/store. `bytes` is in {1, 2, 4, 8}.
  std::uint64_t ReadUnchecked(std::uint64_t addr, unsigned bytes) const {
    const std::uint8_t* src = bytes_.data() + addr;
    switch (bytes) {
      case 1: {
        std::uint8_t v;
        std::memcpy(&v, src, 1);
        return v;
      }
      case 2: {
        std::uint16_t v;
        std::memcpy(&v, src, 2);
        return v;
      }
      case 4: {
        std::uint32_t v;
        std::memcpy(&v, src, 4);
        return v;
      }
      default: {
        std::uint64_t v;
        std::memcpy(&v, src, 8);
        return v;
      }
    }
  }
  void WriteUnchecked(std::uint64_t addr, unsigned bytes,
                      std::uint64_t value) {
    std::uint8_t* dst = bytes_.data() + addr;
    switch (bytes) {
      case 1: {
        const std::uint8_t v = static_cast<std::uint8_t>(value);
        std::memcpy(dst, &v, 1);
        return;
      }
      case 2: {
        const std::uint16_t v = static_cast<std::uint16_t>(value);
        std::memcpy(dst, &v, 2);
        return;
      }
      case 4: {
        const std::uint32_t v = static_cast<std::uint32_t>(value);
        std::memcpy(dst, &v, 4);
        return;
      }
      default:
        std::memcpy(dst, &value, 8);
        return;
    }
  }

  // Bulk copy used by the loader.
  void WriteBlock(std::uint64_t addr, const std::uint8_t* data,
                  std::uint64_t size);
  void Fill(std::uint64_t addr, std::uint64_t size, std::uint8_t value);

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace roload::mem
