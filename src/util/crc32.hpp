// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used as an end-to-end integrity check on checkpoint files (trailing
// checksum over the whole body, see core/checkpoint.cpp) and on every
// transport frame payload (src/dist/transport.cpp), so a torn write or a
// corrupted message fails loudly with IoError/TransportError instead of
// deserializing garbage. Every dist step checksums its all-reduce frames
// (four passes over the gradient buffer per worker rank: its contribution
// and the sum, each on send and on receipt), so the loop is
// slicing-by-8: eight table lookups per eight bytes instead of one serial
// lookup per byte, with the same polynomial and the same checksums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qpinn {

/// CRC-32 of `len` bytes at `data`. `seed` chains incremental computation:
/// crc32(b, crc32(a)) == crc32(a + b). The empty buffer hashes to 0.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

inline std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0) {
  return crc32(data.data(), data.size(), seed);
}

}  // namespace qpinn
