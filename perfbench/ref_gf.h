// Reference GF(2^8) arithmetic for the benchmark's output checks.
//
// Written apart from src/galois on purpose: the checks must not share a
// table or a kernel with the code they verify.  Multiplication is
// shift-and-xor modulo the AES polynomial x^8 + x^4 + x^3 + x + 1 (0x11B),
// the field the program's coding layer uses; a 64 KiB product table is
// filled from that loop once so the checks run at table speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

class RefGf {
 public:
  RefGf() {
    for (int a = 0; a < 256; ++a) {
      for (int b = 0; b < 256; ++b) {
        table_[a * 256 + b] = slow_mul(static_cast<std::uint8_t>(a),
                                       static_cast<std::uint8_t>(b));
      }
    }
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (table_[a * 256 + b] == 1) inverse_[a] = static_cast<std::uint8_t>(b);
      }
    }
  }

  static std::uint8_t slow_mul(std::uint8_t a, std::uint8_t b) {
    std::uint8_t product = 0;
    while (b != 0) {
      if (b & 1) product ^= a;
      a = static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1B : 0x00));
      b >>= 1;
    }
    return product;
  }

  std::uint8_t mul(std::uint8_t a, std::uint8_t b) const {
    return table_[a * 256 + b];
  }
  std::uint8_t inv(std::uint8_t a) const { return inverse_[a]; }

  /// dst[i] ^= c * src[i].
  void axpy(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
            std::size_t n) const {
    if (c == 0) return;
    const std::uint8_t* row = table_.data() + c * 256;
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
  }

  /// Σ coeffs[i] · blocks[i]: the payload a coded packet with these global
  /// coefficients must carry.  `blocks` is row-major n x m.
  std::vector<std::uint8_t> combine(std::span<const std::uint8_t> coeffs,
                                    std::span<const std::uint8_t> blocks,
                                    std::size_t m) const {
    std::vector<std::uint8_t> out(m, 0);
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      axpy(out.data(), blocks.data() + i * m, coeffs[i], m);
    }
    return out;
  }

  /// Gauss-Jordan elimination over rows [coefficients (n) | payload (m)].
  /// Returns the n x m recovered source blocks, or an empty vector when the
  /// rows do not reach rank n.
  std::vector<std::uint8_t> solve(std::vector<std::vector<std::uint8_t>> rows,
                                  std::size_t n, std::size_t m) const {
    const std::size_t width = n + m;
    std::size_t rank = 0;
    for (std::size_t col = 0; col < n && rank < rows.size(); ++col) {
      std::size_t pivot = rank;
      while (pivot < rows.size() && rows[pivot][col] == 0) ++pivot;
      if (pivot == rows.size()) return {};
      std::swap(rows[rank], rows[pivot]);
      std::vector<std::uint8_t>& p = rows[rank];
      const std::uint8_t scale = inv(p[col]);
      for (std::size_t k = 0; k < width; ++k) p[k] = mul(p[k], scale);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r != rank && rows[r][col] != 0) {
          axpy(rows[r].data(), p.data(), rows[r][col], width);
        }
      }
      ++rank;
    }
    if (rank < n) return {};
    std::vector<std::uint8_t> blocks(n * m);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(rows[i].begin() + static_cast<std::ptrdiff_t>(n),
                rows[i].end(), blocks.begin() + static_cast<std::ptrdiff_t>(i * m));
    }
    return blocks;
  }

 private:
  std::vector<std::uint8_t> table_ = std::vector<std::uint8_t>(256 * 256);
  std::uint8_t inverse_[256] = {};
};

}  // namespace perfbench
