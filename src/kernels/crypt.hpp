#pragma once
// Java Grande "Crypt": IDEA encryption/decryption over a byte array.
//
// Each work unit is a slab of 64 independent 8-byte IDEA blocks (ECB), so
// the kernel parallelises across slabs exactly like the JGF original
// parallelises across array sections. A unit encrypts its slab from the
// plaintext into the ciphertext buffer, then decrypts it back, and the
// checksum counts blocks that round-tripped bit-exactly.
//
// Fidelity notes: unlike the JGF Java code (which computes x*key % 0x10001
// directly), the multiplication here implements the full IDEA convention
// (operand 0 represents 2^16), making encrypt/decrypt exact inverses for
// every input — validation is exact equality over all blocks. The key
// schedule is JGF's, not the IDEA specification's (see encrypt_key), so
// ciphertexts differ from the spec's test vectors; the round function
// reproduces them when given the spec's subkeys.
//
// Lockstep layout: cipher_blocks runs kLanes (8) blocks per pass. Each
// lane keeps one block's four 16-bit words in its own slot of four
// kLanes-wide arrays. Each round runs its key-mixing half over all lanes,
// then its multiply-add half over all lanes, so the eight independent
// multiply chains overlap instead of one block's 34 dependent multiplies
// running back to back. A unit's
// 64 blocks make 8 passes; a shorter tail is padded with zero blocks and
// only its own bytes are written.

#include <array>
#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace evmp::kernels {

/// IDEA encryption round-trip kernel.
class CryptKernel final : public Kernel {
 public:
  static constexpr long kBlockBytes = 8;
  static constexpr long kBlocksPerUnit = 64;
  /// Blocks ciphered in lockstep by one pass of `cipher_blocks`.
  static constexpr long kLanes = 8;

  explicit CryptKernel(SizeClass size);
  /// Exact data size in bytes (rounded up to a whole block).
  explicit CryptKernel(std::size_t data_bytes);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "crypt";
  }
  [[nodiscard]] long units() const noexcept override { return units_; }
  void prepare() override;
  std::uint64_t compute_range(long lo, long hi) override;
  [[nodiscard]] bool validate(std::uint64_t combined) const override;

  /// Ciphertext buffer (after a run), for cross-run comparisons in tests.
  [[nodiscard]] const std::vector<std::uint8_t>& ciphertext() const noexcept {
    return crypt_;
  }

  // --- exposed IDEA primitives (unit-tested directly) --------------------
  /// IDEA multiplication modulo 2^16+1 with the 0 == 2^16 convention;
  /// both operands must be below 2^16.
  static std::uint16_t mul(std::uint32_t a, std::uint32_t b) noexcept;
  /// Multiplicative inverse modulo 2^16+1 under the same convention.
  static std::uint16_t mul_inv(std::uint16_t x) noexcept;
  /// Additive inverse modulo 2^16.
  static std::uint16_t add_inv(std::uint16_t x) noexcept {
    return static_cast<std::uint16_t>(0x10000u - x);
  }

  /// Expand a 128-bit user key into the 52 encryption subkeys.
  static std::array<std::uint16_t, 52> encrypt_key(
      const std::array<std::uint16_t, 8>& userkey) noexcept;
  /// Derive the 52 decryption subkeys from the encryption subkeys.
  static std::array<std::uint16_t, 52> decrypt_key(
      const std::array<std::uint16_t, 52>& z) noexcept;

  /// Cipher `n` consecutive 8-byte blocks (ECB) from `in` to `out`, which
  /// may be the same buffer. This holds the only round implementation.
  static void cipher_blocks(const std::uint8_t* in, std::uint8_t* out, long n,
                            const std::array<std::uint16_t, 52>& key) noexcept;
  /// Cipher one 8-byte block.
  static void cipher_block(const std::uint8_t* in, std::uint8_t* out,
                           const std::array<std::uint16_t, 52>& key) noexcept {
    cipher_blocks(in, out, 1, key);
  }

 private:
  std::size_t bytes_;
  long blocks_ = 0;
  long units_ = 0;
  std::array<std::uint16_t, 8> userkey_{};
  std::array<std::uint16_t, 52> z_{};
  std::array<std::uint16_t, 52> dk_{};
  std::vector<std::uint8_t> plain_;
  std::vector<std::uint8_t> crypt_;
  std::vector<std::uint8_t> back_;
};

}  // namespace evmp::kernels
