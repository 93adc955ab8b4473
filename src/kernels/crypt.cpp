#include "kernels/crypt.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"

namespace evmp::kernels {

namespace {

std::size_t bytes_for(SizeClass size) {
  switch (size) {
    case SizeClass::kTiny: return 2 * 1024;        // 256 blocks
    case SizeClass::kSmall: return 100 * 1024;     // 12.8k blocks
    case SizeClass::kMedium: return 1000 * 1024;   // 128k blocks
  }
  return 100 * 1024;
}

}  // namespace

CryptKernel::CryptKernel(SizeClass size) : CryptKernel(bytes_for(size)) {}

CryptKernel::CryptKernel(std::size_t data_bytes)
    : bytes_((data_bytes + kBlockBytes - 1) / kBlockBytes * kBlockBytes) {
  blocks_ = static_cast<long>(bytes_ / kBlockBytes);
  units_ = (blocks_ + kBlocksPerUnit - 1) / kBlocksPerUnit;
}

std::uint16_t CryptKernel::mul(std::uint32_t a, std::uint32_t b) noexcept {
  // IDEA multiplication: operands/results live in [1, 2^16], with 0
  // standing in for 2^16; arithmetic is modulo the prime 2^16 + 1.
  // 2^16 == -1 folds the product: lo + 2^16*hi == lo - hi, plus the
  // modulus once when that goes negative. Both operands are below 2^16,
  // so the product fits 32 bits.
  const std::uint32_t p = a * b;
  const std::uint32_t lo = p & 0xffffu;
  const std::uint32_t hi = p >> 16;
  const std::uint32_t folded = lo - hi + (lo < hi ? 1u : 0u);
  // A zero operand is -1 and negates the other: 1 - b when a == 0, 1 - a
  // when b == 0, and 1 - a - b is both. Selected rather than branched on,
  // which keeps cipher_blocks' lane loops straight-line code.
  const std::uint32_t negated = 1u - a - b;
  return static_cast<std::uint16_t>(
      (a == 0 || b == 0 ? negated : folded) & 0xffffu);
}

std::uint16_t CryptKernel::mul_inv(std::uint16_t x) noexcept {
  // Extended Euclid modulo 2^16+1. 0 encodes 2^16 == -1, self-inverse;
  // 1 is self-inverse.
  if (x <= 1) return x;
  std::int64_t t0 = 0;
  std::int64_t t1 = 1;
  std::int64_t r0 = 0x10001;
  std::int64_t r1 = x;
  while (r1 != 0) {
    const std::int64_t q = r0 / r1;
    std::int64_t tmp = r0 - q * r1;
    r0 = r1;
    r1 = tmp;
    tmp = t0 - q * t1;
    t0 = t1;
    t1 = tmp;
  }
  std::int64_t inv = t0 % 0x10001;
  if (inv < 0) inv += 0x10001;
  return static_cast<std::uint16_t>(inv & 0xffff);  // 2^16 -> 0
}

std::array<std::uint16_t, 52> CryptKernel::encrypt_key(
    const std::array<std::uint16_t, 8>& userkey) noexcept {
  // The JGF schedule, not the IDEA specification's: the 128-bit key, read
  // with word 0 as its least significant 16 bits, rotated right 25 bits
  // between groups of eight subkeys. The spec reads word 0 as the most
  // significant and rotates left, so this schedule does not reproduce the
  // spec's test vectors (for key 0001..0008 its subkeys 9-16 start
  // 0180 0200, the spec's 0400 0600). Kept for JGF fidelity and stable
  // checksums; the round function itself matches the spec.
  std::array<std::uint16_t, 52> z{};
  for (int i = 0; i < 8; ++i) z[i] = userkey[static_cast<std::size_t>(i)];
  for (int i = 8; i < 52; ++i) {
    const int j = i % 8;
    if (j < 6) {
      z[i] = static_cast<std::uint16_t>(((z[i - 7] >> 9) | (z[i - 6] << 7)) &
                                        0xffff);
    } else if (j == 6) {
      z[i] = static_cast<std::uint16_t>(((z[i - 7] >> 9) | (z[i - 14] << 7)) &
                                        0xffff);
    } else {
      z[i] = static_cast<std::uint16_t>(((z[i - 15] >> 9) | (z[i - 14] << 7)) &
                                        0xffff);
    }
  }
  return z;
}

std::array<std::uint16_t, 52> CryptKernel::decrypt_key(
    const std::array<std::uint16_t, 52>& z) noexcept {
  std::array<std::uint16_t, 52> dk{};
  // Output transform of decryption = inverses of round 1 keys, unswapped.
  dk[48] = mul_inv(z[0]);
  dk[49] = add_inv(z[1]);
  dk[50] = add_inv(z[2]);
  dk[51] = mul_inv(z[3]);
  int j = 47;
  int k = 4;
  for (int round = 0; round < 7; ++round) {
    // MA-layer keys copy straight across (swapped pair order).
    const std::uint16_t t1 = z[k++];
    dk[j--] = z[k++];
    dk[j--] = t1;
    // Middle rounds swap the two addition keys (the round structure swaps
    // x2/x3 between rounds).
    const std::uint16_t m1 = mul_inv(z[k++]);
    const std::uint16_t a1 = add_inv(z[k++]);
    const std::uint16_t a2 = add_inv(z[k++]);
    dk[j--] = mul_inv(z[k++]);
    dk[j--] = a1;
    dk[j--] = a2;
    dk[j--] = m1;
  }
  // First decryption round comes from the encryption output transform,
  // with the addition keys unswapped.
  const std::uint16_t t1 = z[k++];
  dk[j--] = z[k++];
  dk[j--] = t1;
  const std::uint16_t m1 = mul_inv(z[k++]);
  const std::uint16_t a1 = add_inv(z[k++]);
  const std::uint16_t a2 = add_inv(z[k++]);
  dk[j--] = mul_inv(z[k]);
  dk[j--] = a2;
  dk[j--] = a1;
  dk[j] = m1;
  return dk;
}

void CryptKernel::cipher_blocks(const std::uint8_t* in, std::uint8_t* out,
                                long n,
                                const std::array<std::uint16_t, 52>& key) noexcept {
  // All lanes are loaded before any is stored, so `in` may equal `out`. A
  // short tail runs on a zero-padded copy and only its own bytes are
  // written back.
  constexpr long kGroupBytes = kLanes * kBlockBytes;
  auto load16 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8);
  };
  auto store16 = [](std::uint8_t* p, std::uint32_t v) {
    p[0] = static_cast<std::uint8_t>(v & 0xff);
    p[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  };
  std::uint8_t pad[kGroupBytes] = {};
  for (long first = 0; first < n; first += kLanes) {
    const std::size_t bytes =
        static_cast<std::size_t>(std::min(kLanes, n - first) * kBlockBytes);
    const std::uint8_t* src = in + first * kBlockBytes;
    std::uint8_t* dst = out + first * kBlockBytes;
    if (bytes < kGroupBytes) {
      std::memcpy(pad, src, bytes);
      src = pad;
      dst = pad;
    }
    std::uint32_t x1[kLanes] = {};
    std::uint32_t x2[kLanes] = {};
    std::uint32_t x3[kLanes] = {};
    std::uint32_t x4[kLanes] = {};
    for (long l = 0; l < kLanes; ++l) {
      const std::uint8_t* b = src + l * kBlockBytes;
      x1[l] = load16(b);
      x2[l] = load16(b + 2);
      x3[l] = load16(b + 4);
      x4[l] = load16(b + 6);
    }
    const std::uint16_t* k = key.data();
    for (int r = 0; r < 8; ++r, k += 6) {
      for (long l = 0; l < kLanes; ++l) {
        x1[l] = mul(x1[l], k[0]);
        x2[l] = (x2[l] + k[1]) & 0xffffu;
        x3[l] = (x3[l] + k[2]) & 0xffffu;
        x4[l] = mul(x4[l], k[3]);
      }
      for (long l = 0; l < kLanes; ++l) {
        std::uint32_t t2 = mul(x1[l] ^ x3[l], k[4]);
        const std::uint32_t t1 = mul((t2 + (x2[l] ^ x4[l])) & 0xffffu, k[5]);
        t2 = (t1 + t2) & 0xffffu;
        x1[l] ^= t1;
        x4[l] ^= t2;
        t2 ^= x2[l];
        x2[l] = x3[l] ^ t1;
        x3[l] = t2;
      }
    }
    // Output transform (note the x2/x3 swap undone by the write order).
    for (long l = 0; l < kLanes; ++l) {
      std::uint8_t* b = dst + l * kBlockBytes;
      store16(b, mul(x1[l], k[0]));
      store16(b + 2, (x3[l] + k[1]) & 0xffffu);
      store16(b + 4, (x2[l] + k[2]) & 0xffffu);
      store16(b + 6, mul(x4[l], k[3]));
    }
    if (bytes < kGroupBytes) {
      std::memcpy(out + first * kBlockBytes, pad, bytes);
    }
  }
}

void CryptKernel::prepare() {
  common::Xoshiro256 rng(0x1dea'c0de'5eedull);
  plain_.resize(bytes_);
  crypt_.assign(bytes_, 0);
  back_.assign(bytes_, 0);
  for (auto& b : plain_) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  for (auto& k : userkey_) {
    k = static_cast<std::uint16_t>(rng.next_below(0x10000));
  }
  z_ = encrypt_key(userkey_);
  dk_ = decrypt_key(z_);
}

std::uint64_t CryptKernel::compute_range(long lo, long hi) {
  std::uint64_t ok_blocks = 0;
  for (long u = lo; u < hi; ++u) {
    const long first = u * kBlocksPerUnit;
    const long last = std::min(blocks_, first + kBlocksPerUnit);
    const std::size_t base = static_cast<std::size_t>(first) * kBlockBytes;
    cipher_blocks(plain_.data() + base, crypt_.data() + base, last - first,
                  z_);
    cipher_blocks(crypt_.data() + base, back_.data() + base, last - first,
                  dk_);
    for (long b = first; b < last; ++b) {
      const std::size_t off = static_cast<std::size_t>(b) * kBlockBytes;
      ok_blocks += std::equal(plain_.begin() + static_cast<long>(off),
                              plain_.begin() + static_cast<long>(off) +
                                  kBlockBytes,
                              back_.begin() + static_cast<long>(off))
                       ? 1u
                       : 0u;
    }
  }
  return ok_blocks;
}

bool CryptKernel::validate(std::uint64_t combined) const {
  // Every block must decrypt back to its plaintext, and the ciphertext must
  // actually differ from the plaintext (the cipher did something).
  return combined == static_cast<std::uint64_t>(blocks_) && crypt_ != plain_;
}

}  // namespace evmp::kernels
