// Unit + property tests for the Java Grande kernel ports: IDEA primitives,
// per-kernel validation, sequential/parallel result equality across
// schedules and team sizes, the simulated work model, and the kernel pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "forkjoin/team.hpp"
#include "kernels/crypt.hpp"
#include "kernels/kernel.hpp"
#include "kernels/kernel_pool.hpp"
#include "kernels/montecarlo.hpp"
#include "kernels/raytracer.hpp"
#include "kernels/series.hpp"

namespace evmp::kernels {
namespace {

// ---- IDEA primitives ------------------------------------------------------

TEST(IdeaPrimitives, MulAgreesWithDefinition) {
  // mul(a,b) = a*b mod 2^16+1 with 0 encoding 2^16.
  EXPECT_EQ(CryptKernel::mul(1, 1), 1u);
  EXPECT_EQ(CryptKernel::mul(2, 3), 6u);
  // 0 == 2^16 == -1 (mod 65537): (-1)*(-1) = 1.
  EXPECT_EQ(CryptKernel::mul(0, 0), 1u);
  // (-1)*k = 65537-k.
  EXPECT_EQ(CryptKernel::mul(0, 5), 65532u);
  // Every a against the operands that reach each branch of the lo/hi fold:
  // the zero (2^16) encoding, 1, 2, the top bit, 0xffff (-2) and a*a.
  int mismatches = 0;
  for (std::uint32_t a = 0; a <= 0xffffu; ++a) {
    for (std::uint32_t b : {0u, 1u, 2u, 0x8000u, 0xffffu, a}) {
      const std::uint64_t wa = a == 0 ? 0x10000u : a;
      const std::uint64_t wb = b == 0 ? 0x10000u : b;
      const auto want = static_cast<std::uint16_t>(wa * wb % 0x10001u);
      if (CryptKernel::mul(a, b) != want && ++mismatches <= 5) {
        ADD_FAILURE() << "mul(" << a << ", " << b << ") = "
                      << CryptKernel::mul(a, b) << ", want " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(IdeaPrimitives, MulInverseRoundTrips) {
  common::Xoshiro256 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto x = static_cast<std::uint16_t>(rng.next_below(0x10000));
    const std::uint16_t inv = CryptKernel::mul_inv(x);
    EXPECT_EQ(CryptKernel::mul(x, inv), 1u) << "x=" << x;
  }
  EXPECT_EQ(CryptKernel::mul_inv(0), 0u);  // -1 is self-inverse
  EXPECT_EQ(CryptKernel::mul_inv(1), 1u);
}

TEST(IdeaPrimitives, AddInverse) {
  common::Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto x = static_cast<std::uint16_t>(rng.next_below(0x10000));
    EXPECT_EQ(static_cast<std::uint16_t>(x + CryptKernel::add_inv(x)), 0u);
  }
}

TEST(IdeaPrimitives, BlockRoundTripsForRandomKeys) {
  common::Xoshiro256 rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<std::uint16_t, 8> userkey{};
    for (auto& k : userkey) {
      k = static_cast<std::uint16_t>(rng.next_below(0x10000));
    }
    const auto z = CryptKernel::encrypt_key(userkey);
    const auto dk = CryptKernel::decrypt_key(z);
    std::uint8_t plain[8];
    std::uint8_t crypt[8];
    std::uint8_t back[8];
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next_below(256));
    CryptKernel::cipher_block(plain, crypt, z);
    CryptKernel::cipher_block(crypt, back, dk);
    EXPECT_TRUE(std::equal(std::begin(plain), std::end(plain),
                           std::begin(back)))
        << "trial " << trial;
  }
}

TEST(IdeaPrimitives, CipherChangesData) {
  std::array<std::uint16_t, 8> userkey{1, 2, 3, 4, 5, 6, 7, 8};
  const auto z = CryptKernel::encrypt_key(userkey);
  std::uint8_t plain[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  std::uint8_t crypt[8];
  CryptKernel::cipher_block(plain, crypt, z);
  EXPECT_FALSE(std::equal(std::begin(plain), std::end(plain),
                          std::begin(crypt)));
}

TEST(IdeaPrimitives, KeyScheduleIsDeterministic) {
  std::array<std::uint16_t, 8> userkey{10, 20, 30, 40, 50, 60, 70, 80};
  EXPECT_EQ(CryptKernel::encrypt_key(userkey),
            CryptKernel::encrypt_key(userkey));
}

// ---- lockstep lanes vs the per-block reference ------------------------------

// Frozen copy of the per-block IDEA algorithm that `cipher_blocks` replaced:
// the textbook `% 0x10001` multiply and one block per round loop. It is the
// reference the lane path must match byte for byte.
namespace reference {

std::uint32_t mul(std::uint32_t a, std::uint32_t b) {
  if (a == 0) a = 0x10000u;
  if (b == 0) b = 0x10000u;
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(a) * b) % 0x10001u & 0xffffu);
}

void cipher_block(const std::uint8_t* in, std::uint8_t* out,
                  const std::array<std::uint16_t, 52>& key) {
  auto load16 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8);
  };
  std::uint32_t x1 = load16(in);
  std::uint32_t x2 = load16(in + 2);
  std::uint32_t x3 = load16(in + 4);
  std::uint32_t x4 = load16(in + 6);
  int ik = 0;
  for (int r = 0; r < 8; ++r) {
    x1 = mul(x1, key[ik++]);
    x2 = (x2 + key[ik++]) & 0xffffu;
    x3 = (x3 + key[ik++]) & 0xffffu;
    x4 = mul(x4, key[ik++]);
    std::uint32_t t2 = x1 ^ x3;
    t2 = mul(t2, key[ik++]);
    std::uint32_t t1 = (t2 + (x2 ^ x4)) & 0xffffu;
    t1 = mul(t1, key[ik++]);
    t2 = (t1 + t2) & 0xffffu;
    x1 ^= t1;
    x4 ^= t2;
    t2 ^= x2;
    x2 = x3 ^ t1;
    x3 = t2;
  }
  x1 = mul(x1, key[ik++]);
  x3 = (x3 + key[ik++]) & 0xffffu;
  x2 = (x2 + key[ik++]) & 0xffffu;
  x4 = mul(x4, key[ik]);
  auto store16 = [](std::uint8_t* p, std::uint32_t v) {
    p[0] = static_cast<std::uint8_t>(v & 0xff);
    p[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  };
  store16(out, x1);
  store16(out + 2, x3);
  store16(out + 4, x2);
  store16(out + 6, x4);
}

}  // namespace reference

TEST(IdeaLanes, CipherBlocksMatchesPerBlockReferenceForEveryTail) {
  common::Xoshiro256 rng(24);
  const std::array<std::uint16_t, 8> zero_key{};
  std::array<std::uint16_t, 8> random_key{};
  for (auto& k : random_key) {
    k = static_cast<std::uint16_t>(rng.next_below(0x10000));
  }
  constexpr long kMaxBlocks = 3 * CryptKernel::kLanes + 7;
  constexpr std::size_t kGuard = 16;  // bytes past the last block
  for (const auto& userkey : {random_key, zero_key}) {
    const auto z = CryptKernel::encrypt_key(userkey);
    const auto dk = CryptKernel::decrypt_key(z);
    for (const auto* key : {&z, &dk}) {
      for (long n = 0; n <= kMaxBlocks; ++n) {
        const auto bytes = static_cast<std::size_t>(n * 8);
        std::vector<std::uint8_t> in(bytes);
        for (std::size_t i = 0; i < bytes; i += 2) {
          // A third of the words are 0x0000 or 0xffff: multiply operands
          // at the zero encoding and at -2.
          const auto pick = rng.next_below(6);
          const auto w = pick == 0   ? 0x0000u
                         : pick == 1 ? 0xffffu
                                     : rng.next_below(0x10000);
          in[i] = static_cast<std::uint8_t>(w & 0xff);
          in[i + 1] = static_cast<std::uint8_t>(w >> 8);
        }
        std::vector<std::uint8_t> want(bytes);
        for (std::size_t off = 0; off < bytes; off += 8) {
          reference::cipher_block(in.data() + off, want.data() + off, *key);
        }
        std::vector<std::uint8_t> got(bytes + kGuard, 0xa5);
        CryptKernel::cipher_blocks(in.data(), got.data(), n, *key);
        EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
            << "n=" << n;
        EXPECT_TRUE(std::all_of(got.begin() + static_cast<long>(bytes),
                                got.end(),
                                [](std::uint8_t b) { return b == 0xa5; }))
            << "n=" << n << ": wrote past the last block";
        // In place (in == out) gives the same bytes.
        std::vector<std::uint8_t> inplace = in;
        CryptKernel::cipher_blocks(inplace.data(), inplace.data(), n, *key);
        EXPECT_EQ(inplace, want) << "in place, n=" << n;
      }
    }
  }
}

// ---- external references ----------------------------------------------------

// Words are stored little-endian, as `cipher_blocks` loads them.
std::array<std::uint8_t, 8> words_to_bytes(
    const std::array<std::uint16_t, 4>& w) {
  std::array<std::uint8_t, 8> b{};
  for (std::size_t i = 0; i < 4; ++i) {
    b[2 * i] = static_cast<std::uint8_t>(w[i] & 0xff);
    b[2 * i + 1] = static_cast<std::uint8_t>(w[i] >> 8);
  }
  return b;
}

// The IDEA specification's schedule: the 128-bit key with word 0 most
// significant, rotated left 25 bits after every eight subkeys.
std::array<std::uint16_t, 52> spec_encrypt_key(
    std::array<std::uint16_t, 8> k) {
  std::array<std::uint16_t, 52> z{};
  for (std::size_t i = 0; i < 52; ++i) {
    z[i] = k[i % 8];
    if (i % 8 == 7) {
      const auto old = k;
      for (std::size_t j = 0; j < 8; ++j) {
        k[j] = static_cast<std::uint16_t>((old[(j + 1) % 8] << 9) |
                                          (old[(j + 2) % 8] >> 7));
      }
    }
  }
  return z;
}

TEST(IdeaVectors, RoundFunctionReproducesPublishedVector) {
  // The published IDEA test vector: key 0001 0002 ... 0008, plaintext
  // 0000 0001 0002 0003, ciphertext 11FB ED2B 0198 6DE5.
  const auto z = spec_encrypt_key({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(z[8], 0x0400u);
  EXPECT_EQ(z[9], 0x0600u);
  const auto plain = words_to_bytes({0x0000, 0x0001, 0x0002, 0x0003});
  std::array<std::uint8_t, 8> crypt{};
  CryptKernel::cipher_block(plain.data(), crypt.data(), z);
  EXPECT_EQ(crypt, words_to_bytes({0x11fb, 0xed2b, 0x0198, 0x6de5}));
  std::array<std::uint8_t, 8> back{};
  CryptKernel::cipher_block(crypt.data(), back.data(),
                            CryptKernel::decrypt_key(z));
  EXPECT_EQ(back, plain);
}

TEST(IdeaVectors, JgfScheduleGolden) {
  // The kernel keeps the JGF schedule, which is not the spec's: its
  // subkeys 9-16 for key 0001..0008 start 0180 0200, the spec's 0400 0600.
  const auto z = CryptKernel::encrypt_key({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(z[8], 0x0180u);
  EXPECT_EQ(z[9], 0x0200u);
  const auto plain = words_to_bytes({0x0000, 0x0001, 0x0002, 0x0003});
  std::array<std::uint8_t, 8> crypt{};
  CryptKernel::cipher_block(plain.data(), crypt.data(), z);
  EXPECT_EQ(crypt, words_to_bytes({0x6826, 0x82d6, 0xf735, 0x2178}));
  std::array<std::uint8_t, 8> back{};
  CryptKernel::cipher_block(crypt.data(), back.data(),
                            CryptKernel::decrypt_key(z));
  EXPECT_EQ(back, plain);
}

// ---- per-kernel behaviour -------------------------------------------------

TEST(Crypt, SizeRoundsUpToBlocks) {
  CryptKernel k(13);  // -> 16 bytes -> 2 blocks -> 1 unit
  EXPECT_EQ(k.units(), 1);
}

TEST(Crypt, CiphertextMatchesFrozenHashes) {
  // FNV-1a of ciphertext() after a sequential run, frozen from the
  // per-block implementation: the tail path (520 B = 65 blocks) and a
  // service-sized 64 KiB request.
  auto fnv = [](const std::vector<std::uint8_t>& v) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint8_t b : v) {
      h ^= b;
      h *= 1099511628211ull;
    }
    return h;
  };
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {520, 0x9743fe9d392e7d99ull}, {64 * 1024, 0x0ffde26249fdb75eull}};
  for (const auto& [bytes, hash] : cases) {
    CryptKernel k(bytes);
    k.prepare();
    EXPECT_TRUE(k.validate(k.run_sequential())) << bytes;
    EXPECT_EQ(fnv(k.ciphertext()), hash) << bytes;
  }
}

TEST(Crypt, ValidateFailsOnWrongChecksum) {
  CryptKernel k(SizeClass::kTiny);
  k.prepare();
  const auto sum = k.run_sequential();
  EXPECT_TRUE(k.validate(sum));
  EXPECT_FALSE(k.validate(sum - 1));
}

TEST(Series, LeadingCoefficientsMatchReference) {
  SeriesKernel k(4);
  k.prepare();
  const auto sum = k.run_sequential();
  EXPECT_TRUE(k.validate(sum));
  EXPECT_NEAR(k.a()[0], 2.8819207855, 1e-9);
  EXPECT_NEAR(k.a()[1], 1.1340408915, 1e-9);
  EXPECT_NEAR(k.b()[1], -1.8820818874, 1e-9);
}

TEST(Series, MinimumTwoCoefficients) {
  SeriesKernel k(0);
  EXPECT_GE(k.units(), 2);
}

TEST(MonteCarlo, DeterministicPerPath) {
  MonteCarloKernel a(SizeClass::kTiny);
  MonteCarloKernel b(SizeClass::kTiny);
  a.prepare();
  b.prepare();
  a.run_sequential();
  b.run_sequential();
  EXPECT_EQ(a.final_prices(), b.final_prices());
}

TEST(MonteCarlo, MeanNearAnalyticExpectation) {
  MonteCarloKernel k(4096, MonteCarloKernel::Params{});
  k.prepare();
  const auto sum = k.run_sequential();
  EXPECT_TRUE(k.validate(sum));
  // E[S_T] = S0 * exp(mu*T); loose band for 4096 samples.
  EXPECT_NEAR(k.mean_final_price(), 100.0 * std::exp(0.05), 3.0);
}

TEST(MonteCarlo, PathsArePositivePrices) {
  MonteCarloKernel k(SizeClass::kTiny);
  k.prepare();
  k.run_sequential();
  for (double p : k.final_prices()) EXPECT_GT(p, 0.0);
}

TEST(RayTracer, RendersNonTrivialImage) {
  RayTracerKernel k(SizeClass::kTiny);
  k.prepare();
  const auto sum = k.run_sequential();
  EXPECT_TRUE(k.validate(sum));
  EXPECT_EQ(k.framebuffer().size(), 32u * 32u);
  std::set<std::uint32_t> distinct(k.framebuffer().begin(),
                                   k.framebuffer().end());
  EXPECT_GT(distinct.size(), 10u);  // shading varies across the image
}

TEST(RayTracer, DeterministicRender) {
  RayTracerKernel a(24, 24);
  RayTracerKernel b(24, 24);
  a.prepare();
  b.prepare();
  EXPECT_EQ(a.run_sequential(), b.run_sequential());
  EXPECT_EQ(a.framebuffer(), b.framebuffer());
}

TEST(RayTracer, CustomDimensions) {
  RayTracerKernel k(17, 9);
  k.prepare();
  EXPECT_EQ(k.units(), 9);
  k.run_sequential();
  EXPECT_EQ(k.framebuffer().size(), 17u * 9u);
}

// ---- factory --------------------------------------------------------------

TEST(Factory, MakesAllPaperKernels) {
  for (const auto& name : kernel_names()) {
    auto k = make_kernel(name, SizeClass::kTiny);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->name(), name);
    k->prepare();
    EXPECT_TRUE(k->validate(k->run_sequential())) << name;
  }
}

TEST(Factory, RejectsUnknownKernel) {
  // "sor" and "sparsematmult" are JGF kernels the paper does not use.
  for (const char* name : {"fft", "sor", "sparsematmult"}) {
    EXPECT_THROW(make_kernel(name, SizeClass::kTiny), std::invalid_argument)
        << name;
  }
}

// ---- parallel == sequential property sweep --------------------------------

struct KernelCase {
  std::string kernel;
  fj::Schedule sched;
  long chunk;
  int team;
};

class KernelParallelEquality : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelParallelEquality, ChecksumsMatchSequential) {
  const auto& p = GetParam();
  auto k = make_kernel(p.kernel, SizeClass::kTiny);
  k->prepare();
  const auto seq = k->run_sequential();
  EXPECT_TRUE(k->validate(seq));
  fj::Team team(p.team);
  for (int round = 0; round < 2; ++round) {
    const auto par = k->run_parallel(team, p.sched, p.chunk);
    EXPECT_EQ(par, seq);
    EXPECT_TRUE(k->validate(par));
  }
  // Two halves, as the GUI handlers interleave progress updates between
  // them (baselines/approaches.cpp).
  const long half = k->units() / 2;
  const auto halves =
      k->run_parallel_range(team, 0, half, p.sched, p.chunk) +
      k->run_parallel_range(team, half, k->units(), p.sched, p.chunk);
  EXPECT_EQ(halves, seq);
  EXPECT_TRUE(k->validate(halves));
}

std::string kernel_case_name(
    const ::testing::TestParamInfo<KernelCase>& info) {
  const auto& p = info.param;
  return p.kernel + "_" + to_string(p.sched) + "_c" +
         std::to_string(p.chunk) + "_t" + std::to_string(p.team);
}

std::vector<KernelCase> all_kernel_cases() {
  std::vector<KernelCase> cases;
  for (const auto& k : kernel_names()) {
    cases.push_back({k, fj::Schedule::kStatic, 0, 3});
    cases.push_back({k, fj::Schedule::kDynamic, 1, 4});
    cases.push_back({k, fj::Schedule::kGuided, 2, 2});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KernelParallelEquality,
                         ::testing::ValuesIn(all_kernel_cases()),
                         kernel_case_name);

// ---- work model -----------------------------------------------------------

TEST(WorkModel, SimulatedStretchesDuration) {
  CryptKernel k(SizeClass::kTiny);
  k.prepare();
  const common::Stopwatch real_sw;
  k.run_sequential();
  const double real_ms = real_sw.elapsed_ms();

  k.set_work_model(WorkModel::kSimulated, common::Micros{500});
  const common::Stopwatch sim_sw;
  const auto sum = k.run_sequential();
  const double sim_ms = sim_sw.elapsed_ms();

  // kTiny crypt has 4 units -> >= 2ms simulated.
  EXPECT_GE(sim_ms, 1.8);
  EXPECT_GT(sim_ms, real_ms);
  EXPECT_TRUE(k.validate(sum));  // the real computation still ran
}

TEST(WorkModel, SimulatedParallelRunsOverlap) {
  // Under the simulated model a 3-wide team should finish the sleep-bound
  // kernel in roughly 1/3 the time even on one CPU.
  SeriesKernel k(12);
  k.prepare();
  k.set_work_model(WorkModel::kSimulated, common::Millis{4});
  const common::Stopwatch seq_sw;
  k.run_sequential();
  const double seq_ms = seq_sw.elapsed_ms();
  fj::Team team(3);
  const common::Stopwatch par_sw;
  k.run_parallel(team);
  const double par_ms = par_sw.elapsed_ms();
  EXPECT_GE(seq_ms, 45.0);
  EXPECT_LT(par_ms, seq_ms * 0.65);
}

TEST(WorkModel, DefaultsToReal) {
  CryptKernel k(SizeClass::kTiny);
  EXPECT_EQ(k.work_model(), WorkModel::kReal);
}

// ---- kernel pool ----------------------------------------------------------

TEST(Pool, ReusesReleasedInstances) {
  KernelPool pool("crypt", SizeClass::kTiny);
  Kernel* first = nullptr;
  {
    auto lease = pool.acquire();
    first = lease.get();
  }
  auto lease = pool.acquire();
  EXPECT_EQ(lease.get(), first);
  EXPECT_EQ(pool.created(), 1u);
}

TEST(Pool, GrowsUnderConcurrentLeases) {
  KernelPool pool("series", SizeClass::kTiny);
  auto a = pool.acquire();
  auto b = pool.acquire();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(pool.created(), 2u);
}

TEST(Pool, LeasedKernelsArePrepared) {
  KernelPool pool("montecarlo", SizeClass::kTiny);
  auto k = pool.acquire();
  EXPECT_TRUE(k->validate(k->run_sequential()));
}

TEST(Pool, LeaseOutlivesPool) {
  // Regression: a completion callback may drop the last lease after the
  // pool is gone (late SwingWorker closure destruction on a shared pool
  // thread). The deleter co-owns the free list, so this must be safe.
  std::shared_ptr<Kernel> lease;
  {
    KernelPool pool("crypt", SizeClass::kTiny);
    lease = pool.acquire();
  }
  EXPECT_TRUE(lease->validate(lease->run_sequential()));
  lease.reset();  // returns to the orphaned (and then freed) state
}

TEST(Pool, LeaseReleasedConcurrentlyWithPoolDestruction) {
  for (int round = 0; round < 50; ++round) {
    std::jthread dropper;
    {
      KernelPool pool("series", SizeClass::kTiny);
      auto lease = pool.acquire();
      dropper = std::jthread([l = std::move(lease)]() mutable { l.reset(); });
    }  // pool destruction races the dropper
  }
}

TEST(Pool, FactoryFormAppliesCustomConfig) {
  KernelPool pool([] {
    auto k = std::make_unique<CryptKernel>(std::size_t{1024});
    k->prepare();
    return std::unique_ptr<Kernel>(std::move(k));
  });
  auto k = pool.acquire();
  EXPECT_EQ(k->name(), "crypt");
  EXPECT_EQ(k->units(), 2);  // 1024B = 128 blocks = 2 units
}

}  // namespace
}  // namespace evmp::kernels
