// Differential tests for the runtime-width limb primitives (Add, Sub,
// Compare, CondSubMod) and for DrawBelow against the heap BigUInt path, at
// the 1-4 limb widths the batched secure sum runs at: random operands, a
// carry out of the top limb, S = 2^64 exactly (two limbs), and values next
// to S.

#include "bigint/limb_kernel.h"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/biguint.h"
#include "bigint/modular.h"
#include "common/random.h"

namespace psi {
namespace {

std::vector<uint64_t> Row(const BigUInt& v, size_t width) {
  std::vector<uint64_t> row(width);
  for (size_t i = 0; i < width; ++i) row[i] = v.limb(i);
  return row;
}

BigUInt Value(const std::vector<uint64_t>& row) {
  return BigUInt::FromLimbs(row.data(), row.size());
}

// The moduli each width is checked against: a random one with the top bit
// set, one with only the top limb's low bit set (2^(64(w-1)), which is
// S = 2^64 at w = 2), and 2^(64w) - 1.
std::vector<BigUInt> Moduli(Rng* rng, size_t width) {
  BigUInt top_bit = BigUInt::RandomBits(rng, 64 * width);
  top_bit.SetBit(64 * width - 1);
  std::vector<BigUInt> out{top_bit,
                           (BigUInt(1) << (64 * width)) - BigUInt(1)};
  if (width > 1) out.push_back(BigUInt(1) << (64 * (width - 1)));
  return out;
}

TEST(LimbKernelTest, AddSubCompareMatchBigUIntAtWidths1To4) {
  Rng rng(5);
  for (size_t w = 1; w <= 4; ++w) {
    const BigUInt wrap = BigUInt(1) << (64 * w);
    const BigUInt ones = wrap - BigUInt(1);
    std::vector<BigUInt> values{BigUInt(0), BigUInt(1), ones,
                                ones - BigUInt(1), BigUInt(1) << (64 * w - 1)};
    for (int i = 0; i < 20; ++i) values.push_back(BigUInt::RandomBits(&rng, 64 * w));
    for (const BigUInt& a : values) {
      for (const BigUInt& b : values) {
        const auto ra = Row(a, w);
        const auto rb = Row(b, w);
        std::vector<uint64_t> out(w);
        const BigUInt sum = a + b;
        EXPECT_EQ(limb_kernel::Add(ra.data(), rb.data(), out.data(), w),
                  sum >= wrap ? 1u : 0u);
        EXPECT_EQ(Value(out), sum >= wrap ? sum - wrap : sum);
        const uint64_t borrow =
            limb_kernel::Sub(ra.data(), rb.data(), out.data(), w);
        EXPECT_EQ(borrow, a < b ? 1u : 0u);
        EXPECT_EQ(Value(out), a >= b ? a - b : wrap - (b - a));
        EXPECT_EQ(limb_kernel::Compare(ra.data(), rb.data(), w),
                  a < b ? -1 : (a == b ? 0 : 1));
      }
    }
    // Outputs may alias an input: the secure sum accumulates in place.
    auto acc = Row(ones, w);
    const auto one = Row(BigUInt(1), w);
    EXPECT_EQ(limb_kernel::Add(acc.data(), one.data(), acc.data(), w), 1u);
    EXPECT_TRUE(Value(acc).IsZero()) << "carry out of the top limb, w=" << w;
  }
}

TEST(LimbKernelTest, CondSubModMatchesModAddNextToS) {
  Rng rng(6);
  for (size_t w = 1; w <= 4; ++w) {
    for (const BigUInt& s : Moduli(&rng, w)) {
      const size_t sw = s.num_limbs();
      const auto rs = Row(s, sw);
      std::vector<BigUInt> residues{BigUInt(0), BigUInt(1), s - BigUInt(1),
                                    s - BigUInt(2)};
      for (int i = 0; i < 10; ++i) residues.push_back(BigUInt::RandomBelow(&rng, s));
      for (const BigUInt& a : residues) {
        for (const BigUInt& b : residues) {
          auto v = Row(a, sw);
          const auto rb = Row(b, sw);
          const uint64_t carry =
              limb_kernel::Add(v.data(), rb.data(), v.data(), sw);
          limb_kernel::CondSubMod(v.data(), carry, rs.data(), sw);
          EXPECT_EQ(Value(v), ModAdd(a, b, s))
              << "S=" << s.ToHexString() << " a=" << a.ToHexString()
              << " b=" << b.ToHexString();
        }
      }
    }
  }
}

// BigUInt::RandomBelow as it was first written: candidates of the bound's
// bit length from RandomBits until one falls below the bound.
BigUInt ReferenceRandomBelow(Rng* rng, const BigUInt& bound) {
  for (;;) {
    BigUInt candidate = BigUInt::RandomBits(rng, bound.BitLength());
    if (candidate < bound) return candidate;
  }
}

TEST(LimbKernelTest, DrawBelowMatchesRandomBelowDrawForDraw) {
  Rng bounds_rng(7);
  std::vector<BigUInt> bounds{BigUInt(1),
                              BigUInt(64),
                              BigUInt(1) << 40,
                              BigUInt(1) << 63,
                              BigUInt(1) << 64,  // Two limbs, top limb 1.
                              (BigUInt(1) << 64) - BigUInt(1000),
                              BigUInt(1) << 130,
                              (BigUInt(1) << 130) - BigUInt(1000)};
  for (size_t w = 1; w <= 4; ++w) {
    bounds.push_back(BigUInt::RandomBits(&bounds_rng, 64 * w) + BigUInt(1));
  }
  for (const BigUInt& bound : bounds) {
    Rng draw_rng(11), reference_rng(11), random_below_rng(11);
    const size_t n = bound.num_limbs();
    const auto rb = Row(bound, n);
    std::vector<uint64_t> out(n);
    for (int i = 0; i < 200; ++i) {
      DrawBelow(&draw_rng, rb.data(), n, out.data());
      const BigUInt want = ReferenceRandomBelow(&reference_rng, bound);
      ASSERT_EQ(Value(out), want) << "bound=" << bound.ToHexString();
      ASSERT_EQ(BigUInt::RandomBelow(&random_below_rng, bound), want);
    }
    // Equal next words: all three consumed the same number of NextU64s.
    const uint64_t next = reference_rng.NextU64();
    EXPECT_EQ(draw_rng.NextU64(), next) << "bound=" << bound.ToHexString();
    EXPECT_EQ(random_below_rng.NextU64(), next);
  }
}

}  // namespace
}  // namespace psi
