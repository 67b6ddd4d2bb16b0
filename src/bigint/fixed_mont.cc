#include "bigint/fixed_mont.h"

#include "bigint/limb_kernel.h"
#include "bigint/pow_window.h"
#include "common/logging.h"

namespace psi {

namespace {

// One Montgomery multiply kernel: out = a*b*R^-1 mod n (limb_kernel.h).
using MontMulKernel = void (*)(const uint64_t* a, const uint64_t* b,
                               const uint64_t* n, uint64_t n0, uint64_t* out);

template <size_t L>
class FixedMontEngine final : public FixedMontEngineBase {
 public:
  FixedMontEngine(const BigUInt& modulus, uint64_t n_prime,
                  const BigUInt& r_mod_n, const BigUInt& r2_mod_n)
      : n_big_(modulus), n0_(n_prime) {
    for (size_t i = 0; i < L; ++i) {
      n_[i] = modulus.limb(i);
      one_mont_[i] = r_mod_n.limb(i);
      r2_[i] = r2_mod_n.limb(i);
      one_[i] = i == 0 ? 1 : 0;
    }
    // REDC(R^2 * R^2) = R^3 mod n.
    limb_kernel::MontMul<L>(r2_, r2_, n_, n0_, r3_);
  }

  size_t limbs() const override { return L; }

  void MontMulRaw(const uint64_t* a, const uint64_t* b,
                  uint64_t* out) const override {
    limb_kernel::MontMul<L>(a, b, n_, n0_, out);
  }

  void ToMontRaw(const uint64_t* a, uint64_t* out) const override {
    limb_kernel::MontMul<L>(a, r2_, n_, n0_, out);
  }

  void FromMontRaw(const uint64_t* a, uint64_t* out) const override {
    // REDC(a * 1) = a * R^-1 mod n.
    limb_kernel::MontMul<L>(a, one_, n_, n0_, out);
  }

  void OneMontRaw(uint64_t* out) const override {
    for (size_t i = 0; i < L; ++i) out[i] = one_mont_[i];
  }

  BigUInt Multiply(const BigUInt& a, const BigUInt& b) const override {
    uint64_t ra[L], rb[L], ro[L];
    Load(a, ra);
    Load(b, rb);
    limb_kernel::MontMul<L>(ra, rb, n_, n0_, ro);
    return BigUInt::FromLimbs(ro, L);
  }

  BigUInt ToMontgomery(const BigUInt& a) const override {
    PSI_DCHECK(a < n_big_);
    uint64_t ra[L];
    Load(a, ra);
    ToMontRaw(ra, ra);
    return BigUInt::FromLimbs(ra, L);
  }

  BigUInt FromMontgomery(const BigUInt& a) const override {
    uint64_t ra[L];
    Load(a, ra);
    FromMontRaw(ra, ra);
    return BigUInt::FromLimbs(ra, L);
  }

  BigUInt Pow(const BigUInt& base,
              PSI_SECRET const BigUInt& exp) const override {
    uint64_t acc[L];
    ToMontAnyWidth(base, acc);
    // The kernel is resolved here, once; every multiply below is a direct
    // call the compiler can inline.
#if PSI_LIMB_KERNEL_X86
    if (limb_kernel::ActiveVariant() == limb_kernel::Variant::kX86Adx) {
      PowX86(acc, exp);
      return BigUInt::FromLimbs(acc, L);
    }
#endif
    PowWith<limb_kernel::MontMulFixedPortable<L>>(acc, exp);
    return BigUInt::FromLimbs(acc, L);
  }

 private:
  /// Loads a value < n into an L-limb buffer (high limbs zero-filled).
  static void Load(const BigUInt& v, uint64_t* out) {
    PSI_DCHECK(v.num_limbs() <= L);
    for (size_t i = 0; i < L; ++i) out[i] = v.limb(i);
  }

  /// out = base*R mod n for a base of any width. A base below R^2 (every
  /// reduced base, and a CRT half's whole ciphertext c < p*q < R^2) splits
  /// as lo + hi*R with lo, hi < R, and lo*R^2 + hi*R^3 takes two multiplies
  /// on stack limbs; only a base wider than 2L limbs pays the heap division.
  void ToMontAnyWidth(const BigUInt& base, uint64_t* out) const {
    uint64_t lo[L], hi[L];
    for (size_t i = 0; i < L; ++i) {
      lo[i] = base.limb(i);
      hi[i] = base.limb(L + i);
    }
    bool has_hi = base.num_limbs() > L;
    if (base.num_limbs() > 2 * L) {
      Load(base % n_big_, lo);
      has_hi = false;
    }
    // MontMul takes a first operand up to R-1, so lo, hi < R is enough.
    limb_kernel::MontMul<L>(lo, r2_, n_, n0_, out);
    if (!has_hi) return;
    uint64_t hi_mont[L];
    limb_kernel::MontMul<L>(hi, r3_, n_, n0_, hi_mont);
    const uint64_t carry = limb_kernel::AddFixed<L>(out, hi_mont, out);
    if (carry != 0 || limb_kernel::CompareFixed<L>(out, n_) >= 0) {
      limb_kernel::SubFixed<L>(out, n_, out);
    }
  }

#if PSI_LIMB_KERNEL_X86
  __attribute__((target("bmi2,adx"))) void PowX86(
      uint64_t* acc, PSI_SECRET const BigUInt& exp) const {
    PowWith<limb_kernel::MontMulFixedX86<L>>(acc, exp);
  }
#endif

  /// acc = base^exp mod n, in place: `acc` enters holding base*R mod n and
  /// leaves holding the plain result. The one exponentiation body: the
  /// fixed-window walk of pow_window.h, in the heap MontgomeryContext::Pow's
  /// digit order, so both paths compute identical intermediate values.
  template <MontMulKernel Mul>
  __attribute__((always_inline)) inline void PowWith(
      uint64_t* acc, PSI_SECRET const BigUInt& exp) const {
    const size_t bits = exp.BitLength();
    // psi-lint: allow(secret-flow) bits is exp.BitLength(); the key size is a public parameter
    if (bits == 0) {
      for (size_t i = 0; i < L; ++i) acc[i] = one_[i];
      return;
    }
    const size_t w = internal::WindowBitsFor(bits);
    // table[d] = base^d in Montgomery form, d < 2^w, rows flat at stride L.
    uint64_t table[(size_t{1} << internal::kMaxWindowBits) * L];
    // psi-lint: allow(secret-flow) shift count w is a function of the public key size only
    const size_t table_size = size_t{1} << w;
    for (size_t i = 0; i < L; ++i) {
      table[i] = one_mont_[i];
      table[L + i] = acc[i];
    }
    for (size_t d = 2; d < table_size; ++d) {
      Mul(&table[(d - 1) * L], acc, n_, n0_, &table[d * L]);
    }
    // psi-lint: allow(secret-flow) digit count depends on the public key size, not the exponent value
    const size_t digits = (bits + w - 1) / w;
    const size_t top = internal::ExpDigit(exp, (digits - 1) * w, w);
    // psi-lint: allow(secret-flow) windowed table walk at the key owner; DESIGN.md's simulated network carries no timing channel
    for (size_t i = 0; i < L; ++i) acc[i] = table[top * L + i];
    for (size_t d = digits - 1; d-- > 0;) {
      for (size_t s = 0; s < w; ++s) Mul(acc, acc, n_, n0_, acc);
      const size_t digit = internal::ExpDigit(exp, d * w, w);
      // psi-lint: allow(secret-flow) windowed table walk at the key owner; DESIGN.md's simulated network carries no timing channel
      if (digit != 0) Mul(acc, &table[digit * L], n_, n0_, acc);
    }
    Mul(acc, one_, n_, n0_, acc);  // Leave the Montgomery domain.
  }

  BigUInt n_big_;           // For wide-base reductions (base >= R^2).
  uint64_t n_[L];           // The modulus.
  uint64_t one_mont_[L];    // R mod n (Montgomery form of 1).
  uint64_t r2_[L];          // R^2 mod n (ToMontgomery multiplier).
  uint64_t r3_[L];          // R^3 mod n (multiplier of a wide base's high half).
  uint64_t one_[L];         // Plain 1 (FromMontgomery multiplier).
  uint64_t n0_;             // -n^-1 mod 2^64.
};

}  // namespace

std::shared_ptr<const FixedMontEngineBase> MakeFixedMontEngine(
    const BigUInt& modulus, uint64_t n_prime, const BigUInt& r_mod_n,
    const BigUInt& r2_mod_n) {
  // Only an EXACT width match attaches an engine: the engine's R is
  // 2^(64*L), and only L == num_limbs(modulus) reproduces the heap path's
  // R, keeping Montgomery-domain values interchangeable between the two.
  switch (modulus.num_limbs()) {
    case 4:
      return std::make_shared<FixedMontEngine<4>>(modulus, n_prime, r_mod_n,
                                                  r2_mod_n);
    case 8:
      return std::make_shared<FixedMontEngine<8>>(modulus, n_prime, r_mod_n,
                                                  r2_mod_n);
    case 16:
      return std::make_shared<FixedMontEngine<16>>(modulus, n_prime, r_mod_n,
                                                   r2_mod_n);
    case 32:
      return std::make_shared<FixedMontEngine<32>>(modulus, n_prime, r_mod_n,
                                                   r2_mod_n);
    case 64:
      return std::make_shared<FixedMontEngine<64>>(modulus, n_prime, r_mod_n,
                                                   r2_mod_n);
    default:
      return nullptr;
  }
}

}  // namespace psi
