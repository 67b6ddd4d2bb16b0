// Window-size policy shared by every modular-exponentiation loop (the heap
// MontgomeryContext, the fixed-width engine, and FixedBaseTable). Keeping
// the policy in one place guarantees the heap and fixed paths walk the same
// digits in the same order — a precondition for the differential tests that
// pin them against each other.

#ifndef PSI_BIGINT_POW_WINDOW_H_
#define PSI_BIGINT_POW_WINDOW_H_

#include <cstddef>

#include "bigint/biguint.h"

namespace psi {
namespace internal {

/// Largest width WindowBitsFor returns: a window table of 2^5 entries fits
/// on the stack at every engine width.
inline constexpr size_t kMaxWindowBits = 5;

/// Fixed-window width for a `bits`-bit exponent: chosen so the 2^w - 1 table
/// multiplies amortize against the ~bits * (1/2 - 1/w) multiplies the window
/// saves over plain square-and-multiply.
inline size_t WindowBitsFor(size_t bits) {
  if (bits <= 24) return 1;
  if (bits <= 96) return 2;
  if (bits <= 256) return 3;
  if (bits <= 1024) return 4;
  return kMaxWindowBits;
}

/// The w-bit digit of exp starting at bit position pos (little-endian), for
/// w < 64: a shift of the limb holding bit `pos`, plus the next limb's low
/// bits when the digit straddles a limb boundary.
inline size_t ExpDigit(const BigUInt& exp, size_t pos, size_t w) {
  const size_t shift = pos % 64;
  uint64_t bits = exp.limb(pos / 64) >> shift;
  if (shift + w > 64) bits |= exp.limb(pos / 64 + 1) << (64 - shift);
  return static_cast<size_t>(bits & ((uint64_t{1} << w) - 1));
}

}  // namespace internal
}  // namespace psi

#endif  // PSI_BIGINT_POW_WINDOW_H_
