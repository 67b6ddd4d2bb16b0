// Arbitrary-precision unsigned integers.
//
// The MPC protocols need a share modulus S that is astronomically larger than
// the counter bound A (Theorem 4.1 makes the leakage probability ~ A/S), so
// 64-bit arithmetic is not enough; S is typically hundreds of bits.
//
// Representation: little-endian vector of 64-bit limbs, normalized so the
// most significant limb is nonzero (zero is the empty vector).

#ifndef PSI_BIGINT_BIGUINT_H_
#define PSI_BIGINT_BIGUINT_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"

namespace psi {

/// \brief Arbitrary-precision unsigned integer.
class BigUInt {
 public:
  /// Constructs zero.
  BigUInt() = default;

  /// Constructs from a 64-bit value (implicit: literals compose naturally).
  BigUInt(uint64_t v) {  // NOLINT(runtime/explicit)
    if (v != 0) limbs_.push_back(v);
  }

  /// \brief Parses a decimal string ("123456789...").
  [[nodiscard]] static Result<BigUInt> FromDecimalString(std::string_view s);

  /// \brief Parses a hexadecimal string without 0x prefix ("deadbeef").
  [[nodiscard]] static Result<BigUInt> FromHexString(std::string_view s);

  /// \brief Builds from little-endian bytes.
  static BigUInt FromLittleEndianBytes(const std::vector<uint8_t>& bytes);

  /// \brief Builds from a little-endian limb array (high zero limbs fine).
  static BigUInt FromLimbs(const uint64_t* limbs, size_t count);

  /// \brief 2^k.
  static BigUInt PowerOfTwo(size_t k);

  /// \brief Uniform value in [0, bound) via rejection sampling. bound > 0.
  static BigUInt RandomBelow(Rng* rng, const BigUInt& bound);

  /// \brief Uniform value with exactly `bits` random bits (top bit may be 0).
  static BigUInt RandomBits(Rng* rng, size_t bits);

  bool IsZero() const { return limbs_.empty(); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  bool IsEven() const { return limbs_.empty() || (limbs_[0] & 1) == 0; }
  bool IsOdd() const { return !IsEven(); }

  /// \brief Number of significant bits (0 for zero).
  size_t BitLength() const;

  /// \brief Value of bit i (false beyond BitLength()).
  bool GetBit(size_t i) const;

  /// \brief Sets bit i to 1, growing as needed.
  void SetBit(size_t i);

  size_t num_limbs() const { return limbs_.size(); }
  uint64_t limb(size_t i) const { return i < limbs_.size() ? limbs_[i] : 0; }

  // -- Arithmetic -----------------------------------------------------------

  BigUInt operator+(const BigUInt& rhs) const;
  BigUInt& operator+=(const BigUInt& rhs);

  /// \brief Subtraction; aborts if rhs > *this (use CheckedSub for a Status).
  BigUInt operator-(const BigUInt& rhs) const;
  BigUInt& operator-=(const BigUInt& rhs);

  /// \brief Subtraction returning OutOfRange instead of aborting.
  [[nodiscard]] Result<BigUInt> CheckedSub(const BigUInt& rhs) const;

  BigUInt operator*(const BigUInt& rhs) const;
  BigUInt& operator*=(const BigUInt& rhs);

  /// \brief Quotient; aborts on division by zero.
  BigUInt operator/(const BigUInt& rhs) const;
  /// \brief Remainder; aborts on division by zero.
  BigUInt operator%(const BigUInt& rhs) const;

  /// \brief Computes quotient and remainder in one pass (Knuth Algorithm D).
  static void DivMod(const BigUInt& num, const BigUInt& den, BigUInt* quot,
                     BigUInt* rem);

  BigUInt operator<<(size_t bits) const;
  BigUInt operator>>(size_t bits) const;
  BigUInt& operator<<=(size_t bits);
  BigUInt& operator>>=(size_t bits);

  std::strong_ordering operator<=>(const BigUInt& rhs) const;
  bool operator==(const BigUInt& rhs) const { return limbs_ == rhs.limbs_; }

  // -- Conversions ----------------------------------------------------------

  /// \brief Checked narrowing to 64 bits.
  [[nodiscard]] Result<uint64_t> ToUint64() const;

  /// \brief Nearest double (inf if the value exceeds the double range).
  double ToDouble() const;

  std::string ToDecimalString() const;
  std::string ToHexString() const;

  /// \brief Minimal little-endian byte encoding (empty for zero).
  std::vector<uint8_t> ToLittleEndianBytes() const;

  /// \brief Serialized wire size in bytes (varint length prefix + payload).
  size_t SerializedSize() const;

 private:
  friend class BigUIntTestPeer;

  void Normalize();
  static BigUInt MulSchoolbook(const BigUInt& a, const BigUInt& b);
  static BigUInt MulKaratsuba(const BigUInt& a, const BigUInt& b);
  /// limbs_[lo, hi) as a value.
  BigUInt Slice(size_t lo, size_t hi) const;

  std::vector<uint64_t> limbs_;
};

/// \brief Floating-point quotient a/b computed with full integer precision in
/// the significand (exact to double rounding). Returns 0 if b == 0.
double DivideToDouble(const BigUInt& a, const BigUInt& b);

/// \brief floor(d) as a BigUInt for any finite d >= 0 (d may exceed 2^64:
/// the Z-distributed masks of Protocol 3 are unbounded above).
[[nodiscard]] Result<BigUInt> BigUIntFromDouble(double d);

/// \brief The sampler under BigUInt::RandomBelow, over raw limbs: writes a
/// uniform value in [0, bound) to out[0 .. n), where bound[0 .. n) is
/// normalized (bound[n-1] != 0). Each candidate is n fresh Rng words with
/// the top one masked to the bound's bit length; candidates >= bound are
/// redrawn. Protocol transcripts depend on this exact draw sequence.
void DrawBelow(Rng* rng, const uint64_t* bound, size_t n, uint64_t* out);

/// \brief Wire format: varint limb count, then limbs.
void WriteBigUInt(BinaryWriter* w, const BigUInt& v);
[[nodiscard]] Status ReadBigUInt(BinaryReader* r, BigUInt* out);

}  // namespace psi

#endif  // PSI_BIGINT_BIGUINT_H_
