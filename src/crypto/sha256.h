// SHA-256 (FIPS 180-4): the KDF of the hybrid encryption mode, the
// oblivious-transfer key hash and the socket transport's token proofs.

#ifndef PSI_CRYPTO_SHA256_H_
#define PSI_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace psi {

/// \brief Incremental SHA-256 hasher.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;

  Sha256();

  /// \brief Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  void Update(const std::vector<uint8_t>& data) {
    Update(data.data(), data.size());
  }
  void Update(const std::string& s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// \brief Finishes and returns the 32-byte digest. The hasher must not be
  /// updated afterwards.
  std::array<uint8_t, kDigestSize> Finish();

  /// \brief One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(const std::vector<uint8_t>& data);
  static std::array<uint8_t, kDigestSize> Hash(const std::string& data);

 private:
  void ProcessBlock(const uint8_t* block);

  std::array<uint32_t, 8> state_;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

/// \brief Hex rendering of a digest.
std::string DigestToHex(const std::array<uint8_t, Sha256::kDigestSize>& digest);

}  // namespace psi

#endif  // PSI_CRYPTO_SHA256_H_
