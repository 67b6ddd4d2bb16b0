// Pinned-transcript helpers: an FNV-1a hasher and a Network that folds every
// transmitted frame (envelope included) into it. A test that compares a
// digest against a constant recorded from an earlier build catches a
// consistent byte change that run-against-run determinism checks cannot.

#ifndef PSI_TESTS_MPC_TRANSCRIPT_DIGEST_H_
#define PSI_TESTS_MPC_TRANSCRIPT_DIGEST_H_

#include <cstdint>
#include <vector>

#include "net/network.h"

namespace psi {

/// \brief 64-bit FNV-1a over a byte stream.
class Fnv1a {
 public:
  void Add(const uint8_t* data, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      hash_ = (hash_ ^ data[i]) * 1099511628211ull;
    }
  }
  void Add(const std::vector<uint8_t>& bytes) {
    Add(bytes.data(), bytes.size());
  }
  void AddU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const uint8_t byte = static_cast<uint8_t>(v >> (8 * i));
      Add(&byte, 1);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// \brief Simulated network hashing (from, to, frame bytes) of every
/// transmission in order.
class DigestNetwork : public Network {
 public:
  uint64_t digest() const { return fnv_.value(); }

 protected:
  Status Transmit(PartyId from, PartyId to, std::vector<uint8_t> frame,
                  bool front) override {
    fnv_.AddU64(from);
    fnv_.AddU64(to);
    fnv_.AddU64(frame.size());
    fnv_.Add(frame);
    return Network::Transmit(from, to, std::move(frame), front);
  }

 private:
  Fnv1a fnv_;
};

}  // namespace psi

#endif  // PSI_TESTS_MPC_TRANSCRIPT_DIGEST_H_
