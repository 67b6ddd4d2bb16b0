#include "mpc/secure_sum.h"

#include <algorithm>

#include "bigint/limb_kernel.h"
#include "common/annotations.h"
#include "common/serialize.h"
#include "crypto/permutation.h"

namespace psi {

namespace {

// Step tags for ProtocolId::kSecureSum frames (Protocols 1-2).
constexpr uint16_t kStepPairwiseShares = 2;   // Prot1 step 2.
constexpr uint16_t kStepFoldIntoP2 = 4;       // Prot1 steps 4-5.
constexpr uint16_t kStepToThirdParty = 3;     // Prot2 steps 3-4.
constexpr uint16_t kStepComparisonBits = 6;   // Prot2 step 6.

// Shares travel and are held as flat rows: a block of `count` values of
// `width` little-endian limbs each, value c at limbs [c*width, (c+1)*width).

std::vector<uint64_t> ToRow(const BigUInt& v, size_t width) {
  std::vector<uint64_t> row(width);
  for (size_t i = 0; i < width; ++i) row[i] = v.limb(i);
  return row;
}

std::vector<BigUInt> ToBigUInts(const std::vector<uint64_t>& rows,
                                size_t width) {
  std::vector<BigUInt> out(rows.size() / width);
  for (size_t c = 0; c < out.size(); ++c) {
    out[c] = BigUInt::FromLimbs(rows.data() + c * width, width);
  }
  return out;
}

// The share-vector wire format is WriteBigUInt per value: each row goes out
// as its normalized limb count, then those limbs.
std::vector<uint8_t> PackRows(const uint64_t* rows, size_t count,
                              size_t width) {
  BinaryWriter w;
  w.Reserve(10 + count * (1 + 8 * width));
  w.WriteVarU64(count);
  for (size_t c = 0; c < count; ++c) {
    const uint64_t* row = rows + c * width;
    size_t n = width;
    while (n > 0 && row[n - 1] == 0) --n;
    w.WriteVarU64(n);
    for (size_t i = 0; i < n; ++i) w.WriteU64(row[i]);
  }
  return w.TakeBuffer();
}

// Decodes a packed vector of exactly `count` values into `width`-limb rows.
// Any value at or above `limit` (`width` limbs) is a ProtocolError: an
// honest peer never sends one, and accepting it would corrupt the sum.
[[nodiscard]] Status UnpackRows(const std::vector<uint8_t>& buf, size_t count,
                                const std::vector<uint64_t>& limit,
                                const char* what, std::vector<uint64_t>* out) {
  const size_t width = limit.size();
  BinaryReader r(buf);
  uint64_t n = 0;
  PSI_RETURN_NOT_OK(r.ReadCount(&n));
  if (n != count) {
    return Status::ProtocolError(std::string(what) + ": length mismatch");
  }
  out->assign(count * width, 0);
  for (size_t c = 0; c < count; ++c) {
    uint64_t* row = out->data() + c * width;
    uint64_t limbs = 0;
    PSI_RETURN_NOT_OK(r.ReadCount(&limbs, /*min_bytes_per_element=*/8));
    bool fits = true;
    for (uint64_t i = 0; i < limbs; ++i) {
      uint64_t limb = 0;
      PSI_RETURN_NOT_OK(r.ReadU64(&limb));
      if (i < width) {
        row[i] = limb;
      } else if (limb != 0) {
        fits = false;
      }
    }
    if (!fits || limb_kernel::Compare(row, limit.data(), width) >= 0) {
      return Status::ProtocolError(std::string(what) + ": value " +
                                   std::to_string(c) + " out of range");
    }
  }
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

// sum[c] = sum[c] + addend[c] mod S, row by row (both blocks below S).
void AddRowsModS(std::vector<uint64_t>* sum,
                 const std::vector<uint64_t>& addend,
                 const std::vector<uint64_t>& s_row) {
  const size_t w = s_row.size();
  for (size_t i = 0; i < sum->size(); i += w) {
    uint64_t* row = sum->data() + i;
    limb_kernel::CondSubMod(row,
                            limb_kernel::Add(row, addend.data() + i, row, w),
                            s_row.data(), w);
  }
}

std::vector<uint8_t> PackBits(const std::vector<bool>& bits) {
  BinaryWriter w;
  w.WriteVarU64(bits.size());
  uint8_t acc = 0;
  size_t filled = 0;
  for (bool b : bits) {
    acc = static_cast<uint8_t>(acc | ((b ? 1 : 0) << filled));
    if (++filled == 8) {
      w.WriteU8(acc);
      acc = 0;
      filled = 0;
    }
  }
  if (filled != 0) w.WriteU8(acc);
  return w.TakeBuffer();
}

[[nodiscard]] Status UnpackBits(const std::vector<uint8_t>& buf, std::vector<bool>* out) {
  BinaryReader r(buf);
  uint64_t count;
  PSI_RETURN_NOT_OK(r.ReadVarU64(&count));
  if (count > static_cast<uint64_t>(r.remaining()) * 8) {
    return Status::SerializationError("bit count exceeds buffer capacity");
  }
  out->assign(count, false);
  uint8_t acc = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % 8 == 0) PSI_RETURN_NOT_OK(r.ReadU8(&acc));
    (*out)[i] = ((acc >> (i % 8)) & 1) != 0;
  }
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

}  // namespace

BigUInt RecommendedModulus(const BigUInt& bound_a, uint64_t num_counters,
                           uint64_t epsilon_log2) {
  // S >= A * (1 + 2 * num_counters * 2^epsilon_log2), rounded up to the
  // power of two above the target's bit length. This is not a sampling
  // shortcut: S = 2^k has k+1 bits, so RandomBelow's k+1-bit candidates are
  // rejected about half the time. Changing S would change every transcript.
  BigUInt target = bound_a * (BigUInt(1) +
                              (BigUInt(2) * BigUInt(num_counters)
                               << static_cast<size_t>(epsilon_log2)));
  return BigUInt::PowerOfTwo(target.BitLength());
}

SecureSumProtocol::SecureSumProtocol(Network* network,
                                     std::vector<PartyId> players,
                                     PartyId third_party,
                                     SecureSumConfig config)
    : network_(network),
      players_(std::move(players)),
      third_party_(third_party),
      config_(std::move(config)) {}

Status SecureSumProtocol::ValidateInputs(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs) const {
  const size_t m = players_.size();
  if (m < 2) return Status::InvalidArgument("need at least two players");
  if (inputs.size() != m || player_rngs.size() != m) {
    return Status::InvalidArgument("one input vector and rng per player");
  }
  const size_t count = inputs[0].size();
  for (const auto& v : inputs) {
    if (v.size() != count) {
      return Status::InvalidArgument("all input vectors must share a length");
    }
  }
  // Per-counter sums must stay within [0, A]. The sum of m 64-bit inputs is
  // held exactly as (carries, low word); A beyond 128 bits bounds any sum.
  const BigUInt& a = config_.input_bound_a;
  const bool a_unbounded = a.num_limbs() > 2;
  for (size_t c = 0; c < count; ++c) {
    uint64_t low = 0, carries = 0;
    for (size_t k = 0; k < m; ++k) {
      if (__builtin_add_overflow(low, inputs[k][c], &low)) ++carries;
    }
    if (!a_unbounded && (carries > a.limb(1) ||
                         (carries == a.limb(1) && low > a.limb(0)))) {
      return Status::OutOfRange("counter sum exceeds the public bound A");
    }
  }
  if (config_.modulus_s <= config_.input_bound_a * BigUInt(4)) {
    return Status::InvalidArgument("modulus S must be >> A (at least 4A)");
  }
  for (size_t k = 0; k < m; ++k) {
    if (third_party_ == players_[k] && k < 2) {
      return Status::InvalidArgument("third party may not be P1 or P2");
    }
  }
  return Status::OK();
}

Result<BatchedModularShares> SecureSumProtocol::RunProtocol1(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  Result<ShareRows> rows = RunProtocol1Impl(inputs, player_rngs, label_prefix);
  if (!rows.ok()) {
    return DrainOnError(network_,
                        Result<BatchedModularShares>(rows.status()));
  }
  const size_t w = config_.modulus_s.num_limbs();
  BatchedModularShares out;
  out.s1 = ToBigUInts(rows->s1, w);
  out.s2 = ToBigUInts(rows->s2, w);
  return out;
}

Result<BatchedIntegerShares> SecureSumProtocol::RunProtocol2(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, Rng* pair_secret_rng,
    const std::string& label_prefix) {
  return DrainOnError(network_,
                      RunProtocol2Impl(inputs, player_rngs, pair_secret_rng,
                                       label_prefix));
}

Result<SecureSumProtocol::ShareRows> SecureSumProtocol::RunProtocol1Impl(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  PSI_RETURN_NOT_OK(ValidateInputs(inputs, player_rngs));
  const size_t m = players_.size();
  const size_t count = inputs[0].size();
  const size_t w = config_.modulus_s.num_limbs();
  const std::vector<uint64_t> s_row = ToRow(config_.modulus_s, w);

  // Step 1 (local): player k splits each x_k into m uniform Z_S summands.
  // Block (k, j) of `outgoing` holds the shares player k gives player j.
  std::vector<uint64_t> outgoing(m * m * count * w, 0);
  auto block = [&](size_t k, size_t j) {
    return outgoing.data() + (k * m + j) * count * w;
  };
  std::vector<uint64_t> acc(w);
  for (size_t k = 0; k < m; ++k) {
    for (size_t c = 0; c < count; ++c) {
      std::fill(acc.begin(), acc.end(), 0);
      for (size_t j = 1; j < m; ++j) {
        uint64_t* share = block(k, j) + c * w;
        DrawBelow(player_rngs[k], s_row.data(), w, share);
        limb_kernel::CondSubMod(
            acc.data(), limb_kernel::Add(acc.data(), share, acc.data(), w),
            s_row.data(), w);
      }
      // First share absorbs the difference so the m shares sum to x_k mod S
      // (x_k <= A < S, so x_k is already reduced).
      uint64_t* first = block(k, 0) + c * w;
      first[0] = inputs[k][c];
      if (limb_kernel::Sub(first, acc.data(), first, w) != 0) {
        limb_kernel::Add(first, s_row.data(), first, w);
      }
    }
  }

  // Step 2 (one round): every player sends every other player its share.
  network_->BeginRound(label_prefix + "Prot1.Step2 (pairwise shares)");
  for (size_t k = 0; k < m; ++k) {
    for (size_t j = 0; j < m; ++j) {
      if (j == k) continue;
      PSI_RETURN_NOT_OK(network_->SendFramed(players_[k], players_[j],
                                             ProtocolId::kSecureSum,
                                             kStepPairwiseShares,
                                             PackRows(block(k, j), count, w)));
    }
  }

  // Step 3 (local): player j sums what it kept and what it received.
  std::vector<std::vector<uint64_t>> sums(m);
  std::vector<uint64_t> received;
  for (size_t j = 0; j < m; ++j) {
    sums[j].assign(block(j, j), block(j, j) + count * w);
    for (size_t k = 0; k < m; ++k) {
      if (k == j) continue;
      PSI_ASSIGN_OR_RETURN(
          auto buf, network_->RecvValidated(players_[j], players_[k],
                                            ProtocolId::kSecureSum,
                                            kStepPairwiseShares));
      PSI_RETURN_NOT_OK(
          UnpackRows(buf, count, s_row, "pairwise share vector", &received));
      AddRowsModS(&sums[j], received, s_row);
    }
  }
  views_.player_share_vectors.resize(m);
  for (size_t j = 0; j < m; ++j) {
    views_.player_share_vectors[j] = ToBigUInts(sums[j], w);
  }

  // Steps 4-5 (one round): players P3..Pm fold their sums into P2's.
  network_->BeginRound(label_prefix + "Prot1.Step4 (fold into P2)");
  for (size_t j = 2; j < m; ++j) {
    PSI_RETURN_NOT_OK(network_->SendFramed(players_[j], players_[1],
                                           ProtocolId::kSecureSum,
                                           kStepFoldIntoP2,
                                           PackRows(sums[j].data(), count, w)));
  }
  for (size_t j = 2; j < m; ++j) {
    PSI_ASSIGN_OR_RETURN(
        auto buf, network_->RecvValidated(players_[1], players_[j],
                                          ProtocolId::kSecureSum,
                                          kStepFoldIntoP2));
    PSI_RETURN_NOT_OK(
        UnpackRows(buf, count, s_row, "folded share vector", &received));
    AddRowsModS(&sums[1], received, s_row);
  }

  return ShareRows{std::move(sums[0]), std::move(sums[1])};
}

Result<BatchedIntegerShares> SecureSumProtocol::RunProtocol2Impl(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, Rng* pair_secret_rng,
    const std::string& label_prefix) {
  PSI_ASSIGN_OR_RETURN(ShareRows mod_shares,
                       RunProtocol1Impl(inputs, player_rngs, label_prefix));
  const size_t count = inputs[0].size();
  const BigUInt& S = config_.modulus_s;
  const size_t w = S.num_limbs();
  // s2 + r and the third party's sum need one limb more than S.
  const std::vector<uint64_t> s_row = ToRow(S, w);
  const std::vector<uint64_t> s_wide = ToRow(S, w + 1);
  const std::vector<uint64_t> two_s = ToRow(S << 1, w + 1);
  const BigUInt r_bound = S - config_.input_bound_a;  // r in [0, S-A-1].
  const std::vector<uint64_t> r_row = ToRow(r_bound, r_bound.num_limbs());

  // Step 2 (local at P2): one masking value per counter.
  PSI_SECRET std::vector<uint64_t> masks;
  masks.assign(count * w, 0);
  for (size_t c = 0; c < count; ++c) {
    DrawBelow(player_rngs[1], r_row.data(), r_row.size(), &masks[c * w]);
  }

  // Batched refinement (Section 5.1): P1 and P2 permute the counter order
  // seen by the third party using their pre-shared pairwise secret.
  SecretPermutation perm =
      config_.use_secret_permutation
          ? SecretPermutation::Random(pair_secret_rng, count)
          : SecretPermutation::FromMapping([count] {
              std::vector<size_t> id(count);
              for (size_t i = 0; i < count; ++i) id[i] = i;
              return id;
            }()).ValueOrDie();

  std::vector<uint64_t> sent_s1(count * w), sent_masked_s2(count * (w + 1));
  for (size_t c = 0; c < count; ++c) {
    const size_t slot = perm.Apply(c);
    std::copy_n(&mod_shares.s1[c * w], w, &sent_s1[slot * w]);
    uint64_t* masked = &sent_masked_s2[slot * (w + 1)];
    masked[w] = limb_kernel::Add(&mod_shares.s2[c * w], &masks[c * w], masked,
                                 w);
  }

  // Steps 3-4 (one round): both vectors travel to the third party.
  network_->BeginRound(label_prefix + "Prot2.Steps3-4 (to third party)");
  PSI_RETURN_NOT_OK(network_->SendFramed(players_[0], third_party_,
                                         ProtocolId::kSecureSum,
                                         kStepToThirdParty,
                                         PackRows(sent_s1.data(), count, w)));
  PSI_RETURN_NOT_OK(network_->SendFramed(
      players_[1], third_party_, ProtocolId::kSecureSum, kStepToThirdParty,
      PackRows(sent_masked_s2.data(), count, w + 1)));

  // Step 5 (local at the third party): y = s1 + s2 + r, compare with S.
  // An honest s1 is below S and an honest s2 + r below 2S - A.
  PSI_ASSIGN_OR_RETURN(
      auto buf1, network_->RecvValidated(third_party_, players_[0],
                                         ProtocolId::kSecureSum,
                                         kStepToThirdParty));
  PSI_ASSIGN_OR_RETURN(
      auto buf2, network_->RecvValidated(third_party_, players_[1],
                                         ProtocolId::kSecureSum,
                                         kStepToThirdParty));
  std::vector<uint64_t> tp_s1, tp_masked;
  PSI_RETURN_NOT_OK(UnpackRows(buf1, count, s_row, "third party s1", &tp_s1));
  PSI_RETURN_NOT_OK(
      UnpackRows(buf2, count, two_s, "third party s2 + r", &tp_masked));
  views_.third_party_s1 = ToBigUInts(tp_s1, w);
  views_.third_party_masked_s2 = ToBigUInts(tp_masked, w + 1);
  std::vector<bool> bits(count);
  std::vector<uint64_t> y(w + 1);
  for (size_t c = 0; c < count; ++c) {
    // s1 < S and s2 + r < 2S, so y < 3S fits in w + 1 limbs.
    std::copy_n(&tp_s1[c * w], w, y.data());
    y[w] = 0;
    limb_kernel::Add(y.data(), &tp_masked[c * (w + 1)], y.data(), w + 1);
    bits[c] = limb_kernel::Compare(y.data(), s_wide.data(), w + 1) >= 0;
  }
  views_.comparison_bits = bits;

  // Step 6 (one round): the answers return to P2 (one bit per counter).
  network_->BeginRound(label_prefix + "Prot2.Step6 (comparison bits)");
  PSI_RETURN_NOT_OK(network_->SendFramed(third_party_, players_[1],
                                         ProtocolId::kSecureSum,
                                         kStepComparisonBits, PackBits(bits)));
  PSI_ASSIGN_OR_RETURN(
      auto bits_buf, network_->RecvValidated(players_[1], third_party_,
                                             ProtocolId::kSecureSum,
                                             kStepComparisonBits));
  std::vector<bool> received_bits;
  PSI_RETURN_NOT_OK(UnpackBits(bits_buf, &received_bits));
  if (received_bits.size() != count) {
    return Status::ProtocolError("comparison bit vector length mismatch");
  }

  // Steps 7-8 (local at P2): undo the permutation, apply the correction:
  // s2 - S = -(S - s2), and s2 < S keeps the magnitude positive.
  BatchedIntegerShares out;
  out.s1 = ToBigUInts(mod_shares.s1, w);
  out.s2.resize(count);
  views_.p2_correction.assign(count, false);
  std::vector<uint64_t> magnitude(w);
  for (size_t c = 0; c < count; ++c) {
    const bool correct = received_bits[perm.Apply(c)];
    views_.p2_correction[c] = correct;
    const uint64_t* s2 = &mod_shares.s2[c * w];
    if (correct) {
      limb_kernel::Sub(s_row.data(), s2, magnitude.data(), w);
      out.s2[c] = BigInt(BigUInt::FromLimbs(magnitude.data(), w),
                         /*negative=*/true);
    } else {
      out.s2[c] = BigInt(BigUInt::FromLimbs(s2, w));
    }
  }
  return out;
}

}  // namespace psi
