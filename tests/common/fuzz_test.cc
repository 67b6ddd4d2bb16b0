// Failure injection: deserializers must reject arbitrary adversarial bytes
// with a clean Status — never crash, hang, or over-allocate. (In the
// deployment model every message crosses an organizational boundary.)
// Random junk rarely gets past a decoder's first length check, so the
// structure-aware loops below also flip, truncate and splice *valid*
// encodings: bounded and seeded, so every run checks the same mutants.

#include <gtest/gtest.h>

#include <algorithm>

#include "actionlog/action_log.h"
#include "actionlog/counters.h"
#include "bigint/bigint.h"
#include "bigint/biguint.h"
#include "common/random.h"
#include "common/serialize.h"
#include "crypto/rsa.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/propagation_protocol.h"
#include "mpc/session.h"
#include "mpc/wire.h"
#include "net/envelope.h"

namespace psi {
namespace {

TEST(FuzzTest, BinaryReaderSurvivesRandomBytes) {
  Rng rng(0xf022);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.UniformU64(64));
    rng.FillBytes(junk.data(), junk.size());
    BinaryReader r(junk);
    // Drain with a random sequence of reads; every call must return
    // cleanly (ok or SerializationError).
    for (int op = 0; op < 8 && !r.AtEnd(); ++op) {
      switch (rng.UniformU64(6)) {
        case 0: {
          uint8_t v;
          (void)r.ReadU8(&v);
          break;
        }
        case 1: {
          uint64_t v;
          (void)r.ReadU64(&v);
          break;
        }
        case 2: {
          uint64_t v;
          (void)r.ReadVarU64(&v);
          break;
        }
        case 3: {
          double v;
          (void)r.ReadDouble(&v);
          break;
        }
        case 4: {
          std::string s;
          (void)r.ReadString(&s);
          break;
        }
        default: {
          std::vector<uint8_t> b;
          (void)r.ReadBytes(&b);
          break;
        }
      }
    }
  }
  SUCCEED();
}

TEST(FuzzTest, BigUIntReaderSurvivesRandomBytes) {
  Rng rng(0xabcd);
  size_t ok_count = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.UniformU64(48));
    rng.FillBytes(junk.data(), junk.size());
    BinaryReader r(junk);
    BigUInt v;
    if (ReadBigUInt(&r, &v).ok()) ++ok_count;
  }
  // Some random buffers decode (fine); none may crash.
  SUCCEED() << ok_count << " buffers happened to parse";
}

TEST(FuzzTest, BigUIntReaderRejectsHugeLimbClaims) {
  // A length prefix claiming 2^40 limbs must be rejected before allocation.
  BinaryWriter w;
  w.WriteVarU64(1ull << 40);
  BinaryReader r(w.buffer());
  BigUInt v;
  EXPECT_EQ(ReadBigUInt(&r, &v).code(), StatusCode::kSerializationError);
}

TEST(FuzzTest, BigIntReaderSurvivesRandomBytes) {
  Rng rng(0x7777);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.UniformU64(48));
    rng.FillBytes(junk.data(), junk.size());
    BinaryReader r(junk);
    BigInt v;
    (void)ReadBigInt(&r, &v);
  }
  SUCCEED();
}

TEST(FuzzTest, TruncationOfValidPayloadsDetected) {
  // Serialize a valid BigUInt, then truncate at every prefix length: every
  // truncation must fail cleanly (or, for the empty value, stay valid).
  Rng rng(0x9e37);
  BigUInt original = BigUInt::RandomBits(&rng, 300);
  BinaryWriter w;
  WriteBigUInt(&w, original);
  const auto& full = w.buffer();
  for (size_t len = 0; len < full.size(); ++len) {
    std::vector<uint8_t> prefix(full.begin(),
                                full.begin() + static_cast<ptrdiff_t>(len));
    BinaryReader r(prefix);
    BigUInt v;
    Status s = ReadBigUInt(&r, &v);
    if (s.ok()) {
      // A prefix can only parse to a *different* (shorter) value if the
      // length byte itself was cut; it must never reproduce the original.
      EXPECT_NE(v, original) << "truncated parse equals original at " << len;
    }
  }
}

// One structure-aware mutant of corpus[pick]: 1-3 bit flips, a truncation,
// or a splice of one valid encoding's prefix onto another's suffix.
std::vector<uint8_t> Mutate(Rng* rng,
                            const std::vector<std::vector<uint8_t>>& corpus) {
  std::vector<uint8_t> out = corpus[rng->UniformU64(corpus.size())];
  switch (rng->UniformU64(3)) {
    case 0: {
      const uint64_t flips = 1 + rng->UniformU64(3);
      for (uint64_t f = 0; f < flips && !out.empty(); ++f) {
        out[rng->UniformU64(out.size())] ^=
            static_cast<uint8_t>(1u << rng->UniformU64(8));
      }
      break;
    }
    case 1:
      out.resize(rng->UniformU64(out.size() + 1));
      break;
    default: {
      const std::vector<uint8_t>& other =
          corpus[rng->UniformU64(corpus.size())];
      const size_t cut = rng->UniformU64(out.size() + 1);
      const size_t from = rng->UniformU64(other.size() + 1);
      out.resize(cut);
      out.insert(out.end(), other.begin() + static_cast<ptrdiff_t>(from),
                 other.end());
      break;
    }
  }
  return out;
}

constexpr size_t kFuzzUsers = 12;

// Raw records over users [0, 14), past kFuzzUsers, with repeated (user,
// action) pairs whose later copy carries an earlier time.
std::vector<ActionRecord> FuzzRecords(Rng* rng) {
  std::vector<ActionRecord> raw(rng->UniformU64(40));
  for (ActionRecord& r : raw) {
    r = {static_cast<NodeId>(rng->UniformU64(14)),
         static_cast<ActionId>(rng->UniformU64(6)), rng->UniformU64(20)};
  }
  if (!raw.empty()) {
    ActionRecord repeat = raw[rng->UniformU64(raw.size())];
    repeat.time /= 2;
    raw.push_back(repeat);
  }
  return raw;
}

std::vector<Arc> FuzzPairs() {
  std::vector<Arc> pairs;
  for (NodeId i = 0; i < kFuzzUsers; ++i) {
    for (NodeId j = 0; j < kFuzzUsers; ++j) {
      if (i != j) pairs.push_back({i, j});
    }
  }
  return pairs;
}

// A packed log decodes into counter rows exactly when UnpackRecords accepts
// it, and then yields the counters of UnpackRecords + ActionLog.
void ExpectPackedLogAgrees(const std::vector<uint8_t>& packed,
                           const std::vector<Arc>& pairs, size_t mutant) {
  const Protocol4Config cfg;
  auto view = PackedRecords::Open(packed);
  std::vector<ActionRecord> records;
  const Status unpacked = UnpackRecords(packed, &records);
  ASSERT_EQ(view.ok(), unpacked.ok()) << "mutant " << mutant;
  if (!view.ok()) {
    ASSERT_EQ(view.status().code(), StatusCode::kSerializationError)
        << "mutant " << mutant;
    return;
  }
  const UserRows rows(*view, CounterRows(kFuzzUsers, pairs));
  ActionLog log;
  for (const ActionRecord& r : records) log.Add(r);
  ASSERT_EQ(
      ComputeProviderCounterVector(rows, kFuzzUsers, pairs, cfg).ValueOrDie(),
      ComputeProviderCounterVector(log, kFuzzUsers, pairs, cfg).ValueOrDie())
      << "mutant " << mutant;
}

TEST(FuzzTest, MutatedPackedRecordsFailCleanlyOrMatchActionLog) {
  Rng rng(0x9ac4);
  const std::vector<Arc> pairs = FuzzPairs();
  std::vector<std::vector<uint8_t>> corpus;
  for (int k = 0; k < 16; ++k) {
    corpus.push_back(PackRecords(FuzzRecords(&rng)));
  }
  size_t accepted = 0;
  for (size_t mutant = 0; mutant < 3000; ++mutant) {
    const std::vector<uint8_t> packed = Mutate(&rng, corpus);
    ExpectPackedLogAgrees(packed, pairs, mutant);
    if (PackedRecords::Open(packed).ok()) ++accepted;
  }
  // Bit flips inside a record leave a well-formed (different) log: both
  // outcomes must actually occur, or the loop is not testing agreement.
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, 2900u);
}

TEST(FuzzTest, MutatedSessionStatesFailCleanlyOrRoundTrip) {
  Rng rng(0x5e55);
  const std::vector<Arc> pairs = FuzzPairs();
  std::vector<std::vector<uint8_t>> corpus;
  for (size_t k = 0; k < 16; ++k) {
    SessionState state;
    state.Put("exec.log", PackRecords(FuzzRecords(&rng)));
    state.Put("omega", wire::PackArcs(pairs));
    if (k % 2 == 0) state.Put("s" + std::to_string(k), std::vector<uint8_t>(k));
    corpus.push_back(state.Serialize());
  }
  size_t accepted = 0, logs_checked = 0;
  for (size_t mutant = 0; mutant < 3000; ++mutant) {
    const std::vector<uint8_t> buf = Mutate(&rng, corpus);
    auto state = SessionState::Deserialize(buf);
    if (!state.ok()) {
      ASSERT_EQ(state.status().code(), StatusCode::kSerializationError)
          << "mutant " << mutant;
      continue;
    }
    ++accepted;
    // An accepted buffer is a whole state: it re-serializes to a buffer of
    // its computed size that parses back to the same state.
    const std::vector<uint8_t> again = state->Serialize();
    ASSERT_EQ(again.size(), state->SerializedSize()) << "mutant " << mutant;
    ASSERT_EQ(SessionState::Deserialize(again).ValueOrDie().Serialize(), again)
        << "mutant " << mutant;
    if (state->Has("exec.log")) {
      ++logs_checked;
      ExpectPackedLogAgrees(*state->Get("exec.log").ValueOrDie(), pairs, mutant);
    }
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(logs_checked, 100u);
}

TEST(FuzzTest, MutatedRsaKeyCheckpointsFailCleanlyOrDecrypt) {
  // H's checkpointed private key: a mutant either fails to load with
  // SerializationError or is a key RsaDecrypt can run on (it may decrypt
  // to garbage; it must not abort).
  Rng rng(0x45a1);
  std::vector<std::vector<uint8_t>> corpus;
  for (size_t bits : {256u, 512u, 256u, 512u}) {
    corpus.push_back(
        PackRsaPrivateKey(RsaGenerateKeyPair(&rng, bits).ValueOrDie().private_key));
  }
  size_t accepted = 0;
  for (size_t mutant = 0; mutant < 3000; ++mutant) {
    const std::vector<uint8_t> buf = Mutate(&rng, corpus);
    RsaPrivateKey key;
    const Status loaded = UnpackRsaPrivateKey(buf, &key);
    if (!loaded.ok()) {
      ASSERT_EQ(loaded.code(), StatusCode::kSerializationError)
          << "mutant " << mutant;
      continue;
    }
    ++accepted;
    for (const BigUInt& c : {BigUInt(0), BigUInt(1), key.n - BigUInt(1)}) {
      ASSERT_TRUE(RsaDecrypt(key, c).ok()) << "mutant " << mutant;
    }
  }
  // Flips in d and in low bits of the CRT exponents leave a loadable key;
  // flips in n, p or q do not. Both outcomes must occur.
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, 2900u);
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t max_len) {
  std::vector<uint8_t> out(rng->UniformU64(max_len + 1));
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng->UniformU64(256));
  return out;
}

TEST(FuzzTest, MutatedEnvelopesFailCleanlyOrReseal) {
  // Every frame psid and the socket transport read is opened here first.
  Rng rng(0xe7e1);
  std::vector<std::vector<uint8_t>> corpus;
  for (int k = 0; k < 16; ++k) {
    const auto id = static_cast<ProtocolId>(rng.UniformU64(11));
    const auto step = static_cast<uint16_t>(rng.UniformU64(8));
    const auto sender = static_cast<uint32_t>(rng.UniformU64(5));
    const uint64_t seq = rng.UniformU64(1000);
    corpus.push_back(SealEnvelope(id, step, sender, seq, RandomBytes(&rng, 48)));
  }
  size_t accepted = 0;
  for (size_t mutant = 0; mutant < 3000; ++mutant) {
    const std::vector<uint8_t> frame = Mutate(&rng, corpus);
    auto env = OpenEnvelope(frame);
    if (!env.ok()) {
      ASSERT_EQ(env.status().code(), StatusCode::kSerializationError)
          << "mutant " << mutant;
      continue;
    }
    ++accepted;
    // The layout is fixed-width, so an accepted frame reseals to itself.
    const Envelope& e = env.ValueOrDie();
    const auto again = SealEnvelope(e.protocol_id, e.step, e.sender, e.seq, e.payload);
    ASSERT_EQ(again, frame) << "mutant " << mutant;
  }
  // The CRC rejects flips and truncations; only whole-frame splices pass.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 300u);
}

std::vector<wire::ExecRngBlob> FuzzRngBlobs(Rng* rng) {
  std::vector<wire::ExecRngBlob> blobs(rng->UniformU64(3));
  for (size_t i = 0; i < blobs.size(); ++i) {
    blobs[i] = {"rng" + std::to_string(i), RandomBytes(rng, 40)};
  }
  return blobs;
}

TEST(FuzzTest, MutatedExecFramesFailCleanlyOrRoundTrip) {
  // psid decodes requests from the network; the host decodes responses.
  Rng rng(0xe8ec);
  std::vector<std::vector<uint8_t>> requests, responses;
  for (uint32_t k = 0; k < 8; ++k) {
    wire::ExecRequest req;
    req.session = "s" + std::to_string(k);
    req.program = k % 2 == 0 ? "p4/counters" : "p6/encrypt";
    req.stage_index = k;
    req.attempt = 1 + k % 3;
    req.party = k % 4;
    req.includes_state = k % 2 == 0;
    if (req.includes_state) req.state_blob = RandomBytes(&rng, 64);
    req.rng_blobs = FuzzRngBlobs(&rng);
    requests.push_back(wire::PackExecRequest(req));

    wire::ExecResponse resp;
    resp.outcome = static_cast<wire::ExecOutcome>(k % 4);
    resp.message = resp.outcome == wire::ExecOutcome::kOk ? "" : "failed";
    resp.from_cache = k % 3 == 0;
    resp.crypto_ops = rng.UniformU64(1000);
    if (resp.outcome == wire::ExecOutcome::kOk) {
      resp.state_blob = RandomBytes(&rng, 64);
      resp.rng_blobs = FuzzRngBlobs(&rng);
    }
    responses.push_back(wire::PackExecResponse(resp));
  }
  size_t accepted_requests = 0, accepted_responses = 0;
  for (size_t mutant = 0; mutant < 3000; ++mutant) {
    const std::vector<uint8_t> buf = Mutate(&rng, requests);
    wire::ExecRequest req;
    const Status unpacked = wire::UnpackExecRequest(buf, &req);
    if (!unpacked.ok()) {
      ASSERT_EQ(unpacked.code(), StatusCode::kSerializationError)
          << "mutant " << mutant;
      continue;
    }
    ++accepted_requests;
    const std::vector<uint8_t> again = wire::PackExecRequest(req);
    wire::ExecRequest back;
    ASSERT_TRUE(wire::UnpackExecRequest(again, &back).ok()) << "mutant " << mutant;
    ASSERT_EQ(wire::PackExecRequest(back), again) << "mutant " << mutant;
  }
  for (size_t mutant = 0; mutant < 3000; ++mutant) {
    const std::vector<uint8_t> buf = Mutate(&rng, responses);
    wire::ExecResponse resp;
    const Status unpacked = wire::UnpackExecResponse(buf, &resp);
    if (!unpacked.ok()) {
      ASSERT_EQ(unpacked.code(), StatusCode::kSerializationError)
          << "mutant " << mutant;
      continue;
    }
    ++accepted_responses;
    const std::vector<uint8_t> again = wire::PackExecResponse(resp);
    wire::ExecResponse back;
    ASSERT_TRUE(wire::UnpackExecResponse(again, &back).ok()) << "mutant " << mutant;
    ASSERT_EQ(wire::PackExecResponse(back), again) << "mutant " << mutant;
  }
  // Flips inside strings, blobs and fixed-width fields keep a frame
  // well-formed; flips in lengths and tags do not. Both must occur.
  EXPECT_GT(accepted_requests, 100u);
  EXPECT_LT(accepted_requests, 2900u);
  EXPECT_GT(accepted_responses, 100u);
  EXPECT_LT(accepted_responses, 2900u);
}

}  // namespace
}  // namespace psi
