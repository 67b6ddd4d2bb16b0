// Unit tests for the session/recovery layer (mpc/session.h): durable state
// serialization, blob sharing between live state and checkpoints, retry
// orchestration, RNG rewind, and the crypto-op ledger.

#include "mpc/session.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "common/serialize.h"
#include "graph/generators.h"
#include "mpc/link_influence_protocol.h"

namespace psi {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> v) { return v; }

// SessionStats::checkpoint_bytes of RunP4's clean three-provider run,
// recorded at the commit before capture shared blobs.
constexpr uint64_t kPinnedP4CheckpointBytes = 482596;

TEST(SessionStateTest, PutGetHasClear) {
  SessionState state;
  EXPECT_FALSE(state.Has("omega"));
  EXPECT_EQ(state.NumEntries(), 0u);
  state.Put("omega", Bytes({1, 2, 3}));
  state.Put("masks", Bytes({9}));
  EXPECT_TRUE(state.Has("omega"));
  EXPECT_EQ(state.NumEntries(), 2u);
  // Version, count, then a length byte before each key and each value.
  EXPECT_EQ(state.SerializedSize(), 4u + 1u + (1u + 5u + 1u + 3u) + (1u + 5u + 1u + 1u));
  EXPECT_EQ(*state.Get("omega").ValueOrDie(), Bytes({1, 2, 3}));
  state.Put("omega", Bytes({7}));  // Overwrite.
  EXPECT_EQ(*state.Get("omega").ValueOrDie(), Bytes({7}));
  state.Clear();
  EXPECT_EQ(state.NumEntries(), 0u);
  EXPECT_FALSE(state.Has("omega"));
}

TEST(SessionStateTest, GetMissingKeyIsFailedPrecondition) {
  SessionState state;
  auto result = state.Get("absent");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionStateTest, SerializeRoundTrips) {
  SessionState state;
  state.Put("a", Bytes({}));  // Empty values are legal.
  state.Put("counters", Bytes({0, 255, 128}));
  state.Put("pubkey", std::vector<uint8_t>(300, 0x5a));
  auto restored = SessionState::Deserialize(state.Serialize()).ValueOrDie();
  EXPECT_EQ(restored.NumEntries(), 3u);
  EXPECT_EQ(*restored.Get("a").ValueOrDie(), Bytes({}));
  EXPECT_EQ(*restored.Get("counters").ValueOrDie(), Bytes({0, 255, 128}));
  EXPECT_EQ(*restored.Get("pubkey").ValueOrDie(),
            std::vector<uint8_t>(300, 0x5a));
  // Byte-stable: serializing the restored state reproduces the buffer.
  EXPECT_EQ(restored.Serialize(), state.Serialize());
}

TEST(SessionStateTest, EmptyStateRoundTrips) {
  auto restored = SessionState::Deserialize(SessionState().Serialize());
  EXPECT_EQ(restored.ValueOrDie().NumEntries(), 0u);
}

TEST(SessionStateTest, DeserializeRejectsTruncationAtEveryPrefix) {
  SessionState state;
  state.Put("key", Bytes({1, 2, 3, 4}));
  state.Put("second", Bytes({5}));
  const std::vector<uint8_t> buf = state.Serialize();
  for (size_t len = 0; len < buf.size(); ++len) {
    std::vector<uint8_t> prefix(buf.begin(),
                                buf.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(SessionState::Deserialize(prefix).ok()) << "len=" << len;
  }
}

TEST(SessionStateTest, DeserializeRejectsWrongVersion) {
  SessionState state;
  state.Put("key", Bytes({1}));
  std::vector<uint8_t> buf = state.Serialize();
  buf[0] ^= 0xFF;  // Version is the leading u32.
  auto result = SessionState::Deserialize(buf);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSerializationError);
}

TEST(SessionStateTest, DeserializeRejectsTrailingBytes) {
  SessionState state;
  state.Put("key", Bytes({1}));
  std::vector<uint8_t> buf = state.Serialize();
  buf.push_back(0);
  auto result = SessionState::Deserialize(buf);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSerializationError);
}

TEST(SessionStateTest, DeserializeRejectsDuplicateKeys) {
  BinaryWriter w;
  w.WriteU32(kSessionStateVersion);
  w.WriteVarU64(2);
  w.WriteString("dup");
  w.WriteBytes(Bytes({1}));
  w.WriteString("dup");
  w.WriteBytes(Bytes({2}));
  auto result = SessionState::Deserialize(w.TakeBuffer());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSerializationError);
}

TEST(SessionStateTest, DeserializeRejectsOversizedCount) {
  BinaryWriter w;
  w.WriteU32(kSessionStateVersion);
  w.WriteVarU64(1u << 30);  // Claims a billion entries in a tiny buffer.
  auto result = SessionState::Deserialize(w.TakeBuffer());
  EXPECT_FALSE(result.ok());
}

TEST(SessionStateTest, SerializedSizeIsExact) {
  SessionState state;
  EXPECT_EQ(state.SerializedSize(), state.Serialize().size());
  // Lengths on both sides of the one- and two-byte varint boundaries.
  for (size_t len : {0u, 1u, 127u, 128u, 16383u, 16384u}) {
    state.Put("v" + std::to_string(len), std::vector<uint8_t>(len, 0x33));
    state.Put(std::string(len, 'k'), Bytes({1}));
    EXPECT_EQ(state.SerializedSize(), state.Serialize().size()) << len;
  }
}

TEST(SessionStateTest, CopiesShareBlobsAndIsolateLaterPuts) {
  SessionState live;
  live.Put("log", std::vector<uint8_t>(4096, 0x7e));
  live.Put("x", Bytes({1}));
  const SessionState snapshot = live;
  // The copy references the same immutable blob: no value byte was copied.
  EXPECT_EQ(snapshot.Get("log").ValueOrDie().get(),
            live.Get("log").ValueOrDie().get());
  // A blob handed out by Get survives the key being overwritten.
  const SessionBlob old_x = live.Get("x").ValueOrDie();
  live.Put("x", Bytes({2}));
  live.Put("new", Bytes({3}));
  EXPECT_EQ(*old_x, Bytes({1}));
  EXPECT_EQ(*snapshot.Get("x").ValueOrDie(), Bytes({1}));
  EXPECT_FALSE(snapshot.Has("new"));
  EXPECT_EQ(*live.Get("x").ValueOrDie(), Bytes({2}));
  EXPECT_EQ(snapshot.Serialize().size(), snapshot.SerializedSize());
}

// -- Orchestrator -----------------------------------------------------------

struct TestWorld {
  Network net;
  PartyId alice;
  PartyId bob;
  TestWorld() : alice(net.RegisterParty("A")), bob(net.RegisterParty("B")) {}
};

TEST(SessionOrchestratorTest, RunsAllStagesOnceWhenNothingFails) {
  TestWorld w;
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  int runs = 0;
  session.AddStage("one", [&] {
    ++runs;
    return Status::OK();
  });
  session.AddStage("two", [&] {
    ++runs;
    return Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  EXPECT_EQ(runs, 2);
  const SessionStats& stats = orchestrator.stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.resumes, 0u);
  EXPECT_EQ(stats.stages_run, 2u);
  EXPECT_EQ(stats.stages_resumed, 0u);
  EXPECT_EQ(stats.checkpoints_written, 2u);
  EXPECT_EQ(stats.handshake_messages, 0u);
  EXPECT_EQ(stats.backoff_rounds, 0u);
  EXPECT_EQ(w.net.PendingCount(), 0u);
}

TEST(SessionOrchestratorTest, ResumesOnlyTheFailedStage) {
  TestWorld w;
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  int stage1_runs = 0, stage2_runs = 0;
  session.AddStage("one", [&] {
    ++stage1_runs;
    return Status::OK();
  });
  session.AddStage("two", [&] {
    ++stage2_runs;
    return stage2_runs == 1 ? Status::ProtocolError("transient") : Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  EXPECT_EQ(stage1_runs, 1);  // Resumed from the checkpoint, never replayed.
  EXPECT_EQ(stage2_runs, 2);
  const SessionStats& stats = orchestrator.stats();
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.resumes, 1u);
  EXPECT_EQ(stats.stages_run, 3u);
  EXPECT_EQ(stats.stages_resumed, 1u);
  // Two parties -> two ordered pairs -> two sync frames per handshake.
  EXPECT_EQ(stats.handshake_messages, 2u);
  EXPECT_GT(stats.handshake_bytes, 0u);
  EXPECT_EQ(w.net.PendingCount(), 0u);
}

TEST(SessionOrchestratorTest, ExhaustsAttemptBudgetWithWrappedError) {
  TestWorld w;
  ProtocolSession session("doomed", &w.net, {w.alice, w.bob});
  session.AddStage("always-fails",
                   [&] { return Status::ProtocolError("peer sent garbage"); });
  RetryPolicy retry;
  retry.max_attempts = 2;
  SessionOrchestrator orchestrator(retry);
  Status status = orchestrator.Run(&session);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("doomed"), std::string::npos);
  EXPECT_NE(status.message().find("2 attempt"), std::string::npos);
  EXPECT_NE(status.message().find("peer sent garbage"), std::string::npos);
  EXPECT_EQ(orchestrator.stats().attempts, 2u);
  EXPECT_EQ(w.net.PendingCount(), 0u);
}

TEST(SessionOrchestratorTest, LedgerSavesCheckpointedCryptoOps) {
  TestWorld w;
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  int stage2_runs = 0;
  session.AddStage("expensive", [&] {
    session.MeterCryptoOps(10);
    return Status::OK();
  });
  session.AddStage("flaky", [&] {
    session.MeterCryptoOps(3);
    ++stage2_runs;
    return stage2_runs == 1 ? Status::ProtocolError("transient") : Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  const SessionStats& stats = orchestrator.stats();
  EXPECT_EQ(stats.crypto_ops_total, 10u + 3u + 3u);
  EXPECT_EQ(stats.crypto_ops_saved, 10u);
  EXPECT_EQ(stats.crypto_ops_recomputed, 0u);
}

TEST(SessionOrchestratorTest, FullRestartBaselineRecomputesOps) {
  TestWorld w;
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  int stage2_runs = 0;
  session.AddStage("expensive", [&] {
    session.MeterCryptoOps(10);
    return Status::OK();
  });
  session.AddStage("flaky", [&] {
    ++stage2_runs;
    return stage2_runs == 1 ? Status::ProtocolError("transient") : Status::OK();
  });
  RetryPolicy retry;
  retry.resume_from_checkpoint = false;
  SessionOrchestrator orchestrator(retry);
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  const SessionStats& stats = orchestrator.stats();
  // The retry replays the expensive stage from scratch: its ops are redone.
  EXPECT_EQ(stats.crypto_ops_recomputed, 10u);
  EXPECT_EQ(stats.crypto_ops_saved, 0u);
  EXPECT_EQ(stats.stages_resumed, 0u);
}

TEST(SessionOrchestratorTest, RngRewindReplaysIdenticalDraws) {
  TestWorld w;
  Rng rng(42);
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  session.RegisterRng("shared", &rng);
  uint64_t first_draw = 0, second_draw = 0;
  int runs = 0;
  session.AddStage("one", [&] { return Status::OK(); });
  session.AddStage("draws", [&] {
    ++runs;
    if (runs == 1) {
      first_draw = rng.NextU64();
      return Status::ProtocolError("fail after drawing");
    }
    second_draw = rng.NextU64();
    return Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  // The checkpoint rewound the stream: the replay re-derives the same bits,
  // which is what makes recovered transcripts converge bitwise.
  EXPECT_EQ(second_draw, first_draw);
}

TEST(SessionOrchestratorTest, RestoreDiscardsFailedAttemptStateWrites) {
  TestWorld w;
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  int stage2_runs = 0;
  std::vector<uint8_t> seen_on_replay;
  session.AddStage("writes", [&] {
    session.PartyState(w.alice).Put("x", Bytes({1}));
    return Status::OK();
  });
  session.AddStage("clobbers-then-fails", [&] {
    ++stage2_runs;
    if (stage2_runs == 1) {
      session.PartyState(w.alice).Put("x", Bytes({2}));
      return Status::ProtocolError("fail after clobbering");
    }
    seen_on_replay = *session.PartyState(w.alice).Get("x").ValueOrDie();
    return Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  // The replayed stage sees the checkpointed value, not the failed write.
  EXPECT_EQ(seen_on_replay, Bytes({1}));
}

// Exposes the checkpoint primitives the run loop uses.
class CheckpointProbe : public SessionOrchestrator {
 public:
  CheckpointProbe() : SessionOrchestrator(RetryPolicy{}) {}
  using SessionOrchestrator::Capture;
  using SessionOrchestrator::Checkpoint;
  using SessionOrchestrator::Restore;
};

TEST(SessionOrchestratorTest, PutsAfterCaptureDoNotLeakIntoRestore) {
  TestWorld w;
  Rng rng(5);
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  session.RegisterRng("r", &rng);
  session.PartyState(w.alice).Put("log", std::vector<uint8_t>(4096, 0x7e));
  session.PartyState(w.alice).Put("x", Bytes({1}));
  const uint8_t* log_bytes =
      session.PartyState(w.alice).Get("log").ValueOrDie()->data();

  CheckpointProbe probe;
  const CheckpointProbe::Checkpoint cp = probe.Capture(session, 0, {});
  const uint64_t first_draw = rng.NextU64();
  session.PartyState(w.alice).Put("x", Bytes({2}));    // Overwrite.
  session.PartyState(w.alice).Put("new", Bytes({3}));  // New key.
  session.PartyState(w.bob).Put("y", Bytes({4}));      // Other party.
  session.PartyState(w.alice).Clear();

  ASSERT_TRUE(probe.Restore(session, cp).ok());
  EXPECT_EQ(*session.PartyState(w.alice).Get("x").ValueOrDie(), Bytes({1}));
  EXPECT_FALSE(session.PartyState(w.alice).Has("new"));
  EXPECT_FALSE(session.PartyState(w.bob).Has("y"));
  EXPECT_EQ(session.PartyState(w.alice).NumEntries(), 2u);
  // Capture and restore shared the log's blob; neither copied it.
  EXPECT_EQ(session.PartyState(w.alice).Get("log").ValueOrDie()->data(),
            log_bytes);
  EXPECT_EQ(rng.NextU64(), first_draw);
  // The checkpoint is reusable: a second restore sees the same state.
  session.PartyState(w.alice).Put("x", Bytes({9}));
  ASSERT_TRUE(probe.Restore(session, cp).ok());
  EXPECT_EQ(*session.PartyState(w.alice).Get("x").ValueOrDie(), Bytes({1}));
}

// A small P4 world: m providers over an ER graph with cascaded logs.
struct P4World {
  explicit P4World(size_t m) : rng(7) {
    graph = ErdosRenyiArcs(&rng, 40, 200).ValueOrDie();
    auto truth = GroundTruthInfluence::Random(&rng, graph, 0.1, 0.7);
    CascadeParams params;
    params.num_actions = 60;
    params.seeds_per_action = 2;
    log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
    provider_logs = ExclusivePartition(&rng, log, m).ValueOrDie();
  }

  Rng rng;
  SocialGraph graph{0};
  ActionLog log;
  std::vector<ActionLog> provider_logs;
};

// Runs stages through the base orchestrator, fails stage `fail_at`'s first
// execution after it ran (its state writes and draws are then stale), and
// adds up Serialize().size() of every party state and RNG snapshot at each
// completed stage boundary — what a serializing checkpoint would write.
class SerializingOrchestrator : public SessionOrchestrator {
 public:
  SerializingOrchestrator(RetryPolicy policy, size_t fail_at)
      : SessionOrchestrator(policy), fail_at_(fail_at) {}

  uint64_t serialized_bytes() const { return serialized_bytes_; }

 protected:
  Status RunStage(ProtocolSession* session, size_t index) override {
    PSI_RETURN_NOT_OK(SessionOrchestrator::RunStage(session, index));
    if (index == fail_at_ && !failed_) {
      failed_ = true;
      return Status::ProtocolError("injected failure after the stage ran");
    }
    for (PartyId party : session->parties()) {
      serialized_bytes_ += session->PartyState(party).Serialize().size();
    }
    for (const std::string& label : session->rng_labels()) {
      serialized_bytes_ += session->RngByLabel(label)->SaveState().size();
    }
    return Status::OK();
  }

 private:
  size_t fail_at_;
  bool failed_ = false;
  uint64_t serialized_bytes_ = 0;
};

struct P4Run {
  LinkInfluence result;
  SessionStats stats;
  uint64_t serialized_bytes = 0;
};

P4Run RunP4(const P4World& world, size_t m, size_t fail_at) {
  Network net;
  const PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < m; ++k) {
    providers.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
    rngs.push_back(std::make_unique<Rng>(700 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(8), pair_secret(9);
  LinkInfluenceProtocol proto(&net, host, providers, Protocol4Config{});
  RetryPolicy retry;
  SerializingOrchestrator orchestrator(retry, fail_at);
  P4Run run;
  run.result = proto.RunSession(world.graph, 60, world.provider_logs,
                                &host_rng, rng_ptrs, &pair_secret, retry,
                                &run.stats, {}, &orchestrator)
                   .ValueOrDie();
  run.serialized_bytes = orchestrator.serialized_bytes();
  EXPECT_EQ(net.PendingCount(), 0u);
  return run;
}

TEST(SessionOrchestratorTest, P4CheckpointBytesEqualSerializedSizes) {
  P4World world(3);
  const P4Run run = RunP4(world, 3, /*fail_at=*/SIZE_MAX);
  EXPECT_EQ(run.stats.attempts, 1u);
  EXPECT_EQ(run.stats.checkpoint_bytes, run.serialized_bytes);
  // Recorded when checkpoints were still serialized at capture: sharing
  // blobs changed what capture costs, not what it reports.
  EXPECT_EQ(run.stats.checkpoint_bytes, kPinnedP4CheckpointBytes);
}

TEST(SessionOrchestratorTest, P4ResumesEveryStageWithOneHandshakeRound) {
  constexpr size_t kProviders = 3;
  P4World world(kProviders);
  const P4Run clean = RunP4(world, kProviders, /*fail_at=*/SIZE_MAX);
  ASSERT_GT(clean.stats.stages_run, kProviders + 1);
  for (size_t k = 0; k < clean.stats.stages_run; ++k) {
    const P4Run resumed = RunP4(world, kProviders, k);
    EXPECT_EQ(resumed.stats.attempts, 2u) << "stage " << k;
    EXPECT_EQ(resumed.stats.resumes, 1u) << "stage " << k;
    EXPECT_EQ(resumed.stats.stages_resumed, k) << "stage " << k;
    // One handshake round: one sync frame per ordered pair of parties.
    EXPECT_EQ(resumed.stats.handshake_messages,
              (kProviders + 1) * kProviders)
        << "stage " << k;
    EXPECT_EQ(resumed.stats.crypto_ops_recomputed, 0u) << "stage " << k;
    // The replay starts from the checkpoint, not from the failed attempt's
    // writes, so the result and the checkpoint volume match the clean run.
    EXPECT_EQ(resumed.result.p, clean.result.p) << "stage " << k;
    EXPECT_EQ(resumed.stats.checkpoint_bytes, clean.stats.checkpoint_bytes)
        << "stage " << k;
    EXPECT_EQ(resumed.stats.checkpoint_bytes, resumed.serialized_bytes)
        << "stage " << k;
  }
}

TEST(SessionOrchestratorTest, BackoffScheduleIsDeterministic) {
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_jitter_rounds = 3;
  uint64_t first_backoff = 0;
  for (int run = 0; run < 2; ++run) {
    TestWorld w;
    ProtocolSession session("t", &w.net, {w.alice, w.bob});
    session.AddStage("always-fails",
                     [&] { return Status::ProtocolError("down"); });
    SessionOrchestrator orchestrator(retry);
    EXPECT_FALSE(orchestrator.Run(&session).ok());
    if (run == 0) {
      first_backoff = orchestrator.stats().backoff_rounds;
    } else {
      EXPECT_EQ(orchestrator.stats().backoff_rounds, first_backoff);
    }
  }
  // 3 retries with base 1, cap 8: deterministic 1+2+4 plus seeded jitter.
  EXPECT_GE(first_backoff, 7u);
  EXPECT_LE(first_backoff, 7u + 3u * 3u);
}

TEST(SessionOrchestratorTest, RejectsDegenerateSessions) {
  TestWorld w;
  SessionOrchestrator orchestrator(RetryPolicy{});
  EXPECT_FALSE(orchestrator.Run(nullptr).ok());

  ProtocolSession no_stages("t", &w.net, {w.alice, w.bob});
  EXPECT_FALSE(orchestrator.Run(&no_stages).ok());

  ProtocolSession one_party("t", &w.net, {w.alice});
  one_party.AddStage("s", [] { return Status::OK(); });
  EXPECT_FALSE(orchestrator.Run(&one_party).ok());

  RetryPolicy zero_attempts;
  zero_attempts.max_attempts = 0;
  SessionOrchestrator rejecting(zero_attempts);
  ProtocolSession fine("t", &w.net, {w.alice, w.bob});
  fine.AddStage("s", [] { return Status::OK(); });
  EXPECT_FALSE(rejecting.Run(&fine).ok());
}

}  // namespace
}  // namespace psi
