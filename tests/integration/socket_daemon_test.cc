// Loopback-socket recovery sweeps: Protocols 4 and 6 through a forked psid
// daemon that is SIGKILLed and restarted at every round of the protocol.
//
// The acceptance invariants (docs/TRANSPORT.md, docs/FAULTS.md):
//   1. A session whose peer daemon is SIGKILLed mid-RunSession completes
//      with a transcript bitwise identical to the fault-free run — the
//      resume handshake reconnects, resynchronizes (attempt, next_stage)
//      and recomputes nothing that was checkpointed.
//   2. A recovery that needed exactly one resume meters exactly one
//      handshake round, matching SessionResumeCosts to the byte.
//   3. The seeded chaos plans that drive the simulator run unchanged
//      through Network::AttachFaultInjector over sockets, and the chaos
//      invariant holds there too: bitwise-exact result or clean error,
//      with PendingCount() == 0 on every outcome.
//   4. One daemon serves multiple concurrent sessions.
//
// The daemon runs in a forked child so SIGKILL genuinely destroys its
// state (sockets, parsers, queues); the parent's client transport must
// detect the dead wire, back off, re-dial the restarted process on the
// same port, and resume.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/propagation_protocol.h"
#include "mpc/session.h"
#include "net/cost_model.h"
#include "net/daemon.h"
#include "net/fault_injector.h"
#include "net/socket_transport.h"

namespace psi {
namespace {

// Seeds for the socket chaos sweep. Every dropped frame over the wire waits
// out a real receive deadline, so the default is far smaller than the
// simulator sweep's 200; PSI_CHAOS_SEEDS scales it for the CI soak.
uint64_t NumSocketChaosSeeds() {
  const char* env = std::getenv("PSI_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') return 12;
  const uint64_t parsed = std::strtoull(env, nullptr, 10);
  return parsed == 0 ? 12 : parsed / 16 + 2;
}

const uint64_t kNumSocketChaosSeeds = NumSocketChaosSeeds();

// ---------------------------------------------------------------------------
// ForkedDaemon: a psid process the test can SIGKILL.

class ForkedDaemon {
 public:
  explicit ForkedDaemon(uint16_t port = 0) { Spawn(port); }
  ~ForkedDaemon() { Kill(); }
  ForkedDaemon(const ForkedDaemon&) = delete;
  ForkedDaemon& operator=(const ForkedDaemon&) = delete;

  uint16_t port() const { return port_; }

  /// SIGKILL the daemon process: no goodbye frames, no orderly close — the
  /// kernel resets its connections, exactly like a crashed host.
  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  /// Kill (if needed) and start a fresh process on the same port. The
  /// daemon holds no protocol state, so the replacement needs nothing from
  /// its predecessor; SO_REUSEADDR reclaims the port.
  void Restart() {
    Kill();
    Spawn(port_);
  }

 private:
  void Spawn(uint16_t port) {
    PsidConfig config;
    config.hosted_parties = {"P1"};
    PsidDaemon daemon(config);
    // Listen in the parent so the bound (possibly ephemeral) port is known
    // before the child exists; the child inherits the listening socket.
    auto bound = daemon.Listen(port);
    ASSERT_TRUE(bound.ok()) << bound.status().message();
    port_ = bound.ValueOrDie();
    pid_ = fork();
    ASSERT_NE(pid_, -1);
    if (pid_ == 0) {
      // Child: serve until SIGKILL. _exit keeps the parent's gtest/atexit
      // machinery from running twice.
      const Status served = daemon.Run();
      (void)served;
      _exit(0);
    }
    // Parent: the child owns the sockets now.
    daemon.CloseAll();
  }

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Shared world and protocol runners. The world and every RNG seed mirror
// tests/integration/chaos_test.cc, so socket transcripts are directly
// comparable with the simulator sweeps.

struct WorldData {
  size_t m = 0;
  size_t n = 0;
  size_t actions = 0;
  std::unique_ptr<SocialGraph> graph;
  ActionLog log;
  std::vector<ActionLog> provider_logs;
};

WorldData MakeWorldData(size_t m, size_t n, size_t arcs, size_t actions,
                        uint64_t seed) {
  WorldData w;
  w.m = m;
  w.n = n;
  w.actions = actions;
  Rng rng(seed);
  w.graph = std::make_unique<SocialGraph>(
      ErdosRenyiArcs(&rng, n, arcs).ValueOrDie());
  auto truth = GroundTruthInfluence::Random(&rng, *w.graph, 0.1, 0.7);
  CascadeParams params;
  params.num_actions = actions;
  params.seeds_per_action = 2;
  w.log = GenerateCascades(&rng, *w.graph, truth, params).ValueOrDie();
  w.provider_logs = ExclusivePartition(&rng, w.log, m).ValueOrDie();
  return w;
}

struct Parties {
  PartyId host;
  std::vector<PartyId> providers;
};

Parties RegisterParties(Network* net, size_t m) {
  Parties p;
  p.host = net->RegisterParty("H");
  for (size_t k = 0; k < m; ++k) {
    p.providers.push_back(net->RegisterParty("P" + std::to_string(k + 1)));
  }
  return p;
}

SocketTransportConfig FastConfig(const std::string& session) {
  SocketTransportConfig config;
  config.seed = 21;
  config.session_name = session;
  config.recv_timeout_ms = 2000;
  config.connect_timeout_ms = 1000;
  config.handshake_timeout_ms = 1000;
  config.heartbeat_interval_ms = 20;
  config.heartbeat_timeout_ms = 300;
  config.max_reconnect_attempts = 8;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 30;
  return config;
}

// Connects provider P1 to the daemon. Every channel touching P1 then
// crosses the wire through the forked process, and killing it severs those
// channels mid-protocol; the other channels stay in-process, exactly like
// the simulator.
void ConnectP1(SocketNetwork* net, const Parties& parties,
               const ForkedDaemon& daemon) {
  Status connected =
      net->ConnectDaemon("127.0.0.1", daemon.port(), {parties.providers[0]});
  ASSERT_TRUE(connected.ok()) << connected.message();
}

// The protocol runners take pre-registered parties so callers can attach
// daemons between registration and the run. RNG seeds are fixed: any two
// completed runs, on any backend, must agree bitwise.
Result<LinkInfluence> RunP4(const WorldData& w, Network* net,
                            const Parties& parties,
                            const RetryPolicy* retry = nullptr,
                            SessionStats* stats = nullptr) {
  Protocol4Config cfg;
  cfg.h = 4;
  cfg.paillier_bits = 384;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < w.m; ++k) {
    rngs.push_back(std::make_unique<Rng>(1000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(501), pair_secret(502);
  LinkInfluenceProtocol proto(net, parties.host, parties.providers, cfg);
  if (retry == nullptr) {
    return proto.Run(*w.graph, w.actions, w.provider_logs, &host_rng,
                     rng_ptrs, &pair_secret);
  }
  return proto.RunSession(*w.graph, w.actions, w.provider_logs, &host_rng,
                          rng_ptrs, &pair_secret, *retry, stats);
}

Result<Protocol6Output> RunP6(const WorldData& w, Network* net,
                              const Parties& parties,
                              const RetryPolicy* retry = nullptr,
                              SessionStats* stats = nullptr) {
  Protocol6Config cfg;
  cfg.rsa_bits = 384;
  cfg.encryption = Protocol6Config::EncryptionMode::kHybrid;
  cfg.obfuscation_factor = 1.5;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < w.m; ++k) {
    rngs.push_back(std::make_unique<Rng>(2000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(601);
  PropagationGraphProtocol proto(net, parties.host, parties.providers, cfg);
  if (retry == nullptr) {
    return proto.Run(*w.graph, w.actions, w.provider_logs, &host_rng,
                     rng_ptrs);
  }
  return proto.RunSession(*w.graph, w.actions, w.provider_logs, &host_rng,
                          rng_ptrs, *retry, stats);
}

std::vector<std::array<uint64_t, 4>> CanonicalArcs(const Protocol6Output& out) {
  std::vector<std::array<uint64_t, 4>> arcs;
  for (size_t a = 0; a < out.graphs.size(); ++a) {
    for (NodeId v = 0; v < out.graphs[a].num_nodes(); ++v) {
      for (const auto& arc : out.graphs[a].OutArcs(v)) {
        arcs.push_back({a, static_cast<uint64_t>(v),
                        static_cast<uint64_t>(arc.to), arc.delta_t});
      }
    }
  }
  std::sort(arcs.begin(), arcs.end());
  return arcs;
}

void ExpectSameInfluence(const LinkInfluence& got,
                         const LinkInfluence& baseline,
                         const std::string& context) {
  ASSERT_EQ(got.p.size(), baseline.p.size()) << context;
  for (size_t e = 0; e < got.p.size(); ++e) {
    ASSERT_EQ(got.p[e], baseline.p[e]) << context << " arc=" << e;
  }
}

// When a run recovered with exactly one resume, its handshake round must
// meter exactly the analytic SessionResumeCosts — over the wire just as on
// the simulator (transport framing is never protocol metering).
void ExpectOneRoundResumeMetering(Network* net, const SessionStats& stats,
                                  size_t num_parties,
                                  const std::string& context) {
  SessionResumeCostParams p;
  p.num_parties = num_parties;
  auto model = SessionResumeCosts(p).ValueOrDie();
  ASSERT_EQ(model.nr, 1u);
  auto report = net->Report();
  const RoundStats* resume_round = nullptr;
  for (const auto& round : report.rounds) {
    if (round.label.find(".resume") != std::string::npos) {
      ASSERT_EQ(resume_round, nullptr)
          << context << ": two resume rounds for one resume";
      resume_round = &round;
    }
  }
  ASSERT_NE(resume_round, nullptr) << context;
  EXPECT_EQ(resume_round->num_messages, model.nm) << context;
  EXPECT_EQ(resume_round->num_payload_bytes * 8, model.ms_bits) << context;
  EXPECT_EQ(resume_round->num_bytes,
            resume_round->num_payload_bytes +
                model.nm * kEnvelopeOverheadBytes)
      << context;
  EXPECT_EQ(stats.handshake_messages, model.nm) << context;
  EXPECT_EQ(stats.handshake_bytes, resume_round->num_bytes) << context;
}

// ---------------------------------------------------------------------------
// Baseline parity: a clean socket run is metered identically to the
// simulator run, byte for byte — the property that makes every other
// cross-backend comparison in this file meaningful.

TEST(SocketDaemonTest, CleanSocketRunMatchesSimulatorTranscript) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network sim;
  auto baseline = RunP4(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie();
  auto sim_report = sim.Report();

  ForkedDaemon daemon;
  SocketNetwork net(FastConfig("clean-parity"));
  Parties parties = RegisterParties(&net, w.m);
  ConnectP1(&net, parties, daemon);
  auto result = RunP4(w, &net, parties);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ExpectSameInfluence(result.ValueOrDie(), baseline, "clean socket run");

  // Bitwise-identical protocol transcript: same rounds, same message
  // counts, same wire bytes — the socket backend meters nothing extra.
  auto sock_report = net.Report();
  ASSERT_EQ(sock_report.rounds.size(), sim_report.rounds.size());
  for (size_t i = 0; i < sim_report.rounds.size(); ++i) {
    EXPECT_EQ(sock_report.rounds[i].label, sim_report.rounds[i].label);
    EXPECT_EQ(sock_report.rounds[i].num_messages,
              sim_report.rounds[i].num_messages);
    EXPECT_EQ(sock_report.rounds[i].num_bytes,
              sim_report.rounds[i].num_bytes);
    EXPECT_EQ(sock_report.rounds[i].num_payload_bytes,
              sim_report.rounds[i].num_payload_bytes);
  }
  EXPECT_EQ(sock_report.num_bytes, sim_report.num_bytes);
  // But real frames crossed the wire, and every relay was echoed back.
  EXPECT_GT(net.transport_stats().frames_relayed, 0u);
  EXPECT_EQ(net.transport_stats().frames_echoed,
            net.transport_stats().frames_relayed);
  EXPECT_EQ(net.PendingCount(), 0u);
}

// ---------------------------------------------------------------------------
// The SIGKILL sweeps: kill + restart the daemon at every protocol round.

// Counts the protocol's rounds with a clean socket run.
uint64_t CountRounds(const WorldData& w, bool p6) {
  ForkedDaemon daemon;
  SocketNetwork net(FastConfig(p6 ? "count-p6" : "count-p4"));
  Parties parties = RegisterParties(&net, w.m);
  ConnectP1(&net, parties, daemon);
  uint64_t rounds = 0;
  net.SetRoundObserver(
      [&rounds](const std::string&, uint64_t index) { rounds = index + 1; });
  if (p6) {
    if (!RunP6(w, &net, parties).ok()) return 0;
  } else {
    if (!RunP4(w, &net, parties).ok()) return 0;
  }
  return rounds;
}

TEST(SocketDaemonTest, Protocol4SurvivesDaemonSigkillAtEveryRound) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network sim;
  auto baseline = RunP4(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie();
  const uint64_t rounds = CountRounds(w, /*p6=*/false);
  ASSERT_GT(rounds, 2u);

  uint64_t recovered_runs = 0, metered_resumes = 0;
  for (uint64_t kill_at = 1; kill_at < rounds; ++kill_at) {
    ForkedDaemon daemon;
    SocketNetwork net(FastConfig("p4-kill-" + std::to_string(kill_at)));
    Parties parties = RegisterParties(&net, w.m);
    ConnectP1(&net, parties, daemon);
    bool killed = false;
    net.SetRoundObserver([&](const std::string&, uint64_t index) {
      if (index == kill_at && !killed) {
        killed = true;
        // SIGKILL the daemon process and restart it on the same port: the
        // client must detect the dead wire mid-round, fail the attempt
        // cleanly, reconnect with backoff, and resume from checkpoints.
        daemon.Restart();
      }
    });
    RetryPolicy retry;
    retry.max_attempts = 5;
    SessionStats stats;
    auto result = RunP4(w, &net, parties, &retry, &stats);
    ASSERT_TRUE(killed) << "kill_at=" << kill_at
                        << ": observer never fired (round count stale?)";
    ASSERT_EQ(net.PendingCount(), 0u) << "kill_at=" << kill_at;
    ASSERT_EQ(stats.crypto_ops_recomputed, 0u) << "kill_at=" << kill_at;
    ASSERT_TRUE(result.ok())
        << "kill_at=" << kill_at << ": " << result.status().message();
    ExpectSameInfluence(result.ValueOrDie(), baseline,
                        "kill_at=" + std::to_string(kill_at));
    if (stats.resumes > 0) ++recovered_runs;
    if (stats.resumes == 1) {
      ++metered_resumes;
      ExpectOneRoundResumeMetering(&net, stats, w.m + 1,
                                   "kill_at=" + std::to_string(kill_at));
    }
  }
  // The sweep must exercise actual recovery, and at least one position must
  // recover with a single, exactly-metered resume round.
  EXPECT_GT(recovered_runs, 0u);
  EXPECT_GT(metered_resumes, 0u);
}

TEST(SocketDaemonTest, Protocol6SurvivesDaemonSigkillAtEveryRound) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/14, /*arcs=*/40, /*actions=*/8,
                              /*seed=*/88);
  Network sim;
  auto baseline =
      CanonicalArcs(RunP6(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie());
  const uint64_t rounds = CountRounds(w, /*p6=*/true);
  ASSERT_GT(rounds, 2u);

  uint64_t recovered_runs = 0, metered_resumes = 0;
  for (uint64_t kill_at = 1; kill_at < rounds; ++kill_at) {
    ForkedDaemon daemon;
    SocketNetwork net(FastConfig("p6-kill-" + std::to_string(kill_at)));
    Parties parties = RegisterParties(&net, w.m);
    ConnectP1(&net, parties, daemon);
    bool killed = false;
    net.SetRoundObserver([&](const std::string&, uint64_t index) {
      if (index == kill_at && !killed) {
        killed = true;
        daemon.Restart();
      }
    });
    RetryPolicy retry;
    retry.max_attempts = 5;
    SessionStats stats;
    auto result = RunP6(w, &net, parties, &retry, &stats);
    ASSERT_TRUE(killed) << "kill_at=" << kill_at;
    ASSERT_EQ(net.PendingCount(), 0u) << "kill_at=" << kill_at;
    ASSERT_EQ(stats.crypto_ops_recomputed, 0u) << "kill_at=" << kill_at;
    ASSERT_TRUE(result.ok())
        << "kill_at=" << kill_at << ": " << result.status().message();
    ASSERT_EQ(CanonicalArcs(result.ValueOrDie()), baseline)
        << "kill_at=" << kill_at;
    if (stats.resumes > 0) ++recovered_runs;
    if (stats.resumes == 1) {
      ++metered_resumes;
      ExpectOneRoundResumeMetering(&net, stats, w.m + 1,
                                   "kill_at=" + std::to_string(kill_at));
    }
  }
  EXPECT_GT(recovered_runs, 0u);
  EXPECT_GT(metered_resumes, 0u);
}

// ---------------------------------------------------------------------------
// Chaos over sockets: the same seeded plan generator that drives the
// simulator sweeps (chaos_test.cc), attached to the socket transport the
// same way as to the simulator. The chaos invariant must hold over the
// wire: bitwise-exact result or clean error, never a wrong answer, never a
// leaked frame. (Exact per-seed schedule equality with the simulator is
// deliberately not asserted: a loaded machine can stretch an echo past the
// receive deadline, changing retransmission counts without breaking any
// invariant.)

TEST(SocketDaemonTest, ChaosPlansHoldInvariantsOverSockets) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network clean;
  auto baseline = RunP4(w, &clean, RegisterParties(&clean, w.m)).ValueOrDie();
  ForkedDaemon daemon;

  uint64_t ok_runs = 0, failed_runs = 0, faults_injected = 0;
  for (uint64_t seed = 0; seed < kNumSocketChaosSeeds; ++seed) {
    // A short receive deadline keeps dropped-frame waits cheap; a fresh
    // session name per seed keeps a failed run's in-flight frames from
    // leaking into the next run through the shared daemon.
    SocketTransportConfig config =
        FastConfig("chaos-" + std::to_string(seed));
    config.recv_timeout_ms = 150;
    config.heartbeat_timeout_ms = 2000;  // No kills here: be load-tolerant.
    SocketNetwork net(config);
    Parties parties = RegisterParties(&net, w.m);
    ConnectP1(&net, parties, daemon);
    net.AttachFaultInjector(FaultPlan::RandomPlan(seed, w.m + 1));
    auto result = RunP4(w, &net, parties);
    ASSERT_NE(net.fault_stats(), nullptr);
    faults_injected += net.fault_stats()->injected();

    ASSERT_EQ(net.PendingCount(), 0u) << "seed=" << seed;
    if (result.ok()) {
      ++ok_runs;
      ExpectSameInfluence(result.ValueOrDie(), baseline,
                          "seed=" + std::to_string(seed));
    } else {
      ++failed_runs;
      ASSERT_FALSE(result.status().message().empty()) << "seed=" << seed;
    }
  }
  EXPECT_EQ(ok_runs + failed_runs, kNumSocketChaosSeeds);
  // The plans must actually fire over the wire, and some runs must survive
  // their schedules end to end.
  EXPECT_GT(faults_injected, 0u);
  EXPECT_GT(ok_runs, 0u);
}

// ---------------------------------------------------------------------------
// The retransmit log is bounded: a frame's pristine copy leaves it once the
// receiver accepts the frame (or a resume skips past it), so back-to-back
// sessions on one long-lived transport never accumulate frames.

// A psid serving on a thread of this process, like a long-running
// deployment's daemon; Stop() in the destructor ends Run().
class InProcessDaemon {
 public:
  InProcessDaemon() : daemon_(HostP1()) {
    port_ = daemon_.Listen(0).ValueOrDie();
    thread_ = std::thread([this] {
      const Status served = daemon_.Run();
      (void)served;
    });
  }
  ~InProcessDaemon() {
    daemon_.Stop();
    thread_.join();
  }
  InProcessDaemon(const InProcessDaemon&) = delete;
  InProcessDaemon& operator=(const InProcessDaemon&) = delete;

  uint16_t port() const { return port_; }

 private:
  static PsidConfig HostP1() {
    PsidConfig config;
    config.hosted_parties = {"P1"};
    return config;
  }

  PsidDaemon daemon_;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(RetransmitLogTest, EmptyAfterEveryCleanSocketSession) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network sim;
  auto baseline = RunP4(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie();
  InProcessDaemon daemon;
  SocketNetwork net(FastConfig("bounded-log"));
  Parties parties = RegisterParties(&net, w.m);
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {parties.providers[0]}).ok());
  RetryPolicy retry;
  for (int session = 0; session < 4; ++session) {
    const std::string context = "session " + std::to_string(session);
    SessionStats stats;
    auto result = RunP4(w, &net, parties, &retry, &stats);
    ASSERT_TRUE(result.ok()) << context << ": " << result.status().message();
    ExpectSameInfluence(result.ValueOrDie(), baseline, context);
    EXPECT_EQ(net.RetainedFrameCount(), 0u) << context;
    EXPECT_EQ(net.PendingCount(), 0u) << context;
  }
  EXPECT_GT(net.transport_stats().frames_relayed, 0u);
}

TEST(RetransmitLogTest, EmptyAfterEveryCleanFaultedSimulatorSession) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network clean;
  auto baseline = RunP4(w, &clean, RegisterParties(&clean, w.m)).ValueOrDie();
  uint64_t clean_sessions = 0, retransmits_served = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Network net;
    Parties parties = RegisterParties(&net, w.m);
    net.AttachFaultInjector(FaultPlan::RandomPlan(seed, w.m + 1));
    RetryPolicy retry;
    retry.max_attempts = 4;
    for (int session = 0; session < 3; ++session) {
      const std::string context =
          "seed=" + std::to_string(seed) + " session " + std::to_string(session);
      SessionStats stats;
      auto result = RunP4(w, &net, parties, &retry, &stats);
      ASSERT_EQ(net.PendingCount(), 0u) << context;
      if (!result.ok()) continue;  // A permanent crash: nothing is clean.
      ++clean_sessions;
      ExpectSameInfluence(result.ValueOrDie(), baseline, context);
      EXPECT_EQ(net.RetainedFrameCount(), 0u) << context;
    }
    retransmits_served += net.fault_stats()->retransmits_served;
  }
  // The plans must force real retransmissions, and most sessions survive.
  EXPECT_GT(retransmits_served, 0u);
  EXPECT_GT(clean_sessions, 12u * 3 / 2);
}

// ---------------------------------------------------------------------------
// One daemon, many sessions.

TEST(SocketDaemonTest, OneDaemonServesConcurrentSessions) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network sim;
  auto baseline = RunP4(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie();
  ForkedDaemon daemon;

  // Two independent client transports, distinct session names, one daemon
  // process: both protocol runs proceed concurrently on their own threads
  // and both must reproduce the baseline exactly.
  constexpr size_t kSessions = 2;
  std::vector<Result<LinkInfluence>> results(
      kSessions, Result<LinkInfluence>(LinkInfluence{}));
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      SocketNetwork net(FastConfig("concurrent-" + std::to_string(s)));
      Parties parties = RegisterParties(&net, w.m);
      Status connected = net.ConnectDaemon("127.0.0.1", daemon.port(),
                                           {parties.providers[0]});
      if (!connected.ok()) {
        results[s] = Result<LinkInfluence>(connected);
        return;
      }
      results[s] = RunP4(w, &net, parties);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(results[s].ok())
        << "session " << s << ": " << results[s].status().message();
    ExpectSameInfluence(results[s].ValueOrDie(), baseline,
                        "session " + std::to_string(s));
  }
}

}  // namespace
}  // namespace psi
