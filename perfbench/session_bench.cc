// psi_perfbench: closed-loop benchmark of whole checkpointed P4/P6 sessions.
//
//   psi_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--commit <id>]
//
// One driver thread runs sessions back to back (RunSession) for --seconds
// and checks every output against the plaintext baseline. --trace 0 prints
// the end-to-end metrics; --trace 1 interleaves traced and untraced
// sessions and prints the per-layer metrics, measured from this file by
// timing calls into public entry points (stage and round observers, an
// orchestrator subclass that times RunStage, the stats structs, and direct
// timed calls into actionlog/crypto/thread_pool). README.md in this
// directory lists every metric and the layer it belongs to.
//
// Output: a {"context": ...} line stamping the run context, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}. Deterministic
// cross-checks (cost model, backend parity, exact repeats) that fail make
// the run exit 1 with "correct": false.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "actionlog/generator.h"
#include "bigint/limb_kernel.h"
#include "common/thread_pool.h"
#include "crypto/rsa.h"
#include "graph/generators.h"
#include "influence/link_influence.h"
#include "influence/user_score.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/propagation_protocol.h"
#include "mpc/remote_exec.h"
#include "mpc/session.h"
#include "net/cost_model.h"
#include "net/daemon.h"
#include "net/envelope.h"
#include "net/network.h"
#include "net/socket_transport.h"

namespace psi {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start, Clock::time_point end = Clock::now()) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// CPU time of every thread of this process (pool workers and the
/// in-process daemon included), in ms.
double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double RusageCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Quantile by the nearest-rank rule on a copy of `v` (0 for empty input).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of RNG stream `stream` of session `index` under workload seed `seed`.
uint64_t SessionSeed(uint64_t seed, uint64_t index, uint64_t stream) {
  return Mix(Mix(Mix(seed) ^ index) ^ stream);
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Protocol { kP4, kP6 };

struct Workload {
  const char* name;
  Protocol protocol;
  bool remote;  // SocketNetwork + in-process psid with a StageExecutor.
  size_t m, n, arcs, actions;
  uint64_t h;       // P4 memory window.
  double c;         // Obfuscation factor.
  double p_lo, p_hi;  // Range of the ground-truth arc influence p_ij.
  size_t rsa_bits;  // P6 key size; the size the crypto probes time.
};

constexpr Workload kWorkloads[] = {
    // P6's small graph uses stronger influence so its cascades saturate
    // instead of dying out on some seeds: the log size, and with it the
    // set-up time, then barely depends on the seed.
    {"p4_secure_sum", Protocol::kP4, false, 3, 1000, 5000, 200, 4, 2.0,
     0.05, 0.6, 512},
    {"p6_per_integer", Protocol::kP6, false, 3, 50, 200, 12, 4, 2.0, 0.3, 0.9,
     512},
    {"p4_remote", Protocol::kP4, true, 3, 1000, 5000, 200, 4, 2.0, 0.05, 0.6,
     512},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// The per-layer metric universe: every workload prints all of it, with 0
// for stages and rounds its protocol does not have.
const char* const kStages[] = {"omega",  "counters",      "aggregate",
                               "masks",  "masked-shares", "recombine",
                               "keygen", "encrypt",       "relay",
                               "decode"};
const char* const kRounds[] = {
    "p4.step2",       "p4.prot1_step2", "p4.prot1_step4", "p4.prot2_steps3-4",
    "p4.prot2_step6", "p4.step5",       "p4.step6",       "p4.steps7-8",
    "p6.step2",       "p6.step3",       "p6.steps4-9",    "p6.step10"};

/// "counters-P2" -> "counters": per-provider stages are summed.
std::string StageKey(const std::string& stage) {
  const size_t dash = stage.rfind("-P");
  if (dash != std::string::npos && dash + 2 < stage.size() &&
      stage.find_first_not_of("0123456789", dash + 2) == std::string::npos) {
    return stage.substr(0, dash);
  }
  return stage;
}

/// "P4.Prot1.Step2 (pairwise shares)" -> "p4.prot1_step2".
std::string RoundKey(const std::string& label) {
  std::string head = label.substr(0, label.find(" ("));
  bool seen_dot = false;
  for (char& ch : head) {
    if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
    if (ch == '.') {
      if (seen_dot) ch = '_';
      seen_dot = true;
    }
  }
  return head;
}

// ---------------------------------------------------------------------------
// World: generated inputs plus the plaintext baseline.

using CanonicalArcs = std::vector<std::array<uint64_t, 4>>;

CanonicalArcs Canonicalize(const std::vector<PropagationGraph>& graphs) {
  CanonicalArcs out;
  for (size_t a = 0; a < graphs.size(); ++a) {
    for (NodeId v = 0; v < graphs[a].num_nodes(); ++v) {
      for (const auto& arc : graphs[a].OutArcs(v)) {
        out.push_back({a, static_cast<uint64_t>(v),
                       static_cast<uint64_t>(arc.to), arc.delta_t});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct World {
  std::unique_ptr<SocialGraph> graph;
  ActionLog log;
  std::vector<ActionLog> provider_logs;
  std::vector<uint64_t> actions_per_provider;  // A_k of Table 2.
  LinkInfluence p4_baseline;                    // ComputeLinkInfluence.
  CanonicalArcs p6_baseline;                    // BuildPropagationGraph.
};

Result<World> MakeWorld(const Workload& wl, uint64_t seed) {
  World w;
  Rng rng(Mix(seed));
  PSI_ASSIGN_OR_RETURN(auto graph, ErdosRenyiArcs(&rng, wl.n, wl.arcs));
  w.graph = std::make_unique<SocialGraph>(std::move(graph));
  auto truth = GroundTruthInfluence::Random(&rng, *w.graph, wl.p_lo, wl.p_hi);
  CascadeParams params;
  params.num_actions = wl.actions;
  params.seeds_per_action = 2;
  PSI_ASSIGN_OR_RETURN(w.log, GenerateCascades(&rng, *w.graph, truth, params));
  // Exclusive partition with |A|/m actions per provider, dealt from a
  // seeded shuffle: the per-provider action counts (and with them P6's
  // relay bytes) stay fixed across seeds.
  std::vector<size_t> owner(wl.actions);
  const std::vector<size_t> order = rng.Permutation(wl.actions);
  for (size_t i = 0; i < wl.actions; ++i) owner[order[i]] = i % wl.m;
  w.provider_logs.assign(wl.m, ActionLog());
  std::vector<std::vector<bool>> performs(wl.m,
                                          std::vector<bool>(wl.actions));
  for (const auto& rec : w.log.records()) {
    w.provider_logs[owner[rec.action]].Add(rec);
    performs[owner[rec.action]][rec.action] = true;
  }
  for (const auto& row : performs) {
    w.actions_per_provider.push_back(
        static_cast<uint64_t>(std::count(row.begin(), row.end(), true)));
  }
  if (wl.protocol == Protocol::kP4) {
    PSI_ASSIGN_OR_RETURN(w.p4_baseline,
                         ComputeLinkInfluence(w.log, w.graph->arcs(), wl.n,
                                              wl.h));
  } else {
    std::vector<PropagationGraph> graphs;
    for (size_t a = 0; a < wl.actions; ++a) {
      PSI_ASSIGN_OR_RETURN(
          auto pg, BuildPropagationGraph(*w.graph, w.log,
                                         static_cast<ActionId>(a)));
      graphs.push_back(std::move(pg));
    }
    w.p6_baseline = Canonicalize(graphs);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Backends: the simulator, or a SocketNetwork through one in-process psid.

/// An in-process psid daemon with a StageExecutor, served on its own thread.
/// The thread pumps Poll() under an atomic stop flag instead of calling
/// Run(): PsidDaemon::Stop() sets a plain bool that Run() reads, which the
/// thread sanitizer reports as a data race.
class DaemonThread {
 public:
  DaemonThread() {
    RegisterLinkInfluenceStagePrograms();
    RegisterPropagationStagePrograms();
    PsidConfig config;
    config.hosted_parties = {"P1", "P2", "P3"};
    config.exec_handler = executor_.Handler();
    daemon_ = std::make_unique<PsidDaemon>(config);
    auto port = daemon_->Listen(0);
    if (!port.ok()) {
      listen_error_ = port.status().message();
      return;
    }
    port_ = port.ValueOrDie();
    thread_ = std::thread([this, grace_ms = config.drain_grace_ms] {
      while (!stop_.load() && daemon_->Poll(20).ok()) {
      }
      daemon_->Drain(grace_ms);
    });
  }
  ~DaemonThread() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  uint16_t port() const { return port_; }
  const std::string& listen_error() const { return listen_error_; }

 private:
  StageExecutor executor_;  // Outlives the serving thread.
  std::unique_ptr<PsidDaemon> daemon_;
  std::string listen_error_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Declared last: joined before the members it uses.
};

struct Backend {
  std::unique_ptr<DaemonThread> daemon;  // Declared first: outlives net.
  std::unique_ptr<Network> net;
  SocketNetwork* socket = nullptr;  // Same object as net when remote.
  PartyId host = 0;
  std::vector<PartyId> providers;
};

Result<std::unique_ptr<Backend>> MakeBackend(const Workload& wl, bool remote) {
  auto b = std::make_unique<Backend>();
  if (remote) {
    b->daemon = std::make_unique<DaemonThread>();
    if (!b->daemon->listen_error().empty()) {
      return Status::Internal("psid listen: " + b->daemon->listen_error());
    }
    SocketTransportConfig config;
    config.seed = 31;
    config.session_name = "perfbench";
    config.recv_timeout_ms = 10000;
    // Heartbeat spacing longer than any session keeps wall-clock-dependent
    // probes out of the measured window.
    config.heartbeat_interval_ms = 5000;
    config.heartbeat_timeout_ms = 30000;
    auto socket = std::make_unique<SocketNetwork>(config);
    b->socket = socket.get();
    b->net = std::move(socket);
  } else {
    b->net = std::make_unique<Network>();
  }
  b->host = b->net->RegisterParty("H");
  for (size_t k = 0; k < wl.m; ++k) {
    b->providers.push_back(b->net->RegisterParty("P" + std::to_string(k + 1)));
  }
  if (remote) {
    PSI_RETURN_NOT_OK(b->socket->ConnectDaemon("127.0.0.1", b->daemon->port(),
                                               b->providers));
  }
  return b;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around public entry points, one session at a time.

/// Stage, checkpoint-gap and round spans of the sessions traced so far.
class SessionTrace {
 public:
  void StartSession() {
    in_gap_ = false;
    round_open_ = false;
  }
  /// Stage observer: runs just before a stage. Closes the checkpoint gap
  /// opened when the previous stage's RunStage returned.
  void OnStageObserved() {
    if (in_gap_) checkpoint_ms_ += MsSince(gap_start_);
    in_gap_ = false;
  }
  void BeginStage(const std::string& name) {
    stage_ = StageKey(name);
    stage_start_ = Clock::now();
    stage_cpu_start_ = ProcessCpuMs();
  }
  void EndStage() {
    const Clock::time_point now = Clock::now();
    stage_ms_[stage_] += MsSince(stage_start_, now);
    stage_cpu_ms_[stage_] += ProcessCpuMs() - stage_cpu_start_;
    in_gap_ = true;
    gap_start_ = now;
  }
  /// Round observer: a round span runs from its BeginRound to the next one.
  void OnRound(const std::string& label) {
    const Clock::time_point now = Clock::now();
    CloseRound(now);
    round_ = RoundKey(label);
    round_start_ = now;
    round_open_ = true;
  }
  /// Ends the session: the last round closes here; the time after the last
  /// stage (final capture, output assembly) stays unattributed.
  void EndSession() {
    CloseRound(Clock::now());
    in_gap_ = false;
  }

  const std::map<std::string, double>& stage_ms() const { return stage_ms_; }
  const std::map<std::string, double>& stage_cpu_ms() const {
    return stage_cpu_ms_;
  }
  const std::map<std::string, double>& round_ms() const { return round_ms_; }
  double checkpoint_ms() const { return checkpoint_ms_; }

 private:
  void CloseRound(Clock::time_point now) {
    if (round_open_) round_ms_[round_] += MsSince(round_start_, now);
    round_open_ = false;
  }

  std::map<std::string, double> stage_ms_, stage_cpu_ms_, round_ms_;
  double checkpoint_ms_ = 0.0;
  std::string stage_, round_;
  Clock::time_point stage_start_, gap_start_, round_start_;
  double stage_cpu_start_ = 0.0;
  bool in_gap_ = false;
  bool round_open_ = false;
};

/// Times every stage through the RunStage extension point (calling the
/// base implementation) and marks stage starts through the stage observer.
template <typename Base>
class TimedOrchestrator final : public Base {
 public:
  template <typename... Args>
  explicit TimedOrchestrator(SessionTrace* trace, Args&&... args)
      : Base(std::forward<Args>(args)...), trace_(trace) {
    this->SetStageObserver(
        [trace](uint32_t, const std::string&) { trace->OnStageObserved(); });
  }

 protected:
  Status RunStage(ProtocolSession* session, size_t index) override {
    trace_->BeginStage(session->stage_name(index));
    Status status = Base::RunStage(session, index);
    trace_->EndStage();
    return status;
  }

 private:
  SessionTrace* trace_;
};

// ---------------------------------------------------------------------------
// One session.

struct Outcome {
  bool correct = false;  // Completed and equal to the plaintext baseline.
  std::string error;     // Why not, when !correct.
  double wall_ms = 0.0;
  TrafficReport traffic;
  SessionStats stats;
  RemoteExecStats exec;
  std::string model_mismatch;  // Non-empty when counts leave the cost model.
  std::vector<Arc> omega;      // The session's Omega_E'.
};

RetryPolicy SessionRetry() {
  RetryPolicy retry;
  retry.max_attempts = 1;  // Fault-free runs: a failure is counted, not hidden.
  return retry;
}

RemoteExecPolicy ExecPolicy() {
  RemoteExecPolicy exec;
  exec.stage_deadline_ms = 20000;
  return exec;
}

std::unique_ptr<SessionOrchestrator> MakeOrchestrator(bool remote,
                                                      SessionTrace* trace) {
  if (remote) {
    if (trace != nullptr) {
      return std::make_unique<TimedOrchestrator<RemoteSessionOrchestrator>>(
          trace, SessionRetry(), ExecPolicy());
    }
    return std::make_unique<RemoteSessionOrchestrator>(SessionRetry(),
                                                       ExecPolicy());
  }
  if (trace != nullptr) {
    return std::make_unique<TimedOrchestrator<SessionOrchestrator>>(
        trace, SessionRetry());
  }
  return std::make_unique<SessionOrchestrator>(SessionRetry());
}

/// Rounds and messages must equal the analytic model row by row, and every
/// message must carry exactly the fixed envelope overhead on its payload.
std::string CheckAgainstModel(const TrafficReport& t, const CostSummary& model) {
  std::string err;
  if (t.num_rounds != model.nr) {
    err += " rounds " + std::to_string(t.num_rounds) + " != model " +
           std::to_string(model.nr) + ";";
  }
  if (t.num_messages != model.nm) {
    err += " messages " + std::to_string(t.num_messages) + " != model " +
           std::to_string(model.nm) + ";";
  }
  if (t.rounds.size() == model.rows.size()) {
    for (size_t i = 0; i < t.rounds.size(); ++i) {
      if (t.rounds[i].num_messages != model.rows[i].num_messages) {
        err += " round '" + t.rounds[i].label + "' messages differ;";
      }
    }
  }
  if (t.num_bytes !=
      t.num_payload_bytes + model.nm * kEnvelopeOverheadBytes) {
    err += " wire bytes != payload + " +
           std::to_string(kEnvelopeOverheadBytes) + " x NM;";
  }
  return err;
}

class SessionRunner {
 public:
  SessionRunner(const Workload& wl, const World& world, uint64_t seed,
                Backend* backend)
      : wl_(wl), world_(world), seed_(seed), backend_(backend) {}

  /// Runs session `index` (its RNGs seeded from (seed, index)); traced
  /// when `trace` is non-null.
  Outcome Run(uint64_t index, SessionTrace* trace) {
    Outcome out;
    Network* net = backend_->net.get();
    Rng host_rng(SessionSeed(seed_, index, 1));
    Rng pair_secret(SessionSeed(seed_, index, 2));
    std::vector<std::unique_ptr<Rng>> rngs;
    std::vector<Rng*> rng_ptrs;
    for (size_t k = 0; k < wl_.m; ++k) {
      rngs.push_back(std::make_unique<Rng>(SessionSeed(seed_, index, 10 + k)));
      rng_ptrs.push_back(rngs.back().get());
    }
    auto orchestrator = MakeOrchestrator(wl_.remote, trace);
    if (trace != nullptr) {
      trace->StartSession();
      net->SetRoundObserver([trace](const std::string& label, uint64_t) {
        trace->OnRound(label);
      });
    }
    if (wl_.protocol == Protocol::kP4) {
      RunP4(net, &host_rng, rng_ptrs, &pair_secret, orchestrator.get(), trace,
            &out);
    } else {
      RunP6(net, &host_rng, rng_ptrs, orchestrator.get(), trace, &out);
    }
    if (trace != nullptr) net->SetRoundObserver(nullptr);
    if (wl_.remote) {
      out.exec = static_cast<RemoteSessionOrchestrator*>(orchestrator.get())
                     ->exec_stats();
    }
    out.traffic = net->Report();
    if (!net->ResetMetering().ok()) {
      (void)net->DrainAll();
      if (!net->ResetMetering().ok() && out.correct) {
        out.correct = false;
        out.error = "metering could not be reset";
      }
    }
    return out;
  }

 private:
  void RunP4(Network* net, Rng* host_rng, const std::vector<Rng*>& rngs,
             Rng* pair_secret, SessionOrchestrator* orch, SessionTrace* trace,
             Outcome* out) {
    Protocol4Config cfg;
    cfg.h = wl_.h;
    cfg.obfuscation_factor = wl_.c;
    cfg.aggregation = P4Aggregation::kSecureSum;
    LinkInfluenceProtocol proto(net, backend_->host, backend_->providers, cfg);
    const Clock::time_point start = Clock::now();
    auto result = proto.RunSession(*world_.graph, wl_.actions,
                                   world_.provider_logs, host_rng, rngs,
                                   pair_secret, SessionRetry(), &out->stats,
                                   {}, orch);
    out->wall_ms = MsSince(start);
    if (trace != nullptr) trace->EndSession();
    out->omega = proto.views().omega;
    if (!result.ok()) {
      out->error = result.status().message();
      return;
    }
    const LinkInfluence& got = result.ValueOrDie();
    const LinkInfluence& want = world_.p4_baseline;
    out->correct = got.pairs.size() == want.pairs.size() &&
                   got.p.size() == want.p.size();
    for (size_t e = 0; out->correct && e < got.p.size(); ++e) {
      out->correct = got.pairs[e].from == want.pairs[e].from &&
                     got.pairs[e].to == want.pairs[e].to &&
                     got.p[e] == want.p[e];
    }
    if (!out->correct) out->error = "p_ij differs from ComputeLinkInfluence";
    Protocol4CostParams params;
    params.m = wl_.m;
    params.n = wl_.n;
    params.q = proto.views().omega.size();
    params.log_s = proto.modulus().BitLength();
    auto model = Protocol4Costs(params);
    out->model_mismatch = model.ok() ? CheckAgainstModel(net->Report(),
                                                         model.ValueOrDie())
                                     : model.status().message();
  }

  void RunP6(Network* net, Rng* host_rng, const std::vector<Rng*>& rngs,
             SessionOrchestrator* orch, SessionTrace* trace, Outcome* out) {
    Protocol6Config cfg;
    cfg.rsa_bits = wl_.rsa_bits;
    cfg.obfuscation_factor = wl_.c;
    cfg.encryption = Protocol6Config::EncryptionMode::kPerInteger;
    PropagationGraphProtocol proto(net, backend_->host, backend_->providers,
                                   cfg);
    const Clock::time_point start = Clock::now();
    auto result = proto.RunSession(*world_.graph, wl_.actions,
                                   world_.provider_logs, host_rng, rngs,
                                   SessionRetry(), &out->stats, orch);
    out->wall_ms = MsSince(start);
    if (trace != nullptr) trace->EndSession();
    out->omega = proto.views().omega;
    if (!result.ok()) {
      out->error = result.status().message();
      return;
    }
    out->correct = Canonicalize(result.ValueOrDie().graphs) ==
                   world_.p6_baseline;
    if (!out->correct) out->error = "arcs differ from BuildPropagationGraph";
    // Table 2 sizes: z = ciphertext bits, kappa = public-key bits. The
    // model check covers rounds, messages and the envelope overhead.
    Protocol6CostParams params;
    params.m = wl_.m;
    params.q = proto.views().omega.size();
    params.z = wl_.rsa_bits;
    params.kappa = 2 * wl_.rsa_bits;
    params.actions_per_provider = world_.actions_per_provider;
    auto model = Protocol6Costs(params);
    out->model_mismatch = model.ok() ? CheckAgainstModel(net->Report(),
                                                         model.ValueOrDie())
                                     : model.status().message();
  }

  const Workload& wl_;
  const World& world_;
  uint64_t seed_;
  Backend* backend_;
};

/// Per-round (label, messages, wire bytes, payload bytes): the
/// deterministic part of a session's metering.
std::string Transcript(const TrafficReport& t) {
  std::string s;
  for (const RoundStats& r : t.rounds) {
    s += r.label + ":" + std::to_string(r.num_messages) + "/" +
         std::to_string(r.num_bytes) + "/" +
         std::to_string(r.num_payload_bytes) + ";";
  }
  return s;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Output.

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

// ---------------------------------------------------------------------------
// Layer probes of the traced run: direct timed calls into public entry points.

struct Probes {
  double counter_vector_ms = 0.0;
  double rsa_keygen_ms = 0.0;
  double rsa_encrypt_us = 0.0;
  double rsa_decrypt_us = 0.0;
  double pool_dispatch_us = 0.0;
};

Result<Probes> RunProbes(const Workload& wl, const World& world,
                         const std::vector<Arc>& omega, uint64_t seed) {
  Probes p;
  Protocol4Config cfg;
  cfg.h = wl.h;
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    for (const ActionLog& plog : world.provider_logs) {
      const Clock::time_point start = Clock::now();
      PSI_ASSIGN_OR_RETURN(auto counters, ComputeProviderCounterVector(
                                              plog, wl.n, omega, cfg));
      samples.push_back(MsSince(start));
      if (counters.size() != wl.n + omega.size()) {
        return Status::Internal("counter vector has the wrong length");
      }
    }
  }
  p.counter_vector_ms = Quantile(samples, 0.5);

  Rng rng(SessionSeed(seed, 0, 99));
  samples.clear();
  RsaKeyPair keys;
  for (int rep = 0; rep < 7; ++rep) {
    const Clock::time_point start = Clock::now();
    PSI_ASSIGN_OR_RETURN(keys, RsaGenerateKeyPair(&rng, wl.rsa_bits));
    samples.push_back(MsSince(start));
  }
  p.rsa_keygen_ms = Quantile(samples, 0.5);

  std::vector<double> enc, dec;
  for (int rep = 0; rep < 200; ++rep) {
    const BigUInt msg = BigUInt::RandomBelow(&rng, keys.public_key.n);
    Clock::time_point start = Clock::now();
    PSI_ASSIGN_OR_RETURN(BigUInt c, RsaEncrypt(keys.public_key, msg));
    enc.push_back(MsSince(start) * 1e3);
    start = Clock::now();
    PSI_ASSIGN_OR_RETURN(BigUInt back, RsaDecrypt(keys.private_key, c));
    dec.push_back(MsSince(start) * 1e3);
    if (back != msg) return Status::Internal("RSA round trip mismatch");
  }
  p.rsa_encrypt_us = Quantile(enc, 0.5);
  p.rsa_decrypt_us = Quantile(dec, 0.5);

  const size_t threads = ThreadPool::Global().num_threads();
  samples.clear();
  for (int rep = 0; rep < 2001; ++rep) {
    const Clock::time_point start = Clock::now();
    ParallelFor(threads, [](size_t) {});
    samples.push_back(MsSince(start) * 1e3);
  }
  p.pool_dispatch_us = Quantile(samples, 0.5);
  return p;
}

// ---------------------------------------------------------------------------

// Set-up repeats: at least kMinSetupRepeats, more while the repeats have
// taken under kSetupBudgetS, so a sub-millisecond set-up still yields a
// steady median.
constexpr int kMinSetupRepeats = 5;
constexpr int kMaxSetupRepeats = 1000;
constexpr double kSetupBudgetS = 1.0;

struct Prepared {
  World world;
  std::unique_ptr<Backend> backend;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: psi_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <id>]\n");
    return 2;
  }
  const Workload* wl_ptr = FindWorkload(args.workload);
  if (wl_ptr == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& wl = *wl_ptr;
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to time a build without NDEBUG (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  const char* threads_env = std::getenv("PSI_THREADS");
  const size_t pool_threads = ThreadPool::Global().num_threads();
  if (threads_env == nullptr ||
      std::to_string(pool_threads) != std::string(threads_env)) {
    std::fprintf(stderr, "PSI_THREADS must be set (pool has %zu threads)\n",
                 pool_threads);
    return 2;
  }

  // --- Set-up, repeated; the median is setup_s. ---------------------------
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  Prepared prep;
  for (int rep = 0; rep < kMinSetupRepeats ||
                    (setup_total_s < kSetupBudgetS && rep < kMaxSetupRepeats);
       ++rep) {
    prep = Prepared{};  // Tears the previous daemon down outside the timing.
    const Clock::time_point start = Clock::now();
    auto world = MakeWorld(wl, args.seed);
    if (!world.ok()) {
      std::fprintf(stderr, "world: %s\n", world.status().message().c_str());
      return 1;
    }
    prep.world = std::move(world).MoveValue();
    auto backend = MakeBackend(wl, wl.remote);
    if (!backend.ok()) {
      std::fprintf(stderr, "backend: %s\n",
                   backend.status().message().c_str());
      return 1;
    }
    prep.backend = std::move(backend).MoveValue();
    setup_s.push_back(MsSince(start) / 1e3);
    setup_total_s += setup_s.back();
  }
  const World& world = prep.world;
  SessionRunner runner(wl, world, args.seed, prep.backend.get());

  // --- Warm-up and deterministic cross-checks (untimed). ------------------
  // Session 0 twice: lazy caches (ModPow contexts, pool threads) fill, and
  // its metering must repeat exactly.
  std::vector<std::string> check_failures;
  const Outcome first = runner.Run(0, nullptr);
  const Outcome again = runner.Run(0, nullptr);
  if (!first.correct || !again.correct) {
    check_failures.push_back("warm-up session failed: " + first.error + " " +
                             again.error);
  }
  if (Transcript(first.traffic) != Transcript(again.traffic)) {
    check_failures.push_back("session 0 metering did not repeat exactly");
  }
  if (!first.model_mismatch.empty()) {
    check_failures.push_back("cost model:" + first.model_mismatch);
  }
  if (wl.remote) {
    // The socket transcript must equal the simulator's on the same seed.
    auto sim = MakeBackend(wl, /*remote=*/false);
    if (!sim.ok()) {
      check_failures.push_back("simulator backend: " +
                               sim.status().message());
    } else {
      Workload sim_wl = wl;
      sim_wl.remote = false;
      SessionRunner sim_runner(sim_wl, world, args.seed,
                               sim.ValueOrDie().get());
      const Outcome sim_first = sim_runner.Run(0, nullptr);
      if (Transcript(sim_first.traffic) != Transcript(first.traffic)) {
        check_failures.push_back(
            "socket transcript differs from the simulator's");
      }
    }
  }

  // --- Timed window. -------------------------------------------------------
  std::vector<double> wall_ms, traced_wall_ms;
  uint64_t attempted = 0, failed = 0, correct_sessions = 0;
  double wire_bytes = 0, messages = 0, rounds = 0;
  double crypto_ops = 0, checkpoint_bytes = 0, stages_run = 0;
  double remote_calls = 0, need_state = 0, degraded = 0, remote_stages = 0;
  std::map<std::string, double> round_bytes;
  std::string first_error, model_error;
  SessionTrace trace;
  const TransportStats transport_before =
      prep.backend->socket != nullptr ? prep.backend->socket->transport_stats()
                                      : TransportStats{};

  auto account = [&](const Outcome& o, bool traced) {
    ++attempted;
    if (o.correct) {
      ++correct_sessions;
    } else {
      ++failed;
      if (first_error.empty()) first_error = o.error;
    }
    if (!o.model_mismatch.empty() && model_error.empty()) {
      model_error = o.model_mismatch;
    }
    (traced ? traced_wall_ms : wall_ms).push_back(o.wall_ms);
    wire_bytes += static_cast<double>(o.traffic.num_bytes);
    messages += static_cast<double>(o.traffic.num_messages);
    rounds += static_cast<double>(o.traffic.num_rounds);
    crypto_ops += static_cast<double>(o.stats.crypto_ops_total);
    checkpoint_bytes += static_cast<double>(o.stats.checkpoint_bytes);
    stages_run += static_cast<double>(o.stats.stages_run);
    remote_calls += static_cast<double>(o.exec.remote_calls);
    need_state += static_cast<double>(o.exec.need_state_roundtrips);
    degraded += static_cast<double>(o.exec.degraded_to_local);
    remote_stages += static_cast<double>(o.exec.remote_stages +
                                         o.exec.degraded_to_local);
    if (traced) {
      for (const RoundStats& r : o.traffic.rounds) {
        round_bytes[RoundKey(r.label)] += static_cast<double>(r.num_bytes);
      }
    }
  };

  const Clock::time_point window_start = Clock::now();
  const double cpu_start = RusageCpuMs();
  const Clock::time_point deadline =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  // At least one session runs, however short the window.
  for (uint64_t index = 0; index == 0 || Clock::now() < deadline; ++index) {
    if (args.trace == 0) {
      account(runner.Run(index, nullptr), false);
      continue;
    }
    // Traced and untraced runs of the same session, alternating which goes
    // first, so drift on the host cancels out of the overhead estimate.
    const bool traced_first = index % 2 == 0;
    for (int half = 0; half < 2; ++half) {
      const bool traced = (half == 0) == traced_first;
      account(runner.Run(index, traced ? &trace : nullptr), traced);
    }
  }
  const double window_s = MsSince(window_start) / 1e3;
  const double cpu_ms = RusageCpuMs() - cpu_start;
  const TransportStats transport_after =
      prep.backend->socket != nullptr ? prep.backend->socket->transport_stats()
                                      : TransportStats{};
  if (!model_error.empty()) check_failures.push_back("cost model:" + model_error);

  const double n = static_cast<double>(attempted);
  const double transport_bytes =
      prep.backend->socket != nullptr
          ? static_cast<double>(
                (transport_after.wire_bytes_tx - transport_before.wire_bytes_tx) +
                (transport_after.wire_bytes_rx - transport_before.wire_bytes_rx))
          : wire_bytes;

  MetricsJson metrics;
  if (args.trace == 0) {
    metrics.Add("setup_s", Quantile(setup_s, 0.5), "s");
    metrics.Add("session_ms_p50", Quantile(wall_ms, 0.5), "ms");
    metrics.Add("session_ms_p90", Quantile(wall_ms, 0.9), "ms");
    metrics.Add("sessions_per_s",
                static_cast<double>(correct_sessions) / window_s, "1/s");
    metrics.Add("cpu_ms_per_session", cpu_ms / n, "ms");
    metrics.Add("wire_bytes_per_session", wire_bytes / n, "B");
    metrics.Add("messages_per_session", messages / n, "count");
    metrics.Add("rounds_per_session", rounds / n, "count");
    metrics.Add("transport_bytes_per_session", transport_bytes / n, "B");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    auto probes = RunProbes(wl, world, first.omega, args.seed);
    if (!probes.ok()) {
      check_failures.push_back("probes: " + probes.status().message());
      probes = Probes{};
    }
    const Probes& p = probes.ValueOrDie();
    const double traced_n = static_cast<double>(traced_wall_ms.size());
    double traced_total_ms = 0;
    for (double v : traced_wall_ms) traced_total_ms += v;
    const double session_ms = traced_total_ms / traced_n;
    double spans_ms = trace.checkpoint_ms() / traced_n;
    std::string unknown;
    for (const auto& [name, ms] : trace.stage_ms()) {
      spans_ms += ms / traced_n;
      bool known = false;
      for (const char* s : kStages) known = known || name == s;
      if (!known) unknown += " stage " + name;
    }
    for (const auto& [name, ms] : trace.round_ms()) {
      (void)ms;
      bool known = false;
      for (const char* r : kRounds) known = known || name == r;
      if (!known) unknown += " round " + name;
    }
    if (!unknown.empty()) {
      check_failures.push_back("names missing from the metric list:" +
                               unknown);
    }
    auto get = [](const std::map<std::string, double>& m,
                  const std::string& key) {
      auto it = m.find(key);
      return it == m.end() ? 0.0 : it->second;
    };
    for (const char* s : kStages) {
      const double ms = get(trace.stage_ms(), s) / traced_n;
      const double cpu = get(trace.stage_cpu_ms(), s) / traced_n;
      metrics.Add(std::string("mpc.stage_ms.") + s, ms, "ms");
      metrics.Add(std::string("mpc.stage_cpu_ms.") + s, cpu, "ms");
      metrics.Add(std::string("mpc.stage_parallelism.") + s,
                  ms > 0 ? cpu / ms : 0.0, "ratio");
    }
    const double stages_per_session =
        static_cast<double>(prep.world.provider_logs.size()) +
        (wl.protocol == Protocol::kP4 ? 5.0 : 4.0);
    metrics.Add("mpc.checkpoint_ms", trace.checkpoint_ms() / traced_n, "ms");
    metrics.Add("mpc.checkpoint_bytes", checkpoint_bytes / n, "B");
    metrics.Add("mpc.unattributed_ms", session_ms - spans_ms, "ms");
    metrics.Add("mpc.crypto_ops", crypto_ops / n, "count");
    metrics.Add("mpc.stage_runs_per_stage",
                stages_run / n / stages_per_session, "ratio");
    metrics.Add("mpc.remote_calls_per_stage",
                remote_stages > 0 ? remote_calls / remote_stages : 0.0,
                "ratio");
    metrics.Add("mpc.need_state_roundtrips", need_state / n, "count");
    metrics.Add("mpc.degraded_to_local", degraded, "count");
    for (const char* r : kRounds) {
      metrics.Add(std::string("net.round_ms.") + r,
                  get(trace.round_ms(), r) / traced_n, "ms");
      metrics.Add(std::string("net.round_bytes.") + r,
                  get(round_bytes, r) / traced_n, "B");
    }
    metrics.Add(
        "net.exec_bytes",
        static_cast<double>(
            (transport_after.exec_bytes_tx - transport_before.exec_bytes_tx) +
            (transport_after.exec_bytes_rx - transport_before.exec_bytes_rx)) /
            n,
        "B");
    metrics.Add("net.frames_relayed",
                static_cast<double>(transport_after.frames_relayed -
                                    transport_before.frames_relayed) /
                    n,
                "count");
    metrics.Add("net.send_queue_peak",
                static_cast<double>(transport_after.send_queue_peak), "count");
    metrics.Add("net.reconnects",
                static_cast<double>(transport_after.reconnects -
                                    transport_before.reconnects),
                "count");
    metrics.Add("net.heartbeats_sent",
                static_cast<double>(transport_after.heartbeats_sent -
                                    transport_before.heartbeats_sent),
                "count");
    metrics.Add("actionlog.counter_vector_ms", p.counter_vector_ms, "ms");
    metrics.Add("crypto.rsa_keygen_ms", p.rsa_keygen_ms, "ms");
    metrics.Add("crypto.rsa_encrypt_us", p.rsa_encrypt_us, "us");
    metrics.Add("crypto.rsa_decrypt_us", p.rsa_decrypt_us, "us");
    // P6 meters one key generation plus one encryption and one decryption
    // per Delta; P4's secure-sum path meters no RSA operations.
    const double ops = crypto_ops / n;
    const double keygens = get(trace.stage_ms(), "keygen") > 0 ? 1.0 : 0.0;
    const double per_direction = ops > keygens ? (ops - keygens) / 2 : 0.0;
    const double busy_ms = keygens * p.rsa_keygen_ms +
                           per_direction * (p.rsa_encrypt_us +
                                            p.rsa_decrypt_us) / 1e3;
    metrics.Add("crypto.busy_share", busy_ms / session_ms, "ratio");
    metrics.Add("common.pool_dispatch_us", p.pool_dispatch_us, "us");
    const double untraced_p50 = Quantile(wall_ms, 0.5);
    metrics.Add("trace.overhead_share",
                (Quantile(traced_wall_ms, 0.5) - untraced_p50) / untraced_p50,
                "ratio");
  }

  // Deterministic digest of session 0's metering: equal across processes
  // and machines for one seed.
  const uint64_t digest = Fnv1a(Transcript(first.traffic));
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"nproc\": %ld, \"psi_threads\": %zu, "
      "\"limb_kernel\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"commit\": \"%s\", \"setup_repeats\": %zu, \"session_samples\": %zu, "
      "\"failed_share\": %.17g, "
      "\"session0_digest\": \"%016" PRIx64 "\", \"checks\": \"%s\"}}\n",
      wl.name, args.seed, args.trace, sysconf(_SC_NPROCESSORS_ONLN),
      pool_threads, limb_kernel::VariantName(limb_kernel::ActiveVariant()),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      JsonEscape(args.commit).c_str(), setup_s.size(),
      args.trace == 0 ? wall_ms.size() : traced_wall_ms.size(),
      static_cast<double>(failed) / n, digest,
      check_failures.empty() ? "ok"
                             : JsonEscape(check_failures.front()).c_str());
  if (wall_ms.size() < 100) {
    std::fprintf(stderr,
                 "note: %zu untraced sessions; p90 needs >= 100 for ten "
                 "samples beyond it\n",
                 wall_ms.size());
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "first failed session: %s\n", first_error.c_str());
  }
  for (const std::string& f : check_failures) {
    std::fprintf(stderr, "cross-check failed: %s\n", f.c_str());
  }
  const bool correct = failed == 0 && check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.str().c_str());
  std::fflush(stdout);
  return check_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace psi

int main(int argc, char** argv) { return psi::perfbench::Main(argc, argv); }
