// cqbench_driver: the containment-service benchmark. Drives the public
// ContainmentEngine API (Submit, SubmitAll, EvolveSigma) on one seeded,
// closed-loop workload, checks every verdict against the known-answer
// oracle, and prints one JSON object as its last line.
//
//   cqbench_driver --workload cold_decide|hot_reask|tier_spill --seed N
//                  --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run: the same requests, each sent to the engine and then through
// the layer replay (replay.h), reporting per-layer metrics. Exit status is
// non-zero on a wrong verdict, a replay/engine disagreement, a broken
// workload invariant or a set-up failure; no result line is printed then.
// The design record (why each workload, sizes, layer map) is DESIGN.md.
#include <fcntl.h>
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "daemon.h"
#include "engine/engine.h"
#include "net/tcp_transport.h"
#include "oracle.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

namespace cqbench {
namespace {

using cqchase::ContainmentEngine;
using cqchase::ContainmentRequest;
using cqchase::DependencySet;
using cqchase::EngineConfig;
using cqchase::EngineFuture;
using cqchase::EngineOutcome;
using cqchase::Result;
using cqchase::Rng;
using cqchase::Status;
using cqchase::StatusCode;
using cqchase::StrCat;
using cqchase::TierSpec;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

unsigned HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

// --- process-level measurements --------------------------------------------

// Resets the kernel's peak-RSS mark to the current RSS (Linux >= 4.0), so the
// peak covers only what follows.
void ResetPeakRss() {
  const int fd = open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return;
  (void)!write(fd, "5", 1);
  close(fd);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// CPU time the hypervisor gave to other guests (the `steal` column of
// /proc/stat) and total CPU time, in ticks. Timed figures taken while the
// host steals a large share are not comparable with quiet-host ones: a run
// whose every window was so disturbed gets one more (see Run).
struct CpuTicks {
  double steal = 0;
  double total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  in >> cpu;
  for (int i = 0; i < 8 && in; ++i) {
    double v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// --- request records ---------------------------------------------------------

// One attempted request as its client saw it. Compact: hot_reask makes
// over a million per run, and the benchmark's own memory must stay small
// beside the engine's in peak_rss_mb.
struct Sample {
  float latency_ms = 0;
  int8_t verdict = -1;  // 1 contained, 0 not contained, -1 no verdict
};

// A decided verdict whose answer is not known before the window (fresh or
// non-planted tasks); the oracle confirms it after the window.
struct Pending {
  const Task* task = nullptr;
  DepsPtr deps;
  int8_t verdict = -1;
};

// Everything one client recorded.
struct ClientLog {
  std::vector<Sample> samples;
  std::vector<Pending> pending;
  std::vector<double> overrun_ms;  // resolution minus deadline, misses only
  std::map<StatusCode, uint64_t> failures;
  uint64_t checked_online = 0;  // verdicts checked against a known answer
  uint64_t wrong = 0;
};

// Known answers: 1 or 0, or kDefer for a verdict the oracle checks later.
constexpr int kDefer = -2;

int VerdictOf(const Result<EngineOutcome>& r) {
  if (!r.ok()) return -1;
  return r->verdict.report.contained ? 1 : 0;
}

// Σ with its last IND removed: the schema edit tier_spill makes.
DepsPtr WithoutLastInd(const DependencySet& deps, const cqchase::Catalog& catalog) {
  auto out = std::make_shared<DependencySet>();
  for (const auto& fd : deps.fds()) (void)out->AddFd(catalog, fd);
  for (size_t i = 0; i + 1 < deps.inds().size(); ++i) {
    (void)out->AddInd(catalog, deps.inds()[i]);
  }
  return out;
}

// --- traced-run accumulation -------------------------------------------------

struct TraceLog {
  Tracer tracer;
  std::vector<ReplayOutcome> outcomes;
  std::vector<double> engine_latency_us;  // aligned with outcomes
  std::vector<double> submit_us;          // per request
  std::vector<cqchase::DeltaReceipt> edits;
  std::vector<bool> after_edit;           // aligned with outcomes: the
                                          // task's Σ had been edited
  uint64_t mismatches = 0;  // both decided, verdicts differ
  uint64_t one_sided = 0;   // exactly one side decided (timing-dependent)
};

// --- workload interface ------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/cqbench/tmp";
  std::string daemon;  // verdict_authorityd, found next to this binary
};

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

class Workload {
 public:
  explicit Workload(const Options& opt) : opt_(opt) {
    if (opt_.trace) trace_ = std::make_unique<TraceLog>();
  }
  virtual ~Workload() = default;

  // Inputs, engine (and daemon), warm-up: everything before the first timed
  // request. In trace mode also the replay and its warm-up.
  virtual Status Setup() = 0;
  // Closed-loop clients of the timed run (the traced run uses one).
  virtual size_t clients() const = 0;
  // Questions whose answers are known before the window (hot_reask's
  // classes, tier_spill's working set), so the clients check verdicts as
  // they arrive. Their order depends only on the seed: a child process that
  // made the same set-up answers them (see OracleInChild), and
  // SetOracleAnswers takes the answers in that order.
  virtual std::vector<Question> OracleQuestions() const { return {}; }
  virtual void SetOracleAnswers(const std::vector<Question>& questions,
                                const std::vector<int>& answers) {
    (void)questions;
    (void)answers;
  }
  // One closed-loop step of client `c`: a request or a burst, submitted and
  // waited for; logs one sample per request.
  virtual void Step(size_t c, Rng& rng, ClientLog* log) = 0;
  virtual void BeginWindow() {}
  virtual void EndWindow() {}
  // After the window: the workload's invariants.
  virtual Status Finish() { return Status::OK(); }
  // Stops children, removes directories, confirms both.
  virtual Status Teardown() { return Status::OK(); }
  // The answer `task` must get under `deps` if known now, else kDefer.
  // `alt` marks a task asked under the edited version of its Σ, for which
  // the planted guarantee does not hold.
  virtual int Expected(const Task& task, bool alt) const {
    return task.planted && !alt ? 1 : kDefer;
  }
  // Per-layer metrics only this workload can see (net, store).
  virtual void LayerMetrics(MetricMap* m) const { (void)m; }

  ContainmentEngine& engine() { return *engine_; }
  Replay* replay() { return replay_.get(); }
  const Universe& universe() const { return universe_; }
  TraceLog* trace() { return trace_.get(); }
  const std::vector<double>& evolve_ms() const { return evolve_ms_; }

 protected:
  // Logs one resolved request: its sample, its failure code, and its
  // verdict checked now against a known answer or queued for the oracle.
  void Note(const Task& task, const DepsPtr& deps, bool alt,
            const Result<EngineOutcome>& r, double latency_ms,
            std::optional<std::chrono::milliseconds> timeout, ClientLog* log) {
    Sample sample;
    sample.latency_ms = static_cast<float>(latency_ms);
    sample.verdict = static_cast<int8_t>(VerdictOf(r));
    log->samples.push_back(sample);
    if (!r.ok()) {
      ++log->failures[r.status().code()];
      if (timeout.has_value() && r.status().code() == StatusCode::kDeadlineExceeded) {
        log->overrun_ms.push_back(latency_ms - static_cast<double>(timeout->count()));
      }
      return;
    }
    const int expected = Expected(task, alt);
    if (expected == kDefer) {
      log->pending.push_back(Pending{&task, deps, sample.verdict});
      return;
    }
    ++log->checked_online;
    if (expected != sample.verdict) {
      if (++log->wrong <= 3) {
        std::fprintf(stderr, "WRONG VERDICT: %s ⊆ %s: engine %d, expected %d\n",
                     task.q->ToString().c_str(), task.q_prime->ToString().c_str(),
                     sample.verdict, expected);
      }
    }
  }

  // Sends one request to the engine and, in trace mode, through the replay.
  void AskOne(const Task& task, const DepsPtr& deps,
              std::optional<std::chrono::milliseconds> timeout, ClientLog* log,
              bool alt = false, bool after_edit = false) {
    cqchase::RequestOptions options;
    options.timeout = timeout;
    const auto t0 = Clock::now();
    EngineFuture<EngineOutcome> f = engine_->Submit(
        ContainmentRequest::Share(task.q, task.q_prime, deps, options));
    const auto t1 = Clock::now();
    Result<EngineOutcome> r = f.Get();
    const double latency_ms = MsSince(t0);
    Note(task, deps, alt, r, latency_ms, timeout, log);
    if (trace_ != nullptr && replay_ != nullptr) {
      trace_->submit_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      ReplayOne(task, *deps, VerdictOf(r), latency_ms, after_edit);
    }
  }

  // Replays a request the engine already answered and compares verdicts.
  void ReplayOne(const Task& task, const DependencySet& deps, int engine_verdict,
                 double engine_latency_ms, bool after_edit) {
    trace_->engine_latency_us.push_back(engine_latency_ms * 1e3);
    ReplayOutcome o = replay_->Run(
        task, deps, static_cast<uint32_t>(trace_->outcomes.size()));
    if (o.verdict >= 0 && engine_verdict >= 0 && o.verdict != engine_verdict) {
      ++trace_->mismatches;
      std::fprintf(stderr, "replay/engine disagree on %s ⊆ %s: engine %d, replay %d\n",
                   task.q->ToString().c_str(), task.q_prime->ToString().c_str(),
                   engine_verdict, o.verdict);
    } else if ((o.verdict >= 0) != (engine_verdict >= 0)) {
      ++trace_->one_sided;
    }
    trace_->outcomes.push_back(o);
    trace_->after_edit.push_back(after_edit);
  }

  // Replay warm-up with the recorder off.
  void ReplayUntraced(const Task& task, const DependencySet& deps) {
    trace_->tracer.enabled = false;
    replay_->Run(task, deps, 0);
    trace_->tracer.enabled = true;
  }

  // One timed EvolveSigma call (plus its replay in trace mode).
  void Edit(const DependencySet& from, const DependencySet& to) {
    const auto t = Clock::now();
    engine_->EvolveSigma(from, to);
    evolve_ms_.push_back(MsSince(t));
    if (trace_ != nullptr && replay_ != nullptr) {
      trace_->edits.push_back(replay_->Evolve(
          from, to, static_cast<uint32_t>(trace_->outcomes.size())));
    }
  }

  // Declaration order is teardown order reversed: the engine and the replay
  // (whose chases mint into the symbol table) die before the universe.
  Options opt_;
  Universe universe_;
  std::unique_ptr<TraceLog> trace_;
  std::unique_ptr<Replay> replay_;
  std::unique_ptr<ContainmentEngine> engine_;
  std::vector<double> evolve_ms_;
};

// --- cold_decide -------------------------------------------------------------

// Distinct tasks in request order, generated ahead in set-up and extended on
// demand (under the lock) when a fast machine runs past the pre-generated
// part, so no canonical key ever repeats.
class TaskPool {
 public:
  TaskPool(Universe* u, uint64_t seed, std::vector<DepsPtr> sigmas,
           const std::string& tag)
      : stream_(u, seed, std::move(sigmas), tag) {}

  void Generate(size_t at_least) {
    std::lock_guard<std::mutex> lock(mu_);
    while (tasks_.size() < at_least) GrowLocked();
  }

  std::pair<const Task*, DepsPtr> Get(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    while (tasks_.size() <= i) GrowLocked();
    const Task* t = &tasks_[i];  // deque: elements stay put under push_back
    return {t, stream_.sigmas()[t->sigma]};
  }

  // The Σ pool is fixed at construction; reading it needs no lock.
  const std::vector<DepsPtr>& sigmas() const { return stream_.sigmas(); }

 private:
  void GrowLocked() {
    std::vector<Task> batch;
    stream_.NextBatch(&batch);
    for (Task& t : batch) tasks_.push_back(std::move(t));
  }

  std::mutex mu_;
  TaskStream stream_;
  std::deque<Task> tasks_;
};

// Every task distinct, over IND-only Σ (cyclic and acyclic) and key-based
// Σ with an acyclic IND graph, on which every ask gets a verdict well
// within the timeout. Key-based Σ with cyclic INDs are left out: a share of
// their asks outgrows any deadline, and a run must have no failed request
// (DESIGN.md, known gap).
class ColdDecide final : public Workload {
 public:
  static constexpr std::chrono::milliseconds kTimeout{500};
  static constexpr size_t kSigmas = 48;
  static constexpr size_t kPregenerated = 6400;

  using Workload::Workload;

  Status Setup() override {
    universe_ = MakeUniverse();
    pool_ = std::make_unique<TaskPool>(
        &universe_, opt_.seed,
        SigmaPool(*universe_.catalog,
                  {SigmaKind::kIndCyclic, SigmaKind::kIndAcyclic,
                   SigmaKind::kKeyBasedAcyclic},
                  kSigmas),
        "c");
    pool_->Generate(kPregenerated);
    const EngineConfig config;  // default limits
    engine_ = std::make_unique<ContainmentEngine>(universe_.catalog.get(),
                                                  universe_.symbols.get(), config);
    if (trace_ != nullptr) {
      replay_ = std::make_unique<Replay>(universe_.catalog.get(),
                                         universe_.symbols.get(), config, kTimeout,
                                         &trace_->tracer);
    }
    // Warm-up on a separate stream (its own Σ, queries and keys), so the
    // executor's threads and the allocator are live before the window.
    warm_ = std::make_unique<TaskPool>(
        &universe_, opt_.seed + (1ull << 40),
        SigmaPool(*universe_.catalog, {SigmaKind::kIndAcyclic}, 4), "w");
    ClientLog sink;
    for (size_t i = 0; i < 32; ++i) {
      auto [task, deps] = warm_->Get(i);
      AskOne(*task, deps, kTimeout, &sink);
    }
    if (trace_ != nullptr) {
      *trace_ = TraceLog();
      for (size_t i = 0; i < 32; ++i) {
        auto [task, deps] = warm_->Get(i + 32);
        ReplayUntraced(*task, *deps);
      }
    }
    return Status::OK();
  }

  size_t clients() const override { return 2; }

  void Step(size_t, Rng&, ClientLog* log) override {
    auto [task, deps] = pool_->Get(next_.fetch_add(1));
    AskOne(*task, deps, kTimeout, log);
  }

 private:
  std::unique_ptr<TaskPool> pool_;
  std::unique_ptr<TaskPool> warm_;
  std::atomic<size_t> next_{0};
};

// --- hot_reask ---------------------------------------------------------------

class HotReask final : public Workload {
 public:
  static constexpr size_t kClasses = 1000;
  static constexpr size_t kVariants = 8;

  using Workload::Workload;

  Status Setup() override {
    universe_ = MakeUniverse();
    TaskStream stream(&universe_, opt_.seed,
                      SigmaPool(*universe_.catalog,
                                {SigmaKind::kIndAcyclic, SigmaKind::kKeyBasedAcyclic}, 64),
                      "h");
    sigmas_ = stream.sigmas();
    while (base_.size() < kClasses) {
      std::vector<Task> batch;
      stream.NextBatch(&batch);
      for (Task& t : batch) base_.push_back(std::move(t));
    }
    // Isomorphic re-asks: every variable renamed, conjuncts shuffled.
    Rng rng(opt_.seed * 31 + 7);
    variants_.resize(base_.size());
    for (size_t i = 0; i < base_.size(); ++i) {
      for (size_t v = 0; v < kVariants; ++v) {
        Task t = base_[i];
        t.q = std::make_shared<const cqchase::ConjunctiveQuery>(IsomorphicCopy(
            *base_[i].q, *universe_.symbols, rng, StrCat("h", i, "v", v, "q")));
        t.q_prime = std::make_shared<const cqchase::ConjunctiveQuery>(
            IsomorphicCopy(*base_[i].q_prime, *universe_.symbols, rng,
                           StrCat("h", i, "v", v, "p")));
        variants_[i].push_back(std::move(t));
      }
    }
    for (size_t i = 0; i < base_.size(); ++i) {
      for (const Task& t : variants_[i]) class_of_[&t] = &base_[i];
    }
    EngineConfig config;
    config.executor_threads = HardwareThreads();
    engine_ = std::make_unique<ContainmentEngine>(universe_.catalog.get(),
                                                  universe_.symbols.get(), config);
    // Warm the LRU with every variant (a canonicalization tie can give an
    // isomorphic copy its own key; asking each once makes the window
    // chase-free by construction), then run the closed loop for a second so
    // the executor and futures reach steady state.
    for (size_t i = 0; i < base_.size(); i += 64) {
      std::vector<ContainmentRequest> burst;
      for (size_t j = i; j < std::min(base_.size(), i + 64); ++j) {
        for (const Task& t : variants_[j]) {
          burst.push_back(ContainmentRequest::Share(t.q, t.q_prime,
                                                    sigmas_[t.sigma]));
        }
      }
      for (auto& f : engine_->SubmitAll(std::move(burst))) (void)f.Get();
    }
    if (trace_ != nullptr) {
      replay_ = std::make_unique<Replay>(universe_.catalog.get(),
                                         universe_.symbols.get(), config, std::nullopt,
                                         &trace_->tracer);
      for (const auto& vs : variants_) {
        for (const Task& t : vs) ReplayUntraced(t, *sigmas_[t.sigma]);
      }
      *trace_ = TraceLog();
    }
    WarmLoop();
    return Status::OK();
  }

  size_t clients() const override { return HardwareThreads(); }

  void Step(size_t, Rng& rng, ClientLog* log) override {
    const Task& t = variants_[rng.Index(base_.size())][rng.Index(kVariants)];
    AskOne(t, sigmas_[t.sigma], std::nullopt, log);
  }

  // One oracle answer per isomorphism class (planted classes need none).
  std::vector<Question> OracleQuestions() const override {
    std::vector<Question> questions;
    for (const Task& t : base_) {
      if (!t.planted) questions.push_back(Question{&t, sigmas_[t.sigma]});
    }
    return questions;
  }

  void SetOracleAnswers(const std::vector<Question>& questions,
                        const std::vector<int>& answers) override {
    for (size_t i = 0; i < questions.size(); ++i) {
      answer_[questions[i].task] = answers[i];
    }
    for (const Task& t : base_) {
      if (t.planted) answer_[&t] = 1;
    }
  }

  void BeginWindow() override { chases_before_ = engine_->stats().chases_built; }

  Status Finish() override {
    const uint64_t built = engine_->stats().chases_built - chases_before_;
    if (built != 0) {
      return Status::Internal(StrCat("hot_reask built ", built,
                                     " chases in its timed window (expected 0)"));
    }
    return Status::OK();
  }

  int Expected(const Task& task, bool) const override {
    auto cls = class_of_.find(&task);
    if (cls == class_of_.end()) return kDefer;
    auto it = answer_.find(cls->second);
    return it == answer_.end() || it->second < 0 ? kDefer : it->second;
  }

 private:
  void WarmLoop() {
    const auto end = Clock::now() + std::chrono::milliseconds(1000);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients(); ++c) {
      threads.emplace_back([this, c, end] {
        Rng rng(opt_.seed * 1000003 + 500 + c);
        while (Clock::now() < end) {
          const Task& t = variants_[rng.Index(base_.size())][rng.Index(kVariants)];
          cqchase::Result<EngineOutcome> r =
              engine_->Submit(ContainmentRequest::Share(t.q, t.q_prime,
                                                        sigmas_[t.sigma]))
                  .Get();
          (void)r;
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  std::deque<Task> base_;
  std::vector<std::vector<Task>> variants_;
  std::vector<DepsPtr> sigmas_;
  std::unordered_map<const Task*, const Task*> class_of_;
  std::unordered_map<const Task*, int> answer_;  // by class representative
  uint64_t chases_before_ = 0;
};

// --- tier_spill ----------------------------------------------------------------

class TierSpill final : public Workload {
 public:
  static constexpr size_t kLru = 512;
  static constexpr size_t kWorking = 8 * kLru;
  static constexpr size_t kStoreMax = kWorking / 2;
  static constexpr size_t kSigmas = 32;
  static constexpr size_t kBurst = 16;
  static constexpr size_t kBurstEvery = 4;
  static constexpr size_t kEditEveryBursts = 256;
  static constexpr double kFreshShare = 0.10;
  static constexpr double kZipfS = 0.99;

  using Workload::Workload;

  ~TierSpill() override { (void)Teardown(); }

  Status Setup() override {
    universe_ = MakeUniverse();
    stream_ = std::make_unique<TaskStream>(
        &universe_, opt_.seed,
        SigmaPool(*universe_.catalog,
                  {SigmaKind::kIndAcyclic, SigmaKind::kKeyBasedAcyclic}, kSigmas),
        "t");
    sigmas_ = stream_->sigmas();
    std::vector<Task> tasks;
    for (size_t s = 0; s < kSigmas / TaskStream::kQueries; ++s) stream_->NextBatch(&tasks);
    while (tasks.size() < kWorking) {
      stream_->NextTaskOver(static_cast<uint32_t>(tasks.size() % kSigmas), &tasks);
    }
    for (Task& t : tasks) working_.push_back(std::move(t));
    bool editable = false;
    for (const DepsPtr& d : sigmas_) {
      alt_.push_back(d->inds().empty() ? nullptr : WithoutLastInd(*d, *universe_.catalog));
      editable = editable || alt_.back() != nullptr;
    }
    if (!editable) return Status::FailedPrecondition("no Σ with an IND to edit");
    // Zipf rank -> working-set slot through a seeded shuffle, so the hot
    // keys spread over every Σ instead of the first batches.
    Rng rng(opt_.seed * 7919 + 3);
    perm_.resize(working_.size());
    for (size_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
    std::shuffle(perm_.begin(), perm_.end(), rng.engine());
    zipf_ = std::make_unique<ZipfSampler>(working_.size(), kZipfS);
    GenerateFresh(2000);

    auto dir = TempDir::Make(opt_.workdir, "tier_spill");
    if (!dir.ok()) return dir.status();
    dir_ = *std::move(dir);
    dir_path_ = dir_->path();
    const int copies = trace_ != nullptr ? 2 : 1;  // the replay gets its own
    for (int i = 0; i < copies; ++i) {
      std::filesystem::create_directories(StrCat(dir_path_, "/daemon", i));
      auto d = DaemonProcess::Start(opt_.daemon, StrCat(dir_path_, "/daemon", i));
      if (!d.ok()) return d.status();
      daemons_.push_back(*std::move(d));
    }

    // Seed every daemon with the whole working set through a throwaway
    // engine whose tier stack publishes to them; its destructor flushes.
    {
      EngineConfig sc;
      sc.tiers = {TierSpec::Lru(1 << 16)};
      for (auto& d : daemons_) {
        sc.tiers.push_back(TierSpec::Remote(
            std::make_shared<cqchase::net::TcpTransport>("127.0.0.1", d->port())));
      }
      ContainmentEngine seeder(universe_.catalog.get(), universe_.symbols.get(), sc);
      if (!seeder.store_status().ok()) return seeder.store_status();
      for (size_t i = 0; i < working_.size(); i += 256) {
        std::vector<ContainmentRequest> burst;
        for (size_t j = i; j < std::min(working_.size(), i + 256); ++j) {
          burst.push_back(ContainmentRequest::Share(
              working_[j].q, working_[j].q_prime, sigmas_[working_[j].sigma]));
        }
        for (auto& f : seeder.SubmitAll(std::move(burst))) (void)f.Get();
      }
    }

    // The engine's stack and the replay's differ only in their store
    // directory and daemon.
    auto stack = [&](const char* local,
                     std::shared_ptr<cqchase::VerdictTransport> remote) {
      return std::vector<TierSpec>{
          TierSpec::Lru(kLru), TierSpec::LocalStore(StrCat(dir_path_, "/", local), kStoreMax),
          TierSpec::Remote(std::move(remote))};
    };
    EngineConfig config;
    config.tiers = stack("local0", std::make_shared<cqchase::net::TcpTransport>(
                                       "127.0.0.1", daemons_[0]->port()));
    engine_ = std::make_unique<ContainmentEngine>(universe_.catalog.get(),
                                                  universe_.symbols.get(), config);
    for (const auto& desc : engine_->tier_descriptors()) {
      if (!desc.active) return desc.status;
    }
    if (trace_ != nullptr) {
      timing_ = std::make_shared<TimingTransport>(
          std::make_shared<cqchase::net::TcpTransport>("127.0.0.1",
                                                       daemons_[1]->port()));
      EngineConfig rc = config;
      rc.tiers = stack("local1", timing_);
      replay_ = std::make_unique<Replay>(universe_.catalog.get(),
                                         universe_.symbols.get(), rc, std::nullopt,
                                         &trace_->tracer);
      if (!replay_->status().ok()) return replay_->status();
    }
    WarmUp();
    if (trace_ != nullptr) *trace_ = TraceLog();
    if (timing_ != nullptr) timing_base_ = timing_->totals();
    return Status::OK();
  }

  size_t clients() const override { return 2; }

  // Every kBurstEvery-th step of a client is a SubmitAll burst of kBurst
  // requests, the others single Submits. Each request is a fresh task with
  // probability kFreshShare, else a Zipf-ranked read of the working set,
  // asked under the current version of its Σ.
  void Step(size_t c, Rng& rng, ClientLog* log) override {
    const int edited_now = alt_sigma_.load();
    const size_t n = rng.Index(kBurstEvery) == 0 ? kBurst : 1;
    std::vector<const Task*> tasks;
    std::vector<DepsPtr> deps;
    std::vector<bool> alt;
    std::vector<bool> after_edit;
    for (size_t k = 0; k < n; ++k) {
      const Task* t = rng.Bernoulli(kFreshShare) ? NextFresh()
                                                 : &working_[perm_[zipf_->Sample(rng)]];
      const bool a = static_cast<int>(t->sigma) == edited_now;
      tasks.push_back(t);
      deps.push_back(a ? alt_[t->sigma] : sigmas_[t->sigma]);
      alt.push_back(a);
      after_edit.push_back(ever_edited_[t->sigma].load());
    }
    if (n == 1) {
      AskOne(*tasks[0], deps[0], std::nullopt, log, alt[0], after_edit[0]);
    } else {
      Burst(tasks, deps, alt, after_edit, log);
      if (c == 0 && ++bursts_ % kEditEveryBursts == 0) NextEdit();
    }
  }

  // Edits walk the Σ that have INDs in order: remove Σk's last IND, then,
  // one edit later, add it back and move on to the next Σ. Requests asked
  // in between use the edited version.
  void NextEdit() {
    const int cur = alt_sigma_.load();
    if (cur >= 0) {
      Edit(*alt_[cur], *sigmas_[cur]);
      alt_sigma_.store(-1);
      return;
    }
    size_t k = next_edit_;
    while (alt_[k] == nullptr) k = (k + 1) % kSigmas;
    next_edit_ = (k + 1) % kSigmas;
    ever_edited_[k].store(true);
    Edit(*sigmas_[k], *alt_[k]);
    alt_sigma_.store(static_cast<int>(k));
  }

  // Answers for the whole working set, under both versions of each Σ.
  std::vector<Question> OracleQuestions() const override {
    std::vector<Question> questions;
    for (const Task& t : working_) {
      if (!t.planted) questions.push_back(Question{&t, sigmas_[t.sigma]});
      if (alt_[t.sigma] != nullptr) questions.push_back(Question{&t, alt_[t.sigma]});
    }
    return questions;
  }

  void SetOracleAnswers(const std::vector<Question>& questions,
                        const std::vector<int>& answers) override {
    for (size_t i = 0; i < questions.size(); ++i) {
      const Task* t = questions[i].task;
      (questions[i].deps == alt_[t->sigma] ? answer_alt_ : answer_)[t] = answers[i];
    }
    for (const Task& t : working_) {
      if (t.planted) answer_[&t] = 1;
    }
  }

  int Expected(const Task& task, bool alt) const override {
    const auto& answers = alt ? answer_alt_ : answer_;
    auto it = answers.find(&task);
    return it == answers.end() || it->second < 0 ? kDefer : it->second;
  }

  Status Teardown() override {
    if (torn_down_) return teardown_status_;
    torn_down_ = true;
    // Engines flush their write-behind publishes to the daemons on
    // destruction, so they go before the daemons stop.
    engine_.reset();
    replay_.reset();
    timing_.reset();
    for (auto& d : daemons_) {
      shutdown_lines_.push_back(d->Stop());
      if (!d->reaped()) teardown_status_ = Status::Internal("daemon not reaped");
    }
    daemons_.clear();
    dir_.reset();
    if (!dir_path_.empty() && std::filesystem::exists(dir_path_)) {
      teardown_status_ = Status::Internal("temporary directory left behind: " + dir_path_);
    }
    return teardown_status_;
  }

  void EndWindow() override {
    if (timing_ != nullptr) timing_end_ = timing_->totals();
  }

  // The replay's wire, seen through its timing transport over the window,
  // and its daemon's own request count from the shutdown line.
  void LayerMetrics(MetricMap* m) const override {
    const double n = std::max<double>(1.0, static_cast<double>(requests_replayed()));
    std::vector<double> rtt(timing_end_.round_trip_us.begin() +
                                std::min(timing_base_.round_trip_us.size(),
                                         timing_end_.round_trip_us.size()),
                            timing_end_.round_trip_us.end());
    (*m)["net.round_trip_us.p50"].first = Percentile(rtt, 50);
    (*m)["net.round_trip_us.p99"].first = Percentile(rtt, 99);
    (*m)["net.round_trips"].first = static_cast<double>(rtt.size()) / n;
    (*m)["net.bytes_out"].first =
        static_cast<double>(timing_end_.bytes_out - timing_base_.bytes_out) / n;
    (*m)["net.bytes_in"].first =
        static_cast<double>(timing_end_.bytes_in - timing_base_.bytes_in) / n;
    if (shutdown_lines_.size() > 1) {
      (*m)["net.server_requests"].first =
          static_cast<double>(ShutdownField(shutdown_lines_[1], "requests"));
    }
  }

  std::string ShutdownLine() const {
    return shutdown_lines_.empty() ? "" : shutdown_lines_[0];
  }

 private:
  size_t requests_replayed() const {
    return trace_ == nullptr ? 0 : trace_->outcomes.size();
  }

  void GenerateFresh(size_t n) {
    std::vector<Task> more;
    while (more.size() < n) {
      stream_->NextTaskOver(static_cast<uint32_t>((fresh_.size() + more.size()) % kSigmas),
                            &more);
    }
    for (Task& t : more) fresh_.push_back(std::move(t));
  }

  const Task* NextFresh() {
    std::lock_guard<std::mutex> lock(fresh_mu_);
    if (fresh_next_ >= fresh_.size()) GenerateFresh(500);
    return &fresh_[fresh_next_++];
  }

  // One SubmitAll burst; latency of each request is SubmitAll's start to the
  // moment the client holds that verdict (futures are collected in order).
  void Burst(const std::vector<const Task*>& tasks, const std::vector<DepsPtr>& deps,
             const std::vector<bool>& alt, const std::vector<bool>& after_edit,
             ClientLog* log) {
    std::vector<ContainmentRequest> requests;
    for (size_t k = 0; k < tasks.size(); ++k) {
      requests.push_back(ContainmentRequest::Share(tasks[k]->q, tasks[k]->q_prime, deps[k]));
    }
    const auto t0 = Clock::now();
    std::vector<EngineFuture<EngineOutcome>> futures =
        engine_->SubmitAll(std::move(requests));
    const double submit_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    std::vector<int> verdicts;
    std::vector<double> latencies;
    for (size_t k = 0; k < tasks.size(); ++k) {
      Result<EngineOutcome> r = futures[k].Get();
      latencies.push_back(MsSince(t0));
      verdicts.push_back(VerdictOf(r));
      Note(*tasks[k], deps[k], alt[k], r, latencies.back(), std::nullopt, log);
    }
    if (trace_ != nullptr && replay_ != nullptr) {
      std::vector<const DependencySet*> raw;
      for (const DepsPtr& d : deps) raw.push_back(d.get());
      replay_->Prefetch(tasks, raw, static_cast<uint32_t>(trace_->outcomes.size()));
      for (size_t k = 0; k < tasks.size(); ++k) {
        trace_->submit_us.push_back(submit_us / static_cast<double>(tasks.size()));
        ReplayOne(*tasks[k], *deps[k], verdicts[k], latencies[k], after_edit[k]);
      }
    }
  }

  // Reads only, for about a second, from a stream of draws the timed window
  // does not use: fills the LRU and the store, connects, warms.
  void WarmUp() {
    Rng rng(opt_.seed * 104729 + 11);
    ClientLog sink;
    const auto end = Clock::now() + std::chrono::milliseconds(1000);
    if (trace_ != nullptr) trace_->tracer.enabled = false;
    while (Clock::now() < end) {
      const size_t n = rng.Index(kBurstEvery) == 0 ? kBurst : 1;
      std::vector<const Task*> tasks;
      std::vector<DepsPtr> deps;
      for (size_t k = 0; k < n; ++k) {
        const Task* t = &working_[perm_[zipf_->Sample(rng)]];
        tasks.push_back(t);
        deps.push_back(sigmas_[t->sigma]);
      }
      if (n == 1) {
        AskOne(*tasks[0], deps[0], std::nullopt, &sink);
      } else {
        Burst(tasks, deps, std::vector<bool>(n, false), std::vector<bool>(n, false),
              &sink);
      }
      sink = ClientLog();
    }
    if (trace_ != nullptr) trace_->tracer.enabled = true;
  }

  std::unique_ptr<TaskStream> stream_;
  std::deque<Task> working_;
  std::vector<DepsPtr> sigmas_;
  std::vector<DepsPtr> alt_;  // each Σ without its last IND (null: no IND)
  std::vector<size_t> perm_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::mutex fresh_mu_;
  std::deque<Task> fresh_;
  size_t fresh_next_ = 0;
  std::atomic<int> alt_sigma_{-1};  // the Σ asked in its edited version
  size_t next_edit_ = 0;            // client 0 only
  std::unique_ptr<std::atomic<bool>[]> ever_edited_{new std::atomic<bool>[kSigmas]()};
  std::atomic<uint64_t> bursts_{0};
  std::unordered_map<const Task*, int> answer_;      // Σ as drawn
  std::unordered_map<const Task*, int> answer_alt_;  // Σ without its last IND

  std::unique_ptr<TempDir> dir_;
  std::string dir_path_;
  std::vector<std::unique_ptr<DaemonProcess>> daemons_;
  std::shared_ptr<TimingTransport> timing_;
  TimingTransport::Totals timing_base_;  // at the start of the window
  TimingTransport::Totals timing_end_;
  std::vector<std::string> shutdown_lines_;
  bool torn_down_ = false;
  Status teardown_status_;
};

// --- run ---------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const Options& opt) {
  if (opt.workload == "cold_decide") return std::make_unique<ColdDecide>(opt);
  if (opt.workload == "hot_reask") return std::make_unique<HotReask>(opt);
  if (opt.workload == "tier_spill") return std::make_unique<TierSpill>(opt);
  return nullptr;
}

// Runs the closed loop: every client steps until the window ends; a request
// in flight at the end completes and counts. Returns the window length in
// seconds (to the last completion).
double RunWindow(Workload& w, size_t clients, double seconds,
                 std::vector<ClientLog>* per_client, uint64_t seed) {
  per_client->assign(clients, ClientLog());
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 2654435761ull + 1000 + c);
      while (Clock::now() < end) w.Step(c, rng, &(*per_client)[c]);
    });
  }
  for (auto& t : threads) t.join();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// FNV-1a over `text`, continuing from `h`.
uint64_t Fnv1a(const std::string& text, uint64_t h = 1469598103934665603ull) {
  for (char c : text) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

// The oracle's answers by question (FNV-1a of the question's exact text).
// Every window of a run serves the same request stream, so a later window's
// questions are mostly an earlier one's: the run hands each window the
// answers found so far, and the oracle only decides the new questions.
using KnownAnswers = std::unordered_map<uint64_t, int>;

// The after-window half of the verdict check: every decided verdict whose
// answer was not known before the window goes to the oracle now, unless
// `known` already holds its answer. Answers the oracle found are added to
// `known` and to `found`.
struct CheckResult {
  uint64_t checked = 0;
  uint64_t wrong = 0;
  uint64_t unverified = 0;  // the oracle could not decide either
};

CheckResult CheckPending(const Workload& w, const std::vector<ClientLog>& logs,
                         KnownAnswers* known, KnownAnswers* found) {
  CheckResult res;
  std::map<std::pair<const Task*, const DependencySet*>, uint64_t> key_of;
  std::vector<Question> questions;
  std::vector<uint64_t> keys;
  for (const ClientLog& log : logs) {
    res.checked += log.checked_online;
    res.wrong += log.wrong;
    for (const Pending& p : log.pending) {
      auto [it, added] = key_of.emplace(std::make_pair(p.task, p.deps.get()), 0);
      if (!added) continue;
      it->second = Fnv1a(ExactTaskText(*p.task, *p.deps, *w.universe().catalog));
      if (known->count(it->second) == 0) {
        questions.push_back(Question{p.task, p.deps});
        keys.push_back(it->second);
      }
    }
  }
  const std::vector<int> answers = OracleAnswers(w.universe(), questions);
  for (size_t i = 0; i < answers.size(); ++i) {
    (*known)[keys[i]] = answers[i];
    (*found)[keys[i]] = answers[i];
  }
  for (const ClientLog& log : logs) {
    for (const Pending& p : log.pending) {
      const int expected = known->at(key_of.at({p.task, p.deps.get()}));
      if (expected < 0) {
        ++res.unverified;
        continue;
      }
      ++res.checked;
      if (expected != p.verdict && ++res.wrong <= 3) {
        std::fprintf(stderr, "WRONG VERDICT: %s ⊆ %s under %s: engine %d, expected %d\n",
                     p.task->q->ToString().c_str(), p.task->q_prime->ToString().c_str(),
                     p.deps->ToString(*w.universe().catalog).c_str(), p.verdict,
                     expected);
      }
    }
  }
  return res;
}

// Cost of one span record, measured in this process: the traced run's
// overhead is this times the spans it recorded.
double SpanCostNs() {
  Tracer t;
  t.spans.reserve(200000);
  const int64_t start = Tracer::Now();
  for (int i = 0; i < 100000; ++i) t.End(t.Begin("x", -1, 0));
  return static_cast<double>(Tracer::Now() - start) / 100000.0;
}

// The per-layer metric table (names, units); values default to 0 where a
// layer does not take part in a workload.
const std::vector<std::pair<std::string, std::string>>& LayerTable() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"engine.submit_us", "us"},
      {"engine.overhead_us", "us"},
      {"executor.tasks", "count/req"},
      {"executor.steals", "count/req"},
      {"sigma_class.sigma_key_us", "us"},
      {"sigma_class.analyze_us", "us"},
      {"canonical.task_key_us", "us"},
      {"canonical.key_bytes", "bytes"},
      {"tier.lookup_us.lru", "us"},
      {"tier.lookup_us.store", "us"},
      {"tier.lookup_us.remote", "us"},
      {"tier.lookup_us.miss", "us"},
      {"tier.lru_hit_ratio", "ratio"},
      {"tier.store_hit_ratio", "ratio"},
      {"tier.remote_hit_ratio", "ratio"},
      {"tier.publish_us", "us"},
      {"tier.flush_ms", "ms"},
      {"store.records_flushed", "count/req"},
      {"store.write_errors", "count"},
      {"net.round_trip_us.p50", "us"},
      {"net.round_trip_us.p99", "us"},
      {"net.round_trips", "count/req"},
      {"net.keys_per_batched_fetch", "count"},
      {"net.negative_hits", "count/req"},
      {"net.transport_errors", "count"},
      {"net.reconnects", "count"},
      {"net.server_requests", "count"},
      {"net.bytes_in", "bytes/req"},
      {"net.bytes_out", "bytes/req"},
      {"chase.init_ms", "ms"},
      {"chase.expand_ms", "ms"},
      {"chase.join_ms", "ms"},
      {"chase.retain_ms", "ms"},
      {"chase.fd_ms", "ms"},
      {"chase.steps", "count"},
      {"chase.alive_conjuncts", "count"},
      {"chase.levels", "count"},
      {"chase.index_rebuilds", "count"},
      {"chase.prefix_reuse_ratio", "ratio"},
      {"homomorphism.search_ms", "ms"},
      {"homomorphism.searches_per_request", "count"},
      {"homomorphism.facts_scanned", "count"},
      {"homomorphism.alive_copy_ms", "ms"},
      {"homomorphism.useful_ratio", "ratio"},
      {"pspace.stream_ms", "ms"},
      {"pspace.fallbacks", "count"},
      {"lineage.evolve_p50_ms", "ms"},
      {"lineage.delta_ms", "ms"},
      {"lineage.entries_retagged", "count"},
      {"lineage.entries_dropped", "count"},
      {"lineage.keep_ratio", "ratio"},
      {"lineage.monotone_hits", "count"},
      {"lineage.rechases_after_edit", "count"},
      {"control.deadline_overrun_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"trace.coverage_frac", "ratio"},
  };
  return table;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Counter state at one edge of the window: the engine's, and the replay's
// tier stack and store.
struct Snapshot {
  cqchase::EngineStats engine;
  std::vector<cqchase::VerdictTierStats> tiers;
  cqchase::VerdictStoreStats store;
};

Snapshot Take(Workload& w) {
  Snapshot s;
  s.engine = w.engine().stats();
  if (Replay* r = w.replay()) {
    s.tiers = r->tier_stats();
    if (r->local_store() != nullptr) s.store = r->local_store()->stats();
  }
  return s;
}

// The replay tier whose name starts with `prefix` ("lru", "store", "remote"),
// as the difference between two snapshots; all zero when absent.
cqchase::VerdictTierStats TierDelta(const Snapshot& a, const Snapshot& b,
                                    const std::string& prefix) {
  cqchase::VerdictTierStats d;
  for (size_t i = 0; i < b.tiers.size() && i < a.tiers.size(); ++i) {
    const auto& x = a.tiers[i];
    const auto& y = b.tiers[i];
    if (y.name.rfind(prefix, 0) != 0) continue;
    d.lookups = y.lookups - x.lookups;
    d.hits = y.hits - x.hits;
    d.batched_fetches = y.batched_fetches - x.batched_fetches;
    d.batched_keys = y.batched_keys - x.batched_keys;
    d.negative_hits = y.negative_hits - x.negative_hits;
    d.transport_errors = y.transport_errors - x.transport_errors;
    d.reconnects = y.reconnects - x.reconnects;
    return d;
  }
  return d;
}

MetricMap LayerMetrics(Workload& w, const std::vector<ClientLog>& logs,
                       const Snapshot& start, const Snapshot& end) {
  const cqchase::EngineStats& before = start.engine;
  const cqchase::EngineStats& after = end.engine;
  MetricMap m;
  for (const auto& [name, unit] : LayerTable()) m[name] = {0.0, unit};
  const TraceLog& log = *w.trace();
  const std::vector<Span>& spans = log.tracer.spans;
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> self_us;  // by span name
  double root_total_ns = 0;
  double root_covered_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    self_us[spans[i].name].push_back(static_cast<double>(self[i]) / 1e3);
    if (spans[i].parent < 0) {
      const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      root_total_ns += dur;
      root_covered_ns += dur - static_cast<double>(self[i]);
    }
  }
  auto med = [&](const char* name) { return Median(self_us[name]); };
  auto mean_ms = [&](const char* name) { return Mean(self_us[name]) / 1e3; };
  auto set = [&](const std::string& name, double v) { m[name].first = v; };

  const double n = static_cast<double>(std::max<size_t>(1, log.outcomes.size()));
  set("engine.submit_us", Median(log.submit_us));
  std::vector<double> overhead;
  for (size_t i = 0; i < log.outcomes.size(); ++i) {
    const int32_t root = log.outcomes[i].root;
    if (root < 0) continue;
    const double covered =
        static_cast<double>(spans[root].end_ns - spans[root].start_ns - self[root]) / 1e3;
    overhead.push_back(log.engine_latency_us[i] - covered);
  }
  set("engine.overhead_us", Median(overhead));
  set("executor.tasks", static_cast<double>(after.executor_tasks - before.executor_tasks) / n);
  set("executor.steals", static_cast<double>(after.executor_steals - before.executor_steals) / n);
  set("sigma_class.sigma_key_us", med("sigma_class.sigma_key"));
  set("sigma_class.analyze_us", med("sigma_class.analyze"));
  set("canonical.task_key_us", med("canonical.task_key"));
  set("tier.lookup_us.lru", med("tier.lookup.lru"));
  set("tier.lookup_us.store", med("tier.lookup.store"));
  set("tier.lookup_us.remote", med("tier.lookup.remote"));
  set("tier.lookup_us.miss", med("tier.lookup.miss"));
  set("tier.publish_us", med("tier.publish"));
  set("tier.flush_ms", mean_ms("tier.flush"));
  set("chase.init_ms", mean_ms("chase.init"));
  set("homomorphism.search_ms", mean_ms("homomorphism.search"));
  set("homomorphism.alive_copy_ms", mean_ms("homomorphism.alive_copy"));
  set("pspace.stream_ms", mean_ms("pspace.stream"));

  double key_bytes = 0, keyed = 0;
  double chased = 0, built = 0, searches = 0, useful = 0, facts = 0, decided_fresh = 0;
  double steps = 0, rebuilds = 0, alive = 0, levels = 0, join = 0, retain = 0, fd = 0;
  double fallbacks = 0, monotone = 0, rechases = 0;
  std::map<int32_t, double> expand_by_request;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == "chase.expand") {
      expand_by_request[static_cast<int32_t>(spans[i].request)] +=
          static_cast<double>(self[i]) / 1e6;
    }
  }
  for (size_t i = 0; i < log.outcomes.size(); ++i) {
    const ReplayOutcome& o = log.outcomes[i];
    if (o.key_bytes > 0) {
      key_bytes += static_cast<double>(o.key_bytes);
      ++keyed;
    }
    if (o.monotone_hit) ++monotone;
    if (o.key_bytes > 0 && o.tier < 0) {
      ++decided_fresh;
      searches += o.searches;
      useful += o.useful_searches;
      facts += static_cast<double>(o.facts_scanned);
    }
    if (o.stream_fallback) ++fallbacks;
    if (o.chased) {
      ++chased;
      if (o.chase_built) ++built;
      steps += static_cast<double>(o.chase_steps);
      rebuilds += static_cast<double>(o.index_rebuilds);
      alive += static_cast<double>(o.alive_conjuncts);
      levels += o.levels;
      join += o.join_ms;
      retain += o.retain_ms;
      fd += o.fd_ms;
      if (log.after_edit[i]) ++rechases;
    }
  }
  double expand_total = 0;
  for (const auto& [req, ms] : expand_by_request) expand_total += ms;
  set("canonical.key_bytes", Ratio(key_bytes, keyed));
  // Hit ratios from the tiers' own counters: they include SubmitAll's
  // batched prefetch probes, which per-request lookups never see.
  const cqchase::VerdictTierStats lru_d = TierDelta(start, end, "lru");
  const cqchase::VerdictTierStats store_d = TierDelta(start, end, "store");
  const cqchase::VerdictTierStats remote_d = TierDelta(start, end, "remote");
  auto hit_ratio = [](const cqchase::VerdictTierStats& d) {
    return Ratio(static_cast<double>(d.hits), static_cast<double>(d.lookups));
  };
  set("tier.lru_hit_ratio", hit_ratio(lru_d));
  set("tier.store_hit_ratio", hit_ratio(store_d));
  set("tier.remote_hit_ratio", hit_ratio(remote_d));
  set("store.records_flushed",
      static_cast<double>(end.store.records_flushed - start.store.records_flushed) / n);
  set("store.write_errors",
      static_cast<double>(end.store.write_errors - start.store.write_errors));
  set("net.keys_per_batched_fetch", Ratio(static_cast<double>(remote_d.batched_keys),
                                          static_cast<double>(remote_d.batched_fetches)));
  set("net.negative_hits", static_cast<double>(remote_d.negative_hits) / n);
  set("net.transport_errors", static_cast<double>(remote_d.transport_errors));
  set("net.reconnects", static_cast<double>(remote_d.reconnects));
  set("chase.expand_ms", Ratio(expand_total, chased));
  set("chase.join_ms", Ratio(join, chased));
  set("chase.retain_ms", Ratio(retain, chased));
  set("chase.fd_ms", Ratio(fd, chased));
  set("chase.steps", Ratio(steps, chased));
  set("chase.alive_conjuncts", Ratio(alive, chased));
  set("chase.levels", Ratio(levels, chased));
  set("chase.index_rebuilds", Ratio(rebuilds, chased));
  set("chase.prefix_reuse_ratio", Ratio(chased - built, chased));
  set("homomorphism.searches_per_request", Ratio(searches, decided_fresh));
  set("homomorphism.facts_scanned", Ratio(facts, searches));
  set("homomorphism.useful_ratio", Ratio(useful, searches));
  set("pspace.fallbacks", fallbacks);
  set("lineage.monotone_hits", monotone);
  set("lineage.rechases_after_edit", rechases);

  double retagged = 0, dropped = 0, examined = 0;
  for (const auto& r : log.edits) {
    retagged += static_cast<double>(r.retagged());
    dropped += static_cast<double>(r.dropped);
    examined += static_cast<double>(r.examined);
  }
  const double edits = static_cast<double>(log.edits.size());
  double edit_us = 0;
  for (const char* name : {"lineage.delta", "lineage.drop_caches", "lineage.apply"}) {
    for (double us : self_us[name]) edit_us += us;
  }
  set("lineage.evolve_p50_ms", Median(w.evolve_ms()));
  set("lineage.delta_ms", Ratio(edit_us, edits) / 1e3);
  set("lineage.entries_retagged", Ratio(retagged, edits));
  set("lineage.entries_dropped", Ratio(dropped, edits));
  set("lineage.keep_ratio", Ratio(retagged, examined));

  std::vector<double> overrun;
  for (const ClientLog& log : logs) {
    overrun.insert(overrun.end(), log.overrun_ms.begin(), log.overrun_ms.end());
  }
  set("control.deadline_overrun_ms", Median(overrun));
  set("trace.overhead_frac", Ratio(SpanCostNs() * static_cast<double>(spans.size()), root_total_ns));
  set("trace.coverage_frac", Ratio(root_covered_ns, root_total_ns));
  w.LayerMetrics(&m);
  return m;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") opt->workload = v;
    else if (k == "--seed") opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") opt->trace = v == "1";
    else if (k == "--workdir") opt->workdir = v;
    else return false;
  }
  // verdict_authorityd is built next to this binary.
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  opt->daemon = (self.parent_path() / "verdict_authorityd").string();
  return argc % 2 == 1 && !opt->workload.empty() && opt->seconds > 0;
}

// The timed window runs at least kMinWindows times, each time in its own
// process that sets the workload up from the same seed: the same request
// streams from the same state, with no allocator, symbol-table or engine
// state left over from an earlier window (in one process, each further
// window started with more resident memory and slower fast requests). As
// the windows do the same work, what differs between them is the host: the
// window that returned the most verdicts per second is reported, the others
// discarded; every window's verdicts are checked. Host interference only
// slows a window down (steal, a neighbour's memory traffic, a descheduled
// vCPU on the executor hop), so the fastest window is the steadiest figure
// of the program. After kMinWindows, one more window runs when the host was
// visibly busy through all of them: every window so far ran with more than
// kMaxStealShare of the CPU time stolen by the hypervisor (the `steal`
// column of /proc/stat), or the two fastest differ by more than
// kMaxFastestGap of the faster one. kMaxWindows and the age limit
// kLastWindowStartS bound a run's length, and so the time a whole set of
// runs takes.
constexpr size_t kMinWindows = 3;
constexpr size_t kMaxWindows = 4;
constexpr double kMaxStealShare = 0.03;
constexpr double kMaxFastestGap = 0.04;
constexpr double kLastWindowStartS = 40;

// The percentiles of latency a window reports.
constexpr double kSummaryPercentiles[] = {10, 25, 50, 75, 90, 99};

// FNV-1a over the exact text of every question: the child that answered
// them and the process that uses the answers must have generated the same
// questions.
uint64_t QuestionsFingerprint(const Workload& w, const std::vector<Question>& questions) {
  uint64_t h = 1469598103934665603ull;
  for (const Question& q : questions) {
    h = Fnv1a(ExactTaskText(*q.task, *q.deps, *w.universe().catalog), h);
    h = Fnv1a("\xff", h);
  }
  return h;
}

// The oracle's answers to a workload's OracleQuestions, computed once per
// run by the first child process, and the times of the set-ups it made.
struct OracleReply {
  std::vector<double> setup_s;
  uint64_t fingerprint = 0;
  std::vector<int> answers;  // OracleAnswers' encoding
};

Status ApplyOracle(Workload& w, const OracleReply& oracle) {
  const std::vector<Question> questions = w.OracleQuestions();
  if (questions.size() != oracle.answers.size() ||
      QuestionsFingerprint(w, questions) != oracle.fingerprint) {
    return Status::Internal("the oracle's child process generated other questions");
  }
  w.SetOracleAnswers(questions, oracle.answers);
  return Status::OK();
}

// One timed window: its figures over all of its samples, and its check.
struct Window {
  bool ok = true;  // no wrong verdict, workload invariants held
  double setup_s = 0;
  double seconds = 0;
  double steal_share = 0;
  double peak_rss_mb = 0;
  double evolve_p50_ms = -1;  // -1: the window made no schema edit
  uint64_t clients = 0;
  uint64_t attempted = 0;
  uint64_t decided = 0;
  std::vector<double> percentiles_ms;  // at kSummaryPercentiles
  std::map<std::string, uint64_t> failures;
  CheckResult check;

  double decided_per_s() const { return Ratio(static_cast<double>(decided), seconds); }
  double p50_ms() const { return percentiles_ms[2]; }
  double p99_ms() const { return percentiles_ms[5]; }

  // One line of space-separated fields; failures as CODE=n,... or '-'.
  std::string Encode() const {
    std::string line = StrCat(ok ? 1 : 0, " ", JsonNumber(setup_s), " ", JsonNumber(seconds),
                              " ", JsonNumber(steal_share), " ", JsonNumber(peak_rss_mb), " ",
                              JsonNumber(evolve_p50_ms), " ", clients, " ", attempted, " ",
                              decided, " ", check.checked, " ", check.wrong, " ",
                              check.unverified);
    for (double p : percentiles_ms) line += StrCat(" ", JsonNumber(p));
    std::string codes;
    for (const auto& [code, n] : failures) codes += StrCat(codes.empty() ? "" : ",", code, "=", n);
    return StrCat(line, " ", codes.empty() ? "-" : codes);
  }

  static bool Decode(const std::string& line, Window* w) {
    std::istringstream in(line);
    int ok = 0;
    in >> ok >> w->setup_s >> w->seconds >> w->steal_share >> w->peak_rss_mb >>
        w->evolve_p50_ms >> w->clients >> w->attempted >> w->decided >> w->check.checked >>
        w->check.wrong >> w->check.unverified;
    w->ok = ok == 1;
    w->percentiles_ms.assign(std::size(kSummaryPercentiles), 0.0);
    for (double& p : w->percentiles_ms) in >> p;
    std::string codes;
    in >> codes;
    if (!in) return false;
    std::istringstream list(codes == "-" ? "" : codes);
    std::string item;
    while (std::getline(list, item, ',')) {
      const size_t eq = item.find('=');
      if (eq == std::string::npos) return false;
      w->failures[item.substr(0, eq)] = std::strtoull(item.c_str() + eq + 1, nullptr, 10);
    }
    return true;
  }
};

// Runs the timed window on a set-up workload and checks it: invariants, and
// every verdict against the oracle.
Window MeasureWindow(Workload& w, const Options& opt, std::vector<ClientLog>* logs,
                     Snapshot* start, Snapshot* end, KnownAnswers* known,
                     KnownAnswers* found) {
  malloc_trim(0);  // return the set-up's freed heap before the peak is reset
  Window win;
  win.clients = opt.trace ? 1 : w.clients();
  *start = Take(w);
  w.BeginWindow();
  ResetPeakRss();  // the peak covers the window
  const CpuTicks cpu_start = ReadCpuTicks();
  win.seconds = RunWindow(w, win.clients, opt.seconds, logs, opt.seed);
  win.peak_rss_mb = PeakRssMb();
  const CpuTicks cpu_end = ReadCpuTicks();
  w.EndWindow();
  *end = Take(w);
  win.steal_share = Ratio(cpu_end.steal - cpu_start.steal, cpu_end.total - cpu_start.total);
  const Status finished = w.Finish();

  std::vector<double> latency;
  for (const ClientLog& log : *logs) {
    for (const Sample& sample : log.samples) {
      latency.push_back(sample.latency_ms);
      if (sample.verdict >= 0) ++win.decided;
    }
    for (const auto& [code, n] : log.failures) {
      win.failures[std::string(cqchase::StatusCodeToString(code))] += n;
    }
  }
  win.attempted = latency.size();
  for (double p : kSummaryPercentiles) win.percentiles_ms.push_back(Percentile(latency, p));
  if (!w.evolve_ms().empty()) win.evolve_p50_ms = Median(w.evolve_ms());

  win.check = CheckPending(w, *logs, known, found);
  if (!finished.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", finished.ToString().c_str());
    win.ok = false;
  }
  if (win.check.wrong > 0) {
    std::fprintf(stderr, "FAIL: %llu wrong verdicts\n",
                 static_cast<unsigned long long>(win.check.wrong));
    win.ok = false;
  }
  return win;
}

// Runs `body` in a child process, forked while this process is still
// single-threaded (it never starts a thread before its last child), and
// returns the line the body replies with. A body that returns false, or a
// child that dies, is an error.
Result<std::string> InChild(const std::function<bool(std::string*)>& body) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    std::string reply;
    bool ok = body(&reply);
    reply += '\n';
    for (size_t off = 0; ok && off < reply.size();) {
      const ssize_t n = write(fds[1], reply.data() + off, reply.size() - off);
      if (n < 0 && errno == EINTR) continue;
      ok = n > 0;
      off += ok ? static_cast<size_t>(n) : 0;
    }
    std::fflush(stderr);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::string reply;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      reply.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("a child process of the run failed");
  }
  return reply;
}

// Set-up time the first child spends on set-ups of its own, so that
// setup_s is a median over several set-ups even where one is short.
constexpr double kSetupBudgetS = 2.0;

// The first child: set-ups (each torn down before the next) until
// kSetupBudgetS has passed, the oracle's answers to the last one's
// questions, teardown. Its reply: "<n> <setup_s>... <fingerprint>
// a<answers>", each answer one of 0, 1 or '-'.
Result<OracleReply> OracleInChild(Options opt) {
  opt.trace = false;
  Result<std::string> reply = InChild([&opt](std::string* out) {
    std::unique_ptr<Workload> w;
    std::vector<double> times;
    Status s;
    double spent_s = 0;
    do {
      if (w != nullptr && !(s = w->Teardown()).ok()) break;
      w = MakeWorkload(opt);
      const auto t = Clock::now();
      s = w->Setup();
      times.push_back(MsSince(t) / 1e3);
      spent_s += times.back();
    } while (s.ok() && spent_s < kSetupBudgetS);
    *out = StrCat(times.size(), " ");
    for (double t : times) *out += StrCat(JsonNumber(t), " ");
    if (s.ok()) {
      const std::vector<Question> questions = w->OracleQuestions();
      *out += StrCat(QuestionsFingerprint(*w, questions), " a");
      for (int a : OracleAnswers(w->universe(), questions)) {
        *out += a < 0 ? '-' : static_cast<char>('0' + a);
      }
    }
    const Status torn = w->Teardown();
    if (!s.ok() || !torn.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", (s.ok() ? torn : s).ToString().c_str());
      return false;
    }
    return true;
  });
  if (!reply.ok()) return reply.status();
  OracleReply r;
  std::istringstream in(*reply);
  std::string answers;
  size_t n = 0;
  in >> n;
  r.setup_s.assign(n, 0.0);
  for (double& t : r.setup_s) in >> t;
  if (!(in >> r.fingerprint >> answers) || answers[0] != 'a') {
    return Status::Internal("malformed reply from the oracle's child process");
  }
  for (size_t i = 1; i < answers.size(); ++i) {
    r.answers.push_back(answers[i] == '-' ? -1 : answers[i] - '0');
  }
  return r;
}

// One timed window in its own process: set-up (timed), the oracle's
// answers, the window and its checks, teardown. The child starts with the
// run's `known` answers; the answers its oracle found come back over the
// pipe (a second line: "<key>:<answer>" items) and are added to `known`.
Result<Window> WindowInChild(const Options& opt, const OracleReply& oracle,
                             KnownAnswers* known) {
  Result<std::string> reply = InChild([&](std::string* out) {
    std::unique_ptr<Workload> w = MakeWorkload(opt);
    const auto t = Clock::now();
    Status s = w->Setup();
    const double setup_s = MsSince(t) / 1e3;
    if (s.ok()) s = ApplyOracle(*w, oracle);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      (void)w->Teardown();
      return false;
    }
    std::vector<ClientLog> logs;
    Snapshot start;
    Snapshot end;
    KnownAnswers found;
    Window win = MeasureWindow(*w, opt, &logs, &start, &end, known, &found);
    win.setup_s = setup_s;
    const Status torn = w->Teardown();
    if (!torn.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", torn.ToString().c_str());
      win.ok = false;
    }
    if (auto* ts = dynamic_cast<TierSpill*>(w.get())) {
      std::fprintf(stderr, "  daemon: %s\n", ts->ShutdownLine().c_str());
    }
    *out = win.Encode() + "\n";
    for (const auto& [key, answer] : found) *out += StrCat(key, ":", answer, " ");
    return true;
  });
  if (!reply.ok()) return reply.status();
  const size_t eol = reply->find('\n');
  Window win;
  if (eol == std::string::npos || !Window::Decode(reply->substr(0, eol), &win)) {
    return Status::Internal("malformed reply from a window's child process");
  }
  std::istringstream in(reply->substr(eol + 1));
  uint64_t key = 0;
  char colon = 0;
  int answer = 0;
  while (in >> key >> colon >> answer) (*known)[key] = answer;
  return win;
}

void PrintMetrics(const MetricMap& metrics) {
  for (const auto& [name, vu] : metrics) {
    std::printf("  %-36s %14.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
}

// Prints the result line and returns the exit status.
int Report(const Options& opt, uint64_t attempted, uint64_t failed, const MetricMap& metrics) {
  std::string json = StrCat("{\"workload\": \"", opt.workload, "\", \"seed\": ", opt.seed,
                            ", \"correct\": true, \"attempted\": ", attempted,
                            ", \"failed\": ", failed, ", \"metrics\": {");
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    json += StrCat(first ? "" : ", ", "\"", name, "\": {\"value\": ", JsonNumber(vu.first),
                   ", \"unit\": \"", vu.second, "\"}");
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

// The traced run: one window in this process, then the per-layer metrics.
int RunTraced(const Options& opt, const OracleReply& oracle) {
  std::unique_ptr<Workload> w = MakeWorkload(opt);
  Status s = w->Setup();
  if (s.ok()) s = ApplyOracle(*w, oracle);
  if (!s.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    (void)w->Teardown();
    return 1;
  }
  std::vector<ClientLog> logs;
  Snapshot start;
  Snapshot end;
  KnownAnswers known;
  KnownAnswers found;
  const Window win = MeasureWindow(*w, opt, &logs, &start, &end, &known, &found);
  bool ok = win.ok;
  if (w->trace()->mismatches > 0) {
    std::fprintf(stderr, "FAIL: %llu replayed verdicts differ from the engine's\n",
                 static_cast<unsigned long long>(w->trace()->mismatches));
    ok = false;
  }
  const Status torn = w->Teardown();
  if (!torn.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", torn.ToString().c_str());
    ok = false;
  }
  const MetricMap metrics = LayerMetrics(*w, logs, start, end);
  // Spans are written at exit; one file per workload, replaced each run.
  std::ofstream spans_out(StrCat(opt.workdir, "/../spans-", opt.workload, ".tsv"));
  spans_out << "name\tstart_ns\tend_ns\tparent\trequest\n";
  for (const Span& span : w->trace()->tracer.spans) {
    spans_out << span.name << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
              << span.parent << '\t' << span.request << '\n';
  }

  std::printf("workload %s seed %llu (traced): %llu requests, %llu decided; verdicts: %llu "
              "checked, %llu wrong, %llu unverifiable\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(win.attempted),
              static_cast<unsigned long long>(win.decided),
              static_cast<unsigned long long>(win.check.checked),
              static_cast<unsigned long long>(win.check.wrong),
              static_cast<unsigned long long>(win.check.unverified));
  std::printf("  replay: %zu requests, %zu spans, %llu verdict mismatches, "
              "%llu decided on one side only\n",
              w->trace()->outcomes.size(), w->trace()->tracer.spans.size(),
              static_cast<unsigned long long>(w->trace()->mismatches),
              static_cast<unsigned long long>(w->trace()->one_sided));
  if (auto* ts = dynamic_cast<TierSpill*>(w.get())) {
    std::printf("  daemon: %s\n", ts->ShutdownLine().c_str());
  }
  PrintMetrics(metrics);
  if (!ok) return 3;
  return Report(opt, win.attempted, win.attempted - win.decided, metrics);
}

int Run(const Options& opt) {
  const auto run_start = Clock::now();
  if (MakeWorkload(opt) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  Result<OracleReply> oracle = OracleInChild(opt);
  if (!oracle.ok()) {
    std::fprintf(stderr, "%s\n", oracle.status().ToString().c_str());
    return 1;
  }
  if (opt.trace) return RunTraced(opt, *oracle);

  // setup_s is the median over every set-up of the run (the oracle's
  // child's and each window's), so one slow start (page cache, allocator
  // growth, a busy neighbour) does not decide it.
  std::vector<double> setup_s = oracle->setup_s;
  std::vector<Window> windows;
  KnownAnswers known;
  size_t best = 0;
  double least_steal = 1;
  bool ok = true;
  for (;;) {
    Result<Window> win = WindowInChild(opt, *oracle, &known);
    if (!win.ok()) {
      std::fprintf(stderr, "%s\n", win.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(win->setup_s);
    windows.push_back(*std::move(win));
    if (!windows.back().ok) {
      ok = false;
      break;
    }
    if (windows.back().decided_per_s() > windows[best].decided_per_s()) {
      best = windows.size() - 1;
    }
    least_steal = std::min(least_steal, windows.back().steal_share);
    std::vector<double> rates;
    for (const Window& win : windows) rates.push_back(win.decided_per_s());
    std::sort(rates.begin(), rates.end(), std::greater<double>());
    const bool busy_host = least_steal > kMaxStealShare ||
                           (rates.size() > 1 && rates[1] < (1 - kMaxFastestGap) * rates[0]);
    if (windows.size() >= kMinWindows &&
        (!busy_host || windows.size() >= kMaxWindows ||
         MsSince(run_start) / 1e3 >= kLastWindowStartS)) {
      break;
    }
  }

  const Window& reported = windows[best];
  const uint64_t attempted = reported.attempted;
  const uint64_t decided = reported.decided;
  const uint64_t failed = attempted - decided;
  MetricMap metrics;
  metrics["setup_s"] = {Median(setup_s), "s"};
  metrics["latency_p50_ms"] = {reported.p50_ms(), "ms"};
  metrics["latency_p99_ms"] = {reported.p99_ms(), "ms"};
  metrics["decided_per_s"] = {reported.decided_per_s(), "1/s"};
  metrics["decided_frac"] = {Ratio(static_cast<double>(decided), static_cast<double>(attempted)), "ratio"};
  metrics["peak_rss_mb"] = {reported.peak_rss_mb, "MiB"};
  if (reported.evolve_p50_ms >= 0) metrics["evolve_p50_ms"] = {reported.evolve_p50_ms, "ms"};

  // Human-readable summary (the JSON line below is the machine result).
  std::printf("workload %s seed %llu: %llu attempted, %llu decided, %llu without verdict",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(decided),
              static_cast<unsigned long long>(failed));
  for (const auto& [code, n] : reported.failures) {
    std::printf(" [%s %llu]", code.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n  failed_frac %.6f; %zu set-ups; %llu clients\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              setup_s.size(), static_cast<unsigned long long>(reported.clients));
  CheckResult check;
  for (size_t i = 0; i < windows.size(); ++i) {
    const Window& win = windows[i];
    std::printf("  window %zu%s: %.3f s, %.1f%% of CPU time stolen by the hypervisor, "
                "%.1f decided/s, peak RSS %.1f MiB, latency ms",
                i + 1, i == best ? " (reported)" : " (discarded)", win.seconds,
                100.0 * win.steal_share, win.decided_per_s(), win.peak_rss_mb);
    for (size_t k = 0; k < win.percentiles_ms.size(); ++k) {
      std::printf(" p%g %.4f", kSummaryPercentiles[k], win.percentiles_ms[k]);
    }
    std::printf(" (%zu samples beyond p99)\n", SamplesBeyond(win.attempted, 99));
    check.checked += win.check.checked;
    check.wrong += win.check.wrong;
    check.unverified += win.check.unverified;
  }
  std::printf("  verdicts: %llu checked against the oracle or a planted answer, "
              "%llu wrong, %llu unverifiable\n",
              static_cast<unsigned long long>(check.checked),
              static_cast<unsigned long long>(check.wrong),
              static_cast<unsigned long long>(check.unverified));
  PrintMetrics(metrics);
  if (!ok) return 3;
  return Report(opt, attempted, failed, metrics);
}

}  // namespace
}  // namespace cqbench

int main(int argc, char** argv) {
  cqbench::Options opt;
  if (!cqbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload cold_decide|hot_reask|tier_spill --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n",
                 argv[0]);
    return 2;
  }
  return cqbench::Run(opt);
}
