// popbench: the repository's wire-level benchmark.
//
// Each run stands up net::NetServer over a QueryService on loopback, in
// this process, and drives it with SQL from client threads. Every result is
// checked. The last line of standard output is one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   popbench --workload tpch_scan|dmv_adhoc|mixed_oltp --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// The traced run replays the same seeded requests and records spans in
// memory around the benchmark's calls into each popdb module (the module
// name is the span's layer); the spans are written to DIR at the end.
// METRICS.md next to this program defines every metric.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/executor_builder.h"
#include "core/pop.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "opt/plan_cache.h"
#include "runtime/morsel_dispatcher.h"
#include "runtime/query_service.h"
#include "spans.h"
#include "sql/binder.h"
#include "txn/write_manager.h"
#include "workloads.h"

namespace popbench {
namespace {

using popdb::Catalog;
using popdb::Result;
using popdb::Row;
using popdb::Status;
using popdb::Value;

double NowMs() { return NowUs() / 1000.0; }

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000.0 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1000.0;
}

/// Current resident set size (/proc/self/statm), in MB.
double RssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* v, double pct) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v->size())));
  return (*v)[std::min(v->size(), std::max<size_t>(rank, 1)) - 1];
}

/// Morsel parallelism: 2, or 1 on a single core. Not the core count: a
/// shared host's hypervisor takes cores away from a guest that keeps all
/// of them busy, and a parallel stage waits for its slowest worker. On a
/// 4-vCPU guest, identical dmv_adhoc runs lost up to 17% of the guest's
/// CPU time to the hypervisor and read 42-66 reads/s at dop 4, 58-71 at
/// dop 2 (METRICS.md, Server configuration).
int IntraQueryDop() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::min(2, std::max(1, cores));
}

// ------------------------------------------------------------- set-up.

/// One served database: catalog, write path, service, wire server, and
/// one connected client per workload thread plus a control connection.
struct Env {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<popdb::txn::WriteManager> writes;
  std::unique_ptr<popdb::QueryService> service;
  std::unique_ptr<popdb::net::NetServer> server;
  std::vector<popdb::net::Client> clients;
  double generate_s = 0.0;

  popdb::net::Client& control() { return clients.back(); }

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    for (popdb::net::Client& c : clients) c.Close();
    if (server != nullptr) server->Shutdown();
    if (service != nullptr) service->Shutdown();
  }
};

Result<std::unique_ptr<Env>> SetUp(Workload& wl) {
  auto env = std::make_unique<Env>();
  env->catalog = std::make_unique<Catalog>();
  const double t0 = NowMs();
  Status s = wl.Generate(env->catalog.get());
  if (!s.ok()) return s;
  env->generate_s = (NowMs() - t0) / 1000.0;

  // The shipped defaults, with morsel parallelism (IntraQueryDop).
  popdb::ServiceConfig config;
  config.intra_query_dop = IntraQueryDop();
  env->service = std::make_unique<popdb::QueryService>(*env->catalog, config);
  if (!wl.written_tables().empty()) {
    env->writes = std::make_unique<popdb::txn::WriteManager>(env->catalog.get());
    env->service->AttachWriteManager(env->writes.get());
  }
  const int conns = wl.readers() + wl.writers() + 1;
  popdb::net::NetServerConfig net_config;
  net_config.num_workers = conns;  // One worker serves one connection.
  env->server = std::make_unique<popdb::net::NetServer>(
      env->service.get(), nullptr, net_config);
  s = env->server->Start();
  if (!s.ok()) return s;
  for (int i = 0; i < conns; ++i) {
    Result<popdb::net::Client> c =
        popdb::net::Client::Connect("127.0.0.1", env->server->port(), 60000.0);
    if (!c.ok()) return c.status();
    env->clients.push_back(std::move(c).TakeValue());
  }
  return env;
}

// ----------------------------------------------------- /metrics scrape.

/// Sum of every sample of `name` (any labels) in a Prometheus exposition.
double MetricSum(const std::string& text, const std::string& name) {
  double sum = 0.0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, name.size(), name) == 0 && pos + name.size() < eol) {
      const char next = text[pos + name.size()];
      if (next == ' ' || next == '{') {
        const size_t sp = text.rfind(' ', eol);
        if (sp != std::string::npos && sp > pos) {
          sum += std::strtod(text.c_str() + sp + 1, nullptr);
        }
      }
    }
    pos = eol + 1;
  }
  return sum;
}

// ------------------------------------------------------ traced replay.

/// Forwards OnPrune to the validity analyzer and times it.
class TimedObserver : public popdb::PruneObserver {
 public:
  explicit TimedObserver(popdb::ValidityRangeAnalyzer* inner) : inner_(inner) {}
  void OnPrune(popdb::PlanNode* winner, const popdb::PlanNode& loser) override {
    const double t0 = NowUs();
    inner_->OnPrune(winner, loser);
    us_ += NowUs() - t0;
  }
  double us() const { return us_; }

 private:
  popdb::ValidityRangeAnalyzer* inner_;
  double us_ = 0.0;
};

/// Per-layer sums of one client thread in the traced run.
struct LayerSums {
  // Wire (client side of each read's round trip).
  int64_t wire_reads = 0;
  double net_overhead_ms = 0.0;
  double server_ms = 0.0;
  double queue_ms = 0.0;
  // In-process replay.
  int64_t replay_reads = 0;
  int64_t replay_writes = 0;
  double parse_us = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  int64_t rows_coded = 0;
  int64_t reopts = 0;
  int64_t checks_fired = 0;
  double reopt_optimize_ms = 0.0;
  int64_t work = 0;
  int64_t work_discarded = 0;
  int64_t mv_rows = 0;
  double execute_ms = 0.0;
  double apply_ms = 0.0;
  // First pinned_reads() reads of reader 0 (repeatable counts).
  int64_t pinned = 0;
  int64_t pinned_work = 0;
  int64_t pinned_reopts = 0;
  // Probes: stand-alone calls that split the optimizer's work.
  int64_t probes = 0;
  double lookup_us = 0.0;
  double optimize_ms = 0.0;
  double validity_ms = 0.0;
  int64_t validity_evals = 0;
  int64_t candidates = 0;
  double placement_us = 0.0;
  int64_t checks_placed = 0;
  double build_us = 0.0;

  void Add(const LayerSums& o) {
    wire_reads += o.wire_reads;
    net_overhead_ms += o.net_overhead_ms;
    server_ms += o.server_ms;
    queue_ms += o.queue_ms;
    replay_reads += o.replay_reads;
    replay_writes += o.replay_writes;
    parse_us += o.parse_us;
    encode_us += o.encode_us;
    decode_us += o.decode_us;
    rows_coded += o.rows_coded;
    reopts += o.reopts;
    checks_fired += o.checks_fired;
    reopt_optimize_ms += o.reopt_optimize_ms;
    work += o.work;
    work_discarded += o.work_discarded;
    mv_rows += o.mv_rows;
    execute_ms += o.execute_ms;
    apply_ms += o.apply_ms;
    pinned += o.pinned;
    pinned_work += o.pinned_work;
    pinned_reopts += o.pinned_reopts;
    probes += o.probes;
    lookup_us += o.lookup_us;
    optimize_ms += o.optimize_ms;
    validity_ms += o.validity_ms;
    validity_evals += o.validity_evals;
    candidates += o.candidates;
    placement_us += o.placement_us;
    checks_placed += o.checks_placed;
    build_us += o.build_us;
  }
};

/// State the replaying threads share, mirroring the server's: one plan
/// cache, one feedback store and one morsel pool. The probe cache only
/// times PlanCache::Lookup.
struct ReplayShared {
  explicit ReplayShared(int dop)
      : pool(std::max(0, dop - 1)) {
    policy.dop = dop;
  }
  popdb::PlanCache plan_cache;
  popdb::PlanCache probe_cache;
  popdb::QueryFeedbackStore feedback;
  popdb::MorselDispatcher pool;
  popdb::ParallelPolicy policy;
};

/// One thread's replay of requests through the modules' public calls.
class Replayer {
 public:
  Replayer(Env* env, ReplayShared* shared, int64_t span_base)
      : env_(env),
        shared_(shared),
        spans_(span_base),
        exec_(*env->catalog, popdb::OptimizerConfig{}, popdb::PopConfig{}) {
    exec_.set_plan_cache(&shared->plan_cache);
    exec_.set_cross_query_store(&shared->feedback);
    exec_.set_parallel(shared->policy.dop > 1 ? &shared->pool : nullptr,
                       shared->policy);
    exec_.set_plan_hook(
        [this](popdb::PlanNode*, int) { hooks_.push_back(NowUs()); });
  }

  /// Replays a read; returns its rows (checked by the caller).
  Result<std::vector<Row>> Read(const Request& req, int64_t request_id,
                                bool pinned, LayerSums* sums) {
    const Catalog& catalog = *env_->catalog;
    const double r0 = NowUs();
    Result<popdb::sql::BoundStatement> bound =
        popdb::sql::ParseSqlStatement(catalog, req.sql, req.params);
    const double r1 = NowUs();
    if (!bound.ok()) return bound.status();
    const popdb::QuerySpec& query = bound.value().query;

    hooks_.clear();
    popdb::ExecutionStats stats;
    const double c0 = NowUs();
    Result<std::vector<Row>> rows = exec_.Execute(query, &stats);
    const double c1 = NowUs();
    if (!rows.ok()) return rows.status();

    // Result encoding as the server streams it (row_batch frames of 256
    // rows), then the client's decoding.
    const std::vector<Row>& out = rows.value();
    std::vector<std::string> frames;
    const double e0 = NowUs();
    for (size_t b = 0; b < out.size(); b += 256) {
      popdb::JsonWriter w;
      w.BeginArray();
      for (size_t i = b; i < std::min(out.size(), b + 256); ++i) {
        popdb::net::AppendRowJson(out[i], &w);
      }
      w.EndArray();
      frames.push_back(w.str());
    }
    const double e1 = NowUs();
    int64_t decoded = 0;
    for (const std::string& f : frames) {
      Result<popdb::JsonValue> doc = popdb::JsonParse(f);
      if (!doc.ok()) return doc.status();
      for (const popdb::JsonValue& item : doc.value().items()) {
        decoded += popdb::net::RowFromJson(item).ok() ? 1 : 0;
      }
    }
    const double e2 = NowUs();

    const int64_t root = spans_.Add(0, request_id, "request", "request", r0, e2);
    spans_.Add(root, request_id, "sql::ParseSqlStatement", "sql", r0, r1);
    const int64_t core = spans_.Add(root, request_id,
                                    "ProgressiveExecutor::Execute", "core", c0, c1);
    // Attempt a: optimization (cache lookup, DP, validity, placement) up to
    // the plan hook, then execution from the hook to the attempt's end.
    double attempt_start = c0;
    double execute_us = 0.0;
    for (size_t a = 0; a < stats.attempts.size() && a < hooks_.size(); ++a) {
      const double hook = hooks_[a];
      const double end =
          a + 1 < hooks_.size()
              ? hooks_[a + 1] - stats.attempts[a + 1].optimize_ms * 1000.0
              : c1;
      spans_.Add(core, request_id, "attempt optimize", "opt", attempt_start,
                 hook);
      spans_.Add(core, request_id, "attempt execute", "exec", hook, end);
      execute_us += std::max(0.0, end - hook);
      attempt_start = end;
      if (a > 0) sums->reopt_optimize_ms += stats.attempts[a].optimize_ms;
      if (stats.attempts[a].reoptimized) {
        sums->work_discarded += stats.attempts[a].work;
      }
    }
    spans_.Add(root, request_id, "net::AppendRowJson", "net", e0, e1);
    spans_.Add(root, request_id, "net::RowFromJson", "net", e1, e2);

    ++sums->replay_reads;
    sums->parse_us += r1 - r0;
    sums->encode_us += e1 - e0;
    sums->decode_us += e2 - e1;
    sums->rows_coded += decoded;
    sums->reopts += stats.reopts;
    for (const popdb::CheckEvent& ev : stats.check_events) {
      sums->checks_fired += ev.fired ? 1 : 0;
    }
    sums->work += stats.total_work;
    sums->mv_rows += stats.mv_rows_harvested;
    sums->execute_ms += execute_us / 1000.0;
    if (pinned) {
      ++sums->pinned;
      sums->pinned_work += stats.total_work;
      sums->pinned_reopts += stats.reopts;
    }
    Probe(query, request_id, sums);
    return rows;
  }

  /// Replays a write: parse/bind, then the write path's Apply.
  Result<int64_t> Write(const Request& req, int64_t request_id,
                        LayerSums* sums) {
    const double r0 = NowUs();
    Result<popdb::sql::BoundStatement> bound =
        popdb::sql::ParseSqlStatement(*env_->catalog, req.sql, req.params);
    const double r1 = NowUs();
    if (!bound.ok()) return bound.status();
    Result<popdb::txn::WriteResult> res = env_->writes->Apply(bound.value().write);
    const double r2 = NowUs();
    if (!res.ok()) return res.status();
    const int64_t root = spans_.Add(0, request_id, "request", "request", r0, r2);
    spans_.Add(root, request_id, "sql::ParseSqlStatement", "sql", r0, r1);
    spans_.Add(root, request_id, "txn::WriteManager::Apply", "txn", r1, r2);
    ++sums->replay_writes;
    sums->parse_us += r1 - r0;
    sums->apply_ms += (r2 - r1) / 1000.0;
    return res.value().affected_rows;
  }

  /// Records the wire round trip of a read (client view plus the
  /// server-reported total and queue time).
  void Wire(int64_t request_id, double t0_us, double t1_us,
            const popdb::net::ClientQueryResult& r) {
    const int64_t rt = spans_.Add(0, request_id, "net::Client::Query", "wire",
                                  t0_us, t1_us);
    const double mid = (t0_us + t1_us) / 2.0;
    const int64_t srv = spans_.Add(rt, request_id, "QueryService (reported)",
                                   "runtime", mid - r.total_ms * 500.0,
                                   mid + r.total_ms * 500.0);
    spans_.Add(srv, request_id, "admission queue (reported)", "runtime",
               mid - r.total_ms * 500.0,
               mid - r.total_ms * 500.0 + r.queue_ms * 1000.0);
  }

  std::vector<Span>& spans() { return spans_.spans(); }

 private:
  /// Stand-alone calls outside the request timeline that split the
  /// optimizer's work into enumeration, validity analysis, placement and
  /// executor construction, and time one plan-cache lookup.
  void Probe(const popdb::QuerySpec& query, int64_t request_id,
             LayerSums* sums) {
    const Catalog& catalog = *env_->catalog;
    const popdb::OptimizerConfig opt_config;
    const popdb::PopConfig pop_config;
    const popdb::CostModel cost(opt_config.cost);
    const double p0 = NowUs();
    const std::string key = popdb::QueryCacheSignature(query);
    const int64_t version = catalog.stats_version();
    const double l0 = NowUs();
    popdb::PlanCache::LookupResult cached =
        shared_->probe_cache.Lookup(key, 0, version, 0, popdb::FeedbackMap{});
    const double l1 = NowUs();

    popdb::ValidityRangeAnalyzer analyzer(cost, pop_config.validity);
    TimedObserver observer(&analyzer);
    const popdb::Optimizer optimizer(catalog, opt_config);
    const double o0 = NowUs();
    Result<popdb::OptimizedPlan> plan =
        optimizer.Optimize(query, nullptr, nullptr, &observer);
    const double o1 = NowUs();
    if (!plan.ok()) return;
    if (!cached.hit()) {
      shared_->probe_cache.Install(key, plan.value().root->Clone(), 0, version,
                                   0, plan.value().candidates,
                                   plan.value().est_cost, plan.value().est_card);
    }
    std::shared_ptr<popdb::PlanNode> root = plan.value().root;
    const double q0 = NowUs();
    const popdb::PlacementStats placed = popdb::PlaceCheckpoints(
        &root, pop_config, cost, !query.has_aggregation());
    const double q1 = NowUs();
    popdb::ExecutorBuilder builder(catalog, query, nullptr,
                                   pop_config.reuse_hsjn_builds,
                                   shared_->policy);
    const double b0 = NowUs();
    const bool built = builder.Build(*root).ok();
    const double b1 = NowUs();

    const int64_t probe = spans_.Add(0, request_id, "probe", "probe", p0, b1);
    spans_.Add(probe, request_id, "PlanCache::Lookup", "opt", l0, l1);
    const int64_t opt = spans_.Add(probe, request_id, "Optimizer::Optimize",
                                   "opt", o0, o1);
    spans_.Add(opt, request_id, "ValidityRangeAnalyzer::OnPrune (sum)", "core",
               o1 - observer.us(), o1);
    spans_.Add(probe, request_id, "PlaceCheckpoints", "core", q0, q1);
    spans_.Add(probe, request_id, "ExecutorBuilder::Build", "core", b0, b1);

    ++sums->probes;
    sums->lookup_us += l1 - l0;
    sums->optimize_ms += (o1 - o0) / 1000.0;
    sums->validity_ms += observer.us() / 1000.0;
    sums->validity_evals += analyzer.cost_evaluations();
    sums->candidates += plan.value().candidates;
    sums->placement_us += q1 - q0;
    sums->checks_placed +=
        placed.lc + placed.lcem + placed.ecb + placed.ecwc + placed.ecdc;
    sums->build_us += built ? b1 - b0 : 0.0;
  }

  Env* env_;
  ReplayShared* shared_;
  SpanBuffer spans_;
  popdb::ProgressiveExecutor exec_;
  std::vector<double> hooks_;  ///< Plan-hook times of the current query.
};

// ------------------------------------------------------------ a phase.

/// Everything one timed phase measured.
struct PhaseResult {
  double elapsed_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool exhausted = false;
  std::vector<double> read_ms;
  std::vector<double> write_ms;  ///< From each write's scheduled send time.
  // Completion times (ms since the phase started), parallel to the above.
  std::vector<double> read_done;
  std::vector<double> write_done;
  // Process CPU per measurement window; windows split the phase evenly.
  std::vector<double> window_cpu_ms;
  double window_ms = 0.0;
  std::vector<double> rss_mb;  ///< RSS samples taken during the phase.
  double retained_rss_mb = 0.0;  ///< RSS after the phase, freed memory
                                 ///< returned to the OS.
  double lateness_ms = 0.0;      ///< Sum over writes.
  LayerSums sums;
  std::vector<Span> spans;
  std::string metrics_before;
  std::string metrics_after;
  double live_rows_ratio = 1.0;
  int64_t folds = 0;
};

void ReportFailure(const std::string& what) {
  static std::mutex mu;
  static int shown = 0;
  std::lock_guard<std::mutex> lock(mu);
  if (shown++ < 10) std::fprintf(stderr, "popbench: FAILED %s\n", what.c_str());
}

Result<int64_t> LiveRows(popdb::net::Client& c, const std::vector<std::string>& tables) {
  int64_t rows = 0;
  for (const std::string& t : tables) {
    popdb::net::ClientQueryResult r = c.Query("SELECT COUNT(*) FROM " + t);
    if (!r.status.ok()) return r.status;
    if (r.rows.size() != 1) return Status::Internal("bad COUNT(*) result");
    rows += static_cast<int64_t>(r.rows[0][0].AsNumeric());
  }
  return rows;
}

/// Runs the workload's client threads against `env` for `warmup_s` and
/// then `seconds`; only the second part is measured (the requests of the
/// warm-up are still checked). With `traced`, reads are also replayed
/// in-process with spans and writes go to the write path directly.
PhaseResult RunPhase(Env* env, Workload& wl, double warmup_s, double seconds,
                     bool traced) {
  PhaseResult res;
  wl.Reset();
  const std::vector<std::string> tables = wl.written_tables();
  int64_t rows_before = 0;
  if (!tables.empty()) {
    Result<int64_t> n = LiveRows(env->control(), tables);
    rows_before = n.ok() ? n.value() : 0;
  }
  const int64_t folds_before = env->writes ? env->writes->stats_folds() : 0;
  if (traced) {
    Result<std::string> m = env->control().Metrics();
    res.metrics_before = m.ok() ? m.value() : "";
  }
  std::unique_ptr<ReplayShared> shared;
  if (traced) shared = std::make_unique<ReplayShared>(IntraQueryDop());

  const int threads = wl.readers() + wl.writers();
  struct ThreadOut {
    int64_t attempted = 0;
    int64_t failed = 0;
    bool exhausted = false;
    std::vector<double> read_ms;
    std::vector<double> write_ms;
    std::vector<double> read_done;
    std::vector<double> write_done;
    double lateness_ms = 0.0;
    LayerSums sums;
    std::vector<Span> spans;
  };
  std::vector<ThreadOut> outs(static_cast<size_t>(threads));
  // Writers are scheduled from `begin`; measurement starts at `start`.
  const double begin = NowMs();
  const double start = begin + warmup_s * 1000.0;
  const double deadline = start + seconds * 1000.0;
  const int windows = std::clamp(static_cast<int>(seconds), 1, 10);
  res.window_ms = seconds * 1000.0 / windows;
  // Samples process CPU at every window boundary and RSS every 100 ms.
  std::thread sampler([&] {
    while (NowMs() < start) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>((start - NowMs()) * 1000.0) + 1));
    }
    res.rss_mb.push_back(RssMb());
    double prev = ProcessCpuMs();
    for (int k = 1; k <= windows;) {
      const double boundary = start + k * res.window_ms;
      const double until = std::min(boundary, NowMs() + 100.0);
      while (NowMs() < until) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>((until - NowMs()) * 1000.0) + 1));
      }
      res.rss_mb.push_back(RssMb());
      if (NowMs() >= boundary) {
        const double now = ProcessCpuMs();
        res.window_cpu_ms.push_back(now - prev);
        prev = now;
        ++k;
      }
    }
  });
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ThreadOut& out = outs[static_cast<size_t>(t)];
      popdb::net::Client& client = env->clients[static_cast<size_t>(t)];
      const bool writer = t >= wl.readers();
      std::unique_ptr<Replayer> replay;
      if (traced) {
        replay = std::make_unique<Replayer>(env, shared.get(),
                                            (static_cast<int64_t>(t) + 1) << 40);
      }
      for (int64_t i = 0;; ++i) {
        double due = 0.0;
        double lateness = 0.0;
        if (writer) {
          due = begin + static_cast<double>(i) * 1000.0 / wl.writer_rate();
          if (due >= deadline) break;
          while (NowMs() < due) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<int64_t>((due - NowMs()) * 1000.0) + 1));
          }
          lateness = NowMs() - due;
        } else if (NowMs() >= deadline) {
          break;
        }
        Request req;
        if (!wl.Next(t, i, &req)) {
          out.exhausted = true;
          break;
        }
        ++out.attempted;
        const int64_t request_id = (static_cast<int64_t>(t) << 32) | i;
        std::string why;
        if (!req.write) {
          popdb::net::ClientQueryOptions opts;
          opts.params = req.params;
          const double t0 = NowUs();
          popdb::net::ClientQueryResult r = client.Query(req.sql, opts);
          const double t1 = NowUs();
          bool ok = r.status.ok();
          if (!ok) why = r.status.message();
          if (ok) ok = wl.CheckRead(req, r.rows, &why);
          if (ok && replay != nullptr) {
            ++out.sums.wire_reads;
            out.sums.net_overhead_ms += (t1 - t0) / 1000.0 - r.total_ms;
            out.sums.server_ms += r.total_ms;
            out.sums.queue_ms += r.queue_ms;
            replay->Wire(request_id, t0, t1, r);
            const bool pinned = t == 0 && i < wl.pinned_reads();
            Result<std::vector<Row>> again =
                replay->Read(req, request_id, pinned, &out.sums);
            ok = again.ok();
            if (!ok) why = again.status().message();
            if (ok) ok = wl.CheckRead(req, again.value(), &why);
          }
          if (!ok) {
            ++out.failed;
            ReportFailure(req.sql + ": " + why);
          } else if (t1 / 1000.0 >= start) {
            out.read_ms.push_back((t1 - t0) / 1000.0);
            out.read_done.push_back(t1 / 1000.0 - start);
          }
          continue;
        }
        int64_t affected = 0;
        bool ok;
        if (replay != nullptr) {
          Result<int64_t> n = replay->Write(req, request_id, &out.sums);
          ok = n.ok();
          if (ok) affected = n.value(); else why = n.status().message();
        } else {
          popdb::net::ClientQueryOptions opts;
          opts.params = req.params;
          popdb::net::ClientWriteResult w = client.Write(req.sql, opts);
          ok = w.status.ok();
          if (ok) affected = w.affected_rows; else why = w.status.message();
        }
        if (ok) ok = wl.AckWrite(t, req, affected, &why);
        const double done = NowMs();
        if (!ok) {
          ++out.failed;
          ReportFailure(req.sql + ": " + why);
        } else if (done >= start) {
          out.write_ms.push_back(done - due);
          out.write_done.push_back(done - start);
          out.lateness_ms += lateness;
        }
      }
      if (replay != nullptr) out.spans = std::move(replay->spans());
    });
  }
  for (std::thread& th : pool) th.join();
  sampler.join();
  malloc_trim(0);
  res.retained_rss_mb = RssMb();
  res.elapsed_s = (NowMs() - start) / 1000.0;

  for (ThreadOut& out : outs) {
    res.attempted += out.attempted;
    res.failed += out.failed;
    res.exhausted = res.exhausted || out.exhausted;
    res.read_ms.insert(res.read_ms.end(), out.read_ms.begin(), out.read_ms.end());
    res.write_ms.insert(res.write_ms.end(), out.write_ms.begin(),
                        out.write_ms.end());
    res.read_done.insert(res.read_done.end(), out.read_done.begin(),
                         out.read_done.end());
    res.write_done.insert(res.write_done.end(), out.write_done.begin(),
                          out.write_done.end());
    res.lateness_ms += out.lateness_ms;
    res.sums.Add(out.sums);
    res.spans.insert(res.spans.end(), std::make_move_iterator(out.spans.begin()),
                     std::make_move_iterator(out.spans.end()));
  }

  // End-of-phase reconciliation against the acknowledged writes.
  popdb::net::Client& control = env->control();
  std::string why;
  ++res.attempted;
  const bool reconciled = wl.Reconcile(
      [&](const std::string& sql) -> Result<std::vector<Row>> {
        popdb::net::ClientQueryResult r = control.Query(sql);
        if (!r.status.ok()) return r.status;
        return r.rows;
      },
      &why);
  if (!reconciled) {
    ++res.failed;
    ReportFailure("reconciliation: " + why);
  }
  if (!tables.empty()) {
    Result<int64_t> n = LiveRows(control, tables);
    if (n.ok() && rows_before > 0) {
      res.live_rows_ratio = static_cast<double>(n.value()) /
                            static_cast<double>(rows_before);
    }
  }
  res.folds = (env->writes ? env->writes->stats_folds() : 0) - folds_before;
  if (traced) {
    Result<std::string> m = control.Metrics();
    res.metrics_after = m.ok() ? m.value() : "";
  }
  return res;
}

/// Per-window medians: the phase is cut into equal windows and each
/// statistic is taken per window, then the median over windows is
/// reported, so a burst of host noise in one window does not move it.
/// The tail is taken per window only on workloads that ask for it
/// (Workload::windowed_tail); elsewhere it is taken over the whole phase,
/// since per window it would leave too few reads beyond the percentile.
struct WindowMedians {
  double read_qps = 0.0;
  double read_p50_ms = 0.0;
  double read_tail_ms = 0.0;
  double cpu_ms_per_op = 0.0;
};

WindowMedians MedianOverWindows(PhaseResult* p, double tail_pct,
                                bool windowed_tail) {
  const size_t n = p->window_cpu_ms.size();
  std::vector<std::vector<double>> lat(n);
  std::vector<double> ops(n, 0.0);
  auto window_of = [&](double done_ms) {
    return std::min(n - 1, static_cast<size_t>(std::max(0.0, done_ms) /
                                               p->window_ms));
  };
  for (size_t i = 0; i < p->read_done.size(); ++i) {
    const size_t w = window_of(p->read_done[i]);
    lat[w].push_back(p->read_ms[i]);
    ops[w] += 1.0;
  }
  for (const double done : p->write_done) ops[window_of(done)] += 1.0;
  // read_qps: the median over one-second bins of the reads done in each,
  // each read counted as one unit spread evenly over its round trip (so
  // the count is not an integer). A single client's rare multi-second read
  // starves a bin or two but does not move the median; read_qps_mean in
  // the report keeps it.
  std::vector<double> per_second(static_cast<size_t>(
      std::max(1.0, std::floor(p->window_ms * static_cast<double>(n) / 1000.0))));
  const double phase_ms = 1000.0 * static_cast<double>(per_second.size());
  for (size_t i = 0; i < p->read_done.size(); ++i) {
    const double end = std::min(p->read_done[i], phase_ms);
    const double begin = std::max(0.0, p->read_done[i] - p->read_ms[i]);
    if (p->read_ms[i] <= 0.0 || end <= begin) continue;
    for (double t = begin; t < end;) {
      const double bin_end = std::min(end, (std::floor(t / 1000.0) + 1.0) * 1000.0);
      per_second[static_cast<size_t>(t / 1000.0)] += (bin_end - t) / p->read_ms[i];
      t = bin_end;
    }
  }
  std::vector<double> p50;
  std::vector<double> tail;
  std::vector<double> cpu;
  for (size_t w = 0; w < n; ++w) {
    if (!lat[w].empty()) p50.push_back(Percentile(&lat[w], 50.0));
    if (!lat[w].empty()) tail.push_back(Percentile(&lat[w], tail_pct));
    if (ops[w] > 0.0) cpu.push_back(p->window_cpu_ms[w] / ops[w]);
  }
  std::printf("  read latency p90 / p95 / p99 over the phase: %.4f / %.4f / %.4f ms\n",
              Percentile(&p->read_ms, 90.0), Percentile(&p->read_ms, 95.0),
              Percentile(&p->read_ms, 99.0));
  {
    // How much of the read time the slowest 1% of reads take: a large
    // share makes read_qps_mean depend on how many of them a run draws.
    std::vector<double> sorted = p->read_ms;
    std::sort(sorted.begin(), sorted.end());
    double all = 0.0;
    double slow = 0.0;
    for (size_t i = 0; i < sorted.size(); ++i) {
      all += sorted[i];
      if (i >= sorted.size() - sorted.size() / 100) slow += sorted[i];
    }
    std::printf("  slowest 1%% of reads: %.1f%% of read time\n",
                all > 0.0 ? 100.0 * slow / all : 0.0);
  }
  std::printf("  reads per %.0f ms window:", p->window_ms);
  for (size_t w = 0; w < n; ++w) std::printf(" %zu", lat[w].size());
  std::printf("\n");
  WindowMedians m;
  m.read_qps = Percentile(&per_second, 50.0);
  m.read_p50_ms = Percentile(&p50, 50.0);
  m.read_tail_ms = windowed_tail ? Percentile(&tail, 50.0)
                                 : Percentile(&p->read_ms, tail_pct);
  m.cpu_ms_per_op = Percentile(&cpu, 50.0);
  return m;
}

// ------------------------------------------------------------ output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintReport(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else if (key == "--out-dir") {
      args->out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0.0;
}

/// Set-ups measured per run, in two rounds, one before the timed phase
/// and one after it, so that they sample the host at both ends of the run:
/// each round has at least kSetupReps and at least kSetupMinS seconds of
/// set-ups (fast set-ups are repeated more, so scheduling jitter averages
/// out). setup_s reports the median of both rounds.
constexpr int kSetupReps = 3;
constexpr double kSetupMinS = 1.5;
constexpr int kSetupMaxReps = 50;
/// Untimed lead-in of the end-to-end phase: the plan cache, the feedback
/// store and the allocator warm up before the first measured window.
constexpr double kWarmupS = 2.0;

/// One round of timed set-ups (see kSetupReps); appends each set-up's
/// seconds to `setup_s` and returns the last set-up.
Result<std::unique_ptr<Env>> SetUpRound(Workload& wl,
                                        std::vector<double>* setup_s) {
  std::unique_ptr<Env> env;
  double total_s = 0.0;
  for (int r = 0;
       r < kSetupMaxReps && (r < kSetupReps || total_s < kSetupMinS); ++r) {
    env.reset();
    const double t0 = NowMs();
    Result<std::unique_ptr<Env>> e = SetUp(wl);
    if (!e.ok()) return e.status();
    setup_s->push_back((NowMs() - t0) / 1000.0);
    total_s += setup_s->back();
    env = std::move(e).TakeValue();
  }
  return env;
}

int RunEndToEnd(Workload& wl, const Args& args) {
  std::vector<double> setup_s;
  Result<std::unique_ptr<Env>> e = SetUpRound(wl, &setup_s);
  if (!e.ok()) {
    std::fprintf(stderr, "popbench: set-up failed: %s\n",
                 e.status().message().c_str());
    return 2;
  }
  std::unique_ptr<Env> env = std::move(e).TakeValue();
  const double generate_s = env->generate_s;
  const double idle_rss_mb = RssMb();
  Status s = wl.Prepare(*env->catalog, args.seed, kWarmupS + args.seconds);
  if (!s.ok()) {
    std::fprintf(stderr, "popbench: prepare failed: %s\n", s.message().c_str());
    return 2;
  }
  // Hand the reference pass's transient memory back before measuring.
  malloc_trim(0);
  PhaseResult p = RunPhase(env.get(), wl, kWarmupS, args.seconds, false);
  env.reset();
  if (Result<std::unique_ptr<Env>> again = SetUpRound(wl, &setup_s);
      !again.ok()) {
    std::fprintf(stderr, "popbench: set-up failed: %s\n",
                 again.status().message().c_str());
    return 2;
  }

  const size_t reads = p.read_ms.size();
  const size_t writes = p.write_ms.size();
  const WindowMedians wm =
      MedianOverWindows(&p, wl.tail_pct(), wl.windowed_tail());
  const double write_p50 = Percentile(&p.write_ms, 50.0);
  const double write_tail = Percentile(&p.write_ms, 99.0);
  const std::vector<Metric> e2e = {
      {"setup_s", Percentile(&setup_s, 50.0), "s"},
      {"read_qps", wm.read_qps, "1/s"},
      {"read_p50_ms", wm.read_p50_ms, "ms"},
      {"read_tail_ms", wm.read_tail_ms, "ms"},
      {"cpu_ms_per_op", wm.cpu_ms_per_op, "ms"},
      {"rss_mb", idle_rss_mb, "MB"},
  };
  std::vector<Metric> report = e2e;
  report.push_back({"read_qps_mean", static_cast<double>(reads) / p.elapsed_s,
                    "1/s"});
  report.push_back({"peak_rss_mb", Percentile(&p.rss_mb, 100.0), "MB"});
  report.push_back({"retained_rss_mb", p.retained_rss_mb, "MB"});
  report.push_back({"write_p50_ms", write_p50, "ms"});
  report.push_back({"write_tail_ms", write_tail, "ms"});
  report.push_back({"failed_frac", Ratio(static_cast<double>(p.failed),
                                         static_cast<double>(p.attempted)),
                    "fraction"});
  report.push_back({"storage.generate_s", generate_s, "s"});
  char title[256];
  std::snprintf(title, sizeof(title),
                "popbench %s seed=%llu: %zu reads, %zu writes in %.2f s; "
                "read tail = p%.0f, write tail = p99",
                wl.name().c_str(), static_cast<unsigned long long>(args.seed),
                reads, writes, p.elapsed_s, wl.tail_pct());
  PrintReport(title, report);
  std::printf("  set-ups: %zu, %.4f / %.4f / %.4f s min / median / max\n",
              setup_s.size(), Percentile(&setup_s, 0.0),
              Percentile(&setup_s, 50.0), Percentile(&setup_s, 100.0));
  if (p.exhausted) {
    std::printf("  note: the request stream ran out before the deadline\n");
  }
  const double tail_rank = static_cast<double>(reads) * (1.0 - wl.tail_pct() / 100.0);
  if (tail_rank < 10.0) {
    std::printf("  note: fewer than 10 reads beyond the tail percentile\n");
  }
  const bool correct = p.failed == 0;
  PrintResult(correct, p.attempted, p.failed, e2e);
  return correct ? 0 : 1;
}

int RunTraced(Workload& wl, const Args& args) {
  // Untraced reference for trace.overhead_frac, then the traced phase;
  // each on a fresh set-up, each for half the run.
  const double half = args.seconds / 2.0;
  Result<std::unique_ptr<Env>> e = SetUp(wl);
  if (!e.ok()) {
    std::fprintf(stderr, "popbench: set-up failed: %s\n",
                 e.status().message().c_str());
    return 2;
  }
  std::unique_ptr<Env> env = std::move(e).TakeValue();
  const double generate_s = env->generate_s;
  Status s = wl.Prepare(*env->catalog, args.seed, args.seconds);
  if (!s.ok()) {
    std::fprintf(stderr, "popbench: prepare failed: %s\n", s.message().c_str());
    return 2;
  }
  // Hand the reference pass's transient memory back before measuring.
  malloc_trim(0);
  PhaseResult plain = RunPhase(env.get(), wl, 0.0, half, false);
  env.reset();
  e = SetUp(wl);
  if (!e.ok()) {
    std::fprintf(stderr, "popbench: set-up failed: %s\n",
                 e.status().message().c_str());
    return 2;
  }
  env = std::move(e).TakeValue();
  PhaseResult p = RunPhase(env.get(), wl, 0.0, half, true);
  env.reset();

  const LayerSums& s2 = p.sums;
  const double wire = static_cast<double>(std::max<int64_t>(1, s2.wire_reads));
  const double reads = static_cast<double>(std::max<int64_t>(1, s2.replay_reads));
  const double probes = static_cast<double>(std::max<int64_t>(1, s2.probes));
  const double writes = static_cast<double>(s2.replay_writes);
  // Repeatable counts come from the pinned prefix of the stream; a
  // workload without one (concurrent writers) averages over every read.
  const bool has_pinned = s2.pinned > 0;
  const double pinned = has_pinned ? static_cast<double>(s2.pinned) : reads;
  const double pinned_work =
      static_cast<double>(has_pinned ? s2.pinned_work : s2.work);
  const double pinned_reopts =
      static_cast<double>(has_pinned ? s2.pinned_reopts : s2.reopts);
  auto delta = [&](const char* name) {
    return MetricSum(p.metrics_after, name) - MetricSum(p.metrics_before, name);
  };
  const double lookups = delta("popdb_plan_cache_lookups");

  // Self time per layer over the replayed requests' timelines.
  std::map<std::string, double> self = LayerSelfUs(p.spans, "request");
  double total_us = 0.0;
  for (const auto& [layer, us] : self) total_us += us;
  auto share = [&](std::initializer_list<const char*> layers) {
    double us = 0.0;
    for (const char* l : layers) us += self[l];
    return Ratio(us, total_us);
  };

  const double p50_plain = Percentile(&plain.read_ms, 50.0);
  const double p50_traced = Percentile(&p.read_ms, 50.0);
  const std::vector<Metric> layers = {
      {"net.overhead_ms", s2.net_overhead_ms / wire, "ms"},
      {"net.encode_us_per_row", Ratio(s2.encode_us, s2.rows_coded), "us"},
      {"net.decode_us_per_row", Ratio(s2.decode_us, s2.rows_coded), "us"},
      {"sql.parse_bind_us",
       Ratio(s2.parse_us, static_cast<double>(s2.replay_reads + s2.replay_writes)),
       "us"},
      {"runtime.server_ms", s2.server_ms / wire, "ms"},
      {"runtime.queue_ms", s2.queue_ms / wire, "ms"},
      {"runtime.morsels_per_query",
       delta("popdb_morsels_dispatched_total") / wire, "count"},
      {"runtime.parallel_frac",
       Ratio(delta("popdb_parallel_work_units_total"),
             delta("popdb_work_units_total")),
       "fraction"},
      {"opt.enumerate_ms", (s2.optimize_ms - s2.validity_ms) / probes, "ms"},
      {"opt.candidates_per_query", static_cast<double>(s2.candidates) / probes,
       "count"},
      {"opt.plan_cache.hit_rate", Ratio(delta("popdb_plan_cache_hits"), lookups),
       "fraction"},
      {"opt.plan_cache.stale_evictions",
       delta("popdb_plan_cache_stale_stats_evictions_total"), "count"},
      {"opt.plan_cache.lookup_us", s2.lookup_us / probes, "us"},
      {"core.validity_ms", s2.validity_ms / probes, "ms"},
      {"core.validity_cost_evals", static_cast<double>(s2.validity_evals) / probes,
       "count"},
      {"core.placement_us", s2.placement_us / probes, "us"},
      {"core.checks_placed_per_query",
       static_cast<double>(s2.checks_placed) / probes, "count"},
      {"core.build_us", s2.build_us / probes, "us"},
      {"core.reopts_per_query", pinned_reopts / pinned, "count"},
      {"core.checks_fired_per_query", static_cast<double>(s2.checks_fired) / reads,
       "count"},
      {"core.reopt_optimize_ms", s2.reopt_optimize_ms / reads, "ms"},
      {"core.work_discarded_frac",
       Ratio(static_cast<double>(s2.work_discarded), static_cast<double>(s2.work)),
       "fraction"},
      {"core.mv_rows_reused", static_cast<double>(s2.mv_rows) / reads, "count"},
      {"exec.execute_ms", s2.execute_ms / reads, "ms"},
      {"exec.work_per_query", pinned_work / pinned, "count"},
      {"exec.work_per_ms", Ratio(static_cast<double>(s2.work), s2.execute_ms),
       "1/ms"},
      {"txn.apply_ms", writes > 0 ? s2.apply_ms / writes : 0.0, "ms"},
      {"txn.stats_folds_per_1k_writes",
       writes > 0 ? static_cast<double>(p.folds) * 1000.0 / writes : 0.0, "count"},
      {"storage.generate_s", generate_s, "s"},
      {"storage.live_rows_ratio", p.live_rows_ratio, "ratio"},
      {"load.writer_lateness_ms",
       p.write_ms.empty() ? 0.0
                          : p.lateness_ms / static_cast<double>(p.write_ms.size()),
       "ms"},
      {"trace.overhead_frac", Ratio(p50_traced, p50_plain) - 1.0, "fraction"},
      {"trace.unattributed_frac", Ratio(self["unattributed"], total_us),
       "fraction"},
      {"split.exec_frac", share({"exec"}), "fraction"},
      {"split.opt_core_frac", share({"opt", "core"}), "fraction"},
      {"split.front_frac", share({"net", "sql", "runtime"}), "fraction"},
      {"split.txn_frac", share({"txn"}), "fraction"},
  };
  char title[256];
  std::snprintf(title, sizeof(title),
                "popbench %s seed=%llu traced: %lld wire reads, %lld replayed "
                "reads, %lld replayed writes; pinned counts over the first "
                "%lld reads",
                wl.name().c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<long long>(s2.wire_reads),
                static_cast<long long>(s2.replay_reads),
                static_cast<long long>(s2.replay_writes),
                static_cast<long long>(s2.pinned));
  PrintReport(title, layers);
  const std::string path = args.out_dir + "/trace_" + wl.name() + "_" +
                           std::to_string(args.seed) + ".json";
  // Bounds the file (about 15 MB); the split above used every span.
  constexpr size_t kMaxWrittenSpans = 100000;
  if (WriteChromeTrace(p.spans, kMaxWrittenSpans, path)) {
    std::printf("  spans: %zu recorded, the first %zu written to %s\n",
                p.spans.size(), std::min(p.spans.size(), kMaxWrittenSpans),
                path.c_str());
  }
  const int64_t failed = plain.failed + p.failed;
  const bool correct = failed == 0;
  PrintResult(correct, plain.attempted + p.attempted, failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace popbench

int main(int argc, char** argv) {
  popbench::Args args;
  if (!popbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: popbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  std::unique_ptr<popbench::Workload> wl = popbench::MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "popbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace ? popbench::RunTraced(*wl, args)
                    : popbench::RunEndToEnd(*wl, args);
}
