#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <thread>

#include "core/pop.h"
#include "digest.h"
#include "dmv/dmv_gen.h"
#include "dmv/dmv_queries.h"
#include "opt/plan_cache.h"
#include "render.h"
#include "spans.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popbench {

using popdb::Catalog;
using popdb::QuerySpec;
using popdb::Result;
using popdb::Row;
using popdb::Status;
using popdb::Value;

namespace {

/// SplitMix64 finalizer: a seeded, position-addressable pseudo-random pick.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Reference result of `query`: classic optimize-once execution through
/// the row engine (batch_rows 1), serial, with no plan cache. A positive
/// `deadline_ms` bounds it (the result is then DeadlineExceeded). `work`,
/// when given, receives the execution's work units.
Result<RowDigest> Reference(const Catalog& catalog, const QuerySpec& query,
                            double deadline_ms = 0.0,
                            int64_t* work = nullptr) {
  popdb::ProgressiveExecutor exec(catalog, popdb::OptimizerConfig{},
                                  popdb::PopConfig{});
  popdb::ParallelPolicy serial;
  serial.batch_rows = 1;
  exec.set_parallel(nullptr, serial);
  popdb::CancelToken deadline;
  if (deadline_ms > 0.0) {
    deadline.SetDeadlineAfterMs(deadline_ms);
    exec.set_cancel_token(&deadline);
  }
  popdb::ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.ExecuteStatic(query, &stats);
  if (!rows.ok()) return rows.status();
  if (work != nullptr) *work = stats.total_work;
  return MakeDigest(query, std::move(rows).TakeValue());
}

/// A read checked against a reference digest.
struct CheckedRead {
  QuerySpec spec{""};
  SqlRequest request;
  RowDigest reference;
  bool excluded = false;  ///< Reference too costly; not in the stream.
  int64_t work = 0;       ///< Work units of the reference execution.
};

bool CheckAgainst(const CheckedRead& read, const std::vector<Row>& rows,
                  std::string* why) {
  if (DigestsMatch(read.reference, MakeDigest(read.spec, rows), why)) {
    return true;
  }
  *why = read.spec.name() + ": " + *why;
  return false;
}

/// Fisher-Yates shuffle driven by Mix(seed + step).
void SeededShuffle(std::vector<size_t>* v, uint64_t seed) {
  for (size_t i = v->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(Mix(seed + i) % i);
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

// ------------------------------------------------------------ tpch_scan.

/// The ten TPC-H paper queries with their headline predicate as a
/// parameter marker, bound from a small pool per query. One client, closed
/// loop; every signature repeats, so the plan cache serves every plan after
/// the first cycle and execution dominates.
class TpchScan : public Workload {
 public:
  std::string name() const override { return "tpch_scan"; }
  double tail_pct() const override { return 95.0; }
  int64_t pinned_reads() const override { return 33; }

  Status Generate(Catalog* catalog) override {
    popdb::tpch::GenConfig gen;
    gen.scale = 0.02;
    return popdb::tpch::BuildCatalog(gen, catalog);
  }

  Status Prepare(const Catalog& catalog, uint64_t seed, double) override {
    seed_ = seed;
    reads_.clear();
    first_.clear();
    for (const int qn : popdb::tpch::PaperQueries()) {
      // The renderer must round-trip the literal form too.
      if (Result<SqlRequest> plain =
              RenderChecked(popdb::tpch::MakeQuery(qn), catalog);
          !plain.ok()) {
        return plain.status();
      }
      popdb::tpch::QueryOptions opts;
      opts.param_markers = true;
      first_[qn] = static_cast<int>(reads_.size());
      for (const Value& v : Pool(qn)) {
        CheckedRead read;
        read.spec = popdb::tpch::MakeQuery(qn, opts);
        read.spec.RebindParam(0, v);
        Result<SqlRequest> req = RenderChecked(read.spec, catalog);
        if (!req.ok()) return req.status();
        read.request = std::move(req).TakeValue();
        Result<RowDigest> ref = Reference(catalog, read.spec);
        if (!ref.ok()) return ref.status();
        read.reference = std::move(ref).TakeValue();
        reads_.push_back(std::move(read));
      }
    }
    return Status::Ok();
  }

  void Reset() override {}

  bool Next(int, int64_t i, Request* req) override {
    // One cycle runs every paper query once plus Q4 a second time: five
    // requests of the cycle are faster than Q10 and five slower, so the
    // median request is a Q10 execution instead of the boundary between
    // two queries' latency modes.
    static const int kCycle[] = {2, 3, 4, 5, 7, 8, 9, 10, 11, 18, 4};
    constexpr int64_t kLen = sizeof(kCycle) / sizeof(kCycle[0]);
    const int64_t slot = i % kLen;
    const int qn = kCycle[slot];
    // Bindings rotate through the pool, so every seed runs the same mix;
    // the seed picks where each query's rotation starts.
    const int64_t pool = static_cast<int64_t>(Pool(qn).size());
    const int64_t turn =
        i / kLen + (slot == kLen - 1 ? 1 : 0) +
        static_cast<int64_t>(Mix(seed_ * 131u + static_cast<uint64_t>(qn)) %
                             static_cast<uint64_t>(pool));
    const int ref = first_[qn] + static_cast<int>(turn % pool);
    req->write = false;
    req->sql = reads_[static_cast<size_t>(ref)].request.sql;
    req->params = reads_[static_cast<size_t>(ref)].request.params;
    req->ref = ref;
    return true;
  }

  bool CheckRead(const Request& req, const std::vector<Row>& rows,
                 std::string* why) override {
    return CheckAgainst(reads_[static_cast<size_t>(req.ref)], rows, why);
  }

 private:
  /// Headline-predicate bindings per query: the paper's literal plus
  /// values of similar selectivity from the same domain.
  static std::vector<Value> Pool(int qn) {
    auto strs = [](std::initializer_list<const char*> xs) {
      std::vector<Value> out;
      for (const char* x : xs) out.push_back(Value::String(x));
      return out;
    };
    switch (qn) {
      case 2:
        return {Value::Int(15), Value::Int(23), Value::Int(41)};
      case 3:
        return strs({"BUILDING", "MACHINERY", "HOUSEHOLD"});
      case 4:
        return {Value::Int(890), Value::Int(905), Value::Int(920)};
      case 5:
        return strs({"ASIA", "EUROPE", "AMERICA"});
      case 7:
        return strs({"FRANCE", "CHINA", "JAPAN"});
      case 8:
        return strs({"ECONOMY ANODIZED STEEL", "STANDARD POLISHED BRASS",
                     "PROMO BURNISHED COPPER"});
      case 9:
        return strs({"%BRASS%", "%STEEL%", "%COPPER%"});
      case 10:
        return strs({"R", "A", "N"});
      case 11:
        return strs({"GERMANY", "FRANCE", "BRAZIL"});
      case 18:
        return {Value::Int(45), Value::Int(46), Value::Int(47)};
      default:
        return {};
    }
  }

  uint64_t seed_ = 0;
  std::vector<CheckedRead> reads_;
  std::map<int, int> first_;  ///< Query number -> first pool entry.
};

// ----------------------------------------------------------- dmv_adhoc.

/// Distinct DMV decision-support queries (dmv::MakeWorkload over
/// successive seeds): correlated multi-way joins where every request has a
/// new signature, so every plan-cache lookup misses and the optimizer,
/// validity ranges, placement and re-optimization do real work.
class DmvAdhoc : public Workload {
 public:
  static constexpr double kReferenceDeadlineMs = 1000.0;
  /// Stream length per second of run: about 1.5 times the rate a 4-vCPU
  /// host reaches, so the stream outlasts the run.
  static constexpr double kQueriesPerSecond = 140.0;
  static constexpr size_t kChunk = 1000;
  static constexpr size_t kStrata = 50;

  std::string name() const override { return "dmv_adhoc"; }
  double tail_pct() const override { return 95.0; }
  int64_t pinned_reads() const override { return 100; }

  Status Generate(Catalog* catalog) override {
    return popdb::dmv::BuildCatalog(popdb::dmv::GenConfig{}, catalog);
  }

  /// Generates distinct queries in chunks of kChunk, enough chunks for
  /// kQueriesPerSecond x `seconds` requests, computes their references (on
  /// four threads) and orders each chunk in strata, so that every run
  /// draws the same mix of cheap and costly queries: a chunk's queries are
  /// ranked by reference work and cut into kStrata strata, and each block
  /// of kStrata consecutive requests holds one query of every stratum, in
  /// a seeded order. Without this, the read rate of a stretch of the run
  /// follows how many of the few costliest queries (the slowest 1% of
  /// reads take about a quarter of the read time) it draws. The stream
  /// does not depend on `seconds` beyond its length. A query whose
  /// reference does not finish within kReferenceDeadlineMs is left out:
  /// some generated fan-out joins grow memory by about a GB a second under
  /// any plan (see METRICS.md).
  Status Prepare(const Catalog& catalog, uint64_t seed,
                 double seconds) override {
    std::vector<CheckedRead> reads;
    std::set<std::string> seen;
    const size_t chunks =
        static_cast<size_t>(std::ceil(kQueriesPerSecond * seconds / kChunk));
    for (uint64_t k = 0; reads.size() < chunks * kChunk; ++k) {
      popdb::dmv::WorkloadConfig wc;
      // Mixed so that nearby generator seeds, whose first draws are
      // correlated, never feed one stream.
      wc.seed = Mix(seed * 100003u + k);
      for (QuerySpec& q : popdb::dmv::MakeWorkload(wc)) {
        if (reads.size() == chunks * kChunk) break;
        if (!seen.insert(popdb::QueryCacheSignature(q)).second) continue;
        Result<SqlRequest> req = RenderChecked(q, catalog);
        if (!req.ok()) return req.status();
        CheckedRead read;
        read.spec = std::move(q);
        read.request = std::move(req).TakeValue();
        reads.push_back(std::move(read));
      }
    }
    constexpr int kThreads = 4;
    std::vector<Status> errors(kThreads, Status::Ok());
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (size_t i = static_cast<size_t>(t); i < reads.size();
             i += kThreads) {
          Result<RowDigest> ref = Reference(catalog, reads[i].spec,
                                            kReferenceDeadlineMs,
                                            &reads[i].work);
          if (ref.status().code() == popdb::StatusCode::kDeadlineExceeded) {
            reads[i].excluded = true;
            continue;
          }
          if (!ref.ok()) {
            errors[static_cast<size_t>(t)] = ref.status();
            return;
          }
          reads[i].reference = std::move(ref).TakeValue();
        }
      });
    }
    for (std::thread& th : pool) th.join();
    for (const Status& s : errors) {
      if (!s.ok()) return s;
    }
    reads_.clear();
    size_t excluded = 0;
    for (size_t c = 0; c < chunks; ++c) {
      // The chunk's kept queries by reference work (ties: generation
      // order); rank r of n goes to stratum r * kStrata / n.
      std::vector<size_t> rank;
      for (size_t i = c * kChunk; i < (c + 1) * kChunk; ++i) {
        if (reads[i].excluded) {
          ++excluded;
        } else {
          rank.push_back(i);
        }
      }
      std::stable_sort(rank.begin(), rank.end(), [&](size_t a, size_t b) {
        return reads[a].work < reads[b].work;
      });
      std::vector<std::vector<size_t>> strata(kStrata);
      for (size_t r = 0; r < rank.size(); ++r) {
        strata[r * kStrata / rank.size()].push_back(rank[r]);
      }
      size_t blocks = 0;
      for (size_t s = 0; s < kStrata; ++s) {
        SeededShuffle(&strata[s], Mix((seed * 131u + c) * 31u + s));
        blocks = std::max(blocks, strata[s].size());
      }
      std::vector<size_t> order(kStrata);
      for (size_t b = 0; b < blocks; ++b) {
        for (size_t s = 0; s < kStrata; ++s) order[s] = s;
        SeededShuffle(&order, Mix((seed * 131u + c) * 8191u + b));
        for (const size_t s : order) {
          if (b < strata[s].size()) {
            reads_.push_back(std::move(reads[strata[s][b]]));
          }
        }
      }
    }
    std::printf("dmv_adhoc: %zu distinct queries in %zu chunks of %zu "
                "strata, %zu left out (reference over %.0f ms)\n",
                reads_.size(), chunks, kStrata, excluded,
                kReferenceDeadlineMs);
    return Status::Ok();
  }

  void Reset() override {}

  bool Next(int, int64_t i, Request* req) override {
    if (i >= static_cast<int64_t>(reads_.size())) return false;
    const CheckedRead& read = reads_[static_cast<size_t>(i)];
    req->write = false;
    req->sql = read.request.sql;
    req->params = read.request.params;
    req->ref = static_cast<int>(i);
    return true;
  }

  bool CheckRead(const Request& req, const std::vector<Row>& rows,
                 std::string* why) override {
    return CheckAgainst(reads_[static_cast<size_t>(req.ref)], rows, why);
  }

 private:
  std::vector<CheckedRead> reads_;
};

// ---------------------------------------------------------- mixed_oltp.

/// TPC-C-style churn beside short reads. Two open-loop writers each run a
/// five-statement cycle — new order header, its three order lines, a
/// payment, then delete the writer's oldest order's lines and header — so
/// table sizes stay steady while the key range slides upward past the
/// histograms. Two closed-loop readers run short range reads on the
/// written tables and check invariants that hold under any interleaving.
class MixedOltp : public Workload {
 public:
  // Deleted rows keep their slots, and a scan is morsel-parallel once a
  // table has min_parallel_rows (4096) slots. 600 orders with 3 lines each,
  // plus 3 line slots per writer cycle at the rate below, stay under that
  // for a 30-second phase: reads run serially, morsels stay idle, and
  // per-request fixed costs dominate.
  static constexpr int64_t kOrders = 600;
  static constexpr int64_t kLines = 3;      ///< Items per order.
  static constexpr int64_t kWindow = 40;    ///< Ids per range read.
  static constexpr int kWriters = 2;

  std::string name() const override { return "mixed_oltp"; }
  // p90, not p99: on a shared host the p99 of a 0.3 ms read is set by
  // scheduler jitter and moved 0.50-1.12 ms between identical runs, and
  // the p95 (the join reads' 80th percentile) moved 0.46-0.62 ms.
  double tail_pct() const override { return 90.0; }
  // Each window holds thousands of reads, so the per-window p90 is sound
  // and a burst of host noise moves one window, not the reported tail.
  bool windowed_tail() const override { return true; }
  int readers() const override { return 2; }
  int writers() const override { return kWriters; }
  double writer_rate() const override { return 50.0; }

  std::vector<std::string> written_tables() const override {
    return {"orders", "items"};
  }

  Status Generate(Catalog* catalog) override {
    using popdb::Schema;
    using popdb::Table;
    using popdb::ValueType;
    Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                   {"o_cust", ValueType::kInt},
                                   {"o_paid", ValueType::kInt}}));
    Table items("items", Schema({{"i_order", ValueType::kInt},
                                 {"i_qty", ValueType::kInt}}));
    for (int64_t id = 0; id < kOrders; ++id) {
      orders.AppendRow({Value::Int(id), Value::Int(id % 500), Value::Int(0)});
      for (int64_t k = 0; k < kLines; ++k) {
        items.AppendRow({Value::Int(id), Value::Int(Qty(id, k))});
      }
    }
    Status s = catalog->AddTable(std::move(orders));
    if (s.ok()) s = catalog->AddTable(std::move(items));
    if (s.ok()) s = catalog->CreateIndex("orders", "o_id");
    if (s.ok()) s = catalog->CreateIndex("items", "i_order");
    if (s.ok()) catalog->AnalyzeAll();
    return s;
  }

  Status Prepare(const Catalog&, uint64_t seed, double) override {
    seed_ = seed;
    return Status::Ok();
  }

  void Reset() override {
    for (int w = 0; w < kWriters; ++w) {
      Writer& wr = writers_[w];
      wr = Writer{};
      for (int64_t id = w; id < kOrders; id += kWriters) wr.live.push_back(id);
      wr.next_id = kOrders + w;
      wr.items = kLines * static_cast<int64_t>(wr.live.size());
      oldest_[w].store(wr.live.front());
      newest_[w].store(wr.live.back());
    }
  }

  bool Next(int client, int64_t i, Request* req) override {
    req->params.clear();
    req->ref = -1;
    if (client < readers()) {
      const uint64_t r = Mix(seed_ * 7919u + static_cast<uint64_t>(client) *
                                                 1000003u +
                             static_cast<uint64_t>(i));
      const int64_t lo = std::min(oldest_[0].load(), oldest_[1].load());
      const int64_t hi = std::max(newest_[0].load(), newest_[1].load());
      const int64_t span = std::max<int64_t>(1, hi - lo - kWindow);
      const int64_t from = lo + static_cast<int64_t>(r % static_cast<uint64_t>(span));
      req->write = false;
      // Three range reads per join read: the median read is then inside
      // one read kind's latency mode, not at the boundary between two.
      req->tag = i % 4 == 3 ? 1 : 0;
      req->sql =
          req->tag == 0
              ? "SELECT t0.i_order, COUNT(*) FROM items t0 WHERE "
                "t0.i_order >= ? AND t0.i_order <= ? GROUP BY t0.i_order"
              : "SELECT COUNT(*), SUM(t1.i_qty) FROM orders t0, items t1 "
                "WHERE t0.o_id = t1.i_order AND t0.o_id >= ? AND "
                "t0.o_id <= ?";
      req->params = {Value::Int(from), Value::Int(from + kWindow)};
      return true;
    }
    Writer& w = writers_[client - readers()];
    const uint64_t r =
        Mix(seed_ * 104729u + static_cast<uint64_t>(client) * 1000003u +
            static_cast<uint64_t>(i));
    req->write = true;
    req->tag = static_cast<int>(i % 5);
    switch (req->tag) {
      case 0:  // New order header at the top of the key range.
        req->sql = "INSERT INTO orders VALUES (?, ?, 0)";
        req->params = {Value::Int(w.next_id),
                       Value::Int(static_cast<int64_t>(r % 500))};
        break;
      case 1:  // Its order lines, one statement (atomic for readers).
        req->sql = "INSERT INTO items VALUES (?, ?), (?, ?), (?, ?)";
        for (int64_t k = 0; k < kLines; ++k) {
          req->params.push_back(Value::Int(w.next_id));
          req->params.push_back(Value::Int(Qty(w.next_id, k)));
        }
        break;
      case 2: {  // Payment against one of the writer's live orders.
        const int64_t target =
            w.live[static_cast<size_t>(r % w.live.size())];
        req->sql = "UPDATE orders SET o_paid = o_paid + ? WHERE o_id = ?";
        req->params = {Value::Int(5 * static_cast<int64_t>(1 + (r >> 20) % 10)),
                       Value::Int(target)};
        break;
      }
      case 3:  // Delete the oldest order's lines, then its header.
        req->sql = "DELETE FROM items WHERE i_order = ?";
        req->params = {Value::Int(w.live.front())};
        break;
      default:
        req->sql = "DELETE FROM orders WHERE o_id = ?";
        req->params = {Value::Int(w.live.front())};
        break;
    }
    return true;
  }

  /// Invariants that hold under any interleaving of statement-atomic
  /// writes: an order's lines appear all together or not at all, and an
  /// order header exists whenever its lines do.
  bool CheckRead(const Request& req, const std::vector<Row>& rows,
                 std::string* why) override {
    if (req.tag == 0) {
      for (const Row& row : rows) {
        if (row.size() != 2 || row[0] < req.params[0] ||
            row[0] > req.params[1]) {
          *why = "group outside the requested id range";
          return false;
        }
        if (row[1].AsNumeric() != kLines) {
          *why = "order with a partial set of lines";
          return false;
        }
      }
      return true;
    }
    if (rows.size() != 1 || rows[0].size() != 2 ||
        static_cast<int64_t>(rows[0][0].AsNumeric()) % kLines != 0) {
      *why = "join count is not a whole number of orders";
      return false;
    }
    return true;
  }

  bool AckWrite(int client, const Request& req, int64_t affected,
                std::string* why) override {
    const int index = client - readers();
    Writer& w = writers_[index];
    const int64_t want = req.tag == 1 || req.tag == 3 ? kLines : 1;
    if (affected != want) {
      *why = "write '" + req.sql + "' affected " + std::to_string(affected) +
             " rows, want " + std::to_string(want);
      return false;
    }
    switch (req.tag) {
      case 0:
        w.live.push_back(w.next_id);
        newest_[index].store(w.next_id);
        break;
      case 1:
        w.items += kLines;
        w.next_id += kWriters;
        break;
      case 2:
        w.paid[req.params[1].AsInt()] += req.params[0].AsInt();
        break;
      case 3:
        w.items -= kLines;
        break;
      default:
        w.paid.erase(w.live.front());
        w.live.pop_front();
        oldest_[index].store(w.live.front());
        break;
    }
    return true;
  }

  bool Reconcile(const SqlRunner& run, std::string* why) override {
    int64_t orders = 0;
    int64_t items = 0;
    int64_t paid = 0;
    for (const Writer& w : writers_) {
      orders += static_cast<int64_t>(w.live.size());
      items += w.items;
      for (const auto& [id, amount] : w.paid) paid += amount;
    }
    Result<std::vector<Row>> o =
        run("SELECT COUNT(*), SUM(t0.o_paid) FROM orders t0");
    Result<std::vector<Row>> i = run("SELECT COUNT(*) FROM items t0");
    if (!o.ok() || !i.ok()) {
      *why = "reconciliation query failed";
      return false;
    }
    const Row& orow = o.value().at(0);
    const double got_paid = orow[1].is_null() ? 0.0 : orow[1].AsNumeric();
    if (orow[0].AsNumeric() != static_cast<double>(orders) ||
        got_paid != static_cast<double>(paid) ||
        i.value().at(0)[0].AsNumeric() != static_cast<double>(items)) {
      *why = "final state (orders " + orow[0].ToString() + ", paid " +
             orow[1].ToString() + ", items " + i.value().at(0)[0].ToString() +
             ") differs from acknowledged writes (orders " +
             std::to_string(orders) + ", paid " + std::to_string(paid) +
             ", items " + std::to_string(items) + ")";
      return false;
    }
    return true;
  }

 private:
  static int64_t Qty(int64_t id, int64_t k) { return 1 + (id * 7 + k) % 9; }

  /// One writer's view of the rows it owns, updated on every ack.
  struct Writer {
    std::deque<int64_t> live;        ///< Own order ids, oldest first.
    std::map<int64_t, int64_t> paid;  ///< Payments per live order.
    int64_t next_id = 0;
    int64_t items = 0;                ///< Own order lines.
  };

  uint64_t seed_ = 0;
  Writer writers_[kWriters];
  // Each writer's oldest and newest live id, read by the readers to aim
  // their range windows at live keys.
  std::atomic<int64_t> oldest_[kWriters];
  std::atomic<int64_t> newest_[kWriters];
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpch_scan") return std::make_unique<TpchScan>();
  if (name == "dmv_adhoc") return std::make_unique<DmvAdhoc>();
  if (name == "mixed_oltp") return std::make_unique<MixedOltp>();
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  return {"tpch_scan", "dmv_adhoc", "mixed_oltp"};
}

}  // namespace popbench
