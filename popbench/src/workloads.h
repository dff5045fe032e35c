// The benchmark's workloads: seeded request streams, their catalogs, and
// the correctness checks applied to every response.
#ifndef POPBENCH_WORKLOADS_H_
#define POPBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/catalog.h"

namespace popbench {

/// One request of a seeded stream.
struct Request {
  bool write = false;
  std::string sql;
  std::vector<popdb::Value> params;
  /// Reads checked against a precomputed reference: its index; -1 = the
  /// workload checks an invariant instead.
  int ref = -1;
  int tag = 0;  ///< Workload-specific request kind.
};

/// Runs one SELECT and returns its rows (over the wire or in-process).
using SqlRunner =
    std::function<popdb::Result<std::vector<popdb::Row>>(const std::string&)>;

/// A workload. Client threads are numbered readers first, then writers.
/// Readers run closed loop; writers run open loop at writer_rate().
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// Percentile reported as read_tail_ms (fixed per workload: the highest
  /// of p99/p95/p90 that leaves at least ten samples beyond it).
  virtual double tail_pct() const = 0;
  /// True when read_tail_ms is the median of per-window percentiles
  /// (workloads with enough reads per window); else it is taken over the
  /// whole phase.
  virtual bool windowed_tail() const { return false; }
  virtual int readers() const { return 1; }
  virtual int writers() const { return 0; }
  /// Statements per second per writer connection.
  virtual double writer_rate() const { return 0.0; }
  /// Reads that pin exec.work_per_query and core.reopts_per_query in the
  /// traced run: the first this many reads of the stream.
  virtual int64_t pinned_reads() const { return 0; }

  /// Generates the catalog: data, statistics and indexes. The data does
  /// not depend on the workload seed.
  virtual popdb::Status Generate(popdb::Catalog* catalog) = 0;
  /// Tables the writers change (storage.live_rows_ratio); empty when the
  /// workload is read-only.
  virtual std::vector<std::string> written_tables() const { return {}; }

  /// Seeds the request streams and computes the reference results; runs
  /// before the timed phase, against a freshly generated catalog.
  /// `seconds` is the length of the longest timed phase.
  virtual popdb::Status Prepare(const popdb::Catalog& catalog, uint64_t seed,
                                double seconds) = 0;
  /// Rewinds per-phase state (each timed phase starts on a fresh catalog).
  virtual void Reset() = 0;
  /// The i-th request of `client`; false when the stream is exhausted.
  virtual bool Next(int client, int64_t i, Request* req) = 0;
  /// Checks a read response; false (with `why`) on a wrong result.
  virtual bool CheckRead(const Request& req,
                         const std::vector<popdb::Row>& rows,
                         std::string* why) = 0;
  /// Records an acknowledged write; false when its row count is wrong.
  virtual bool AckWrite(int /*client*/, const Request& /*req*/,
                        int64_t /*affected*/, std::string* /*why*/) {
    return true;
  }
  /// End-of-phase reconciliation of the final state against the
  /// acknowledged writes; `run` executes a SELECT.
  virtual bool Reconcile(const SqlRunner& /*run*/, std::string* /*why*/) {
    return true;
  }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

}  // namespace popbench

#endif  // POPBENCH_WORKLOADS_H_
