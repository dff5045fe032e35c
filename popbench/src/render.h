// Renders generator QuerySpecs to the SQL the wire accepts.
#ifndef POPBENCH_RENDER_H_
#define POPBENCH_RENDER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "opt/query.h"
#include "storage/catalog.h"

namespace popbench {

/// SQL text plus the values for its '?' markers, in marker order.
struct SqlRequest {
  std::string sql;
  std::vector<popdb::Value> params;
};

/// Renders `query` so that binding the text (sql::ParseSqlStatement)
/// reproduces the same table ids, predicate ids and parameter positions:
/// tables are aliased t0..tN in table-id order, local predicates follow in
/// predicate-id order, and every column is qualified by its alias.
popdb::Result<SqlRequest> RenderSql(const popdb::QuerySpec& query,
                                    const popdb::Catalog& catalog);

/// Renders `query` and checks that binding the text gives the same
/// QueryCacheSignature as the spec. Returns the request on success.
popdb::Result<SqlRequest> RenderChecked(const popdb::QuerySpec& query,
                                        const popdb::Catalog& catalog);

/// SQL literal for `v` (strings quoted, doubles without exponent).
std::string SqlLiteral(const popdb::Value& v);

}  // namespace popbench

#endif  // POPBENCH_RENDER_H_
