// Result digests: the reference a wire response is checked against.
#ifndef POPBENCH_DIGEST_H_
#define POPBENCH_DIGEST_H_

#include <string>
#include <vector>

#include "common/value.h"
#include "opt/query.h"

namespace popbench {

/// A result in comparable form: rows sorted into a canonical order unless
/// the query orders them itself.
struct RowDigest {
  std::vector<popdb::Row> rows;
  bool ordered = false;  ///< The query has ORDER BY; row order matters.
};

/// Canonicalizes `rows`, the result of `query`.
RowDigest MakeDigest(const popdb::QuerySpec& query,
                     std::vector<popdb::Row> rows);

/// True when `got` matches `want`: same row count, same values, doubles
/// equal to a relative 1e-9. On a mismatch `why` says where.
bool DigestsMatch(const RowDigest& want, const RowDigest& got,
                  std::string* why);

}  // namespace popbench

#endif  // POPBENCH_DIGEST_H_
