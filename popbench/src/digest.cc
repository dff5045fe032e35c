#include "digest.h"

#include <algorithm>
#include <cmath>

namespace popbench {

using popdb::Row;
using popdb::Value;
using popdb::ValueType;

RowDigest MakeDigest(const popdb::QuerySpec& query, std::vector<Row> rows) {
  RowDigest d;
  d.ordered = !query.order_by().empty();
  if (!d.ordered) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    });
  }
  d.rows = std::move(rows);
  return d;
}

namespace {

bool ValuesMatch(const Value& a, const Value& b) {
  const bool a_num = a.type() == ValueType::kInt || a.type() == ValueType::kDouble;
  const bool b_num = b.type() == ValueType::kInt || b.type() == ValueType::kDouble;
  if ((a.type() == ValueType::kDouble || b.type() == ValueType::kDouble) &&
      a_num && b_num) {
    const double x = a.AsNumeric();
    const double y = b.AsNumeric();
    if (x == y) return true;
    return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
  }
  return a.type() == b.type() && a == b;
}

std::string RowText(const Row& r) {
  std::string s = "(";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i > 0) s += ", ";
    s += r[i].ToString();
  }
  return s + ")";
}

}  // namespace

bool DigestsMatch(const RowDigest& want, const RowDigest& got,
                  std::string* why) {
  if (want.rows.size() != got.rows.size()) {
    *why = "row count " + std::to_string(got.rows.size()) + ", want " +
           std::to_string(want.rows.size());
    return false;
  }
  for (size_t i = 0; i < want.rows.size(); ++i) {
    const Row& w = want.rows[i];
    const Row& g = got.rows[i];
    bool same = w.size() == g.size();
    for (size_t c = 0; same && c < w.size(); ++c) {
      same = ValuesMatch(w[c], g[c]);
    }
    if (!same) {
      *why = "row " + std::to_string(i) + " is " + RowText(g) + ", want " +
             RowText(w);
      return false;
    }
  }
  return true;
}

}  // namespace popbench
