#include "render.h"

#include <algorithm>
#include <charconv>

#include "opt/plan_cache.h"
#include "sql/binder.h"

namespace popbench {

using popdb::AggFunc;
using popdb::ColRef;
using popdb::PredKind;
using popdb::QuerySpec;
using popdb::Result;
using popdb::Status;
using popdb::Value;
using popdb::ValueType;

std::string SqlLiteral(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(v.AsInt());
    case ValueType::kDouble: {
      // The lexer reads digits and one '.', so write the shortest
      // round-trip fixed notation and force a decimal point.
      char buf[400];
      const auto res = std::to_chars(buf, buf + sizeof(buf), v.AsDouble(),
                                     std::chars_format::fixed);
      std::string s(buf, res.ptr);
      if (s.find('.') == std::string::npos) s += ".0";
      return s;
    }
    case ValueType::kString: {
      std::string s = "'";
      for (const char c : v.AsString()) {
        if (c == '\'') s += '\'';
        s += c;
      }
      return s + "'";
    }
  }
  return "NULL";
}

namespace {

const char* AggSql(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "COUNT";
}

const char* OpSql(PredKind k) {
  switch (k) {
    case PredKind::kEq:
      return " = ";
    case PredKind::kNe:
      return " <> ";
    case PredKind::kLt:
      return " < ";
    case PredKind::kLe:
      return " <= ";
    case PredKind::kGt:
      return " > ";
    case PredKind::kGe:
      return " >= ";
    case PredKind::kLike:
      return " LIKE ";
    default:
      return nullptr;  // BETWEEN / IN render their own shape.
  }
}

/// Renders "op operand" (or the BETWEEN form) after a column or aggregate.
std::string Comparison(PredKind kind, const std::string& lhs,
                       const std::string& operand,
                       const std::string& operand2) {
  if (kind == PredKind::kBetween) {
    return lhs + " BETWEEN " + operand + " AND " + operand2;
  }
  return lhs + OpSql(kind) + operand;
}

class Renderer {
 public:
  Renderer(const QuerySpec& q, const popdb::Catalog& catalog)
      : q_(q), catalog_(catalog) {}

  Result<SqlRequest> Render() {
    SqlRequest out;
    std::string& s = out.sql;
    s = "SELECT ";
    if (q_.distinct()) s += "DISTINCT ";
    std::vector<std::string> items;
    if (q_.has_aggregation()) {
      for (const ColRef& c : q_.group_by()) items.push_back(Col(c));
      for (const QuerySpec::Agg& a : q_.aggs()) items.push_back(Agg(a));
    } else {
      for (const ColRef& c : q_.projections()) items.push_back(Col(c));
      if (items.empty()) items.push_back("*");
    }
    s += Join(items, ", ");

    items.clear();
    for (int t = 0; t < q_.num_tables(); ++t) {
      if (catalog_.GetTable(q_.table_name(t)) == nullptr) {
        return Status::NotFound("no such table: " + q_.table_name(t));
      }
      items.push_back(q_.table_name(t) + " t" + std::to_string(t));
    }
    s += " FROM " + Join(items, ", ");

    items.clear();
    for (const popdb::JoinPredicate& j : q_.join_preds()) {
      items.push_back(Col(j.left) + " = " + Col(j.right));
    }
    // The binder numbers local predicates and '?' markers in textual
    // order, so emit predicates by id and markers in parameter order.
    std::vector<const popdb::Predicate*> preds;
    for (const popdb::Predicate& p : q_.local_preds()) preds.push_back(&p);
    std::sort(preds.begin(), preds.end(),
              [](const popdb::Predicate* a, const popdb::Predicate* b) {
                return a->pred_id < b->pred_id;
              });
    for (const popdb::Predicate* p : preds) {
      const std::string lhs = Col(p->col);
      if (p->is_param) {
        if (p->param_index < 0 ||
            p->param_index >= static_cast<int>(q_.params().size())) {
          return Status::InvalidArgument("unbound parameter marker");
        }
        out.params.push_back(q_.params()[static_cast<size_t>(p->param_index)]);
        if (OpSql(p->kind) == nullptr) {
          return Status::Unimplemented("marker on BETWEEN/IN predicate");
        }
        items.push_back(lhs + OpSql(p->kind) + "?");
      } else if (p->kind == PredKind::kIn) {
        std::vector<std::string> vals;
        for (const Value& v : p->in_list) vals.push_back(SqlLiteral(v));
        items.push_back(lhs + " IN (" + Join(vals, ", ") + ")");
      } else {
        items.push_back(Comparison(p->kind, lhs, SqlLiteral(p->operand),
                                   SqlLiteral(p->operand2)));
      }
    }
    if (!items.empty()) s += " WHERE " + Join(items, " AND ");

    items.clear();
    for (const ColRef& c : q_.group_by()) items.push_back(Col(c));
    if (!items.empty()) s += " GROUP BY " + Join(items, ", ");

    items.clear();
    const size_t groups = q_.group_by().size();
    for (const QuerySpec::HavingPred& h : q_.having()) {
      const size_t pos = static_cast<size_t>(h.output_pos);
      std::string lhs;
      if (pos < groups) {
        lhs = Col(q_.group_by()[pos]);
      } else if (pos - groups < q_.aggs().size()) {
        lhs = Agg(q_.aggs()[pos - groups]);
      } else {
        return Status::InvalidArgument("HAVING position out of range");
      }
      if (OpSql(h.kind) == nullptr && h.kind != PredKind::kBetween) {
        return Status::Unimplemented("HAVING IN is not renderable");
      }
      items.push_back(Comparison(h.kind, lhs, SqlLiteral(h.operand),
                                 SqlLiteral(h.operand2)));
    }
    if (!items.empty()) s += " HAVING " + Join(items, " AND ");

    items.clear();
    for (const QuerySpec::OrderKey& k : q_.order_by()) {
      items.push_back(std::to_string(k.output_pos + 1) +
                      (k.descending ? " DESC" : ""));
    }
    if (!items.empty()) s += " ORDER BY " + Join(items, ", ");
    if (q_.limit() >= 0) s += " LIMIT " + std::to_string(q_.limit());
    return out;
  }

 private:
  std::string Col(const ColRef& c) const {
    const popdb::Table* t = catalog_.GetTable(q_.table_name(c.table_id));
    return "t" + std::to_string(c.table_id) + "." +
           t->schema().column(c.column).name;
  }

  std::string Agg(const QuerySpec::Agg& a) const {
    const bool star = a.func == AggFunc::kCount && a.arg.table_id < 0;
    return std::string(AggSql(a.func)) + "(" + (star ? "*" : Col(a.arg)) +
           ")";
  }

  static std::string Join(const std::vector<std::string>& parts,
                          const char* sep) {
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += sep;
      out += parts[i];
    }
    return out;
  }

  const QuerySpec& q_;
  const popdb::Catalog& catalog_;
};

}  // namespace

Result<SqlRequest> RenderSql(const QuerySpec& query,
                             const popdb::Catalog& catalog) {
  return Renderer(query, catalog).Render();
}

Result<SqlRequest> RenderChecked(const QuerySpec& query,
                                 const popdb::Catalog& catalog) {
  Result<SqlRequest> req = RenderSql(query, catalog);
  if (!req.ok()) return req.status();
  Result<popdb::sql::BoundStatement> bound = popdb::sql::ParseSqlStatement(
      catalog, req.value().sql, req.value().params);
  if (!bound.ok()) {
    return Status::Internal("rendered SQL does not bind: " +
                            bound.status().message() + " [" +
                            req.value().sql + "]");
  }
  if (popdb::QueryCacheSignature(bound.value().query) !=
          popdb::QueryCacheSignature(query) ||
      bound.value().query.params() != query.params()) {
    return Status::Internal("rendered SQL changes the query signature: " +
                            req.value().sql);
  }
  return req;
}

}  // namespace popbench
