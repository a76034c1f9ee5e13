#ifndef ADAMANT_SQL_ENGINE_H_
#define ADAMANT_SQL_ENGINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "plan/lowering.h"
#include "runtime/executor.h"
#include "sql/planner.h"

namespace adamant::sql {

/// SQL text -> annotated logical plan: lex, parse, bind against `catalog`,
/// plan (predicate pushdown, cost-based join order, selectivity
/// annotation). CompileQuery (sql/compile.h) takes it from there to a
/// runnable plan. All failures are error Statuses with "line:col:"
/// positions where a source location exists.
Result<CompiledQuery> Compile(const std::string& sql, const Catalog& catalog,
                              const PlannerOptions& options = {});

/// One cell of a result set. AVG outputs are doubles; everything else is
/// int64 in the column's storage encoding (cents, day numbers, dictionary
/// codes).
struct SqlValue {
  int64_t i = 0;
  double d = 0;
  bool is_double = false;

  friend bool operator==(const SqlValue& a, const SqlValue& b) {
    return a.is_double == b.is_double &&
           (a.is_double ? a.d == b.d : a.i == b.i);
  }
};

struct SqlResultSet {
  std::vector<std::string> column_names;
  std::vector<std::vector<SqlValue>> rows;
};

/// Assembles the SELECT outputs from an executed lowering of
/// `query.plan`: reads every aggregate's sink, decodes packed group keys,
/// computes AVG columns, applies ORDER BY and LIMIT.
Result<SqlResultSet> ExtractResults(const CompiledQuery& query,
                                    const plan::PlanBundle& bundle,
                                    const QueryExecution& exec);

/// Renders a result set for terminals: dictionary codes become strings,
/// money becomes dollars, dates become YYYY-MM-DD.
std::string FormatResultSet(const SqlResultSet& results,
                            const CompiledQuery& query,
                            const Catalog& catalog, size_t max_rows = 50);

/// Cross-checks every aggregate sink of an executed query against the
/// independent host interpreter (plan/interpreter.h). Returns an error
/// describing the first mismatch.
Status VerifyAgainstInterpreter(const CompiledQuery& query,
                                const plan::PlanBundle& bundle,
                                const QueryExecution& exec,
                                const Catalog& catalog);

/// EXPLAIN text: the annotated plan tree, per-scan pushed-down predicates
/// with measured selectivities, and the cost-chosen join order with every
/// priced alternative.
std::string ExplainCompiled(const CompiledQuery& query);

}  // namespace adamant::sql

#endif  // ADAMANT_SQL_ENGINE_H_
