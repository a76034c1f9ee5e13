#ifndef ADAMANT_PLAN_INTERPRETER_H_
#define ADAMANT_PLAN_INTERPRETER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "plan/logical_plan.h"
#include "storage/table.h"

namespace adamant::plan {

/// A column-at-a-time reference interpreter for the logical algebra. It
/// shares no code with the device kernels or the executor — only the
/// operator semantics — so it serves as an independent oracle: the plan
/// fuzzer compares every lowered/executed plan against it, and users can
/// verify their own plans the same way. Its operator steps below are also
/// the sampling engine behind the selectivity annotator (selectivity.h).
/// All values are widened to int64.
struct InterpreterStream {
  std::map<std::string, std::vector<int64_t>> cols;
  size_t rows = 0;
};

/// Evaluates the subtree under a sink (everything except GroupBy/Reduce).
Result<InterpreterStream> InterpretStream(const LogicalNode& node,
                                          const Catalog& catalog);

/// Full-plan results: output name -> (group key -> value). Reduce results
/// use the single key 0. A Reduce over zero rows yields the aggregate's
/// identity (matching AGG_BLOCK's accumulator initialization).
using InterpreterResults = std::map<std::string, std::map<int32_t, int64_t>>;

Result<InterpreterResults> InterpretPlan(const LogicalNode& root,
                                         const Catalog& catalog);

// --- One operator over evaluated inputs (the annotator samples with these)

/// Rows 0, every, 2*every, ... of the table `scan` names, read in place.
/// When `only` is set, widens just the table's columns named there.
Result<InterpreterStream> InterpretScan(
    const LogicalNode& scan, const Catalog& catalog, size_t every = 1,
    const std::set<std::string>* only = nullptr);

/// The rows of `in` that pass every term of `filter`. When set,
/// `term_rows` receives the row count left after each term.
InterpreterStream InterpretFilter(const LogicalNode& filter,
                                  const InterpreterStream& in,
                                  std::vector<size_t>* term_rows = nullptr);

/// The probe rows of `join`, in probe order: each once per build row with
/// its key (once for a semi join). Sets `*distinct_build_keys` when given.
InterpreterStream InterpretJoin(const LogicalNode& join,
                                const InterpreterStream& build,
                                const InterpreterStream& probe,
                                size_t* distinct_build_keys = nullptr);

/// Evaluates `expr` over every row of `s`.
std::vector<int64_t> InterpretExpr(const ScalarExpr& expr,
                                   const InterpreterStream& s);

bool InterpretPredicate(const Predicate& pred, int64_t value);

}  // namespace adamant::plan

#endif  // ADAMANT_PLAN_INTERPRETER_H_
