// Data-parallel batch rewriting: simplify a workload of expressions over
// any Executor, sharing ONE simplifier — and therefore one instantiation
// memo.  Each (type, operator) shape is instantiated once by whichever
// worker gets there first and read by everyone else with one shard mutex.
// `simplify` is const and the memo is insert-only, so the fan-out needs no
// coordination beyond the barrier `parallel_for` already provides.  Rule
// registration (add_concept_rule) clears the memo and must happen before
// the batch — the simplifier's quiescence contract, unchanged.
#pragma once

#include <cstddef>
#include <vector>

#include "parallel/algorithms.hpp"
#include "parallel/executor.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "rewrite/engine.hpp"
#include "telemetry/scope.hpp"

namespace cgp::rewrite {

/// Simplifies every expression of `batch` in parallel on `exec` (any
/// Executor), returning results in input order.  All workers share the
/// simplifier's instantiation memo.  Traces are not collected — batch
/// callers that want per-expression traces should call simplify directly.
template <parallel::Executor E = parallel::work_stealing_pool>
[[nodiscard]] std::vector<expr> simplify_batch(
    const simplifier& s, const std::vector<expr>& batch,
    E& exec = parallel::work_stealing_pool::default_pool(), std::size_t grain = 8) {
  static const telemetry::scope_site kSite(
      {.metrics = "rewrite.simplify_batch"});
  telemetry::scope batch_scope(kSite);
  batch_scope.charge(batch.size());
  // expr has no default constructor (factory-only); seed the output with
  // the inputs (cheap shared-node copies) and overwrite slot by slot.
  std::vector<expr> out(batch);
  parallel::parallel_for(
      batch.size(), [&](std::size_t i) { out[i] = s.simplify(batch[i]); },
      exec, grain);
  return out;
}

}  // namespace cgp::rewrite
