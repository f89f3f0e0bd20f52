#ifndef IGEPA_CORE_ORACLE_SWEEP_H_
#define IGEPA_CORE_ORACLE_SWEEP_H_

#include <cstdint>

#include "core/types.h"

namespace igepa {
namespace core {

/// One user's oracle answer: the column maximizing w(u,S) − Σ_{v∈S} μ_v over
/// the user's range, or column −1 (value 0.0) when no reduced cost is
/// positive.
struct OracleChoice {
  int32_t column = -1;
  double value = 0.0;
};

/// The per-user oracle of both subgradient engines (the structured dual and
/// the sharded solver's level-2 coordination), fused into one pass over the
/// user's contiguous column range [begin, end) of a CSR catalog: for each
/// column, sum μ over its events left to right starting from +0.0, take
/// reduced = w − sum, and keep the first strict maximum — ties go to the
/// lowest column id. No scratch buffer and no dispatch: the user's handful of
/// columns is too short a batch to amortize either (DESIGN.md §5).
///
/// The reduction order is fixed per column, so the result is a function of
/// the column contents and μ alone — independent of thread count, shard
/// schedule, warm/cold restart and dirty/canonical catalog layout.
inline OracleChoice BestReducedColumn(const double* weight,
                                      const EventId* pool,
                                      const int64_t* col_begin,
                                      const double* mu, int32_t begin,
                                      int32_t end) {
  OracleChoice best;
  for (int32_t j = begin; j < end; ++j) {
    double acc = 0.0;
    for (int64_t e = col_begin[j]; e < col_begin[j + 1]; ++e) {
      acc += mu[pool[e]];
    }
    const double reduced = weight[j] - acc;
    if (reduced > best.value) {
      best.value = reduced;
      best.column = j;
    }
  }
  return best;
}

}  // namespace core
}  // namespace igepa

#endif  // IGEPA_CORE_ORACLE_SWEEP_H_
