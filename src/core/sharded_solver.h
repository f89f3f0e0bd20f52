#ifndef IGEPA_CORE_SHARDED_SOLVER_H_
#define IGEPA_CORE_SHARDED_SOLVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/arrangement.h"
#include "core/benchmark_dual.h"
#include "core/instance.h"
#include "util/result.h"
#include "util/rng.h"

namespace igepa {

class ThreadPool;

namespace core {

/// Options for ShardedSolve — the two-level decomposition that takes
/// LP-packing past the single-catalog scale ceiling (DESIGN.md §8).
struct ShardedSolveOptions {
  /// Level-1 partition width: users split into ceil(|U| / users_per_shard)
  /// contiguous shards unless `num_shards` pins the count directly. The shard
  /// layout is a pure function of (|U|, shard count) — never of thread count.
  int32_t users_per_shard = 8192;
  /// Explicit shard count (0 = derive from users_per_shard). Clamped to |U|.
  int32_t num_shards = 0;
  /// Algorithm-1 sampling scale α for the final legalize sweep, in (0, 1].
  double alpha = 1.0;
  /// Per-shard admissible-set enumeration (num_threads applies inside one
  /// shard's build; shards themselves parallelize via the solver's pool).
  AdmissibleOptions admissible;
  /// Level-1 per-shard warm solve: each shard solves its own benchmark LP
  /// against 1/K-scaled event capacities to seed the coordination prices.
  /// Loose by default — level 1 only needs a good starting μ, level 2 owns
  /// the certified gap.
  StructuredDualOptions level1;
  /// Level-2 coordination: target certified relative duality gap on the
  /// *global* benchmark LP, iteration budget, primal-extraction cadence and
  /// subgradient step scale (same roles as StructuredDualOptions).
  double coordination_gap = 0.01;
  int64_t coordination_max_iterations = 3000;
  int64_t check_every = 25;
  double step_scale = 1.0;
  /// Worker threads across shards (0 = hardware concurrency). Per-shard
  /// partials always merge in shard order, so results are bit-identical for
  /// every thread count at a fixed shard count (pinned by test).
  int32_t num_threads = 0;
  /// Optional caller-owned pool (borrowed; must outlive the call). When set,
  /// `num_threads` is ignored.
  ThreadPool* workers = nullptr;
  /// Catalog residency budget in bytes (0 = keep every shard catalog in RAM,
  /// the classic path). When set, each shard's catalog spills once into a
  /// per-run `igepa-cat,2` file right after its level-1 warm solve and is
  /// dropped from RAM; level 2 and the global legalize sweep run on mmapped
  /// CatalogView lanes under an LRU ShardResidency manager, so peak catalog
  /// RSS is bounded by (budget + one shard's footprint). Must be at least the
  /// largest single shard's catalog footprint — smaller budgets are rejected
  /// with an InvalidArgument naming the measured minimum. Eviction and repage
  /// are bit-invisible: the arrangement is byte-identical to the in-memory
  /// path for any budget (pinned by test).
  uint64_t memory_budget_bytes = 0;
  /// Directory for the spill file (empty = $TMPDIR, else /tmp). The file is
  /// unlinked as soon as it is sealed — mappings are served from the kept
  /// file descriptor, so a crash never leaks a spill file.
  std::string spill_dir;

  ShardedSolveOptions() {
    level1.target_gap = 0.05;
    level1.max_iterations = 500;
    level1.num_threads = 1;  // parallelism lives across shards, not inside
  }
};

/// Diagnostics from one ShardedSolve run.
struct ShardedSolveStats {
  int32_t num_shards = 0;
  int32_t num_columns = 0;  // across all shard catalogs
  /// Coordination-level fractional objective and certified global upper
  /// bound; `gap` is their certified relative duality gap.
  double lp_objective = 0.0;
  double lp_upper_bound = 0.0;
  double gap = 0.0;
  int64_t level1_iterations = 0;  // summed over shards
  int64_t coordination_iterations = 0;
  /// Pairs dropped by the global legalize sweep.
  int32_t pairs_repaired = 0;
  /// Residency diagnostics — populated only on budgeted runs
  /// (memory_budget_bytes > 0), all zero otherwise.
  uint64_t spill_bytes = 0;            ///< total igepa-cat,2 section payload
  uint64_t shard_footprint_bytes = 0;  ///< largest single shard's section
  uint64_t page_ins = 0;               ///< sections mapped (first map + repage)
  uint64_t evictions = 0;              ///< sections unmapped to honor budget
  int32_t peak_resident_shards = 0;    ///< max concurrently mapped sections
  uint64_t peak_resident_bytes = 0;    ///< max summed mapped section bytes
};

/// Two-level sharded LP-packing for instances past the single-catalog comfort
/// zone (100k–1M+ users).
///
/// **Level 1 (decompose):** users are split into K contiguous shards, each
/// with its own AdmissibleCatalog (generalizing the structured solver's fixed
/// 64-user oracle shards into independent solver instances) and its own
/// warm-dual state. Every shard solves its private benchmark LP against
/// 1/K-scaled event capacities via SolveBenchmarkLpStructured — K independent
/// solves that parallelize perfectly and produce per-shard dual prices.
///
/// **Level 2 (coordinate):** the per-event capacity rows are the only
/// coupling between shards, so the global Lagrangian decomposes as
///   L(μ) = Σ_v c_v·μ_v + Σ_k Σ_{u∈shard k} max(0, max_S (w(u,S) − Σ_{v∈S} μ_v))
/// over one SHARED price vector μ, seeded with the shard-average of the
/// level-1 duals. Projected subgradient descent iterates μ to the target
/// tolerance: each iteration runs the per-user oracle shard by shard (SIMD
/// batch scoring, per-shard partial sums merged in shard order), suffix-
/// averages oracle choices into a fractional x, and certifies the gap against
/// the global upper bound — the same machinery as the monolithic structured
/// solver, lifted one level.
///
/// **Legalize:** one global rounding/repair sweep with RoundFractional's
/// exact semantics — one pre-drawn uniform per user in global user order,
/// α·x sampling, per-event demand, and the first-c_v-contenders-by-user-id
/// cutoff rule (RepairSampledColumns / RoundFractionalDelta semantics) —
/// applied across shard boundaries, so the returned arrangement is always
/// feasible on the full instance.
///
/// Determinism: the arrangement is a pure function of (instance, shard
/// count, rng seed, options). Thread count never changes a bit: every
/// parallel reduction merges per-shard buffers in shard index order.
///
/// `stats`, when non-null, receives the run diagnostics.
Result<Arrangement> ShardedSolve(const Instance& instance, Rng* rng,
                                 const ShardedSolveOptions& options = {},
                                 ShardedSolveStats* stats = nullptr);

/// The shard layout ShardedSolve uses: shard s owns users
/// [bounds[s], bounds[s+1]). Exposed for tests and the bench harness.
std::vector<UserId> ShardUserBounds(int32_t num_users,
                                    const ShardedSolveOptions& options);

}  // namespace core
}  // namespace igepa

#endif  // IGEPA_CORE_SHARDED_SOLVER_H_
