#ifndef IGEPA_GEN_STREAMING_GEN_H_
#define IGEPA_GEN_STREAMING_GEN_H_

#include <cstdint>
#include <string>

#include "gen/synthetic.h"
#include "util/result.h"
#include "util/rng.h"

namespace igepa {
namespace gen {

/// What GenerateSyntheticBinary wrote, for logging and tests.
struct StreamingGenStats {
  int64_t num_bids = 0;
  int64_t num_conflicts = 0;
};

/// Generates a synthetic instance per the §IV protocol straight into an
/// `igepa-bin,4` file (io::BinaryInstanceWriter) in bounded memory: peak RSS
/// depends on |V| (conflict matrix, neighbour lists) and writer buffering but
/// NOT on |U| — the path that synthesizes million-user instances.
///
/// The trick is a restartable per-user RNG: the master `rng` draws the
/// conflict matrix, event capacities and two stream seeds, then every user is
/// generated from its own `Rng(mix(user_seed_base, u))`. Pass 1 replays users
/// only to count total bids (the v3 header is binding), pass 2 replays them
/// again and streams each record into the writer — nothing per-user is ever
/// retained. Byte-deterministic: the same (config, seed, kernel_id) always
/// produces the same file, at any buffer size.
///
/// Differences from GenerateSynthetic (documented in DESIGN.md): the RNG
/// stream layout differs (per-user substreams instead of one sequential
/// stream), so the two paths produce different — each internally
/// deterministic — instances for the same seed; and the social term always
/// uses the binomial degree model (substitution S6), since an explicit
/// Erdős–Rényi graph is exactly the O(|U|²) object this path exists to avoid.
///
/// `kernel_id` must name a registered core::UtilityKernel; it is stored in
/// the header and round-trips through materialization.
Result<StreamingGenStats> GenerateSyntheticBinary(const SyntheticConfig& config,
                                                  Rng* rng,
                                                  const std::string& kernel_id,
                                                  const std::string& path);

}  // namespace gen
}  // namespace igepa

#endif  // IGEPA_GEN_STREAMING_GEN_H_
