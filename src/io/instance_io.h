#ifndef IGEPA_IO_INSTANCE_IO_H_
#define IGEPA_IO_INSTANCE_IO_H_

#include <string>

#include "core/arrangement.h"
#include "core/instance.h"
#include "util/result.h"

namespace igepa {
namespace io {

/// Serializes an instance to a sectioned CSV file:
///
///   igepa,<version>,<num_events>,<num_users>,<beta>
///   kernel,<id>                            (v2: the utility kernel scoring
///                                           this instance's columns)
///   event,<id>,<capacity>
///   user,<id>,<capacity>,<bid;bid;...>
///   conflict,<a>,<b>                       (one line per conflicting pair)
///   interest,<event>,<user>,<value>        (bid pairs only — the only pairs
///                                           algorithms ever evaluate)
///   degree,<user>,<value>
///
/// Functional components are materialized: conflicts become an explicit
/// matrix, interest a table over bid pairs, interaction a degree table. The
/// re-read instance is therefore *algorithm-equivalent* to the original (all
/// reachable σ/SI/D evaluations agree) even when the original used implicit
/// representations (hash interest, interval conflicts). Live drift state
/// (UpdateInterest / ApplyGraphEdge overlays) is folded into the tables.
///
/// Version 2 (docs/FORMATS.md) additionally pins the objective: a `kernel`
/// record naming the core::UtilityKernel the instance scores columns with.
/// The writer emits the lowest sufficient version — instances on the default
/// kernel keep producing byte-identical v1 files — and v1 files read back
/// onto the default kernel, so pre-kernel instances solve exactly as before.
Status WriteInstanceCsv(const core::Instance& instance,
                        const std::string& path);

/// Reads an instance written by WriteInstanceCsv.
Result<core::Instance> ReadInstanceCsv(const std::string& path);

/// Serializes an arrangement: header line "arrangement,<nv>,<nu>" then one
/// "pair,<event>,<user>" line per pair.
Status WriteArrangementCsv(const core::Arrangement& arrangement,
                           const std::string& path);

/// Reads an arrangement written by WriteArrangementCsv.
Result<core::Arrangement> ReadArrangementCsv(const std::string& path);

}  // namespace io
}  // namespace igepa

#endif  // IGEPA_IO_INSTANCE_IO_H_
