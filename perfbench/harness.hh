/**
 * @file
 * What the harness's main program and its layer ledger share.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <string>

#include "sim/experiment.hh"
#include "util/serde.hh"

namespace perfbench
{

/** Monotonic host seconds (steady clock). */
double wallSeconds();

/**
 * Traced single-worker run: time each layer of the simulator as one
 * block over streams captured from `spec`, and check that the
 * standalone replays reproduce `untraced` (a complete untraced result
 * of the same spec) exactly. On a fidelity failure returns false
 * with the first mismatch in `error`; otherwise fills `out` with the
 * layer totals and counts.
 */
bool runLayerLedger(const rtm::ExperimentSpec &spec,
                    const rtm::ExperimentResult &untraced,
                    rtm::JsonValue *out, std::string *error);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
