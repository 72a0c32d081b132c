/**
 * @file
 * The traced run: per-layer host cost of one workload, measured from
 * outside the simulator by wrapping Workload::thread, timing calls into
 * each layer's public functions, and replaying the workload's own
 * reference stream through the TLB and cache components.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <string>

#include "passes.hh"
#include "util.hh"

namespace perfbench
{

/**
 * Run @p def traced and return every per-layer metric. Spans are
 * written to @p spansPath when the run ends. Failed count checks and
 * digest mismatches count as failed operations.
 */
Outcome runTraced(const WorkloadDef &def, unsigned seed,
                  const References &refs, const std::string &workDir,
                  const std::string &spansPath);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
