/**
 * @file
 * The text grammar of reference traces.
 *
 * Simulations record and replay the packed binary format
 * (sim/memref_pack.hh); the text form exists so that streams captured
 * elsewhere or written by hand can be converted into it with
 * `vcoma_trace convert`, and so `vcoma_trace dump` has something
 * readable to print. The format is one event per line:
 *
 *     vcoma-trace-v1
 *     threads <N>
 *     <tid> R <vaddr> <work>      read
 *     <tid> W <vaddr> <work>      write
 *     <tid> B <id>                barrier
 *     <tid> L <id>                lock acquire
 *     <tid> U <id>                lock release
 *
 * Events of one thread appear in program order; threads may be
 * interleaved arbitrarily. Addresses are decimal or 0x-prefixed hex
 * (never octal); blank lines and lines starting with '#' are ignored,
 * so hand-written and tool-exported traces can carry comments.
 */

#ifndef VCOMA_SIM_TRACE_HH
#define VCOMA_SIM_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/memref.hh"

namespace vcoma
{

/** A parsed text trace: the per-thread streams and their footprint. */
struct TextTrace
{
    /** Events of each thread, in program order, indexed by tid. */
    std::vector<std::vector<MemRef>> perThread;
    /** Lowest touched address (0 when no memory event exists). */
    VAddr base = 0;
    /** Bytes from base to the end of the highest touched word. */
    std::uint64_t footprintBytes = 0;
};

/**
 * Parse a text trace from @p is. fatal() on malformed input, with the
 * offending line number in the message.
 */
TextTrace parseTextTrace(std::istream &is);

} // namespace vcoma

#endif // VCOMA_SIM_TRACE_HH
