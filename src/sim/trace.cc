#include "sim/trace.hh"

#include <cstdlib>
#include <istream>
#include <limits>
#include <sstream>
#include <string>

#include "common/logging.hh"

namespace vcoma
{

namespace
{

constexpr const char *traceMagic = "vcoma-trace-v1";

} // namespace

TextTrace
parseTextTrace(std::istream &is)
{
    // Parse line-by-line so every diagnostic can carry a line number,
    // and so garbage between or after events is an error rather than a
    // silent end of parsing (operator>> would just stop).
    std::string line;
    std::uint64_t lineNo = 1;
    if (!std::getline(is, line) || line != traceMagic)
        fatal("trace: bad magic (expected '", traceMagic, "')");

    unsigned threads = 0;
    {
        ++lineNo;
        if (!std::getline(is, line))
            fatal("trace line ", lineNo, ": missing thread count");
        std::istringstream hs(line);
        std::string tag, extra;
        if (!(hs >> tag >> threads) || tag != "threads" || threads == 0)
            fatal("trace line ", lineNo, ": missing thread count");
        if (hs >> extra)
            fatal("trace line ", lineNo, ": trailing garbage '", extra,
                  "' after thread count");
    }
    TextTrace trace;
    trace.perThread.resize(threads);

    VAddr lo = std::numeric_limits<VAddr>::max();
    VAddr hi = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;  // blank lines stay tolerated
        if (line[first] == '#')
            continue;  // comment lines, for hand-written traces
        std::istringstream ls(line);
        unsigned tid = 0;
        char kind = 0;
        if (!(ls >> tid >> kind)) {
            std::istringstream rs(line);
            std::string word;
            rs >> word;
            if (word == "threads")
                fatal("trace line ", lineNo,
                      ": duplicate 'threads' header");
            fatal("trace line ", lineNo, ": malformed event '", line,
                  "'");
        }
        if (tid >= threads)
            fatal("trace line ", lineNo, ": thread id ", tid,
                  " out of range (trace declares ", threads,
                  " threads)");
        MemRef ref;
        switch (kind) {
          case 'R':
          case 'W': {
            ref.kind = MemRef::Kind::Mem;
            ref.type = kind == 'R' ? RefType::Read : RefType::Write;
            // External tools dump addresses in hex as often as in
            // decimal; accept an explicit 0x prefix (never octal —
            // a leading zero must not silently change the base).
            std::string vtok;
            if (!(ls >> vtok >> ref.work))
                fatal("trace line ", lineNo,
                      ": truncated memory event");
            const bool hex = vtok.size() > 2 && vtok[0] == '0' &&
                             (vtok[1] == 'x' || vtok[1] == 'X');
            char *end = nullptr;
            ref.vaddr = std::strtoull(vtok.c_str(), &end,
                                      hex ? 16 : 10);
            if (end == vtok.c_str() || *end != '\0')
                fatal("trace line ", lineNo, ": bad address '", vtok,
                      "'");
            lo = std::min(lo, ref.vaddr);
            hi = std::max(hi, ref.vaddr + 8);
            break;
          }
          case 'B':
            ref.kind = MemRef::Kind::Barrier;
            if (!(ls >> ref.syncId))
                fatal("trace line ", lineNo,
                      ": truncated barrier event");
            break;
          case 'L':
            ref.kind = MemRef::Kind::LockAcquire;
            if (!(ls >> ref.syncId))
                fatal("trace line ", lineNo,
                      ": truncated lock event");
            break;
          case 'U':
            ref.kind = MemRef::Kind::LockRelease;
            if (!(ls >> ref.syncId))
                fatal("trace line ", lineNo,
                      ": truncated unlock event");
            break;
          default:
            fatal("trace line ", lineNo, ": unknown event kind '",
                  kind, "'");
        }
        std::string extra;
        if (ls >> extra)
            fatal("trace line ", lineNo, ": trailing garbage '", extra,
                  "' after event");
        trace.perThread[tid].push_back(ref);
    }

    if (hi > lo) {
        trace.base = lo;
        trace.footprintBytes = hi - lo;
    }
    return trace;
}

} // namespace vcoma
