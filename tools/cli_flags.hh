/**
 * @file
 * Strict flag-value parsing shared by the command-line tools
 * (vcoma_sim, vcoma_batch).
 *
 * A flag value is the whole argument or nothing: "8x", "4oops" and
 * "0.05x" are rejected rather than read as their numeric prefix, a
 * leading '-' on an unsigned flag is rejected rather than wrapped
 * modulo 2^N, and a value that does not fit the flag's type is
 * rejected rather than truncated; a scheme token must name a
 * registered scheme. Every rejection prints one line naming the flag
 * and exits 2, the tools' usage-error status.
 */

#ifndef VCOMA_TOOLS_CLI_FLAGS_HH
#define VCOMA_TOOLS_CLI_FLAGS_HH

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <system_error>
#include <type_traits>

#include "translation/scheme.hh"

namespace vcoma::cli
{

/** Print why @p text is not a valid value for @p flag; exit 2. */
[[noreturn]] inline void
badFlagValue(const std::string &flag, const std::string &text,
             const std::string &why)
{
    std::cerr << "invalid value '" << text << "' for " << flag << ": "
              << why << "\n";
    std::exit(2);
}

/** @p text as an unsigned decimal integer of type T, or exit 2. */
template <typename T>
T
parseUnsignedFlag(const std::string &flag, const std::string &text)
{
    static_assert(std::is_unsigned_v<T>);
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        badFlagValue(flag, text, "out of range");
    if (ec != std::errc() || ptr != end)
        badFlagValue(flag, text, "expected an unsigned decimal integer");
    return value;
}

/** @p text as a finite number greater than zero, or exit 2. */
inline double
parsePositiveFlag(const std::string &flag, const std::string &text)
{
    double value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        badFlagValue(flag, text, "out of range");
    if (ec != std::errc() || ptr != end)
        badFlagValue(flag, text, "expected a number");
    if (!std::isfinite(value) || value <= 0)
        badFlagValue(flag, text, "expected a finite number > 0");
    return value;
}

/** Accepted scheme spellings, straight from the registry. */
inline std::string
schemeTokenList()
{
    std::string out;
    for (const auto &d : schemeRegistry()) {
        // The shortest accepted spelling per scheme ("L0" rather
        // than "L0-TLB"); the canonical name wins ties.
        std::string token = d.name;
        for (const std::string &alias : d.aliases)
            if (alias.size() < token.size())
                token = alias;
        if (!out.empty())
            out += " ";
        out += token;
    }
    return out;
}

/** @p text as a registered scheme, or exit 2 listing the spellings. */
inline Scheme
parseSchemeFlag(const std::string &flag, const std::string &text)
{
    Scheme out;
    if (!tryParseScheme(text, out))
        badFlagValue(flag, text,
                     "unknown scheme; accepted: " + schemeTokenList());
    return out;
}

} // namespace vcoma::cli

#endif // VCOMA_TOOLS_CLI_FLAGS_HH
