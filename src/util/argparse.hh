/**
 * @file
 * Strict command-line argument parsing shared by every tool.
 *
 * The original CLIs parsed numeric flags with std::atoi-family
 * calls, which silently turn garbage into 0 ("--cards abc") and
 * accept out-of-range values ("--job-threads -1") -- both then
 * reached CardFleet/ThreadPool unvalidated.  This helper parses
 * integers and doubles strictly (whole token must convert, no
 * overflow) and range-checks them, reporting violations through
 * usageError(), which exits with status 2 -- the conventional
 * "usage error" code, distinct from fatal()'s 1 and the realign
 * health codes 3/4.
 *
 * Two layers:
 *  - free functions parseInt64 / parseUint64 / parseDouble return
 *    false on malformed input (for tools with hand-rolled flag
 *    loops, and for unit tests);
 *  - ArgParser, a --key value bag matching the iracc_cli idiom,
 *    whose getInt/getUint/getDouble validate and range-check every
 *    user-supplied value.
 */

#ifndef IRACC_UTIL_ARGPARSE_HH
#define IRACC_UTIL_ARGPARSE_HH

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>

namespace iracc {

/** Print "usage error: <msg>" to stderr and exit(2). */
[[noreturn]] void usageError(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Fail fast (fatal(), exit 1) when @p path cannot be written, so a
 * bad output path is found before any expensive work.  An existing
 * file (which may also be an input) is opened in append mode and
 * left intact; a probe file is removed again.
 */
void requireWritable(const std::string &path);

/**
 * Remove a partial output at @p path when it is a regular file; a
 * device (/dev/null, /dev/full) or directory is left alone.
 */
void removePartialOutput(const std::string &path);

/**
 * Close @p f, the output stream of @p path, and report whether
 * every write reached the file: a full disk or a device such as
 * /dev/full fails the final flush, not the open.  On failure the
 * partial output is removed (removePartialOutput) and false is
 * returned.
 */
bool closeOutput(std::ofstream &f, const std::string &path);

/**
 * Parse the *entire* token as a base-10 (or 0x-prefixed) signed
 * integer.  Leading/trailing junk, an empty token, and overflow
 * all fail.
 */
bool parseInt64(const std::string &text, int64_t *out);

/** parseInt64 for unsigned values; a leading '-' fails. */
bool parseUint64(const std::string &text, uint64_t *out);

/** Parse the entire token as a finite double. */
bool parseDouble(const std::string &text, double *out);

/**
 * A --key value argument bag with strict numeric accessors.
 * Construction fails through usageError() for non---option tokens.
 * Keys are looked up with their leading dashes ("--port").  A bare
 * switch -- an option that is the last token or is followed by the
 * next --option -- reads as "1", so "--wait" and "--wait 1" are
 * equivalent.
 */
class ArgParser
{
  public:
    /**
     * @param argc / @p argv the program arguments
     * @param first index of the first option token
     * @param tool  name printed in usage errors
     */
    ArgParser(int argc, char **argv, int first,
              std::string tool = "");

    bool has(const std::string &key) const;

    /** Raw string lookup (no validation). */
    std::string get(const std::string &key,
                    const std::string &dflt) const;

    /**
     * Integer flag with an inclusive range.  Malformed or
     * out-of-range values report the flag name and the accepted
     * range through usageError() (exit 2).
     */
    int64_t getInt(const std::string &key, int64_t dflt,
                   int64_t min_value = std::numeric_limits<
                       int64_t>::min(),
                   int64_t max_value = std::numeric_limits<
                       int64_t>::max()) const;

    /** getInt for uint64 flags (seeds). */
    uint64_t getUint(const std::string &key, uint64_t dflt,
                     uint64_t min_value = 0,
                     uint64_t max_value = std::numeric_limits<
                         uint64_t>::max()) const;

    /** Double flag with an inclusive range. */
    double getDouble(const std::string &key, double dflt,
                     double min_value =
                         -std::numeric_limits<double>::infinity(),
                     double max_value =
                         std::numeric_limits<double>::infinity())
        const;

    /** 0/1 flag; any other value is a usage error. */
    bool getFlag(const std::string &key, bool dflt) const;

  private:
    std::map<std::string, std::string> values;
    std::string toolName;
};

} // namespace iracc

#endif // IRACC_UTIL_ARGPARSE_HH
