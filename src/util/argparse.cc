#include "util/argparse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "util/logging.hh"

namespace iracc {

void
usageError(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::fprintf(stderr, "usage error: ");
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
    va_end(args);
    std::exit(2);
}

void
requireWritable(const std::string &path)
{
    const bool existed = std::filesystem::exists(path);
    {
        std::ofstream f(path, std::ios::app);
        fatal_if(!f, "cannot write '%s'", path.c_str());
    }
    if (!existed)
        std::filesystem::remove(path);
}

void
removePartialOutput(const std::string &path)
{
    std::error_code ec;
    if (std::filesystem::is_regular_file(path, ec))
        std::filesystem::remove(path, ec);
}

bool
closeOutput(std::ofstream &f, const std::string &path)
{
    f.close();
    if (f)
        return true;
    removePartialOutput(path);
    return false;
}

bool
parseInt64(const std::string &text, int64_t *out)
{
    // strtoll-family parsers skip leading whitespace; the whole-
    // token contract does not.
    if (text.empty() || std::isspace(
                            static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 0);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    *out = static_cast<int64_t>(v);
    return true;
}

bool
parseUint64(const std::string &text, uint64_t *out)
{
    if (text.empty() || text[0] == '-' ||
        std::isspace(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    *out = static_cast<uint64_t>(v);
    return true;
}

bool
parseDouble(const std::string &text, double *out)
{
    if (text.empty() || std::isspace(
                            static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end != text.c_str() + text.size() ||
        !std::isfinite(v)) {
        return false;
    }
    *out = v;
    return true;
}

ArgParser::ArgParser(int argc, char **argv, int first,
                     std::string tool)
    : toolName(std::move(tool))
{
    for (int i = first; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || key.size() == 2) {
            usageError("%s: expected --option, got '%s'",
                       toolName.c_str(), key.c_str());
        }
        // A bare switch -- last token, or followed by the next
        // --option -- reads as "1" (e.g. "--wait"); everything
        // else is a --key value pair.
        if (i + 1 >= argc ||
            std::string(argv[i + 1]).rfind("--", 0) == 0) {
            values[key] = "1";
        } else {
            values[key] = argv[++i];
        }
    }
}

bool
ArgParser::has(const std::string &key) const
{
    return values.count(key) != 0;
}

std::string
ArgParser::get(const std::string &key, const std::string &dflt) const
{
    auto it = values.find(key);
    return it == values.end() ? dflt : it->second;
}

int64_t
ArgParser::getInt(const std::string &key, int64_t dflt,
                  int64_t min_value, int64_t max_value) const
{
    auto it = values.find(key);
    if (it == values.end())
        return dflt;
    int64_t v = 0;
    if (!parseInt64(it->second, &v)) {
        usageError("%s: %s expects an integer, got '%s'",
                   toolName.c_str(), key.c_str(),
                   it->second.c_str());
    }
    if (v < min_value || v > max_value) {
        usageError("%s: %s %lld out of range [%lld, %lld]",
                   toolName.c_str(), key.c_str(),
                   static_cast<long long>(v),
                   static_cast<long long>(min_value),
                   static_cast<long long>(max_value));
    }
    return v;
}

uint64_t
ArgParser::getUint(const std::string &key, uint64_t dflt,
                   uint64_t min_value, uint64_t max_value) const
{
    auto it = values.find(key);
    if (it == values.end())
        return dflt;
    uint64_t v = 0;
    if (!parseUint64(it->second, &v)) {
        usageError("%s: %s expects a non-negative integer, got "
                   "'%s'",
                   toolName.c_str(), key.c_str(),
                   it->second.c_str());
    }
    if (v < min_value || v > max_value) {
        usageError("%s: %s %llu out of range [%llu, %llu]",
                   toolName.c_str(), key.c_str(),
                   static_cast<unsigned long long>(v),
                   static_cast<unsigned long long>(min_value),
                   static_cast<unsigned long long>(max_value));
    }
    return v;
}

double
ArgParser::getDouble(const std::string &key, double dflt,
                     double min_value, double max_value) const
{
    auto it = values.find(key);
    if (it == values.end())
        return dflt;
    double v = 0.0;
    if (!parseDouble(it->second, &v)) {
        usageError("%s: %s expects a number, got '%s'",
                   toolName.c_str(), key.c_str(),
                   it->second.c_str());
    }
    if (v < min_value || v > max_value) {
        usageError("%s: %s %g out of range [%g, %g]",
                   toolName.c_str(), key.c_str(), v, min_value,
                   max_value);
    }
    return v;
}

bool
ArgParser::getFlag(const std::string &key, bool dflt) const
{
    int64_t v = getInt(key, dflt ? 1 : 0, 0, 1);
    return v != 0;
}

} // namespace iracc
