/**
 * @file
 * Implementation of the logging / error-reporting helpers.
 */

#include "common/logging.hh"

#include <iostream>

namespace sparseloop {

namespace detail {

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream oss;
    oss << "fatal: " << msg << " (" << file << ":" << line << ")";
    throw FatalError(oss.str());
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " (" << file << ":" << line << ")"
              << std::endl;
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    std::cerr << "info: " << msg << std::endl;
}

} // namespace detail

} // namespace sparseloop
