/**
 * @file
 * Status / error reporting helpers following the gem5 idiom.
 *
 * fatal()  -- the simulation cannot continue due to a user error
 *             (bad configuration, invalid mapping, ...); throws
 *             FatalError.
 * panic()  -- something happened that should never happen regardless of
 *             user input (an internal bug); aborts.
 * warn()   -- functionality that might not behave exactly as expected.
 * inform() -- purely informational status messages.
 */

#ifndef SPARSELOOP_COMMON_LOGGING_HH
#define SPARSELOOP_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sparseloop {

namespace detail {

/** Format a message from stream-able parts. */
template <typename... Args>
std::string
formatMessage(const Args&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Throw FatalError with a user-error message (bad input /
 *  configuration). */
#define SL_FATAL(...) \
    ::sparseloop::detail::fatalImpl(__FILE__, __LINE__, \
        ::sparseloop::detail::formatMessage(__VA_ARGS__))

/** Abort with an internal-bug message. */
#define SL_PANIC(...) \
    ::sparseloop::detail::panicImpl(__FILE__, __LINE__, \
        ::sparseloop::detail::formatMessage(__VA_ARGS__))

/** Emit a warning to stderr. */
#define SL_WARN(...) \
    ::sparseloop::detail::warnImpl( \
        ::sparseloop::detail::formatMessage(__VA_ARGS__))

/** Emit an informational message to stderr. */
#define SL_INFORM(...) \
    ::sparseloop::detail::informImpl( \
        ::sparseloop::detail::formatMessage(__VA_ARGS__))

/** Assert an internal invariant; panics when violated. */
#define SL_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            SL_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (0)

/**
 * Exception thrown by fatal() so library users (and tests) can catch
 * user-level configuration errors instead of terminating the process.
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

} // namespace sparseloop

#endif // SPARSELOOP_COMMON_LOGGING_HH
