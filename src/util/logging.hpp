/**
 * @file
 * Error-reporting helpers in the gem5 spirit: panic() for internal
 * invariant violations (bugs in this library), fatal() for user errors
 * (bad configuration, unusable inputs).
 * The library returns user errors as Err/Expected (util/errors.hpp);
 * fatal() is for tool, bench and example mains, plus util/cli.cpp
 * (their shared flag parser) and sim/sweep.cpp (runSweep() returns
 * bare results, so a trace failing mid-stream has no other way out).
 */

#ifndef TAGECON_UTIL_LOGGING_HPP
#define TAGECON_UTIL_LOGGING_HPP

#include <iosfwd>
#include <string>

namespace tagecon {

/**
 * Abort with a message. Call when something happened that should never
 * happen regardless of what the user does, i.e. an internal bug.
 *
 * @param msg Human-readable description of the violated invariant.
 */
[[noreturn]] void panic(const std::string& msg);

/**
 * Exit with an error code and a message. Call when the simulation cannot
 * continue due to a user-level problem (bad configuration, invalid
 * arguments) rather than a library bug.
 *
 * @param msg Human-readable description of the problem.
 */
[[noreturn]] void fatal(const std::string& msg);

/**
 * Print a non-fatal warning to the log stream (stderr by default).
 * Line-atomic: concurrent warn()/logLine() calls from sweep or serve
 * workers never interleave mid-line.
 */
void warn(const std::string& msg);

/**
 * Write @p line (a newline is appended) to the log stream under the
 * same mutex as warn(), so progress reporting from parallel workers
 * stays line-atomic too.
 */
void logLine(const std::string& line);

/**
 * Redirect warn()/logLine() (and the message half of panic()/fatal())
 * to @p os; nullptr restores stderr. Returns the previous sink. A test
 * hook — the mutex keeps writes to the injected stream serialized.
 */
std::ostream* setLogStream(std::ostream* os);

/** Assert an invariant; panics with file/line context when violated. */
#define TAGECON_ASSERT(cond, msg)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::tagecon::panic(std::string(__FILE__) + ":" +                 \
                             std::to_string(__LINE__) + ": " + (msg));     \
        }                                                                  \
    } while (false)

} // namespace tagecon

#endif // TAGECON_UTIL_LOGGING_HPP
