/**
 * @file
 * Structured error taxonomy for the recoverable library paths: a small
 * closed set of error codes, an `Err` value carrying (code, site,
 * detail), and a lightweight `Expected<T>` for factory-style APIs.
 *
 * The taxonomy exists so callers can *dispatch* on failures instead of
 * string-matching messages: the serving engine retries `Io` errors,
 * treats `NotFound` checkpoints as cold starts, and quarantines a
 * stream on anything else; tools print `message()` and exit. `site` is
 * the failure-site name shared with the fault-injection framework
 * (util/failpoint.hpp) — "ckpt.read", "trace.open", ... — so an
 * injected fault and the real failure it models are indistinguishable
 * to the recovery code, which is the point.
 *
 * Convention, by where a checked value comes from: input from outside
 * the program (specs, trace names and files, checkpoints) is rejected
 * once, where it arrives, with an `Err` (empty = success) or
 * `Expected<T>` (or tryMakePredictor's `bool` + message); a value
 * only code builds (a family's Config, the trace profiles, a literal
 * spec) is an invariant for TAGECON_ASSERT / `panic()`; `fatal()`
 * stays at tool boundaries (see util/logging.hpp). Both result types
 * are [[nodiscard]]: silently dropping a failure is a compile-time
 * warning everywhere and an error in the -Werror CI builds.
 */

#ifndef TAGECON_UTIL_ERRORS_HPP
#define TAGECON_UTIL_ERRORS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace tagecon {

/** Closed set of failure classes on recoverable library paths. */
enum class ErrCode : uint8_t {
    None = 0,    ///< success (the empty Err)
    NotFound,    ///< missing file / unknown name
    Io,          ///< open/read/write/flush failure — the retryable class
    Corrupt,     ///< digest mismatch or malformed framing
    Truncated,   ///< input shorter than its header promises
    BadVersion,  ///< recognized format, unsupported version
    Parse,       ///< text input does not parse
    BadSpec,     ///< malformed spec string (predictor/trace/fault)
    Mismatch,    ///< blob belongs to a different spec/stream
    Unsupported, ///< operation not implemented by this family
};

/** Stable lowercase name of @p code ("io", "not-found", ...). */
const char* errCodeName(ErrCode code);

/** Inverse of errCodeName(); false on an unknown name. */
bool errCodeFromName(const std::string& name, ErrCode& out);

/**
 * True for error classes worth retrying with backoff: transient I/O.
 * Corruption, truncation and version/spec mismatches are deterministic
 * — retrying re-reads the same bad bytes.
 */
inline bool
errIsRetryable(ErrCode code)
{
    return code == ErrCode::Io;
}

/**
 * One structured error: what class of failure (code), where it
 * happened (site — a failpoint-site name when one exists, else a
 * short component name), and the human detail.
 *
 * A default-constructed Err is success; functions returning Err use
 * that as their "no error" value.
 *
 * [[nodiscard]]: a returned Err must be checked (or explicitly
 * ignored with a cast) — dropping one on the floor is exactly the
 * error-discipline bug the taxonomy exists to prevent.
 */
struct [[nodiscard]] Err {
    ErrCode code = ErrCode::None;
    std::string site;
    std::string detail;

    Err() = default;

    Err(ErrCode c, std::string s, std::string d)
        : code(c), site(std::move(s)), detail(std::move(d))
    {
    }

    bool ok() const { return code == ErrCode::None; }
    bool failed() const { return code != ErrCode::None; }

    /** "site: detail [code]" — the display form tools print. */
    std::string message() const;
};

/**
 * Minimal either-a-value-or-an-Err result for factory-style APIs
 * (open a reader, decode a blob). Deliberately tiny: no monadic
 * combinators, just ok()/value()/error()/take().
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}

    Expected(Err err) : err_(std::move(err))
    {
        // An Expected built from an error must actually carry one;
        // otherwise ok() would lie.
        if (err_.ok())
            err_ = Err(ErrCode::Io, "", "unspecified error");
    }

    bool ok() const { return value_.has_value(); }

    T& value() { return *value_; }
    const T& value() const { return *value_; }

    /** Move the value out (valid only when ok()). */
    T take() { return std::move(*value_); }

    const Err& error() const { return err_; }

  private:
    std::optional<T> value_;
    Err err_;
};

} // namespace tagecon

#endif // TAGECON_UTIL_ERRORS_HPP
