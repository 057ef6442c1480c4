/**
 * @file
 * Atomic file writes for every durable artifact the tools produce.
 *
 * A torn JSON/CSV export or checkpoint record is worse than a missing
 * one: downstream consumers (and --resume) would read half a file.
 * writeFileAtomic renders the payload, writes it to a same-directory
 * temporary, flushes it to stable storage (fsync), and renames it
 * over the destination, so readers only ever observe the old bytes or
 * the complete new bytes.  On any failure the temporary is removed
 * and the destination is left untouched.  ensureDirectory gives the
 * stores that write such files (the solve cache, the checkpoint
 * store) one check of their directory before the first write.
 */

#ifndef CACTID_UTIL_ATOMIC_FILE_HH
#define CACTID_UTIL_ATOMIC_FILE_HH

#include <functional>
#include <ostream>
#include <string>

namespace cactid::util {

/**
 * Atomically replace @p path with @p data (tmp + fsync + rename).
 *
 * @param err when non-null, receives a one-line diagnostic on failure
 * @return true when the destination holds the complete new bytes
 */
bool writeFileAtomic(const std::string &path, const std::string &data,
                     std::string *err = nullptr);

/**
 * Render with @p fn into a buffer, then write it atomically.  The
 * stream handed to @p fn is checked after rendering: a writer that
 * left it in a failed state aborts the write.
 */
bool writeFileAtomic(const std::string &path,
                     const std::function<void(std::ostream &)> &fn,
                     std::string *err = nullptr);

/** Read a whole file into @p out; false (with @p err) on failure. */
bool readFile(const std::string &path, std::string &out,
              std::string *err = nullptr);

/**
 * Create directory @p dir if it is missing (its parent must exist),
 * then check that it is a directory.
 *
 * @param what names @p dir in the error, e.g. "cache directory"
 * @throws std::invalid_argument `<what> <dir> is not a directory`, or
 *         `<what> <dir>: <reason>` when it cannot be created
 */
void ensureDirectory(const std::string &dir, const std::string &what);

} // namespace cactid::util

#endif // CACTID_UTIL_ATOMIC_FILE_HH
