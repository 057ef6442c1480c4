/**
 * @file
 * The one thread fan-out behind solveBatch's share groups and the
 * study sweep's runs.
 */

#ifndef CACTID_UTIL_FAN_OUT_HH
#define CACTID_UTIL_FAN_OUT_HH

#include <cstddef>
#include <functional>

namespace cactid::util {

/**
 * Call @p fn(i) exactly once for every i in [0, @p n), on up to
 * @p width threads with the calling thread among them, and join them
 * all before returning.  Indices are handed out in ascending order
 * from a shared counter; a width of 1 (or n <= 1) runs the loop
 * inline.
 *
 * A thread that fails to start (std::system_error, e.g. at a process
 * limit) is not an error: the threads that did start, and the caller,
 * drain the remaining indices.  An exception thrown by @p fn does not
 * stop the other indices either; the first one caught is rethrown
 * once every thread has joined.
 */
void fanOut(std::size_t n, int width,
            const std::function<void(std::size_t)> &fn);

} // namespace cactid::util

#endif // CACTID_UTIL_FAN_OUT_HH
