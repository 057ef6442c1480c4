/**
 * @file
 * Thread fan-out implementation.
 */

#include "util/fan_out.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace cactid::util {

void
fanOut(std::size_t n, int width,
       const std::function<void(std::size_t)> &fn)
{
    const std::size_t threads =
        std::min(n, static_cast<std::size_t>(std::max(width, 1)));
    std::atomic<std::size_t> next{0};
    std::mutex error_mtx;
    std::exception_ptr first_error;
    auto drain = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mtx);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    if (threads > 1) {
        pool.reserve(threads - 1);
        try {
            for (std::size_t t = 1; t < threads; ++t)
                pool.emplace_back(drain);
        } catch (const std::system_error &) {
            // Fewer threads than asked for: the ones started and this
            // one still drain every index.
        }
    }
    drain();
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace cactid::util
