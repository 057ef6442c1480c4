/**
 * @file
 * Trace-file workloads: dump the synthetic generators to a portable
 * text format and replay recorded traces through the timing simulator,
 * so externally captured instruction streams can drive the study.
 *
 * Format: one record per line, `<thread> <op> [hex-addr]`, where op is
 * one of F (fp), O (other), L (load), S (store), B (barrier), K (lock),
 * U (unlock).  The thread id is decimal and below TraceFile::kMaxThreads;
 * loads and stores carry a 64-bit hex address (no 0x), other ops none.
 * Lines starting with `#` are comments.
 */

#ifndef ARCHSIM_WORKLOAD_TRACE_FILE_HH
#define ARCHSIM_WORKLOAD_TRACE_FILE_HH

#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "sim/workload/trace_gen.hh"

namespace archsim {

/** A loaded trace: per-thread instruction vectors. */
class TraceFile
{
  public:
    /**
     * Thread ids run below this, so a loaded trace's thread table
     * (one vector per id up to the largest) stays small whatever id a
     * file names.
     */
    static constexpr unsigned kMaxThreads = 1u << 16;

    /**
     * Parse a trace stream.  @throws std::invalid_argument, as
     * "trace line N: ...", on any malformed record.
     */
    static TraceFile load(std::istream &in);

    /** Number of threads with at least one record. */
    int threads() const { return static_cast<int>(perThread_.size()); }

    /** Instructions recorded for @p thread. */
    const std::vector<Inst> &
    thread(int thread) const
    {
        return perThread_.at(thread);
    }

    /**
     * An InstSource replaying @p thread's records, looping back to the
     * start when exhausted (so instruction budgets may exceed the
     * trace length).
     */
    std::unique_ptr<InstSource> source(int thread) const;

  private:
    std::vector<std::vector<Inst>> perThread_;
};

/**
 * Record @p n instructions per thread from the synthetic generator of
 * @p params into the trace format.
 *
 * @throws std::invalid_argument when @p n_threads < 1 (nothing is
 * written).
 */
void writeTrace(std::ostream &out, const WorkloadParams &params,
                int n_threads, std::uint64_t n);

/** Single-character encoding of an op (see file header). */
char opCode(Op op);

/** Decode an op character. @throws std::invalid_argument. */
Op opFromCode(char c);

} // namespace archsim

#endif // ARCHSIM_WORKLOAD_TRACE_FILE_HH
