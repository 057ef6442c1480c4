/**
 * @file
 * Trace-file workload implementation.
 */

#include "sim/workload/trace_file.hh"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/parse.hh"

namespace archsim {

char
opCode(Op op)
{
    switch (op) {
      case Op::Fp: return 'F';
      case Op::Other: return 'O';
      case Op::Load: return 'L';
      case Op::Store: return 'S';
      case Op::Barrier: return 'B';
      case Op::Lock: return 'K';
      case Op::Unlock: return 'U';
    }
    throw std::logic_error("unknown Op");
}

Op
opFromCode(char c)
{
    switch (c) {
      case 'F': return Op::Fp;
      case 'O': return Op::Other;
      case 'L': return Op::Load;
      case 'S': return Op::Store;
      case 'B': return Op::Barrier;
      case 'K': return Op::Lock;
      case 'U': return Op::Unlock;
      default:
        throw std::invalid_argument(std::string("bad op code '") + c +
                                    "'");
    }
}

TraceFile
TraceFile::load(std::istream &in)
{
    TraceFile t;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        const auto bad = [&](const std::string &what) {
            return std::invalid_argument(
                "trace line " + std::to_string(line_no) + ": " + what);
        };
        std::istringstream ls(line);
        std::string thread_text, op, addr, extra;
        ls >> thread_text >> op >> addr >> extra;
        unsigned thread = 0;
        if (!cactid::util::parseNumber(thread_text, thread) ||
            op.size() != 1)
            throw bad("expected '<thread> <op> [addr]'");
        if (thread >= kMaxThreads)
            throw bad("thread id needs to be below " +
                      std::to_string(kMaxThreads) + " (got " +
                      thread_text + ")");
        Inst inst;
        try {
            inst.op = opFromCode(op[0]);
        } catch (const std::invalid_argument &e) {
            throw bad(e.what());
        }
        const bool memory = inst.op == Op::Load || inst.op == Op::Store;
        if (memory) {
            if (addr.empty())
                throw bad("memory op without address");
            const char *end = addr.data() + addr.size();
            const auto [p, ec] =
                std::from_chars(addr.data(), end, inst.addr, 16);
            if (ec != std::errc() || p != end)
                throw bad("address needs a 64-bit hex number (got " +
                          addr + ")");
        }
        if ((!memory && !addr.empty()) || !extra.empty())
            throw bad("trailing text after the record");
        if (thread >= t.perThread_.size())
            t.perThread_.resize(thread + 1);
        t.perThread_[thread].push_back(inst);
    }
    return t;
}

namespace {

/** Replays one thread's records, looping at the end. */
class TraceSource : public InstSource
{
  public:
    explicit TraceSource(std::vector<Inst> insts)
        : insts_(std::move(insts))
    {
        if (insts_.empty())
            throw std::invalid_argument("empty trace for thread");
    }

    Inst
    next() override
    {
        const Inst i = insts_[pos_];
        pos_ = (pos_ + 1) % insts_.size();
        return i;
    }

  private:
    std::vector<Inst> insts_;
    std::size_t pos_ = 0;
};

} // namespace

std::unique_ptr<InstSource>
TraceFile::source(int thread) const
{
    return std::make_unique<TraceSource>(perThread_.at(thread));
}

void
writeTrace(std::ostream &out, const WorkloadParams &params,
           int n_threads, std::uint64_t n)
{
    if (n_threads < 1)
        throw std::invalid_argument("writeTrace: n_threads must be >= 1, "
                                    "got " + std::to_string(n_threads));
    out << "# archsim trace: " << params.name << ", " << n_threads
        << " threads, " << n << " instructions each\n";
    for (int t = 0; t < n_threads; ++t) {
        ThreadGen gen(params, t, n_threads);
        for (std::uint64_t i = 0; i < n; ++i) {
            const Inst inst = gen.next();
            out << t << ' ' << opCode(inst.op);
            if (inst.op == Op::Load || inst.op == Op::Store)
                out << ' ' << std::hex << inst.addr << std::dec;
            out << '\n';
        }
    }
}

} // namespace archsim
