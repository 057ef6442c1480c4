/**
 * @file
 * Candidate evaluation: turns one partition of the organization space
 * into a complete Solution for a MemoryConfig.  The SolverEngine runs
 * one evaluator per solve.
 */

#ifndef CACTID_CORE_SOLVER_HH
#define CACTID_CORE_SOLVER_HH

#include <optional>

#include "array/bank.hh"
#include "array/partition.hh"
#include "core/cache_model.hh"
#include "core/config.hh"
#include "core/result.hh"
#include "tech/technology.hh"

namespace cactid {

/** Derive the data-bank build specification from a config. */
BankSpec makeBankSpec(const MemoryConfig &cfg);

/**
 * Per-config evaluation kernel: validates the config once, solves the
 * tag path once (caches), and then maps candidate partitions to
 * complete solutions.
 *
 * The evaluator owns the solve's BankBuilder, which memoizes the bank
 * parts no candidate changes (the H-tree wire, the mat output driver,
 * the row path per rows x cols, the DRAM column decoder per cols), and
 * sizes a chip's global wire once.
 * The memo lives and dies with the evaluator and is shared with no
 * other solve, so it needs no lock; in exchange operator() mutates
 * it, and one evaluator must not be called from two threads at once.
 * A memoized part is the value a fresh buildBank() computes, so
 * results are bit-identical either way.
 */
class CandidateEvaluator {
public:
    CandidateEvaluator(const Technology &t, const MemoryConfig &cfg);

    /**
     * Evaluate one candidate: build the bank, combine with the tag
     * path, and add chip-level effects for main-memory parts.  Returns
     * nullopt when the bank is infeasible.
     */
    std::optional<Solution> operator()(const Partition &p);

    const BankSpec &spec() const { return banks_.spec(); }

private:
    const Technology &t_;
    const MemoryConfig &cfg_;
    std::optional<TagPath> tag_;
    std::optional<RepeatedWire> chipWire_; ///< main-memory chips only
    BankBuilder banks_;
};

} // namespace cactid

#endif // CACTID_CORE_SOLVER_HH
