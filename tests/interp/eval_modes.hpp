/**
 * @file
 * The ways the oracle tests run the interpreter: serially, with its
 * stages split into bands on a 3-worker tile scheduler, and on a
 * thread-less one whose bands the calling thread runs alone.  Every
 * mode must give the serial outputs and errors bit for bit.
 */
#ifndef POLYMAGE_TESTS_INTERP_EVAL_MODES_HPP
#define POLYMAGE_TESTS_INTERP_EVAL_MODES_HPP

#include <vector>

#include "runtime/scheduler.hpp"

namespace polymage::testing {

struct EvalMode
{
    const char *name;
    /** Passed to interp::evaluate; null evaluates serially. */
    rt::TileScheduler *sched;
};

inline const std::vector<EvalMode> &
evalModes()
{
    static rt::TileScheduler threaded(rt::SchedulerOptions{3});
    static rt::TileScheduler threadless(rt::SchedulerOptions{-1});
    static const std::vector<EvalMode> modes = {
        {"serial", nullptr},
        {"3 workers", &threaded},
        {"thread-less", &threadless},
    };
    return modes;
}

} // namespace polymage::testing

#endif // POLYMAGE_TESTS_INTERP_EVAL_MODES_HPP
