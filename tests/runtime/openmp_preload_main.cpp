/**
 * @file
 * Regression test for hosts built without the OpenMP runtime.  This
 * binary links only the polymage library and references no `omp_*`
 * symbol, so the --as-needed link leaves libgomp out and the JIT is
 * the first to need it.  It runs a JIT'd Harris with several OpenMP
 * threads (ctest sets OMP_NUM_THREADS=4) and compares the output with
 * the reference interpreter.  Exit status 0 on success.
 */
#include <cstdio>
#include <dlfcn.h>

#include "apps/apps.hpp"
#include "driver/compiler.hpp"
#include "interp/interpreter.hpp"
#include "runtime/executor.hpp"
#include "runtime/synth.hpp"

using namespace polymage;

int
main()
{
    // The premise: nothing has loaded the OpenMP runtime yet.
    if (dlopen("libgomp.so.1", RTLD_NOW | RTLD_NOLOAD) != nullptr) {
        std::fprintf(stderr, "premise broken: libgomp is loaded before "
                             "the first JIT build\n");
        return 1;
    }

    const std::int64_t n = 256;
    auto spec = apps::buildHarris(n, n);
    rt::Buffer in = rt::synth::photo(n + 2, n + 2);
    auto ref = interp::evaluate(pg::PipelineGraph::build(spec), {n, n},
                                {&in});
    rt::Executable exe =
        rt::Executable::build(spec, CompileOptions::optimized());
    for (int run = 0; run < 3; ++run) {
        auto outs = exe.run({n, n}, {&in});
        const double diff = outs.at(0).maxAbsDiff(ref.outputs.at(0));
        if (!(diff <= 1e-3)) {
            std::fprintf(stderr, "run %d differs from the interpreter "
                                 "by %g\n",
                         run, diff);
            return 1;
        }
    }
    std::printf("JIT'd Harris matches the interpreter\n");
    return 0;
}
