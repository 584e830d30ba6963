/**
 * @file
 * Property-based integration tests: randomly generated pipelines --
 * stencil DAGs, up/down-sampling chains and data-dependent lookups --
 * are compiled through the full optimising stack (random tile sizes
 * and thresholds included) and must match the reference interpreter
 * exactly (up to float tolerance).  This fuzzes grouping, alignment/scaling, overlapped
 * tiling, scratchpad allocation, and code generation together.
 */
#include <gtest/gtest.h>

#include "dsl/dsl.hpp"
#include "interp/interpreter.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"

namespace polymage {
namespace {

using namespace dsl;
using rt::Buffer;

Buffer
randomInput(Rng &rng, const std::vector<std::int64_t> &dims)
{
    Buffer b(DType::Float, dims);
    float *p = b.dataAs<float>();
    for (std::int64_t i = 0; i < b.numel(); ++i)
        p[i] = float(rng.uniformReal(-1.0, 1.0));
    return b;
}

void
checkPipeline(const PipelineSpec &spec,
              const std::vector<std::int64_t> &params,
              const std::vector<const Buffer *> &inputs, Rng &rng,
              double tol)
{
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, params, inputs);

    CompileOptions opts;
    const std::int64_t tiles[] = {8, 32, 64};
    opts.grouping.tileSizes = {tiles[rng.uniformInt(0, 2)],
                               tiles[rng.uniformInt(0, 2)]};
    opts.grouping.overlapThreshold =
        rng.chance(0.5) ? 0.4 : 0.9;
    opts.codegen.vectorize = rng.chance(0.7)
                                 ? cg::VectorizeMode::Explicit
                                 : cg::VectorizeMode::Off;

    rt::Executable exe = rt::Executable::build(spec, opts);
    auto outs = exe.run(params, inputs);
    ASSERT_EQ(outs.size(), ref.outputs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
        EXPECT_LE(outs[i].maxAbsDiff(ref.outputs[i]), tol)
            << "output " << i << " of " << spec.name();
    }
}

/**
 * Random 2-D stencil DAG: each stage reads one or two earlier stages
 * (or the input) at offsets within +-2, on margin-shrunk domains so no
 * boundary cases are needed.
 */
TEST(RandomPipelines, StencilDags)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 7919);
        const std::int64_t n = 96 + rng.uniformInt(0, 40);
        Parameter N("N");
        Image I("I", DType::Float, {Expr(N), Expr(N)});
        Variable x("x"), y("y");

        const int depth = int(rng.uniformInt(3, 7));
        std::vector<Function> stages;
        for (int k = 0; k < depth; ++k) {
            const std::int64_t m = 2 * (k + 1);
            Interval dom(Expr(m), Expr(N) - 1 - m);
            Function f("s" + std::to_string(k), {x, y}, {dom, dom},
                       DType::Float);
            auto pick = [&]() -> std::function<Expr(Expr, Expr)> {
                if (k == 0 || rng.chance(0.3)) {
                    return [&I](Expr i, Expr j) { return I(i, j); };
                }
                const int src = int(
                    rng.uniformInt(std::max(0, k - 2), k - 1));
                Function g = stages[std::size_t(src)];
                return [g](Expr i, Expr j) { return g(i, j); };
            };
            Expr body;
            const int terms = int(rng.uniformInt(1, 3));
            for (int t = 0; t < terms; ++t) {
                auto acc = pick();
                const std::int64_t dx = rng.uniformInt(-2, 2);
                const std::int64_t dy = rng.uniformInt(-2, 2);
                Expr term = acc(Expr(x) + Expr(dx), Expr(y) + Expr(dy)) *
                            Expr(rng.uniformReal(-1.0, 1.0));
                body = body.defined() ? body + term : term;
            }
            f.define(body);
            stages.push_back(f);
        }

        PipelineSpec spec("fuzz_stencil_" + std::to_string(seed));
        spec.addParam(N);
        spec.addInput(I);
        spec.addOutput(stages.back());
        // A second random live-out exercises mid-group full buffers.
        if (depth > 3 && rng.chance(0.5))
            spec.addOutput(stages[std::size_t(depth / 2)]);
        spec.estimate(N, n);

        Buffer in = randomInput(rng, {n, n});
        checkPipeline(spec, {n}, {&in}, rng, 2e-4);
    }
}

/**
 * Random 1-D sampling chains: stencil, downsample, and upsample stages
 * with concrete (literal) valid ranges tracked by the generator, so
 * scales differ across the chain and alignment/scaling is exercised.
 */
TEST(RandomPipelines, SamplingChains)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 104729);
        // Long enough that every stage, after up to two halvings,
        // reaches the 4096 points a group needs to merge.
        std::int64_t size = 16641 + rng.uniformInt(0, 64);
        std::int64_t lo = 0, hi = size - 1;

        Image I("I", DType::Float, {Expr(size)});
        Variable x("x");
        std::vector<Function> stages;
        auto access = [&](Expr idx) -> Expr {
            return stages.empty() ? I(idx) : stages.back()(idx);
        };

        const int depth = int(rng.uniformInt(3, 6));
        for (int k = 0; k < depth && hi - lo > 16; ++k) {
            const int kind = int(rng.uniformInt(0, 2));
            if (kind == 0) { // 3-tap stencil
                const std::int64_t nlo = lo + 1, nhi = hi - 1;
                Function g("c" + std::to_string(k), {x},
                           {Interval(Expr(nlo), Expr(nhi))},
                           DType::Float);
                g.define(access(Expr(x) - 1) * Expr(0.25) +
                         access(Expr(x)) * Expr(0.5) +
                         access(Expr(x) + 1) * Expr(0.25));
                stages.push_back(g);
                lo = nlo;
                hi = nhi;
            } else if (kind == 1) { // downsample: reads 2x, 2x+1
                const std::int64_t nlo = (lo + 1) / 2;
                const std::int64_t nhi = (hi - 1) / 2;
                Function g("c" + std::to_string(k), {x},
                           {Interval(Expr(nlo), Expr(nhi))},
                           DType::Float);
                g.define((access(Expr(x) * 2) +
                          access(Expr(x) * 2 + 1)) *
                         Expr(0.5));
                stages.push_back(g);
                lo = nlo;
                hi = nhi;
            } else { // upsample: reads x/2 and (x+1)/2
                const std::int64_t nlo = 2 * lo;
                const std::int64_t nhi = 2 * hi - 1;
                Function g("c" + std::to_string(k), {x},
                           {Interval(Expr(nlo), Expr(nhi))},
                           DType::Float);
                g.define((access(Expr(x) / 2) +
                          access((Expr(x) + 1) / 2)) *
                         Expr(0.5));
                stages.push_back(g);
                lo = nlo;
                hi = nhi;
            }
        }
        if (stages.empty())
            continue;

        PipelineSpec spec("fuzz_sampling_" + std::to_string(seed));
        spec.addInput(I);
        spec.addOutput(stages.back());

        Buffer in = randomInput(rng, {size});
        checkPipeline(spec, {}, {&in}, rng, 1e-4);
    }
}

/**
 * Random data-dependent reads: a table indexed by a clamped cast of
 * pixel values (a non-affine index), and border handling where select
 * picks the neighbour to read (affine indices that only the taken
 * branch evaluates), guarded by position or by data.
 */
TEST(RandomPipelines, DataDependentLookups)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed * 15485863);
        const std::int64_t n = 40 + rng.uniformInt(0, 24);
        const std::int64_t bins = 8 + rng.uniformInt(0, 40);
        Parameter N("N");
        Image I("I", DType::Float, {Expr(N), Expr(N)});
        Variable i("i"), x("x"), y("y");

        Function table("table", {i}, {Interval(Expr(0), Expr(bins - 1))},
                       DType::Float);
        table.define(cast(DType::Float, Expr(i) * Expr(i)) *
                     Expr(rng.uniformReal(-0.1, 0.1)));

        // Inputs lie in [-1, 1), so the scaled index runs below 0 and
        // past the last bin: the clamp engages at both ends.
        const Interval full(Expr(0), Expr(N) - 1);
        Function mapped("mapped", {x, y}, {full, full}, DType::Float);
        const double scale = double(bins) * rng.uniformReal(0.6, 1.2);
        mapped.define(
            table(clamp(cast(DType::Int,
                             (I(Expr(x), Expr(y)) + Expr(0.75)) *
                                 Expr(scale)),
                        Expr(0), Expr(bins - 1))) +
            I(Expr(x), Expr(y)));

        const Interval inner(Expr(1), Expr(N) - 2);
        Function edge("edge", {x, y}, {inner, inner}, DType::Float);
        const Condition by_data =
            I(Expr(x), Expr(y)) > Expr(rng.uniformReal(-0.5, 0.5));
        edge.define(
            select(Expr(y) >= 2, mapped(Expr(x), Expr(y) - 1),
                   mapped(Expr(x), Expr(y) + 1)) +
            select((Expr(x) <= Expr(N) - 3) & by_data,
                   mapped(Expr(x) + 1, Expr(y)),
                   mapped(Expr(x) - 1, Expr(y))) *
                Expr(0.5));

        PipelineSpec spec("fuzz_lookup_" + std::to_string(seed));
        spec.addParam(N);
        spec.addInput(I);
        spec.addOutput(edge);
        if (rng.chance(0.5))
            spec.addOutput(mapped);
        // Estimated above the run size, so `mapped` reaches the 4096
        // points a group needs to merge.
        spec.estimate(N, 2 * n);

        Buffer in = randomInput(rng, {n, n});
        checkPipeline(spec, {n}, {&in}, rng, 1e-4);
    }
}

} // namespace
} // namespace polymage
