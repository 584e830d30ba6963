/**
 * @file
 * Slice-parallel reductions (paper §3.5): an accumulator whose update
 * does not read it runs as three phases of the entry -- its cells, then
 * kReductionSlices slices of its outermost reduction dimension, each
 * combining into its own copy, then a merge in slice order.  The slice
 * count never depends on the thread count, so outputs are bitwise
 * equal on schedulers of any width; they match the interpreter (the
 * serial oracle) within tolerance, exactly for integers.  Each slice's
 * partial holds only the band of accumulator rows its sub-domain can
 * reach (cg::planSlices), bands may straddle slice boundaries, and a
 * target with no bound keeps whole-grid partials.  Domains with no
 * point, one point and fewer points than slices are included, and an
 * accumulator reading itself stays one serial task.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "apps/apps.hpp"
#include "common/test_pipelines.hpp"
#include "interp/interpreter.hpp"
#include "runtime/executor.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/synth.hpp"

namespace polymage::rt {
namespace {

using namespace dsl;

/**
 * Run @p spec on thread-less, 1-, 2- and 3-worker schedulers, expect
 * every run bitwise equal to the first and within @p tol of the
 * interpreter, and return the outputs.
 */
std::vector<Buffer>
checkAtEveryWidth(const Executable &exe, const PipelineSpec &spec,
                  const std::vector<std::int64_t> &params,
                  const std::vector<const Buffer *> &inputs, double tol)
{
    std::vector<Buffer> first;
    for (int workers : {-1, 1, 2, 3}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        SchedulerOptions opts;
        opts.workers = workers;
        TileScheduler sched(opts);
        std::vector<Buffer> outs = exe.run(params, inputs, &sched);
        if (first.empty()) {
            first = std::move(outs);
            continue;
        }
        EXPECT_EQ(outs.size(), first.size());
        for (std::size_t i = 0; i < outs.size() && i < first.size(); ++i)
            EXPECT_EQ(std::memcmp(outs[i].data(), first[i].data(),
                                  std::size_t(first[i].bytes())),
                      0)
                << "output " << i;
    }
    const auto ref =
        interp::evaluate(pg::PipelineGraph::build(spec), params, inputs);
    EXPECT_EQ(first.size(), ref.outputs.size());
    for (std::size_t i = 0; i < first.size() && i < ref.outputs.size(); ++i)
        EXPECT_LE(first[i].maxAbsDiff(ref.outputs[i]), tol) << "output " << i;
    return first;
}

/** FNV-1a over the bytes of @p b. */
std::uint64_t
fnv1a(const Buffer &b)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto *p = static_cast<const unsigned char *>(b.data());
    for (std::int64_t i = 0; i < b.bytes(); ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The slice plans of every sliced reduction of @p exe under @p params. */
std::vector<cg::SlicePlans>
plansOf(const Executable &exe, const std::vector<std::int64_t> &params,
        std::vector<std::int64_t> *elems = nullptr)
{
    const CompiledPipeline &c = exe.info();
    std::vector<cg::SlicePlans> plans;
    for (int s : c.code.slicedReductions) {
        plans.emplace_back();
        const std::int64_t n = cg::planSlices(
            c.graph, s, params,
            interp::stageShape(c.graph.stage(s), c.graph, params),
            plans.back());
        if (elems != nullptr)
            elems->push_back(n);
    }
    return plans;
}

TEST(SlicedReductions, BilateralGridAgreesAtEveryWidth)
{
    // Rows are the sliced dimension: 64 of them, then fewer than slices.
    // Band partials leave the bits as they were with whole-grid ones:
    // the merges they skip only added +0.0.
    const std::map<std::int64_t, std::uint64_t> hashes = {
        {64, 0x4009a073b0a3795eull}, {cg::kReductionSlices - 1,
                                      0x639e1f87ea5191f9ull}};
    for (std::int64_t rows : {64, cg::kReductionSlices - 1}) {
        SCOPED_TRACE("rows " + std::to_string(rows));
        const PipelineSpec spec = apps::buildBilateralGrid(rows, 48);
        const Executable exe = Executable::build(spec);
        EXPECT_EQ(exe.info().code.slicedReductions.size(), 2u);
        const Buffer in = synth::photo(rows, 48);
        const auto outs =
            checkAtEveryWidth(exe, spec, {rows, 48}, {&in}, 1e-4);
        if (cg::kReductionSlices == 4)
            EXPECT_EQ(fnv1a(outs[0]), hashes.at(rows));
    }
    // At 64 rows each slice of 16 image rows reaches 3 of the 12 grid
    // rows, (x + 4) / 8 + 1 over its rows.
    const Executable exe = Executable::build(apps::buildBilateralGrid(64, 48));
    for (const cg::SlicePlans &plan : plansOf(exe, {64, 48})) {
        for (int k = 1; k < cg::kReductionSlices; ++k) {
            EXPECT_EQ(plan[k].b0, (plan[k].x0 + 4) / 8 + 1);
            EXPECT_EQ(plan[k].b1, (plan[k].x1 + 4) / 8 + 1);
        }
    }
}

/**
 * Targets whose bands straddle slice boundaries: a row reached from two
 * slices sits in both partials, and merges into the accumulator in
 * slice order.  A falling target (rows reversed), a floor-divided one
 * and one reached through a second reduction variable.
 */
TEST(SlicedReductions, BandsStraddleSliceBoundaries)
{
    Parameter R("R"), C("C");
    Variable x("x"), y("y"), g("g"), c("c");
    Image I("I", DType::Float, {Expr(R), Expr(C)});
    Image J("J", DType::Int, {Expr(R), Expr(C)});
    const std::vector<Interval> sweep = {Interval(Expr(0), Expr(R) - 1),
                                         Interval(Expr(0), Expr(C) - 1)};
    PipelineSpec spec("bands");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(I);
    spec.addInput(J);
    Accumulator thirds("thirds", {g, c},
                       {Interval(Expr(0), Expr(R) / 3),
                        Interval(Expr(0), Expr(C) - 1)},
                       {x, y}, sweep, DType::Float);
    thirds.accumulate({(Expr(x) + 1) / 3, Expr(y)}, I(x, y));
    Accumulator falling("falling", {g}, {Interval(Expr(0), Expr(R) - 1)},
                        {x, y}, sweep, DType::Int);
    falling.accumulate({Expr(R) - 1 - Expr(x)}, J(x, y), ReduceOp::Max,
                       Expr(-100));
    Accumulator skew("skew", {g},
                     {Interval(Expr(0), Expr(R) / 2 + (Expr(C) - 1) / 8)},
                     {x, y}, sweep, DType::Int);
    skew.accumulate({Expr(x) / 2 + Expr(y) / 8}, J(x, y));
    spec.addOutput(thirds);
    spec.addOutput(falling);
    spec.addOutput(skew);
    spec.estimate(R, 64);
    spec.estimate(C, 40);
    const Executable exe = Executable::build(spec);
    ASSERT_EQ(exe.info().code.slicedReductions.size(), 3u);

    // 50 rows slice at 12, 25 and 37: (12 + 1) / 3 == (11 + 1) / 3.
    const std::int64_t r = 50;
    Buffer fin(DType::Float, {r, 40}), iin(DType::Int, {r, 40});
    for (std::int64_t i = 0; i < r * 40; ++i) {
        fin.dataAs<float>()[i] = float((i * 7919) % 1000) / 997.0f;
        iin.dataAs<int>()[i] = int((i * 31) % 7) - 3;
    }
    checkAtEveryWidth(exe, spec, {r, 40}, {&fin, &iin}, 1e-5);

    std::vector<std::int64_t> elems;
    const auto plans = plansOf(exe, {r, 40}, &elems);
    const cg::SlicePlans &t = plans[0];
    for (int k = 1; k + 1 < cg::kReductionSlices; ++k)
        EXPECT_EQ(t[k].b1, t[k + 1].b0) << "slice " << k;
    EXPECT_EQ(t[1].b0, (t[1].x0 + 1) / 3);
    EXPECT_EQ(t[1].b0, (t[0].x1 + 1) / 3); // shared with slice 0
    const cg::SlicePlans &f = plans[1];
    for (int k = 1; k < cg::kReductionSlices; ++k) {
        EXPECT_EQ(f[k].b0, r - 1 - f[k].x1);
        EXPECT_EQ(f[k].b1, r - 1 - f[k].x0);
    }
    // Every band is narrower than the grid, so the partials are too.
    const std::int64_t rows[] = {r / 3 + 1, r, r / 2 + 39 / 8 + 1};
    const std::int64_t row_elems[] = {40, 1, 1};
    for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE("reduction " + std::to_string(i));
        EXPECT_LT(elems[std::size_t(i)],
                  (cg::kReductionSlices - 1) * rows[i] * row_elems[i]);
    }
}

/**
 * A data-dependent target has no bound over a slice: its partials stay
 * whole grids, and the result stays exact at every width.
 */
TEST(SlicedReductions, DataDependentTargetKeepsWholeGridPartials)
{
    Parameter R("R"), C("C");
    Variable x("x"), y("y"), b("b");
    Image J("J", DType::Int, {Expr(R), Expr(C)});
    Accumulator bins("bins", {b}, {Interval(Expr(0), Expr(9))}, {x, y},
                     {Interval(Expr(0), Expr(R) - 1),
                      Interval(Expr(0), Expr(C) - 1)},
                     DType::Int);
    bins.accumulate({J(x, y)}, Expr(1));
    PipelineSpec spec("bins");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(J);
    spec.addOutput(bins);
    spec.estimate(R, 64);
    spec.estimate(C, 40);
    const Executable exe = Executable::build(spec);
    ASSERT_EQ(exe.info().code.slicedReductions.size(), 1u);

    Buffer in(DType::Int, {61, 40});
    for (std::int64_t i = 0; i < 61 * 40; ++i)
        in.dataAs<int>()[i] = int((i * 13) % 10);
    checkAtEveryWidth(exe, spec, {61, 40}, {&in}, 0.0);

    std::vector<std::int64_t> elems;
    const cg::SlicePlans plan = plansOf(exe, {61, 40}, &elems).front();
    for (int k = 1; k < cg::kReductionSlices; ++k) {
        EXPECT_EQ(plan[k].b0, 0);
        EXPECT_EQ(plan[k].b1, 9);
    }
    EXPECT_EQ(elems.front(), (cg::kReductionSlices - 1) * 10);
}

TEST(SlicedReductions, IntegerHistogramsAreExact)
{
    const PipelineSpec spec = apps::buildHistogramEq(96, 64);
    const Executable exe = Executable::build(spec);
    EXPECT_EQ(exe.info().code.slicedReductions.size(), 1u);
    Buffer in(DType::UChar, {96, 64});
    for (std::int64_t i = 0; i < 96 * 64; ++i)
        in.dataAs<unsigned char>()[i] = static_cast<unsigned char>(i * 37);
    checkAtEveryWidth(exe, spec, {96, 64}, {&in}, 0.0);

    auto t = testing::makeHistogram(64);
    const Executable hist = Executable::build(t.spec);
    checkAtEveryWidth(hist, t.spec, {96, 64}, {&in}, 0.0);
}

/**
 * Column reductions over rows [1, R - 1] of every kind: with R = 1 the
 * sliced dimension is empty, with R = 2 it is one point, with
 * R = kReductionSlices shorter than the slice count.  Cells keep their init values where
 * no point reaches them.
 */
TEST(SlicedReductions, EmptyOnePointAndShortDomains)
{
    Parameter R("R"), C("C");
    Variable x("x"), y("y"), c("c");
    Image I("I", DType::Float, {Expr(R), Expr(C)});
    Image J("J", DType::Int, {Expr(R), Expr(C)});
    const std::vector<Interval> rows = {Interval(Expr(1), Expr(R) - 1),
                                        Interval(Expr(0), Expr(C) - 1)};
    const Interval cols(Expr(0), Expr(C) - 1);
    PipelineSpec spec("column_reductions");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(I);
    spec.addInput(J);
    auto column = [&](const char *name, const Image &src, DType t,
                      ReduceOp op, Expr init) {
        Accumulator a(name, {c}, {cols}, {x, y}, rows, t);
        a.accumulate({Expr(y)}, src(x, y), op, std::move(init));
        spec.addOutput(a);
    };
    column("fsum", I, DType::Float, ReduceOp::Sum, Expr(0.5));
    column("fmin", I, DType::Float, ReduceOp::Min, Expr(2.0));
    column("imax", J, DType::Int, ReduceOp::Max, Expr(-5));
    column("iprod", J, DType::Int, ReduceOp::Product, Expr(1));
    spec.estimate(R, 64);
    spec.estimate(C, 40);
    const Executable exe = Executable::build(spec);
    EXPECT_EQ(exe.info().code.slicedReductions.size(), 4u);

    for (std::int64_t r : {std::int64_t(1), std::int64_t(2),
                           std::int64_t(cg::kReductionSlices),
                           std::int64_t(40)}) {
        SCOPED_TRACE("R = " + std::to_string(r));
        Buffer fin(DType::Float, {r, 40}), iin(DType::Int, {r, 40});
        for (std::int64_t i = 0; i < r * 40; ++i) {
            fin.dataAs<float>()[i] = float((i * 7919) % 1000) / 997.0f;
            iin.dataAs<int>()[i] = int((i * 31) % 3) - 1;
        }
        const auto outs = checkAtEveryWidth(exe, spec, {r, 40},
                                            {&fin, &iin}, 1e-5);
        if (r == 1) {
            for (std::int64_t j = 0; j < 40; ++j) {
                EXPECT_EQ(outs[0].dataAs<float>()[j], 0.5f);
                EXPECT_EQ(outs[2].dataAs<int>()[j], -5);
            }
        }
    }
}

TEST(SlicedReductions, SelfReferentialAccumulatorStaysSerial)
{
    // chain(r) reads chain(r - 1): the sweep's order is its result.
    Parameter C("C");
    Variable x("x"), r("r");
    Image I("I", DType::Int, {Expr(C)});
    Accumulator chain("chain", {x}, {Interval(Expr(0), Expr(C) - 1)}, {r},
                      {Interval(Expr(1), Expr(C) - 1)}, DType::Int);
    chain.accumulate({Expr(r)}, chain(Expr(r) - 1) + I(r), ReduceOp::Sum,
                     Expr(1));
    PipelineSpec spec("chain");
    spec.addParam(C);
    spec.addInput(I);
    spec.addOutput(chain);
    spec.estimate(C, 300);
    const Executable exe = Executable::build(spec);
    const cg::GeneratedCode &code = exe.info().code;
    EXPECT_TRUE(code.slicedReductions.empty());
    EXPECT_EQ(code.serialPhases, std::vector<bool>{true});

    Buffer in(DType::Int, {300});
    for (std::int64_t i = 0; i < 300; ++i)
        in.dataAs<int>()[i] = int(i % 3);
    const auto outs = checkAtEveryWidth(exe, spec, {300}, {&in}, 0.0);
    // chain(0) = 1; chain(r) = 1 + chain(r - 1) + I(r).
    int want = 1;
    for (std::int64_t i = 0; i < 300; ++i) {
        if (i > 0)
            want = 1 + want + int(i % 3);
        EXPECT_EQ(outs[0].dataAs<int>()[i], want) << i;
    }
}

} // namespace
} // namespace polymage::rt
