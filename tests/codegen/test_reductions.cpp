/**
 * @file
 * Slice-parallel reductions (paper §3.5): an accumulator whose update
 * does not read it runs as three phases of the entry -- its cells, then
 * kReductionSlices slices of its outermost reduction dimension, each
 * combining into its own copy, then a merge in slice order.  The slice
 * count never depends on the thread count, so outputs are bitwise
 * equal on schedulers of any width; they match the interpreter (the
 * serial oracle) within tolerance, exactly for integers.  Domains with
 * no point, one point and fewer points than slices are included, and
 * an accumulator reading itself stays one serial task.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

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

TEST(SlicedReductions, BilateralGridAgreesAtEveryWidth)
{
    // Rows are the sliced dimension: 64 of them, then fewer than slices.
    for (std::int64_t rows : {64, cg::kReductionSlices - 1}) {
        SCOPED_TRACE("rows " + std::to_string(rows));
        const PipelineSpec spec = apps::buildBilateralGrid(rows, 48);
        const Executable exe = Executable::build(spec);
        EXPECT_EQ(exe.info().code.slicedReductions.size(), 2u);
        const Buffer in = synth::photo(rows, 48);
        checkAtEveryWidth(exe, spec, {rows, 48}, {&in}, 1e-4);
    }
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
