#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "apps/apps.hpp"
#include "common/test_pipelines.hpp"
#include "interp/eval_modes.hpp"
#include "interp/interpreter.hpp"
#include "pipeline/inline.hpp"

namespace polymage::interp {
namespace {

using namespace dsl;
using rt::Buffer;

Buffer
rampImage(std::int64_t rows, std::int64_t cols)
{
    Buffer b(DType::Float, {rows, cols});
    float *p = b.dataAs<float>();
    for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t j = 0; j < cols; ++j)
            p[i * cols + j] = float(i * 3 + j) * 0.25f;
    }
    return b;
}

TEST(Interpreter, PointwiseMatchesFormula)
{
    auto t = testing::makePointwise();
    auto g = pg::PipelineGraph::build(t.spec);
    Buffer in = rampImage(8, 10);
    auto res = evaluate(g, {8, 10}, {&in});
    ASSERT_EQ(res.outputs.size(), 1u);
    const Buffer &out = res.outputs[0];
    ASSERT_EQ(out.dims(), (std::vector<std::int64_t>{8, 10}));
    for (std::int64_t i = 0; i < out.numel(); ++i)
        EXPECT_FLOAT_EQ(out.loadAsDouble(i), 2.0 * in.loadAsDouble(i) + 1);
}

TEST(Interpreter, BlurChainInteriorAndBoundary)
{
    auto t = testing::makeBlurChain();
    auto g = pg::PipelineGraph::build(t.spec);
    Buffer in(DType::Float, {16, 16});
    in.fill(3.0);
    auto res = evaluate(g, {16, 16}, {&in});
    const Buffer &out = res.outputs[0];
    // Interior of a constant image blurs to the same constant.
    const float *p = out.dataAs<float>();
    EXPECT_NEAR(p[8 * 16 + 8], 3.0, 1e-5);
    // Boundary rows are outside every case: stay zero.
    EXPECT_EQ(p[0], 0.0f);
    EXPECT_EQ(p[1 * 16 + 1], 0.0f); // outside blur2's case
}

TEST(Interpreter, UpsampleAndDownsampleSemantics)
{
    auto up = testing::makeUpsample();
    auto gu = pg::PipelineGraph::build(up.spec);
    Buffer in(DType::Float, {8});
    for (int i = 0; i < 8; ++i)
        in.dataAs<float>()[i] = float(10 * i);
    auto ru = evaluate(gu, {8}, {&in});
    const float *u = ru.outputs[0].dataAs<float>();
    // up(x) = base(x/2) = 0.5 * I(x/2).
    EXPECT_FLOAT_EQ(u[0], 0.0f);
    EXPECT_FLOAT_EQ(u[1], 0.0f);
    EXPECT_FLOAT_EQ(u[2], 5.0f);
    EXPECT_FLOAT_EQ(u[3], 5.0f);
    EXPECT_FLOAT_EQ(u[13], 30.0f);

    auto down = testing::makeDownsample();
    auto gd = pg::PipelineGraph::build(down.spec);
    auto rd = evaluate(gd, {8}, {&in});
    const float *d = rd.outputs[0].dataAs<float>();
    // down(x) = ((I(2x)+1) + (I(2x+1)+1)) / 2.
    EXPECT_FLOAT_EQ(d[0], 6.0f);
    EXPECT_FLOAT_EQ(d[3], 66.0f);
}

TEST(Interpreter, HistogramCountsPixels)
{
    auto t = testing::makeHistogram();
    auto g = pg::PipelineGraph::build(t.spec);
    Buffer in(DType::UChar, {4, 4});
    unsigned char *p = in.dataAs<unsigned char>();
    for (int i = 0; i < 16; ++i)
        p[i] = static_cast<unsigned char>(i % 3); // 6,5,5 of 0,1,2
    auto res = evaluate(g, {4, 4}, {&in});
    const int *h = res.outputs[0].dataAs<int>();
    EXPECT_EQ(h[0], 6);
    EXPECT_EQ(h[1], 5);
    EXPECT_EQ(h[2], 5);
    for (int b = 3; b < 256; ++b)
        EXPECT_EQ(h[b], 0);
}

TEST(Interpreter, TimeIteratedConverges)
{
    auto t = testing::makeTimeIterated(16, 4);
    auto g = pg::PipelineGraph::build(t.spec);
    Buffer in(DType::Float, {16});
    in.fill(0.0);
    in.dataAs<float>()[8] = 16.0f; // impulse
    auto res = evaluate(g, {16}, {&in});
    const Buffer &out = res.outputs[0];
    ASSERT_EQ(out.dims(), (std::vector<std::int64_t>{5, 16}));
    const float *p = out.dataAs<float>();
    // t=0 copies the input.
    EXPECT_FLOAT_EQ(p[8], 16.0f);
    // Mass is conserved in the interior for this averaging kernel after
    // one step: 16 spreads to (16/3) at 7, 8, 9.
    EXPECT_NEAR(p[16 + 7], 16.0 / 3, 1e-4);
    EXPECT_NEAR(p[16 + 8], 16.0 / 3, 1e-4);
    // Smoothing: the impulse peak decays (after the initial plateau).
    EXPECT_GT(p[1 * 16 + 8], p[3 * 16 + 8]);
    EXPECT_GT(p[3 * 16 + 8], p[4 * 16 + 8]);
}

TEST(Interpreter, HarrisFlatImageHasZeroResponse)
{
    auto spec = apps::buildHarris(16, 16);
    auto g = pg::PipelineGraph::build(spec);
    Buffer in(DType::Float, {18, 18});
    in.fill(7.0);
    auto res = evaluate(g, {16, 16}, {&in});
    // A constant image has no gradients: response is identically 0.
    EXPECT_EQ(res.outputs[0].maxAbsDiff(
                  Buffer(DType::Float, {18, 18})),
              0.0);
}

TEST(Interpreter, HarrisCornerRespondsStrongerThanEdge)
{
    const std::int64_t n = 24;
    auto spec = apps::buildHarris(n, n);
    auto g = pg::PipelineGraph::build(spec);
    Buffer in(DType::Float, {n + 2, n + 2});
    float *p = in.dataAs<float>();
    // Bright quadrant: corner at (12, 12), edges along row/col 12.
    for (std::int64_t i = 0; i < n + 2; ++i) {
        for (std::int64_t j = 0; j < n + 2; ++j)
            p[i * (n + 2) + j] = (i >= 12 && j >= 12) ? 1.0f : 0.0f;
    }
    auto res = evaluate(g, {n, n}, {&in});
    const float *h = res.outputs[0].dataAs<float>();
    auto at = [&](std::int64_t i, std::int64_t j) {
        return h[i * (n + 2) + j];
    };
    // Corner response at the corner beats the response along the edge
    // far from the corner.
    EXPECT_GT(at(12, 12), at(12, 20));
    EXPECT_GT(at(12, 12), at(20, 12));
    EXPECT_GT(at(12, 12), 0.0f);
}

TEST(Interpreter, InliningPreservesSemantics)
{
    auto spec = apps::buildHarris(16, 16);
    auto g = pg::PipelineGraph::build(spec);
    Buffer in = rampImage(18, 18);
    // Make it non-linear so the response is non-trivial.
    float *p = in.dataAs<float>();
    for (std::int64_t i = 0; i < in.numel(); ++i)
        p[i] = std::sin(0.3f * float(i)) * 10.0f;

    auto base = evaluate(g, {16, 16}, {&in});

    auto inlined = pg::inlinePointwise(spec);
    auto gi = pg::PipelineGraph::build(inlined.spec);
    auto opt = evaluate(gi, {16, 16}, {&in});

    EXPECT_LT(base.outputs[0].maxAbsDiff(opt.outputs[0]), 1e-3);
}

TEST(Interpreter, AmbiguousCasesDetected)
{
    Parameter R("R");
    Variable x("x");
    Image I("I", DType::Float, {Expr(R)});
    Function f("f", {x}, {Interval(Expr(0), Expr(R) - 1)}, DType::Float);
    f.define({Case(Expr(x) >= 0, I(Expr(x))),
              Case(Expr(x) >= 2, I(Expr(x)) * Expr(2.0))});
    PipelineSpec spec("ambiguous");
    spec.addOutput(f);
    spec.estimate(R, 8);
    auto g = pg::PipelineGraph::build(spec);
    Buffer in(DType::Float, {8});
    EXPECT_THROW(evaluate(g, {8}, {&in}), SpecError);
}

TEST(Interpreter, RuntimeOutOfBoundsDetected)
{
    // Data-dependent access that goes out of bounds for this input.
    Parameter R("R");
    Variable x("x");
    Image idx("idx", DType::Int, {Expr(R)});
    Image src("src", DType::Float, {Expr(R)});
    Function f("f", {x}, {Interval(Expr(0), Expr(R) - 1)}, DType::Float);
    f.define(src(idx(Expr(x))));
    PipelineSpec spec("indirect");
    spec.addInput(idx);
    spec.addInput(src);
    spec.addOutput(f);
    spec.estimate(R, 8);
    auto g = pg::PipelineGraph::build(spec);

    Buffer iv(DType::Int, {8});
    Buffer sv(DType::Float, {8});
    iv.dataAs<int>()[3] = 42; // out of range
    EXPECT_THROW(evaluate(g, {8}, {&iv, &sv}), SpecError);
    iv.dataAs<int>()[3] = 7;
    EXPECT_NO_THROW(evaluate(g, {8}, {&iv, &sv}));
}

TEST(Interpreter, ParamAndInputCountValidated)
{
    auto t = testing::makePointwise();
    auto g = pg::PipelineGraph::build(t.spec);
    Buffer in = rampImage(8, 10);
    EXPECT_THROW(evaluate(g, {8}, {&in}), SpecError);
    EXPECT_THROW(evaluate(g, {8, 10}, {}), SpecError);
    Buffer wrong = rampImage(4, 4);
    EXPECT_THROW(evaluate(g, {8, 10}, {&wrong}), SpecError);
}

TEST(Interpreter, UCharWrapsLikeC)
{
    Parameter R("R");
    Variable x("x");
    Image I("I", DType::UChar, {Expr(R)});
    Function f("f", {x}, {Interval(Expr(0), Expr(R) - 1)}, DType::UChar);
    f.define(cast(DType::UChar, I(Expr(x)) + 200));
    PipelineSpec spec("wrap");
    spec.addOutput(f);
    spec.estimate(R, 4);
    auto g = pg::PipelineGraph::build(spec);
    Buffer in(DType::UChar, {4});
    in.dataAs<unsigned char>()[0] = 100; // 300 wraps to 44
    in.dataAs<unsigned char>()[1] = 10;  // 210 stays
    auto res = evaluate(g, {4}, {&in});
    EXPECT_EQ(res.outputs[0].dataAs<unsigned char>()[0], 44);
    EXPECT_EQ(res.outputs[0].dataAs<unsigned char>()[1], 210);
}

/** Message of the SpecError @p f raises, or "" if it raises none. */
template <typename F>
std::string
specErrorOf(F f)
{
    try {
        f();
    } catch (const SpecError &e) {
        return e.what();
    }
    return "";
}

TEST(Interpreter, FaultsRaiseOnlyWhenReached)
{
    // f(x, y) over [0, R-1]^2 reads I(x, y) where x < K and a faulting
    // expression elsewhere, once through select and once through a
    // second case.  K = R never reaches the fault; K = 3 reaches it
    // first at (3, 0).
    const std::int64_t n = 8;
    Parameter R("R"), K("K");
    Variable x("x"), y("y"), z("z");
    Image I("I", DType::Float, {Expr(R), Expr(R)});
    const Expr zero = Expr(K) - Expr(K);
    struct Fault
    {
        const char *name;
        Expr value;
        std::string message;
    };
    const Fault faults[] = {
        {"out of bounds", I(Expr(x), Expr(y) + Expr(R)),
         "runtime out-of-bounds access to 'I' at (3, 8)"},
        {"division by zero", cast(DType::Float, Expr(x) / zero),
         "integer division by zero in pipeline"},
        {"constant modulo by zero", cast(DType::Float, Expr(R) % zero),
         "integer modulo by zero in pipeline"},
        {"variable outside its domain", cast(DType::Float, Expr(z)),
         "expression references a variable outside its function domain"},
    };
    Buffer in = rampImage(n, n);
    for (const Fault &fault : faults) {
        for (bool as_case : {false, true}) {
            SCOPED_TRACE(std::string(fault.name) +
                         (as_case ? " (case)" : " (select)"));
            Function f("f", {x, y},
                       {Interval(Expr(0), Expr(R) - 1),
                        Interval(Expr(0), Expr(R) - 1)},
                       DType::Float);
            const Condition taken = Expr(x) < Expr(K);
            if (as_case) {
                f.define({Case(taken, I(Expr(x), Expr(y))),
                          Case(Expr(x) >= Expr(K), fault.value)});
            } else {
                f.define(select(taken, I(Expr(x), Expr(y)), fault.value));
            }
            PipelineSpec spec("faults");
            spec.addParam(R);
            spec.addParam(K);
            spec.addInput(I);
            spec.addOutput(f);
            spec.estimate(R, n);
            spec.estimate(K, n);
            auto g = pg::PipelineGraph::build(spec);

            auto res = evaluate(g, {n, n}, {&in});
            EXPECT_EQ(res.outputs[0].maxAbsDiff(in), 0.0);
            EXPECT_EQ(specErrorOf([&] { evaluate(g, {n, 3}, {&in}); }),
                      "polymage: invalid specification: " + fault.message);
        }
    }
}

/** out(x) = I(index(x)) over [0, R-1] on a ramp I(x) = x of size R. */
Buffer
gather(const std::function<Expr(Expr)> &index, std::int64_t n)
{
    Parameter R("R");
    Variable x("x");
    Image I("I", DType::Int, {Expr(R)});
    Function f("f", {x}, {Interval(Expr(0), Expr(R) - 1)}, DType::Int);
    f.define(I(index(Expr(x))));
    PipelineSpec spec("gather");
    spec.addParam(R);
    spec.addInput(I);
    spec.addOutput(f);
    spec.estimate(R, n);
    Buffer in(DType::Int, {n});
    for (std::int64_t i = 0; i < n; ++i)
        in.dataAs<int>()[i] = int(i);
    return evaluate(pg::PipelineGraph::build(spec), {n}, {&in})
        .outputs[0];
}

TEST(Interpreter, AffineIndexGuardKeepsInt32Wrap)
{
    // Every intermediate is an Int: the products leave int32 for large
    // x and wrap, and the wrapped difference is x again.
    const std::int64_t n = 40000;
    Buffer a = gather([](Expr x) { return x * 70000 - x * 69999; }, n);
    for (std::int64_t i = 0; i < n; i += 997)
        EXPECT_EQ(a.dataAs<int>()[i], int(i));
    EXPECT_EQ(a.dataAs<int>()[n - 1], int(n - 1));

    // x * 2^32 wraps to 0 in int32, so the index is x; evaluated
    // exactly in int64 it would be out of bounds for every x > 0.
    Buffer b = gather([](Expr x) { return x * 65536 * 65536 + x; }, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(b.dataAs<int>()[i], i);
}

TEST(Interpreter, LongAndParameterScaledIndices)
{
    // A row-major R x S table stored flat, read through x * S + y (an
    // affine index with a parameter coefficient), through a Long-typed
    // index, and with the rows flipped (negative coefficient).
    const std::int64_t rows = 5, cols = 7;
    Parameter R("R"), S("S");
    Variable x("x"), y("y");
    Image I("I", DType::Float, {Expr(R) * Expr(S)});
    const std::vector<Interval> dom{Interval(Expr(0), Expr(R) - 1),
                                    Interval(Expr(0), Expr(S) - 1)};
    Function direct("direct", {x, y}, dom, DType::Float);
    direct.define(I(Expr(x) * Expr(S) + Expr(y)));
    Function wide("wide", {x, y}, dom, DType::Float);
    wide.define(I(cast(DType::Long, Expr(x)) * Expr(S) + Expr(y)));
    Function flipped("flipped", {x, y}, dom, DType::Float);
    flipped.define(I((Expr(R) - 1 - Expr(x)) * Expr(S) + Expr(y)));
    PipelineSpec spec("table");
    spec.addParam(R);
    spec.addParam(S);
    spec.addInput(I);
    spec.addOutput(direct);
    spec.addOutput(wide);
    spec.addOutput(flipped);
    spec.estimate(R, rows);
    spec.estimate(S, cols);
    auto g = pg::PipelineGraph::build(spec);

    Buffer in(DType::Float, {rows * cols});
    for (std::int64_t i = 0; i < rows * cols; ++i)
        in.dataAs<float>()[i] = float(i) + 0.5f;
    auto res = evaluate(g, {rows, cols}, {&in});
    ASSERT_EQ(res.outputs.size(), 3u);
    ASSERT_EQ(res.outputs[0].dims(),
              (std::vector<std::int64_t>{rows, cols}));
    for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t j = 0; j < cols; ++j) {
            const std::int64_t at = i * cols + j;
            EXPECT_EQ(res.outputs[0].loadAsDouble(at), double(at) + 0.5);
            EXPECT_EQ(res.outputs[1].loadAsDouble(at), double(at) + 0.5);
            EXPECT_EQ(res.outputs[2].loadAsDouble(at),
                      double((rows - 1 - i) * cols + j) + 0.5);
        }
    }
}

/**
 * f(x, y) over a 3 x 300 grid: cast(Float, y / D(x, y)) + I(x, J(x, y)),
 * evaluated on @p sched (serially when null).  Row 1 holds an
 * out-of-range index at column @p oob, and row @p div_row a zero divisor
 * at column @p div: in row 1 with oob < div, the point walk reaches the
 * out-of-bounds read first although the division is the left operand.
 */
std::string
firstFaultOf(std::int64_t oob, std::int64_t div, rt::TileScheduler *sched,
             std::int64_t div_row = 1)
{
    const std::int64_t rows = 3, cols = 300;
    Parameter R("R"), C("C");
    Variable x("x"), y("y");
    Image I("I", DType::Float, {Expr(R), Expr(C)});
    Image D("D", DType::Int, {Expr(R), Expr(C)});
    Image J("J", DType::Int, {Expr(R), Expr(C)});
    Function f("f", {x, y},
               {Interval(Expr(0), Expr(R) - 1),
                Interval(Expr(0), Expr(C) - 1)},
               DType::Float);
    f.define(cast(DType::Float, Expr(y) / D(x, y)) + I(x, J(x, y)));
    PipelineSpec spec("two_faults");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(I);
    spec.addInput(D);
    spec.addInput(J);
    spec.addOutput(f);
    spec.estimate(R, rows);
    spec.estimate(C, cols);
    auto g = pg::PipelineGraph::build(spec);

    Buffer in = rampImage(rows, cols);
    Buffer d(DType::Int, {rows, cols});
    Buffer j(DType::Int, {rows, cols});
    for (std::int64_t i = 0; i < rows * cols; ++i) {
        d.dataAs<int>()[i] = 1;
        j.dataAs<int>()[i] = int(i % cols);
    }
    d.dataAs<int>()[div_row * cols + div] = 0;
    j.dataAs<int>()[cols + oob] = int(cols + oob);
    return specErrorOf([&] {
        evaluate(g, {rows, cols}, {&in, &d, &j}, sched);
    });
}

TEST(Interpreter, FirstFaultInLoopOrderWins)
{
    for (const testing::EvalMode &mode : testing::evalModes()) {
        SCOPED_TRACE(mode.name);
        // Within the first 256 points of a row, then past them.
        EXPECT_EQ(firstFaultOf(37, 200, mode.sched),
                  "polymage: invalid specification: runtime out-of-bounds "
                  "access to 'I' at (1, 337)");
        EXPECT_EQ(firstFaultOf(256 + 37, 256 + 40, mode.sched),
                  "polymage: invalid specification: runtime out-of-bounds "
                  "access to 'I' at (1, 593)");
    }
}

TEST(Interpreter, EarlierOfTwoFaultingBandsWins)
{
    // Split into bands, each row of the grid is one: the band of the
    // later fault may well fault first, but the error raised is that of
    // the earlier point, as in a serial evaluation.
    for (const testing::EvalMode &mode : testing::evalModes()) {
        SCOPED_TRACE(mode.name);
        EXPECT_EQ(firstFaultOf(250, 10, mode.sched, 2),
                  "polymage: invalid specification: runtime out-of-bounds "
                  "access to 'I' at (1, 550)");
        EXPECT_EQ(firstFaultOf(250, 280, mode.sched, 0),
                  "polymage: invalid specification: integer division by "
                  "zero in pipeline");
    }
}

/**
 * f(x, y) over a 2 x 300 grid of I(x, y) = 0.25 (3x + y), defined by
 * @p define(f, next, last, inside) where next = I(x, y + 1) is out of
 * bounds at the last column, last holds there and inside elsewhere; the
 * message of the SpecError evaluate raises, or "" with the output in
 * @p out.
 */
std::string
readPastRowEnd(const std::function<void(Function &, Expr, Condition,
                                         Condition)> &define,
               Buffer *out = nullptr)
{
    const std::int64_t rows = 2, cols = 300;
    Parameter R("R"), C("C");
    Variable x("x"), y("y");
    Image I("I", DType::Float, {Expr(R), Expr(C)});
    Function f("f", {x, y},
               {Interval(Expr(0), Expr(R) - 1),
                Interval(Expr(0), Expr(C) - 1)},
               DType::Float);
    define(f, I(x, Expr(y) + 1), Expr(y) == Expr(C) - 1,
           Expr(y) < Expr(C) - 1);
    PipelineSpec spec("row_end");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(I);
    spec.addOutput(f);
    spec.estimate(R, rows);
    spec.estimate(C, cols);
    auto g = pg::PipelineGraph::build(spec);
    Buffer in = rampImage(rows, cols);
    return specErrorOf([&] {
        auto res = evaluate(g, {rows, cols}, {&in});
        if (out != nullptr)
            *out = res.outputs[0];
    });
}

TEST(Interpreter, ShortCircuitGuardsReadsPastTheRowEnd)
{
    // Unguarded, the read faults at the last column of the first row.
    EXPECT_EQ(readPastRowEnd([](Function &f, Expr next, Condition,
                                Condition) { f.define(next); }),
              "polymage: invalid specification: runtime out-of-bounds "
              "access to 'I' at (0, 300)");

    // &, | and the untaken select branch skip it there.
    using Define = std::function<void(Function &, Expr, Condition,
                                      Condition)>;
    const Define guarded[] = {
        [](Function &f, Expr next, Condition, Condition inside) {
            f.define(select(inside & (next >= Expr(0.0f)), next,
                            Expr(-1.0f)));
        },
        [](Function &f, Expr next, Condition last, Condition inside) {
            f.define({Case(last | (next < Expr(0.0f)), Expr(-1.0f)),
                      Case(inside, next)});
        },
    };
    for (const Define &define : guarded) {
        Buffer out;
        ASSERT_EQ(readPastRowEnd(define, &out), "");
        for (std::int64_t i = 0; i < 2; ++i) {
            for (std::int64_t j = 0; j < 300; ++j) {
                EXPECT_EQ(out.dataAs<float>()[i * 300 + j],
                          j < 299 ? float(i * 3 + j + 1) * 0.25f : -1.0f);
            }
        }
    }
    // Every case's condition is tested at every point, so a case after
    // the matching one still reads past the row end.
    EXPECT_EQ(readPastRowEnd([](Function &f, Expr next, Condition last,
                                Condition) {
                  f.define({Case(last, Expr(-1.0f)),
                            Case(next >= Expr(0.0f), next)});
              }),
              "polymage: invalid specification: runtime out-of-bounds "
              "access to 'I' at (0, 300)");
}

/** f(x, y) over [0, R-1] x [0, C-1] defined by @p cases. */
pg::PipelineGraph
caseGrid(const Parameter &R, const Parameter &C, const Variable &x,
         const Variable &y, const std::vector<Case> &cases)
{
    Function f("f", {x, y},
               {Interval(Expr(0), Expr(R) - 1),
                Interval(Expr(0), Expr(C) - 1)},
               DType::Float);
    f.define(cases);
    PipelineSpec spec("cases");
    spec.addParam(R);
    spec.addParam(C);
    spec.addOutput(f);
    spec.estimate(R, 3);
    spec.estimate(C, 300);
    return pg::PipelineGraph::build(spec);
}

TEST(Interpreter, CaseOverlapAtOneMidRowPoint)
{
    Parameter R("R"), C("C");
    Variable x("x"), y("y");
    const Expr fx = cast(DType::Float, Expr(x)),
               fy = cast(DType::Float, Expr(y));
    auto g = caseGrid(
        R, C, x, y,
        {Case(Expr(y) <= 150, fy + Expr(1.0f)),
         Case((Expr(y) > 150) | ((Expr(x) == 1) & (Expr(y) == 150)),
              fx * Expr(1000.0f) + fy)});
    for (const testing::EvalMode &mode : testing::evalModes()) {
        SCOPED_TRACE(mode.name);
        EXPECT_EQ(
            specErrorOf([&] { evaluate(g, {3, 300}, {}, mode.sched); }),
            "polymage: invalid specification: function 'f' has "
            "overlapping cases; the definition is ambiguous");
    }
}

TEST(Interpreter, UnmatchedPointsStayZero)
{
    // From column 100 to 119 + 10x and from 280 on no case matches.
    Parameter R("R"), C("C");
    Variable x("x"), y("y");
    const Expr fx = cast(DType::Float, Expr(x)),
               fy = cast(DType::Float, Expr(y));
    auto g = caseGrid(
        R, C, x, y,
        {Case(Expr(y) < 100, fy + Expr(1.0f)),
         Case((Expr(y) >= Expr(x) * 10 + 120) & (Expr(y) < 280),
              fx * Expr(1000.0f) + fy)});
    auto res = evaluate(g, {3, 300}, {});
    const float *p = res.outputs[0].dataAs<float>();
    for (std::int64_t i = 0; i < 3; ++i) {
        for (std::int64_t j = 0; j < 300; ++j) {
            float want = 0.0f;
            if (j < 100)
                want = float(j + 1);
            else if (j >= i * 10 + 120 && j < 280)
                want = float(i * 1000 + j);
            EXPECT_EQ(p[i * 300 + j], want) << "at (" << i << ", " << j
                                            << ")";
        }
    }
}

TEST(Interpreter, SelfReadingStagesSeeEarlierPoints)
{
    // A row-wise prefix sum of I(x, y) = x + y, and an accumulator whose
    // update at r reads its own cell r - 1: both depend on the points
    // just before them in the innermost loop.  A column-wise prefix sum
    // depends on the row before: split into bands of rows, each band's
    // first row would read the last row of the band before it while
    // that band is still at its start.
    const std::int64_t rows = 64, cols = 300;
    Parameter R("R"), C("C");
    Variable x("x"), y("y"), r("r");
    Image I("I", DType::Int, {Expr(R), Expr(C)});
    Function scan("scan", {x, y},
                  {Interval(Expr(0), Expr(R) - 1),
                   Interval(Expr(0), Expr(C) - 1)},
                  DType::Int);
    scan.define({Case(Expr(y) == 0, I(x, Expr(0))),
                 Case(Expr(y) >= 1, scan(x, Expr(y) - 1) + I(x, y))});
    Function down("down", {x, y},
                  {Interval(Expr(0), Expr(R) - 1),
                   Interval(Expr(0), Expr(C) - 1)},
                  DType::Int);
    down.define({Case(Expr(x) == 0, I(Expr(0), y)),
                 Case(Expr(x) >= 1, down(Expr(x) - 1, y) + I(x, y))});
    Accumulator chain("chain", {x}, {Interval(Expr(0), Expr(C) - 1)}, {r},
                      {Interval(Expr(1), Expr(C) - 1)}, DType::Int);
    chain.accumulate({Expr(r)}, chain(Expr(r) - 1) + 2, ReduceOp::Sum,
                     Expr(1));
    PipelineSpec spec("self_reading");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(I);
    spec.addOutput(scan);
    spec.addOutput(chain);
    spec.addOutput(down);
    spec.estimate(R, rows);
    spec.estimate(C, cols);

    Buffer in(DType::Int, {rows, cols});
    for (std::int64_t i = 0; i < rows * cols; ++i)
        in.dataAs<int>()[i] = int(i / cols + i % cols);
    const auto g = pg::PipelineGraph::build(spec);
    for (const testing::EvalMode &mode : testing::evalModes()) {
        SCOPED_TRACE(mode.name);
        auto res = evaluate(g, {rows, cols}, {&in}, mode.sched);
        for (std::int64_t i = 0; i < rows; ++i) {
            for (std::int64_t j = 0; j < cols; ++j) {
                // sum over k <= j of (i + k)
                EXPECT_EQ(res.outputs[0].dataAs<int>()[i * cols + j],
                          int((j + 1) * i + j * (j + 1) / 2));
            }
        }
        // chain(0) = 1; chain(r) = 1 + chain(r - 1) + 2.
        for (std::int64_t j = 0; j < cols; ++j)
            EXPECT_EQ(res.outputs[1].dataAs<int>()[j], int(1 + 3 * j));
        for (std::int64_t i = 0; i < rows; ++i) {
            for (std::int64_t j = 0; j < cols; ++j) {
                // sum over k <= i of (k + j)
                EXPECT_EQ(res.outputs[2].dataAs<int>()[i * cols + j],
                          int((i + 1) * j + i * (i + 1) / 2));
            }
        }
    }
}

TEST(Interpreter, EmptyOuterReductionLoopLeavesInit)
{
    // col(y) sums I(x, y) over rows x in [1, R - 1]: with one row that
    // outer reduction loop is empty, so every cell keeps its init value.
    const std::int64_t cols = 300;
    Parameter R("R"), C("C");
    Variable x("x"), y("y"), c("c");
    Image I("I", DType::Int, {Expr(R), Expr(C)});
    Accumulator col("col", {c}, {Interval(Expr(0), Expr(C) - 1)}, {x, y},
                    {Interval(Expr(1), Expr(R) - 1),
                     Interval(Expr(0), Expr(C) - 1)},
                    DType::Int);
    col.accumulate({Expr(y)}, I(x, y), ReduceOp::Sum, Expr(7));
    PipelineSpec spec("empty_reduction");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(I);
    spec.addOutput(col);
    spec.estimate(R, 64);
    spec.estimate(C, cols);
    const auto g = pg::PipelineGraph::build(spec);
    Buffer in(DType::Int, {1, cols});
    in.fill(1.0);
    for (const testing::EvalMode &mode : testing::evalModes()) {
        SCOPED_TRACE(mode.name);
        auto res = evaluate(g, {1, cols}, {&in}, mode.sched);
        for (std::int64_t j = 0; j < cols; ++j)
            EXPECT_EQ(res.outputs[0].dataAs<int>()[j], 7);
    }
}

} // namespace
} // namespace polymage::interp
