/**
 * @file
 * Golden outputs of the reference interpreter.  Every execution path is
 * checked against the interpreter, so the interpreter itself must not
 * drift: this test pins the raw output bytes of the seven paper apps,
 * histogram equalisation and a four-frame temporal-denoise stream on
 * seeded synthetic inputs.  A rewrite of the evaluator that changes a
 * single bit of any output fails here, serially or with its stages split
 * into bands on a tile scheduler.
 *
 * The hashes assume IEEE double arithmetic and glibc's libm (the math
 * intrinsics are evaluated in double by std::exp, std::pow, ...).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "apps/apps.hpp"
#include "core/stream_plan.hpp"
#include "interp/eval_modes.hpp"
#include "interp/interpreter.hpp"
#include "interp/stream_ref.hpp"
#include "runtime/synth.hpp"

namespace polymage::interp {
namespace {

using rt::Buffer;

/** FNV-1a over dtype, shape and raw element bytes of each buffer. */
class Fnv1a
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }

    void
    buffer(const Buffer &buf)
    {
        const int t = int(buf.dtype());
        bytes(&t, sizeof t);
        for (std::int64_t d : buf.dims())
            bytes(&d, sizeof d);
        bytes(buf.data(), std::size_t(buf.bytes()));
    }

    std::string
    hex() const
    {
        char s[19];
        std::snprintf(s, sizeof s, "%016llx",
                      static_cast<unsigned long long>(h_));
        return s;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Golden
{
    const char *name;
    dsl::PipelineSpec spec;
    std::vector<std::int64_t> params;
    std::vector<Buffer> ins;
    const char *hash;
};

TEST(Interpreter, GoldenOutputHashes)
{
    using namespace apps;
    const std::int64_t n = 64;
    Golden cases[] = {
        {"unsharp", buildUnsharpMask(n, n), {n, n},
         {rt::synth::photoRgb(n + 4, n + 4)}, "bbaccc41a7151d5d"},
        {"harris", buildHarris(n, n), {n, n},
         {rt::synth::photo(n + 2, n + 2)}, "fd4bc0d3ff4a3538"},
        {"bilateral", buildBilateralGrid(n, n), {n, n},
         {rt::synth::photo(n, n)}, "e4626d659740b1de"},
        {"camera", buildCameraPipeline(n, 96), {n, 96},
         {rt::synth::bayerRaw(n + 4, 100)}, "052b144eed969e37"},
        {"pyramid", buildPyramidBlend(n, n, 3), pyramidParams(n, n, 3),
         {rt::synth::photo(n, n, 1), rt::synth::photo(n, n, 2),
          rt::synth::blendMask(n, n)},
         "cab88e8af40ac56b"},
        {"interp", buildMultiscaleInterp(n, n, 3), pyramidParams(n, n, 3),
         {rt::synth::sparseAlpha(n, n, 0.1)}, "07dcae0299a73fea"},
        {"laplacian", buildLocalLaplacian(n, n, 3, 4),
         pyramidParams(n, n, 3), {rt::synth::photo(n, n)},
         "4a866b6ff28dcc91"},
        {"histogram_eq", buildHistogramEq(n, 80), {n, 80},
         {rt::synth::photoU8(n, 80)}, "67b0c219865b6a4e"},
        // Rows wider than the evaluator's 256-point batches, and not a
        // multiple of them.
        {"unsharp 48x300", buildUnsharpMask(48, 300), {48, 300},
         {rt::synth::photoRgb(52, 304)}, "1fb61d3b64c41cfb"},
        {"camera 48x300", buildCameraPipeline(48, 300), {48, 300},
         {rt::synth::bayerRaw(52, 304)}, "8a521440c1786668"},
        {"pyramid 48x300", buildPyramidBlend(48, 300, 3),
         pyramidParams(48, 300, 3),
         {rt::synth::photo(48, 300, 1), rt::synth::photo(48, 300, 2),
          rt::synth::blendMask(48, 300)},
         "ad6d4e3147716198"},
        {"histogram_eq 48x300", buildHistogramEq(48, 300), {48, 300},
         {rt::synth::photoU8(48, 300)}, "222711c971907879"},
    };
    for (const testing::EvalMode &mode : testing::evalModes()) {
        for (const Golden &c : cases) {
            SCOPED_TRACE(std::string(c.name) + ", " + mode.name);
            std::vector<const Buffer *> ins;
            for (const Buffer &b : c.ins)
                ins.push_back(&b);
            auto res = evaluate(pg::PipelineGraph::build(c.spec), c.params,
                                ins, mode.sched);
            Fnv1a h;
            for (const Buffer &b : res.outputs)
                h.buffer(b);
            EXPECT_EQ(h.hex(), c.hash);
        }
    }

    // Streaming: the reference stream evaluator over four frames, so
    // warm-up (zero ring slots) and every ring kind are covered.
    const std::int64_t m = 48;
    auto sl = core::lowerStream(buildTemporalDenoise(m, m));
    auto g = pg::PipelineGraph::build(sl.spec);
    std::vector<Buffer> frames;
    for (std::uint64_t t = 0; t < 4; ++t)
        frames.push_back(rt::synth::photo(m + 2, m + 2, 100 + t));
    std::vector<std::vector<const Buffer *>> ins;
    for (const Buffer &f : frames)
        ins.push_back({&f});
    auto outs = evaluateStream(g, sl.plan, {m, m}, ins);
    ASSERT_EQ(outs.size(), 4u);
    Fnv1a h;
    for (const auto &frame : outs) {
        for (const Buffer &b : frame)
            h.buffer(b);
    }
    EXPECT_EQ(h.hex(), "a77e2eb2561061ec") << "temporal_denoise stream";
}

} // namespace
} // namespace polymage::interp
