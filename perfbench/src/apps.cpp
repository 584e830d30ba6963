#include "apps.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/apps.hpp"
#include "runtime/synth.hpp"

namespace pmbench {

using namespace polymage;

namespace {

/** Paper image size, tuned tiles and tolerance of one app. */
struct PaperApp
{
    const char *key;
    std::int64_t rows;
    std::int64_t cols;
    std::vector<std::int64_t> tileSizes;
    double overlapThreshold;
    double tol;
};

/**
 * Paper sizes (§4, Table 2) and the tile sizes of the tuned Table 2
 * configuration.  Tolerances are those of the app tests: exact up to
 * one quantisation step for Camera's 8-bit output, float epsilon for
 * the others.
 */
const std::vector<PaperApp> &
paperApps()
{
    static const std::vector<PaperApp> apps = {
        {"unsharp", 2048, 2048, {32, 512}, 0.4, 1e-4},
        {"bilateral", 2560, 1536, {32, 256}, 0.4, 1e-4},
        {"harris", 6400, 6400, {32, 256}, 0.4, 1e-3},
        {"camera", 2528, 1920, {64, 256}, 0.4, 1.0},
        {"pyramid", 2048, 2048, {32, 256}, 0.4, 1e-3},
        {"interp", 2560, 1536, {64, 256}, 0.5, 1e-3},
        {"laplacian", 2560, 1536, {64, 256}, 0.5, 1e-3},
    };
    return apps;
}

constexpr int kPyramidLevels = 4;
constexpr int kLaplacianLevels = 4;
constexpr int kLaplacianBins = 8;

std::int64_t
roundDown16(double v)
{
    return std::max<std::int64_t>(32, std::int64_t(v) / 16 * 16);
}

} // namespace

const std::vector<std::string> &
appKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (const PaperApp &a : paperApps())
            k.push_back(a.key);
        return k;
    }();
    return keys;
}

Shape
scaleShape(Shape s, double f)
{
    return {roundDown16(double(s.rows) * f), roundDown16(double(s.cols) * f)};
}

std::vector<const rt::Buffer *>
pointers(const std::vector<rt::Buffer> &bufs)
{
    std::vector<const rt::Buffer *> out;
    for (const rt::Buffer &b : bufs)
        out.push_back(&b);
    return out;
}

App
makeApp(const std::string &key, double scale)
{
    const auto it =
        std::find_if(paperApps().begin(), paperApps().end(),
                     [&](const PaperApp &a) { return key == a.key; });
    if (it == paperApps().end())
        throw std::invalid_argument("unknown app " + key);
    App app;
    app.key = key;
    app.est = scaleShape({it->rows, it->cols}, scale);
    app.tol = it->tol;
    app.tileSizes = it->tileSizes;
    app.overlapThreshold = it->overlapThreshold;
    const std::int64_t R = app.est.rows, C = app.est.cols;
    if (key == "unsharp") {
        app.spec = apps::buildUnsharpMask(R, C);
    } else if (key == "bilateral") {
        app.spec = apps::buildBilateralGrid(R, C);
    } else if (key == "harris") {
        app.spec = apps::buildHarris(R, C);
    } else if (key == "camera") {
        app.spec = apps::buildCameraPipeline(R, C);
    } else if (key == "pyramid") {
        app.levels = kPyramidLevels;
        app.spec = apps::buildPyramidBlend(R, C, app.levels);
    } else if (key == "interp") {
        // As deep as the image allows, up to the paper's 8 scales.
        app.levels = 8;
        while (app.levels > 2 &&
               (std::min(R, C) >> (app.levels - 1)) < 4)
            --app.levels;
        app.spec = apps::buildMultiscaleInterp(R, C, app.levels);
    } else {
        app.levels = kLaplacianLevels;
        app.spec =
            apps::buildLocalLaplacian(R, C, app.levels, kLaplacianBins);
    }
    return app;
}

std::vector<std::int64_t>
App::params(Shape s) const
{
    if (levels > 0)
        return apps::pyramidParams(s.rows, s.cols, levels);
    return {s.rows, s.cols};
}

std::vector<rt::Buffer>
App::inputs(Shape s, std::uint64_t seed) const
{
    const std::int64_t R = s.rows, C = s.cols;
    std::vector<rt::Buffer> in;
    if (key == "unsharp") {
        in.push_back(rt::synth::photoRgb(R + 4, C + 4, seed));
    } else if (key == "harris") {
        in.push_back(rt::synth::photo(R + 2, C + 2, seed));
    } else if (key == "camera") {
        in.push_back(rt::synth::bayerRaw(R + 4, C + 4, seed));
    } else if (key == "pyramid") {
        in.push_back(rt::synth::photo(R, C, seed));
        in.push_back(rt::synth::photo(R, C, seed + 1));
        in.push_back(rt::synth::blendMask(R, C));
    } else if (key == "interp") {
        in.push_back(rt::synth::sparseAlpha(R, C, 1.0 / 16, seed));
    } else {
        in.push_back(rt::synth::photo(R, C, seed));
    }
    return in;
}

CompileOptions
App::tunedOptions() const
{
    CompileOptions o = CompileOptions::optimized();
    o.grouping.autoTile = false;
    o.grouping.tileSizes = tileSizes;
    o.grouping.overlapThreshold = overlapThreshold;
    return o;
}

bool
App::hasLibstyle() const
{
    return key == "unsharp" || key == "harris" || key == "pyramid";
}

cmp::CmpResult
App::htuned(const std::vector<rt::Buffer> &in) const
{
    if (key == "unsharp")
        return cmp::htunedUnsharp(in[0], true);
    if (key == "bilateral")
        return cmp::htunedBilateral(in[0], true);
    if (key == "harris")
        return cmp::htunedHarris(in[0], true);
    if (key == "camera")
        return cmp::htunedCamera(in[0], true);
    if (key == "pyramid")
        return cmp::htunedPyramidBlend(in[0], in[1], in[2], levels, true);
    if (key == "interp")
        return cmp::htunedInterp(in[0], levels, true);
    return cmp::htunedLocalLaplacian(in[0], levels, kLaplacianBins, true);
}

cmp::CmpResult
App::libstyle(const std::vector<rt::Buffer> &in) const
{
    if (key == "unsharp")
        return cmp::libstyleUnsharp(in[0]);
    if (key == "harris")
        return cmp::libstyleHarris(in[0]);
    return cmp::libstylePyramidBlend(in[0], in[1], in[2], levels);
}

} // namespace pmbench
