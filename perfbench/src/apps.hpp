/**
 * @file
 * The seven paper applications (Table 2) as the benchmark uses them:
 * specification at a given scale of the paper's image size, runtime
 * parameters and seeded inputs at any shape, the tuned tile sizes, the
 * interpreter tolerance, and the comparator baselines.
 */
#ifndef PMBENCH_APPS_HPP
#define PMBENCH_APPS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "comparators/comparators.hpp"
#include "driver/compiler.hpp"
#include "dsl/dsl.hpp"
#include "runtime/buffer.hpp"

namespace pmbench {

/** Row/column count of an image. */
struct Shape
{
    std::int64_t rows = 0;
    std::int64_t cols = 0;
};

/** One paper application built at a fixed estimate size. */
struct App
{
    /** unsharp, bilateral, harris, camera, pyramid, interp, laplacian. */
    std::string key;
    /** Estimate size the specification was built with. */
    Shape est;
    /** Pyramid depth (pyramid apps), else 0. */
    int levels = 0;
    polymage::dsl::PipelineSpec spec{"unset"};
    /** Largest allowed |output - interpreter| per unit of output scale. */
    double tol = 0.0;
    /** Tile sizes and overlap threshold tuned for this machine class. */
    std::vector<std::int64_t> tileSizes;
    double overlapThreshold = 0.4;

    /** Runtime parameter values for a run at @p s. */
    std::vector<std::int64_t> params(Shape s) const;
    /** Seeded synthetic inputs for a run at @p s. */
    std::vector<polymage::rt::Buffer> inputs(Shape s,
                                             std::uint64_t seed) const;

    /** CompileOptions::optimized() with the tuned, fixed tile sizes. */
    polymage::CompileOptions tunedOptions() const;

    /** Whether an OpenCV-style comparator exists. */
    bool hasLibstyle() const;
    /** H-tuned comparator (vectorised) on inputs(est, ...). */
    polymage::cmp::CmpResult
    htuned(const std::vector<polymage::rt::Buffer> &in) const;
    /** OpenCV-style comparator; requires hasLibstyle(). */
    polymage::cmp::CmpResult
    libstyle(const std::vector<polymage::rt::Buffer> &in) const;
};

/** The seven apps in Table 2 order. */
const std::vector<std::string> &appKeys();

/**
 * Build app @p key at @p scale of the paper's image size (sizes are
 * rounded down to a multiple of 16).
 */
App makeApp(const std::string &key, double scale);

/** Pointers to @p bufs, in order. */
std::vector<const polymage::rt::Buffer *>
pointers(const std::vector<polymage::rt::Buffer> &bufs);

/** Shape scaled by @p f, rounded down to a multiple of 16 (at least 32). */
Shape scaleShape(Shape s, double f);

} // namespace pmbench

#endif // PMBENCH_APPS_HPP
