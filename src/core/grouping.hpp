/**
 * @file
 * The model-driven grouping heuristic (paper §3.5, Algorithm 1):
 * iteratively merges a group into its single child group when the
 * stages can be aligned/scaled to constant dependence vectors and the
 * estimated overlap (redundant computation) stays below a threshold.
 */
#ifndef POLYMAGE_CORE_GROUPING_HPP
#define POLYMAGE_CORE_GROUPING_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/group_schedule.hpp"

namespace polymage::core {

/** Inputs of Algorithm 1 (tile sizes, overlap threshold, estimates). */
struct GroupingOptions
{
    /** Master switch; off leaves every stage in its own group. */
    bool enable = true;

    /**
     * Tile size per tileable dimension, outermost first; the last entry
     * repeats for any further dimensions.  These sizes both shape the
     * overlap estimate and become the generated tile sizes.
     */
    std::vector<std::int64_t> tileSizes{32, 256};

    /**
     * Let the tile cost model replace tileSizes/overlapThreshold with
     * per-pipeline, per-machine choices (core/tile_model).  Off by
     * default so explicitly configured sizes are always honoured;
     * CompileOptions::optimized() turns it on.
     */
    bool autoTile = false;

    /** Overlap threshold o_thresh (fraction of the tile size). */
    double overlapThreshold = 0.4;

    /**
     * Groups whose estimated point count is below this are never
     * considered for merging (paper: "avoid considering functions of
     * very small size", e.g. 256-entry lookup tables).
     */
    std::int64_t minSize = 4096;

    /**
     * Tileable dimensions whose estimated extent (in group
     * coordinates) is below this are looped plainly instead of tiled
     * (e.g. 3-wide channel axes), so tile sizes and parallelism go to
     * the spatial dimensions.
     */
    std::int64_t minTiledExtent = 16;
};

/** Final grouping: a partition of the stages with schedules. */
struct GroupingResult
{
    /** One schedule per group; groups ordered topologically by sink. */
    std::vector<GroupSchedule> groups;
    /** Number of merges performed. */
    int mergeCount = 0;

    /** Group index containing a stage. */
    int groupOf(int stage_idx) const;

    std::string toString(const pg::PipelineGraph &g) const;
};

/**
 * Partition the pipeline into groups (Algorithm 1).
 *
 * The tile size per dimension is taken from @p opts; the estimated
 * relative overlap of a candidate merge is the maximum over tileable
 * dimensions of overlap / tile size.  Merges are rejected when no
 * dimension is tileable, when alignment/scaling fails, or when the
 * overlap reaches the threshold.
 */
GroupingResult groupStages(const pg::PipelineGraph &g,
                           const GroupingOptions &opts = {});

/**
 * Tile size assigned to the i-th tiled dimension under @p opts.
 */
std::int64_t tileSizeFor(const GroupingOptions &opts, int i);

/**
 * The group dimensions that actually get tiled: the schedule's
 * tileable dims whose estimated extent reaches opts.minTiledExtent.
 * The i-th returned dim receives tileSizeFor(opts, i).
 */
std::vector<int> tiledDimsFor(const GroupSchedule &sched,
                              const pg::PipelineGraph &g,
                              const GroupingOptions &opts);

/**
 * Estimated extent of group dimension @p gd in group coordinates: the
 * widest member-stage extent scaled into group space under the
 * parameter estimates; -1 when any bound is not constant under them.
 * This is the extent tiledDimsFor compares against minTiledExtent and
 * the tile cost model compares candidate tile sizes against.
 */
std::int64_t estimatedGroupExtent(const GroupSchedule &sched,
                                  const pg::PipelineGraph &g, int gd);

/**
 * Estimated relative overlap of a schedule under the given tile sizes:
 * max over tileable dims of overlap_d / tau_d; 0 when nothing is
 * tileable.
 */
double relativeOverlap(const GroupSchedule &sched,
                       const pg::PipelineGraph &g,
                       const GroupingOptions &opts);

} // namespace polymage::core

#endif // POLYMAGE_CORE_GROUPING_HPP
