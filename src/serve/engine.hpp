/**
 * @file
 * The concurrent pipeline-serving engine (`polymage::serve::Engine`):
 * a bounded MPMC request queue in front of a worker thread pool, with
 * explicit overload policies, per-worker buffer pools (steady-state
 * serving performs zero heap allocations for intermediates), and
 * serving metrics in the `polymage-serve-v1` schema.
 *
 * One execution model: every compiled request and stream frame runs
 * as the entry's (phase, lo, hi) task lists on the engine's one
 * rt::TileScheduler, and interpreter-tier answers split their stages
 * into row bands on the same pool.  Engine workers help the pool
 * while they wait, and the pool only adds threads for the cores the
 * workers leave free, so the thread demand stays at the hardware
 * width whatever the worker count.  See docs/SERVING.md.
 */
#ifndef POLYMAGE_SERVE_ENGINE_HPP
#define POLYMAGE_SERVE_ENGINE_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/stream.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"

namespace polymage::serve {

/** What submit() does when the request queue is full. */
enum class OverloadPolicy
{
    /** Block the submitting client until queue space frees up. */
    Block,
    /** Complete the new request immediately with an error. */
    RejectWithError,
    /**
     * Complete the *oldest queued* request with an error and admit
     * the new one — freshest-work-first under overload.
     */
    ShedOldest,
};

/** Stable lowercase name used in JSON and CLI flags. */
const char *policyName(OverloadPolicy p);
/** Inverse of policyName(); throws SpecError on unknown names. */
OverloadPolicy policyFromName(const std::string &name);

/** Engine configuration. */
struct EngineOptions
{
    /** Worker threads executing requests. */
    int workers = 2;
    /** Maximum queued (not yet executing) requests. */
    int queueCapacity = 64;
    OverloadPolicy policy = OverloadPolicy::Block;
    /**
     * Tiered execution (docs/SHAPES.md): the first requests for a
     * not-yet-compiled pipeline are answered by the reference
     * interpreter (tier 1) while the variant JIT-compiles in the
     * background; once ready, requests atomically promote to the
     * compiled tier (tier 2).  Off makes every request block on (and
     * share) the variant compile -- the pre-tiering behaviour, which
     * saturation tests and steady-state pool accounting rely on.
     */
    bool tiered = true;
    /**
     * Worker threads of the engine's rt::TileScheduler, which runs
     * compiled requests' and frames' tile tasks and the interpreter
     * tier's row bands.  0 (the default) auto-sizes: engine workers
     * execute chunks themselves while waiting (TileScheduler::run),
     * so the pool only spawns
     * hardware_concurrency minus `workers` dedicated threads --
     * possibly none on small machines, where oversubscription would
     * cost more in context switches than extra threads recover.
     */
    int schedulerWorkers = 0;
    /**
     * SLO-aware admission: a request carrying a deadline is shed at
     * submit time when predicted queue wait plus predicted run time
     * already exceeds it -- failing in microseconds instead of
     * burning pool time on a guaranteed miss.  Predictions use the
     * per-pipeline EWMA of measured run seconds once warm, and a
     * point-count analytic estimate from the registered graph before
     * that (docs/SERVING.md "Scheduling").
     */
    bool sloAdmission = false;
    /**
     * Per-tenant token-bucket quota: sustained admissions per second
     * for each distinct Request::tenant (0 disables).  Tenant-less
     * requests are never quota-limited.
     */
    double tenantRatePerSec = 0.0;
    /** Bucket burst capacity; 0 means one second of rate. */
    double tenantBurst = 0.0;
};

/** One serving request. */
struct Request
{
    /** Registered pipeline name. */
    std::string pipeline;
    /** Parameter values in graph order. */
    std::vector<std::int64_t> params;
    /**
     * Input buffers in graph order.  Shared ownership keeps them
     * alive until the request completes; wrap long-lived caller
     * buffers with a non-owning shared_ptr to avoid copies.
     */
    std::vector<std::shared_ptr<const rt::Buffer>> inputs;
    /**
     * Explicit compile variant; the pipeline's registered defaults
     * when unset.
     */
    std::optional<CompileOptions> variant;
    /**
     * Completion deadline in seconds from submit; 0 means none.
     * Under EngineOptions::sloAdmission a predicted miss is shed at
     * submit; an admitted request that still misses increments the
     * deadline-miss counter but completes normally.
     */
    double deadlineSeconds = 0.0;
    /** Quota bucket key (EngineOptions::tenantRatePerSec); requests
     * with an empty tenant bypass quotas. */
    std::string tenant;
};

/** Completion of one request. */
struct Response
{
    /** Output buffers in graph order (empty on error). */
    std::vector<rt::Buffer> outputs;
    /** Empty on success; the failure reason otherwise. */
    std::string error;
    /** Time spent queued before a worker picked the request up. */
    double queueSeconds = 0.0;
    /** Time spent executing the pipeline. */
    double runSeconds = 0.0;
    /** End-to-end latency (submit to completion). */
    double totalSeconds = 0.0;
    /**
     * Which tier answered: 1 = reference interpreter (compile in
     * flight), 2 = compiled variant, 0 = failed before execution.
     */
    int tier = 0;

    bool ok() const { return error.empty(); }
};

/** Completion of one streaming frame (docs/STREAMING.md). */
struct StreamFrameResult
{
    /** Session-local frame index (-1 when rejected at submit). */
    long long frame = -1;
    /** Empty on success; the failure reason otherwise. */
    std::string error;
    /**
     * The frame's declared output buffers, borrowed from the session:
     * valid only during the callback, overwritten by the next frame.
     * Null on error.
     */
    const std::vector<rt::Buffer> *outputs = nullptr;
    /** Time spent queued before a worker picked the frame up. */
    double queueSeconds = 0.0;
    /** Time spent executing the frame. */
    double runSeconds = 0.0;
    /** End-to-end latency (submitFrame to completion). */
    double totalSeconds = 0.0;
    /** Always 2 (compiled) on success — sessions pin a compiled
     * variant, the interpreter tier never serves frames; 0 on
     * failure. */
    int tier = 0;

    bool ok() const { return error.empty(); }
};

/** Runs on the worker thread that completed (or failed) a frame. */
using FrameCallback = std::function<void(const StreamFrameResult &)>;

class Engine;

/**
 * One open streaming session (Engine::openStream): pins a compiled
 * variant, owns the rt::StreamExecutable ring state, and serialises
 * its frames — at most one frame of a session executes at a time, in
 * submit order (per-session FIFO), while frames of different sessions
 * interleave freely across the worker pool.
 */
class StreamSession
{
  public:
    std::uint64_t id() const { return id_; }
    const std::string &pipeline() const { return pipeline_; }
    /** Frames completed so far (ok + failed). */
    std::uint64_t framesDone() const;
    bool closed() const;
    /** Inputs the caller supplies per frame (taps excluded). */
    int declaredInputs() const { return stream_->declaredInputs(); }
    /** Outputs a frame callback sees (feedback ones excluded). */
    int declaredOutputs() const { return stream_->declaredOutputs(); }
    /** Executable memory stats plus the session's ring footprint. */
    rt::MemoryStats memoryStats() const;

  private:
    friend class Engine;
    using Clock = std::chrono::steady_clock;

    /** A frame waiting behind the session's in-flight one. */
    struct PendingFrame
    {
        std::vector<std::shared_ptr<const rt::Buffer>> inputs;
        FrameCallback done;
        Clock::time_point enqueued;
        long long frame = 0;
    };

    StreamSession() = default;

    std::uint64_t id_ = 0;
    std::string pipeline_;
    std::unique_ptr<rt::StreamExecutable> stream_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<PendingFrame> pending_;
    /** A frame of this session is queued or executing. */
    bool inFlight_ = false;
    bool closed_ = false;
    /** onStreamClose() was recorded (closeStream idempotence). */
    bool closeRecorded_ = false;
    long long framesSubmitted_ = 0;
    std::uint64_t framesDone_ = 0;
    std::uint64_t framesFailed_ = 0;
    LatencyHistogram frameLatency_;
    Clock::time_point opened_;
    Clock::time_point lastDone_;
};

/**
 * A multi-client serving engine over a PipelineRegistry.  All public
 * methods are thread-safe; submit() may be called from any number of
 * client threads.
 */
class Engine
{
  public:
    explicit Engine(std::shared_ptr<PipelineRegistry> registry,
                    EngineOptions opts = {});
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;
    /** Implies shutdown(). */
    ~Engine();

    /**
     * Enqueue a request.  The future always yields a Response —
     * failures (rejection, shedding, shutdown, execution errors) are
     * reported through Response::error, never as exceptions.
     */
    std::future<Response> submit(Request req);

    /**
     * Callback flavour: @p done runs on the worker thread that
     * completed (or failed) the request.
     */
    void submit(Request req, std::function<void(Response)> done);

    /**
     * Open a streaming session on a registered streaming pipeline
     * (docs/STREAMING.md).  Blocks on the variant compile if needed —
     * a session pins one compiled executable for its whole life (the
     * ring buffers are allocated against its plan), so the
     * interpreter tier never answers stream frames.  @p params are
     * fixed for the session.
     * @throws SpecError for unknown or non-streaming pipelines, or
     * when the engine is stopped.
     */
    std::shared_ptr<StreamSession>
    openStream(const std::string &pipeline,
               std::vector<std::int64_t> params);

    /**
     * Submit the next frame of @p session: @p inputs are the declared
     * inputs in ABI order (taps are fed from the session's rings).
     * Frames execute strictly in submit order, one at a time per
     * session (per-session FIFO); @p done runs on the completing
     * worker thread with outputs borrowed from the session.  Frames
     * bypass the admission queue capacity — a session holds at most
     * one frame in the engine queue, and the rest wait in the
     * session's own unbounded FIFO.  A rejected frame (closed
     * session, stopped engine) invokes @p done immediately with an
     * error.
     */
    void submitFrame(const std::shared_ptr<StreamSession> &session,
                     std::vector<std::shared_ptr<const rt::Buffer>>
                         inputs,
                     FrameCallback done = nullptr);

    /**
     * Close a session: stop accepting frames and wait until every
     * already-submitted frame has completed.  Idempotent; safe to
     * call concurrently with submitFrame (late submits fail).
     */
    void closeStream(const std::shared_ptr<StreamSession> &session);

    /**
     * Stop admitting new requests and wait until every queued and
     * in-flight request has completed.  Clients blocked in a full
     * Block-policy queue are completed with an error.  The engine
     * stays stopped afterwards (submits fail fast).  Frames already
     * submitted to streaming sessions keep draining through their
     * FIFOs; new submitFrame calls fail.
     */
    void drain();

    /**
     * Stop the engine: requests still in the queue are completed with
     * a shutdown error, in-flight requests finish, workers exit and
     * are joined.  Idempotent.
     */
    void shutdown();

    /** Snapshot of counters, gauges, histograms, and pool stats. */
    ServeSnapshot metrics() const;
    /** metrics() serialized to polymage-serve-v1. */
    std::string metricsJson() const;

    const EngineOptions &options() const { return opts_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Job
    {
        Request req;
        std::promise<Response> promise;
        std::function<void(Response)> callback;
        Clock::time_point enqueued;
        /** Queue wait measured at dequeue (set by the worker). */
        double waitSeconds = 0.0;
        /** Set on streaming-frame jobs: the owning session.  Frame
         * jobs carry their inputs in req.inputs and complete through
         * frameDone, never the promise/callback pair. */
        std::shared_ptr<StreamSession> session;
        FrameCallback frameDone;
        long long frameIndex = -1;
    };

    std::future<Response> enqueue(Request req,
                                  std::function<void(Response)> done);
    void workerLoop(int index);
    /**
     * Serve a dequeued request: resolve its tier, then answer it from
     * the interpreter alone, or claim its same-pipeline followers and
     * run them all through executeBatch().  Returns the number of
     * requests completed.
     */
    int serve(Job &leader, rt::BufferPool &pool);
    /**
     * Execute a coalesced same-pipeline batch, one request after
     * another, each through Executable::run on the shared pool.
     * Completes (finish()es) every job.
     */
    void executeBatch(std::vector<Job> &batch, const rt::Executable &exe,
                      rt::BufferPool &pool);
    /** Finish one executed request: metrics, estimates, callback. */
    void complete(Job &job, Response &&r);
    /**
     * Predicted run seconds of @p pipeline under @p params: the
     * measured EWMA once any request completed, else the analytic
     * point-count estimate from the registered graph (0 when even
     * that is unavailable -- admit optimistically).
     */
    double predictedRunSeconds(const std::string &pipeline,
                               const std::vector<std::int64_t> &params);
    /** Record a measured run into the pipeline's EWMA. */
    void noteRunSeconds(const std::string &pipeline, double seconds);
    /** Take one token from @p tenant's bucket; false = shed. */
    bool admitTenant(const std::string &tenant, Clock::time_point now);
    /** Track the tier-1 -> tier-2 flip of @p pipeline (tiered mode). */
    void notePromotion(const std::string &pipeline, int tier,
                       Clock::time_point now);
    static void finish(Job &job, Response &&r);
    /** Run one streaming frame on a worker, then advance the
     * session's FIFO (enqueue its next pending frame, if any). */
    void executeFrame(Job &job);
    /** Push a frame job onto the engine queue (fails it when the
     * engine is stopping). */
    void enqueueFrame(const std::shared_ptr<StreamSession> &session,
                      StreamSession::PendingFrame &&f);
    /** Fail a queued frame job (shutdown orphan / stopped engine). */
    void failFrame(Job &job, const char *reason);

    std::shared_ptr<PipelineRegistry> registry_;
    EngineOptions opts_;

    mutable std::mutex mu_;
    std::condition_variable queueNotEmpty_;
    std::condition_variable queueNotFull_;
    std::condition_variable idle_;
    std::deque<Job> queue_;
    int inFlight_ = 0;
    bool draining_ = false;
    bool stopping_ = false;
    bool joined_ = false;

    std::vector<std::thread> workers_;
    /** One pool per worker: steady-state requests hit warm blocks
     * without cross-worker contention. */
    std::vector<std::unique_ptr<rt::BufferPool>> pools_;
    mutable ServeMetrics metrics_;

    /** The shared pool: compiled tiles, stream frames and
     * interpreter-tier bands. */
    std::unique_ptr<rt::TileScheduler> sched_;

    /** Per-pipeline run-time estimates feeding SLO admission. */
    struct RunEstimate
    {
        double ewma = 0.0;
        std::uint64_t samples = 0;
    };
    std::mutex estMu_;
    std::map<std::string, RunEstimate> runEst_;

    /** Per-tenant token buckets (EngineOptions::tenantRatePerSec). */
    struct TokenBucket
    {
        double tokens = 0.0;
        Clock::time_point refilled;
    };
    std::mutex tenantMu_;
    std::map<std::string, TokenBucket> buckets_;

    /** Promotion tracking (tiered mode): pipeline name -> time of its
     * first interpreter-served response; erased (and the latency
     * recorded) when the first compiled-tier response lands. */
    std::mutex promoMu_;
    std::map<std::string, Clock::time_point> firstInterp_;

    /** Every session ever opened (closed ones stay for metrics). */
    mutable std::mutex sessMu_;
    std::vector<std::shared_ptr<StreamSession>> sessions_;
    std::uint64_t nextSessionId_ = 1;
};

} // namespace polymage::serve

#endif // POLYMAGE_SERVE_ENGINE_HPP
