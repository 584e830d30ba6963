#include "serve/engine.hpp"

#include <algorithm>

#include "interp/interpreter.hpp"
#include "support/diagnostics.hpp"

namespace polymage::serve {

namespace {

/**
 * Same-pipeline request batching: a worker whose dequeued request
 * resolves to the compiled tier also claims queued requests for the
 * same pipeline (and default variant), up to this many in all -- one
 * registry lookup for the lot.  An interpreter-tier request claims
 * none.
 */
constexpr std::size_t kMaxBatch = 8;

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Borrowed pointers to a request's input buffers. */
std::vector<const rt::Buffer *>
inputsOf(const Request &req)
{
    std::vector<const rt::Buffer *> ins;
    ins.reserve(req.inputs.size());
    for (const auto &b : req.inputs)
        ins.push_back(b.get());
    return ins;
}

} // namespace

const char *
policyName(OverloadPolicy p)
{
    switch (p) {
    case OverloadPolicy::Block:
        return "block";
    case OverloadPolicy::RejectWithError:
        return "reject";
    case OverloadPolicy::ShedOldest:
        return "shed";
    }
    return "unknown";
}

OverloadPolicy
policyFromName(const std::string &name)
{
    if (name == "block")
        return OverloadPolicy::Block;
    if (name == "reject")
        return OverloadPolicy::RejectWithError;
    if (name == "shed")
        return OverloadPolicy::ShedOldest;
    specError("unknown overload policy '", name,
              "' (expected block, reject, or shed)");
}

Engine::Engine(std::shared_ptr<PipelineRegistry> registry,
               EngineOptions opts)
    : registry_(std::move(registry)), opts_(opts)
{
    PM_ASSERT(registry_ != nullptr, "Engine requires a registry");
    opts_.workers = std::max(1, opts_.workers);
    opts_.queueCapacity = std::max(1, opts_.queueCapacity);

    rt::SchedulerOptions so;
    so.workers = opts_.schedulerWorkers;
    if (so.workers == 0) {
        const int hw =
            std::max(1, int(std::thread::hardware_concurrency()));
        // Auto-size: engine workers participate in the pool via
        // run(), so dedicated pool threads only fill the cores
        // the workers leave free.  Oversubscribing a small machine
        // costs more in context switches than extra threads recover.
        so.workers = hw - opts_.workers;
        if (so.workers < 1)
            so.workers = -1; // thread-less pool: helpers drive
    }
    sched_ = std::make_unique<rt::TileScheduler>(so);

    pools_.reserve(std::size_t(opts_.workers));
    for (int i = 0; i < opts_.workers; ++i)
        pools_.push_back(std::make_unique<rt::BufferPool>());
    workers_.reserve(std::size_t(opts_.workers));
    for (int i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

Engine::~Engine() { shutdown(); }

std::uint64_t
StreamSession::framesDone() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return framesDone_;
}

bool
StreamSession::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

rt::MemoryStats
StreamSession::memoryStats() const
{
    return stream_->memoryStats();
}

std::future<Response>
Engine::submit(Request req)
{
    return enqueue(std::move(req), nullptr);
}

void
Engine::submit(Request req, std::function<void(Response)> done)
{
    enqueue(std::move(req), std::move(done));
}

void
Engine::finish(Job &job, Response &&r)
{
    if (job.callback)
        job.callback(r);
    job.promise.set_value(std::move(r));
}

std::future<Response>
Engine::enqueue(Request req, std::function<void(Response)> done)
{
    Job job;
    job.req = std::move(req);
    job.callback = std::move(done);
    job.enqueued = Clock::now();
    std::future<Response> fut = job.promise.get_future();

    // Admission control runs before the capacity gate: a shed request
    // never occupies queue space or blocks behind the Block policy.
    metrics_.onSubmit();
    const char *admission_error = nullptr;
    if (opts_.tenantRatePerSec > 0.0 && !job.req.tenant.empty() &&
        !admitTenant(job.req.tenant, job.enqueued)) {
        metrics_.onQuotaShed(job.req.tenant);
        admission_error = "shed: tenant quota exceeded";
    } else if (opts_.sloAdmission && job.req.deadlineSeconds > 0.0) {
        const double run_s =
            predictedRunSeconds(job.req.pipeline, job.req.params);
        std::int64_t depth = 0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            depth = std::int64_t(queue_.size());
        }
        // Every queued request ahead costs ~run_s across the worker
        // fan-in; the new request then needs its own run_s.
        const double wait_s = run_s * double(depth) /
                              double(std::max(1, opts_.workers));
        if (run_s > 0.0 &&
            wait_s + run_s > job.req.deadlineSeconds) {
            metrics_.onSloShed(job.req.tenant);
            admission_error = "shed: predicted deadline miss";
        }
    }
    if (admission_error != nullptr) {
        Response r;
        r.error = admission_error;
        r.totalSeconds = secondsBetween(job.enqueued, Clock::now());
        finish(job, std::move(r));
        return fut;
    }

    std::optional<Job> shed;
    const char *reject_reason = nullptr;
    double reject_waited = 0.0;
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (draining_ || stopping_) {
            reject_reason = "engine is stopped";
        } else if (std::int64_t(queue_.size()) >=
                   opts_.queueCapacity) {
            switch (opts_.policy) {
            case OverloadPolicy::Block:
                queueNotFull_.wait(lock, [&] {
                    return std::int64_t(queue_.size()) <
                               opts_.queueCapacity ||
                           draining_ || stopping_;
                });
                if (draining_ || stopping_) {
                    reject_reason =
                        "engine stopped while waiting for queue space";
                    reject_waited =
                        secondsBetween(job.enqueued, Clock::now());
                }
                break;
            case OverloadPolicy::RejectWithError:
                reject_reason = "rejected: queue full";
                break;
            case OverloadPolicy::ShedOldest:
                shed = std::move(queue_.front());
                queue_.pop_front();
                break;
            }
        }
        if (reject_reason == nullptr) {
            queue_.push_back(std::move(job));
            metrics_.onEnqueue();
            queueNotEmpty_.notify_one();
        }
    }

    if (shed.has_value()) {
        Response r;
        r.error = "shed under load (ShedOldest)";
        r.totalSeconds = secondsBetween(shed->enqueued, Clock::now());
        // The whole life of a shed request was queue wait -- no
        // execution happened (the shed/reject metrics split).
        r.queueSeconds = r.totalSeconds;
        metrics_.onShed(r.queueSeconds);
        finish(*shed, std::move(r));
    }
    if (reject_reason != nullptr) {
        metrics_.onReject(reject_waited);
        Response r;
        r.error = reject_reason;
        r.totalSeconds = secondsBetween(job.enqueued, Clock::now());
        r.queueSeconds = reject_waited;
        finish(job, std::move(r));
    }
    return fut;
}

void
Engine::workerLoop(int index)
{
    rt::BufferPool &pool = *pools_[std::size_t(index)];
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            queueNotEmpty_.wait(lock, [&] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            inFlight_ += 1;
            job.waitSeconds = secondsBetween(job.enqueued, Clock::now());
            // Frame jobs never passed onEnqueue, so they skip
            // onDequeue too (the queue gauges stay request-only).
            if (!job.session)
                metrics_.onDequeue(job.waitSeconds);
            queueNotFull_.notify_all();
        }

        int done = 1;
        if (job.session)
            executeFrame(job);
        else
            done = serve(job, pool);

        {
            std::lock_guard<std::mutex> lock(mu_);
            inFlight_ -= done;
            if (queue_.empty() && inFlight_ == 0)
                idle_.notify_all();
        }
    }
}

void
Engine::complete(Job &job, Response &&r)
{
    r.queueSeconds = job.waitSeconds;
    r.totalSeconds = secondsBetween(job.enqueued, Clock::now());
    if (r.ok()) {
        metrics_.onComplete(r.totalSeconds);
        if (r.tier == 1)
            metrics_.onInterpServed();
        else if (r.tier == 2)
            metrics_.onCompiledServed();
        noteRunSeconds(job.req.pipeline, r.runSeconds);
        if (job.req.deadlineSeconds > 0.0 &&
            r.totalSeconds > job.req.deadlineSeconds)
            metrics_.onDeadlineMiss();
    } else {
        metrics_.onFail(r.totalSeconds);
    }
    finish(job, std::move(r));
}

int
Engine::serve(Job &leader, rt::BufferPool &pool)
{
    const Request &req = leader.req;
    const auto t0 = Clock::now();
    PipelineRegistry::ExecutablePtr exe;
    Response r;
    try {
        const CompileOptions *variant =
            req.variant.has_value() ? &*req.variant : nullptr;
        if (!opts_.tiered) {
            exe = variant != nullptr ? registry_->get(req.pipeline, *variant)
                                     : registry_->get(req.pipeline);
        } else {
            PipelineRegistry::TieredResult tr =
                registry_->getTiered(req.pipeline, variant);
            exe = std::move(tr.exe);
            if (exe == nullptr) {
                // Interpreter tier: this request alone, its stages in
                // row bands on the shared pool.
                r.outputs = interp::evaluate(*tr.graph, req.params,
                                             inputsOf(req), sched_.get())
                                .outputs;
                r.tier = 1;
                notePromotion(req.pipeline, 1, t0);
            }
        }
    } catch (const std::exception &e) {
        r.outputs.clear();
        r.error = e.what();
    } catch (...) {
        r.outputs.clear();
        r.error = "unknown execution error";
    }
    if (exe == nullptr) {
        r.runSeconds = secondsBetween(t0, Clock::now());
        complete(leader, std::move(r));
        return 1;
    }

    // Compiled tier: claim queued requests for the leader's pipeline
    // (default variant only -- explicit variants have no cheap
    // equality) up to kMaxBatch.  Streaming frames never coalesce: a
    // session's frames are strictly ordered and stateful.
    const bool coalesce = !leader.req.variant.has_value();
    // Copy, not reference: emplace_back below reallocates `batch`.
    const std::string pipeline = leader.req.pipeline;
    std::vector<Job> batch;
    batch.push_back(std::move(leader));
    if (coalesce) {
        std::lock_guard<std::mutex> lock(mu_);
        const auto now = Clock::now();
        for (auto it = queue_.begin();
             it != queue_.end() && batch.size() < kMaxBatch;) {
            if (!it->session && it->req.pipeline == pipeline &&
                !it->req.variant.has_value()) {
                Job &job = batch.emplace_back(std::move(*it));
                it = queue_.erase(it);
                inFlight_ += 1;
                job.waitSeconds = secondsBetween(job.enqueued, now);
                metrics_.onDequeue(job.waitSeconds);
            } else {
                ++it;
            }
        }
        queueNotFull_.notify_all();
    }
    executeBatch(batch, *exe, pool);
    return int(batch.size());
}

void
Engine::executeBatch(std::vector<Job> &batch, const rt::Executable &exe,
                     rt::BufferPool &pool)
{
    metrics_.onBatch(int(batch.size()));
    // One request at a time: this worker helps the pool run each
    // request's tasks, and the request's slots are back in @p pool
    // before it completes, so the next request reuses the same warm
    // pages.
    for (Job &job : batch) {
        const auto started = Clock::now();
        Response r;
        try {
            r.outputs =
                exe.run(job.req.params, inputsOf(job.req), pool, sched_.get());
            r.tier = 2;
        } catch (const std::exception &e) {
            r.error = e.what();
        } catch (...) {
            r.error = "unknown execution error";
        }
        r.runSeconds = secondsBetween(started, Clock::now());
        if (opts_.tiered && r.tier == 2)
            notePromotion(job.req.pipeline, 2, started);
        complete(job, std::move(r));
    }
}

double
Engine::predictedRunSeconds(const std::string &pipeline,
                            const std::vector<std::int64_t> &params)
{
    {
        std::lock_guard<std::mutex> lock(estMu_);
        auto it = runEst_.find(pipeline);
        if (it != runEst_.end() && it->second.samples > 0)
            return it->second.ewma;
    }
    // Pre-warmup: analytic fallback sized off the registered graph's
    // point count under this request's parameters -- the same work
    // proxy the tile model sizes against.  ~1ns/stage-point lands
    // within an order of magnitude of the measured paper apps, which
    // is all a cold-start admission gate needs; the EWMA replaces it
    // after the first completion.
    constexpr double kSecondsPerPoint = 1e-9;
    try {
        auto g = registry_->graphOf(pipeline);
        if (g == nullptr)
            return 0.0;
        double points = 0.0;
        for (const auto &stage : g->stages()) {
            double numel = 1.0;
            for (std::int64_t d : interp::stageShape(stage, *g, params))
                numel *= double(d);
            points += numel;
        }
        return points * kSecondsPerPoint;
    } catch (...) {
        return 0.0; // malformed params: let execution report it
    }
}

void
Engine::noteRunSeconds(const std::string &pipeline, double seconds)
{
    if (seconds <= 0.0)
        return;
    std::lock_guard<std::mutex> lock(estMu_);
    RunEstimate &e = runEst_[pipeline];
    // First sample seeds; later samples fold in at 1/4 so the
    // estimate tracks drift (tier promotion, cache warmth) without
    // chasing single-request noise.
    e.ewma = e.samples == 0 ? seconds
                            : 0.75 * e.ewma + 0.25 * seconds;
    e.samples += 1;
}

bool
Engine::admitTenant(const std::string &tenant, Clock::time_point now)
{
    const double burst = opts_.tenantBurst > 0.0
                             ? opts_.tenantBurst
                             : opts_.tenantRatePerSec;
    std::lock_guard<std::mutex> lock(tenantMu_);
    auto [it, fresh] = buckets_.try_emplace(tenant);
    TokenBucket &b = it->second;
    if (fresh) {
        b.tokens = burst;
        b.refilled = now;
    } else {
        const double dt = secondsBetween(b.refilled, now);
        if (dt > 0.0) {
            b.tokens = std::min(
                burst, b.tokens + dt * opts_.tenantRatePerSec);
            b.refilled = now;
        }
    }
    if (b.tokens < 1.0)
        return false;
    b.tokens -= 1.0;
    return true;
}

void
Engine::notePromotion(const std::string &pipeline, int tier,
                      Clock::time_point now)
{
    std::lock_guard<std::mutex> lock(promoMu_);
    auto it = firstInterp_.find(pipeline);
    if (tier == 1) {
        if (it == firstInterp_.end())
            firstInterp_.emplace(pipeline, now);
        return;
    }
    if (it != firstInterp_.end()) {
        metrics_.onPromotion(secondsBetween(it->second, now));
        firstInterp_.erase(it);
    }
}

std::shared_ptr<StreamSession>
Engine::openStream(const std::string &pipeline,
                   std::vector<std::int64_t> params)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (draining_ || stopping_)
            specError("cannot open stream '", pipeline,
                      "': engine is stopped");
    }
    // Tier 2, blocking: the session's rings are allocated against one
    // compiled plan, so there is no interpreter fallback to hide the
    // compile behind (registry sharing still applies -- concurrent
    // opens of one pipeline share the build).
    PipelineRegistry::ExecutablePtr exe = registry_->get(pipeline);
    if (!exe->info().stream.streaming)
        specError("pipeline '", pipeline,
                  "' is not a streaming spec (no prev() taps; see "
                  "docs/STREAMING.md)");
    std::shared_ptr<StreamSession> s(new StreamSession());
    s->pipeline_ = pipeline;
    s->stream_ = std::make_unique<rt::StreamExecutable>(
        std::move(exe), std::move(params));
    s->opened_ = Clock::now();
    s->lastDone_ = s->opened_;
    {
        std::lock_guard<std::mutex> lock(sessMu_);
        s->id_ = nextSessionId_++;
        sessions_.push_back(s);
    }
    metrics_.onStreamOpen();
    return s;
}

void
Engine::submitFrame(
    const std::shared_ptr<StreamSession> &session,
    std::vector<std::shared_ptr<const rt::Buffer>> inputs,
    FrameCallback done)
{
    PM_ASSERT(session != nullptr, "submitFrame requires a session");
    metrics_.onFrameSubmit();
    StreamSession::PendingFrame f;
    f.inputs = std::move(inputs);
    f.done = std::move(done);
    f.enqueued = Clock::now();

    const char *reason = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (draining_ || stopping_)
            reason = "engine is stopped";
    }
    bool run_now = false;
    if (reason == nullptr) {
        std::lock_guard<std::mutex> lock(session->mu_);
        if (session->closed_) {
            reason = "stream session is closed";
        } else {
            f.frame = session->framesSubmitted_++;
            if (session->inFlight_) {
                session->pending_.push_back(std::move(f));
            } else {
                session->inFlight_ = true;
                run_now = true;
            }
        }
    }
    if (reason != nullptr) {
        StreamFrameResult fr;
        fr.error = reason;
        metrics_.onFrameDone(0.0, false);
        if (f.done)
            f.done(fr);
        return;
    }
    if (run_now)
        enqueueFrame(session, std::move(f));
}

void
Engine::enqueueFrame(const std::shared_ptr<StreamSession> &session,
                     StreamSession::PendingFrame &&f)
{
    Job job;
    job.req.pipeline = session->pipeline_;
    job.req.inputs = std::move(f.inputs);
    job.session = session;
    job.frameDone = std::move(f.done);
    job.frameIndex = f.frame;
    job.enqueued = f.enqueued;
    // Frames bypass the capacity gate: a session contributes at most
    // one queued job at a time (the rest wait in its own FIFO), so
    // the request queue cannot be flooded by a fast producer.  They
    // also pass during drain() -- already-submitted frames finish --
    // but not after shutdown().
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!stopping_) {
            queue_.push_back(std::move(job));
            queueNotEmpty_.notify_one();
            return;
        }
    }
    failFrame(job, "engine shutdown before execution");
}

void
Engine::executeFrame(Job &job)
{
    const std::shared_ptr<StreamSession> &s = job.session;
    StreamFrameResult fr;
    fr.frame = job.frameIndex;
    fr.queueSeconds = job.waitSeconds;
    const auto t0 = Clock::now();
    try {
        // The frame's tiles drain through the shared pool.
        const std::vector<rt::Buffer> &outs =
            s->stream_->step(inputsOf(job.req), sched_.get());
        fr.outputs = &outs;
        fr.tier = 2;
    } catch (const std::exception &e) {
        fr.error = e.what();
    } catch (...) {
        fr.error = "unknown execution error";
    }
    const auto now = Clock::now();
    fr.runSeconds = secondsBetween(t0, now);
    fr.totalSeconds = secondsBetween(job.enqueued, now);
    metrics_.onFrameDone(fr.totalSeconds, fr.ok());
    {
        std::lock_guard<std::mutex> lock(s->mu_);
        s->framesDone_ += 1;
        if (!fr.ok())
            s->framesFailed_ += 1;
        s->frameLatency_.record(fr.totalSeconds);
        s->lastDone_ = now;
    }
    // Callback runs before the FIFO advances: the next frame cannot
    // start (and overwrite the borrowed outputs) until it returns.
    if (job.frameDone)
        job.frameDone(fr);
    StreamSession::PendingFrame next;
    bool have = false;
    {
        std::lock_guard<std::mutex> lock(s->mu_);
        if (!s->pending_.empty()) {
            next = std::move(s->pending_.front());
            s->pending_.pop_front();
            have = true;
        } else {
            s->inFlight_ = false;
        }
        s->cv_.notify_all();
    }
    if (have)
        enqueueFrame(s, std::move(next));
}

void
Engine::failFrame(Job &job, const char *reason)
{
    const std::shared_ptr<StreamSession> &s = job.session;
    StreamFrameResult fr;
    fr.frame = job.frameIndex;
    fr.error = reason;
    fr.totalSeconds = secondsBetween(job.enqueued, Clock::now());
    fr.queueSeconds = fr.totalSeconds;
    metrics_.onFrameDone(fr.totalSeconds, false);
    {
        std::lock_guard<std::mutex> lock(s->mu_);
        s->framesDone_ += 1;
        s->framesFailed_ += 1;
        s->frameLatency_.record(fr.totalSeconds);
        s->lastDone_ = Clock::now();
    }
    if (job.frameDone)
        job.frameDone(fr);
    // No chain-advance: failFrame only runs when the engine is
    // stopping, and shutdown() flushes the session FIFOs itself.
    std::lock_guard<std::mutex> lock(s->mu_);
    s->inFlight_ = false;
    s->cv_.notify_all();
}

void
Engine::closeStream(const std::shared_ptr<StreamSession> &session)
{
    PM_ASSERT(session != nullptr, "closeStream requires a session");
    bool record = false;
    {
        std::unique_lock<std::mutex> lock(session->mu_);
        session->closed_ = true;
        session->cv_.wait(lock, [&] {
            return session->pending_.empty() && !session->inFlight_;
        });
        if (!session->closeRecorded_) {
            session->closeRecorded_ = true;
            record = true;
        }
    }
    if (record)
        metrics_.onStreamClose();
}

void
Engine::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    // Wake clients blocked on a full queue; they fail fast.
    queueNotFull_.notify_all();
    idle_.wait(lock,
               [&] { return queue_.empty() && inFlight_ == 0; });
}

void
Engine::shutdown()
{
    std::deque<Job> orphans;
    bool join = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!stopping_) {
            stopping_ = true;
            orphans.swap(queue_);
        }
        if (!joined_) {
            joined_ = true;
            join = true;
        }
        queueNotEmpty_.notify_all();
        queueNotFull_.notify_all();
        idle_.notify_all();
    }
    for (Job &j : orphans) {
        if (j.session) {
            failFrame(j, "engine shutdown before execution");
            continue;
        }
        Response r;
        r.error = "engine shutdown before execution";
        r.totalSeconds = secondsBetween(j.enqueued, Clock::now());
        r.queueSeconds = r.totalSeconds;
        metrics_.onShutdownOrphan(r.queueSeconds);
        finish(j, std::move(r));
    }
    // Flush streaming-session FIFOs: frames waiting behind a
    // session's in-flight one will never be enqueued now.
    std::vector<std::shared_ptr<StreamSession>> sessions;
    {
        std::lock_guard<std::mutex> lock(sessMu_);
        sessions = sessions_;
    }
    for (const auto &s : sessions) {
        std::deque<StreamSession::PendingFrame> pend;
        {
            std::lock_guard<std::mutex> lock(s->mu_);
            s->closed_ = true;
            pend.swap(s->pending_);
            s->cv_.notify_all();
        }
        for (StreamSession::PendingFrame &f : pend) {
            StreamFrameResult fr;
            fr.frame = f.frame;
            fr.error = "engine shutdown before execution";
            fr.totalSeconds =
                secondsBetween(f.enqueued, Clock::now());
            fr.queueSeconds = fr.totalSeconds;
            metrics_.onFrameDone(fr.totalSeconds, false);
            {
                std::lock_guard<std::mutex> lock(s->mu_);
                s->framesDone_ += 1;
                s->framesFailed_ += 1;
                s->frameLatency_.record(fr.totalSeconds);
            }
            if (f.done)
                f.done(fr);
        }
    }
    if (join) {
        for (std::thread &t : workers_)
            if (t.joinable())
                t.join();
    }
}

ServeSnapshot
Engine::metrics() const
{
    ServeSnapshot s = metrics_.snapshot();
    s.workers = opts_.workers;
    s.queueCapacity = opts_.queueCapacity;
    s.policy = policyName(opts_.policy);
    s.tiered = opts_.tiered;
    s.schedulerWorkers = sched_->workers();
    s.scheduler = sched_->stats();
    for (const auto &p : pools_) {
        const rt::BufferPool::Stats ps = p->stats();
        s.poolBlockAllocs += ps.blockAllocs;
        s.poolAcquires += ps.acquires;
        s.poolBytesOwned += ps.bytesOwned;
        s.poolPeakBytesInUse += ps.peakBytesInUse;
    }
    {
        std::lock_guard<std::mutex> lock(sessMu_);
        s.streamSessions.reserve(sessions_.size());
        for (const auto &sess : sessions_) {
            ServeSnapshot::StreamSessionSummary sum;
            std::lock_guard<std::mutex> slock(sess->mu_);
            sum.id = sess->id_;
            sum.pipeline = sess->pipeline_;
            sum.frames = sess->framesDone_;
            sum.failed = sess->framesFailed_;
            sum.p99Seconds =
                sess->frameLatency_.quantileSeconds(0.99);
            const double span =
                secondsBetween(sess->opened_, sess->lastDone_);
            sum.fps = span > 0.0
                          ? double(sess->framesDone_) / span
                          : 0.0;
            sum.closed = sess->closed_;
            s.streamSessions.push_back(std::move(sum));
        }
    }
    return s;
}

std::string
Engine::metricsJson() const
{
    return metrics().toJson();
}

} // namespace polymage::serve
