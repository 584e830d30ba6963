/**
 * @file
 * Minimal walkthrough of the `polymage::serve` API: register two
 * pipelines, start an engine, submit requests through both the future
 * and the callback interface, drain, and print the serving metrics.
 *
 *   ./polymage_serve_demo [rows cols requests]
 *   ./polymage_serve_demo --stream [frames] [frame0.pgm frame1.pgm ...]
 *
 * The --stream mode opens a streaming session on the temporal-denoise
 * pipeline, feeds it a PGM frame sequence (explicit .pgm paths, or a
 * synthesized sequence written to and read back from a temp
 * directory), and prints per-frame tier plus the session fps / p99
 * frame latency from the engine metrics.
 *
 * Exits non-zero if any request fails, so scripts can use it as a
 * smoke test of the serving path.
 */
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "runtime/imageio.hpp"
#include "runtime/synth.hpp"
#include "serve/engine.hpp"

using namespace polymage;

namespace {

std::shared_ptr<const rt::Buffer>
borrow(const rt::Buffer &b)
{
    return {std::shared_ptr<const rt::Buffer>(), &b};
}

/** Resolve the frame sequence for --stream: explicit .pgm paths, or a
 * synthesized sequence round-tripped through PGM files so the demo
 * exercises the same ingest path a camera dump would. */
std::vector<std::string>
framePaths(int frames, const std::vector<std::string> &explicit_paths)
{
    if (!explicit_paths.empty())
        return explicit_paths;
    char dir[] = "/tmp/polymage_stream_XXXXXX";
    if (!::mkdtemp(dir)) {
        std::perror("mkdtemp");
        std::exit(1);
    }
    std::vector<std::string> paths;
    for (int t = 0; t < frames; ++t) {
        // Vary the seed per frame so the temporal taps see motion.
        rt::Buffer img = rt::synth::photo(130, 130, 1 + t);
        std::string path =
            std::string(dir) + "/frame_" + std::to_string(t) + ".pgm";
        rt::writeImage(img, path);
        paths.push_back(std::move(path));
    }
    return paths;
}

int
runStreamDemo(int frames, const std::vector<std::string> &explicit_paths)
{
    const std::vector<std::string> paths =
        framePaths(frames, explicit_paths);
    std::vector<rt::Buffer> seq;
    for (const std::string &p : paths)
        seq.push_back(rt::toFloat(rt::readImage(p)));
    if (seq.empty() || seq[0].dims().size() != 2) {
        std::fprintf(stderr, "--stream needs rank-2 (grayscale) PGMs\n");
        return 1;
    }
    // temporal_denoise consumes a (rows+2, cols+2) padded frame.
    const std::int64_t rows = seq[0].dims()[0] - 2;
    const std::int64_t cols = seq[0].dims()[1] - 2;

    auto registry = std::make_shared<serve::PipelineRegistry>();
    registry->add("temporal_denoise",
                  apps::buildTemporalDenoise(rows, cols), {});

    serve::EngineOptions eopts;
    eopts.workers = 2;
    serve::Engine engine(registry, eopts);

    auto session = engine.openStream("temporal_denoise", {rows, cols});
    std::printf("stream: %zu-frame PGM sequence, %lldx%lld output\n",
                seq.size(), static_cast<long long>(rows),
                static_cast<long long>(cols));

    std::mutex mu;
    int ok = 0, failed = 0;
    for (std::size_t t = 0; t < seq.size(); ++t) {
        engine.submitFrame(
            session, {borrow(seq[t])},
            [&](const serve::StreamFrameResult &fr) {
                std::lock_guard<std::mutex> lock(mu);
                if (fr.ok()) {
                    ++ok;
                    std::printf(
                        "  frame %lld: tier %d, %.3f ms\n", fr.frame,
                        fr.tier, fr.totalSeconds * 1e3);
                } else {
                    ++failed;
                    std::fprintf(stderr, "  frame %lld failed: %s\n",
                                 fr.frame, fr.error.c_str());
                }
            });
    }
    // closeStream drains the session FIFO before returning.
    engine.closeStream(session);

    for (const auto &s : engine.metrics().streamSessions)
        std::printf("session %llu: %llu frames, %.1f fps, "
                    "p99 %.3f ms\n",
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.frames), s.fps,
                    s.p99Seconds * 1e3);
    std::printf("%d ok, %d failed\n", ok, failed);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--stream") == 0) {
        int frames = 12;
        std::vector<std::string> paths;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.size() > 4 &&
                arg.compare(arg.size() - 4, 4, ".pgm") == 0)
                paths.push_back(arg);
            else
                frames = std::atoi(argv[i]);
        }
        return runStreamDemo(frames, paths);
    }

    const std::int64_t rows = argc > 1 ? std::atoll(argv[1]) : 128;
    const std::int64_t cols = argc > 2 ? std::atoll(argv[2]) : 128;
    const int requests = argc > 3 ? std::atoi(argv[3]) : 8;

    // 1. Register pipelines.  The registry owns the specs and caches
    //    compiled variants; the default CompileOptions are used when a
    //    request names no explicit variant.
    auto registry = std::make_shared<serve::PipelineRegistry>();
    registry->add("unsharp", apps::buildUnsharpMask(rows, cols), {});
    registry->add("harris", apps::buildHarris(rows, cols), {});

    // Optional: start compiling ahead of the first request.
    auto warm = registry->prepare("harris", {});

    // 2. Start the engine.  Two workers; each request's tiles run on
    //    the engine's tile scheduler, whose threads fill the cores the
    //    workers leave free.
    serve::EngineOptions eopts;
    eopts.workers = 2;
    eopts.queueCapacity = 32;
    eopts.policy = serve::OverloadPolicy::Block;
    serve::Engine engine(registry, eopts);
    std::printf("engine: %d workers + %d scheduler threads\n",
                engine.options().workers,
                engine.metrics().schedulerWorkers);

    const rt::Buffer unsharp_in =
        rt::synth::photoRgb(rows + 4, cols + 4);
    const rt::Buffer harris_in = rt::synth::photo(rows + 2, cols + 2);

    // 3a. Future-style submission.
    std::vector<std::future<serve::Response>> futures;
    for (int i = 0; i < requests; ++i) {
        serve::Request req;
        req.pipeline = "unsharp";
        req.params = {rows, cols};
        req.inputs = {borrow(unsharp_in)};
        futures.push_back(engine.submit(std::move(req)));
    }

    // 3b. Callback-style submission.
    std::atomic<int> callback_ok{0};
    std::atomic<int> callback_failed{0};
    for (int i = 0; i < requests; ++i) {
        serve::Request req;
        req.pipeline = "harris";
        req.params = {rows, cols};
        req.inputs = {borrow(harris_in)};
        engine.submit(std::move(req), [&](serve::Response r) {
            (r.ok() ? callback_ok : callback_failed)
                .fetch_add(1, std::memory_order_relaxed);
        });
    }

    int failed = 0;
    for (auto &f : futures) {
        serve::Response r = f.get();
        if (!r.ok()) {
            std::fprintf(stderr, "request failed: %s\n",
                         r.error.c_str());
            failed += 1;
        }
    }

    // 4. drain() returns once every queued/in-flight request finished.
    engine.drain();
    failed += callback_failed.load();

    std::printf("%d future + %d callback requests done, %d failed\n",
                requests, callback_ok.load(), failed);
    std::printf("%s\n", engine.metricsJson().c_str());
    return failed == 0 ? 0 : 1;
}
