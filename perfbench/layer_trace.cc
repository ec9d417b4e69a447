/**
 * @file
 * yac_layer_trace -- the traced replay of the yac benchmark workloads.
 *
 *   yac_layer_trace --workload yield_scalar|yacd_tilted_avx2|
 *                   opt_search|cpi_exact [campaign flags] [...]
 *
 * Each workload is replayed through the library's public layer calls
 * with this file's own steady-clock spans around them, so the
 * per-layer times come from the benchmark and not from timers inside
 * the program. The replay prints the same result lines as the CLI
 * command it stands for (the loss table and yield line of `yac yield`,
 * the FINAL line of `yacd` and `yac_opt`), which perfbench/run.py
 * compares with the untraced command's output, then one
 * `LAYERS {...}` JSON line of per-layer metrics.
 *
 * Span accounting. Spans nest per thread; a span's self time is its
 * duration minus its child spans. Inside a parallel region (a
 * parallel::forChunks/forEach call) spans run on every pool thread,
 * so their thread-summed busy time is divided by the pool's thread
 * count to give the share of wall time they account for; idle pool
 * time stays with the region, which belongs to no layer. Sampling
 * and evaluation are timed by the library itself: the phases
 * MonteCarlo::evaluateChips returns, and the `sample` and `evaluate`
 * phase timers read before and after a call that runs campaigns
 * (MonteCarlo::run, the pilot, the optimizer's probes), are booked to
 * the variation and circuit layers the same way. unaccounted_s is
 * the replay's own wall time minus every layer's self time.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "variation/soa_batch.hh"
#include "yac.hh"

using namespace yac;
using namespace yac::service;

namespace
{

enum class Layer
{
    Variation,
    Circuit,
    Yield,
    Sim,
    Service,
    Opt,
    None, //!< time no layer claims (parallel-region idle)
};

constexpr const char *kLayerNames[] = {"variation", "circuit", "yield",
                                       "sim",       "service", "opt"};

enum SpanId
{
    kSample,        //!< evaluateChips' sample phase (sampleChipSoa*)
    kEvaluate,      //!< its evaluate phase (BatchChipEvaluator)
    kPopulation,    //!< MonteCarlo::run outside its sample/evaluate
    kPilot,         //!< bakeScreening / ProbeScenario::bakeMarket
    kScreen,        //!< resolveScreening
    kLossTable,     //!< buildLossTable
    kSimBaseline,   //!< CpiOracle construction (baseline CPIs)
    kSimPrice,      //!< CpiOracle::meanDegradation
    kShardEval,     //!< ShardEvaluator::evaluateChunk
    kCkptWrite,     //!< saveCheckpoint
    kCkptRead,      //!< loadCheckpoint
    kMerge,         //!< summarize (CampaignTotals::fold)
    kSearch,        //!< Optimizer::run
    kCacheIo,       //!< ProbeCache load / save
    kRegion,        //!< a parallel region's unclaimed time
    kSpanCount,
};

struct SpanInfo
{
    const char *name;
    Layer layer;
};

constexpr SpanInfo kSpans[kSpanCount] = {
    {"variation.sample", Layer::Variation},
    {"circuit.evaluate", Layer::Circuit},
    {"yield.population", Layer::Yield},
    {"yield.pilot", Layer::Yield},
    {"yield.screen", Layer::Yield},
    {"yield.loss_table", Layer::Yield},
    {"sim.baseline", Layer::Sim},
    {"sim.price", Layer::Sim},
    {"service.shard_eval", Layer::Service},
    {"service.checkpoint_write", Layer::Service},
    {"service.checkpoint_read", Layer::Service},
    {"service.merge", Layer::Service},
    {"opt.search", Layer::Opt},
    {"opt.cache_io", Layer::Opt},
    {"parallel.region", Layer::None},
};

struct SpanStats
{
    double busy = 0.0;      //!< thread-summed inclusive seconds
    double inclusive = 0.0; //!< share of wall time, children included
    double self = 0.0;      //!< share of wall time, children excluded
    std::uint64_t calls = 0;
    std::uint64_t items = 0; //!< chips, bytes, ... (per span kind)
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The span recorder: per-thread frame stacks, one shared table. */
class Tracer
{
  public:
    struct Frame
    {
        SpanId id;
        std::chrono::steady_clock::time_point start;
        double child = 0.0; //!< seconds of wall share
        double scale = 1.0; //!< 1 / threads inside a parallel region
    };

    static Tracer &instance()
    {
        static Tracer tracer;
        return tracer;
    }

    void open(SpanId id)
    {
        std::vector<Frame> &stack = frames();
        double scale = 1.0;
        if (!stack.empty())
            scale = stack.back().id == kRegion ? regionScale_
                                               : stack.back().scale;
        else if (regionOpen_)
            scale = regionScale_; // a pool thread's outermost span
        stack.push_back({id, std::chrono::steady_clock::now(), 0.0,
                         scale});
    }

    void close(std::uint64_t items)
    {
        std::vector<Frame> &stack = frames();
        const Frame frame = stack.back();
        stack.pop_back();
        const double busy = secondsSince(frame.start);
        const double wall = busy * frame.scale;
        std::lock_guard<std::mutex> lock(mutex_);
        SpanStats &s = stats_[frame.id];
        s.busy += busy;
        s.inclusive += wall;
        s.self += wall - frame.child;
        ++s.calls;
        s.items += items;
        if (stack.empty() || stack.back().id == kRegion)
            regionChild_ += regionOpen_ ? wall : 0.0;
        else
            stack.back().child += wall;
    }

    /** Open a parallel region on the calling (main) thread. */
    void openRegion(std::size_t threads)
    {
        open(kRegion);
        regionScale_ = 1.0 / static_cast<double>(threads);
        regionChild_ = 0.0;
        regionOpen_ = true;
    }

    void closeRegion()
    {
        std::vector<Frame> &stack = frames();
        const Frame frame = stack.back();
        stack.pop_back();
        const double wall = secondsSince(frame.start);
        regionOpen_ = false;
        SpanStats &s = stats_[kRegion];
        s.busy += wall;
        s.inclusive += wall;
        s.self += wall - regionChild_;
        ++s.calls;
        if (!stack.empty())
            stack.back().child += wall;
    }

    /**
     * Book @p busy thread-summed seconds measured by a library phase
     * timer inside the innermost open span, as a child of that span.
     */
    void attribute(SpanId id, double busy, std::uint64_t items,
                   double scale)
    {
        const double wall = busy * scale;
        std::lock_guard<std::mutex> lock(mutex_);
        SpanStats &s = stats_[id];
        s.busy += busy;
        s.inclusive += wall;
        s.self += wall;
        ++s.calls;
        s.items += items;
        std::vector<Frame> &stack = frames();
        if (!stack.empty())
            stack.back().child += wall;
    }

    /** The wall share of one busy second in the innermost span. */
    double scale() const
    {
        const std::vector<Frame> &stack = frames();
        return stack.empty() ? 1.0 : stack.back().scale;
    }

    const SpanStats &stats(SpanId id) const { return stats_[id]; }

    double layerSelf(Layer layer) const
    {
        double sum = 0.0;
        for (int id = 0; id < kSpanCount; ++id) {
            if (kSpans[id].layer == layer)
                sum += stats_[id].self;
        }
        return sum;
    }

  private:
    static std::vector<Frame> &frames()
    {
        static thread_local std::vector<Frame> stack;
        return stack;
    }

    std::mutex mutex_;
    SpanStats stats_[kSpanCount];
    bool regionOpen_ = false;
    double regionScale_ = 1.0;
    double regionChild_ = 0.0; //!< guarded by mutex_ while open
};

class Span
{
  public:
    explicit Span(SpanId id) { Tracer::instance().open(id); }
    ~Span() { Tracer::instance().close(items_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void items(std::uint64_t n) { items_ = n; }

  private:
    std::uint64_t items_ = 0;
};

/** A parallel region around one pool call, on the main thread. */
class Region
{
  public:
    Region() { Tracer::instance().openRegion(parallel::threads()); }
    ~Region() { Tracer::instance().closeRegion(); }
    Region(const Region &) = delete;
    Region &operator=(const Region &) = delete;
};

/** Library phase timers and counters read around a library call. */
struct PhaseProbe
{
    std::int64_t sampleNanos = 0;
    std::int64_t evaluateNanos = 0;
    std::uint64_t chips = 0;

    static PhaseProbe now()
    {
        trace::Metrics &m = trace::Metrics::instance();
        return {m.phase("sample").nanos(), m.phase("evaluate").nanos(),
                m.counter("chips_sampled").value()};
    }

    /** Book the sampling and evaluation since @p before as children
     *  of the innermost open span. */
    static void attributeSince(const PhaseProbe &before)
    {
        const PhaseProbe after = now();
        const double scale =
            1.0 / static_cast<double>(parallel::threads());
        const std::uint64_t chips = after.chips - before.chips;
        Tracer &t = Tracer::instance();
        t.attribute(kSample,
                    1e-9 * double(after.sampleNanos - before.sampleNanos),
                    chips, scale);
        t.attribute(
            kEvaluate,
            1e-9 * double(after.evaluateNanos - before.evaluateNanos),
            chips, scale);
    }
};

/** Heap + inline bytes one stored CacheTiming occupies. */
std::size_t
timingBytes(const CacheTiming &t)
{
    std::size_t bytes =
        sizeof(CacheTiming) + t.ways.capacity() * sizeof(WayTiming);
    for (const WayTiming &w : t.ways) {
        bytes += (w.pathDelays.capacity() +
                  w.groupCellLeakage.capacity()) *
                 sizeof(double);
    }
    return bytes;
}

/** Bytes a materialized population stores per chip: both layouts'
 *  timings and the weight, computed from prepared timings. */
double
storedBytesPerChip(const MonteCarlo &mc)
{
    const BatchChipEvaluator batch(mc.geometry(), mc.technology());
    CacheTiming regular, horizontal;
    batch.prepareTiming(regular, CacheLayout::Regular);
    batch.prepareTiming(horizontal, CacheLayout::Horizontal);
    return double(timingBytes(regular) + timingBytes(horizontal) +
                  sizeof(double));
}

/** MonteCarlo::run under a population span, its sampling and
 *  evaluation booked from the library's phase timers. */
MonteCarloResult
runPopulation(const MonteCarlo &mc, const CampaignConfig &config)
{
    Span span(kPopulation);
    span.items(config.numChips);
    const PhaseProbe before = PhaseProbe::now();
    MonteCarloResult result = mc.run(config);
    PhaseProbe::attributeSince(before);
    return result;
}

/** ShardEvaluator::evaluateChunk, step by step: the library's
 *  evaluateChips (its phases booked to variation and circuit), then
 *  the classification and CPI pricing, whose time evaluateChunk does
 *  not report. */
class ChunkReplay
{
  public:
    explicit ChunkReplay(const ShardCampaignSpec &spec)
        : spec_(spec), config_(requestOf(spec).config()),
          kernel_(vecmath::resolveSimdKernel(spec.simd))
    {
        if (!spec_.carryCpi)
            return;
        SurrogateTable table;
        table.warmupInsts = spec_.cpiWarmupInsts;
        table.measureInsts = spec_.cpiMeasureInsts;
        table.simSeed = spec_.cpiSimSeed;
        Span span(kSimBaseline);
        oracle_.emplace(spec_.cpiMode, std::move(table));
        limits_ = YieldConstraints{spec_.delayLimitPs,
                                   spec_.leakageLimitMw};
        mapping_.delayLimitPs = spec_.delayLimitPs;
    }

    ChunkAccum evaluate(std::size_t chunk) const
    {
        Span span(kShardEval);
        const std::size_t begin = chunk * parallel::kStatChunk;
        const std::size_t end =
            std::min(spec_.numChips, begin + parallel::kStatChunk);
        const std::size_t n = end - begin;
        span.items(n);
        static thread_local ChipBatchSoa arena;
        static thread_local std::vector<CacheTiming> regular;
        static thread_local std::vector<CacheTiming> horizontal;
        static thread_local std::vector<double> weights;
        if (regular.size() < n) {
            regular.resize(n);
            horizontal.resize(n);
            weights.resize(n);
        }
        const ChipRangePhases phases =
            mc_.evaluateChips(config_, kernel_, begin, end, arena,
                              regular.data(), horizontal.data(),
                              weights.data());
        Tracer &t = Tracer::instance();
        t.attribute(kSample, 1e-9 * double(phases.sampleNanos), n,
                    t.scale());
        t.attribute(kEvaluate, 1e-9 * double(phases.evaluateNanos), n,
                    t.scale());

        ChunkAccum accum;
        accum.chunk = chunk;
        accum.chips = n;
        const bool naive = spec_.sampling.isNaive();
        for (std::size_t i = 0; i < n; ++i) {
            const CacheTiming &reg = regular[i];
            const CacheTiming &hor = horizontal[i];
            const double w = weights[i];
            const double delay = reg.delay();
            const double leak = reg.leakage();
            accum.population.add(w);
            std::size_t slow_ways = 0;
            for (std::size_t way = 0; way < reg.ways.size(); ++way) {
                if (reg.wayDelay(way) > spec_.delayLimitPs)
                    ++slow_ways;
            }
            if (leak > spec_.leakageLimitMw)
                accum.lossLeakage.add(w);
            else if (slow_ways > 0)
                accum.lossDelay[std::min(slow_ways, kDelayLossKinds) - 1]
                    .add(w);
            else
                accum.basePass.add(w);
            std::size_t bin = kDelayBins - 1;
            for (std::size_t b = 0; b + 1 < kDelayBins; ++b) {
                if (delay <= spec_.binEdges[b]) {
                    bin = b;
                    break;
                }
            }
            accum.delayBins[bin].add(w);
            if (naive) {
                accum.regDelay.add(delay);
                accum.regLeak.add(leak);
                accum.horDelay.add(hor.delay());
                accum.horLeak.add(hor.leakage());
            } else {
                accum.wRegDelay.add(delay, w);
                accum.wRegLeak.add(leak, w);
                accum.wHorDelay.add(hor.delay(), w);
                accum.wHorLeak.add(hor.leakage(), w);
            }
            if (!oracle_)
                continue;
            const std::optional<SimConfig> shipped = shippedSimConfig(
                reg, limits_, mapping_, oracle_->baseline());
            if (!shipped)
                continue;
            double deg = 0.0;
            {
                Span price(kSimPrice);
                deg = oracle_->meanDegradation(*shipped);
            }
            accum.cpiShipped.add(w);
            if (naive)
                accum.cpiDeg.add(deg);
            else
                accum.wCpiDeg.add(deg, w);
        }
        return accum;
    }

  private:
    ShardCampaignSpec spec_;
    CampaignConfig config_;
    MonteCarlo mc_;
    vecmath::SimdKernel kernel_;
    YieldConstraints limits_{};
    CycleMapping mapping_{};
    std::optional<CpiOracle> oracle_;
};

/** tools/yacd.cc's FINAL line, field for field. */
void
printFinal(const CampaignSummary &s, const ShardCampaignSpec &spec)
{
    std::printf("FINAL chips=%llu chunks=%llu",
                static_cast<unsigned long long>(s.chips),
                static_cast<unsigned long long>(s.chunks));
    std::printf(" yield=%.17g se=%.17g ess=%.17g", s.baseYield.value,
                s.baseYield.stdErr, s.baseYield.ess);
    std::printf(" loss_leak=%.17g", s.lossLeakage.value);
    for (std::size_t k = 0; k < s.lossDelay.size(); ++k)
        std::printf(" loss_delay%zu=%.17g", k + 1,
                    s.lossDelay[k].value);
    for (std::size_t b = 0; b < s.delayBins.size(); ++b)
        std::printf(" bin%zu=%.17g", b, s.delayBins[b].value);
    std::printf(" wsum=%.17g wsqsum=%.17g", s.weightSum,
                s.weightSqSum);
    std::printf(" reg=%.17g/%.17g/%.17g/%.17g", s.regular.delayMean,
                s.regular.delaySigma, s.regular.leakMean,
                s.regular.leakSigma);
    std::printf(" hor=%.17g/%.17g/%.17g/%.17g",
                s.horizontal.delayMean, s.horizontal.delaySigma,
                s.horizontal.leakMean, s.horizontal.leakSigma);
    if (spec.carryCpi)
        std::printf(" cpi_mode=%s cpi_shipped=%.17g cpi_mean=%.17g "
                    "cpi_sigma=%.17g",
                    cpiModeName(spec.cpiMode), s.cpiShipped.value,
                    s.cpiDegMean, s.cpiDegSigma);
    std::printf("\n");
}

/** Values the workloads fill beyond the span table. */
struct Extras
{
    std::uint64_t pilotChips = 0;
    double bytesPerChip = 0.0;
    double shardImbalance = 0.0;
    double probeSeconds = 0.0;
    std::uint64_t campaigns = 0;
    double cacheHitRatio = 0.0;
};

struct Flags
{
    CampaignOptions opts;
    std::string workload;
    double delayLimitPs = 0.0;
    double leakageLimitMw = 0.0;
    std::size_t carryCpi = 0;
    std::size_t cpiWarmupInsts = 30'000;
    std::size_t cpiMeasureInsts = 120'000;
    std::size_t cpiSimSeed = 1;
    std::string stateDir = "out/yacd";
    std::size_t budget = 120;
    std::size_t optSeed = 1;
    std::string probeCache;
};

CampaignRequest
flagsRequest(const Flags &flags)
{
    CampaignRequest request;
    request.spec = campaignFromOptions(flags.opts);
    request.engine = request.spec.engine; // nominal policy
    request.policy.delayLimitPs = flags.delayLimitPs;
    request.policy.leakageLimitMw = flags.leakageLimitMw;
    return request;
}

/** `yac yield --layout regular`: campaign, screening, loss table. */
void
replayYield(const Flags &flags, Extras &extras)
{
    const CampaignRequest request = flagsRequest(flags);
    const MonteCarlo mc;
    const MonteCarloResult population =
        runPopulation(mc, request.config());
    extras.bytesPerChip = storedBytesPerChip(mc);
    ResolvedScreening screening;
    {
        Span span(kScreen);
        screening = resolveScreening(population, request);
    }
    YapdScheme yapd;
    VacaScheme vaca;
    HybridScheme hybrid;
    LossTable t;
    {
        Span span(kLossTable);
        span.items(population.regular.size());
        t = buildLossTable(population.regular, population.weights,
                           screening.limits, screening.mapping,
                           {&yapd, &vaca, &hybrid});
    }

    // tools/yac_cli.cc's table, line for line.
    const YieldConstraints &c = screening.limits;
    std::printf("%zu chips, %s constraints, %s layout\n",
                flags.opts.chips, "nominal", "regular");
    std::printf("delay limit %.1f ps, leakage limit %.2f mW\n\n",
                c.delayLimitPs, c.leakageLimitMw);
    std::vector<std::string> headers = {"Reason", "# Chips"};
    for (const SchemeLosses &s : t.schemes)
        headers.push_back(s.scheme);
    TextTable out(headers);
    for (LossReason r : kLossRows) {
        std::vector<std::string> row = {
            lossReasonName(r),
            TextTable::num(static_cast<long long>(t.baseAt(r)))};
        for (const SchemeLosses &s : t.schemes)
            row.push_back(
                TextTable::num(static_cast<long long>(s.at(r))));
        out.addRow(row);
    }
    out.addSeparator();
    std::vector<std::string> total = {
        "Total", TextTable::num(static_cast<long long>(t.baseTotal))};
    for (const SchemeLosses &s : t.schemes)
        total.push_back(TextTable::num(static_cast<long long>(s.total)));
    out.addRow(total);
    out.print();
    std::printf("\nyield: base %s",
                TextTable::percent(t.yieldOf("Base").value).c_str());
    for (const SchemeLosses &s : t.schemes)
        std::printf(", %s %s", s.scheme.c_str(),
                    TextTable::percent(
                        t.yieldOf(s.scheme).value).c_str());
    std::printf("\n");
}

/** The shard spec `yacd` builds: specFromRequest, whose
 *  bakeScreening runs the pilot when a limit is left to derive. */
ShardCampaignSpec
replaySpec(const Flags &flags, Extras &extras)
{
    const CampaignRequest request = flagsRequest(flags);
    const bool pilot = request.policy.delayLimitPs <= 0.0 ||
                       request.policy.leakageLimitMw <= 0.0;
    ShardCampaignSpec spec;
    ResolvedScreening screening;
    {
        Span span(pilot ? kPilot : kScreen);
        const PhaseProbe before = PhaseProbe::now();
        spec = specFromRequest(request, &screening);
        PhaseProbe::attributeSince(before);
    }
    if (pilot) {
        extras.pilotChips = request.spec.numChips;
        extras.bytesPerChip = storedBytesPerChip(MonteCarlo());
    }
    if (screening.derived)
        std::printf("limits (nominal policy): delay %.17g ps, "
                    "leakage %.17g mW\n",
                    spec.delayLimitPs, spec.leakageLimitMw);
    if (flags.carryCpi != 0) {
        if (flags.opts.engine.cpi != CpiMode::Sim)
            yac_fatal("the replay prices CPI with cpi=sim only");
        spec.carryCpi = true;
        spec.cpiMode = CpiMode::Sim;
        spec.cpiWarmupInsts = flags.cpiWarmupInsts;
        spec.cpiMeasureInsts = flags.cpiMeasureInsts;
        spec.cpiSimSeed = flags.cpiSimSeed;
    }
    return spec;
}

/** `yacd run`: pilot, one worker per shard with periodic checkpoints
 *  (here on pool threads, not processes), then the merge. */
void
replayYacdRun(const Flags &flags, Extras &extras)
{
    const ShardCampaignSpec spec = replaySpec(flags, extras);
    OrchestratorConfig config;
    config.stateDir = flags.stateDir;
    const Orchestrator orchestrator(spec, config);
    const std::vector<ShardPlan> &plan = orchestrator.plan();
    std::filesystem::create_directories(flags.stateDir);
    const ChunkReplay replay(spec);
    const std::uint64_t spec_hash = spec.contentHash();

    std::vector<double> shard_seconds(plan.size(), 0.0);
    {
        Region region;
        parallel::forEach(plan.size(), [&](std::size_t i) {
            const auto start = std::chrono::steady_clock::now();
            const ShardPlan &shard = plan[i];
            ShardCheckpoint state;
            {
                Span span(kCkptRead);
                if (loadCheckpoint(shard.checkpointPath, spec_hash,
                                   &state) != CheckpointStatus::Missing)
                    yac_fatal("stale checkpoint ", shard.checkpointPath);
            }
            state.specHash = spec_hash;
            state.chunkBegin = shard.chunkBegin;
            state.chunkEnd = shard.chunkEnd;
            for (std::size_t c = shard.chunkBegin; c < shard.chunkEnd;) {
                const std::size_t batch_end = std::min(
                    shard.chunkEnd, c + config.checkpointEveryChunks);
                for (; c < batch_end; ++c)
                    state.accums.push_back(replay.evaluate(c));
                Span span(kCkptWrite);
                if (!saveCheckpoint(shard.checkpointPath, state))
                    yac_fatal("cannot write ", shard.checkpointPath);
                span.items(std::filesystem::file_size(
                    shard.checkpointPath));
            }
            shard_seconds[i] = secondsSince(start);
        });
    }
    double slowest = 0.0, sum = 0.0;
    for (double s : shard_seconds) {
        slowest = std::max(slowest, s);
        sum += s;
    }
    extras.shardImbalance =
        sum > 0.0 ? slowest * double(shard_seconds.size()) / sum : 0.0;

    std::vector<ChunkAccum> accums;
    {
        Span span(kCkptRead);
        for (const ShardPlan &shard : plan) {
            ShardCheckpoint ckpt;
            if (loadCheckpoint(shard.checkpointPath, spec_hash, &ckpt) !=
                    CheckpointStatus::Ok ||
                !ckpt.complete())
                yac_fatal("unusable checkpoint ", shard.checkpointPath);
            accums.insert(accums.end(), ckpt.accums.begin(),
                          ckpt.accums.end());
        }
    }
    CampaignSummary summary;
    {
        Span span(kMerge);
        span.items(accums.size());
        summary = summarize(spec, accums);
    }
    printFinal(summary, spec);
}

/** `yacd single`: every chunk on the pool, folded in chunk order. */
void
replayYacdSingle(const Flags &flags, Extras &extras)
{
    const ShardCampaignSpec spec = replaySpec(flags, extras);
    const ChunkReplay replay(spec);
    std::vector<ChunkAccum> accums(spec.numChunks());
    {
        Region region;
        parallel::forEach(accums.size(), [&](std::size_t c) {
            accums[c] = replay.evaluate(c);
        });
    }
    CampaignSummary summary;
    {
        Span span(kMerge);
        span.items(accums.size());
        summary = summarize(spec, accums);
    }
    printFinal(summary, spec);
}

/** `yac_opt` with a probe cache: market pilot, cache load, search,
 *  cache save. */
void
replayOpt(const Flags &flags, Extras &extras)
{
    // The optimizer calls ProbeEvaluator::evaluate itself, so probe
    // times come from the library's own `opt.probe` spans.
    trace::Recorder recorder;
    trace::Recorder *previous = trace::Recorder::exchangeCurrent(&recorder);

    opt::ProbeScenario scenario;
    scenario.chips = flags.opts.chips;
    scenario.seed = flags.opts.seed;
    scenario.engine = flags.opts.engine;
    {
        Span span(kPilot);
        span.items(scenario.chips);
        extras.pilotChips = scenario.chips;
        const PhaseProbe before = PhaseProbe::now();
        scenario.bakeMarket();
        PhaseProbe::attributeSince(before);
    }
    const opt::ProbeEvaluator evaluator(scenario, nullptr);
    opt::ProbeCache cache;
    {
        Span span(kCacheIo);
        const opt::ProbeCache::LoadStatus status =
            cache.load(flags.probeCache);
        if (status != opt::ProbeCache::LoadStatus::MissingFile)
            yac_fatal("the replay starts from a cold probe cache");
    }
    opt::OptimizerConfig config;
    config.seed = flags.optSeed;
    config.budget = flags.budget;
    opt::OptimizerReport report;
    {
        Span span(kSearch);
        const PhaseProbe before = PhaseProbe::now();
        opt::Optimizer optimizer(evaluator, cache, config);
        report = optimizer.run();
        PhaseProbe::attributeSince(before);
    }
    {
        Span span(kCacheIo);
        if (!cache.save(flags.probeCache))
            yac_fatal("cannot write ", flags.probeCache);
    }
    trace::Recorder::exchangeCurrent(previous);
    for (const trace::TraceEvent &e : recorder.events()) {
        if (e.name == "opt.probe")
            extras.probeSeconds += 1e-6 * double(e.durUs);
    }
    extras.campaigns = report.campaignsRun;
    extras.cacheHitRatio =
        report.probesRequested > 0
            ? double(report.cacheHits) / double(report.probesRequested)
            : 0.0;
    // Every probe campaign materializes its population.
    extras.bytesPerChip = storedBytesPerChip(MonteCarlo());

    // tools/yac_opt.cc's FINAL line, field for field.
    std::printf("FINAL probes=%zu campaigns=%llu hits=%llu "
                "best_obj=%.17g best_rev_wafer=%.17g "
                "best_yield=%.17g base_rev_wafer=%.17g "
                "best_point=%llu\n",
                report.probesRequested,
                static_cast<unsigned long long>(report.campaignsRun),
                static_cast<unsigned long long>(report.cacheHits),
                report.bestResult.objective(),
                report.bestResult.revenuePerWafer,
                report.bestResult.sellableYield,
                report.baselineResult.revenuePerWafer,
                static_cast<unsigned long long>(
                    report.best.contentHash()));
}

void
printLayers(const Extras &extras, double replay_seconds)
{
    const Tracer &t = Tracer::instance();
    const trace::MetricsSnapshot snap =
        trace::Metrics::instance().snapshot();
    const auto counter = [&](const char *name) -> double {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0.0 : double(it->second);
    };
    const auto phase = [&](const char *name) -> double {
        const auto it = snap.phaseSeconds.find(name);
        return it == snap.phaseSeconds.end() ? 0.0 : it->second;
    };
    const auto rate = [](double n, double s) {
        return s > 0.0 ? n / s : 0.0;
    };
    const SpanStats &sample = t.stats(kSample);
    const SpanStats &evaluate = t.stats(kEvaluate);
    const SpanStats &write = t.stats(kCkptWrite);
    const double sim_busy = phase("sim");
    const double sim_lookups =
        counter("sim_cache_hits") + counter("sim_cache_misses");
    const double search = t.stats(kSearch).inclusive;

    std::vector<std::pair<std::string, double>> m = {
        {"variation.sample_s", sample.inclusive},
        {"variation.chips_per_s", rate(double(sample.items), sample.busy)},
        {"circuit.evaluate_s", evaluate.inclusive},
        {"circuit.chips_per_s",
         rate(double(evaluate.items), evaluate.busy)},
        {"yield.pilot_s", t.stats(kPilot).inclusive},
        {"yield.pilot_chips", double(extras.pilotChips)},
        {"yield.loss_table_s", t.stats(kLossTable).inclusive},
        {"yield.screen_s", t.stats(kScreen).inclusive},
        {"yield.bytes_per_chip", extras.bytesPerChip},
        {"sim.runs", counter("sim_runs")},
        {"sim.busy_s", sim_busy},
        {"sim.insts_per_s", rate(counter("sim_insts"), sim_busy)},
        {"sim.cache_hit_ratio",
         sim_lookups > 0.0 ? counter("sim_cache_hits") / sim_lookups
                           : 0.0},
        {"service.shard_eval_s", t.stats(kShardEval).inclusive},
        {"service.checkpoint_write_s", write.inclusive},
        {"service.checkpoint_writes", double(write.calls)},
        {"service.checkpoint_bytes", double(write.items)},
        {"service.checkpoint_read_s", t.stats(kCkptRead).inclusive},
        {"service.merge_s", t.stats(kMerge).inclusive},
        {"service.shard_imbalance", extras.shardImbalance},
        {"opt.probe_s", extras.probeSeconds},
        {"opt.campaigns", double(extras.campaigns)},
        {"opt.cache_hit_ratio", extras.cacheHitRatio},
        {"opt.cache_io_s", t.stats(kCacheIo).inclusive},
        {"opt.search_overhead_s",
         search > 0.0 ? search - extras.probeSeconds : 0.0},
        {"trace.replay_s", replay_seconds},
    };
    double layers = 0.0;
    for (int layer = 0; layer < int(Layer::None); ++layer) {
        const double self = t.layerSelf(Layer(layer));
        m.emplace_back(std::string(kLayerNames[layer]) + ".self_s", self);
        layers += self;
    }
    m.emplace_back("unaccounted_s", replay_seconds - layers);

    std::printf("LAYERS {");
    for (std::size_t i = 0; i < m.size(); ++i)
        std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                    m[i].first.c_str(), m[i].second);
    std::printf("}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = std::chrono::steady_clock::now();
    Flags flags;
    OptionParser parser(
        "yac_layer_trace --workload W [campaign flags] -- the traced "
        "replay of one benchmark workload (see perfbench/README.md)");
    addCampaignOptions(parser, flags.opts);
    parser.add("workload",
               "yield_scalar | yacd_tilted_avx2 | opt_search | "
               "cpi_exact, or host to print the host's core count and "
               "AVX2/FMA support",
               &flags.workload);
    parser.add("delay-limit-ps", "explicit delay limit [ps]; 0 derives",
               &flags.delayLimitPs);
    parser.add("leakage-limit-mw",
               "explicit leakage limit [mW]; 0 derives",
               &flags.leakageLimitMw);
    parser.add("carry-cpi", "1 = price shipped chips' CPI (cpi=sim)",
               &flags.carryCpi);
    parser.add("cpi-warmup-insts", "cpi=sim warm-up window",
               &flags.cpiWarmupInsts);
    parser.add("cpi-measure-insts", "cpi=sim measurement window",
               &flags.cpiMeasureInsts, 1);
    parser.add("cpi-sim-seed", "cpi=sim trace seed", &flags.cpiSimSeed);
    parser.add("state-dir", "checkpoint directory of the yacd replay",
               &flags.stateDir);
    parser.add("budget", "optimizer probes", &flags.budget, 1);
    parser.add("opt-seed", "optimizer seed", &flags.optSeed);
    parser.add("probe-cache", "probe cache file of the opt replay",
               &flags.probeCache);
    parser.parse(argc, argv);
    if (flags.opts.threads > 0)
        parallel::setThreads(flags.opts.threads);

    if (flags.workload == "host") {
        // The host facts every benchmark result is recorded with,
        // from the same CPUID check the SIMD dispatch uses.
        std::printf("HOST nproc=%u avx2_fma=%d\n",
                    std::thread::hardware_concurrency(),
                    vecmath::hostHasAvx2Fma() ? 1 : 0);
        return 0;
    }
    Extras extras;
    if (flags.workload == "yield_scalar")
        replayYield(flags, extras);
    else if (flags.workload == "yacd_tilted_avx2")
        replayYacdRun(flags, extras);
    else if (flags.workload == "cpi_exact")
        replayYacdSingle(flags, extras);
    else if (flags.workload == "opt_search")
        replayOpt(flags, extras);
    else
        yac_fatal("unknown workload '", flags.workload, "'");
    printLayers(extras, secondsSince(start));
    return 0;
}
