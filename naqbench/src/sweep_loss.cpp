// sweep-loss: the paper's Sec. VI grid through the standard experiment
// and SweepRunner with 2 workers on a 10x10 device — every loss
// strategy on four benchmarks, two sizes, MID 3 and 4, closed-form and
// simulated timing, 200 shots per point. Full recompiles on
// loss-degraded masks dominate, so the router and mapper run on
// devices with holes; the strategies, the shot engine, the cross-point
// memo and desim are also used.
#include <filesystem>
#include <iostream>
#include <mutex>
#include <thread>

#include "benchmarks/benchmarks.h"
#include "check.h"
#include "common.h"
#include "desim/backend.h"
#include "loss/shot_engine.h"
#include "loss/strategies.h"
#include "loss/timing.h"
#include "obs/metrics.h"
#include "sweep/runner.h"
#include "sweep/standard.h"
#include "trace.h"

namespace nb {

namespace {

namespace bm = naq::benchmarks;
namespace sw = naq::sweep;

constexpr size_t kShots = 200;
constexpr int kSide = 10;
constexpr size_t kWorkers = 2;
constexpr size_t kRoundParts = 4;
/** Set-ups per set-up sample (about 0.4 ms each), and samples. */
constexpr size_t kSetupBurst = 64;
constexpr size_t kSetupSamples = 30;

std::string
grid_text(uint64_t seed, size_t jobs)
{
    return "name = sweep-loss\n"
           "seed = " + std::to_string(seed) + "\n"
           "shots = " + std::to_string(kShots) + "\n"
           "rows = " + std::to_string(kSide) + "\n"
           "cols = " + std::to_string(kSide) + "\n"
           "jobs = " + std::to_string(jobs) + "\n"
           "strategy = reload, recompile, remap, reroute, small, "
           "small+reroute\n"
           "bench = qaoa, cuccaro, qft-adder, bv\n"
           "size = 20, 40\n"
           "mid = 3, 4\n"
           "timing = closed, sim\n";
}

/** Loss-layer tallies of the instrumented evaluator. */
struct LossTally
{
    std::mutex mu;
    double adapts = 0, recompiles = 0, cache_hits = 0, reloads = 0,
           shots = 0, sim_events = 0, checked = 0;
    std::vector<std::string> violations;
};

/**
 * Forwards every call to the library strategy, with a span around
 * prepare and on_loss. With `check` set, each schedule the recompile
 * strategy adopts after a loss is checked against the degraded device.
 */
class Traced : public naq::LossStrategy
{
  public:
    Traced(naq::LossStrategy &inner, const naq::Circuit *reference,
           double mid, LossTally &tally)
        : inner_(inner), reference_(reference), mid_(mid), tally_(tally)
    {
    }

    bool
    prepare(const naq::Circuit &logical, naq::GridTopology &topo) override
    {
        trace::Span s("loss.prepare");
        return inner_.prepare(logical, topo);
    }
    void on_reload(naq::GridTopology &topo) override { inner_.on_reload(topo); }
    naq::AdaptResult
    on_loss(naq::Site site, naq::GridTopology &topo) override
    {
        naq::AdaptResult r;
        {
            trace::Span s("loss.on_loss");
            r = inner_.on_loss(site, topo);
        }
        ++adapts;
        recompiles += r.recompiled;
        from_cache += r.from_cache;
        reloads += r.needs_reload;
        if (reference_ && r.recompiled && !r.needs_reload) {
            const CheckResult chk = check_schedule(
                *reference_, inner_.compiled(), device_of(topo, mid_));
            std::lock_guard<std::mutex> lock(tally_.mu);
            ++tally_.checked;
            if (!chk.ok() && tally_.violations.size() < 5)
                tally_.violations.push_back(chk.summary());
        }
        return r;
    }
    bool site_in_use(naq::Site s) const override { return inner_.site_in_use(s); }
    const naq::CompiledCircuit &compiled() const override
    {
        return inner_.compiled();
    }
    size_t fixup_swaps() const override { return inner_.fixup_swaps(); }
    size_t compile_count() const override { return inner_.compile_count(); }
    size_t cache_hits() const override { return inner_.cache_hits(); }

    double adapts = 0, recompiles = 0, from_cache = 0, reloads = 0;

  private:
    naq::LossStrategy &inner_;
    const naq::Circuit *reference_;
    double mid_;
    LossTally &tally_;
};

/**
 * The standard experiment's strategy path, spelled out over the public
 * loss API so that prepare and on_loss can be wrapped.
 */
sw::SweepRunner::PointFn
instrumented_experiment(const sw::StandardSpec &spec, bool check,
                        LossTally &tally)
{
    auto memo = std::make_shared<naq::CompileMemo>(spec.memo_capacity);
    auto profile = std::make_shared<const naq::desim::BackendProfile>(
        naq::desim::BackendProfile::resolve(spec.backend));
    const uint64_t circuit_seed = spec.sweep.master_seed;
    const int rows = spec.rows, cols = spec.cols;
    const size_t shots = spec.shots;
    return [=, &tally](const sw::SweepPoint &p, sw::PointResult &res) {
        trace::set_op(p.index);
        trace::Span point_span("sweep.point");
        const auto kind = *bm::kind_from_name(p.as_str("bench"));
        const size_t size = size_t(p.as_int("size"));
        const naq::Circuit logical = bm::make(kind, size, circuit_seed);
        const double mid = p.as_num("mid");
        naq::GridTopology topo(rows, cols);
        naq::StrategyOptions sopts;
        sopts.kind = *naq::strategy_from_name(p.as_str("strategy"));
        sopts.device_mid = mid;
        sopts.compile_memo = memo;
        sopts.program_key = "bench:" + p.as_str("bench") + ":" +
                            std::to_string(size) + ":" +
                            std::to_string(circuit_seed);
        const std::unique_ptr<naq::LossStrategy> inner =
            naq::make_strategy(sopts);
        const double compile_mid = naq::strategy_compile_mid(sopts.kind, mid);
        const naq::Circuit reference = routed_reference(logical, compile_mid);
        const bool check_this =
            check && sopts.kind == naq::StrategyKind::FullRecompile;
        Traced strategy(*inner, check_this ? &reference : nullptr,
                        compile_mid, tally);
        if (!strategy.prepare(logical, topo)) {
            res.ok = false;
            res.note = "strategy refused configuration";
            return;
        }
        const naq::CompiledStats stats = inner->current_stats();
        res.metrics.set("gates", double(stats.total()));
        res.metrics.set("depth", double(stats.depth));
        naq::ShotEngineOptions engine;
        engine.max_shots = shots;
        engine.seed = p.seed;
        engine.timing = naq::parse_timing_kind(p.as_str("timing"));
        engine.backend = *profile;
        naq::ShotSummary sum;
        {
            trace::Span s(engine.timing == naq::TimingKind::Sim
                              ? "shot.run_sim"
                              : "shot.run_closed");
            sum = naq::run_shots(strategy, topo, engine);
        }
        res.metrics.set("ok_shots", double(sum.shots_successful));
        res.metrics.set("reloads", double(sum.reloads));
        res.metrics.set("recompiles", double(sum.recompiles));
        res.metrics.set("cache_hits", double(sum.recompile_cache_hits));
        res.metrics.set("losses", double(sum.losses));
        res.metrics.set("overhead_s", sum.overhead_s());
        res.metrics.set("total_s", sum.total_s());
        res.metrics.set("remaps", double(sum.remaps));
        std::lock_guard<std::mutex> lock(tally.mu);
        tally.adapts += strategy.adapts;
        tally.recompiles += strategy.recompiles;
        tally.cache_hits += strategy.from_cache;
        tally.reloads += strategy.reloads;
        tally.shots += double(sum.shots_attempted);
        tally.sim_events += double(sum.sim_events);
    };
}

/** Wrap an evaluator so each point's wall time lands in `ms[index]`. */
sw::SweepRunner::PointFn
timed(const sw::SweepRunner::PointFn &fn, std::vector<double> &ms)
{
    return [&fn, &ms](const sw::SweepPoint &p, sw::PointResult &res) {
        const auto t0 = Clock::now();
        fn(p, res);
        ms[p.index] = ms_since(t0);
    };
}

bool
same_row(const sw::PointResult &a, const sw::PointResult &b)
{
    return a.ok == b.ok && a.status == b.status && a.note == b.note &&
           a.metrics == b.metrics;
}

} // namespace

Report
run_sweep_loss(const RunConfig &cfg)
{
    Report rep;
    const uint64_t master = 20211111ull + cfg.seed;

    // -------------------------------------------------------- set-up
    // Parsing the grid and building the evaluator (the standard
    // experiment resolves the backend and derives its memo flags).
    // One set-up takes about 0.4 ms, too short to time alone on a
    // shared host, so a sample is the mean of kSetupBurst back-to-back
    // set-ups (their teardown excluded), scaled by single-thread host
    // probes on the same thread just before and after it. Set-up runs
    // on this one thread, so bursts and probes are timed on its CPU
    // clock, which stops while the thread is kept off the CPU. The samples
    // are taken before the first round: between rounds the same burst
    // read up to 2x slower, in a way no host probe followed.
    std::vector<double> setup_ms, setup_raw_ms;
    std::vector<sw::StandardSpec> setup_specs;
    std::vector<sw::SweepRunner::PointFn> setup_fns;
    setup_specs.reserve(kSetupBurst);
    setup_fns.reserve(kSetupBurst);
    for (size_t k = 0; k < kSetupSamples; ++k) {
        const double before = host_ref_cpu_ms();
        const double t0 = thread_cpu_ms();
        for (size_t i = 0; i < kSetupBurst; ++i) {
            setup_specs.push_back(
                sw::parse_standard_spec(grid_text(master, kWorkers)));
            setup_fns.push_back(sw::standard_experiment(setup_specs.back()));
        }
        const double ms = (thread_cpu_ms() - t0) / double(kSetupBurst);
        const double scale =
            kNominalSortMs / (0.5 * (before + host_ref_cpu_ms()));
        setup_specs.clear();
        setup_fns.clear();
        setup_raw_ms.push_back(ms);
        setup_ms.push_back(ms * scale);
    }
    const sw::StandardSpec spec =
        sw::parse_standard_spec(grid_text(master, kWorkers));
    const size_t n_points = spec.sweep.num_points();

    // --------------------------------------------------- timed window
    // Per-round statistics scaled to the reference host; the reported
    // figures are medians over rounds. A round has 192 points, so its
    // p90 has 19 beyond. A round runs the grid as kRoundParts shards in
    // turn, sharing one evaluator (and so one cross-point memo), with a
    // host probe after each part: a 4-5 s round is too long for two
    // probes to follow the host.
    HostScale host([] { return host_ref_ms(int(kWorkers)); }, kNominalSortMs);
    const std::vector<sw::SweepPoint> points = spec.sweep.expand();
    std::vector<double> point_ms(n_points), round_median, round_tail,
        round_tput, plain_round_ms, traced_round_ms;
    std::vector<sw::PointResult> first;
    size_t rounds = 0, traced_rounds = 0;
    LossTally tally;
    double timesteps = 0, gates_executed = 0;
    auto &obs = naq::obs::MetricsRegistry::global();
    const auto window = Clock::now();
    // A traced run needs one plain and one traced round at least.
    const size_t min_rounds = cfg.trace ? 2 : 1;
    while (ms_since(window) < cfg.seconds * 1000.0 || rounds < min_rounds) {
        const bool traced = cfg.trace && rounds % 2 == 1;
        // A fresh evaluator per round: each round starts with an empty
        // memo, as a fresh sweep does.
        if (traced) {
            obs.enable();
            trace::arm(true);
        }
        const sw::SweepRunner::PointFn eval =
            traced ? instrumented_experiment(spec, false, tally)
                   : sw::standard_experiment(spec);
        std::vector<sw::PointResult> results(n_points);
        double round_ms = 0;
        for (size_t part = 1; part <= kRoundParts; ++part) {
            const auto t0 = Clock::now();
            const sw::SweepRun run = sw::SweepRunner(spec.sweep)
                                         .shard(part, kRoundParts)
                                         .run(timed(eval, point_ms));
            const double part_ms = ms_since(t0);
            if (traced)
                trace::arm(false);
            const double scale = host.after_round();
            if (traced)
                trace::arm(true);
            round_ms += part_ms * scale;
            for (size_t i = 0; i < n_points; ++i) {
                if (run.results[i].skipped)
                    continue;
                results[i] = run.results[i];
                point_ms[i] *= scale;
            }
        }
        if (traced) {
            trace::arm(false);
            const naq::obs::MetricsSnapshot snap = obs.snapshot();
            timesteps += double(snap.counter("route.timesteps"));
            gates_executed += double(snap.counter("route.gates_executed"));
            obs.disable_and_reset();
            ++traced_rounds;
        }
        (traced ? traced_round_ms : plain_round_ms).push_back(round_ms);
        round_tput.push_back(double(n_points) / (round_ms / 1000.0));
        round_median.push_back(median(point_ms));
        round_tail.push_back(tail(point_ms));
        rep.attempted += n_points;
        for (const sw::PointResult &r : results)
            rep.failed += r.ok ? 0 : 1;
        if (!traced) {
            if (first.empty()) {
                first = std::move(results);
            } else {
                for (size_t i = 0; i < n_points; ++i)
                    if (!same_row(first[i], results[i]))
                        rep.fail_check("sweep: row " + std::to_string(i) +
                                       " differs between rounds");
            }
        }
        ++rounds;
    }
    // The workload's peak; the verification below runs three workers.
    const double window_peak_rss_mb = peak_rss_mb();
    std::cerr << "sweep-loss: " << rounds << " rounds of " << n_points
              << " points; raw set-up " << median(setup_raw_ms)
              << " ms over " << setup_raw_ms.size() << " samples\n";

    // ------------------------------------------------ output checks
    // Row invariants over the whole grid.
    double device_time = 0, compiled_cx = 0, source_cx = 0,
           compiled_depth = 0, source_depth = 0;
    for (size_t i = 0; i < n_points; ++i) {
        const sw::SweepPoint &p = points[i];
        const sw::PointResult &r = first[i];
        if (!r.ok)
            continue;
        if (r.metrics.get("ok_shots") > double(kShots))
            rep.fail_check("sweep: ok_shots above shots at point " +
                           std::to_string(i));
        if (p.as_str("strategy") ==
                naq::strategy_name(naq::StrategyKind::AlwaysReload) &&
            r.metrics.get("recompiles") != 0)
            rep.fail_check("sweep: always-reload recompiled at point " +
                           std::to_string(i));
        device_time += r.metrics.get("total_s");
        // Schedule quality once per (strategy, program, MID): the
        // timing axis repeats the same compile.
        if (p.as_str("timing") != "closed")
            continue;
        const auto kind = *bm::kind_from_name(p.as_str("bench"));
        const naq::Circuit logical =
            bm::make(kind, size_t(p.as_int("size")), master);
        compiled_cx += r.metrics.get("gates");
        compiled_depth += r.metrics.get("depth");
        source_cx += cx_equivalent(logical.gates());
        source_depth += double(asap_depth(logical));
    }

    // The whole grid again, at 1 worker through the library and, at
    // the same time on 2 more workers, through the instrumented
    // evaluator with the schedule checker and the always-reload
    // invariants armed; both must reproduce the timed rows.
    {
        const sw::StandardSpec one =
            sw::parse_standard_spec(grid_text(master, 1));
        sw::SweepRun seq;
        std::thread seq_thread([&] {
            seq = sw::SweepRunner(one.sweep).run(sw::standard_experiment(one));
        });
        LossTally vt;
        const sw::SweepRun inst = sw::SweepRunner(spec.sweep).run(
            instrumented_experiment(spec, true, vt));
        seq_thread.join();
        for (size_t i = 0; i < n_points; ++i) {
            const sw::PointResult &want = first[i];
            if (!same_row(want, seq.results[i]))
                rep.fail_check("sweep: row " + std::to_string(i) +
                               " differs between 1 and 2 workers");
            const sw::PointResult &got = inst.results[i];
            for (const char *m : {"gates", "depth", "ok_shots", "reloads",
                                  "recompiles", "cache_hits", "losses",
                                  "overhead_s", "total_s"}) {
                if (!want.ok || !got.ok || want.metrics.get(m) != got.metrics.get(m))
                    rep.fail_check(std::string("sweep: instrumented ") + m +
                                   " differs at point " + std::to_string(i));
            }
            if (points[i].as_str("strategy") ==
                    naq::strategy_name(naq::StrategyKind::AlwaysReload) &&
                (got.metrics.get("remaps") != 0 ||
                 got.metrics.get("recompiles") != 0))
                rep.fail_check("sweep: always-reload adapted at point " +
                               std::to_string(i));
        }
        for (const std::string &v : vt.violations)
            rep.fail_check("sweep: adapted recompile schedule: " + v);
        if (vt.checked == 0)
            rep.fail_check("sweep: no adapted recompile schedule checked");
        std::cerr << "sweep-loss: verified " << n_points
                  << " points at 1 worker, " << vt.checked
                  << " adapted schedules\n";
    }

    // The host probe goes to stderr on every run, to the JSON when traced.
    rep.set("host.ref_ms", host.median_ref_ms());
    if (!cfg.trace) {
        rep.set("setup_s", median(setup_ms) / 1000.0);
        rep.set("throughput_per_s", median(round_tput));
        rep.set("latency_ms", median(round_median));
        rep.set("tail_latency_ms", median(round_tail));
        rep.set("peak_rss_mb", window_peak_rss_mb);
        rep.set("gate_overhead", compiled_cx / source_cx);
        rep.set("depth_overhead", compiled_depth / source_depth);
        rep.set("device_time_s", device_time);
        return rep;
    }

    const auto layers = trace::summarize();
    auto stat = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? trace::LayerStat{} : it->second;
    };
    auto mean_ms = [&](const char *name) {
        const trace::LayerStat s = stat(name);
        return s.count ? s.self_ms / double(s.count) : 0.0;
    };
    const double tr = double(traced_rounds);
    const trace::LayerStat sim = stat("shot.run_sim"),
                           closed = stat("shot.run_closed");
    rep.set("sweep.point_ms", stat("sweep.point").count
                                  ? stat("sweep.point").total_ms /
                                        double(stat("sweep.point").count)
                                  : 0.0);
    rep.set("sweep.points", double(n_points));
    rep.set("loss.prepare_ms", mean_ms("loss.prepare"));
    rep.set("loss.adapt_us", mean_ms("loss.on_loss") * 1000);
    rep.set("loss.adapts", tally.adapts / tr);
    rep.set("loss.recompiles", tally.recompiles / tr);
    rep.set("loss.cache_hits", tally.cache_hits / tr);
    rep.set("loss.cache_hit_ratio",
            tally.recompiles > 0 ? tally.cache_hits / tally.recompiles : 0);
    rep.set("loss.reloads", tally.reloads / tr);
    rep.set("loss.shots", tally.shots / tr);
    rep.set("shot.self_ms", (sim.self_ms + closed.self_ms) /
                                double(sim.count + closed.count));
    rep.set("sim.events", tally.sim_events / tr);
    rep.set("sim.events_per_s", tally.sim_events / (sim.self_ms / 1000));
    rep.set("route.timesteps", timesteps / tr);
    rep.set("route.gates_executed", gates_executed / tr);
    rep.set("trace.overhead_pct",
            (median(traced_round_ms) / median(plain_round_ms) - 1) * 100);
    trace::write_jsonl(
        (std::filesystem::path(cfg.work_dir) / "sweep-loss-trace.jsonl")
            .string());
    trace::clear();
    return rep;
}

} // namespace nb
