// compile-large: file-to-file compiles of large programs, one at a
// time (jobs = 1, no memo) on a 25x25 device at MID 3. Routing is
// nearly all of the time here; the memo, serve and loss layers are
// not used.
#include <filesystem>
#include <iostream>
#include <map>

#include "benchmarks/benchmarks.h"
#include "check.h"
#include "common.h"
#include "core/pipeline.h"
#include "loss/time_model.h"
#include "obs/metrics.h"
#include "qasm/qasm.h"
#include "trace.h"
#include "util/io.h"

namespace nb {

namespace {

namespace bm = naq::benchmarks;

constexpr int kRows = 25;
constexpr int kCols = 25;
constexpr double kMid = 3.0;
/** Enough rounds that p90 of the per-compile times has ten samples
 * beyond it (11 programs x 10 rounds = 110 samples). */
constexpr size_t kMinRounds = 10;
constexpr size_t kSetupRepeats = 51;
/** Sort runs per host probe; one probe follows every compile. */
constexpr int kProbeRepeats = 3;

struct Program
{
    std::string name;
    size_t size = 0;
    std::string in_path;
    std::string out_path;
    naq::Circuit source; ///< Parsed back from the input file.
    /** Output hash of the first round; later rounds must match it. */
    uint64_t out_hash = 0;
    bool have_hash = false;
    naq::CompiledCircuit last; ///< Schedule of the latest round.
    std::vector<double> op_ms;
};

struct RoundStats
{
    double route_ms = 0, decompose_ms = 0, map_ms = 0, compile_ms = 0;
    double swaps = 0;
    std::map<size_t, std::pair<double, double>> route_by_size; // ms, gates
};

} // namespace

Report
run_compile_large(const RunConfig &cfg)
{
    Report rep;
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(cfg.work_dir) / "compile-large";
    fs::create_directories(dir);

    // ------------------------------------------------------- inputs
    // QFT-Adder and QAOA size series plus three wide programs; only
    // the QAOA graphs depend on the seed.
    const uint64_t graph_seed = cfg.seed * 1000003ull + 17;
    std::vector<std::pair<bm::Kind, size_t>> specs = {
        {bm::Kind::QFTAdder, 100}, {bm::Kind::QFTAdder, 150},
        {bm::Kind::QFTAdder, 200}, {bm::Kind::QAOA, 100},
        {bm::Kind::QAOA, 150},     {bm::Kind::QAOA, 200},
        {bm::Kind::QAOA, 300},     {bm::Kind::QAOA, 400},
        {bm::Kind::BV, 400},       {bm::Kind::Cuccaro, 400},
        {bm::Kind::CNU, 400},
    };
    std::vector<Program> progs;
    for (const auto &[kind, size] : specs) {
        Program p;
        p.name = std::string(bm::kind_name(kind)) + "-" +
                 std::to_string(size);
        p.size = size;
        p.in_path = (dir / (p.name + ".qasm")).string();
        p.out_path = (dir / (p.name + ".out.qasm")).string();
        naq::write_text_file_atomic(
            p.in_path,
            naq::write_qasm(bm::make(kind, size, graph_seed + size)));
        p.source = naq::read_qasm(naq::read_text_file(p.in_path));
        progs.push_back(std::move(p));
    }

    // -------------------------------------------------------- set-up
    // What a file-to-file compile pays before its first program: the
    // device, the compiler and its device analysis.
    //
    // Everything here runs on this one thread, so set-up, compiles and
    // the sort probe are all timed on its CPU clock: time the host kept
    // the thread off the CPU is no cost of the program. The host's
    // speed swings within a second or two, shorter than a round, so a
    // probe follows every compile and each compile is scaled by the
    // probes on both sides of it.
    naq::CompilerOptions opts = naq::CompilerOptions::neutral_atom(kMid);
    opts.jobs = 1;
    HostScale host(host_ref_cpu_ms, kNominalSortMs, kProbeRepeats);
    std::vector<double> setup_ms;
    std::unique_ptr<naq::GridTopology> topo;
    std::unique_ptr<naq::Compiler> compiler;
    for (size_t i = 0; i < kSetupRepeats; ++i) {
        compiler.reset();
        topo.reset();
        const double t0 = thread_cpu_ms();
        topo = std::make_unique<naq::GridTopology>(kRows, kCols);
        compiler = std::make_unique<naq::Compiler>(
            naq::Compiler::for_device(*topo).with(opts));
        compiler->prepare();
        setup_ms.push_back(thread_cpu_ms() - t0);
    }
    const double setup_scale = host.after_round();
    for (double &ms : setup_ms)
        ms *= setup_scale;

    // --------------------------------------------------- timed window
    std::vector<double> untraced_round_ms, traced_round_ms;
    size_t compiles = 0;
    RoundStats totals;
    double read_bytes = 0, write_bytes = 0;
    size_t rounds = 0, traced_rounds = 0;
    double timesteps = 0, gates_executed = 0; // obs counters, traced rounds
    auto &obs = naq::obs::MetricsRegistry::global();
    const auto window = Clock::now();
    while (ms_since(window) < cfg.seconds * 1000.0 ||
           rounds < kMinRounds) {
        // Traced runs alternate untraced and traced rounds so the
        // tracing overhead is measured under the same host state.
        const bool traced = cfg.trace && rounds % 2 == 1;
        trace::arm(traced);
        if (traced)
            obs.enable();
        std::vector<double> round_ops(progs.size(), -1.0);
        for (size_t i = 0; i < progs.size(); ++i) {
            Program &p = progs[i];
            trace::set_op(rounds * progs.size() + i);
            ++rep.attempted;
            const double t0 = thread_cpu_ms();
            const std::string text = naq::read_text_file(p.in_path);
            naq::Circuit circuit;
            {
                trace::Span s("qasm.read");
                circuit = naq::read_qasm(text);
            }
            naq::CompileResult res;
            {
                trace::Span s("compile");
                res = compiler->compile(circuit);
            }
            if (!res.success) {
                ++rep.failed;
                host.after_round();
                continue;
            }
            std::string out;
            {
                trace::Span s("qasm.write");
                out = naq::write_qasm(res.compiled.to_circuit());
            }
            naq::write_text_file_atomic(p.out_path, out);
            const double op_ms = thread_cpu_ms() - t0;
            round_ops[i] = op_ms * host.after_round();

            const uint64_t h = fnv1a(out);
            if (!p.have_hash) {
                p.out_hash = h;
                p.have_hash = true;
            } else if (h != p.out_hash) {
                rep.fail_check(p.name + ": output differs between rounds");
            }
            read_bytes += double(text.size());
            write_bytes += double(out.size());
            for (const naq::PassReport &pr : res.report.passes) {
                if (pr.pass == "route") {
                    totals.route_ms += pr.wall_ms;
                    auto &bucket = totals.route_by_size[p.size];
                    bucket.first += pr.wall_ms;
                    bucket.second += double(pr.gates_after);
                } else if (pr.pass == "decompose") {
                    totals.decompose_ms += pr.wall_ms;
                } else if (pr.pass == "map") {
                    totals.map_ms += pr.wall_ms;
                }
            }
            totals.compile_ms += res.report.total_ms;
            totals.swaps += double(res.compiled.counts().routing_swaps);
            p.last = std::move(res.compiled);
        }
        double round_ms = 0.0;
        for (size_t i = 0; i < progs.size(); ++i) {
            if (round_ops[i] < 0)
                continue; // Failed compile.
            progs[i].op_ms.push_back(round_ops[i]);
            round_ms += round_ops[i];
            ++compiles;
        }
        (traced ? traced_round_ms : untraced_round_ms).push_back(round_ms);
        if (traced) {
            const naq::obs::MetricsSnapshot snap = obs.snapshot();
            timesteps += double(snap.counter("route.timesteps"));
            gates_executed += double(snap.counter("route.gates_executed"));
            obs.disable_and_reset();
            ++traced_rounds;
        }
        ++rounds;
    }
    trace::arm(false);
    std::cerr << "compile-large: " << rounds << " rounds of "
              << progs.size() << " programs\n";

    // ------------------------------------------------ output checks
    double compiled_cx = 0, source_cx = 0, compiled_depth = 0,
           source_depth = 0;
    for (const Program &p : progs) {
        if (!p.have_hash)
            continue;
        const naq::Circuit ref = routed_reference(p.source, kMid);
        const CheckResult chk =
            check_schedule(ref, p.last, device_of(*topo, kMid));
        if (!chk.ok())
            rep.fail_check(p.name + ": " + chk.summary());
        const naq::Circuit back =
            naq::read_qasm(naq::read_text_file(p.out_path));
        if (back.num_qubits() != size_t(kRows * kCols))
            rep.fail_check(p.name + ": output has the wrong width");
        std::vector<naq::Gate> compiled_gates;
        for (const naq::ScheduledGate &sg : p.last.schedule)
            compiled_gates.push_back(sg.gate);
        compiled_cx += cx_equivalent(compiled_gates);
        source_cx += cx_equivalent(p.source.gates());
        compiled_depth += double(p.last.num_timesteps);
        source_depth += double(asap_depth(p.source));
    }

    // ------------------------------------------------------ metrics
    // The host probe goes to stderr on every run, to the JSON when traced.
    rep.set("host.ref_ms", host.median_ref_ms());
    if (!cfg.trace) {
        // The programs' compile times differ by 100x, so pooled they
        // are no distribution of one operation: their median would be
        // the middle program and their p90 the line between the two
        // largest. Latency is the mean of the per-program medians. No
        // tail exists: each program has 10-20 samples, too few for a
        // p90 with ten beyond, and the spread of a compile around its
        // program's median measured only how busy the host was (its
        // p90 read 1.06x on a quiet host and 1.2-1.35x on a busy one).
        // So the tail repeats the latency.
        double sum_median_ms = 0.0;
        size_t timed = 0;
        for (const Program &p : progs) {
            if (p.op_ms.empty())
                continue; // Never compiled; counted as failed.
            sum_median_ms += median(p.op_ms);
            ++timed;
        }
        const double mean_ms = sum_median_ms / double(timed ? timed : 1);
        rep.set("setup_s", median(setup_ms) / 1000.0);
        rep.set("throughput_per_s", 1000.0 / mean_ms);
        rep.set("latency_ms", mean_ms);
        rep.set("tail_latency_ms", mean_ms);
        rep.set("peak_rss_mb", peak_rss_mb());
        rep.set("gate_overhead", compiled_cx / source_cx);
        rep.set("depth_overhead", compiled_depth / source_depth);
        rep.set("device_time_s",
                compiled_depth * naq::TimeModel{}.gate_time_s);
        return rep;
    }

    const auto layers = trace::summarize();
    auto stat = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? trace::LayerStat{} : it->second;
    };
    const trace::LayerStat rd = stat("qasm.read"), wr = stat("qasm.write");
    const double n_ops = double(compiles);
    const double traced_fraction =
        double(traced_rounds) / double(rounds ? rounds : 1);
    rep.set("qasm.read_ms", rd.count ? rd.self_ms / double(rd.count) : 0);
    rep.set("qasm.read_mb_per_s",
            rd.self_ms > 0
                ? read_bytes * traced_fraction / 1e6 / (rd.self_ms / 1000)
                : 0);
    rep.set("qasm.write_ms", wr.count ? wr.self_ms / double(wr.count) : 0);
    rep.set("qasm.write_mb_per_s",
            wr.self_ms > 0
                ? write_bytes * traced_fraction / 1e6 / (wr.self_ms / 1000)
                : 0);
    rep.set("compile.ms", totals.compile_ms / n_ops);
    rep.set("decompose.ms", totals.decompose_ms / n_ops);
    rep.set("map.ms", totals.map_ms / n_ops);
    rep.set("route.ms", totals.route_ms / n_ops);
    rep.set("route.share", totals.route_ms / totals.compile_ms);
    for (const size_t q : {100, 200, 400}) {
        const auto it = totals.route_by_size.find(q);
        if (it != totals.route_by_size.end() && it->second.second > 0)
            rep.set("route.ns_per_gate.q" + std::to_string(q),
                    it->second.first * 1e6 / it->second.second);
    }
    rep.set("route.swaps", totals.swaps / double(rounds));
    rep.set("route.timesteps", timesteps / double(traced_rounds));
    rep.set("route.gates_executed", gates_executed / double(traced_rounds));
    rep.set("trace.overhead_pct",
            (median(traced_round_ms) / median(untraced_round_ms) - 1) * 100);
    trace::write_jsonl((dir / "trace.jsonl").string());
    trace::clear();
    return rep;
}

} // namespace nb
