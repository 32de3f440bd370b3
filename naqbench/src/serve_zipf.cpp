// serve-zipf: an in-process serve::Server over pipes, driven in a
// closed loop by one client that keeps 4 requests outstanding. The
// stream is a seeded Zipf(1.1) draw over about 1000 distinct small
// programs, so most requests hit the memo while misses, inserts and
// evictions run beside them. Every round restarts the server warm from
// the memo store it wrote during set-up, as a restart under --persist
// would, and replays the same stream.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <set>
#include <stdexcept>
#include <thread>

#include "benchmarks/benchmarks.h"
#include "check.h"
#include "common.h"
#include "core/compile_memo.h"
#include "core/pipeline.h"
#include "loss/time_model.h"
#include "obs/metrics.h"
#include "qasm/qasm.h"
#include "serve/memo_store.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trace.h"
#include "util/io.h"

namespace nb {

namespace {

namespace bm = naq::benchmarks;
namespace fs = std::filesystem;

constexpr size_t kRows = 16;
constexpr size_t kCols = 16;
constexpr double kMid = 3.0;
constexpr size_t kWorkers = 2;
constexpr size_t kOutstanding = 4;
constexpr size_t kMemoCapacity = 256;
constexpr size_t kDistinct = 1000;
constexpr double kZipfS = 1.1;
/**
 * Requests per round. Short rounds put a host probe every ~0.2 s and
 * make each round's tail its p90 (80 beyond): a round's p99 is set by
 * a handful of scheduler stalls on a shared host and swung by 30%
 * between runs.
 */
constexpr size_t kStreamLength = 800;
constexpr size_t kWarmupLength = 2000; ///< Requests that fill the store.
constexpr size_t kStatevectorQubits = 16;

uint64_t
splitmix(uint64_t &x)
{
    uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
unit(uint64_t &x)
{
    return double(splitmix(x) >> 11) / double(1ull << 53);
}

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + s.size() / 8);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** The distinct programs, in Zipf rank order (rank 0 most popular). */
std::vector<std::string>
make_programs(const RunConfig &cfg)
{
    std::vector<std::string> texts;
    std::set<std::string> seen;
    auto add = [&](std::string text) {
        if (texts.size() < kDistinct && seen.insert(text).second)
            texts.push_back(std::move(text));
    };
    // The good files of the QASM corpus, as listed by its manifest.
    const fs::path corpus = fs::path(cfg.root) / "tests/qasm/corpus";
    const std::string manifest =
        naq::read_text_file((corpus / "manifest.txt").string());
    size_t start = 0;
    while (start < manifest.size()) {
        size_t nl = manifest.find('\n', start);
        if (nl == std::string::npos)
            nl = manifest.size();
        const std::string line = manifest.substr(start, nl - start);
        start = nl + 1;
        if (line.empty() || line[0] == '#')
            continue;
        const size_t sp = line.find(' ');
        const std::string file = line.substr(0, sp);
        const std::string status =
            sp == std::string::npos ? "ok" : line.substr(sp + 1);
        if (status == "ok")
            add(naq::read_text_file((corpus / file).string()));
    }
    // The generators at 8..40 qubits.
    for (size_t size = 8; size <= 40; ++size)
        for (bm::Kind k : {bm::Kind::BV, bm::Kind::CNU, bm::Kind::Cuccaro,
                           bm::Kind::QFTAdder})
            add(naq::write_qasm(bm::make(k, size)));
    // QAOA graphs fill the rest: sizes cycle through 8..40, the graphs
    // come from the seed.
    uint64_t x = cfg.seed ^ 0x5eedf00dull;
    for (size_t k = 0; texts.size() < kDistinct; ++k)
        add(naq::write_qasm(bm::qaoa_maxcut(8 + k % 33, splitmix(x))));
    // Popularity order is one fixed permutation, so every seed puts
    // programs of the same kind and size at each rank.
    uint64_t perm = 0x0123456789abcdefull;
    for (size_t i = texts.size(); i > 1; --i)
        std::swap(texts[i - 1], texts[size_t(splitmix(perm) % i)]);
    return texts;
}

/** `n` draws of Zipf(s) ranks over `m` items. */
std::vector<uint32_t>
zipf_stream(size_t m, size_t n, uint64_t seed)
{
    std::vector<double> cdf(m);
    double acc = 0.0;
    for (size_t i = 0; i < m; ++i)
        cdf[i] = acc += std::pow(double(i + 1), -kZipfS);
    for (double &c : cdf)
        c /= acc;
    std::vector<uint32_t> out(n);
    uint64_t x = seed;
    for (uint32_t &r : out) {
        const double u = unit(x);
        r = uint32_t(std::min<size_t>(
            size_t(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()),
            m - 1));
    }
    return out;
}

/** Buffered line reader over a pipe. */
struct LineReader
{
    explicit LineReader(int f) : fd(f) {}

    int fd;
    std::string buf;
    size_t pos = 0;

    bool
    next(std::string &line)
    {
        while (true) {
            const size_t nl = buf.find('\n', pos);
            if (nl != std::string::npos) {
                line.assign(buf, pos, nl - pos);
                pos = nl + 1;
                if (pos > (1 << 20)) {
                    buf.erase(0, pos);
                    pos = 0;
                }
                return true;
            }
            char chunk[65536];
            const ssize_t n = ::read(fd, chunk, sizeof chunk);
            if (n > 0) {
                buf.append(chunk, size_t(n));
            } else if (n == 0 || errno != EINTR) {
                return false;
            }
        }
    }
};

void
write_all(int fd, const std::string &s)
{
    size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error("request pipe write failed");
        }
        off += size_t(n);
    }
}

struct Answer
{
    bool ok = false;
    uint64_t qasm_hash = 0;
};

/** One request's client-side view. */
struct Sample
{
    double client_ms = 0;
    double server_ms = 0;
    double queue_depth = 0;
};

struct RoundResult
{
    double setup_ms = 0;
    double window_ms = 0;
    size_t failed = 0;
    std::vector<Sample> samples;
};

naq::serve::ServerOptions
server_options(const std::string &store)
{
    naq::serve::ServerOptions o;
    o.rows = kRows;
    o.cols = kCols;
    o.mid = kMid;
    o.jobs = kWorkers;
    o.memo_capacity = kMemoCapacity;
    o.memo_store_path = store;
    return o;
}

/**
 * Start a server on fresh pipes, wait for its ready line, run the
 * stream in a closed loop, then close the request pipe and wait for
 * the drain. With `expected` set, every answer is compared with it.
 */
RoundResult
serve_round(const std::string &store, const std::vector<std::string> &lines,
            const std::vector<uint32_t> &stream,
            const std::vector<Answer> *expected, Report &rep)
{
    int req[2], resp[2], log[2];
    if (pipe(req) || pipe(resp) || pipe(log))
        throw std::runtime_error("pipe() failed");
    RoundResult rr;
    const auto t0 = Clock::now();
    std::FILE *out = fdopen(resp[1], "w");
    std::FILE *logf = fdopen(log[1], "w");
    naq::serve::Server server(server_options(store), req[0], out, logf);
    int exit_code = -1;
    std::thread th([&] {
        exit_code = server.run();
        std::fclose(out);
        std::fclose(logf);
    });

    LineReader log_reader{log[0]};
    LineReader resp_reader{resp[0]};
    std::string line;
    bool ready = false;
    while (!ready && log_reader.next(line))
        ready = line.find(" ready ") != std::string::npos;
    rr.setup_ms = ms_since(t0);

    std::vector<Clock::time_point> sent(stream.size());
    size_t next = 0, done = 0;
    const auto w0 = Clock::now();
    auto send = [&] {
        sent[next] = Clock::now();
        write_all(req[1], "{\"id\":\"" + std::to_string(next) + "\"," +
                              lines[stream[next]]);
        ++next;
    };
    while (ready && next < stream.size() && next < kOutstanding)
        send();
    std::vector<std::pair<std::string, naq::serve::JsonValue>> fields;
    std::string err;
    while (ready && done < stream.size() && resp_reader.next(line)) {
        const auto now = Clock::now();
        ++done;
        fields.clear();
        Sample s;
        size_t id = SIZE_MAX;
        bool ok = false;
        uint64_t h = 0;
        if (naq::serve::parse_flat_json(line, fields, err)) {
            for (const auto &[k, v] : fields) {
                if (k == "id")
                    id = size_t(std::strtoull(v.str.c_str(), nullptr, 10));
                else if (k == "ok")
                    ok = v.boolean;
                else if (k == "latency_ms")
                    s.server_ms = v.num;
                else if (k == "queue_depth")
                    s.queue_depth = v.num;
                else if (k == "qasm")
                    h = fnv1a(v.str);
            }
        }
        if (id >= next) {
            rep.fail_check("serve: unmatched response: " + line.substr(0, 80));
            ++rr.failed;
        } else {
            s.client_ms = ms_between(sent[id], now);
            rr.samples.push_back(s);
            if (!ok) {
                ++rr.failed;
            } else if (expected) {
                const Answer &want = (*expected)[stream[id]];
                if (!want.ok || want.qasm_hash != h)
                    rep.fail_check("serve: answer for program " +
                                   std::to_string(stream[id]) +
                                   " differs from the library compile");
            }
        }
        if (next < stream.size())
            send();
    }
    rr.window_ms = ms_since(w0);
    if (!ready || done < stream.size()) {
        rep.fail_check("serve: server stopped early");
        rr.failed += stream.size() - done;
    }
    close(req[1]);
    while (resp_reader.next(line)) {
    }
    while (log_reader.next(line)) {
    }
    th.join();
    close(req[0]);
    close(resp[0]);
    close(log[0]);
    if (exit_code != 0)
        rep.fail_check("serve: exit code " + std::to_string(exit_code));
    return rr;
}

} // namespace

Report
run_serve_zipf(const RunConfig &cfg)
{
    Report rep;
    const fs::path dir = fs::path(cfg.work_dir) / "serve-zipf";
    fs::create_directories(dir);
    const std::string pristine = (dir / "memo.store").string();
    const std::string live = (dir / "memo.live").string();
    fs::remove(pristine);

    // ------------------------------------------------------- inputs
    const std::vector<std::string> programs = make_programs(cfg);
    std::vector<std::string> lines; // Request tail after the id.
    for (const std::string &p : programs)
        lines.push_back("\"qasm\":\"" + json_escape(p) + "\"}\n");
    const std::vector<uint32_t> stream =
        zipf_stream(programs.size(), kStreamLength, cfg.seed * 2 + 1);
    const std::vector<uint32_t> warmup =
        zipf_stream(programs.size(), kWarmupLength, cfg.seed * 2 + 2);

    // Expected answers: the library's own compile of every program,
    // checked independently; the quality metrics sum over all of them.
    naq::GridTopology topo{int(kRows), int(kCols)};
    naq::Compiler compiler = naq::Compiler::for_device(topo).with(
        naq::CompilerOptions::neutral_atom(kMid));
    compiler.prepare();
    const Device dev = device_of(topo, kMid);
    std::vector<Answer> expected(programs.size());
    std::vector<uint8_t> in_stream(programs.size(), 0);
    for (uint32_t r : stream)
        in_stream[r] = 1;
    double compiled_cx = 0, source_cx = 0, compiled_depth = 0,
           source_depth = 0;
    size_t distinct = 0, sv_checked = 0;
    for (size_t i = 0; i < programs.size(); ++i) {
        distinct += in_stream[i];
        const naq::Circuit source = naq::read_qasm(programs[i]);
        const naq::CompileResult res = compiler.compile(source);
        if (!res.success) {
            rep.fail_check("serve: library compile failed for program " +
                           std::to_string(i) + ": " + res.failure_reason);
            continue;
        }
        expected[i] = {true,
                       fnv1a(naq::write_qasm(res.compiled.to_circuit()))};
        const naq::Circuit ref = routed_reference(source, kMid);
        const CheckResult chk = check_schedule(ref, res.compiled, dev);
        if (!chk.ok())
            rep.fail_check("serve: program " + std::to_string(i) + ": " +
                           chk.summary());
        if (in_stream[i] && source.num_qubits() <= kStatevectorQubits &&
            chk.ok()) {
            std::string why;
            if (!statevector_equal(source, chk.logical_order, cfg.seed + i,
                                   why))
                rep.fail_check("serve: program " + std::to_string(i) +
                               " statevector: " + why);
            ++sv_checked;
        }
        std::vector<naq::Gate> gates;
        for (const naq::ScheduledGate &sg : res.compiled.schedule)
            gates.push_back(sg.gate);
        compiled_cx += cx_equivalent(gates);
        source_cx += cx_equivalent(source.gates());
        compiled_depth += double(res.compiled.num_timesteps);
        source_depth += double(asap_depth(source));
    }
    std::cerr << "serve-zipf: " << programs.size() << " programs, "
              << distinct << " in the stream, " << sv_checked
              << " statevector-checked\n";

    // The store a previous instance would have left: one server run
    // over a warm-up stream, drained, which persists the memo.
    {
        Report scratch;
        serve_round(pristine, lines, warmup, nullptr, scratch);
        if (!scratch.errors.empty() || !fs::exists(pristine))
            rep.fail_check("serve: warm-up run did not write a store");
    }

    // --------------------------------------------------- timed window
    // Per-round statistics, each scaled to the reference host by the
    // probes around its round; the reported figures are medians over
    // rounds.
    std::vector<double> setup_ms, round_tput, round_median, round_tail,
        server_ms, outside_ms, depth;
    HostScale host(pipe_ref_ms, kNominalPipeMs);
    size_t rounds = 0;
    auto run_server_round = [&] {
        fs::copy_file(pristine, live, fs::copy_options::overwrite_existing);
        const RoundResult rr = serve_round(live, lines, stream, &expected, rep);
        const double scale = host.after_round();
        rep.attempted += stream.size();
        rep.failed += rr.failed;
        setup_ms.push_back(rr.setup_ms * scale);
        round_tput.push_back(double(rr.samples.size()) /
                             (rr.window_ms * scale / 1000.0));
        std::vector<double> client, server, outside, qd;
        for (const Sample &s : rr.samples) {
            client.push_back(s.client_ms * scale);
            server.push_back(s.server_ms * scale);
            outside.push_back((s.client_ms - s.server_ms) * scale);
            qd.push_back(s.queue_depth);
        }
        round_median.push_back(median(client));
        round_tail.push_back(tail(client));
        server_ms.push_back(median(server));
        outside_ms.push_back(median(outside));
        depth.push_back(median(qd));
        ++rounds;
    };

    // Single-threaded replay of the stream through the same layers the
    // server calls, with spans around each (traced runs only).
    struct Replay
    {
        double ms = 0;
        size_t hits = 0, misses = 0;
        double hit_ms = 0, miss_ms = 0, read_bytes = 0, write_bytes = 0;
        double route_ms = 0, decompose_ms = 0, map_ms = 0, compile_ms = 0;
        double swaps = 0;
    };
    auto replay = [&](bool traced, size_t round) {
        Replay rp;
        trace::arm(traced);
        const auto t0 = Clock::now();
        naq::CompileMemo memo(kMemoCapacity);
        {
            trace::Span s("memo_store.load");
            size_t restored = 0;
            std::string err;
            if (naq::serve::load_memo_store(pristine, memo, restored, err) !=
                naq::serve::MemoLoad::Loaded)
                rep.fail_check("serve replay: store load failed: " + err);
        }
        for (size_t k = 0; k < stream.size(); ++k) {
            trace::set_op(round * stream.size() + k);
            trace::Span req_span("serve.request");
            const std::string line = "{\"id\":\"" + std::to_string(k) +
                                     "\"," + lines[stream[k]];
            naq::serve::Request req;
            std::string err;
            bool parsed = false;
            {
                trace::Span s("serve.parse_request");
                parsed = naq::serve::parse_request(
                    line.substr(0, line.size() - 1), req, err);
            }
            if (!parsed) {
                rep.fail_check("serve replay: " + err);
                continue;
            }
            const std::string key = naq::CompileMemo::make_key(
                "qasm:" + hex64(fnv1a(req.qasm)), topo, compiler.options());
            bool missed = false;
            const auto l0 = Clock::now();
            naq::CompileMemo::ResultPtr res;
            {
                trace::Span s("memo.lookup");
                res = memo.get_or_compile(key, [&] {
                    missed = true;
                    naq::Circuit c;
                    {
                        trace::Span r("qasm.read");
                        c = naq::read_qasm(req.qasm);
                    }
                    trace::Span cs("compile");
                    return compiler.compile_prepared(c, nullptr, 0.0);
                });
            }
            const double lookup_ms = ms_since(l0);
            if (missed) {
                ++rp.misses;
                rp.miss_ms += lookup_ms;
                rp.read_bytes += double(req.qasm.size());
                for (const naq::PassReport &pr : res->report.passes) {
                    if (pr.pass == "route")
                        rp.route_ms += pr.wall_ms;
                    else if (pr.pass == "decompose")
                        rp.decompose_ms += pr.wall_ms;
                    else if (pr.pass == "map")
                        rp.map_ms += pr.wall_ms;
                }
                rp.compile_ms += res->report.total_ms;
                rp.swaps += double(res->compiled.counts().routing_swaps);
            } else {
                ++rp.hits;
                rp.hit_ms += lookup_ms;
            }
            naq::serve::Response resp;
            resp.id = req.id;
            resp.ok = res->success;
            resp.status = naq::status_name(res->status);
            resp.memo = missed ? "miss" : "hit";
            resp.passes = res->report.passes;
            if (res->success) {
                trace::Span s("qasm.write");
                resp.qasm = naq::write_qasm(res->compiled.to_circuit());
                rp.write_bytes += double(resp.qasm.size());
            }
            const Answer &want = expected[stream[k]];
            if (!want.ok || fnv1a(resp.qasm) != want.qasm_hash)
                rep.fail_check("serve replay: answer differs for program " +
                               std::to_string(stream[k]));
            {
                trace::Span s("serve.format_response");
                const std::string out = naq::serve::format_response(resp);
                if (out.empty())
                    rep.fail_check("serve replay: empty response");
            }
        }
        rp.ms = ms_since(t0);
        trace::arm(false);
        return rp;
    };

    std::vector<double> replay_plain_ms, replay_traced_ms;
    Replay traced_sum;
    size_t traced_rounds = 0;
    double timesteps = 0, gates_executed = 0;
    auto &obs = naq::obs::MetricsRegistry::global();
    const auto window = Clock::now();
    while (ms_since(window) < cfg.seconds * 1000.0 || rounds == 0) {
        run_server_round();
        if (!cfg.trace)
            continue;
        replay_plain_ms.push_back(replay(false, rounds).ms);
        obs.enable();
        const Replay rp = replay(true, rounds);
        const naq::obs::MetricsSnapshot snap = obs.snapshot();
        timesteps += double(snap.counter("route.timesteps"));
        gates_executed += double(snap.counter("route.gates_executed"));
        obs.disable_and_reset();
        replay_traced_ms.push_back(rp.ms);
        traced_sum.hits += rp.hits;
        traced_sum.misses += rp.misses;
        traced_sum.hit_ms += rp.hit_ms;
        traced_sum.miss_ms += rp.miss_ms;
        traced_sum.read_bytes += rp.read_bytes;
        traced_sum.write_bytes += rp.write_bytes;
        traced_sum.route_ms += rp.route_ms;
        traced_sum.decompose_ms += rp.decompose_ms;
        traced_sum.map_ms += rp.map_ms;
        traced_sum.compile_ms += rp.compile_ms;
        traced_sum.swaps += rp.swaps;
        ++traced_rounds;
    }
    fs::remove(live);
    std::cerr << "serve-zipf: " << rounds << " rounds of " << stream.size()
              << " requests\n";

    // The host probe goes to stderr on every run, to the JSON when traced.
    rep.set("host.ref_ms", host.median_ref_ms());
    if (!cfg.trace) {
        rep.set("setup_s", median(setup_ms) / 1000.0);
        rep.set("throughput_per_s", median(round_tput));
        rep.set("latency_ms", median(round_median));
        rep.set("tail_latency_ms", median(round_tail));
        rep.set("peak_rss_mb", peak_rss_mb());
        rep.set("gate_overhead", compiled_cx / source_cx);
        rep.set("depth_overhead", compiled_depth / source_depth);
        rep.set("device_time_s",
                compiled_depth * naq::TimeModel{}.gate_time_s);
        return rep;
    }

    const auto layers = trace::summarize();
    auto mean_ms = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() || it->second.count == 0
                   ? 0.0
                   : it->second.self_ms / double(it->second.count);
    };
    auto self_ms = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.self_ms;
    };
    const double tr = double(traced_rounds);
    const double compiles = double(traced_sum.misses);
    rep.set("qasm.read_ms", mean_ms("qasm.read"));
    rep.set("qasm.read_mb_per_s",
            traced_sum.read_bytes / 1e6 / (self_ms("qasm.read") / 1000));
    rep.set("qasm.write_ms", mean_ms("qasm.write"));
    rep.set("qasm.write_mb_per_s",
            traced_sum.write_bytes / 1e6 / (self_ms("qasm.write") / 1000));
    rep.set("compile.ms", traced_sum.compile_ms / compiles);
    rep.set("decompose.ms", traced_sum.decompose_ms / compiles);
    rep.set("map.ms", traced_sum.map_ms / compiles);
    rep.set("route.ms", traced_sum.route_ms / compiles);
    rep.set("route.share", traced_sum.route_ms / traced_sum.compile_ms);
    rep.set("route.swaps", traced_sum.swaps / tr);
    rep.set("route.timesteps", timesteps / tr);
    rep.set("route.gates_executed", gates_executed / tr);
    rep.set("memo.hits", double(traced_sum.hits) / tr);
    rep.set("memo.misses", double(traced_sum.misses) / tr);
    rep.set("memo.hit_ratio",
            double(traced_sum.hits) /
                double(traced_sum.hits + traced_sum.misses));
    rep.set("memo.hit_us", traced_sum.hit_ms * 1000 / double(traced_sum.hits));
    rep.set("memo.miss_ms", traced_sum.miss_ms / compiles);
    rep.set("serve.parse_request_us", mean_ms("serve.parse_request") * 1000);
    rep.set("serve.format_response_us",
            mean_ms("serve.format_response") * 1000);
    rep.set("serve.server_latency_ms", median(server_ms));
    rep.set("serve.outside_ms", median(outside_ms));
    rep.set("serve.queue_depth", median(depth));
    rep.set("memo_store.load_ms", mean_ms("memo_store.load"));
    rep.set("trace.overhead_pct",
            (median(replay_traced_ms) / median(replay_plain_ms) - 1) * 100);
    trace::write_jsonl((dir / "trace.jsonl").string());
    trace::clear();
    return rep;
}

} // namespace nb
