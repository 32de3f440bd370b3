// naqbench: end-to-end and per-layer benchmark of the neutral-atom
// compiler. One process runs one workload for a fixed window and
// prints, as its last stdout line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end catalog, with
// --trace 1 the per-layer catalog (see README.md).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "check.h"
#include "common.h"

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_ms", "ms"},
    {"tail_latency_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"gate_overhead", "ratio"},
    {"depth_overhead", "ratio"},
    {"device_time_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"qasm.read_ms", "ms"},
    {"qasm.read_mb_per_s", "MB/s"},
    {"qasm.write_ms", "ms"},
    {"qasm.write_mb_per_s", "MB/s"},
    {"compile.ms", "ms"},
    {"decompose.ms", "ms"},
    {"map.ms", "ms"},
    {"route.ms", "ms"},
    {"route.share", "ratio"},
    {"route.ns_per_gate.q100", "ns"},
    {"route.ns_per_gate.q200", "ns"},
    {"route.ns_per_gate.q400", "ns"},
    {"route.swaps", "count"},
    {"route.timesteps", "count"},
    {"route.gates_executed", "count"},
    {"memo.hits", "count"},
    {"memo.misses", "count"},
    {"memo.hit_ratio", "ratio"},
    {"memo.hit_us", "us"},
    {"memo.miss_ms", "ms"},
    {"serve.parse_request_us", "us"},
    {"serve.format_response_us", "us"},
    {"serve.server_latency_ms", "ms"},
    {"serve.outside_ms", "ms"},
    {"serve.queue_depth", "count"},
    {"memo_store.load_ms", "ms"},
    {"sweep.point_ms", "ms"},
    {"sweep.points", "count"},
    {"loss.prepare_ms", "ms"},
    {"loss.adapt_us", "us"},
    {"loss.adapts", "count"},
    {"loss.recompiles", "count"},
    {"loss.cache_hits", "count"},
    {"loss.cache_hit_ratio", "ratio"},
    {"loss.reloads", "count"},
    {"loss.shots", "count"},
    {"shot.self_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"host.ref_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

int
usage(const char *msg)
{
    std::cerr << "naqbench: " << msg
              << "\nusage: naqbench --workload compile-large|serve-zipf|"
                 "sweep-loss --seed N --seconds S --trace 0|1 "
                 "--root DIR --work DIR\n";
    return 2;
}

void
print_number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::printf("%.0f", v);
    else
        std::printf("%.17g", v);
}

} // namespace

int
main(int argc, char **argv)
{
    nb::RunConfig cfg;
    bool self_test_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            self_test_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            cfg.workload = v;
        } else if (a == "--seed") {
            cfg.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                return usage("--seed needs a non-negative integer");
        } else if (a == "--seconds") {
            cfg.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(cfg.seconds > 0))
                return usage("--seconds needs a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            cfg.trace = v == "1";
        } else if (a == "--root") {
            cfg.root = v;
        } else if (a == "--work") {
            cfg.work_dir = v;
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }

    // The checker's own mutation test runs on every invocation: a
    // checker that accepts broken schedules would make every
    // workload's correctness verdict meaningless.
    const std::vector<std::string> self = nb::checker_self_test();
    for (const std::string &f : self)
        std::cerr << "naqbench: checker self-test: " << f << "\n";
    if (self_test_only) {
        std::printf("checker self-test: %s\n",
                    self.empty() ? "pass" : "FAIL");
        return self.empty() ? 0 : 1;
    }

    nb::Report report;
    try {
        if (cfg.workload == "compile-large")
            report = nb::run_compile_large(cfg);
        else if (cfg.workload == "serve-zipf")
            report = nb::run_serve_zipf(cfg);
        else if (cfg.workload == "sweep-loss")
            report = nb::run_sweep_loss(cfg);
        else
            return usage(("unknown workload '" + cfg.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::cerr << "naqbench: " << cfg.workload << " aborted: "
                  << e.what() << "\n";
        return 1;
    }
    for (const std::string &f : self)
        report.fail_check("checker self-test: " + f);

    const std::vector<MetricDef> &catalog = cfg.trace ? kPerLayer : kEndToEnd;
    for (const MetricDef &m : catalog) {
        if (!cfg.trace && !report.metrics.count(m.name))
            report.fail_check(std::string("metric not measured: ") + m.name);
    }
    for (const auto &[name, value] : report.metrics)
        std::fprintf(stderr, "  %-28s %.6g\n", name.c_str(), value);

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.errors.empty() ? "true" : "false",
                (unsigned long long)report.attempted,
                (unsigned long long)report.failed);
    bool first = true;
    for (const MetricDef &m : catalog) {
        const auto it = report.metrics.find(m.name);
        std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", m.name);
        print_number(it == report.metrics.end() ? 0.0 : it->second);
        std::printf(", \"unit\": \"%s\"}", m.unit);
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return 0;
}
