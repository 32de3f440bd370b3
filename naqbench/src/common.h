// Shared plumbing of the end-to-end benchmark: clocks, order
// statistics, the host reference kernel and the per-run report.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace nb {

using Clock = std::chrono::steady_clock;

inline double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
ms_since(Clock::time_point a)
{
    return ms_between(a, Clock::now());
}

/** Median of `v` (0 for an empty sample). */
double median(std::vector<double> v);

/** Linear-interpolated quantile q in [0, 1] (0 for an empty sample). */
double quantile(std::vector<double> v, double q);

/**
 * The highest of p99 and p90 that has at least ten samples beyond it;
 * with fewer than 100 samples there is no such tail and the median is
 * returned.
 */
double tail(const std::vector<double> &v);

/**
 * CPU time of the calling thread in ms. A guest of a shared host can
 * lose its virtual CPU to other tenants for a while (steal time); the
 * thread's CPU clock stops meanwhile, so a single-threaded operation
 * timed on it reads what it cost, not how long the host kept it off
 * the CPU. It includes the thread's system time (file I/O here).
 */
double thread_cpu_ms();

/** Peak resident set of this process in MB. */
double peak_rss_mb();

/** 64-bit FNV-1a over a string. */
uint64_t fnv1a(const std::string &s);

/** Zero-padded 16-digit lower-case hex. */
std::string hex64(uint64_t v);

/**
 * Host reference kernel: `threads` threads at once (1 to 4) each copy
 * a fixed 120k-element array into a preallocated buffer and sort it;
 * returns the wall time in ms. The sort is allocation-free after the
 * first call and its input never depends on the seed, so its swings
 * are host swings.
 */
double host_ref_ms(int threads = 1);

/** `host_ref_ms(1)` timed on the calling thread's CPU clock. */
double host_ref_cpu_ms();

/**
 * Serve-shaped host probe: a client thread keeps 4 one-byte tokens in
 * flight through a pipe to 2 worker threads, each of which sorts a
 * fixed 4096-element array per token and answers through a second
 * pipe; 256 tokens. Returns the wall time in ms. It has the thread,
 * pipe and wake-up shape of the serve workload and none of the
 * library's code.
 */
double pipe_ref_ms();

/**
 * Probe times of the reference host that end-to-end timings are scaled
 * to (the quiet-host medians of `host_ref_ms` and `pipe_ref_ms`).
 */
constexpr double kNominalSortMs = 12.0;
constexpr double kNominalPipeMs = 38.0;

/**
 * Host speed probe taken between stretches of a workload (rounds, or
 * single operations). Each stretch's timings are scaled by
 * `nominal_ms` / (mean of the probes on both sides of it), so that a
 * slow spell of a shared host is not read as a slower program: such a
 * host can swing by 20-30% between runs, and it slows a busy
 * multi-threaded process more than a single thread, so each workload
 * uses a probe of its own shape. A probe is the median of `repeats`
 * kernel runs, taken while no workload thread runs; it does not depend
 * on the library, so a slower library still reads as slower.
 */
class HostScale
{
  public:
    HostScale(std::function<double()> kernel, double nominal_ms,
              int repeats = 5);

    /** Probe after a stretch; returns that stretch's time scale factor. */
    double after_round();

    /** Median of every probe. */
    double median_ref_ms() const { return median(refs_); }

  private:
    double probe();

    std::function<double()> kernel_;
    double nominal_ms_;
    int repeats_;
    double last_ = 0.0;
    std::vector<double> refs_;
};

/** What one workload run hands back to the driver. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Correctness violations (empty = correct). */
    std::vector<std::string> errors;
    /** name -> value; units come from the metric catalog. */
    std::map<std::string, double> metrics;

    void fail_check(const std::string &what);
    void set(const std::string &name, double value) { metrics[name] = value; }
};

/** Command-line settings every workload receives. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Repository root (inputs such as the QASM corpus live there). */
    std::string root = ".";
    /** Scratch directory for files the run writes. */
    std::string work_dir = ".";
};

Report run_compile_large(const RunConfig &cfg);
Report run_serve_zipf(const RunConfig &cfg);
Report run_sweep_loss(const RunConfig &cfg);

} // namespace nb
