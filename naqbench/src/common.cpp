#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <functional>
#include <iostream>
#include <thread>

namespace nb {

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - double(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
tail(const std::vector<double> &v)
{
    if (v.size() >= 1000)
        return quantile(v, 0.99);
    if (v.size() >= 100)
        return quantile(v, 0.90);
    return median(v);
}

double
thread_cpu_ms()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
host_ref_ms(int threads)
{
    constexpr size_t kN = 120000;
    constexpr int kMaxThreads = 4;
    static const std::vector<uint32_t> source = [] {
        std::vector<uint32_t> v(kN);
        uint64_t x = 0x2545f4914f6cdd1dull;
        for (uint32_t &e : v) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            e = uint32_t(x >> 16);
        }
        return v;
    }();
    static std::vector<std::vector<uint32_t>> work(
        kMaxThreads, std::vector<uint32_t>(kN));
    threads = std::clamp(threads, 1, kMaxThreads);
    auto kernel = [](std::vector<uint32_t> &w) {
        std::copy(source.begin(), source.end(), w.begin());
        std::sort(w.begin(), w.end());
    };
    const auto t0 = Clock::now();
    std::vector<std::thread> helpers;
    for (int i = 1; i < threads; ++i)
        helpers.emplace_back(kernel, std::ref(work[size_t(i)]));
    kernel(work[0]);
    for (std::thread &t : helpers)
        t.join();
    const double ms = ms_since(t0);
    for (int i = 0; i < threads; ++i)
        if (work[size_t(i)].front() > work[size_t(i)].back())
            std::cerr << "host_ref_ms: sort failed\n";
    return ms;
}

double
host_ref_cpu_ms()
{
    const double c0 = thread_cpu_ms();
    host_ref_ms(1);
    return thread_cpu_ms() - c0;
}

double
pipe_ref_ms()
{
    constexpr size_t kTokens = 256, kInFlight = 4, kN = 4096;
    constexpr int kWorkers = 2;
    static const std::vector<uint32_t> source = [] {
        std::vector<uint32_t> v(kN);
        uint64_t x = 0x9e3779b97f4a7c15ull;
        for (uint32_t &e : v) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            e = uint32_t(x >> 16);
        }
        return v;
    }();
    static std::vector<std::vector<uint32_t>> work(
        kWorkers, std::vector<uint32_t>(kN));
    int to_workers[2], to_client[2];
    if (pipe(to_workers) != 0)
        return 0.0;
    if (pipe(to_client) != 0) {
        close(to_workers[0]);
        close(to_workers[1]);
        return 0.0;
    }
    auto put = [](int fd, char c) {
        while (write(fd, &c, 1) < 0 && errno == EINTR) {
        }
    };
    auto get = [](int fd) {
        char c = 'q';
        while (read(fd, &c, 1) < 0 && errno == EINTR) {
        }
        return c;
    };
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (int i = 0; i < kWorkers; ++i)
        workers.emplace_back([&, i] {
            std::vector<uint32_t> &w = work[size_t(i)];
            while (get(to_workers[0]) == 't') {
                std::copy(source.begin(), source.end(), w.begin());
                std::sort(w.begin(), w.end());
                put(to_client[1], 'r');
            }
        });
    size_t sent = 0;
    for (; sent < kInFlight; ++sent)
        put(to_workers[1], 't');
    for (size_t done = 0; done < kTokens; ++done) {
        get(to_client[0]);
        if (sent < kTokens) {
            put(to_workers[1], 't');
            ++sent;
        }
    }
    for (int i = 0; i < kWorkers; ++i)
        put(to_workers[1], 'q');
    for (std::thread &t : workers)
        t.join();
    const double ms = ms_since(t0);
    for (int fd : {to_workers[0], to_workers[1], to_client[0], to_client[1]})
        close(fd);
    return ms;
}

HostScale::HostScale(std::function<double()> kernel, double nominal_ms,
                     int repeats)
    : kernel_(std::move(kernel)), nominal_ms_(nominal_ms), repeats_(repeats)
{
    last_ = probe();
}

double
HostScale::probe()
{
    std::vector<double> v;
    for (int i = 0; i < repeats_; ++i)
        v.push_back(kernel_());
    const double m = median(v);
    refs_.push_back(m);
    return m;
}

double
HostScale::after_round()
{
    const double before = last_;
    last_ = probe();
    return nominal_ms_ / (0.5 * (before + last_));
}

void
Report::fail_check(const std::string &what)
{
    if (errors.size() < 20)
        errors.push_back(what);
    std::cerr << "naqbench: check failed: " << what << "\n";
}

} // namespace nb
