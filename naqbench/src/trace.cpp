#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace nb::trace {

namespace {

struct Rec
{
    const char *name;
    int64_t parent; ///< Index in the same thread's buffer, or -1.
    uint64_t op;
    int64_t start_ns;
    int64_t end_ns;
};

struct Buffer
{
    std::vector<Rec> spans;
    std::vector<int64_t> open; ///< Stack of open span indices.
    uint64_t op = 0;
};

std::atomic<bool> g_armed{false};
std::mutex g_mu; // Guards g_buffers.
std::vector<std::shared_ptr<Buffer>> g_buffers;

int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Buffer &
local()
{
    thread_local std::shared_ptr<Buffer> buf = [] {
        auto b = std::make_shared<Buffer>();
        b->spans.reserve(1 << 16);
        std::lock_guard<std::mutex> lock(g_mu);
        g_buffers.push_back(b);
        return b;
    }();
    return *buf;
}

} // namespace

void
arm(bool on)
{
    g_armed.store(on, std::memory_order_relaxed);
}

bool
armed()
{
    return g_armed.load(std::memory_order_relaxed);
}

void
set_op(uint64_t op)
{
    if (armed())
        local().op = op;
}

void
clear()
{
    std::lock_guard<std::mutex> lock(g_mu);
    for (auto &b : g_buffers) {
        b->spans.clear();
        b->open.clear();
    }
}

Span::Span(const char *name)
{
    if (!armed())
        return;
    Buffer &b = local();
    const int64_t parent = b.open.empty() ? -1 : b.open.back();
    index_ = int64_t(b.spans.size());
    b.spans.push_back({name, parent, b.op, now_ns(), 0});
    b.open.push_back(index_);
}

Span::~Span()
{
    if (index_ < 0)
        return;
    Buffer &b = local();
    b.spans[size_t(index_)].end_ns = now_ns();
    b.open.pop_back();
}

std::map<std::string, LayerStat>
summarize()
{
    std::map<std::string, LayerStat> out;
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto &b : g_buffers) {
        std::vector<double> child_ms(b->spans.size(), 0.0);
        for (const Rec &r : b->spans) {
            if (r.parent >= 0 && r.end_ns > 0)
                child_ms[size_t(r.parent)] +=
                    double(r.end_ns - r.start_ns) / 1e6;
        }
        for (size_t i = 0; i < b->spans.size(); ++i) {
            const Rec &r = b->spans[i];
            if (r.end_ns == 0)
                continue; // Still open: not a finished span.
            const double ms = double(r.end_ns - r.start_ns) / 1e6;
            LayerStat &s = out[r.name];
            ++s.count;
            s.total_ms += ms;
            s.self_ms += ms - child_ms[i];
        }
    }
    return out;
}

bool
write_jsonl(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(g_mu);
    int64_t origin = INT64_MAX;
    for (const auto &b : g_buffers)
        for (const Rec &r : b->spans)
            origin = std::min(origin, r.start_ns);
    size_t thread = 0;
    for (const auto &b : g_buffers) {
        for (const Rec &r : b->spans) {
            std::fprintf(f,
                         "{\"name\":\"%s\",\"start_ns\":%lld,"
                         "\"end_ns\":%lld,\"parent\":%lld,\"op\":%llu,"
                         "\"thread\":%zu}\n",
                         r.name, (long long)(r.start_ns - origin),
                         (long long)(r.end_ns - origin),
                         (long long)r.parent, (unsigned long long)r.op,
                         thread);
        }
        ++thread;
    }
    return std::fclose(f) == 0;
}

} // namespace nb::trace
