// In-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own code around its calls into each library layer;
// they stay in per-thread buffers until the run ends, when they are
// summarized into per-layer self times and written out as JSON lines.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nb::trace {

/** Turn recording on or off (off: a Span costs one branch). */
void arm(bool on);
bool armed();

/** Operation id stamped on spans this thread opens from now on. */
void set_op(uint64_t op);

/** Drop every recorded span (all threads). */
void clear();

/** RAII span; `name` must be a string literal (stored by pointer). */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int64_t index_ = -1;
};

/** Totals of one span name. */
struct LayerStat
{
    uint64_t count = 0;
    double total_ms = 0.0; ///< Sum of durations.
    double self_ms = 0.0;  ///< Sum of durations minus child spans.
};

/** Per-name totals over every recorded span. */
std::map<std::string, LayerStat> summarize();

/**
 * Write every span as one JSON object per line: name, start and end
 * (ns since the first span), parent (-1 for a root), op and thread.
 * Returns false when the file cannot be written.
 */
bool write_jsonl(const std::string &path);

} // namespace nb::trace
