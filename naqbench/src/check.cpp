#include "check.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <sstream>
#include <tuple>

#include "core/pipeline.h"
#include "decompose/decompose.h"

namespace nb {

using naq::Circuit;
using naq::CompiledCircuit;
using naq::Gate;
using naq::GateKind;
using naq::ScheduledGate;
using naq::Site;

namespace {

constexpr double kEps = 1e-9;
/** The paper's restriction zone: f(d) = d / 2 around an interaction. */
constexpr double kZoneFactor = 0.5;

double
site_distance(const Device &d, Site a, Site b)
{
    const double dr = double(int(a) / d.cols - int(b) / d.cols);
    const double dc = double(int(a) % d.cols - int(b) % d.cols);
    return std::sqrt(dr * dr + dc * dc);
}

double
span_of(const Device &d, const std::vector<uint32_t> &sites)
{
    double span = 0.0;
    for (size_t i = 0; i < sites.size(); ++i)
        for (size_t j = i + 1; j < sites.size(); ++j)
            span = std::max(span, site_distance(d, sites[i], sites[j]));
    return span;
}

/** Zone radius: f(d) = d / 2 for interactions, 0 otherwise. */
double
zone_radius(const Device &d, const Gate &g)
{
    if (!g.is_unitary() || g.arity() < 2)
        return 0.0;
    return kZoneFactor * span_of(d, g.qubits);
}

bool
zones_overlap(const Device &d, const Gate &a, double ra, const Gate &b,
              double rb)
{
    for (Site sa : a.qubits)
        for (Site sb : b.qubits)
            if (sa == sb || site_distance(d, sa, sb) + kEps < ra + rb)
                return true;
    return false;
}

bool
symmetric_kind(GateKind k)
{
    return k == GateKind::CZ || k == GateKind::CPhase ||
           k == GateKind::Swap || k == GateKind::CCZ;
}

using GateKey = std::tuple<int, std::vector<uint32_t>, uint64_t>;

GateKey
key_of(const Gate &g)
{
    std::vector<uint32_t> qs = g.qubits;
    if (symmetric_kind(g.kind))
        std::sort(qs.begin(), qs.end());
    uint64_t bits = 0;
    std::memcpy(&bits, &g.param, sizeof bits);
    return {int(g.kind), std::move(qs), bits};
}

} // namespace

Device
device_of(const naq::GridTopology &topo, double mid)
{
    Device d;
    d.rows = topo.rows();
    d.cols = topo.cols();
    d.mid = mid;
    d.active.resize(topo.num_sites());
    for (Site s = 0; s < topo.num_sites(); ++s)
        d.active[s] = topo.is_active(s) ? 1 : 0;
    return d;
}

Circuit
routed_reference(const Circuit &logical, double mid)
{
    Circuit out(logical.num_qubits(), logical.name());
    for (const Gate &g : logical.gates())
        if (g.kind != GateKind::Barrier)
            out.add(g);
    const size_t arity = out.max_arity();
    if (arity >= 3 && naq::min_distance_for_arity(arity) > mid + kEps)
        return naq::decompose_multiqubit(out);
    return out;
}

const char *
violation_name(Violation v)
{
    switch (v) {
      case Violation::Shape: return "shape";
      case Violation::Mid: return "mid";
      case Violation::Occupancy: return "occupancy";
      case Violation::Zone: return "zone";
      case Violation::LostSite: return "lost-site";
      case Violation::Mapping: return "mapping";
      case Violation::Multiset: return "multiset";
    }
    return "?";
}

bool
CheckResult::has(Violation v) const
{
    for (const auto &[kind, msg] : violations)
        if (kind == v)
            return true;
    return false;
}

std::string
CheckResult::summary() const
{
    if (violations.empty())
        return "ok";
    std::ostringstream os;
    os << violations.size() << " violation(s); first: "
       << violation_name(violations.front().first) << ": "
       << violations.front().second;
    return os.str();
}

CheckResult
check_schedule(const Circuit &reference, const CompiledCircuit &compiled,
               const Device &device)
{
    CheckResult res;
    auto violate = [&](Violation v, const std::string &msg) {
        if (res.violations.size() < 16)
            res.violations.emplace_back(v, msg);
    };
    const size_t num_sites = size_t(device.rows) * size_t(device.cols);
    const size_t n = reference.num_qubits();

    // Every gate inside the device and the declared timestep range.
    std::vector<std::vector<size_t>> steps(compiled.num_timesteps);
    for (size_t i = 0; i < compiled.schedule.size(); ++i) {
        const ScheduledGate &sg = compiled.schedule[i];
        bool in_range = sg.timestep < compiled.num_timesteps;
        for (Site s : sg.gate.qubits)
            in_range = in_range && s < num_sites;
        if (!in_range) {
            violate(Violation::Shape,
                    "gate " + std::to_string(i) + " out of range");
            return res;
        }
        steps[sg.timestep].push_back(i);
    }
    if (compiled.initial_mapping.size() != n ||
        compiled.final_mapping.size() != n) {
        violate(Violation::Shape, "mapping size differs from the program");
        return res;
    }

    // Per-gate rules: MID and live sites.
    for (const ScheduledGate &sg : compiled.schedule) {
        const Gate &g = sg.gate;
        if (g.is_unitary() && g.arity() >= 2 &&
            span_of(device, g.qubits) > device.mid + kEps)
            violate(Violation::Mid, g.to_string() + " at step " +
                                        std::to_string(sg.timestep));
        for (Site s : g.qubits)
            if (!device.active[s])
                violate(Violation::LostSite,
                        "site " + std::to_string(s) + " used at step " +
                            std::to_string(sg.timestep));
    }

    // Per-timestep rules: one operation per site, disjoint zones.
    std::vector<uint32_t> busy(num_sites, UINT32_MAX);
    for (size_t t = 0; t < steps.size(); ++t) {
        const std::vector<size_t> &step = steps[t];
        std::vector<double> radius(step.size());
        for (size_t a = 0; a < step.size(); ++a) {
            const Gate &g = compiled.schedule[step[a]].gate;
            radius[a] = zone_radius(device, g);
            for (Site s : g.qubits) {
                if (busy[s] == t)
                    violate(Violation::Occupancy,
                            "site " + std::to_string(s) +
                                " used twice at step " + std::to_string(t));
                busy[s] = uint32_t(t);
            }
        }
        for (size_t a = 0; a < step.size(); ++a)
            for (size_t b = a + 1; b < step.size(); ++b) {
                const Gate &ga = compiled.schedule[step[a]].gate;
                const Gate &gb = compiled.schedule[step[b]].gate;
                if (zones_overlap(device, ga, radius[a], gb, radius[b]))
                    violate(Violation::Zone,
                            ga.to_string() + " and " + gb.to_string() +
                                " at step " + std::to_string(t));
            }
    }

    // Mapping replay: routing SWAPs move atoms, every other gate must
    // land on sites that hold its logical operands.
    constexpr uint32_t kEmpty = UINT32_MAX;
    std::vector<uint32_t> occupant(num_sites, kEmpty);
    for (size_t q = 0; q < n; ++q) {
        const Site s = compiled.initial_mapping[q];
        if (s >= num_sites || occupant[s] != kEmpty) {
            violate(Violation::Mapping, "initial mapping not injective");
            return res;
        }
        if (!device.active[s])
            violate(Violation::LostSite,
                    "qubit " + std::to_string(q) + " starts on site " +
                        std::to_string(s));
        occupant[s] = uint32_t(q);
    }
    res.logical_order.reserve(compiled.schedule.size());
    for (const std::vector<size_t> &step : steps) {
        for (size_t i : step) {
            const Gate &g = compiled.schedule[i].gate;
            if (g.kind == GateKind::Swap && g.is_routing) {
                std::swap(occupant[g.qubits[0]], occupant[g.qubits[1]]);
                continue;
            }
            Gate lg = g;
            bool mapped = true;
            for (uint32_t &q : lg.qubits) {
                if (occupant[q] == kEmpty) {
                    mapped = false;
                    break;
                }
                q = occupant[q];
            }
            if (!mapped) {
                violate(Violation::Mapping,
                        g.to_string() + " touches an empty site");
                continue;
            }
            lg.is_routing = false;
            res.logical_order.push_back(std::move(lg));
        }
    }
    for (size_t q = 0; q < n; ++q) {
        const Site s = compiled.final_mapping[q];
        if (s >= num_sites || occupant[s] != q) {
            violate(Violation::Mapping,
                    "final mapping of qubit " + std::to_string(q) +
                        " disagrees with the replayed SWAPs");
            break;
        }
    }

    // Logical multiset.
    std::vector<GateKey> want, got;
    for (const Gate &g : reference.gates())
        want.push_back(key_of(g));
    for (const Gate &g : res.logical_order)
        got.push_back(key_of(g));
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    if (want != got)
        violate(Violation::Multiset,
                "logical gates differ: " + std::to_string(want.size()) +
                    " in the source, " + std::to_string(got.size()) +
                    " in the schedule");
    return res;
}

double
cx_equivalent(const std::vector<Gate> &gates)
{
    double n = 0.0;
    for (const Gate &g : gates) {
        if (!g.is_unitary())
            continue;
        n += g.kind == GateKind::Swap ? 3.0 : 1.0;
    }
    return n;
}

size_t
asap_depth(const Circuit &circuit)
{
    std::vector<size_t> level(circuit.num_qubits(), 0);
    size_t depth = 0;
    for (const Gate &g : circuit.gates()) {
        size_t at = 0;
        for (uint32_t q : g.qubits)
            at = std::max(at, level[q]);
        if (g.kind != GateKind::Barrier)
            ++at;
        for (uint32_t q : g.qubits)
            level[q] = at;
        depth = std::max(depth, at);
    }
    return depth;
}

// ------------------------------------------------------- statevector

namespace {

using Amp = std::complex<double>;

struct State
{
    size_t n;
    std::vector<Amp> a;

    void
    apply1(uint32_t q, const Amp u[4])
    {
        const size_t bit = size_t(1) << q;
        for (size_t i = 0; i < a.size(); ++i) {
            if (i & bit)
                continue;
            const Amp x = a[i], y = a[i | bit];
            a[i] = u[0] * x + u[1] * y;
            a[i | bit] = u[2] * x + u[3] * y;
        }
    }

    /** X on `target` where every control bit is set. */
    void
    controlled_x(size_t control_mask, uint32_t target)
    {
        const size_t bit = size_t(1) << target;
        for (size_t i = 0; i < a.size(); ++i)
            if (!(i & bit) && (i & control_mask) == control_mask)
                std::swap(a[i], a[i | bit]);
    }

    /** Multiply by `phase` where every bit of `mask` is set. */
    void
    phase_all(size_t mask, Amp phase)
    {
        for (size_t i = 0; i < a.size(); ++i)
            if ((i & mask) == mask)
                a[i] *= phase;
    }

    void
    swap_bits(uint32_t p, uint32_t q)
    {
        const size_t bp = size_t(1) << p, bq = size_t(1) << q;
        for (size_t i = 0; i < a.size(); ++i)
            if ((i & bp) && !(i & bq))
                std::swap(a[i], a[(i & ~bp) | bq]);
    }
};

bool
apply(State &st, const Gate &g, std::string &why)
{
    const double h = 1.0 / std::sqrt(2.0);
    const Amp i1(0.0, 1.0);
    const double c = std::cos(g.param / 2), s = std::sin(g.param / 2);
    auto one = [&](Amp a, Amp b, Amp cc, Amp d) {
        const Amp u[4] = {a, b, cc, d};
        st.apply1(g.qubits[0], u);
    };
    size_t mask = 0;
    for (uint32_t q : g.qubits)
        mask |= size_t(1) << q;
    switch (g.kind) {
      case GateKind::I:
      case GateKind::Measure:
      case GateKind::Barrier: return true;
      case GateKind::X: one(0, 1, 1, 0); return true;
      case GateKind::Y: one(0, -i1, i1, 0); return true;
      case GateKind::Z: one(1, 0, 0, -1); return true;
      case GateKind::H: one(h, h, h, -h); return true;
      case GateKind::S: one(1, 0, 0, i1); return true;
      case GateKind::Sdg: one(1, 0, 0, -i1); return true;
      case GateKind::T: one(1, 0, 0, std::polar(1.0, M_PI / 4)); return true;
      case GateKind::Tdg:
        one(1, 0, 0, std::polar(1.0, -M_PI / 4));
        return true;
      case GateKind::RX: one(c, -i1 * s, -i1 * s, c); return true;
      case GateKind::RY: one(c, -s, s, c); return true;
      case GateKind::RZ:
        one(std::polar(1.0, -g.param / 2), 0, 0,
            std::polar(1.0, g.param / 2));
        return true;
      case GateKind::CX:
      case GateKind::CCX:
      case GateKind::MCX: {
        const uint32_t target = g.qubits.back();
        st.controlled_x(mask & ~(size_t(1) << target), target);
        return true;
      }
      case GateKind::CZ:
      case GateKind::CCZ: st.phase_all(mask, -1.0); return true;
      case GateKind::CPhase:
        st.phase_all(mask, std::polar(1.0, g.param));
        return true;
      case GateKind::Swap:
        st.swap_bits(g.qubits[0], g.qubits[1]);
        return true;
    }
    why = "unsupported gate " + g.to_string();
    return false;
}

} // namespace

bool
statevector_equal(const Circuit &source,
                  const std::vector<Gate> &logical_order, uint64_t seed,
                  std::string &why)
{
    const size_t n = source.num_qubits();
    if (n > 16) {
        why = "more than 16 qubits";
        return false;
    }
    State a{n, std::vector<Amp>(size_t(1) << n)};
    uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return double(x >> 11) / double(1ull << 53) - 0.5;
    };
    double norm = 0.0;
    for (Amp &v : a.a) {
        v = Amp(next(), next());
        norm += std::norm(v);
    }
    for (Amp &v : a.a)
        v /= std::sqrt(norm);
    State b = a;
    for (const Gate &g : source.gates())
        if (!apply(a, g, why))
            return false;
    for (const Gate &g : logical_order)
        if (!apply(b, g, why))
            return false;
    Amp overlap = 0.0;
    for (size_t i = 0; i < a.a.size(); ++i)
        overlap += std::conj(a.a[i]) * b.a[i];
    if (std::abs(overlap) < 1.0 - 1e-9) {
        why = "final states differ (|<source|compiled>| = " +
              std::to_string(std::abs(overlap)) + ")";
        return false;
    }
    return true;
}

// --------------------------------------------------------- self-test

std::vector<std::string>
checker_self_test()
{
    std::vector<std::string> failures;
    // A dense, parallel program on a small device so that zones bind.
    naq::GridTopology topo(5, 5);
    const double mid = 2.0;
    Circuit prog(12, "selftest");
    for (uint32_t q = 0; q < 12; ++q)
        prog.add(Gate::h(q));
    for (uint32_t r = 0; r < 3; ++r)
        for (uint32_t q = 0; q < 12; ++q)
            prog.add(Gate::cx(q, (q * 5 + 3 + r) % 12 == q
                                     ? (q + 1) % 12
                                     : (q * 5 + 3 + r) % 12));
    prog.add(Gate::ccx(0, 1, 2));
    for (uint32_t q = 0; q < 12; ++q)
        prog.add(Gate::measure(q));
    naq::Compiler compiler = naq::Compiler::for_device(topo).with(
        naq::CompilerOptions::neutral_atom(mid));
    const naq::CompileResult res = compiler.compile(prog);
    if (!res.success)
        return {"self-test compile failed: " + res.failure_reason};
    const Circuit ref = routed_reference(prog, mid);
    const Device dev = device_of(topo, mid);
    const CompiledCircuit &good = res.compiled;

    const CheckResult base = check_schedule(ref, good, dev);
    if (!base.ok())
        failures.push_back("real schedule rejected: " + base.summary());
    std::string why;
    if (!statevector_equal(prog, base.logical_order, 7, why))
        failures.push_back("real schedule fails statevector: " + why);

    // 1. A gate moved into an earlier timestep whose zones it overlaps
    //    (its own sites idle there, so only the zone rule can object).
    bool moved = false;
    for (size_t t = 1; t < good.num_timesteps && !moved; ++t) {
        std::vector<uint8_t> used(dev.active.size(), 0);
        for (const ScheduledGate &sg : good.schedule)
            if (sg.timestep == t - 1)
                for (Site s : sg.gate.qubits)
                    used[s] = 1;
        for (size_t i = 0; i < good.schedule.size() && !moved; ++i) {
            const ScheduledGate &b = good.schedule[i];
            if (b.timestep != t || !b.gate.is_interaction())
                continue;
            bool idle = true;
            for (Site s : b.gate.qubits)
                idle = idle && !used[s];
            if (!idle)
                continue;
            for (const ScheduledGate &a : good.schedule) {
                if (a.timestep != t - 1 ||
                    !zones_overlap(dev, a.gate, zone_radius(dev, a.gate),
                                   b.gate, zone_radius(dev, b.gate)))
                    continue;
                CompiledCircuit bad = good;
                bad.schedule[i].timestep = t - 1;
                const CheckResult r = check_schedule(ref, bad, dev);
                if (!r.has(Violation::Zone))
                    failures.push_back("zone mutant accepted: " +
                                       r.summary());
                moved = true;
                break;
            }
        }
    }
    if (!moved)
        failures.push_back("no zone-conflicting move found for the mutant");

    // 2. An operand on a lost site.
    {
        Device lost = dev;
        const ScheduledGate *victim = nullptr;
        for (const ScheduledGate &sg : good.schedule)
            if (sg.gate.is_interaction() && !sg.gate.is_routing) {
                victim = &sg;
                break;
            }
        if (victim) {
            lost.active[victim->gate.qubits[0]] = 0;
            const CheckResult r = check_schedule(ref, good, lost);
            if (!r.has(Violation::LostSite))
                failures.push_back("lost-site mutant accepted: " +
                                   r.summary());
        } else {
            failures.push_back("no interaction to place on a lost site");
        }
    }

    // 3. A dropped gate.
    {
        CompiledCircuit bad = good;
        for (size_t i = 0; i < bad.schedule.size(); ++i)
            if (bad.schedule[i].gate.is_interaction() &&
                !bad.schedule[i].gate.is_routing) {
                bad.schedule.erase(bad.schedule.begin() + long(i));
                break;
            }
        const CheckResult r = check_schedule(ref, bad, dev);
        if (!r.has(Violation::Multiset))
            failures.push_back("dropped-gate mutant accepted: " +
                               r.summary());
    }
    return failures;
}

} // namespace nb
