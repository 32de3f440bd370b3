// Independent checks of compiled output. Nothing here calls the
// library's router, zone or device-analysis code: distances come from
// site coordinates, zones from the paper's f(d) = d/2 rule, and the
// mapping is replayed from the schedule itself.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "core/compiled_circuit.h"
#include "topology/grid.h"

namespace nb {

/** The device rules a schedule is checked against. */
struct Device
{
    int rows = 0;
    int cols = 0;
    std::vector<uint8_t> active; ///< Per site; 0 = lost or inactive.
    double mid = 0.0;            ///< Maximum interaction distance.
};

/** Snapshot of `topo`'s dimensions and activity mask. */
Device device_of(const naq::GridTopology &topo, double mid);

/**
 * The gate list the router must realize for `logical` at `mid`:
 * barriers dropped, and arity >= 3 gates expanded by the library's
 * decomposition exactly when the compiler's documented rule asks for
 * it (the MID cannot host the widest gate).
 */
naq::Circuit routed_reference(const naq::Circuit &logical, double mid);

enum class Violation
{
    Shape,     ///< Timestep or mapping out of range.
    Mid,       ///< Interaction wider than the MID.
    Occupancy, ///< A site used twice in one timestep.
    Zone,      ///< Overlapping restriction zones in one timestep.
    LostSite,  ///< An inactive or lost site is used.
    Mapping,   ///< Gate on an unmapped site, or final mapping differs.
    Multiset,  ///< Logical gate multiset not preserved.
};

const char *violation_name(Violation v);

struct CheckResult
{
    std::vector<std::pair<Violation, std::string>> violations;
    /** Non-routing gates in schedule order, relabelled to logical qubits. */
    std::vector<naq::Gate> logical_order;

    bool ok() const { return violations.empty(); }
    bool has(Violation v) const;
    std::string summary() const;
};

/** Check `compiled` against `device` and the routed reference. */
CheckResult check_schedule(const naq::Circuit &reference,
                           const naq::CompiledCircuit &compiled,
                           const Device &device);

/** Unitary gate count with each SWAP counted as 3 CX. */
double cx_equivalent(const std::vector<naq::Gate> &gates);

/** ASAP depth over unitaries and measurements; barriers only sync. */
size_t asap_depth(const naq::Circuit &circuit);

/**
 * Logical-space statevector check for circuits of at most 16 qubits:
 * applies the undecomposed `source` and `logical_order` (the schedule
 * relabelled through the tracked mapping; routing SWAPs are
 * relabellings) to one seeded random state and compares the results up
 * to a global phase, so the library's multi-qubit decomposition is
 * checked too. Measurements and barriers are skipped on both sides.
 * Returns false with `why` set on a mismatch or an unsupported gate.
 */
bool statevector_equal(const naq::Circuit &source,
                       const std::vector<naq::Gate> &logical_order,
                       uint64_t seed, std::string &why);

/**
 * Mutation self-test: a real compiled schedule must pass, and the
 * checker must reject it with a gate moved into a conflicting
 * timestep, with an operand on a lost site, and with a gate dropped.
 * Returns one message per failed expectation.
 */
std::vector<std::string> checker_self_test();

} // namespace nb
