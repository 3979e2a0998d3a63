"""Correctness checks on one finished ``place_and_route`` result.

A call passes when its result satisfies the paper's invariants that hold
on every workload today: the final cells are disjoint, the incremental
C1/C2/C3 accumulators equal a from-scratch evaluation, no stage or
per-net router failure was recovered from, the run was not truncated,
and every net was routed.  Overflow X > 0 (Eqn 24 unmet) is recorded,
not failed: it is non-zero on every workload today.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.placement.legalize import raw_overlap

#: Relative tolerance between the incremental cost accumulators and the
#: from-scratch evaluation, which sums in another order.
COST_REL_TOL = 1e-9

Qor = Tuple[float, float, int]


def qor(result) -> Qor:
    """(TEIL, chip area, overflow X): deterministic at a fixed seed."""
    return (result.teil, result.chip_area, result.routed_overflow)


def problems(result) -> List[str]:
    """Every invariant the result breaks, as readable lines."""
    found: List[str] = []
    if result.failures:
        stages = ", ".join(f["stage"] for f in result.failures)
        found.append(f"recovered stage failures: {stages}")
    if result.truncated:
        found.append("run was truncated")
    if result.refinement is None or not result.refinement.passes:
        found.append("no refinement pass completed")
    else:
        for p in result.refinement.passes:
            if p.routing.unrouted:
                found.append(
                    f"pass {p.index}: {len(p.routing.unrouted)} unrouted nets"
                )
            # The router recovers a net that raised by rerouting it with
            # M/2; that degraded path never reaches ``result.failures``.
            if p.routing.retried or p.routing.failed:
                found.append(
                    f"pass {p.index}: {len(p.routing.retried)} nets rerouted "
                    f"and {len(p.routing.failed)} failed after a router error"
                )
    state = result.state
    overlap = raw_overlap([state.world_shape(name) for name in state.names])
    if overlap != 0.0:
        found.append(f"final cells overlap by {overlap!r}")
    incremental = (state.c1(), state.c2_raw(), state.c3())
    fresh = state.cost_breakdown_fresh()
    for label, a, b in zip(("C1", "C2", "C3"), incremental, fresh):
        if not math.isclose(a, b, rel_tol=COST_REL_TOL, abs_tol=COST_REL_TOL):
            found.append(f"incremental {label} {a!r} != from-scratch {b!r}")
    return found
