"""The benchmark's workloads: which circuits a run places, and how.

Every workload uses the smoke flow effort with ``attempts_per_cell=10``
on the array core, one refinement pass, and a strictly serial process
(``parallel.workers = 1``, ``chains = 1``).  A run places
``circuits`` generated circuits of ``cells`` cells, ``2 * cells`` nets
and ``5 * cells`` pins.  The run seed picks every circuit and seeds
every config, so the same seed always gives the same inputs, and the
program only ever sees the generated circuits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Tuple

# The program is imported inside the methods, so that naming the
# workloads does not import it: the benchmark times that import.
if TYPE_CHECKING:
    from repro import TimberWolfConfig
    from repro.bench import CircuitSpec
    from repro.netlist import Circuit


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: int
    custom_fraction: float
    mover: str
    m_routes: int
    circuits: int
    #: How many of the circuits the run re-routes to measure channel
    #: fit, outside the timed calls: at M = 20 re-routing one costs
    #: about half a place call.
    validated: int

    def config(self, seed: int) -> "TimberWolfConfig":
        from repro import TimberWolfConfig
        from repro.config import ParallelConfig

        return replace(
            TimberWolfConfig.smoke(seed),
            attempts_per_cell=10,
            core="array",
            mover=self.mover,
            m_routes=self.m_routes,
            parallel=ParallelConfig(workers=1, chains=1),
        )

    def spec(self, seed: int, cells: int = 0) -> "CircuitSpec":
        from repro.bench import CircuitSpec

        cells = cells or self.cells
        return CircuitSpec(
            name=f"{self.name}-s{seed}",
            num_cells=cells,
            num_nets=2 * cells,
            num_pins=5 * cells,
            seed=seed,
            custom_fraction=self.custom_fraction,
        )

    def inputs(self, seed: int) -> List[Tuple["Circuit", "TimberWolfConfig"]]:
        """The (circuit, config) pairs a run with this seed places."""
        from repro.bench import generate_circuit

        return [
            (generate_circuit(self.spec(s)), self.config(s))
            for s in circuit_seeds(seed, self.circuits)
        ]


def circuit_seeds(seed: int, count: int) -> List[int]:
    """Seeds of a run's circuits: the run seed itself, then values
    hashed from it, so runs with nearby seeds share no circuit."""
    seeds = [seed]
    for i in range(1, count):
        digest = hashlib.sha256(f"{seed}:{i}".encode()).hexdigest()
        seeds.append(int(digest[:8], 16))
    return seeds


# One run places each of a workload's circuits once, in about 45 s on a
# 2-CPU host, so that the whole benchmark (4 + 22 runs per workload)
# ends within the hour.  Several circuits per run average out how much
# time and QoR vary from one generated circuit to the next.  At these
# sizes one call takes 7 to 10 s, most of it in the fixed-length
# annealing schedules, so smaller circuits would not be much faster.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="custom-serial-n16",
            why=(
                "all-custom cells on the serial move cascade (aspect, pin and "
                "orientation moves): stage 1 is ~80 % of the run, router and "
                "density ~1 % each"
            ),
            cells=16,
            custom_fraction=1.0,
            mover="serial",
            m_routes=4,
            circuits=5,
            validated=5,
        ),
        Workload(
            name="route-m20-n40",
            why=(
                "the paper's M = 20 route alternatives: the router is ~55 % "
                "of the run, phase-1 path enumeration ~35 % and phase-2 "
                "interchange ~20 %"
            ),
            cells=40,
            custom_fraction=0.25,
            mover="batched",
            m_routes=20,
            circuits=5,
            validated=1,
        ),
    )
}
