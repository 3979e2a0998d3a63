"""Phase two of the global router (§4.2.2): random route interchange.

Each net i owns M_i stored alternatives, enumerated shortest-first; the
interchange algorithm picks one alternative per net, minimizing the total
length L (Eqn 23) subject to the channel-edge capacity constraints.
X (Eqn 24) is the total excess over all channel edges.  Starting from
every net on its shortest route:

* if X = 0 the solution is optimal and final;
* otherwise, repeatedly pick a random overflowed edge, a random net
  through it, and a random alternative with dX <= 0; accept when dX < 0,
  or dX = 0 and dL <= 0.

This sidesteps the classical net-ordering dependence of sequential
rip-up-and-reroute.  The stopping criterion: no overflowed edge remains,
or L and X unchanged for M * N consecutive attempts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .steiner import RouteAlternative

EdgeKey = Tuple[int, int]


@dataclass
class InterchangeResult:
    """Outcome of the route-selection phase."""

    selection: Dict[str, int]
    total_length: float
    overflow: int
    attempts: int = 0
    accepted: int = 0
    converged_shortest: bool = False  # every net on k=1 with X = 0


class RouteSelector:
    """Selects one alternative per net subject to edge capacities.

    The overflowed-edge set is kept up to date by ``_install`` and
    ``_uninstall`` and re-sorted only when it changes; each net's
    alternatives are diffed against its current route once per selection
    change.  Both are pure caches: the interchange draws the same random
    numbers and makes the same choices as a from-scratch recount would.
    """

    def __init__(
        self,
        alternatives: Dict[str, Sequence[RouteAlternative]],
        capacities: Dict[EdgeKey, Optional[int]],
    ) -> None:
        for net, alts in alternatives.items():
            if not alts:
                raise ValueError(f"net {net!r} has no route alternatives")
            lengths = [a.length for a in alts]
            if lengths != sorted(lengths):
                raise ValueError(f"alternatives for net {net!r} not sorted")
        self.alternatives = {net: list(alts) for net, alts in alternatives.items()}
        self.capacities = capacities
        # Only capacitated edges can overflow; the rest never enter X.
        self._caps: Dict[EdgeKey, int] = {
            e: c for e, c in capacities.items() if c is not None
        }
        self.selection: Dict[str, int] = {net: 0 for net in self.alternatives}
        self._density: Dict[EdgeKey, int] = {}
        self._nets_on_edge: Dict[EdgeKey, set] = {}
        self._length = 0.0
        self._overflow = 0
        self._hot: Set[EdgeKey] = set()
        self._hot_sorted: Optional[List[EdgeKey]] = []
        # net -> per-alternative (capacitated edges removed, capacitated
        # edges added, dL) relative to the net's current selection.
        self._diffs: Dict[str, List[Tuple[tuple, tuple, float]]] = {}
        for net in self.alternatives:
            self._install(net, 0)

    # -- bookkeeping -------------------------------------------------------

    def _set_density(self, edge: EdgeKey, old: int, new: int) -> None:
        """Move ``edge`` from density ``old`` to ``new``, keeping X and
        the overflowed-edge set in step."""
        if new:
            self._density[edge] = new
        else:
            del self._density[edge]
        cap = self._caps.get(edge)
        if cap is None:
            return
        self._overflow += max(0, new - cap) - max(0, old - cap)
        if (new > cap) != (old > cap):
            if new > cap:
                self._hot.add(edge)
            else:
                self._hot.discard(edge)
            self._hot_sorted = None

    def _install(self, net: str, k: int) -> None:
        alt = self.alternatives[net][k]
        self.selection[net] = k
        self._length += alt.length
        density = self._density
        for edge in alt.edges:
            old = density.get(edge, 0)
            self._set_density(edge, old, old + 1)
            self._nets_on_edge.setdefault(edge, set()).add(net)

    def _uninstall(self, net: str) -> None:
        k = self.selection[net]
        alt = self.alternatives[net][k]
        self._diffs.pop(net, None)
        self._length -= alt.length
        density = self._density
        for edge in alt.edges:
            old = density[edge]
            self._set_density(edge, old, old - 1)
            users = self._nets_on_edge[edge]
            users.discard(net)
            if not users:
                del self._nets_on_edge[edge]

    # -- queries ------------------------------------------------------------

    @property
    def total_length(self) -> float:
        return self._length

    @property
    def overflow(self) -> int:
        return self._overflow

    def density(self, edge: EdgeKey) -> int:
        return self._density.get(edge, 0)

    def overflowed_edges(self) -> List[EdgeKey]:
        # Sorted: the rng draws an index into this list, so its order
        # must not depend on dict/set layout.
        if self._hot_sorted is None:
            self._hot_sorted = sorted(self._hot)
        return list(self._hot_sorted)

    def selected_route(self, net: str) -> RouteAlternative:
        return self.alternatives[net][self.selection[net]]

    def routes(self) -> Dict[str, FrozenSet[EdgeKey]]:
        return {net: self.selected_route(net).edges for net in self.alternatives}

    # -- the interchange loop -------------------------------------------------

    def _net_diffs(self, net: str) -> List[Tuple[tuple, tuple, float]]:
        diffs = self._diffs.get(net)
        if diffs is None:
            caps = self._caps
            cur = self.selected_route(net)
            diffs = [
                (
                    tuple(e for e in cur.edges - alt.edges if e in caps),
                    tuple(e for e in alt.edges - cur.edges if e in caps),
                    alt.length - cur.length,
                )
                for alt in self.alternatives[net]
            ]
            self._diffs[net] = diffs
        return diffs

    def _delta(self, net: str, k: int) -> Tuple[int, float]:
        """(dX, dL) of switching ``net`` to alternative ``k``."""
        removed, added, d_len = self._net_diffs(net)[k]
        caps = self._caps
        density = self._density
        d_x = 0
        # An edge contributes only while its density exceeds capacity
        # after (added) or before (removed) the switch.
        for edge in removed:
            cap = caps[edge]
            old = density[edge]
            if old > cap:
                d_x += max(0, old - 1 - cap) - (old - cap)
        for edge in added:
            cap = caps[edge]
            new = density.get(edge, 0) + 1
            if new > cap:
                d_x += (new - cap) - max(0, new - 1 - cap)
        return (d_x, d_len)

    def run(
        self,
        rng: random.Random,
        stagnation_limit: Optional[int] = None,
    ) -> InterchangeResult:
        """Execute the random interchange until X = 0 or stagnation.

        ``stagnation_limit`` defaults to M * N (alternatives per net times
        number of nets), the paper's criterion.
        """
        n_nets = len(self.alternatives)
        m = max((len(a) for a in self.alternatives.values()), default=1)
        limit = stagnation_limit if stagnation_limit is not None else m * n_nets
        attempts = 0
        accepted = 0
        stagnant = 0

        while self._overflow > 0 and stagnant < limit:
            hot = self.overflowed_edges()
            if not hot:
                break
            edge = hot[rng.randrange(len(hot))]
            users = sorted(self._nets_on_edge.get(edge, ()))
            if not users:
                stagnant += 1
                continue
            net = users[rng.randrange(len(users))]
            current = self.selection[net]
            deltas = {
                k: self._delta(net, k)
                for k in range(len(self.alternatives[net]))
                if k != current
            }
            options = [k for k, (d_x, _) in deltas.items() if d_x <= 0]
            attempts += 1
            if not options:
                stagnant += 1
                continue
            k = options[rng.randrange(len(options))]
            d_x, d_len = deltas[k]
            if d_x < 0 or (d_x == 0 and d_len <= 0):
                self._uninstall(net)
                self._install(net, k)
                accepted += 1
                # Only a strict drop in X or L resets the count (the
                # paper stops once both are unchanged for M * N
                # attempts): a zero-delta switch would otherwise let a
                # net flip between two equal alternatives forever.
                stagnant = 0 if d_x < 0 or d_len < 0 else stagnant + 1
            else:
                stagnant += 1

        converged = self._overflow == 0 and all(
            k == 0 for k in self.selection.values()
        )
        return InterchangeResult(
            selection=dict(self.selection),
            total_length=self._length,
            overflow=self._overflow,
            attempts=attempts,
            accepted=accepted,
            converged_shortest=converged,
        )
