"""The placement state: cell positions, caches, and the three-term cost.

This is the mutable object both annealing stages operate on.  It tracks,
incrementally:

* ``C1`` — the TEIC of Eqn 6 (weighted net spans over exact pin positions),
* ``C2`` — the overlap penalty of Eqns 7-8 over *expanded* cell tiles
  (dynamic interconnect-area borders in stage 1, static per-side
  expansions in stage 2), including overlap with the four dummy border
  cells that keep cells inside the core (footnote 16),
* ``C3`` — the pin-site capacity penalty of Eqns 10-11 for custom cells.

Moves are applied through ``move_cell`` / ``swap_cells`` /
``move_pin_group`` (plus the aspect-inverted variants), each of which
returns the cost delta and an :class:`ArraySnapshot` that ``restore``
undoes exactly (no float drift on rejection).

Two layers
----------

The authoring / IO layer is the object model: ``records`` (one
:class:`CellRecord` per cell), ``TileSet`` shapes, and name-keyed pin
dicts.  Construction, ``state_dict``, legalization, and every cold
accessor work on it.

The per-move hot path works on a struct-of-arrays mirror instead:

* cell geometry     — flat parallel lists of expanded bounding boxes and
  (for multi-tile cells) per-tile coordinate tuples,
* pin positions     — one flat coordinate pair per pin, indexed by a
  per-cell slot table instead of name-keyed dicts, plus each pin's
  world-frame offset from its cell's center,
* net incidence     — integer net ids with flat member-pin-id lists,
  weights, and spans,
* pin groups        — per (cell, group) the member slots and the
  incident net ids, and per custom cell a site-occupancy count from
  which the C3 penalty is re-summed,
* variant caches    — per-(instance|aspect, orientation) oriented-bbox
  tuples, flattened once from the object-model shape cache, and
  per-(instance, orientation) offset tables of the committed pins.

A pin-group move is group-local: it writes only the group's pin slots,
re-spans only the nets those pins are on, and shifts the group's counts
in the cell's site occupancy.  A displacement only translates the
stored offsets; an orientation, instance or aspect change refills them
from the committed-pin table and each group's current sites.

``rebuild()`` refills the mirror from the records, so every cold entry
point (``randomize``, ``load_state_dict``, legalization,
``set_static_expansions``) leaves it valid; the move methods write both
the mirror and the authoritative ``records``.

Correctness contract
--------------------

The incremental accumulators equal ``rebuild()`` and
``cost_breakdown_fresh()`` to rounding after any move/restore sequence.
Both are from-scratch evaluations over the ``TileSet`` geometry (an
all-pairs overlap loop, ``weighted_length`` per net) and share none of
the incremental code.  Within the hot path every accumulation runs in
an order that is a function of the placement alone (see
``_apply_pair`` and ``_sum_c3``), so a checkpoint-resumed run replays
bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..estimator import CorePlan
from ..geometry import BOTTOM, LEFT, RIGHT, TOP, Rect, TileSet
from ..geometry import orientation as ori
from ..netlist import Circuit, CustomCell, MacroCell
from .spatial import UniformGridIndex

#: Default kappa of Eqn 10 — drives pin-site overflow to zero late in stage 1.
DEFAULT_KAPPA = 5.0

#: Per-cell cap on memoized oriented shapes / pin offsets (custom-cell
#: aspect ratios are continuous, so those cache keys are unbounded).
_SHAPE_CACHE_LIMIT = 64

#: Per-cell cap on flattened oriented-geometry entries (each one is a
#: handful of floats).
_FLAT_CACHE_LIMIT = 512

_SIDES = (LEFT, RIGHT, BOTTOM, TOP)
#: Side -> its block in a custom cell's site-occupancy count, which is
#: side-major in ``_SIDES`` order, then site index: the canonical order
#: the C3 penalty is summed in.
_SIDE_RANK = {side: rank for rank, side in enumerate(_SIDES)}
_SIDE_DIRS = {LEFT: (-1.0, 0.0), RIGHT: (1.0, 0.0), BOTTOM: (0.0, -1.0), TOP: (0.0, 1.0)}


def _compute_world_side(canonical_side: str, orientation: int) -> str:
    dx, dy = _SIDE_DIRS[canonical_side]
    wx, wy = ori.transform_point(orientation, dx, dy)
    for side, (sx, sy) in _SIDE_DIRS.items():
        if (sx, sy) == (wx, wy):
            return side
    raise AssertionError("orientation must permute the four sides")


#: orientation -> {canonical side -> world side} (precomputed: the mapping
#: sits on the stage-1 hot path via the dynamic expansion).
_SIDE_MAP = tuple(
    {s: _compute_world_side(s, o) for s in _SIDES}
    for o in range(ori.N_ORIENTATIONS)
)

#: orientation -> {world side -> canonical side} (the inverse mapping).
_SIDE_MAP_INV = tuple(
    {world: canonical for canonical, world in _SIDE_MAP[o].items()}
    for o in range(ori.N_ORIENTATIONS)
)


def world_side(canonical_side: str, orientation: int) -> str:
    """The world-frame side that a canonical cell side faces after the
    orientation transform (e.g. LEFT under R90 faces BOTTOM)."""
    return _SIDE_MAP[orientation][canonical_side]


@dataclass(slots=True)
class CellRecord:
    """Mutable placement attributes of one cell."""

    center: Tuple[float, float]
    orientation: int = 0
    instance: int = 0
    aspect_ratio: Optional[float] = None
    #: custom cells: pin-group key -> (canonical side, starting site index).
    pin_sites: Dict[str, Tuple[str, int]] = field(default_factory=dict)


class ArraySnapshot:
    """Undo token of one move: plain scalars and short lists.

    ``kind`` selects the restore path: 0 = single-cell geometry move,
    1 = pair interchange, 2 = pin-group reassignment (no geometry saved,
    and only the group's own pin slots).  ``offsets`` holds the pin
    offsets and custom-cell dimensions of a move that changes a cell's
    orientation, instance or aspect ratio, and is None otherwise.
    """

    __slots__ = (
        "kind",
        "cost_before",
        "cells",
        "recs",
        "ebbs",
        "exp_refs",
        "shape_refs",
        "pins",
        "offsets",
        "spans",
        "overlaps",
        "borders",
        "c3s",
        "pin_site",
        "c1",
        "c2_raw",
        "c3_total",
    )

    def __init__(self, kind, cost_before, cells, recs, ebbs, exp_refs,
                 shape_refs, pins, offsets, spans, overlaps, borders, c3s,
                 pin_site, c1, c2_raw, c3_total):
        self.kind = kind
        self.cost_before = cost_before
        self.cells = cells
        self.recs = recs
        self.ebbs = ebbs
        self.exp_refs = exp_refs
        self.shape_refs = shape_refs
        self.pins = pins
        self.offsets = offsets
        self.spans = spans
        self.overlaps = overlaps
        self.borders = borders
        self.c3s = c3s
        self.pin_site = pin_site
        self.c1 = c1
        self.c2_raw = c2_raw
        self.c3_total = c3_total


class PlacementState:
    """Placement of a circuit inside a core region, with incremental cost."""

    def __init__(
        self,
        circuit: Circuit,
        plan: CorePlan,
        p2: float = 1.0,
        kappa: float = DEFAULT_KAPPA,
        dynamic_expansion: bool = True,
        static_expansions: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> None:
        self.circuit = circuit
        self.plan = plan
        self.core = plan.core
        self.estimator = plan.estimator
        self.p2 = p2
        self.kappa = kappa
        self.dynamic_expansion = dynamic_expansion

        self.names: List[str] = list(circuit.cells)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)

        #: Pre-placed cells (FixedPlacement) are never moved or reshaped.
        self.movable: List[bool] = [
            not circuit.cells[name].is_fixed for name in self.names
        ]
        self._is_macro: List[bool] = [
            isinstance(circuit.cells[name], MacroCell) for name in self.names
        ]

        # Static (stage-2) per-world-side expansions, name -> side -> margin.
        self._static: List[Dict[str, float]] = [
            dict((static_expansions or {}).get(name, {})) for name in self.names
        ]

        # Net membership: cell idx -> list of net names; net name -> the
        # (cell index, pin name) pairs its span is computed from.
        self._cell_nets: List[List[str]] = [[] for _ in range(n)]
        self._net_members: Dict[str, List[Tuple[int, str]]] = {}
        for net in circuit.nets.values():
            members = []
            touched = set()
            for ref in net.pins:
                idx = self.index[ref.cell]
                members.append((idx, ref.pin))
                if idx not in touched:
                    touched.add(idx)
                    self._cell_nets[idx].append(net.name)
            self._net_members[net.name] = members

        # Canonical-side pin densities for macro cells (static per instance).
        self._side_density: List[Optional[Dict[str, float]]] = [
            self._macro_side_density(i) for i in range(n)
        ]

        # Pin-group structure for custom cells: idx -> [(key, [pin names])],
        # and per group the sorted sides it may sit on — those all of its
        # members allow, or the first member's when they share none.
        self._groups: List[List[Tuple[str, List[str]]]] = []
        self._group_sides: List[List[Tuple[str, ...]]] = []
        for name in self.names:
            cell = circuit.cells[name]
            groups: List[Tuple[str, List[str]]] = []
            sides: List[Tuple[str, ...]] = []
            if isinstance(cell, CustomCell):
                for key, pins in cell.pin_groups().items():
                    groups.append((key, [p.name for p in pins]))
                    allowed = frozenset.intersection(*(p.sides for p in pins))
                    sides.append(tuple(sorted(allowed or pins[0].sides)))
            self._groups.append(groups)
            self._group_sides.append(sides)
        # Inverse lookup, idx -> {pin name -> (group key, member index)},
        # precomputed once for the pin-offset builder.
        self._pin_group_of: List[Dict[str, Tuple[str, int]]] = [
            {
                pin: (key, k)
                for key, members in groups
                for k, pin in enumerate(members)
            }
            for groups in self._groups
        ]

        # Border slabs (the four dummy cells of footnote 16).
        big = 10.0 * max(self.core.width, self.core.height)
        c = self.core
        self._slabs = (
            Rect(c.x1 - big, c.y1 - big, c.x1, c.y2 + big),        # left
            Rect(c.x2, c.y1 - big, c.x2 + big, c.y2 + big),        # right
            Rect(c.x1 - big, c.y1 - big, c.x2 + big, c.y1),        # bottom
            Rect(c.x1 - big, c.y2, c.x2 + big, c.y2 + big),        # top
        )

        # Placement records: default everything at the core center.
        self.records: List[CellRecord] = [self._default_record(i) for i in range(n)]

        # Memoized oriented local shapes, keyed (instance|aspect,
        # orientation), and macro world-frame pin offsets, keyed
        # (instance, orientation): a displacement changes neither.
        # Custom-cell aspect ratios are continuous, so the shape cache is
        # bounded (cleared when it grows past the limit).
        self._shape_cache: List[Dict[Tuple, TileSet]] = [dict() for _ in range(n)]
        self._pin_offset_cache: List[
            Dict[Tuple, Dict[str, Tuple[float, float]]]
        ] = [dict() for _ in range(n)]
        self._build_incidence()

        # Object-model geometry, built by rebuild().  The hot path leaves
        # both entries of a moved cell stale (None) — only the flat
        # mirror feeds the cost terms — and the accessors materialize
        # them on demand.
        self._shapes: List[TileSet] = [None] * n  # type: ignore[list-item]
        self._expanded: List[TileSet] = [None] * n  # type: ignore[list-item]
        # The flat mirror, filled by rebuild(): expanded bboxes, tiles
        # (None for single-tile cells: the bbox *is* the tile), pin
        # coordinates, and net spans.
        self._lex1: List[float] = [0.0] * n
        self._ley1: List[float] = [0.0] * n
        self._lex2: List[float] = [0.0] * n
        self._ley2: List[float] = [0.0] * n
        self._ltiles: List[Optional[Tuple]] = [None] * n
        self._lpx: List[float] = [0.0] * self._num_pins
        self._lpy: List[float] = [0.0] * self._num_pins
        # World-frame pin offsets from the cell center: _lpx == cx + _lox.
        self._lox: List[float] = [0.0] * self._num_pins
        self._loy: List[float] = [0.0] * self._num_pins
        # Custom cells with pin groups: (width, height, per-side site
        # capacities in _SIDES order) at the current aspect ratio, and
        # the pin count of every site (see _SIDE_RANK).
        self._cdims: List[Optional[Tuple]] = [None] * n
        self._occ: List[Optional[List[int]]] = [None] * n
        self._lsx: List[float] = [0.0] * len(self._net_names)
        self._lsy: List[float] = [0.0] * len(self._net_names)
        self._stat4: List[Tuple[float, float, float, float]] = []
        self._overlaps: Dict[Tuple[int, int], float] = {}
        #: idx -> indices it currently overlaps (mirror of _overlaps, so
        #: moves and restores touch only actual partners).
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        #: Broad-phase index over expanded-cell bboxes (built by rebuild).
        self._grid: UniformGridIndex = UniformGridIndex(1.0)
        self._borders: List[float] = [0.0] * n
        self._c3: List[float] = [0.0] * n
        self._c1 = 0.0
        self._c2_raw = 0.0
        self._c3_total = 0.0
        self.rebuild()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _default_record(self, idx: int) -> CellRecord:
        cell = self.circuit.cells[self.names[idx]]
        if cell.fixed is not None:
            record = CellRecord(
                center=(cell.fixed.x, cell.fixed.y),
                orientation=cell.fixed.orientation,
            )
        else:
            record = CellRecord(center=(self.core.center.x, self.core.center.y))
        if isinstance(cell, CustomCell):
            record.aspect_ratio = cell.aspect.default()
            for g, (key, _) in enumerate(self._groups[idx]):
                record.pin_sites[key] = (
                    self._group_sides[idx][g][0],
                    g % cell.sites_per_edge,
                )
        return record

    def _macro_side_density(self, idx: int) -> Optional[Dict[str, float]]:
        cell = self.circuit.cells[self.names[idx]]
        if not isinstance(cell, MacroCell):
            return None
        inst = cell.instances[0]
        edges = inst.shape.boundary_edges()
        side_len: Dict[str, float] = {s: 0.0 for s in _SIDES}
        for e in edges:
            side_len[e.side] += e.length
        counts: Dict[str, int] = {s: 0 for s in _SIDES}
        for pin in cell.pins.values():
            px, py = inst.pin_offset(pin)
            best = None
            best_d = None
            for e in edges:
                if e.is_vertical:
                    d = abs(px - e.position) + max(0.0, e.lo - py, py - e.hi)
                else:
                    d = abs(py - e.position) + max(0.0, e.lo - px, px - e.hi)
                if best_d is None or d < best_d:
                    best_d = d
                    best = e.side
            counts[best] += 1  # type: ignore[index]
        return {
            s: (counts[s] / side_len[s]) if side_len[s] > 0 else 0.0 for s in _SIDES
        }

    def _build_incidence(self) -> None:
        """Immutable flat incidence structure: pin slots, net ids,
        per-orientation densities, border slabs."""
        n = len(self.names)
        circuit = self.circuit

        # Flat pin slots: per-cell contiguous ranges in cell.pins order
        # (the iteration order _pin_positions builds its dicts in).
        self._pin_start: List[int] = []
        self._pin_count: List[int] = []
        self._pin_names: List[Tuple[str, ...]] = []
        self._pin_slot: List[Dict[str, int]] = []
        total = 0
        for i in range(n):
            names = tuple(self.cell(i).pins)
            self._pin_start.append(total)
            self._pin_count.append(len(names))
            self._pin_names.append(names)
            self._pin_slot.append(
                {name: total + k for k, name in enumerate(names)}
            )
            total += len(names)
        self._num_pins = total

        # Net ids in circuit.nets order; members as flat pin ids.
        self._net_names: List[str] = list(circuit.nets)
        self._nid: Dict[str, int] = {
            name: e for e, name in enumerate(self._net_names)
        }
        self._nmem: List[List[int]] = []
        self._nh: List[float] = []
        self._nv: List[float] = []
        for name in self._net_names:
            net = circuit.nets[name]
            self._nmem.append(
                [self._pin_slot[idx][pin] for idx, pin in self._net_members[name]]
            )
            self._nh.append(net.h_weight)
            self._nv.append(net.v_weight)
        #: Rank of each net id under name ordering: pair moves visit
        #: their nets sorted by rank (see _apply_pair).
        self._nrank: List[int] = [0] * len(self._net_names)
        for rank, name in enumerate(sorted(self._net_names)):
            self._nrank[self._nid[name]] = rank
        self._cnets: List[List[int]] = [
            [self._nid[name] for name in self._cell_nets[i]] for i in range(n)
        ]

        # Macro side densities resolved per orientation (static data).
        self._dens8: List[Optional[Tuple[Tuple, ...]]] = []
        for i in range(n):
            dens = self._side_density[i]
            if dens is None:
                self._dens8.append(None)
            else:
                self._dens8.append(
                    tuple(
                        (
                            dens[_SIDE_MAP_INV[o][LEFT]],
                            dens[_SIDE_MAP_INV[o][BOTTOM]],
                            dens[_SIDE_MAP_INV[o][RIGHT]],
                            dens[_SIDE_MAP_INV[o][TOP]],
                        )
                        for o in range(8)
                    )
                )
        self._slab4: Tuple[Tuple[float, float, float, float], ...] = tuple(
            (s.x1, s.y1, s.x2, s.y2) for s in self._slabs
        )
        self._has_groups: List[bool] = [bool(g) for g in self._groups]
        self._nsites: List[int] = [
            getattr(self.cell(i), "sites_per_edge", 0) for i in range(n)
        ]

        # Group-local pin moves: per (cell, group) the member slots in
        # group order and the ids of the nets they are on, in _cnets
        # order.  A net no member is on keeps its span, so its C1 term
        # would be exactly +0.0 and skipping it leaves C1 bit-identical.
        self._gindex: List[Dict[str, int]] = []
        self._gslots: List[List[Tuple[int, ...]]] = []
        self._gnets: List[List[Tuple[int, ...]]] = []
        for i in range(n):
            slot = self._pin_slot[i]
            gslots = [
                tuple(slot[m] for m in members) for _, members in self._groups[i]
            ]
            self._gindex.append(
                {key: g for g, (key, _) in enumerate(self._groups[i])}
            )
            self._gslots.append(gslots)
            self._gnets.append(
                [
                    tuple(
                        e for e in self._cnets[i]
                        if not members.isdisjoint(self._nmem[e])
                    )
                    for members in map(set, gslots)
                ]
            )
        # Committed pins — every macro pin — as (slot, pin): their
        # offsets depend on the instance and orientation alone.
        self._committed: List[Tuple[Tuple[int, object], ...]] = [
            tuple(
                (self._pin_slot[i][pin.name], pin)
                for pin in self.cell(i).pins.values()
                if self._is_macro[i] or pin.is_committed
            )
            for i in range(n)
        ]

        # Flattened variant caches: (instance|aspect, orientation) ->
        # oriented bbox (+tiles), filled lazily from the object model's
        # shape cache so the geometry math has a single source; and
        # (instance, orientation) -> ((slot, wx, wy), ...) of the
        # committed pins (at most 8 per instance).
        self._g_flat: List[Dict[Tuple, Tuple]] = [dict() for _ in range(n)]
        self._c_flat: List[Dict[Tuple, Tuple]] = [dict() for _ in range(n)]

    # ------------------------------------------------------------------
    # world-frame geometry
    # ------------------------------------------------------------------

    def cell(self, idx: int):
        return self.circuit.cells[self.names[idx]]

    def _local_shape(self, idx: int) -> TileSet:
        cell = self.cell(idx)
        record = self.records[idx]
        if isinstance(cell, MacroCell):
            return cell.instances[record.instance].shape
        assert record.aspect_ratio is not None
        return cell.shape_for(record.aspect_ratio)

    def _oriented_shape(self, idx: int) -> TileSet:
        """The cell's shape in its current orientation, origin-centered
        (memoized: a displacement changes neither input)."""
        record = self.records[idx]
        if self._is_macro[idx]:
            key: Tuple = (record.instance, record.orientation)
        else:
            key = (record.aspect_ratio, record.orientation)
        cache = self._shape_cache[idx]
        shape = cache.get(key)
        if shape is None:
            if len(cache) >= _SHAPE_CACHE_LIMIT:
                cache.clear()
            shape = self._local_shape(idx).transformed(record.orientation)
            cache[key] = shape
        return shape

    def _world_shape(self, idx: int) -> TileSet:
        return self._oriented_shape(idx).translated(*self.records[idx].center)

    def _expansions(
        self, idx: int, x1: float, y1: float, x2: float, y2: float
    ) -> Tuple[float, float, float, float]:
        """Outward (left, bottom, right, top) expansion of a cell whose
        world bbox is (x1, y1, x2, y2) — the dynamic estimator of §2.2,
        or the static table."""
        if not self.dynamic_expansion:
            static = self._static[idx]
            return (
                static.get(LEFT, 0.0),
                static.get(BOTTOM, 0.0),
                static.get(RIGHT, 0.0),
                static.get(TOP, 0.0),
            )
        densities = self._side_density[idx]
        if densities is None:
            d_left = d_bottom = d_right = d_top = None
        else:
            inverse = _SIDE_MAP_INV[self.records[idx].orientation]
            d_left = densities[inverse[LEFT]]
            d_bottom = densities[inverse[BOTTOM]]
            d_right = densities[inverse[RIGHT]]
            d_top = densities[inverse[TOP]]
        return self.estimator.side_expansions(
            x1, y1, x2, y2, d_left, d_bottom, d_right, d_top
        )

    def _expanded_shape(self, idx: int, world: TileSet) -> TileSet:
        bbox = world.bbox
        left, bottom, right, top = self._expansions(
            idx, bbox.x1, bbox.y1, bbox.x2, bbox.y2
        )
        return world.expanded_per_side(left, bottom, right, top)

    def _pin_offsets(self, idx: int) -> Dict[str, Tuple[float, float]]:
        """World-frame offsets of the cell's pins from its center, in
        ``cell.pins`` order — the from-scratch reference."""
        record = self.records[idx]
        if self._is_macro[idx]:
            # Macro pin offsets in the world frame depend only on the
            # instance and orientation — memoized.
            key = (record.instance, record.orientation)
            offsets = self._pin_offset_cache[idx].get(key)
            if offsets is None:
                cell = self.cell(idx)
                inst = cell.instances[record.instance]
                offsets = {}
                for pin in cell.pins.values():
                    lx, ly = inst.pin_offset(pin)
                    offsets[pin.name] = ori.transform_point(
                        record.orientation, lx, ly
                    )
                self._pin_offset_cache[idx][key] = offsets
            return offsets
        cell = self.cell(idx)
        assert isinstance(cell, CustomCell) and record.aspect_ratio is not None
        width, height = cell.dimensions(record.aspect_ratio)
        nsites = cell.sites_per_edge
        offsets = {}
        for pin in cell.pins.values():
            if pin.is_committed:
                lx, ly = pin.offset  # type: ignore[misc]
            else:
                key, member_idx = self._group_of(idx, pin.name)
                side, start = record.pin_sites[key]
                site_idx = (start + member_idx) % nsites
                lx, ly = _site_position(side, site_idx, nsites, width, height)
            offsets[pin.name] = ori.transform_point(record.orientation, lx, ly)
        return offsets

    def _pin_positions(self, idx: int) -> Dict[str, Tuple[float, float]]:
        """World pin positions of the cell, by pin name (reference)."""
        cx, cy = self.records[idx].center
        return {
            name: (cx + wx, cy + wy)
            for name, (wx, wy) in self._pin_offsets(idx).items()
        }

    def _group_of(self, idx: int, pin_name: str) -> Tuple[str, int]:
        try:
            return self._pin_group_of[idx][pin_name]
        except KeyError:
            raise KeyError(
                f"pin {pin_name!r} has no group on cell {self.names[idx]!r}"
            ) from None

    # ------------------------------------------------------------------
    # from-scratch reference
    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute every cache, mirror, and accumulator from the records.

        This is the from-scratch reference the incremental move path is
        tested against, and it shares none of that path's code: geometry
        comes from the ``TileSet`` math, spans from a plain min/max scan,
        and the overlap pass deliberately stays the all-pairs loop
        (bbox-rejected); the broad-phase grid and the adjacency map are
        rebuilt alongside it.
        """
        n = len(self.names)
        lpx = self._lpx
        lpy = self._lpy
        lox = self._lox
        loy = self._loy
        for i in range(n):
            world = self._world_shape(i)
            exp = self._expanded_shape(i, world)
            self._shapes[i] = world
            self._expanded[i] = exp
            bb = exp.bbox
            self._lex1[i] = bb.x1
            self._ley1[i] = bb.y1
            self._lex2[i] = bb.x2
            self._ley2[i] = bb.y2
            tiles = exp._tiles
            self._ltiles[i] = (
                None
                if len(tiles) == 1
                else tuple((t.x1, t.y1, t.x2, t.y2) for t in tiles)
            )
            offsets = self._pin_offsets(i)
            cx, cy = self.records[i].center
            for p, name in enumerate(self._pin_names[i], self._pin_start[i]):
                wx, wy = offsets[name]
                lox[p] = wx
                loy[p] = wy
                lpx[p] = cx + wx
                lpy[p] = cy + wy
            if self._has_groups[i]:
                self._cdims[i] = self._custom_dims(i)
                self._occ[i] = self._site_occupancy(i)
            self._c3[i] = self._cell_c3(i)
        self._c1 = 0.0
        for e, net in enumerate(self.circuit.nets.values()):
            span_x = span_y = 0.0
            members = self._nmem[e]
            if members:
                x_lo = x_hi = lpx[members[0]]
                y_lo = y_hi = lpy[members[0]]
                for p in members:
                    x_lo = min(x_lo, lpx[p])
                    x_hi = max(x_hi, lpx[p])
                    y_lo = min(y_lo, lpy[p])
                    y_hi = max(y_hi, lpy[p])
                span_x = x_hi - x_lo
                span_y = y_hi - y_lo
            self._lsx[e] = span_x
            self._lsy[e] = span_y
            self._c1 += net.weighted_length(span_x, span_y)
        self._stat4 = [
            (
                static.get(LEFT, 0.0),
                static.get(BOTTOM, 0.0),
                static.get(RIGHT, 0.0),
                static.get(TOP, 0.0),
            )
            for static in self._static
        ]
        self._grid = UniformGridIndex.for_bboxes(
            [shape.bbox for shape in self._expanded]
        )
        for i in range(n):
            self._grid.insert(i, self._expanded[i].bbox)
        self._overlaps = {}
        self._adj = [set() for _ in range(n)]
        self._c2_raw = 0.0
        for i in range(n):
            self._borders[i] = self._border_overlap(self._expanded[i])
            self._c2_raw += self._borders[i]
            for j in range(i + 1, n):
                area = self._expanded[i].overlap_area(self._expanded[j])
                if area > 0.0:
                    self._overlaps[(i, j)] = area
                    self._adj[i].add(j)
                    self._adj[j].add(i)
                    self._c2_raw += area
        self._c3_total = sum(self._c3)

    def _border_overlap(self, exp: TileSet) -> float:
        bbox = exp.bbox
        core = self.core
        # The slabs tile the plane outside the core, so a shape whose
        # bbox stays inside the core cannot touch any of them — the
        # common case for every in-core move.
        if (
            bbox.x1 >= core.x1
            and bbox.x2 <= core.x2
            and bbox.y1 >= core.y1
            and bbox.y2 <= core.y2
        ):
            return 0.0
        total = 0.0
        for slab in self._slabs:
            if not bbox.intersects(slab):
                continue
            for tile in exp.tiles:
                total += tile.overlap_area(slab)
        return total

    def _cell_c3(self, idx: int) -> float:
        if self._is_macro[idx] or not self._groups[idx]:
            return 0.0
        cell = self.cell(idx)
        assert isinstance(cell, CustomCell)
        record = self.records[idx]
        assert record.aspect_ratio is not None
        width, height = cell.dimensions(record.aspect_ratio)
        nsites = cell.sites_per_edge
        pitch = cell.pin_pitch
        occupancy: Dict[Tuple[int, int], int] = {}
        for key, members in self._groups[idx]:
            side, start = record.pin_sites[key]
            for k in range(len(members)):
                site = (_SIDE_RANK[side], (start + k) % nsites)
                occupancy[site] = occupancy.get(site, 0) + 1
        # Summed in the canonical site order (side-major, then site
        # index), as the hot path's re-sum is: at a non-integer kappa the
        # terms are not integers, and a resumed run must agree bit for bit.
        penalty = 0.0
        for (rank, _), count in sorted(occupancy.items()):
            edge_len = height if _SIDES[rank] in (LEFT, RIGHT) else width
            capacity = max(1, int(edge_len / pitch / nsites))
            if count > capacity:
                excess = count - capacity + self.kappa
                penalty += excess * excess
        return penalty

    def cost_breakdown_fresh(self) -> Tuple[float, float, float]:
        """(C1, C2_raw, C3) recomputed from the records, read-only —
        the reference the drift guard reconciles the accumulators
        against.  Touches none of the incremental bookkeeping."""
        n = len(self.names)
        expanded = [
            self._expanded_shape(i, self._world_shape(i)) for i in range(n)
        ]
        pins = [self._pin_positions(i) for i in range(n)]
        c1 = 0.0
        for net in self.circuit.nets.values():
            members = self._net_members[net.name]
            if not members:
                continue
            x, y = pins[members[0][0]][members[0][1]]
            x_lo = x_hi = x
            y_lo = y_hi = y
            for idx, pin_name in members:
                x, y = pins[idx][pin_name]
                x_lo = min(x_lo, x)
                x_hi = max(x_hi, x)
                y_lo = min(y_lo, y)
                y_hi = max(y_hi, y)
            c1 += net.weighted_length(x_hi - x_lo, y_hi - y_lo)
        c2 = 0.0
        for i in range(n):
            c2 += self._border_overlap(expanded[i])
            for j in range(i + 1, n):
                c2 += expanded[i].overlap_area(expanded[j])
        c3 = sum(self._cell_c3(i) for i in range(n))
        return c1, c2, c3

    def cost_drift(self) -> Dict[str, float]:
        """Accumulated-minus-fresh difference of each cost term, plus
        the largest difference normalized by the term's magnitude."""
        fresh_c1, fresh_c2, fresh_c3 = self.cost_breakdown_fresh()
        pairs = (
            (self._c1 - fresh_c1, fresh_c1),
            (self._c2_raw - fresh_c2, fresh_c2),
            (self._c3_total - fresh_c3, fresh_c3),
        )
        return {
            "c1": pairs[0][0],
            "c2_raw": pairs[1][0],
            "c3": pairs[2][0],
            "max_relative": max(
                abs(diff) / max(1.0, abs(ref)) for diff, ref in pairs
            ),
        }

    def resync(self) -> None:
        """Snap the accumulators back to canonical from-scratch values."""
        self.rebuild()

    # ------------------------------------------------------------------
    # cost queries and accessors (the flat mirror is always current; the
    # object-model shapes of moved cells are materialized on demand)
    # ------------------------------------------------------------------

    def c1(self) -> float:
        """The TEIC (Eqn 6)."""
        return self._c1

    def c2_raw(self) -> float:
        """Total overlap area, before the p2 normalization (Eqn 7)."""
        return self._c2_raw

    def c3(self) -> float:
        """The pin-site penalty (Eqn 11)."""
        return self._c3_total

    def cost(self) -> float:
        return self._c1 + self.p2 * self._c2_raw + self._c3_total

    def teil(self) -> float:
        """Total estimated interconnect length: the TEIC with unit weights."""
        lsy = self._lsy
        return sum(sx + lsy[e] for e, sx in enumerate(self._lsx))

    def net_spans(self) -> Dict[str, Tuple[float, float]]:
        """name -> (x span, y span) of every net."""
        return {
            name: (self._lsx[e], self._lsy[e])
            for e, name in enumerate(self._net_names)
        }

    def chip_bbox(self) -> Rect:
        """Bounding box of the expanded cells — the chip outline including
        the interconnect area the estimator reserved."""
        return Rect(
            min(self._lex1), min(self._ley1), max(self._lex2), max(self._ley2)
        )

    def chip_area(self) -> float:
        return self.chip_bbox().area

    def world_shape(self, name: str) -> TileSet:
        idx = self.index[name]
        shape = self._shapes[idx]
        if shape is None:
            shape = self._shapes[idx] = self._world_shape(idx)
        return shape

    def expanded_shape(self, name: str) -> TileSet:
        idx = self.index[name]
        exp = self._expanded[idx]
        if exp is None:
            exp = self._expanded[idx] = self._materialize_expanded(idx)
        return exp

    def _materialize_expanded(self, idx: int) -> TileSet:
        bbox = Rect(self._lex1[idx], self._ley1[idx], self._lex2[idx], self._ley2[idx])
        tiles = self._ltiles[idx]
        rects = [bbox] if tiles is None else [Rect(*t) for t in tiles]
        out = TileSet.__new__(TileSet)
        out._tiles = tuple(rects)
        out._bbox = bbox
        out._area = sum(r.area for r in rects)
        return out

    def pin_position(self, cell_name: str, pin_name: str) -> Tuple[float, float]:
        p = self._pin_slot[self.index[cell_name]][pin_name]
        return (self._lpx[p], self._lpy[p])

    def moves_per_iteration(self) -> int:
        return len(self.names)

    # ------------------------------------------------------------------
    # variant caches
    # ------------------------------------------------------------------

    def _geom_flat(self, i: int, key: Tuple) -> Tuple:
        """(ox1, oy1, ox2, oy2, local_tiles|None) of the oriented shape."""
        cache = self._g_flat[i]
        entry = cache.get(key)
        if entry is None:
            if len(cache) >= _FLAT_CACHE_LIMIT:
                cache.clear()
            ts = self._oriented_shape(i)
            bb = ts.bbox
            tiles = ts._tiles
            entry = (
                bb.x1,
                bb.y1,
                bb.x2,
                bb.y2,
                None
                if len(tiles) == 1
                else tuple((t.x1, t.y1, t.x2, t.y2) for t in tiles),
            )
            cache[key] = entry
        return entry

    def _geom_key(self, i: int) -> Tuple:
        """Cell i's geometry key — the one the shape cache uses."""
        rec = self.records[i]
        if self._is_macro[i]:
            return (rec.instance, rec.orientation)
        return (rec.aspect_ratio, rec.orientation)

    def _committed_flat(self, i: int, instance: int, o: int) -> Tuple:
        """((slot, wx, wy), ...) of cell i's committed pins."""
        cache = self._c_flat[i]
        entry = cache.get((instance, o))
        if entry is None:
            cell = self.cell(i)
            out = []
            for p, pin in self._committed[i]:
                if self._is_macro[i]:
                    lx, ly = cell.instances[instance].pin_offset(pin)
                else:
                    lx, ly = pin.offset
                wx, wy = ori.transform_point(o, lx, ly)
                out.append((p, wx, wy))
            entry = cache[(instance, o)] = tuple(out)
        return entry

    # ------------------------------------------------------------------
    # hot-path helpers
    # ------------------------------------------------------------------

    def _cell_geometry(self, i: int):
        """New expanded bbox (+tiles) for cell i's current record: the
        oriented bbox, ``side_expansions`` on the translated bbox, and
        the composed translate+expand arithmetic."""
        rec = self.records[i]
        ox1, oy1, ox2, oy2, ltiles = self._geom_flat(i, self._geom_key(i))
        cx, cy = rec.center
        if self.dynamic_expansion:
            dens = self._dens8[i]
            if dens is None:
                dl = db = dr = dt = None
            else:
                dl, db, dr, dt = dens[rec.orientation]
            left, bottom, right, top = self.estimator.side_expansions(
                ox1 + cx, oy1 + cy, ox2 + cx, oy2 + cy, dl, db, dr, dt
            )
        else:
            left, bottom, right, top = self._stat4[i]
        if ltiles is None:
            return (
                (ox1 + cx) - left,
                (oy1 + cy) - bottom,
                (ox2 + cx) + right,
                (oy2 + cy) + top,
                None,
            )
        tiles = tuple(
            (
                (tx1 + cx) - left,
                (ty1 + cy) - bottom,
                (tx2 + cx) + right,
                (ty2 + cy) + top,
            )
            for tx1, ty1, tx2, ty2 in ltiles
        )
        return (
            min(t[0] for t in tiles),
            min(t[1] for t in tiles),
            max(t[2] for t in tiles),
            max(t[3] for t in tiles),
            tiles,
        )

    def _border_flat(self, x1, y1, x2, y2, tiles) -> float:
        """Border-slab overlap of an expanded cell given as flat coordinates."""
        core = self.core
        if x1 >= core.x1 and x2 <= core.x2 and y1 >= core.y1 and y2 <= core.y2:
            return 0.0
        if tiles is None:
            tiles = ((x1, y1, x2, y2),)
        total = 0.0
        for sx1, sy1, sx2, sy2 in self._slab4:
            if not (x1 < sx2 and sx1 < x2 and y1 < sy2 and sy1 < y2):
                continue
            for tx1, ty1, tx2, ty2 in tiles:
                w = min(tx2, sx2) - max(tx1, sx1)
                if w <= 0.0:
                    continue
                h = min(ty2, sy2) - max(ty1, sy1)
                if h <= 0.0:
                    continue
                total += w * h
        return total

    def _pair_area_flat(self, x1, y1, x2, y2, tiles_i, j) -> float:
        """Narrow-phase overlap of the (already bbox-accepted) pair, with
        cell i's tiles outermost."""
        tiles_j = self._ltiles[j]
        if tiles_i is None and tiles_j is None:
            jx2 = self._lex2[j]
            jy2 = self._ley2[j]
            return (min(x2, jx2) - max(x1, self._lex1[j])) * (
                min(y2, jy2) - max(y1, self._ley1[j])
            )
        a = ((x1, y1, x2, y2),) if tiles_i is None else tiles_i
        b = (
            ((self._lex1[j], self._ley1[j], self._lex2[j], self._ley2[j]),)
            if tiles_j is None
            else tiles_j
        )
        total = 0.0
        for tx1, ty1, tx2, ty2 in a:
            for ux1, uy1, ux2, uy2 in b:
                w = min(tx2, ux2) - max(tx1, ux1)
                if w <= 0.0:
                    continue
                h = min(ty2, uy2) - max(ty1, uy1)
                if h <= 0.0:
                    continue
                total += w * h
        return total

    def _span_delta(self, net_ids, saved_spans) -> None:
        """Recompute spans of ``net_ids`` (in the given order) and
        accumulate the C1 delta."""
        lpx = self._lpx
        lpy = self._lpy
        lsx = self._lsx
        lsy = self._lsy
        nh = self._nh
        nv = self._nv
        c1 = self._c1
        for e in net_ids:
            mem = self._nmem[e]
            if mem:
                xs = [lpx[p] for p in mem]
                ys = [lpy[p] for p in mem]
                new_x = max(xs) - min(xs)
                new_y = max(ys) - min(ys)
            else:
                new_x = new_y = 0.0
            old_x = lsx[e]
            old_y = lsy[e]
            saved_spans.append((e, old_x, old_y))
            lsx[e] = new_x
            lsy[e] = new_y
            h = nh[e]
            v = nv[e]
            c1 += (new_x * h + new_y * v) - (old_x * h + old_y * v)
        self._c1 = c1

    def _partner_delta(self, i, x1, y1, x2, y2, tiles, skip, saved_over) -> None:
        """Border + partner-pair C2 delta for cell i: border first, then
        grid candidates ∪ adjacency in index order, with pair moves
        skipping the already-handled twin.

        The grid candidates cover every cell the new bbox may intersect
        (gained overlaps) and the adjacency lists the current partners
        (overlaps that may vanish); no other pair term can change.
        """
        old_border = self._borders[i]
        new_border = self._border_flat(x1, y1, x2, y2, tiles)
        self._borders[i] = new_border
        c2 = self._c2_raw + (new_border - old_border)
        partners = self._grid.candidates(i)
        adj = self._adj
        ai = adj[i]
        if ai:
            partners |= ai
        overlaps = self._overlaps
        lex1 = self._lex1
        ley1 = self._ley1
        lex2 = self._lex2
        ley2 = self._ley2
        for j in sorted(partners):
            if skip is not None and j in skip and j < i:
                continue
            key = (i, j) if i < j else (j, i)
            old = overlaps.pop(key, 0.0)
            # Bbox reject (touching boxes share no area, so >=/<= is
            # exact) before the tile-level narrow phase.
            if (
                lex1[j] >= x2
                or lex2[j] <= x1
                or ley1[j] >= y2
                or ley2[j] <= y1
            ):
                new = 0.0
            else:
                new = self._pair_area_flat(x1, y1, x2, y2, tiles, j)
            if new > 0.0:
                overlaps[key] = new
                ai.add(j)
                adj[j].add(i)
            elif old > 0.0:
                ai.discard(j)
                adj[j].discard(i)
            c2 += new - old
            saved_over.append((i, j, old))
        self._c2_raw = c2

    def _commit_geometry(self, i, x1, y1, x2, y2, tiles) -> None:
        self._lex1[i] = x1
        self._ley1[i] = y1
        self._lex2[i] = x2
        self._ley2[i] = y2
        self._ltiles[i] = tiles
        self._shapes[i] = None
        self._expanded[i] = None  # type: ignore[call-overload]
        self._grid.update_coords(i, x1, y1, x2, y2)

    def _custom_dims(self, i) -> Tuple:
        """(width, height, per-side site capacities in _SIDES order) of
        custom cell i at its current aspect ratio."""
        cell = self.cell(i)
        width, height = cell.dimensions(self.records[i].aspect_ratio)
        pitch = cell.pin_pitch
        nsites = cell.sites_per_edge
        vertical = max(1, int(height / pitch / nsites))
        horizontal = max(1, int(width / pitch / nsites))
        return (width, height, (vertical, vertical, horizontal, horizontal))

    def _site_occupancy(self, i) -> List[int]:
        """Pin count per site of custom cell i, indexed as _SIDE_RANK
        says, from its current site assignment."""
        nsites = self._nsites[i]
        occ = [0] * (4 * nsites)
        sites = self.records[i].pin_sites
        for (key, _), slots in zip(self._groups[i], self._gslots[i]):
            side, start = sites[key]
            _shift_sites(occ, nsites, len(slots), side, start, 1)
        return occ

    def _sum_c3(self, i) -> float:
        """Cell i's pin-site penalty (Eqns 10-11), re-summed from its
        occupancy count in the canonical order of ``_cell_c3``."""
        occ = self._occ[i]
        caps = self._cdims[i][2]
        nsites = self._nsites[i]
        kappa = self.kappa
        penalty = 0.0
        for rank in range(4):
            cap = caps[rank]
            base = rank * nsites
            for count in occ[base:base + nsites]:
                if count > cap:
                    excess = count - cap + kappa
                    penalty += excess * excess
        return penalty

    def _commit_c3(self, i) -> None:
        new_c3 = self._sum_c3(i)
        self._c3_total += new_c3 - self._c3[i]
        self._c3[i] = new_c3

    def _group_offsets(self, i, slots, side, start) -> None:
        """Write the offsets of one pin group of custom cell i placed at
        (side, start) — the reference's site arithmetic."""
        lox = self._lox
        loy = self._loy
        o = self.records[i].orientation
        width, height, _ = self._cdims[i]
        nsites = self._nsites[i]
        for k, p in enumerate(slots):
            lx, ly = _site_position(side, (start + k) % nsites, nsites, width, height)
            lox[p], loy[p] = ori.transform_point(o, lx, ly)

    def _commit_variant(self, i, old_aspect) -> None:
        """Cell i has a new orientation, instance or aspect ratio: refresh
        its dimensions and C3 if the aspect changed (the capacities move,
        the occupancy does not), then all of its pin offsets."""
        rec = self.records[i]
        has_groups = self._has_groups[i]
        if has_groups and rec.aspect_ratio != old_aspect:
            self._cdims[i] = self._custom_dims(i)
            self._commit_c3(i)
        lox = self._lox
        loy = self._loy
        for p, wx, wy in self._committed_flat(i, rec.instance, rec.orientation):
            lox[p] = wx
            loy[p] = wy
        if has_groups:
            sites = rec.pin_sites
            for (key, _), slots in zip(self._groups[i], self._gslots[i]):
                side, start = sites[key]
                self._group_offsets(i, slots, side, start)

    def _commit_pins(self, i) -> None:
        """Translate cell i's stored offsets to its current center."""
        cx, cy = self.records[i].center
        start = self._pin_start[i]
        end = start + self._pin_count[i]
        self._lpx[start:end] = [cx + wx for wx in self._lox[start:end]]
        self._lpy[start:end] = [cy + wy for wy in self._loy[start:end]]

    def _save_pins(self, i) -> Tuple[List[float], List[float]]:
        start = self._pin_start[i]
        end = start + self._pin_count[i]
        return (self._lpx[start:end], self._lpy[start:end])

    def _save_offsets(self, i) -> Tuple:
        start = self._pin_start[i]
        end = start + self._pin_count[i]
        return (self._lox[start:end], self._loy[start:end], self._cdims[i])

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------

    def move_cell(
        self,
        idx: int,
        center: Optional[Tuple[float, float]] = None,
        orientation: Optional[int] = None,
        instance: Optional[int] = None,
        aspect_ratio: Optional[float] = None,
    ) -> Tuple[float, ArraySnapshot]:
        """Apply a single-cell change; returns (cost delta, snapshot)."""
        rec = self.records[idx]
        return self._apply_single(
            idx,
            rec.center if center is None else center,
            rec.orientation if orientation is None else orientation,
            rec.instance if instance is None else instance,
            rec.aspect_ratio if aspect_ratio is None else aspect_ratio,
            invert=False,
        )

    def move_cell_inverted(
        self, idx: int, center: Tuple[float, float]
    ) -> Tuple[float, ArraySnapshot]:
        """Displace with the aspect ratio inverted (§3.2.1's second attempt:
        macro cells rotate 90 degrees, custom cells invert their ratio)."""
        rec = self.records[idx]
        return self._apply_single(
            idx, center, rec.orientation, rec.instance, rec.aspect_ratio,
            invert=True,
        )

    def _apply_single(
        self, i, new_center, new_o, new_inst, new_ar, invert
    ) -> Tuple[float, ArraySnapshot]:
        rec = self.records[i]
        old_ar = rec.aspect_ratio
        variant = (
            invert
            or new_o != rec.orientation
            or new_inst != rec.instance
            or new_ar != old_ar
        )
        cost_before = self._c1 + self.p2 * self._c2_raw + self._c3_total
        snap = ArraySnapshot(
            0,
            cost_before,
            i,
            (rec.center, rec.orientation, rec.instance, old_ar),
            (
                self._lex1[i],
                self._ley1[i],
                self._lex2[i],
                self._ley2[i],
                self._ltiles[i],
            ),
            self._expanded[i],
            self._shapes[i],
            self._save_pins(i),
            self._save_offsets(i) if variant else None,
            [],
            [],
            self._borders[i],
            self._c3[i],
            None,
            self._c1,
            self._c2_raw,
            self._c3_total,
        )
        rec.center = new_center
        rec.orientation = new_o
        rec.instance = new_inst
        rec.aspect_ratio = new_ar
        if invert:
            self._invert_record_aspect(i)
        x1, y1, x2, y2, tiles = self._cell_geometry(i)
        self._commit_geometry(i, x1, y1, x2, y2, tiles)
        if variant:
            self._commit_variant(i, old_ar)
        self._commit_pins(i)
        self._span_delta(self._cnets[i], snap.spans)
        self._partner_delta(i, x1, y1, x2, y2, tiles, None, snap.overlaps)
        cost = self._c1 + self.p2 * self._c2_raw + self._c3_total
        return (cost - cost_before, snap)

    def swap_cells(self, i: int, j: int) -> Tuple[float, ArraySnapshot]:
        """Interchange the centers of two cells (§3.2.1 A2)."""
        if i == j:
            raise ValueError("cannot swap a cell with itself")
        return self._apply_pair(i, j, invert=False)

    def swap_cells_inverted(self, i: int, j: int) -> Tuple[float, ArraySnapshot]:
        """Interchange with both cells' aspect ratios inverted (the retry
        of §3.2.1 when the plain interchange is rejected)."""
        if i == j:
            raise ValueError("cannot swap a cell with itself")
        return self._apply_pair(i, j, invert=True)

    def _apply_pair(self, i, j, invert) -> Tuple[float, ArraySnapshot]:
        # Every float accumulation below runs in an order that depends on
        # the placement alone — ascending cell index, nets by name,
        # partners by index — never on set insertion history or string
        # hash seeds, or a checkpoint-resumed process would accumulate the
        # same deltas in a different order and drift off the original
        # run's trajectory by ULPs.
        a, b = (i, j) if i < j else (j, i)
        ra, rb = self.records[a], self.records[b]
        ra_old = (ra.center, ra.orientation, ra.instance, ra.aspect_ratio)
        rb_old = (rb.center, rb.orientation, rb.instance, rb.aspect_ratio)
        cost_before = self._c1 + self.p2 * self._c2_raw + self._c3_total
        snap = ArraySnapshot(
            1,
            cost_before,
            (a, b),
            (ra_old, rb_old),
            (
                (self._lex1[a], self._ley1[a], self._lex2[a], self._ley2[a],
                 self._ltiles[a]),
                (self._lex1[b], self._ley1[b], self._lex2[b], self._ley2[b],
                 self._ltiles[b]),
            ),
            (self._expanded[a], self._expanded[b]),
            (self._shapes[a], self._shapes[b]),
            (self._save_pins(a), self._save_pins(b)),
            (self._save_offsets(a), self._save_offsets(b)) if invert else None,
            [],
            [],
            (self._borders[a], self._borders[b]),
            (self._c3[a], self._c3[b]),
            None,
            self._c1,
            self._c2_raw,
            self._c3_total,
        )
        ci, cj = self.records[i].center, self.records[j].center
        self.records[i].center = cj
        self.records[j].center = ci
        if invert:
            self._invert_record_aspect(i)
            self._invert_record_aspect(j)
        # Loop 1 — geometry, C3, pins, in ascending cell order.
        geoms = {}
        for k, saved in ((a, ra_old), (b, rb_old)):
            x1, y1, x2, y2, tiles = self._cell_geometry(k)
            self._commit_geometry(k, x1, y1, x2, y2, tiles)
            geoms[k] = (x1, y1, x2, y2, tiles)
            if invert:
                self._commit_variant(k, saved[3])
            self._commit_pins(k)
        # Loop 2 — net spans in name-sorted order.
        net_ids = set(self._cnets[a])
        net_ids.update(self._cnets[b])
        rank = self._nrank
        self._span_delta(sorted(net_ids, key=rank.__getitem__), snap.spans)
        # Loop 3 — borders and partners, ascending cell order; the (a, b)
        # pair itself is evaluated once, in a's partner loop.
        skip = (a, b)
        for k in (a, b):
            x1, y1, x2, y2, tiles = geoms[k]
            self._partner_delta(k, x1, y1, x2, y2, tiles, skip, snap.overlaps)
        cost = self._c1 + self.p2 * self._c2_raw + self._c3_total
        return (cost - cost_before, snap)

    def _invert_record_aspect(self, idx: int) -> None:
        record = self.records[idx]
        cell = self.cell(idx)
        if isinstance(cell, CustomCell):
            assert record.aspect_ratio is not None
            record.aspect_ratio = cell.aspect.inverted(record.aspect_ratio)
        else:
            record.orientation = ori.aspect_inverting_orientation(record.orientation)

    def move_pin_group(
        self, idx: int, group_key: str, side: str, start: int
    ) -> Tuple[float, ArraySnapshot]:
        """Reassign an uncommitted pin group to new sites (§2.4).

        Pin sites live on the cell boundary: the move cannot change the
        cell's shape or expansion, so the geometry bookkeeping (grid,
        borders, overlaps) is skipped on both the apply and restore side.
        The move is group-local: it writes and saves only the group's
        pin slots, re-spans only the nets they are on, and moves the
        group's counts in the cell's site occupancy.
        """
        g = self._gindex[idx][group_key]
        slots = self._gslots[idx][g]
        rec = self.records[idx]
        old_side, old_start = old_site = rec.pin_sites[group_key]
        lpx = self._lpx
        lpy = self._lpy
        lox = self._lox
        loy = self._loy
        cost_before = self._c1 + self.p2 * self._c2_raw + self._c3_total
        snap = ArraySnapshot(
            2,
            cost_before,
            idx,
            None,
            None,
            None,
            None,
            (
                [lpx[p] for p in slots],
                [lpy[p] for p in slots],
                [lox[p] for p in slots],
                [loy[p] for p in slots],
            ),
            None,
            [],
            None,
            None,
            self._c3[idx],
            (g, group_key, old_site),
            self._c1,
            self._c2_raw,
            self._c3_total,
        )
        rec.pin_sites[group_key] = (side, start)
        self._group_offsets(idx, slots, side, start)
        cx, cy = rec.center
        for p in slots:
            lpx[p] = cx + lox[p]
            lpy[p] = cy + loy[p]
        occ = self._occ[idx]
        nsites = self._nsites[idx]
        _shift_sites(occ, nsites, len(slots), old_side, old_start, -1)
        _shift_sites(occ, nsites, len(slots), side, start, 1)
        self._commit_c3(idx)
        self._span_delta(self._gnets[idx][g], snap.spans)
        cost = self._c1 + self.p2 * self._c2_raw + self._c3_total
        return (cost - cost_before, snap)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def _restore_pins(self, i, saved) -> None:
        xs, ys = saved
        start = self._pin_start[i]
        end = start + self._pin_count[i]
        self._lpx[start:end] = xs
        self._lpy[start:end] = ys

    def _restore_offsets(self, i, saved) -> None:
        xs, ys, self._cdims[i] = saved
        start = self._pin_start[i]
        end = start + self._pin_count[i]
        self._lox[start:end] = xs
        self._loy[start:end] = ys

    def _restore_spans(self, spans) -> None:
        lsx = self._lsx
        lsy = self._lsy
        for e, sx, sy in spans:
            lsx[e] = sx
            lsy[e] = sy

    def _restore_overlaps(self, saved) -> None:
        overlaps = self._overlaps
        adj = self._adj
        for i, j, old in saved:
            key = (i, j) if i < j else (j, i)
            if old > 0.0:
                overlaps[key] = old
                adj[i].add(j)
                adj[j].add(i)
            else:
                overlaps.pop(key, None)
                adj[i].discard(j)
                adj[j].discard(i)

    def _restore_cell(self, i, rec_tuple, ebb, exp_ref, shape_ref) -> None:
        rec = self.records[i]
        rec.center, rec.orientation, rec.instance, rec.aspect_ratio = rec_tuple
        x1, y1, x2, y2, tiles = ebb
        self._lex1[i] = x1
        self._ley1[i] = y1
        self._lex2[i] = x2
        self._ley2[i] = y2
        self._ltiles[i] = tiles
        self._expanded[i] = exp_ref
        self._shapes[i] = shape_ref
        self._grid.update_coords(i, x1, y1, x2, y2)

    def restore(self, snap: ArraySnapshot) -> None:
        """Undo the move that returned ``snap`` (bit-exact)."""
        kind = snap.kind
        if kind == 2:
            i = snap.cells
            g, key, old_site = snap.pin_site
            slots = self._gslots[i][g]
            sites = self.records[i].pin_sites
            side, start = sites[key]
            old_side, old_start = old_site
            occ = self._occ[i]
            nsites = self._nsites[i]
            _shift_sites(occ, nsites, len(slots), side, start, -1)
            _shift_sites(occ, nsites, len(slots), old_side, old_start, 1)
            sites[key] = old_site
            lpx = self._lpx
            lpy = self._lpy
            lox = self._lox
            loy = self._loy
            xs, ys, oxs, oys = snap.pins
            for k, p in enumerate(slots):
                lpx[p] = xs[k]
                lpy[p] = ys[k]
                lox[p] = oxs[k]
                loy[p] = oys[k]
            self._restore_spans(snap.spans)
            self._c3[i] = snap.c3s
            self._c1 = snap.c1
            self._c3_total = snap.c3_total
            return
        if kind == 0:
            i = snap.cells
            self._restore_cell(i, snap.recs, snap.ebbs, snap.exp_refs,
                               snap.shape_refs)
            self._restore_pins(i, snap.pins)
            if snap.offsets is not None:
                self._restore_offsets(i, snap.offsets)
            self._borders[i] = snap.borders
            self._c3[i] = snap.c3s
        else:
            a, b = snap.cells
            self._restore_cell(a, snap.recs[0], snap.ebbs[0],
                               snap.exp_refs[0], snap.shape_refs[0])
            self._restore_cell(b, snap.recs[1], snap.ebbs[1],
                               snap.exp_refs[1], snap.shape_refs[1])
            self._restore_pins(a, snap.pins[0])
            self._restore_pins(b, snap.pins[1])
            if snap.offsets is not None:
                self._restore_offsets(a, snap.offsets[0])
                self._restore_offsets(b, snap.offsets[1])
            self._borders[a] = snap.borders[0]
            self._borders[b] = snap.borders[1]
            self._c3[a] = snap.c3s[0]
            self._c3[b] = snap.c3s[1]
        self._restore_spans(snap.spans)
        self._restore_overlaps(snap.overlaps)
        self._c1 = snap.c1
        self._c2_raw = snap.c2_raw
        self._c3_total = snap.c3_total

    def set_static_expansions(
        self, expansions: Dict[str, Dict[str, float]]
    ) -> None:
        """Switch to stage-2 mode: per-cell, per-world-side static margins
        (half the required width of each adjacent channel, §4.3) replace
        the dynamic estimator.  Rebuilds all caches."""
        self._static = [
            dict(expansions.get(name, {})) for name in self.names
        ]
        self.dynamic_expansion = False
        self.rebuild()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict:
        """Everything needed to reconstruct this placement exactly.

        The cost accumulators are included verbatim: they are running
        float sums whose last bits depend on the whole move history, and
        a bit-for-bit resume must continue from the history-exact values
        (``rebuild()`` recomputes them in canonical order, which agrees
        only to rounding).
        """
        return {
            "records": {
                self.names[i]: {
                    "center": tuple(record.center),
                    "orientation": record.orientation,
                    "instance": record.instance,
                    "aspect_ratio": record.aspect_ratio,
                    "pin_sites": dict(record.pin_sites),
                }
                for i, record in enumerate(self.records)
            },
            "p2": self.p2,
            "dynamic_expansion": self.dynamic_expansion,
            "static_expansions": {
                self.names[i]: dict(static)
                for i, static in enumerate(self._static)
                if static
            },
            "accumulators": {
                "c1": self._c1,
                "c2_raw": self._c2_raw,
                "c3_total": self._c3_total,
            },
        }

    def load_state_dict(self, data: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same circuit required).

        Caches are regenerated with ``rebuild()`` — per-entry cache
        values are pure functions of the geometry, so they come back
        identical — and the accumulators are then overwritten with the
        snapshot's history-exact values.
        """
        records = data["records"]
        if set(records) != set(self.names):
            raise ValueError(
                "placement snapshot does not match this circuit's cells"
            )
        for i, name in enumerate(self.names):
            saved = records[name]
            self.records[i] = CellRecord(
                center=tuple(saved["center"]),
                orientation=saved["orientation"],
                instance=saved["instance"],
                aspect_ratio=saved["aspect_ratio"],
                pin_sites=dict(saved["pin_sites"]),
            )
        static = data.get("static_expansions") or {}
        self._static = [dict(static.get(name, {})) for name in self.names]
        self.dynamic_expansion = data["dynamic_expansion"]
        self.p2 = data["p2"]
        self.rebuild()
        accumulators = data["accumulators"]
        self._c1 = accumulators["c1"]
        self._c2_raw = accumulators["c2_raw"]
        self._c3_total = accumulators["c3_total"]

    # ------------------------------------------------------------------
    # initial placement
    # ------------------------------------------------------------------

    def randomize(self, rng: random.Random) -> None:
        """Random initial configuration (§3.2.1: the initial state has no
        influence on the final TEIC, so a random start is used)."""
        for idx in range(len(self.names)):
            if not self.movable[idx]:
                continue
            record = self.records[idx]
            record.center = (
                rng.uniform(self.core.x1, self.core.x2),
                rng.uniform(self.core.y1, self.core.y2),
            )
            record.orientation = rng.randrange(ori.N_ORIENTATIONS)
            cell = self.cell(idx)
            if isinstance(cell, MacroCell) and cell.num_instances > 1:
                record.instance = rng.randrange(cell.num_instances)
        self.rebuild()

    def enforce_fixed(self) -> None:
        """Reset every pre-placed cell to its mandated position (used by
        placers that do not natively understand fixed cells)."""
        changed = False
        for idx in range(len(self.names)):
            cell = self.cell(idx)
            if cell.fixed is None:
                continue
            record = self.records[idx]
            target = ((cell.fixed.x, cell.fixed.y), cell.fixed.orientation)
            if (record.center, record.orientation) != target:
                record.center = (cell.fixed.x, cell.fixed.y)
                record.orientation = cell.fixed.orientation
                changed = True
        if changed:
            self.rebuild()

    def clamp_to_core(self, point: Tuple[float, float]) -> Tuple[float, float]:
        """Clamp a candidate cell center into the core region."""
        return (
            min(max(point[0], self.core.x1), self.core.x2),
            min(max(point[1], self.core.y1), self.core.y2),
        )


def _shift_sites(
    occ: List[int], nsites: int, count: int, side: str, start: int, step: int
) -> None:
    """Add ``step`` to the occupancy of the ``count`` consecutive sites a
    group placed at (side, start) covers (wrapping within the edge)."""
    base = _SIDE_RANK[side] * nsites
    for k in range(count):
        occ[base + (start + k) % nsites] += step


def _site_position(
    side: str, site_idx: int, nsites: int, width: float, height: float
) -> Tuple[float, float]:
    fraction = (site_idx + 0.5) / nsites
    hw, hh = width / 2.0, height / 2.0
    if side == LEFT:
        return (-hw, -hh + fraction * height)
    if side == RIGHT:
        return (hw, -hh + fraction * height)
    if side == BOTTOM:
        return (-hw + fraction * width, -hh)
    return (-hw + fraction * width, hh)
