"""Shared fixtures: small circuits the tests can anneal in milliseconds."""

from __future__ import annotations

import random

import pytest

from repro.netlist import (
    Circuit,
    ContinuousAspectRatio,
    CustomCell,
    MacroCell,
    Pin,
    PinKind,
)


def make_macro_circuit(
    num_cells: int = 6,
    nets_mod: int = 8,
    seed: int = 7,
    name: str = "fixture",
) -> Circuit:
    """A deterministic all-macro circuit with boundary pins."""
    rng = random.Random(seed)
    cells = []
    for i in range(num_cells):
        w, h = rng.randint(10, 24), rng.randint(10, 24)
        pins = [
            Pin(
                f"p{k}",
                f"n{(i * 3 + k) % nets_mod}",
                PinKind.FIXED,
                offset=(round(rng.uniform(-w / 2, w / 2), 1), -h / 2),
            )
            for k in range(4)
        ]
        cells.append(MacroCell.rectangular(f"m{i}", w, h, pins))
    return Circuit(name, cells)


def make_mixed_circuit(seed: int = 11) -> Circuit:
    """Macros plus custom cells with grouped/sequenced pins."""
    base = make_macro_circuit(num_cells=5, seed=seed, name="mixed")
    cells = list(base.cells.values())
    cpins = [
        Pin("a", "n1", PinKind.EDGE),
        Pin("b", "n2", PinKind.GROUP, group="G", sides=frozenset({"top", "bottom"})),
        Pin("c", "n2", PinKind.GROUP, group="G", sides=frozenset({"top", "bottom"})),
        Pin("d", "n3", PinKind.SEQUENCE, group="S", sequence_index=0),
        Pin("e", "n3", PinKind.SEQUENCE, group="S", sequence_index=1),
        Pin("f", "n0", PinKind.FIXED, offset=(0.0, 10.0)),
    ]
    cells.append(
        CustomCell(
            "cust0",
            cpins,
            area=400.0,
            aspect=ContinuousAspectRatio(0.5, 2.0),
            sites_per_edge=4,
        )
    )
    return Circuit("mixed", cells)


@pytest.fixture
def macro_circuit() -> Circuit:
    return make_macro_circuit()


@pytest.fixture
def mixed_circuit() -> Circuit:
    return make_mixed_circuit()


def make_crowded_custom_circuit(
    num_cells: int = 6, groups: int = 3, group_size: int = 3
) -> Circuit:
    """All-custom cells whose grouped pins outnumber their one-pin
    sites, so the pin-site penalty (C3) stays live under annealing.
    Group G0 is a top/bottom pin sequence; every cell also carries a
    loose edge pin and a committed pin."""
    nets = 2 * num_cells
    cells = []
    for i in range(num_cells):
        pins = [
            Pin(f"g0p{k}", f"n{(i + k) % nets}", PinKind.SEQUENCE, group="G0",
                sequence_index=k, sides=frozenset({"top", "bottom"}))
            for k in range(group_size)
        ]
        pins += [
            Pin(f"g{g}p{k}", f"n{(i + g + k) % nets}", PinKind.GROUP,
                group=f"G{g}")
            for g in range(1, groups)
            for k in range(group_size)
        ]
        pins.append(Pin("e", f"n{(i * 5) % nets}", PinKind.EDGE))
        pins.append(
            Pin("f", f"n{(i * 7 + 1) % nets}", PinKind.FIXED, offset=(1.0, 2.0))
        )
        cells.append(
            CustomCell(
                f"c{i}",
                pins,
                area=64.0,
                aspect=ContinuousAspectRatio(0.5, 2.0),
                sites_per_edge=4,
                pin_pitch=2.0,
            )
        )
    return Circuit("crowded", cells)
