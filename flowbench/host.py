"""Host and noise metadata recorded with every result.

On a shared virtual machine the same run can take half again as long an
hour later with CPU time equal to wall time; the steal ticks the kernel
reports in ``/proc/stat`` show when a neighbour took the CPU.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
from typing import Dict, Optional

#: Position of the steal counter on the aggregate ``cpu`` line.
_STEAL_FIELD = 8


def steal_ticks() -> Optional[int]:
    """Cumulative CPU steal ticks of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) <= _STEAL_FIELD or fields[0] != "cpu":
        return None
    return int(fields[_STEAL_FIELD])


def ticks_to_s(ticks: int) -> float:
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg": os.getloadavg() if hasattr(os, "getloadavg") else None,
    }
