"""Benchmark of one full TimberWolfMC ``place_and_route`` run.

Usage, from the root of a checkout::

    python3 flowbench/run.py --workload route-m20-n40 --seed 7 --seconds 45 --trace 0

``--trace 0`` places the workload's circuits with tracing off, in whole
rounds of one call per circuit until ``--seconds`` are used up (always
one round), and reports the end-to-end metrics: the wall time of one
call (the mean over circuits of each circuit's median) and the number
of rounds, the set-up time, peak memory and the final QoR.
``--trace 1`` does a fixed amount of work instead: it places circuit 0
untraced, then the first two circuits with every layer wrapped (see
``flowbench/tracing.py``), checks that traced and untraced QoR agree,
writes the spans to ``flowbench/out/`` and reports the per-layer
metrics.

Every call is checked (``flowbench/checks.py``); QoR must also repeat
exactly across calls on one circuit.  A call that breaks a check or
raises counts as failed, and the command then exits with 1.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the samples and the host and noise metadata.  ``REPRO_FAULTS`` arms the
program's fault injection around every call, which is how the tests
plant a stage failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Set-up is timed in this many fresh interpreters, this process being
#: the first, and its median reported.  The others run between the timed
#: calls, so that they spread over the run as host speed drifts.
SETUP_REPEATS = 5

#: Circuits the traced run places; the untraced run places them all.
TRACED_CIRCUITS = 2

#: A place call still running after this long has failed: one call
#: takes 5 to 10 s on every workload.
CALL_LIMIT_S = 60.0

#: The warm-up call during set-up: a tiny circuit on a short schedule,
#: enough to run every code path of the flow once.
WARMUP_CELLS = 8
WARMUP_TEMPERATURES = 8


def _import_program() -> None:
    """Import the program from this checkout's ``src``."""
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise ImportError(f"repro was found at {repro.__file__}, outside this checkout")


def setup(workload_name: str, seed: int):
    """Import the program, generate the workload's inputs and warm up,
    in this interpreter: ``(inputs, place, seconds taken)``.  Run first
    in a fresh interpreter, it includes every one-time cost of the flow
    (lazy imports, first-call caches) that the warm-up call absorbs."""
    from flowbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    start = time.perf_counter()
    _import_program()
    from repro.bench import generate_circuit
    from repro.resilience import faults_from_env

    place = _placer(faults_from_env())
    inputs = workload.inputs(seed)
    warm = generate_circuit(workload.spec(seed, cells=WARMUP_CELLS))
    place(warm, replace(workload.config(seed), max_temperatures=WARMUP_TEMPERATURES))
    return inputs, place, time.perf_counter() - start


_FRESH_SETUP = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from flowbench.run import setup; "
    "print(setup(sys.argv[2], int(sys.argv[3]))[2])"
)


def fresh_setup_s(workload_name: str, seed: int) -> float:
    """Seconds :func:`setup` takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SETUP, str(ROOT), workload_name, str(seed)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


class CallTimeout(BaseException):
    """Raised into a place call that runs past ``CALL_LIMIT_S``.  Like a
    kill, it is a ``BaseException``, so the flow's own recovery from
    stage failures (``except Exception``) cannot absorb it."""


@contextlib.contextmanager
def _time_limit(seconds: float):
    def expire(signum, frame):
        raise CallTimeout(f"still running after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Tally:
    """Attempted and failed calls, and the QoR every call must repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list = []
        self.reference: dict = {}

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        self.notes.append(f"{where}: {why}")
        print(f"FAILED {where}: {why}", file=sys.stderr)

    def call(self, where: str, key: int, fn):
        """Run one place call; its result, or None when it failed."""
        from flowbench import checks, host

        self.attempted += 1
        steal0 = host.steal_ticks()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with _time_limit(CALL_LIMIT_S):
                result = fn()
        except (CallTimeout, Exception) as exc:  # counted, not fatal
            traceback.print_exc()
            self.fail(where, f"raised {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0, {}
        wall = time.perf_counter() - t0
        steal1 = host.steal_ticks()
        sample = {
            "wall_s": wall,
            "cpu_s": time.process_time() - cpu0,
            "steal_ticks": None if steal0 is None else steal1 - steal0,
        }
        found = checks.problems(result)
        qor = checks.qor(result)
        expected = self.reference.setdefault(key, qor)
        if qor != expected:
            found.append(f"QoR {qor} differs from the first call's {expected}")
        if found:
            self.fail(where, "; ".join(found))
            return None, wall, sample
        return result, wall, sample


def _placer(faults):
    from repro import place_and_route
    from repro.resilience import inject_faults

    def place(circuit, config):
        armed = inject_faults(*faults) if faults else contextlib.nullcontext()
        with armed:
            return place_and_route(circuit, config, collect_trace=False)

    return place


def _measure(inputs, seconds, place, tally, between):
    """Place every circuit once per round, in whole rounds: always one,
    and another only if the last round's time says it would end before
    ``seconds`` are used up.  Every circuit so has as many calls as the
    others, however fast the host is.  ``between()`` runs after each
    call, outside its timing."""
    deadline = time.perf_counter() + seconds
    walls = [[] for _ in inputs]
    samples = []
    results = [None] * len(inputs)
    rounds, round_s = 0, 0.0
    while rounds == 0 or time.perf_counter() + round_s <= deadline:
        start = time.perf_counter()
        for idx, (circuit, config) in enumerate(inputs):
            result, wall, sample = tally.call(
                f"circuit {idx} round {rounds}", idx,
                lambda: place(circuit, config),
            )
            walls[idx].append(wall)
            if sample:
                samples.append(dict(sample, circuit=idx))
            if result is not None:
                results[idx] = result
            between()
        round_s = time.perf_counter() - start
        rounds += 1
    return walls, results, samples, rounds


def _end_to_end(workload, inputs, args, place, tally, setup_times):
    from flowbench import host
    from repro.flow import validate_result

    def fresh_setup():
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(fresh_setup_s(args.workload, args.seed))

    walls, results, samples, rounds = _measure(
        inputs, args.seconds, place, tally, fresh_setup
    )
    validate_start = time.perf_counter()
    fits = []
    for idx, result in enumerate(results[:workload.validated]):
        if result is None:
            continue
        try:
            fits.append(validate_result(result).fit_fraction)
        except Exception as exc:  # counted against the call it validates
            traceback.print_exc()
            tally.fail(f"circuit {idx} validation", f"raised {type(exc).__name__}: {exc}")
    done = [r for r in results if r is not None]
    metrics = {
        "place_s": statistics.mean(statistics.median(w) for w in walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": host.peak_rss_mb(),
    }
    if done:
        metrics["teil"] = statistics.mean(r.teil for r in done)
        metrics["chip_area"] = statistics.mean(r.chip_area for r in done)
    if fits:
        metrics["channel_fit"] = statistics.mean(fits)
    detail = {
        "place_rounds": rounds,
        "samples": samples,
        "overflow_x": [r.routed_overflow for r in done],
        "qor": [list(q) for q in tally.reference.values()],
        "channel_fit": fits,
        "validate_s": time.perf_counter() - validate_start,
    }
    return metrics, detail


def _per_layer(inputs, args, place, tally):
    """Trace the first circuits once each.  Circuit 0 is also placed
    untraced, right before, for the QoR-equality check and the tracing
    overhead."""
    from flowbench import tracing

    recorder = tracing.SpanRecorder()

    def traced_place(circuit, config):
        with tracing.instrument(recorder), recorder.span("flow"):
            return place(circuit, config)

    circuit, config = inputs[0]
    _, untraced, sample = tally.call(
        "circuit 0 untraced", 0, lambda: place(circuit, config)
    )
    samples = [dict(sample, circuit=0, traced=False)]
    walls, overflow = [], []
    for idx, (circuit, config) in enumerate(inputs[:TRACED_CIRCUITS]):
        result, wall, sample = tally.call(
            f"circuit {idx} traced", idx, lambda: traced_place(circuit, config)
        )
        walls.append(wall)
        samples.append(dict(sample, circuit=idx, traced=True))
        if result is not None:
            overflow.append(result.routed_overflow)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    recorder.write(args.out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = tracing.layer_metrics(recorder, len(walls), walls[0], untraced)
    if overflow:
        metrics["router.overflow_x"] = statistics.mean(overflow)
    return metrics, {"samples": samples}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=OUT_DIR,
                        help="where the traced run writes its spans")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from flowbench import host
    from flowbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"flowbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = Tally()
    steal0 = host.steal_ticks()
    try:
        inputs, place, first_setup = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"flowbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    setup_times = [first_setup]
    if args.trace:
        metrics, detail = _per_layer(inputs, args, place, tally)
    else:
        metrics, detail = _end_to_end(
            WORKLOADS[args.workload], inputs, args, place, tally, setup_times
        )
    steal1 = host.steal_ticks()

    units = {
        m["name"]: m["unit"]
        for m in spec["end_to_end"] + spec["per_layer"]
    }
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    if "place_rounds" in detail:
        print(f"{'place_s rounds (calls per circuit)':34s} {detail['place_rounds']:9d}")
    print(f"{'failed_frac':34s} {tally.failed / max(1, tally.attempted):16.6f} "
          f"({tally.failed}/{tally.attempted})")
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        host=host.describe(), setup_samples_s=setup_times,
        steal_s=None if steal0 is None else host.ticks_to_s(steal1 - steal0),
        failures=tally.notes,
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
