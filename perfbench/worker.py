"""A workload process: set up one workload, then measure it or compute
references for it.

Started by ``perfbench/run.py`` with a fixed ``PYTHONHASHSEED`` (the hash
seed changes set iteration order inside the solver, and with it the
amount of work)::

    worker.py measure    <workload> <seed> <trace> <workdir>
    worker.py sample     <workload> <seed> <part> <parts> <workdir>
    worker.py seed-store <workload> <seed> <store> <part> <parts>

``measure`` and ``sample`` print ``@@ready`` once the workload is set up,
so the parent times set-up from process start to that line.

``measure`` then reads commands from stdin.  ``chunk <seconds>
<min passes>`` runs passes over the 12 operations until ``<seconds>``
have passed and at least ``<min passes>`` are done (when ``<trace>`` is
1, every operation runs traced and then untraced) and prints
``@@chunk``; between chunks the
process waits, idle, while the parent runs other processes.  ``finish``
reads the peak RSS and prints ``@@result <json>``: every operation's time
and output fingerprint, pass by pass, and the calibration kernel's times.

``sample`` computes, after its set-up, the reference output of every
operation whose index is ``<part>`` modulo ``<parts>`` and prints
``@@result <json>``.  References never run in the measuring process, so
its peak RSS and timed windows see only the operations.

``seed-store`` fills one share of a workload's store (see
:func:`perfbench.workloads.seed_store`).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

OPERATIONS = 12
#: The output recorded for an operation that raised.
ERROR = ("error",)
#: The calibration kernel runs before an operation when its last run is
#: at least this old, so its samples spread over the run like the timed
#: operations do.
CALIBRATION_INTERVAL_S = 0.5


def _emit(tag: str, payload=None) -> None:
    line = f"@@{tag}" if payload is None else f"@@{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def fingerprint(workload, output) -> List[str]:
    """Hashes of an output as produced and in the workload's canonical
    form, so a wrong output can be told apart from a mere reordering."""
    canonical = output if output == ERROR else workload.canonical(output)
    return [
        hashlib.sha256(repr(form).encode("utf-8")).hexdigest()
        for form in (output, canonical)
    ]


def calibration_kernel(document: str) -> None:
    """Fixed pure-Python work that calls nothing of the program: the
    dict, tuple, string, sort, set and JSON traffic the program's own
    time is made of."""
    table = {}
    for i in range(12000):
        key = ("k", i, str(i))
        table[key] = [i, i * 2, (i, i)]
    sorted(f"{key[2]}|{value[1]}" for key, value in table.items())
    seen = set()
    for i in range(0, 12000, 3):
        seen.add((i, i & 7))
        seen.discard((i - 3, (i - 3) & 7))
    json.loads(document)


class Calibration:
    """Times of :func:`calibration_kernel`, sampled between timed
    operations: how fast this machine runs Python during the run.

    The cyclic collector is off while the kernel runs, so the size of
    the program's heap does not change the kernel's time.
    """

    def __init__(self) -> None:
        self.document = json.dumps(
            [f"C{i % 97}.m{i}:{i}|x{i} = y{i % 13}|F{i % 7} & !G{i % 5}" for i in range(3000)]
        )
        self.samples: List[float] = []
        self._last = float("-inf")

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last < CALIBRATION_INTERVAL_S:
            return
        gc.disable()
        try:
            started = time.perf_counter()
            calibration_kernel(self.document)
            self.samples.append(time.perf_counter() - started)
        finally:
            gc.enable()
        self._last = time.perf_counter()


def set_up(workload_name: str, seed: int, workdir: Path):
    """Import, generate, seed; returns (workload, setup breakdown)."""
    import repro.cli  # noqa: F401 -- start-up cost of the program

    imported = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, workdir)
    generated = time.perf_counter()
    workload.setup()
    seeded = time.perf_counter()
    return workload, {
        "startup.import_s": imported - _STARTED,
        "spl.generate_s": generated - imported,
        "setup.seed_s": seeded - generated,
    }


def timed_operation(workload, index: int, ledger=None) -> Dict[str, object]:
    """Run operation ``index``, timing only the operation itself."""
    if ledger is not None:
        ledger.begin()
        ledger.install()
    try:
        started = time.perf_counter()
        try:
            produced, ratio = workload.run(index)
        except Exception:  # noqa: BLE001 -- a failed operation, counted
            produced, ratio = None, None
            print(traceback.format_exc(), file=sys.stderr)
        elapsed = time.perf_counter() - started
    finally:
        if ledger is not None:
            ledger.uninstall()
    output = ERROR if produced is None else workload.checked_output(produced)
    result = {"time": elapsed, "output": fingerprint(workload, output), "ratio": ratio}
    if ledger is not None:
        result["ledger"] = ledger.snapshot()
    return result


def _record(results: List[Dict[str, object]], traced: bool) -> Dict[str, object]:
    times = [result["time"] for result in results]
    record: Dict[str, object] = {
        "wall": sum(times),
        "times": times,
        "outputs": [result["output"] for result in results],
        "ratios": [result["ratio"] for result in results],
        "traced": traced,
    }
    if traced:
        from perfbench.ledger import pass_counts, pass_metrics

        snapshots = [result["ledger"] for result in results]
        record["ledger"] = pass_metrics(record["wall"], snapshots)
        record["counts"] = pass_counts(snapshots)
    return record


def run_pass(workload, ledger=None, calibration=None) -> List[Dict[str, object]]:
    """One pass over the operations.  Each operation's state is isolated,
    the heap collected and, when given, the ``calibration`` sampled,
    outside its timed window.

    With a ``ledger``, every operation runs twice in a row, traced and
    then untraced, and the pass yields a traced and an untraced record:
    the two see the same machine state, so their difference is the
    tracing overhead rather than the machine's changing speed.
    """
    modes = (ledger, None) if ledger is not None else (None,)
    results: List[List[Dict[str, object]]] = [[] for _ in modes]
    for index in range(OPERATIONS):
        for mode, collected in zip(modes, results):
            workload.prepare(index)
            gc.collect()
            if calibration is not None:
                calibration.maybe_sample()
            collected.append(timed_operation(workload, index, mode))
            workload.finish(index)
    return [
        _record(collected, mode is not None) for mode, collected in zip(modes, results)
    ]


def measure(workload, trace: bool, commands) -> Dict[str, object]:
    """Run the chunks of passes the parent asks for on ``commands``."""
    from perfbench.ledger import Ledger

    ledger = Ledger() if trace else None
    calibration = Calibration()
    passes: List[Dict[str, object]] = []
    for command in commands:
        words = command.split()
        if words == ["finish"]:
            break
        if len(words) != 3 or words[0] != "chunk":
            raise SystemExit(f"perfbench: unknown command {command!r}")
        seconds, min_passes = float(words[1]), int(words[2])
        started, done = time.perf_counter(), 0
        while done < min_passes or time.perf_counter() - started < seconds:
            passes.extend(run_pass(workload, ledger, calibration))
            done += 1
        _emit("chunk")
    return {
        "keys": [job.key for job in workload.jobs],
        "passes": passes,
        "calibration": calibration.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def references(workload, part: int, parts: int) -> Dict[str, Optional[List[str]]]:
    """Fingerprints of the reference outputs of this part's operations
    (None where the reference itself failed its own check)."""
    indices = [index for index in range(OPERATIONS) if index % parts == part]
    return {
        str(index): None if output is None else fingerprint(workload, output)
        for index, output in workload.references(indices).items()
    }


def main(argv: List[str]) -> int:
    mode = argv[0]
    if mode == "seed-store":
        from perfbench.workloads import seed_store

        seed_store(argv[1], int(argv[2]), Path(argv[3]), int(argv[4]), int(argv[5]))
        return 0
    workload_name, seed, workdir = argv[1], int(argv[2]), Path(argv[-1])
    workload, setup = set_up(workload_name, seed, workdir)
    _emit("ready")
    if mode == "sample":
        part, parts = int(argv[3]), int(argv[4])
        _emit("result", {"setup": setup, "references": references(workload, part, parts)})
        return 0
    result = measure(workload, argv[3] == "1", sys.stdin)
    result["setup"] = setup
    _emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
