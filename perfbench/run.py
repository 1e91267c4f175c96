"""The repository benchmark: one workload, one seed, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --hash-seed 0 --workload paper_cold \\
        --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):
``paper_cold``, ``edit_warm`` and ``store_replay``.  Every workload
process is started with ``PYTHONHASHSEED`` set to ``--hash-seed``; the
value ``BENCHMARK.json`` passes is the one results are comparable under.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics:

- ``setup_s``: median over three fresh workload processes of the time
  from process start to the first timed operation (imports, subject
  generation, store seeding);
- ``pass_s``: median over passes of the summed wall time of the 12
  operations of a pass;
- ``op_p50_s``: the typical operation: the median over the 12
  operations of each one's median wall time in the run.  (A median
  pooled over every timed operation would sit in the gap between the
  sixth and the seventh fastest job and move with the number of passes
  a run happens to fit in);
- ``peak_rss_mb``: peak resident memory of the measuring process, which
  runs only set-up and the timed operations.

The three times are scaled to the reference machine speed (see
:func:`end_to_end`); stderr shows them unscaled.

With ``--trace 1`` it reports the per-layer ledger instead, from two
measuring processes that run every operation traced and then untraced:
the median over traced passes of each layer's self time per pass, the
per-pass counts, the number of counters that did not repeat exactly
between the two processes (``ledger.counts_differing``, named on
stderr), and the tracing overhead, the median over passes of traced
minus untraced pass time.

``attempted`` counts operations run and ``failed`` those whose output
did not match the independent reference (``perfbench/oracle.py``).  The
command exits non-zero, printing no result, when the program cannot be
imported or a workload process fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOAD_NAMES = ("paper_cold", "edit_warm", "store_replay")
#: Set-up is timed in this many fresh processes (the measuring one too).
SETUP_SAMPLES = 3
#: A traced run repeats the measuring process this often and compares the
#: counts of corresponding traced passes.
TRACED_RUNS = 2
#: Workload processes still running this long after the start are killed.
RUN_TIMEOUT_S = 170.0
#: Mean time of ``worker.calibration_kernel`` the reported times are
#: scaled to: about its time on the 2-vCPU Xeon virtual machine the
#: benchmark was defined on.
REFERENCE_KERNEL_S = 0.015
#: ``personality(2)`` flag that turns off address-space randomization.
_ADDR_NO_RANDOMIZE = 0x0040000


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _environment(hash_seed: int, workdir: Path) -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("SPLLIFT_", "PYTHON"))
    }
    env.update(
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
        SPLLIFT_CACHE_DIR=str(workdir / "spllift-cache"),
        SPLLIFT_RUN_ID="perfbench",
        TMPDIR=str(workdir / "tmp"),
        XDG_CACHE_HOME=str(workdir / "xdg-cache"),
    )
    return env


def _fixed_addresses() -> None:
    """Run in the forked child before exec: turn off address-space
    randomization.  IR objects hash by ``id()``, so set iteration order,
    and with it the solver's work (edge compositions, BDD nodes), depends
    on object addresses.  Fixed mappings make most of that work repeat
    between runs; timing-dependent allocations in the program still move
    some objects, which the traced run reports as
    ``ledger.counts_differing``."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    current = libc.personality(0xFFFFFFFF)
    if current == -1 or libc.personality(current | _ADDR_NO_RANDOMIZE) == -1:
        raise OSError(ctypes.get_errno(), "personality(ADDR_NO_RANDOMIZE) failed")


class WorkerProcess:
    """A workload process and the ``@@`` line protocol to it.  Its whole
    process group is killed at ``deadline`` (a ``perf_counter`` value) and
    when it is closed while still running."""

    def __init__(self, argv: List[str], env: Dict[str, str], deadline: float) -> None:
        self.name = " ".join(argv[:2])
        self.started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [sys.executable, str(WORKER), *argv],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=env,
                cwd=str(ROOT),
                preexec_fn=_fixed_addresses,
                start_new_session=True,
            )
        except (OSError, subprocess.SubprocessError) as error:
            raise BenchmarkError(f"cannot start a workload process: {error}") from error
        self.code: Optional[int] = None
        self.watchdog = threading.Timer(max(0.0, deadline - self.started), self._kill)
        self.watchdog.start()

    def _kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def read(self, tag: str) -> Optional[dict]:
        """Wait for the line ``@@<tag>`` and return its payload; other
        lines are passed on to stderr."""
        for line in self.process.stdout:
            if line.startswith(f"@@{tag}"):
                payload = line[len(tag) + 2:].strip()
                return json.loads(payload) if payload else None
            sys.stderr.write(line)
        self.close(wait=True)
        raise BenchmarkError(
            f"workload process {self.name} ended without @@{tag} "
            f"(exit {self.process.returncode})"
        )

    def ready(self) -> float:
        """Seconds from start until the workload was set up."""
        self.read("ready")
        return time.perf_counter() - self.started

    def send(self, command: str) -> None:
        try:
            self.process.stdin.write(command + "\n")
            self.process.stdin.flush()
        except OSError as error:
            raise BenchmarkError(f"workload process {self.name} is gone: {error}") from error

    def close(self, wait: bool = False) -> int:
        """Reap the process and return its exit code: wait for it to end
        when ``wait`` (the watchdog still kills it at the deadline), else
        kill its process group first."""
        if self.code is not None:
            return self.code
        try:
            self.process.stdin.close()
        except OSError:
            pass
        if not wait:
            self._kill()
        try:
            self.code = self.process.wait()
        finally:
            self.watchdog.cancel()
            self.process.stdout.close()
        return self.code

    def finish(self, tag: str = "result") -> dict:
        """Read the final payload and wait for a clean exit."""
        payload = self.read(tag)
        code = self.close(wait=True)
        if code != 0:
            raise BenchmarkError(f"workload process {self.name} failed (exit {code})")
        return payload


def check(
    keys: List[str], passes: List[dict], references: Dict[str, Optional[List[str]]]
) -> Tuple[int, int, int]:
    """Compare every operation's output with its reference; returns
    (attempted, failed, reordered).

    An operation fails when its output differs from the reference, when
    there is no reference, or when its summary reuse ratio differs from
    the first pass's.  An output that equals the reference only in the
    workload's canonical form (the same findings listed in another order)
    does not fail; it is counted as reordered and named on stderr.
    """
    attempted = failed = reordered = 0
    first_ratios = passes[0]["ratios"]
    for number, record in enumerate(passes):
        for index, (output, ratio) in enumerate(zip(record["outputs"], record["ratios"])):
            attempted += 1
            reference = references.get(str(index))
            problems = []
            if reference is None:
                problems.append("no reference")
            elif output[1] != reference[1]:
                problems.append("output differs from the reference")
            elif output[0] != reference[0]:
                reordered += 1
                print(
                    f"perfbench: pass {number} {keys[index]}: "
                    "same findings as the reference, listed in another order",
                    file=sys.stderr,
                )
            if ratio != first_ratios[index]:
                problems.append(f"reuse ratio {ratio} differs from pass 0's {first_ratios[index]}")
            if problems:
                failed += 1
                print(
                    f"perfbench: pass {number} {keys[index]}: " + "; ".join(problems),
                    file=sys.stderr,
                )
    return attempted, failed, reordered


def end_to_end(setup_times: List[float], measured: dict) -> Dict[str, dict]:
    """The end-to-end metrics, times scaled to the reference machine
    speed: multiplied by :data:`REFERENCE_KERNEL_S` over the mean time of
    the calibration kernel sampled between the run's operations.  This
    host runs the same work up to 1.7 times slower for stretches of
    minutes; the kernel slows with it, the program's own changes do not
    reach it."""
    passes = measured["passes"]
    operations = list(zip(*(p["times"] for p in passes)))
    kernel_s = statistics.mean(measured["calibration"])
    raw = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(p["wall"] for p in passes),
        "op_p50_s": statistics.median(statistics.median(t) for t in operations),
    }
    print(
        f"perfbench: {len(passes)} passes of {len(operations)} operations, "
        f"{len(setup_times)} set-ups, calibration kernel {kernel_s * 1000:.2f} ms "
        f"(mean of {len(measured['calibration'])}); unscaled "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        file=sys.stderr,
    )
    metrics = {
        name: {"value": value * REFERENCE_KERNEL_S / kernel_s, "unit": "s"}
        for name, value in raw.items()
    }
    metrics["peak_rss_mb"] = {"value": measured["peak_rss_mb"], "unit": "MB"}
    return metrics


def differing_counts(runs: List[dict]) -> List[str]:
    """The counters whose value differs between runs at the same traced
    pass (empty when every count repeats exactly)."""
    from perfbench.ledger import TIMING_DEPENDENT_COUNTS

    traced = [[p["counts"] for p in run["passes"] if p["traced"]] for run in runs]
    differing = set()
    for position in range(min(len(counts) for counts in traced)):
        first = traced[0][position]
        for counts in traced[1:]:
            other = counts[position]
            differing.update(
                key
                for key in set(first) | set(other)
                if key not in TIMING_DEPENDENT_COUNTS and first.get(key) != other.get(key)
            )
    return sorted(differing)


def per_layer(runs: List[dict], reordered: int) -> Dict[str, dict]:
    from perfbench.ledger import LAYERS

    passes = [p for run in runs for p in run["passes"]]
    traced = [p["ledger"] for p in passes if p["traced"]]
    values: Dict[str, float] = {
        name: statistics.median(run["setup"][name] for run in runs)
        for name in runs[0]["setup"]
    }
    for name in traced[0]:
        values[name] = statistics.median(ledger[name] for ledger in traced)
    values["trace.overhead_s"] = statistics.median(
        t["wall"] - u["wall"]
        for t, u in zip(
            (p for p in passes if p["traced"]), (p for p in passes if not p["traced"])
        )
    )
    values["cli.findings_reordered"] = reordered / len(passes)
    values["machine.kernel_s"] = statistics.mean(
        sample for run in runs for sample in run["calibration"]
    )
    differing = differing_counts(runs)
    if differing:
        print(
            "perfbench: per-layer counts differ between the traced runs: "
            + ", ".join(differing),
            file=sys.stderr,
        )
    values["ledger.counts_differing"] = len(differing)
    return {
        name: {"value": values[name], "unit": unit} for name, unit, *_ in LAYERS
    }


def run(workload: str, seed: int, seconds: float, trace: bool, hash_seed: int) -> dict:
    """One run of ``workload``.

    Untraced, the measuring process sets up (the first set-up sample) and
    runs its passes in :data:`SETUP_SAMPLES` chunks of ``seconds /
    SETUP_SAMPLES``.  Between chunks, while it waits, one more process
    sets the workload up (another set-up sample) and computes the
    references for its share of the operations.  The timed passes are so
    spread over the whole run and see more of the machine's changing
    speed than back-to-back passes would.

    Traced, :data:`TRACED_RUNS` measuring processes each run one chunk of
    ``seconds`` of paired traced and untraced passes, and a reference
    process follows each.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    workdir = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    env = _environment(hash_seed, workdir)
    parts = SETUP_SAMPLES - 1 if not trace else TRACED_RUNS

    def sample(part: int) -> Tuple[float, dict]:
        process = WorkerProcess(
            ["sample", workload, str(seed), str(part), str(parts),
             str(workdir / f"sample-{part}")],
            env,
            deadline,
        )
        try:
            return process.ready(), process.finish()
        finally:
            process.close()

    def measuring(number: int) -> WorkerProcess:
        return WorkerProcess(
            ["measure", workload, str(seed), "1" if trace else "0",
             str(workdir / f"measure-{number}")],
            env,
            deadline,
        )

    setup_times: List[float] = []
    references: Dict[str, Optional[List[str]]] = {}
    runs: List[dict] = []
    try:
        (workdir / "tmp").mkdir(parents=True)
        if trace:
            for number in range(TRACED_RUNS):
                process = measuring(number)
                try:
                    process.ready()
                    process.send(f"chunk {seconds} 1")
                    process.read("chunk")
                    process.send("finish")
                    runs.append(process.finish())
                finally:
                    process.close()
                references.update(sample(number)[1]["references"])
        else:
            process = measuring(0)
            try:
                setup_times.append(process.ready())
                for chunk in range(SETUP_SAMPLES):
                    process.send(f"chunk {seconds / SETUP_SAMPLES} 1")
                    process.read("chunk")
                    if chunk < parts:
                        ready, result = sample(chunk)
                        setup_times.append(ready)
                        references.update(result["references"])
                process.send("finish")
                runs.append(process.finish())
            finally:
                process.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    totals = [0, 0, 0]
    for measured in runs:
        counts = check(measured["keys"], measured["passes"], references)
        totals = [total + count for total, count in zip(totals, counts)]
    attempted, failed, reordered = totals
    metrics = per_layer(runs, reordered) if trace else end_to_end(setup_times, runs[0])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--hash-seed", required=True, type=int)
    args = parser.parse_args(argv)
    # Terminate like an interrupt, so that the workload process group is
    # killed and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace == "1", args.hash_seed)
    except BenchmarkError as error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
