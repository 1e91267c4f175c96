"""The three workloads: set-up, one timed operation, and its reference.

Each workload runs the same 12 jobs (4 paper subjects x 3 paper
analyses) in one single-threaded process, with the batch scheduler's
jobs inline (``use_pool=False``).

- ``paper_cold``: ``run_batch([job], store)`` into an empty directory
  store, as ``spllift batch --no-pool`` on a cold cache does.  The whole
  cold pipeline: parse, lower, ICFG, lift, solve, render, put.
- ``edit_warm``: a scripted one-method edit, then ``spllift analyze
  --incremental-cache`` on the edited subject against a summary store
  seeded during set-up.  The only workload that reuses method summaries;
  it renders findings, not whole records.
- ``store_replay``: the same ``run_batch([job], store)`` against a store
  filled during set-up, so every job is a hit: job digest, store read
  and JSON decode, with no parse, solve or render.

State is isolated per operation outside the timed window: a fresh store
for each cold job, the seeded summary store restored before each edit,
and ``gc.collect()`` before every operation.  Stores are seeded in child
processes so that the peak RSS of the workload process measures the
operations, not the fill.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import inputs, oracle

__all__ = ["WORKLOADS", "seed_store"]

_REUSE = re.compile(r"summaries: (\d+) reused, (\d+) recomputed")


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


class Workload:
    """One workload's inputs and operations in a workload process."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.jobs = inputs.paper_jobs()
        self.product_lines = inputs.subjects(seed)

    def setup(self) -> None:
        """Everything before the first timed operation, after generation."""

    def prepare(self, index: int) -> None:
        """Isolate operation ``index`` (untimed)."""

    def run(self, index: int) -> Tuple[object, Optional[float]]:
        """Operation ``index`` (timed): what it produced and, where the
        workload reuses summaries, the operation's reuse ratio."""
        raise NotImplementedError

    def checked_output(self, produced: object) -> Tuple:
        """The part of an operation's product that is compared with the
        reference (untimed)."""
        return produced

    def canonical(self, output: Tuple) -> Tuple:
        """``output`` with every order the program does not promise to
        keep normalized away."""
        return output

    def finish(self, index: int) -> None:
        """Clean up after operation ``index`` (untimed)."""

    def references(self, indices: List[int]) -> Dict[int, Optional[Tuple]]:
        """The output each of these operations must produce (None: no
        reference)."""
        raise NotImplementedError


class _BatchWorkload(Workload):
    """``run_batch([job], store)``, one job per operation."""

    status = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.service import AnalysisJob

        self.analysis_jobs = [
            AnalysisJob.from_product_line(
                self.product_lines[job.subject], job.analysis
            )
            for job in self.jobs
        ]
        self.store = None

    def run(self, index: int) -> Tuple[object, Optional[float]]:
        from repro.service import run_batch

        outcome = run_batch(
            [self.analysis_jobs[index]], self.store, use_pool=False
        ).outcomes[0]
        return (outcome.status, outcome.record), None

    def checked_output(self, produced: object) -> Tuple:
        """Status, the record's result digest, and the digest of the
        record's lines as read back (they must agree)."""
        status, record = produced
        if record is None:
            return status, None, None
        return status, record.get("result_digest"), oracle.lines_digest(record["lines"])

    def references(self, indices: List[int]) -> Dict[int, Optional[Tuple]]:
        references: Dict[int, Optional[Tuple]] = {}
        for index in indices:
            job = self.jobs[index]
            digest = oracle.reference_digest(
                self.product_lines[job.subject], job.analysis, self.seed, job.key
            )
            references[index] = None if digest is None else (self.status, digest, digest)
        return references


class PaperCold(_BatchWorkload):
    name = "paper_cold"
    status = "computed"

    def prepare(self, index: int) -> None:
        from repro.service import ResultStore

        self.store = ResultStore(_fresh_dir(self.workdir / "cold-store"))

    def finish(self, index: int) -> None:
        shutil.rmtree(self.workdir / "cold-store")


class StoreReplay(_BatchWorkload):
    name = "store_replay"
    status = "cached"

    def setup(self) -> None:
        from repro.service import ResultStore

        root = self.workdir / "replay-store"
        _seed_in_children("store_replay", self.seed, root)
        self.store = ResultStore(root)


class EditWarm(Workload):
    name = "edit_warm"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.files = _fresh_dir(workdir / "edit-files")
        self.snapshot = workdir / "summaries-seeded"
        self.live = workdir / "summaries-live"
        self.targets: Dict[str, str] = {}

    def setup(self) -> None:
        write_subject_files(self.product_lines, self.files)
        for name, product_line in self.product_lines.items():
            self.targets[name] = inputs.edit_target(product_line, self.seed)[0]
        _seed_in_children("edit_warm", self.seed, self.snapshot)

    def _argv(self, index: int, source: Path) -> List[str]:
        job = self.jobs[index]
        return analyze_argv(source, self.files / f"{job.subject}.fm", job.analysis)

    def prepare(self, index: int) -> None:
        key = _slug(self.jobs[index].key)
        if self.live.exists():
            shutil.rmtree(self.live)
        shutil.copytree(self.snapshot / key, self.live)

    def run(self, index: int) -> Tuple[object, Optional[float]]:
        import repro.spl.edits

        job = self.jobs[index]
        edited, _, _ = repro.spl.edits.edited_product_line(
            self.product_lines[job.subject], self.targets[job.subject]
        )
        source = self.files / f"{job.subject}+edit.mj"
        source.write_text(edited.source)
        code, out, err = oracle.run_cli(
            self._argv(index, source) + ["--incremental-cache", str(self.live)]
        )
        match = _REUSE.search(err)
        reused, recomputed = (int(group) for group in match.groups()) if match else (0, 0)
        ratio = reused / (reused + recomputed) if reused + recomputed else None
        return (code, out), ratio

    def canonical(self, output: Tuple) -> Tuple:
        """Exit code, header and the findings as a sorted list of
        (location line, constraint line) pairs.  ``spllift analyze`` lists
        the ``rd`` and ``types`` findings in the order the solver's
        result table holds them, and that order is not the same from one
        solve to the next: a warm solve fills the table in another order
        than a cold one, and so can a cold solve in a process that did
        other work before."""
        code, out = output
        lines = out.splitlines()
        return code, lines[:1], sorted(zip(lines[1::2], lines[2::2]))

    def references(self, indices: List[int]) -> Dict[int, Optional[Tuple]]:
        """A cold ``spllift analyze`` of the same edited subject, whose
        lifted results must agree with A2."""
        import repro.spl.edits

        references: Dict[int, Optional[Tuple]] = {}
        for index in indices:
            job = self.jobs[index]
            edited, _, _ = repro.spl.edits.edited_product_line(
                self.product_lines[job.subject], self.targets[job.subject]
            )
            source = self.files / f"{job.subject}+edit.mj"
            source.write_text(edited.source)
            with oracle.captured_solves() as solved:
                code, out, _ = oracle.run_cli(self._argv(index, source))
            spllift, results = solved[0]
            problem = oracle.a2_problem(
                results,
                spllift.analysis.icfg,
                edited.feature_model,
                job.analysis,
                self.seed,
                job.key + "+edit",
            )
            references[index] = None if problem else (code, out)
        return references


def analyze_argv(source: Path, feature_model: Path, analysis: str) -> List[str]:
    argv = ["analyze", str(source), "--analysis", inputs.CLI_ANALYSIS[analysis]]
    if feature_model.exists():
        argv += ["--feature-model", str(feature_model)]
    return argv


def _slug(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", key)


def write_subject_files(product_lines, directory: Path) -> None:
    """``<subject>.mj`` and, where the subject has a rooted model,
    ``<subject>.fm`` for the CLI to read."""
    from repro.featuremodel.printer import render_feature_model

    for name, product_line in product_lines.items():
        (directory / f"{name}.mj").write_text(product_line.source)
        model = product_line.feature_model
        if model is not None and model.root is not None:
            (directory / f"{name}.fm").write_text(render_feature_model(model))


#: Child processes that seed a store, one share of the jobs each (this
#: host has two CPUs).
SEEDERS = 2


def _seed_in_children(workload: str, seed: int, store: Path) -> None:
    """Fill ``store`` for ``workload`` in :data:`SEEDERS` child processes
    and wait for them."""
    worker = str(Path(__file__).resolve().parent / "worker.py")
    children = [
        subprocess.Popen(
            [sys.executable, worker, "seed-store", workload, str(seed), str(store),
             str(part), str(SEEDERS)]
        )
        for part in range(SEEDERS)
    ]
    try:
        codes = [child.wait(timeout=170) for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    if any(codes):
        raise SystemExit(f"perfbench: seeding {workload} failed (exit codes {codes})")


def seed_store(workload: str, seed: int, store: Path, part: int, parts: int) -> None:
    """The child's side of :func:`_seed_in_children`: seed the jobs whose
    index is ``part`` modulo ``parts``."""
    product_lines = inputs.subjects(seed)
    share = inputs.paper_jobs()[part::parts]
    if workload == "store_replay":
        from repro.service import AnalysisJob, ResultStore, run_batch

        jobs = [
            AnalysisJob.from_product_line(product_lines[job.subject], job.analysis)
            for job in share
        ]
        report = run_batch(jobs, ResultStore(store), use_pool=False)
        if report.computed != len(jobs):
            raise SystemExit(f"perfbench: store seeding failed: {report.describe()}")
        return
    files = _fresh_dir(store.parent / f"seed-files-{part}")
    write_subject_files(product_lines, files)
    for job in share:
        argv = analyze_argv(
            files / f"{job.subject}.mj", files / f"{job.subject}.fm", job.analysis
        )
        target = store / _slug(job.key)
        code, _, err = oracle.run_cli(argv + ["--incremental-cache", str(target)])
        if code not in (0, 1):
            raise SystemExit(f"perfbench: summary seeding failed for {job.key}: {err}")


WORKLOADS = {cls.name: cls for cls in (PaperCold, EditWarm, StoreReplay)}
