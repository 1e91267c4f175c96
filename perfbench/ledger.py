"""The per-layer ledger: spans around public calls into each layer.

The traced run wraps a fixed list of public functions and methods of the
program (:meth:`Ledger.install`) with a recorder that keeps one span per call --
name, start, end, parent -- in memory.  Nothing under ``src/`` changes;
the wrappers are installed around each traced operation and removed
after it.  A
layer's *self time* is the time its spans cover minus the time covered by
spans nested in them, so the layers of a pass add up to the time spent
inside any span, and ``unattributed_s`` is the rest of the pass.

Counts are read off the values those calls take or return (source bytes,
solver and BDD statistics, rendered lines, store bytes).  Computing them
costs time too; that time is booked to ``trace.bookkeeping_s`` instead of
to the layer that happened to be on the stack.

:data:`LAYERS` is the ledger's documentation: every per-layer metric,
the end-to-end metric it should move, and the workloads that load it or
bypass it.  ``BENCHMARK.json`` lists the same metrics in the same order.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "Ledger",
    "TIMING_DEPENDENT_COUNTS",
    "pass_counts",
    "pass_metrics",
]

#: (metric, unit, better, moves, loaded by, bypassed by).
LAYERS: Tuple[Tuple[str, str, str, str, str, str], ...] = (
    ("startup.import_s", "s", "lower", "setup_s", "all", "-"),
    ("spl.generate_s", "s", "lower", "setup_s", "all", "-"),
    ("spl.edit_s", "s", "lower", "edit_warm/op_p50_s", "edit_warm", "paper_cold, store_replay"),
    ("setup.seed_s", "s", "lower", "setup_s", "edit_warm, store_replay", "paper_cold"),
    ("minijava.parse_s", "s", "lower", "pass_s, op_p50_s", "paper_cold, edit_warm", "store_replay"),
    ("minijava.source_bytes", "bytes", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("featuremodel.parse_s", "s", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("ir.lower_s", "s", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("ir.icfg_s", "s", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("ir.instructions", "count", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("core.lift_s", "s", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("ide.solve_s", "s", "lower", "pass_s, op_p50_s", "paper_cold, edit_warm", "store_replay"),
    ("ide.jump_functions", "count", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("ide.flow_applications", "count", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("ide.edge_compositions", "count", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("ide.value_updates", "count", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("ide.worklist_deduped", "count", "higher", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("ide.compose_hit_ratio", "ratio", "higher", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("ide.join_hit_ratio", "ratio", "higher", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("bdd.nodes", "count", "lower", "pass_s, peak_rss_mb", "paper_cold, edit_warm", "store_replay"),
    ("bdd.apply_calls", "count", "lower", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("bdd.apply_hit_ratio", "ratio", "higher", "pass_s", "paper_cold, edit_warm", "store_replay"),
    ("summaries.attach_s", "s", "lower", "edit_warm/pass_s", "edit_warm", "paper_cold, store_replay"),
    ("summaries.harvest_s", "s", "lower", "edit_warm/pass_s", "edit_warm", "paper_cold, store_replay"),
    ("summaries.reused", "count", "higher", "edit_warm/pass_s", "edit_warm", "paper_cold, store_replay"),
    ("summaries.recomputed", "count", "lower", "edit_warm/pass_s", "edit_warm", "paper_cold, store_replay"),
    ("summaries.reuse_ratio", "ratio", "higher", "edit_warm/pass_s", "edit_warm", "paper_cold, store_replay"),
    ("result.digest_s", "s", "lower", "paper_cold/pass_s", "paper_cold", "store_replay, edit_warm"),
    ("result.lines_s", "s", "lower", "paper_cold/pass_s, peak_rss_mb", "paper_cold", "store_replay, edit_warm"),
    ("result.findings_s", "s", "lower", "edit_warm/pass_s", "edit_warm", "paper_cold, store_replay"),
    ("result.renders", "count", "lower", "paper_cold/pass_s", "paper_cold", "store_replay, edit_warm"),
    ("result.constraints", "count", "lower", "paper_cold/pass_s", "paper_cold", "store_replay, edit_warm"),
    ("result.distinct_nodes", "count", "lower", "paper_cold/pass_s", "paper_cold", "store_replay, edit_warm"),
    ("store.get_s", "s", "lower", "store_replay/op_p50_s", "store_replay, edit_warm", "-"),
    ("store.put_s", "s", "lower", "paper_cold/pass_s", "paper_cold, edit_warm", "store_replay"),
    ("store.get_hits", "count", "higher", "store_replay/op_p50_s", "store_replay, edit_warm", "paper_cold"),
    ("store.get_misses", "count", "lower", "paper_cold/pass_s", "paper_cold, edit_warm", "store_replay"),
    ("store.put_bytes", "bytes", "lower", "paper_cold/pass_s", "paper_cold, edit_warm", "store_replay"),
    ("jobs.digest_s", "s", "lower", "store_replay/op_p50_s", "store_replay, paper_cold", "edit_warm"),
    ("scheduler.overhead_s", "s", "lower", "store_replay/op_p50_s", "store_replay, paper_cold", "edit_warm"),
    ("cli.overhead_s", "s", "lower", "edit_warm/op_p50_s", "edit_warm", "paper_cold, store_replay"),
    ("cli.findings_reordered", "count", "lower", "-", "edit_warm", "paper_cold, store_replay"),
    ("unattributed_s", "s", "lower", "pass_s", "all", "-"),
    ("ledger.coverage", "ratio", "higher", "-", "all", "-"),
    ("ledger.counts_differing", "count", "lower", "-", "all", "-"),
    ("trace.bookkeeping_s", "s", "lower", "-", "all", "-"),
    ("trace.overhead_s", "s", "lower", "-", "all", "-"),
    ("machine.kernel_s", "s", "lower", "-", "all", "-"),
)


#: Span name -> the per-layer time metric its self time is booked to.
_SELF_TIME = {
    "minijava.parse": "minijava.parse_s",
    "featuremodel.parse": "featuremodel.parse_s",
    "ir.lower": "ir.lower_s",
    "ir.icfg": "ir.icfg_s",
    "core.lift": "core.lift_s",
    "ide.solve": "ide.solve_s",
    "summaries.attach": "summaries.attach_s",
    "summaries.harvest": "summaries.harvest_s",
    "result.digest": "result.digest_s",
    "result.lines": "result.lines_s",
    "result.findings": "result.findings_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "jobs.digest": "jobs.digest_s",
    "scheduler": "scheduler.overhead_s",
    "cli": "cli.overhead_s",
    "spl.edit": "spl.edit_s",
    "trace": "trace.bookkeeping_s",
}


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


class Ledger:
    """Records spans and counts for one traced operation at a time."""

    def __init__(self) -> None:
        self._spans: List[List[object]] = []  # [name, start, end, parent]
        self._stack: List[int] = []
        self._counts: Counter = Counter()
        self._rendered: set = set()
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, function: Callable, count: Optional[Callable] = None):
        """``function`` wrapped in a span; ``count(result, args)`` runs
        after the span closes, inside a ``trace`` bookkeeping span."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                booking = self._open("trace")
                try:
                    count(result, args)
                finally:
                    self._close(booking)
            return result

        return traced

    # -- installation --------------------------------------------------

    def _replace(self, owner: object, attribute: str, value: object) -> None:
        self._installed.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap the public calls of every layer; :meth:`uninstall` undoes it."""
        import repro.cli
        import repro.spl.edits
        import repro.spl.product_line as product_line
        from repro.core.solver import SPLLift, SPLLiftResults
        from repro.ide.summaries import SummaryCache
        from repro.ir.icfg import ICFG
        from repro.service.backends.base import InstrumentedStore
        from repro.service.jobs import AnalysisJob
        from repro.service.scheduler import BatchScheduler

        calls = [
            (BatchScheduler, "run", "scheduler", None),
            (AnalysisJob, "feature_model", "featuremodel.parse", None),
            (repro.cli, "parse_feature_model", "featuremodel.parse", None),
            (repro.cli, "main", "cli", None),
            (repro.spl.edits, "edited_product_line", "spl.edit", None),
            (product_line, "parse_program", "minijava.parse", self._count_source),
            (product_line, "lower_program", "ir.lower", self._count_instructions),
            (SPLLift, "__init__", "core.lift", None),
            (SPLLift, "solve", "ide.solve", self._count_solve),
            (SummaryCache, "attach", "summaries.attach", None),
            (SummaryCache, "harvest", "summaries.harvest", None),
            (SPLLiftResults, "result_digest", "result.digest", None),
            (SPLLiftResults, "result_lines", "result.lines", self._count_render),
            (SPLLiftResults, "finding_constraint", "result.findings", None),
            (SPLLiftResults, "results_at", "result.findings", None),
            (InstrumentedStore, "get", "store.get", self._count_get),
            (InstrumentedStore, "put", "store.put", self._count_put),
        ]
        for owner, attribute, name, count in calls:
            self._replace(owner, attribute, self.span(name, getattr(owner, attribute), count))
        digest = AnalysisJob.__dict__["digest"]
        self._replace(AnalysisJob, "digest", property(self.span("jobs.digest", digest.fget)))
        for_entry = ICFG.__dict__["for_entry"]
        self._replace(ICFG, "for_entry", classmethod(self.span("ir.icfg", for_entry.__func__)))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- counters ------------------------------------------------------

    def _count_source(self, program, args) -> None:
        self._counts["minijava.source_bytes"] += len(args[0].encode("utf-8"))

    def _count_instructions(self, program, args) -> None:
        self._counts["ir.instructions"] += sum(
            len(method.instructions)
            for cls in program.classes.values()
            for method in cls.methods.values()
        )

    def _count_solve(self, results, args) -> None:
        counts = self._counts
        stats = results.stats
        for key in (
            "jump_functions",
            "flow_applications",
            "edge_compositions",
            "value_updates",
            "worklist_deduped",
            "compose_cache_hits",
            "compose_cache_misses",
            "join_cache_hits",
            "join_cache_misses",
        ):
            counts[f"ide.{key}"] += int(stats.get(key, 0))
        counts["summaries.reused"] += int(stats.get("summaries_reused", 0))
        counts["summaries.recomputed"] += int(stats.get("summaries_recomputed", 0))
        bdd = args[0].system.solver_stats()
        counts["bdd.nodes"] += bdd["bdd_nodes"]
        counts["bdd.apply_calls"] += bdd["bdd_apply_calls"]
        counts["bdd.apply_cache_hits"] += bdd["bdd_apply_cache_hits"]
        counts["bdd.apply_cache_misses"] += bdd["bdd_apply_cache_misses"]

    def _count_render(self, lines, args) -> None:
        results = args[0]
        self._counts["result.renders"] += 1
        if id(results) in self._rendered:
            return
        self._rendered.add(id(results))
        self._counts["result.constraints"] += len(lines)
        self._counts["result.distinct_nodes"] += len(
            {
                constraint.node
                for _, constraint in results.items()
                if not constraint.is_false
            }
        )

    def _count_get(self, record, args) -> None:
        self._counts["store.get_hits" if record is not None else "store.get_misses"] += 1

    def _count_put(self, location, args) -> None:
        if hasattr(location, "stat"):
            self._counts["store.put_bytes"] += location.stat().st_size

    # -- per operation -----------------------------------------------

    def begin(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self._counts.clear()
        self._rendered.clear()

    def snapshot(self) -> Dict[str, object]:
        """Self time per layer, time inside any span, and raw counts of
        what was recorded since :meth:`begin`."""
        children = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent >= 0:
                children[parent] += end - start
        self_times: Dict[str, float] = {name: 0.0 for name in _SELF_TIME.values()}
        covered = 0.0
        for (name, start, end, parent), nested in zip(self._spans, children):
            self_times[_SELF_TIME[name]] += (end - start) - nested
            if parent < 0:
                covered += end - start
        return {"self": self_times, "covered": covered, "counts": dict(self._counts)}


#: Counts that legitimately differ between runs: a result record carries
#: its solve time, so the bytes a put writes vary with its digits.
TIMING_DEPENDENT_COUNTS = frozenset({"store.put_bytes"})


def pass_counts(snapshots: List[Dict[str, object]]) -> Dict[str, int]:
    """The summed raw counts of a pass's operations."""
    counts: Counter = Counter()
    for snapshot in snapshots:
        counts.update(snapshot["counts"])
    return dict(sorted(counts.items()))


def pass_metrics(wall: float, snapshots: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer self times, counts and ratios of one pass, from the
    snapshots of its operations; ``wall`` is the pass's timed wall time."""
    metrics: Dict[str, float] = {name: 0.0 for name in _SELF_TIME.values()}
    covered = 0.0
    for snapshot in snapshots:
        covered += snapshot["covered"]
        for name, seconds in snapshot["self"].items():
            metrics[name] += seconds
    bookkeeping = metrics["trace.bookkeeping_s"]
    metrics["unattributed_s"] = wall - covered
    metrics["ledger.coverage"] = (covered - bookkeeping) / (wall - bookkeeping)
    counts = Counter(pass_counts(snapshots))
    for key in (
        "minijava.source_bytes",
        "ir.instructions",
        "ide.jump_functions",
        "ide.flow_applications",
        "ide.edge_compositions",
        "ide.value_updates",
        "ide.worklist_deduped",
        "bdd.nodes",
        "bdd.apply_calls",
        "summaries.reused",
        "summaries.recomputed",
        "result.renders",
        "result.constraints",
        "result.distinct_nodes",
        "store.get_hits",
        "store.get_misses",
        "store.put_bytes",
    ):
        metrics[key] = counts[key]
    metrics["ide.compose_hit_ratio"] = _ratio(
        counts["ide.compose_cache_hits"], counts["ide.compose_cache_misses"]
    )
    metrics["ide.join_hit_ratio"] = _ratio(
        counts["ide.join_cache_hits"], counts["ide.join_cache_misses"]
    )
    metrics["bdd.apply_hit_ratio"] = _ratio(
        counts["bdd.apply_cache_hits"], counts["bdd.apply_cache_misses"]
    )
    metrics["summaries.reuse_ratio"] = _ratio(
        counts["summaries.reused"], counts["summaries.recomputed"]
    )
    return metrics
