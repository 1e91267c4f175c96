"""Independent references the benchmark checks every output against.

All of this runs outside the timed windows.

- **Datalog engine.**  Each job is solved again with
  ``engine="datalog"`` (:mod:`repro.datalog`), an evaluator that shares
  no fixpoint code with the tabulation solver the workloads time.  Its
  result digest is the reference a batch operation's result digest must
  equal.
- **Cold analysis.**  The edit workload's warm ``spllift analyze``
  findings must be byte-identical to a cold ``spllift analyze`` of the
  same edited subject.  (Not to a Datalog run: the findings are printed
  in the solver's iteration order, which differs between engines.)
- **A2 (the paper's RQ1 oracle).**  For a seeded sample of valid
  configurations per subject, the reference's lifted results must agree
  with the per-product A2 baseline in both directions: every fact A2
  computes holds under the lifted constraint, and every fact the lifted
  constraint allows is computed by A2.  This checks the Datalog results
  of the batch workloads and the cold analysis of the edit workload; a
  reference that fails it is no reference, so every operation checked
  against it fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.baselines import solve_a2
from repro.constraints.base import as_assignment
from repro.core.solver import SPLLift, SPLLiftResults
from repro.featuremodel.configurations import iter_valid_configurations
from repro.service.jobs import resolve_analysis

__all__ = [
    "A2_CONFIGURATIONS",
    "a2_disagreements",
    "a2_problem",
    "captured_solves",
    "datalog_results",
    "lines_digest",
    "reference_digest",
    "run_cli",
    "sample_configurations",
]

#: Valid configurations per subject checked against A2.
A2_CONFIGURATIONS = 2


def lines_digest(lines: Sequence[str]) -> str:
    """``SPLLiftResults.result_digest`` of already rendered lines, hashed
    line by line instead of over one joined string."""
    digest = hashlib.sha256()
    for number, line in enumerate(lines):
        if number:
            digest.update(b"\n")
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def datalog_results(product_line, analysis: str) -> SPLLiftResults:
    """The job solved by the Datalog engine (feature model in edge mode)."""
    problem = resolve_analysis(analysis)(product_line.icfg)
    return SPLLift(problem, feature_model=product_line.feature_model).solve(
        engine="datalog"
    )


@contextlib.contextmanager
def captured_solves() -> Iterator[List[Tuple[SPLLift, SPLLiftResults]]]:
    """Collect ``(SPLLift, results)`` of every solve run in the block, so a
    CLI run's lifted results can be checked against A2 too."""
    solved: List[Tuple[SPLLift, SPLLiftResults]] = []
    original = SPLLift.__dict__["solve"]

    def solve(self, *args, **kwargs):
        results = original(self, *args, **kwargs)
        solved.append((self, results))
        return results

    SPLLift.solve = solve
    try:
        yield solved
    finally:
        SPLLift.solve = original


def run_cli(argv: Sequence[str]) -> Tuple[int, str, str]:
    """``spllift <argv>`` in this process: (exit code, stdout, stderr)."""
    import repro.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = repro.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sample_configurations(
    results: SPLLiftResults,
    features: Sequence[str],
    model,
    rng: random.Random,
) -> List[FrozenSet[str]]:
    """:data:`A2_CONFIGURATIONS` distinct valid configurations over
    ``features``, drawn uniformly from all subsets by rejection; the first
    valid ones in enumeration order fill up what 200 draws did not find."""
    chosen: List[FrozenSet[str]] = []
    for _ in range(200):
        if len(chosen) == A2_CONFIGURATIONS:
            return chosen
        config = frozenset(name for name in features if rng.random() < 0.5)
        if config not in chosen and results.config_is_valid(config, features):
            chosen.append(config)
    for config in iter_valid_configurations(model, over=features):
        if len(chosen) == A2_CONFIGURATIONS:
            break
        if config not in chosen:
            chosen.append(config)
    return chosen


def _holds_under(results: SPLLiftResults, config: FrozenSet[str], features: Sequence[str]):
    """``results.holds_in(stmt, fact, config, over=features)`` with the
    configuration cube built once and each constraint tested once."""
    system = results.system
    cube = system.and_all(
        system.var(name) if enabled else ~system.var(name)
        for name, enabled in as_assignment(config, features).items()
    )
    memo = {}

    def holds(stmt, fact) -> bool:
        constraint = results.constraint_for(stmt, fact)
        if constraint.is_false:
            return False
        verdict = memo.get(constraint)
        if verdict is None:
            verdict = memo[constraint] = not (constraint & cube).is_false
        return verdict

    return holds


def a2_disagreements(
    results: SPLLiftResults,
    icfg,
    analysis: str,
    configurations: Sequence[FrozenSet[str]],
    features: Sequence[str],
) -> List[str]:
    """Where the lifted results and A2 disagree, as readable lines (empty
    when they agree on every sampled configuration): the two directions
    of the paper's RQ1 check."""
    problems: List[str] = []
    for config in configurations:
        holds = _holds_under(results, config, features)
        a2 = solve_a2(resolve_analysis(analysis)(icfg), config)
        for stmt in icfg.reachable_instructions():
            a2_facts = a2.at(stmt)
            for fact in a2_facts:
                if not holds(stmt, fact):
                    problems.append(
                        f"lifted misses {fact!r} at {stmt.location} in {sorted(config)}"
                    )
            for fact in results.results_at(stmt):
                if fact not in a2_facts and holds(stmt, fact):
                    problems.append(
                        f"A2 lacks {fact!r} at {stmt.location} in {sorted(config)}"
                    )
    return problems


def reachable_features(icfg) -> Tuple[str, ...]:
    return tuple(sorted(icfg.annotated_feature_names()))


def a2_problem(
    results: SPLLiftResults, icfg, model, analysis: str, seed: int, key: str
) -> Optional[str]:
    """None when ``results`` agree with A2 on the configurations sampled
    for ``key``, else the first disagreement (also printed to stderr)."""
    features = reachable_features(icfg)
    rng = random.Random(f"perfbench:{seed}:{key}:a2")
    configurations = sample_configurations(results, features, model, rng)
    problems = a2_disagreements(results, icfg, analysis, configurations, features)
    if problems:
        print(f"perfbench: {key}: A2 check: {problems[0]}", file=sys.stderr)
        return problems[0]
    return None


def reference_digest(product_line, analysis: str, seed: int, key: str) -> Optional[str]:
    """The Datalog result digest of one job, or None when those results
    disagree with A2 on the sampled configurations."""
    results = datalog_results(product_line, analysis)
    if a2_problem(
        results, product_line.icfg, product_line.feature_model, analysis, seed, key
    ):
        return None
    return results.result_digest()
