"""Workload inputs derived from ``--seed``: subjects, jobs and edit targets.

Seed 0 is the paper lineup exactly as :mod:`repro.spl.benchmarks` builds
it.  Any other seed alpha-renames each subject's program identifiers
(classes, methods, fields, parameters and locals) by a permutation drawn
from the seed, and picks the edited method among the best-case edit
targets.  The program text, every job digest, the result lines and their
sort order change; the shape of each subject (code, call structure,
annotations, feature model) does not.

Why not fresh generator seeds: redrawing the generator seed for the same
spec changes the amount of analysis work by far more than the noise a
regression gate can tolerate.  On a 2-vCPU Xeon virtual machine a cold
12-job pass took 2.6 s to 9.2 s across generator seeds 1-11 (8.5 s at
the canonical seeds), so a ten-seed set of runs would spread by tens of
percent on identical code.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.minijava.lexer import KEYWORDS
from repro.spl.benchmarks import paper_subjects
from repro.spl.edits import choose_edit_target, dirty_closure
from repro.spl.product_line import ProductLine

__all__ = [
    "ANALYSES",
    "CLI_ANALYSIS",
    "Job",
    "edit_target",
    "paper_jobs",
    "renamed_source",
    "subjects",
]

#: The paper's Table 2 clients, in table order (canonical service names).
ANALYSES = ("possible_types", "reaching_definitions", "uninitialized_variables")

#: ``spllift analyze --analysis`` spelling of each client.
CLI_ANALYSIS = {
    "possible_types": "types",
    "reaching_definitions": "rd",
    "uninitialized_variables": "uninit",
}

#: Names the language or the entry point fixes; never renamed.
_RESERVED = frozenset(KEYWORDS) | {"Main", "main", "print", "secret", "nondet"}
_IDENTIFIER = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")


@dataclass(frozen=True)
class Job:
    """One operation's input: a subject and one analysis on it."""

    subject: str
    analysis: str

    @property
    def key(self) -> str:
        return f"{self.subject}/{self.analysis}"


def paper_jobs() -> List[Job]:
    """The 12 subject x analysis jobs, in Table 2 order."""
    return [
        Job(name, analysis)
        for name, _ in paper_subjects()
        for analysis in ANALYSES
    ]


def renamed_source(source: str, rng: random.Random) -> str:
    """Alpha-rename ``source``: permute identifiers within each naming
    family (``C3``, ``c1_m2``, ``state0``, ``v4``, ...).

    Preprocessor lines are left alone, so feature names are kept.  The
    map is a bijection on each family, so the program means the same.
    """
    lines = source.splitlines(keepends=True)
    names = set()
    for line in lines:
        if not line.lstrip().startswith("#"):
            names.update(_IDENTIFIER.findall(line))
    families: Dict[str, List[str]] = {}
    for name in sorted(names - _RESERVED):
        families.setdefault(re.sub(r"\d+", "#", name), []).append(name)
    mapping: Dict[str, str] = {}
    for family in sorted(families):
        members = families[family]
        shuffled = list(members)
        rng.shuffle(shuffled)
        mapping.update(zip(members, shuffled))

    def rename(match: "re.Match[str]") -> str:
        return mapping.get(match.group(0), match.group(0))

    return "".join(
        line if line.lstrip().startswith("#") else _IDENTIFIER.sub(rename, line)
        for line in lines
    )


def subjects(seed: int) -> Dict[str, ProductLine]:
    """The four paper subjects for ``seed``, by name, in paper order."""
    built = {}
    for name, builder in paper_subjects():
        product_line = builder()
        if seed != 0:
            rng = random.Random(f"perfbench:{seed}:{name}")
            product_line = replace(
                product_line,
                source=renamed_source(product_line.source, rng),
                _ast=None,
                _ir=None,
                _icfg=None,
            )
        built[name] = product_line
    return built


def edit_target(product_line: ProductLine, seed: int) -> Tuple[str, int]:
    """The method the scripted edit touches: ``(qualified name, dirty
    closure size)``.

    Seed 0 takes :func:`repro.spl.edits.choose_edit_target`.  Other seeds
    draw among every method that ties for its smallest dirty closure, so
    the share of summaries an edit invalidates stays that of the paper
    lineup's best case.
    """
    best_name, best_size = choose_edit_target(product_line)
    if seed == 0:
        return best_name, best_size
    icfg = product_line.icfg
    graph = icfg.call_graph
    entries = set(icfg.entry_points)
    ties = sorted(
        method.qualified_name
        for method in graph.reachable_methods
        if method not in entries and len(dirty_closure(graph, method)) == best_size
    )
    rng = random.Random(f"perfbench:{seed}:{product_line.name}:edit")
    return rng.choice(ties), best_size
