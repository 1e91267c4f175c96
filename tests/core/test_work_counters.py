"""A job's work counters do not depend on what the process ran before it.

The solver's context tables and the analyses' fact hashes used to depend
on object addresses, so the same job counted different edge compositions
and cache hits depending on which jobs had run earlier in the process.
The counters are part of the benchmark ledger and the CI gates, so they
must repeat exactly.
"""

from repro.analyses import (
    PossibleTypesAnalysis,
    ReachingDefinitionsAnalysis,
    UninitializedVariablesAnalysis,
)
from repro.core import SPLLift
from repro.spl.benchmarks import berkeleydb_like, gpl_like, lampiro_like, mm08_like


def _solve(builder, analysis_class):
    product_line = builder()
    return SPLLift(
        analysis_class(product_line.icfg),
        feature_model=product_line.feature_model,
    ).solve()


def test_stats_repeat_after_other_jobs_in_the_same_process():
    fresh = _solve(gpl_like, ReachingDefinitionsAnalysis)
    for builder, analysis_class in (
        (lampiro_like, ReachingDefinitionsAnalysis),
        (berkeleydb_like, PossibleTypesAnalysis),
        (mm08_like, UninitializedVariablesAnalysis),
    ):
        _solve(builder, analysis_class)
    again = _solve(gpl_like, ReachingDefinitionsAnalysis)
    assert again.stats == fresh.stats
    assert again.result_digest() == fresh.result_digest()
