"""Scenario fuzzing: random fault timelines, a tri-modal differential
oracle, deterministic shrinking, and a reproducer corpus.

The package closes the loop the hand-written catalog cannot: instead
of trusting that the python, vector, and streamed execution paths
agree on the scenarios we thought of, :class:`FuzzRunner` generates
randomized multi-epoch fault timelines and *checks* that they agree on
each one.  Any divergence (or crash) is shrunk by :class:`Shrinker` to
a minimal :class:`TimelineSpec` and written to the regression corpus,
which tier-1 replays forever after.  See ``docs/FUZZING.md``.
"""

from repro.fuzz.corpus import (
    Reproducer,
    load_corpus,
    load_reproducer,
    reproducer_scenario,
    save_reproducer,
)
from repro.fuzz.generate import CaseGenerator
from repro.fuzz.oracle import ModeDivergence, OracleResult, TriModalOracle
from repro.fuzz.runner import CaseOutcome, FuzzReport, FuzzRunner
from repro.fuzz.shrink import ShrinkResult, Shrinker
from repro.fuzz.spec import (
    EpochPlan,
    SpecError,
    TimelineSpec,
    canonical_json,
    timeline_from_world,
)

__all__ = [
    "CaseGenerator",
    "CaseOutcome",
    "EpochPlan",
    "FuzzReport",
    "FuzzRunner",
    "ModeDivergence",
    "OracleResult",
    "Reproducer",
    "ShrinkResult",
    "Shrinker",
    "SpecError",
    "TimelineSpec",
    "TriModalOracle",
    "canonical_json",
    "load_corpus",
    "load_reproducer",
    "reproducer_scenario",
    "save_reproducer",
    "timeline_from_world",
]
