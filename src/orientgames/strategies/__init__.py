"""Strategy library: every Maker and Breaker strategy plus baselines.

The string ids used by the command line:

    maker-cycle              path growing, closes any cycle
    maker-ck:<k>             closes only lengths k + (k-2)r
    maker-hamilton           degree stage + template cut protection
    maker-nonkcol:<k>        template cut protection at set size n/2k
    maker-random             random pair, random direction
    breaker-outstar          out-star reply (needs q >= n-2)
    breaker-box              box reduction toward an in-degree-0 vertex
    breaker-sigma:<file>     ordering play against the pattern in <file>
    breaker-random           random pair, random direction
    breaker-greedy-star      starves one vertex of in-arcs at a time
"""

from __future__ import annotations

from ..board import parse_count
from ..engine import BREAKER, MAKER
from ..errors import UnknownStrategy
from ..oracles import PatternGraph
from .boxpipe import BreakerBoxHamilton
from .hamilton import (
    DangerLedger,
    MakerHamilton,
    MakerNonKColorable,
    TemplateCutEngine,
    audit_template,
    default_expansion_size,
    generate_template,
    template_board,
)
from .paths import BreakerOutStar, MakerCk, MakerCycle
from .potential import (
    HypergraphState,
    PotentialPlay,
    es_condition,
    es_condition_families,
    potential_blocker_move,
)
from .random_play import BreakerGreedyStar, MakerGreedyAttack, RandomStrategy
from .sigma import BreakerSigmaPotential, MakerGreedyEmbedding

__all__ = [
    "BreakerBoxHamilton",
    "BreakerGreedyStar",
    "BreakerOutStar",
    "BreakerSigmaPotential",
    "DangerLedger",
    "HypergraphState",
    "MakerCk",
    "MakerCycle",
    "MakerGreedyAttack",
    "MakerGreedyEmbedding",
    "MakerHamilton",
    "MakerNonKColorable",
    "PotentialPlay",
    "RandomStrategy",
    "TemplateCutEngine",
    "audit_template",
    "build_strategy",
    "default_expansion_size",
    "es_condition",
    "es_condition_families",
    "generate_template",
    "potential_blocker_move",
    "template_board",
]


def build_strategy(spec: str):
    """Construct a strategy from its command-line id."""
    name, _, arg = spec.partition(":")
    if name == "maker-cycle":
        return MakerCycle()
    if name == "maker-ck":
        return MakerCk(parse_count(arg, "cycle length"))
    if name == "maker-hamilton":
        return MakerHamilton()
    if name == "maker-nonkcol":
        return MakerNonKColorable(parse_count(arg, "colour count"))
    if name == "maker-random":
        return RandomStrategy(MAKER)
    if name == "breaker-outstar":
        return BreakerOutStar()
    if name == "breaker-box":
        return BreakerBoxHamilton()
    if name == "breaker-sigma":
        if not arg:
            raise UnknownStrategy("breaker-sigma needs a pattern file: breaker-sigma:<file>")
        return BreakerSigmaPotential(_load_pattern_file(arg))
    if name == "breaker-random":
        return RandomStrategy(BREAKER)
    if name == "breaker-greedy-star":
        return BreakerGreedyStar()
    raise UnknownStrategy(f"unknown strategy id {spec!r}")


def _load_pattern_file(path: str) -> PatternGraph:
    try:
        with open(path) as fh:
            return PatternGraph.from_text(fh.read())
    except OSError as e:
        raise UnknownStrategy(f"cannot read pattern file {path!r}: {e}") from None
