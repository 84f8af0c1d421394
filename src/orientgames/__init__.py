"""Biased orientation games on the complete graph K_n.

Two players alternately direct undirected edges of K_n until the board is
a tournament; Maker wants a fixed property of the final tournament, at
bias p arcs per turn against Breaker's q.  The package provides the board
and turn engine, the strategies for the cycle, Hamiltonicity and
H-creation games, exact property oracles, a box-game module, and an
exhaustive small-board solver used as ground truth.
"""

from .board import Board
from .errors import GameError

__all__ = ["Board", "GameError"]

__version__ = "0.1.0"
