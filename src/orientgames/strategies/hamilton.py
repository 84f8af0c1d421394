"""Maker's two-stage Hamiltonicity strategy and its shared machinery.

Stage 1 builds degrees.  The orientation game is mirrored onto the
complete bipartite graph on two copies of the vertex set: orienting i->j
corresponds to the bipartite edge (first-copy i, second-copy j), and
whoever orients it also hands the opposite bipartite edge to Breaker's
side.  Maker repeatedly eases the dangerous vertex with the largest
danger value deg_B(v) - 2b*deg_M(v), claiming a uniformly random free
incident edge; diagonal edges and edges whose mirror Breaker already owns
are recorded and immediately redrawn (the reduction's free extra turn).
Reaching bipartite Maker-degree c+1 everywhere pins every real vertex's
in- and out-degree to at least c.

Stage 2 protects cuts.  A fixed random template tournament T* with arcs
both ways across every pair of large disjoint sets is generated up front;
from the handoff on, Maker only orients arcs agreeing with T*, choosing
the arc by potential over a seeded sample of ordered set-pair cuts (the
TemplateCutEngine): a cut (A, B) dies happily once any T*-arc from A to
B is oriented, and its threat grows as Breaker reverses its remaining
slots.  Keeping one arc each way across every large cut makes the final
tournament strongly connected, hence Hamiltonian.

MakerNonKColorable plays the shared PotentialPlay against T* over every
cut when they are few, and the sampled engine otherwise.
"""

from __future__ import annotations

import itertools
import math
import zlib

import numpy as np

from ..board import HIGH_LOW, LOW_HIGH, UNDIRECTED, Board
from ..engine import BREAKER, MAKER, Strategy
from ..errors import BadConfig, CriterionUnmet, NoAgreeingPair
from .potential import HypergraphState, PotentialPlay, agreeing_arc

E_FREE, E_MAKER, E_BREAKER = 0, 1, 2

TARGET_REAL_DEGREE = 4  # c; bipartite goal is c+1
SAMPLE_BUDGET = 4096  # sampled cuts tracked by the stage-2 engine
CANDIDATE_CAP = 64  # arcs scored per stage-2 move
TEMPLATE_TRIES = 32  # templates drawn before giving up on the audit


def default_expansion_size(n: int) -> int:
    """ceil(n / (ln n)^(2/5)), clamped to [1, n]."""
    if n < 3:
        return 1
    return min(n, math.ceil(n / math.log(n) ** 0.4))


# ---------------------------------------------------------------------------
# Template tournaments
# ---------------------------------------------------------------------------


def generate_template(n: int, seed, audit_samples: int = 10_000,
                      k: int | None = None) -> np.ndarray:
    """Seeded fair-coin tournament whose cut expansion passes a sampled audit.

    Regenerates with a fresh derived seed until the audit passes; the audit
    is one-sided (sampling can miss a bad cut) but a failure is definite.
    """
    if k is None:
        k = default_expansion_size(n)
    for attempt in range(TEMPLATE_TRIES):
        rng = np.random.default_rng([attempt] + _seed_words(seed))
        coins = rng.random((n, n)) < 0.5
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        adj = (coins & upper) | (~coins.T & upper.T)
        np.fill_diagonal(adj, False)
        if audit_template(adj, k, audit_samples, rng):
            return adj
    raise CriterionUnmet(f"no template with two-way cut arcs found in {TEMPLATE_TRIES} tries")


def _seed_words(seed) -> list[int]:
    if isinstance(seed, int):
        return [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF]
    # Process-stable derivation for exotic seed types (hash() is salted).
    return [zlib.crc32(repr(seed).encode())]


AUDIT_CHUNK = 1000  # samples per batch: that many permutations of n 2-byte ids
AUDIT_PROBES = 16  # random slot pairs probed each way per sample


def audit_template(adj: np.ndarray, k: int, samples: int, rng) -> bool:
    """Sampled check that every size-k cut has arcs both ways.

    Each sample draws disjoint k-sets A, B (the head of a random
    permutation) and probes random slot pairs for an arc in each
    direction, a batch of samples at a time.  A random tournament passes
    a probe with probability about 1/2, so only the rare sample whose
    probes all miss one way gets the exact check of its whole block.

    The audit is proved before it is sampled.  On a tournament (every
    pair of distinct vertices joined by an arc), a cut (A, B) with no arc
    from A to B has every arc from B to A, so any two vertices of A have
    all of B among their common in-neighbours.  If no two distinct
    vertices have k common in-neighbours (k >= 2), no cut is one-way, the
    samples could only pass, and none is drawn.  Without the tournament
    condition the bound is unsound: two disjoint directed cycles share no
    in-neighbours yet have cuts with no arc at all.
    """
    n = adj.shape[0]
    if (adj.sum(axis=0) == 0).any() or (adj.sum(axis=1) == 0).any():
        return n <= 2
    if 2 * k > n:
        return True
    if samples > 0 and k >= 2 and np.array_equal(adj | adj.T, ~np.eye(n, dtype=bool)):
        a = adj.astype(np.float32)
        common = a.T @ a  # common in-neighbours; exact in float32 below 2**24
        np.fill_diagonal(common, 0)
        if common.max() < k:
            return True
    for done in range(0, samples, AUDIT_CHUNK):
        m = min(AUDIT_CHUNK, samples - done)
        perms = rng.permuted(np.tile(np.arange(n, dtype=np.min_scalar_type(n)), (m, 1)), axis=1)
        u = np.take_along_axis(perms, rng.integers(0, k, (m, AUDIT_PROBES)), axis=1)
        v = np.take_along_axis(perms, rng.integers(k, 2 * k, (m, AUDIT_PROBES)), axis=1)
        seen_both = adj[u, v].any(axis=1) & adj[v, u].any(axis=1)
        for s in np.flatnonzero(~seen_both):
            a, b = perms[s, :k], perms[s, k : 2 * k]
            if not adj[np.ix_(a, b)].any() or not adj[np.ix_(b, a)].any():
                return False
    return True


def template_board(adj: np.ndarray) -> Board:
    n = adj.shape[0]
    b = Board(n)
    for u in range(n):
        for v in range(u + 1, n):
            b.orient(u, v) if adj[u, v] else b.orient(v, u)
    return b


# ---------------------------------------------------------------------------
# Stage 1: the bipartite danger ledger
# ---------------------------------------------------------------------------


class DangerLedger:
    """Mirrored bipartite bookkeeping for the degree-building stage.

    Bipartite edge (i, j) stands for the orientation i->j.  Status is FREE
    until it enters Maker's graph (a Maker claim) or Breaker's graph
    (Breaker orients j->i, or the mirror of a Maker claim).  Vertices are
    indexed 0..n-1 for the first copy and n..2n-1 for the second.
    """

    def __init__(self, n: int, bias: int, target: int | None = None):
        self.n = n
        self.bias = bias
        self.target = min(target if target is not None else TARGET_REAL_DEGREE + 1, n)
        self.estat = np.zeros((n, n), dtype=np.int8)
        self.deg_m = np.zeros(2 * n, dtype=np.int64)
        self.deg_b = np.zeros(2 * n, dtype=np.int64)
        # Per bipartite vertex: lazily pruned candidate partners.
        self.free1 = [list(range(n)) for _ in range(n)]
        self.free2 = [list(range(n)) for _ in range(n)]
        self.starved = np.zeros(2 * n, dtype=bool)  # no free incident edge left
        self.min_free_seen = n

    def danger(self, v: int) -> int:
        return int(self.deg_b[v] - 2 * self.bias * self.deg_m[v])

    def pick_vertex(self) -> int | None:
        """The bipartite vertex to ease next, or None once none is dangerous.

        A vertex is dangerous while below target and not starved.  It is
        critical when about to run out of free edges before reaching the
        target: one opposing turn eats up to `bias` incident edges, so a
        dangerous vertex whose pool of free edges is within bias per
        still-needed claim must be eased now.  Critical vertices go first,
        earliest deadline first, since the opponent drains one pool at a
        time: smallest pool, then largest danger, then lowest index.
        Otherwise the largest danger wins, lowest index on ties.
        """
        deg_m, deg_b = self.deg_m, self.deg_b
        dangerous = (deg_m < self.target) & ~self.starved
        if not dangerous.any():
            return None
        danger = deg_b - 2 * self.bias * deg_m
        pool = self.n - deg_m - deg_b  # statuses partition the n edges
        critical = dangerous & (pool <= self.bias * (self.target - deg_m + 1))
        if critical.any():
            idx = np.flatnonzero(critical)
            # lexsort is stable and idx ascends, so the lowest index wins ties.
            return int(idx[np.lexsort((-danger[idx], pool[idx]))[0]])
        return int(np.argmax(np.where(dangerous, danger, np.iinfo(np.int64).min)))

    def _mark(self, i: int, j: int, status: int):
        assert self.estat[i, j] == E_FREE
        self.estat[i, j] = status
        deg = self.deg_m if status == E_MAKER else self.deg_b
        deg[i] += 1
        deg[self.n + j] += 1

    def breaker_move(self, move):
        """Breaker put the move's arcs u->v on the board: each edge (v, u)
        still free is his.  A move's heads and tails can repeat, so the
        degrees are counted with np.add.at."""
        arcs = np.array(move, dtype=np.intp)
        tails, heads = arcs[:, 0], arcs[:, 1]
        free = self.estat[heads, tails] == E_FREE
        tails, heads = tails[free], heads[free]
        self.estat[heads, tails] = E_BREAKER
        np.add.at(self.deg_b, np.concatenate((heads, tails + self.n)), 1)

    def maker_claim(self, i: int, j: int) -> str:
        """Claim edge (i, j) for Maker; classify what the claim is worth.

        Returns "real" when the claim should orient i->j on the board (the
        mirror then goes to Breaker), "extra" when it is a diagonal edge or
        its mirror is already Breaker's (degree bookkeeping only).
        """
        self._mark(i, j, E_MAKER)
        if i == j:
            return "extra"
        if self.estat[j, i] != E_FREE:
            return "extra"
        self._mark(j, i, E_BREAKER)
        return "real"

    def sample_free_edge(self, v: int, rng):
        """Uniform free incident edge at bipartite vertex v, or None."""
        if v < self.n:
            lst, fixed_first = self.free1[v], True
        else:
            lst, fixed_first = self.free2[v - self.n], False
        while lst:
            idx = rng.randrange(len(lst))
            w = lst[idx]
            i, j = (v, w) if fixed_first else (w, v - self.n)
            if self.estat[i, j] == E_FREE:
                self.min_free_seen = min(self.min_free_seen, len(lst))
                return (i, j)
            lst[idx] = lst[-1]
            lst.pop()
        return None


# ---------------------------------------------------------------------------
# Stage 2: potential play over template cuts
# ---------------------------------------------------------------------------


def cut_hypergraph(tstar: np.ndarray, k: int, threat_bias: int) -> HypergraphState:
    """Every ordered cut (A, B) of disjoint k-sets of T*, as the set of
    its template arcs from A to B; cuts with no such arc are left out."""
    n = tstar.shape[0]
    if 2 * k > n:
        raise CriterionUnmet(f"no disjoint {k}-sets in {n} vertices")
    sets = []
    verts = range(n)
    for a in itertools.combinations(verts, k):
        rest = [w for w in verts if w not in a]
        for b in itertools.combinations(rest, k):
            slots = frozenset((u, v) for u in a for v in b if tstar[u, v])
            if slots:
                sets.append(slots)
    elements = [(u, v) for u in range(n) for v in range(n) if tstar[u, v]]
    return HypergraphState(sets, threat_bias=threat_bias, blocker_bias=1, elements=elements)


def _pair_matrices(board: Board) -> tuple[np.ndarray, np.ndarray]:
    """The board as two n x n bool matrices read from its pair bytes:
    pair {u, v} undirected (both cells), and arc u->v oriented."""
    n = board.n
    st = np.frombuffer(board.canonical_key(), np.uint8)
    iu = np.triu_indices(n, 1)  # row-major, the order of the pair bytes
    und = np.zeros((n, n), dtype=bool)
    und[iu] = und.T[iu] = st == UNDIRECTED
    fwd = np.zeros((n, n), dtype=bool)
    fwd[iu] = st == LOW_HIGH
    fwd.T[iu] = st == HIGH_LOW
    return und, fwd


class TemplateCutEngine:
    """Blocker-side potential play over a sample of ordered set-pair cuts of T*.

    A cut (A, B) is the set of template arcs from A to B.  It is safe
    (dead, potential 0) once any of those arcs is oriented on the board,
    and threatened as they get oriented in reverse; the live potential is
    (blocker_bias+1)^(-unoriented slots / threat bias).  The engine tracks
    a fixed seeded sample of SAMPLE_BUDGET cuts with vectorized updates,
    and Maker's moves agree with T*.
    """

    def __init__(self, board: Board, tstar: np.ndarray, k: int, threat_bias: int, seed=0):
        n = board.n
        self.tstar = tstar
        self.threat_bias = threat_bias
        self.und, fwd = _pair_matrices(board)
        rng = np.random.default_rng([k, SAMPLE_BUDGET] + _seed_words(seed))
        budget = SAMPLE_BUDGET if 2 * k <= n else 0
        # Membership by vertex: row u says which sampled cuts have u in A
        # (a_mem) or in B (b_mem), so one arc's update reads two rows.
        self.a_mem = np.zeros((n, budget), dtype=bool)
        self.b_mem = np.zeros((n, budget), dtype=bool)
        # Row s is sample s's permutation, drawn as rng.permutation(n) would.
        perms = rng.permuted(np.tile(np.arange(n, dtype=np.uint16), (budget, 1)), axis=1)
        cols = np.arange(budget)[:, None]
        self.a_mem[perms[:, :k], cols] = True
        self.b_mem[perms[:, k : 2 * k], cols] = True
        del perms  # freed before the float32 products below, which set the peak
        a = self.a_mem.astype(np.float32)
        open_slots = (tstar & self.und).astype(np.float32)
        self.rem = np.rint(((open_slots.T @ a) * self.b_mem).sum(axis=0)).astype(np.int64)
        closed = (tstar & fwd).astype(np.float32)
        hits = ((closed.T @ a) * self.b_mem).sum(axis=0)
        self.alive = hits < 0.5

    def observe(self, move):
        """Ingest a move's newly oriented arcs (from either player), one
        arc at a time."""
        for (u, v) in move:
            self.und[u, v] = self.und[v, u] = False
            if len(self.alive) == 0:
                continue
            if self.tstar[u, v]:
                self.alive &= ~(self.a_mem[u] & self.b_mem[v])
            else:
                mask = self.a_mem[v] & self.b_mem[u] & self.alive
                self.rem[mask] -= 1

    def move(self, board: Board):
        """The best template-agreeing arc as a one-arc move, else the
        lowest open pair oriented the way T* agrees: with no live sampled
        cut naming an arc, any agreeing pair will do."""
        choice = self._best_arc()
        if choice is not None and board.is_undirected(*choice):
            return (choice,)
        return (agreeing_arc(board, lambda u, v: self.tstar[u, v]),)

    def _best_arc(self):
        """Best template-agreeing open arc (u, v) by the live sampled cuts
        it would kill, or None."""
        if len(self.alive) == 0 or not self.alive.any():
            return None
        live = np.flatnonzero(self.alive)
        order = live[np.argsort(self.rem[live], kind="stable")]
        cands: list[tuple[int, int]] = []
        seen = set()
        for s in order[:3]:
            block = np.argwhere(
                np.outer(self.a_mem[:, s], self.b_mem[:, s]) & self.tstar & self.und
            )
            for (u, v) in block:
                p = (int(u), int(v))
                if p not in seen:
                    seen.add(p)
                    cands.append(p)
            if len(cands) >= CANDIDATE_CAP:
                break
        cands = sorted(cands)[:CANDIDATE_CAP]
        if not cands:
            return None
        weights = np.exp2(-self.rem / self.threat_bias)
        best, best_score = None, -1.0
        for (u, v) in cands:
            mask = self.a_mem[u] & self.b_mem[v] & self.alive
            score = float(weights[mask].sum())
            if score > best_score + 1e-15:
                best, best_score = (u, v), score
        return best


# ---------------------------------------------------------------------------
# The combined Maker strategy
# ---------------------------------------------------------------------------


class MakerHamilton(Strategy):
    """Degree building, then template-agreeing cut protection."""

    role = MAKER

    def __init__(self, k: int | None = None, audit_samples: int = 10_000):
        self.k_override = k
        self.audit_samples = audit_samples

    def start(self, config, rng):
        super().start(config, rng)
        self.rng = rng
        n = config.n
        self.k = self.k_override if self.k_override is not None else default_expansion_size(n)
        self.tstar = generate_template(n, config.seed, audit_samples=self.audit_samples, k=self.k)
        self.round_cap = 8 * n  # stage-1 budget
        self.ledger = DangerLedger(n, config.q)
        self.stage = 1
        self.cut_engine: TemplateCutEngine | None = None
        self.stage1_rounds = 0
        self.stage1_overran = False
        self.stats = {}

    # -- bookkeeping -------------------------------------------------------

    def observe(self, board, role, move):
        if self.stage == 1:
            if role == BREAKER:
                self.ledger.breaker_move(move)
        elif self.cut_engine is not None:
            self.cut_engine.observe(move)

    def _enter_stage2(self, board: Board):
        self.stage = 2
        self.stats["stage1_rounds"] = self.stage1_rounds
        self.stats["stage1_overran"] = self.stage1_overran
        self.stats["min_free_seen"] = self.ledger.min_free_seen
        self.stats["starved"] = np.flatnonzero(self.ledger.starved).tolist()
        outs, ins = board.degrees()
        self.stats["handoff_min_in"] = min(ins)
        self.stats["handoff_min_out"] = min(outs)
        self.cut_engine = TemplateCutEngine(
            board, self.tstar, self.k, threat_bias=self.config.q, seed=self.config.seed,
        )

    # -- moves ----------------------------------------------------------------

    def next_move(self, board: Board, transcript):
        if self.stage == 1:
            if self.stage1_rounds >= self.round_cap:
                self.stage1_overran = True
            else:
                move = self._stage1_move(board)
                if move is not None:
                    self.stage1_rounds += 1
                    return move
            self._enter_stage2(board)
        return self.cut_engine.move(board)

    def _stage1_move(self, board: Board):
        """Maker's stage-1 move, or None once no vertex is dangerous."""
        ledger = self.ledger
        for _ in range(board.n):
            v = ledger.pick_vertex()
            if v is None:
                return None
            edge = ledger.sample_free_edge(v, self.rng)
            if edge is None:
                ledger.starved[v] = True
                continue
            i, j = edge
            if ledger.maker_claim(i, j) == "real":
                return ((i, j),)
            # Diagonal or mirror already Breaker's: the reduction grants a
            # redraw without spending the real-board move.
        # Redraw budget exhausted: fall back to any free real pair.
        for (u, v) in board.undirected_pairs():
            if ledger.estat[u, v] == E_FREE:
                ledger.maker_claim(u, v)
                return ((u, v),)
            if ledger.estat[v, u] == E_FREE:
                ledger.maker_claim(v, u)
                return ((v, u),)
        raise NoAgreeingPair("no undirected pair left for stage 1 fallback")


class MakerNonKColorable(Strategy):
    """Deny Breaker every one-way cut between disjoint m-sets of T*.

    Potential play over cuts of size m = floor(n / 2k): ending with an arc
    both ways between every two disjoint m-sets leaves no transitive set
    of 2m vertices, so the tournament cannot be split into k transitive
    parts.  Up to 100,000 cuts PotentialPlay tracks every one of them
    against T*; beyond that the sampled TemplateCutEngine plays.
    """

    role = MAKER

    def __init__(self, k: int):
        if k < 1:
            raise BadConfig("k must be >= 1")
        self.k = k

    def start(self, config, rng):
        super().start(config, rng)
        n = config.n
        m = max(1, n // (2 * self.k))
        self.m = m
        # No template audit: with constant-size cuts every tournament has
        # some one-way set pair, so the two-way property is unattainable and
        # the potential play does not depend on it.
        self.tstar = tstar = generate_template(n, config.seed, audit_samples=0, k=m)
        if math.comb(n, m) * math.comb(n - m, m) <= 100_000:
            state = cut_hypergraph(tstar, m, threat_bias=config.q)
            self.player = PotentialPlay(state, lambda u, v: tstar[u, v])
        else:
            self.player = TemplateCutEngine(
                Board(n), tstar, m, threat_bias=config.q, seed=config.seed)

    def observe(self, board, role, move):
        self.player.observe(move)

    def next_move(self, board: Board, transcript):
        return self.player.move(board)
