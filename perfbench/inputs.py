"""Seeded inputs: test queries, request texts and graph deltas.

Everything the benchmark sends or applies is drawn here from the
graph's rows with ``numpy.random.default_rng(seed, ...)``, so the same
seed gives the same inputs, and a change to the program's own samplers
(``repro.sampling``, ``repro.replay``) cannot change them.  Queries use
the oracle's representation (:mod:`oracle`): ints are bound ids, strings
starting with ``?`` are variables.  Predicates are always bound, as in
the paper's evaluation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from oracle import Query, is_var

SHAPES = (("star", 2), ("star", 3), ("chain", 2), ("chain", 3))


class Sampler:
    """Random star and chain queries grounded in the graph's rows."""

    def __init__(self, rows: np.ndarray, rng: np.random.Generator) -> None:
        self.rows = np.asarray(rows, dtype=np.int64)
        self.rng = rng
        self.out: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for s, p, o in self.rows.tolist():
            if s != o:
                self.out[s].append((p, o))

    def _random_subject(self, min_degree: int) -> int:
        # Degree-weighted: a uniformly drawn row names the centre.
        while True:
            s = int(self.rows[self.rng.integers(len(self.rows)), 0])
            if len(self.out[s]) >= min_degree:
                return s

    def _unbind(self, nodes: Sequence[int]) -> List[bool]:
        """At least one node becomes a variable, uniformly many."""
        count = int(self.rng.integers(1, len(nodes) + 1))
        mask = [False] * len(nodes)
        for i in self.rng.choice(len(nodes), size=count, replace=False):
            mask[int(i)] = True
        return mask

    def star(self, size: int, prefix: str = "") -> Query:
        centre = self._random_subject(size)
        arms = self.out[centre]
        picks = self.rng.choice(len(arms), size=size, replace=False)
        edges = [arms[int(i)] for i in picks]
        mask = self._unbind([centre] + [o for _, o in edges])
        s = f"?{prefix}s" if mask[0] else centre
        return tuple(
            (s, p, f"?{prefix}o{i}" if mask[i + 1] else o)
            for i, (p, o) in enumerate(edges)
        )

    def chain(self, size: int, prefix: str = "") -> Query:
        while True:
            node = self._random_subject(1)
            nodes, preds = [node], []
            while len(preds) < size:
                steps = [e for e in self.out[node] if e[1] not in nodes]
                if not steps:
                    break
                p, node = steps[int(self.rng.integers(len(steps)))]
                preds.append(p)
                nodes.append(node)
            if len(preds) == size:
                break
        mask = self._unbind(nodes)
        terms = [
            f"?{prefix}n{i}" if mask[i] else n for i, n in enumerate(nodes)
        ]
        return tuple(
            (terms[i], preds[i], terms[i + 1]) for i in range(size)
        )

    def query(self, topology: str, size: int, prefix: str = "") -> Query:
        if topology == "star":
            return self.star(size, prefix)
        return self.chain(size, prefix)

    def compound(self) -> Query:
        """A star and a chain sharing no term: a disconnected query."""
        while True:
            star = self.star(int(self.rng.integers(2, 4)), prefix="a")
            chain = self.chain(int(self.rng.integers(2, 4)), prefix="b")
            star_nodes = {t for tp in star for t in (tp[0], tp[2])}
            if not star_nodes & {t for tp in chain for t in (tp[0], tp[2])}:
                return star + chain

    def mixed(self) -> Query:
        """One of the four shapes, with equal shares."""
        topology, size = SHAPES[int(self.rng.integers(len(SHAPES)))]
        return self.query(topology, size)


def make_test_queries(
    rows: np.ndarray, seed: int, per_shape: int
) -> Dict[str, List[Query]]:
    """*per_shape* distinct queries of each shape."""
    sampler = Sampler(rows, np.random.default_rng([seed, 1]))
    out: Dict[str, List[Query]] = {}
    for topology, size in SHAPES:
        seen, queries = set(), []
        while len(queries) < per_shape:
            q = sampler.query(topology, size)
            if q not in seen:
                seen.add(q)
                queries.append(q)
        out[f"{topology}_{size}"] = queries
    return out


def point_requests(rows: np.ndarray, seed: int, count: int) -> List[Query]:
    """One query per request, drawn from the four shapes."""
    sampler = Sampler(rows, np.random.default_rng([seed, 2]))
    return [sampler.mixed() for _ in range(count)]


def bulk_requests(
    rows: np.ndarray, seed: int, count: int, width: int, compound_every: int
) -> List[List[Query]]:
    """*count* requests of *width* queries; every *compound_every*-th
    query is a disconnected star + chain compound."""
    sampler = Sampler(rows, np.random.default_rng([seed, 3]))
    return [
        [
            sampler.compound() if (i + 1) % compound_every == 0
            else sampler.mixed()
            for i in range(width)
        ]
        for _ in range(count)
    ]


def delta(
    rows: np.ndarray, seed: int, cycle: int, fraction: float
) -> np.ndarray:
    """~fraction*|rows| novel triples over the existing vocabulary.

    Subjects, predicates and objects are each drawn from the values
    already in that column, so the node and predicate sets and the
    dictionary stay as they are (the incremental maintenance path).
    """
    rng = np.random.default_rng([seed, 4, cycle])
    rows = np.asarray(rows, dtype=np.int64)
    columns = [np.unique(rows[:, i]) for i in range(3)]
    existing = set(map(tuple, rows.tolist()))
    target = max(int(len(rows) * fraction), 1)
    picked: List[Tuple[int, int, int]] = []
    chosen = set()
    while len(picked) < target:
        triple = tuple(int(rng.choice(col)) for col in columns)
        if triple in existing or triple in chosen:
            continue
        chosen.add(triple)
        picked.append(triple)
    return np.array(picked, dtype=np.int64)


def render(query: Query, dictionary) -> str:
    """SPARQL text for *query*, terms spelled from the graph dictionary."""

    def term(value, table) -> str:
        if is_var(value):
            return value
        lexical = table.decode(int(value))
        return lexical if lexical.startswith('"') else f"<{lexical}>"

    variables = []
    for tp in query:
        for t in (tp[0], tp[2]):
            if is_var(t) and t not in variables:
                variables.append(t)
    body = " . ".join(
        f"{term(s, dictionary.nodes)} {term(p, dictionary.predicates)} "
        f"{term(o, dictionary.nodes)}"
        for s, p, o in query
    )
    return f"SELECT {' '.join(variables)} WHERE {{ {body} . }}"


def repeat_share(keys: Sequence) -> float:
    """Share of items equal to an earlier item."""
    seen, repeats = set(), 0
    for key in keys:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / max(len(keys), 1)
