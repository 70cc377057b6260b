"""Exact cardinalities by a plain index join, independent of ``repro``.

The benchmark checks the program's labels and scores its estimates
against these counts, so nothing here imports the program.  A query is
a tuple of triple patterns ``(s, p, o)``; a bound term is an ``int``
(the graph's dictionary id) and a variable is a ``str`` starting with
``?``.  The graph is the set of rows ``(s, p, o)`` of a snapshot.

Counting is a backtracking join over two hash indexes (``p -> s ->
objects`` and ``p -> o -> subjects``).  Patterns that share no unbound
variable are counted apart and multiplied, so a disconnected compound
query is the product of its parts.  Two closed forms keep the common
joins cheap: patterns meeting in one variable (a star, or a chain of
two) are summed over that variable's values, and a chain of three over
its middle pattern's rows.  Partial results are memoised until rows are
added.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

Term = object  # int (bound id) or str ("?name")
Pattern = Tuple[Term, Term, Term]
Query = Tuple[Pattern, ...]


def is_var(term: Term) -> bool:
    return isinstance(term, str)


class Oracle:
    """Exact counts of star, chain and compound queries over *rows*."""

    def __init__(self, rows: Iterable[Sequence[int]]) -> None:
        self.out: Dict[int, Dict[int, List[int]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.inc: Dict[int, Dict[int, List[int]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.edges = set()
        self.per_predicate: Dict[int, int] = defaultdict(int)
        self._degrees: dict = {}
        #: counts of (partly bound) pattern groups, shared by all queries
        #: counted against the current rows
        self._memo: dict = {}
        self.add(rows)

    def add(self, rows: Iterable[Sequence[int]]) -> None:
        """Insert rows; rows already present are ignored."""
        self._degrees.clear()
        self._memo.clear()
        for s, p, o in rows:
            s, p, o = int(s), int(p), int(o)
            if (s, p, o) in self.edges:
                continue
            self.edges.add((s, p, o))
            self.out[p][s].append(o)
            self.inc[p][o].append(s)
            self.per_predicate[p] += 1

    def __len__(self) -> int:
        return len(self.edges)

    def count(self, query: Query) -> int:
        return self._count(tuple(tuple(tp) for tp in query), self._memo)

    # ------------------------------------------------------------------
    # Patterns are passed with their bound variables already replaced by
    # values, so a variable is simply a ``str`` term.

    def _count(self, patterns: Query, memo: dict) -> int:
        if len(patterns) == 1:
            return self._count_one(patterns[0])
        parts = _components(patterns)
        if len(parts) > 1:
            total = 1
            for part in parts:
                total *= self._count(part, memo)
                if total == 0:
                    return 0
            return total
        if patterns in memo:
            return memo[patterns]
        shortcut = self._count_around(patterns)
        if shortcut is None:
            shortcut = self._count_through(patterns)
        if shortcut is not None:
            memo[patterns] = shortcut
            return shortcut
        # Expand the most selective pattern; its variables that no other
        # pattern uses only multiply, so matches are grouped by the rest.
        pick = min(
            range(len(patterns)), key=lambda i: self._count_one(patterns[i])
        )
        chosen = patterns[pick]
        rest = patterns[:pick] + patterns[pick + 1:]
        joined = tuple(
            sorted(
                {
                    t
                    for t in chosen
                    if type(t) is str and any(t in tp for tp in rest)
                }
            )
        )
        total = 0
        for values, weight in self._project(chosen, joined).items():
            bind = dict(zip(joined, values))
            total += weight * self._count(
                tuple(
                    tuple(bind.get(t, t) for t in tp) for tp in rest
                ),
                memo,
            )
        memo[patterns] = total
        return total

    def _count_around(self, patterns: Query):
        """Patterns joined on one variable only, each with one variable
        or one constant besides it (a star around that variable, or a
        two-pattern chain through it): the sum over its values of the
        product of per-pattern counts.  None when not of that form."""
        shared = set.intersection(
            *({t for t in tp if is_var(t)} for tp in patterns)
        )
        if len(shared) != 1:
            return None
        (centre,) = shared
        counts = []
        for s, p, o in patterns:
            if is_var(p) or (s == centre) == (o == centre):
                return None
            other = o if s == centre else s
            if is_var(other) and sum(
                other in tp for tp in patterns
            ) > 1:
                return None
            if is_var(other):
                counts.append(self._degree(p, s == centre))
            else:
                side = self.inc[p] if s == centre else self.out[p]
                counts.append(dict.fromkeys(side.get(other, ()), 1))
        counts.sort(key=len)
        total = 0
        for value, weight in counts[0].items():
            for other in counts[1:]:
                weight *= other.get(value, 0)
                if not weight:
                    break
            total += weight
        return total

    def _count_through(self, patterns: Query):
        """Three patterns where a middle one ``(?x p ?y)`` joins two
        others, one on ``?x`` and one on ``?y``, that share no variable:
        the sum over the middle's rows of the product of the two sides'
        counts.  None when not of that form."""
        if len(patterns) != 3:
            return None
        for i, (x, p, y) in enumerate(patterns):
            if is_var(p) or not (is_var(x) and is_var(y)) or x == y:
                continue
            left, right = (tp for j, tp in enumerate(patterns) if j != i)
            if y in left or x in right:
                left, right = right, left
            if x not in left or y not in right or y in left or x in right:
                continue
            if {t for t in left if is_var(t)} & {t for t in right if is_var(t)}:
                continue
            f, g = self._side(left, x), self._side(right, y)
            if f is None or g is None:
                continue
            total = 0
            for xv, ys in self.out[p].items():
                weight = f(xv)
                if weight:
                    total += weight * sum(g(yv) for yv in ys)
            return total
        return None

    def _side(self, tp: Pattern, var: str):
        """Matches of *tp* as a function of the value of *var*, when its
        other terms are constants or variables used nowhere else."""
        s, p, o = tp
        if is_var(p) or s == o:
            return None
        other = o if s == var else s
        if is_var(other):
            degree = self._degree(p, s == var)
            return lambda value: degree.get(value, 0)
        if s == var:
            return lambda value: int((value, p, other) in self.edges)
        return lambda value: int((other, p, value) in self.edges)

    def _degree(self, p: int, outgoing: bool) -> Dict[int, int]:
        """Rows of predicate *p* per subject (or per object)."""
        key = (p, outgoing)
        if key not in self._degrees:
            index = self.out[p] if outgoing else self.inc[p]
            self._degrees[key] = {v: len(xs) for v, xs in index.items()}
        return self._degrees[key]

    def _project(self, tp: Pattern, joined: tuple) -> dict:
        """Matches of *tp* grouped by the values of the *joined*
        variables: ``{values: number of matching rows}``."""
        s, p, o = tp
        if not is_var(p) and s != o:
            if joined == (o,) and not is_var(s):
                return {(x,): 1 for x in self.out[p].get(s, ())}
            if joined == (s,) and not is_var(o):
                return {(x,): 1 for x in self.inc[p].get(o, ())}
            if joined == (s,):
                return {(x,): len(v) for x, v in self.out[p].items()}
            if joined == (o,):
                return {(x,): len(v) for x, v in self.inc[p].items()}
        groups: dict = defaultdict(int)
        for row in self._matches(tp):
            values = dict(zip(tp, row))
            groups[tuple(values[v] for v in joined)] += 1
        return groups

    def _count_one(self, tp: Pattern) -> int:
        s, p, o = tp
        if is_var(p) or (is_var(s) and s == o):
            return sum(1 for _ in self._matches(tp))
        if not is_var(s) and not is_var(o):
            return int((s, p, o) in self.edges)
        if not is_var(s):
            return len(self.out[p].get(s, ()))
        if not is_var(o):
            return len(self.inc[p].get(o, ()))
        return self.per_predicate.get(p, 0)

    def _matches(self, tp: Pattern):
        """Yield each row ``(s, p, o)`` matching *tp*, repeated
        variables included."""
        s, p, o = tp
        for pred in (list(self.out) if is_var(p) else [p]):
            if not is_var(s):
                rows = ((s, x) for x in self.out[pred].get(s, ()))
            elif not is_var(o):
                rows = ((x, o) for x in self.inc[pred].get(o, ()))
            else:
                rows = (
                    (x, y) for x, objs in self.out[pred].items() for y in objs
                )
            for subj, obj in rows:
                if not is_var(o) and obj != o:
                    continue
                row = (subj, pred, obj)
                values: dict = {}
                if all(
                    values.setdefault(t, v) == v
                    for t, v in zip(tp, row)
                    if is_var(t)
                ):
                    yield row


def _components(patterns: Query) -> List[Query]:
    """Split *patterns* into groups joined by shared variables."""
    groups: List[Tuple[set, list]] = []
    for tp in patterns:
        free = {t for t in tp if type(t) is str}
        merged_vars, merged_list = set(free), []
        for group in [g for g in groups if g[0] & free]:
            merged_vars |= group[0]
            merged_list.extend(group[1])
            groups.remove(group)
        merged_list.append(tp)
        groups.append((merged_vars, merged_list))
    return [tuple(g[1]) for g in groups]
