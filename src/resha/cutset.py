"""Minimal cut set solving for coherent fault trees.

The solver builds each gate's minimal cut sets bottom-up as a zero-suppressed
decision diagram (ZBDD; Minato, DAC 1993), truncated at the gate's order
budget as in the bottom-up ZBDD of Jung, Han and Ha (RESS 83(3), 2004). A
family of event sets is a node; nodes are hash-consed, so shared subtrees
and repeated sub-families are stored once. Four memoized operations work on
antichains and return antichains, so absorption happens inside them and no
result is filtered afterwards: ``union`` (the hi part is taken ``without``
the lo part), ``product`` truncated at k (every hi branch at k - 1),
``without`` (the sets of f containing no set of g) and ``trunc``. An OR
folds ``union`` over its children and an AND folds ``product``; a k-of-n
VOTE uses the suffix recurrence V(j, i) = union(product(c_i, V(j - 1, i +
1)), V(j, i + 1)). Folding runs from the last child to the first.

Variables are numbered by first appearance in a depth-first walk from the
top that numbers each gate's own events, in child order, before it descends
into the gate's child gates. Events met together get near numbers, which
keeps the diagrams small, and a gate's events sit above those of the gates
under it, so folding a gate's children from the last one meets the
accumulated family below the child it adds and recurses only a few levels:
a chain of 5,000 gates, each over one event and the next gate, solves at
the default recursion limit whichever of the two is listed first. A tree that defeats this order can still
recurse past the limit; the solve then stops with ``ResourceLimitError``.

Each gate gets its own order budget, not the global one: a lower bound on
every gate's cut-set order is computed bottom-up, and a child of an AND or
VOTE gate whose events appear under no sibling only needs the parent's
budget minus the least order its co-failing siblings add. A gate whose lower
bound exceeds its budget yields nothing. A child family built at a larger
budget than its parent's is truncated when the parent reads it. A gate of
budget 1 holds only one-event cut sets, so it is solved as an event mask:
an event fails it alone when it fails k of its children alone. An
untruncated solve is truncated at the tree's event count, which no cut set
exceeds, so every solve runs the same code.

``max_nodes`` bounds the whole diagram store: unique nodes and operation
cache entries together. Past it the solve stops with ``ResourceLimitError``,
which names the gate it stopped at, the progress made and the finished gate
with the most sets.

One bit-parallel evaluator, ``_top_truth``, independent of the solver,
computes the structure function over many assignments in one pass: each
node's value is a Python int whose bit ``a`` is its value in assignment
``a``. It serves three callers: the brute-force oracle
(``brute_force_cut_sets``, all 2^n assignments of a small tree, minimal true
points), ``evaluate_structure_function`` (one assignment) and
``witness_check`` (a cut set and each of its one-member removals).
"""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .faulttree import (
    BasicEvent,
    CCF_KINDS,
    EventKind,
    FaultTree,
    Gate,
    GateKind,
    _reachable_tree,
    to_exchange_json,
)
from .sysmodel import NodeId, _csv_text

DEFAULT_NODE_BUDGET = 2_000_000
DEFAULT_BRUTE_FORCE_LIMIT = 20


class CutSetError(Exception):
    """Raised for solver misuse (bad arguments, malformed assignments)."""


class ResourceLimitError(CutSetError):
    """Raised when a solve exceeds its node budget or the recursion limit.

    Carries the progress made and the finished gate whose family holds the
    most sets (``largest_gate`` is None when no finished gate holds one).
    """

    def __init__(self, message: str, gates_done: int, gates_total: int,
                 largest_gate: str | None, largest_sets: int):
        largest = (
            f"largest gate {largest_gate!r} holds {largest_sets} sets"
            if largest_gate is not None else "no gate finished"
        )
        super().__init__(f"{message} (progress: {gates_done}/{gates_total} gates; {largest})")
        self.gates_done = gates_done
        self.gates_total = gates_total
        self.largest_gate = largest_gate
        self.largest_sets = largest_sets


class EvaluationError(CutSetError):
    """Raised when a structure-function assignment is not total."""


class _CutSetFields(NamedTuple):
    events: frozenset[str]
    contains_ccf: bool


class CutSet(_CutSetFields):
    """A set of basic events that jointly fail the top event."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CutSet:
        self = super().__new__(cls, *args, **kwargs)
        if not self.events:
            raise CutSetError("cut sets must be non-empty")
        return self

    @property
    def order(self) -> int:
        return len(self.events)

    def sorted_events(self) -> tuple[str, ...]:
        return tuple(sorted(self.events))


class CutSetCollection(NamedTuple):
    """Minimal cut sets with truncation provenance.

    ``exchange`` is the exchange document of the tree the sets were solved
    from.
    """

    cut_sets: tuple[CutSet, ...]
    truncation: int | None
    exchange: str

    @property
    def per_order(self) -> dict[int, int]:
        """How many sets each populated order holds, in ascending order."""
        return dict(sorted(Counter(cs.order for cs in self.cut_sets).items()))

    def rows(self, event_count: int) -> tuple[tuple[int, int, int], ...]:
        """(order, count at order, cumulative count) rows, ascending, up to the
        truncation order (untruncated: up to the largest order found), but not
        past ``event_count``, the solved tree's event count: no cut set is larger."""
        per_order = self.per_order
        top = self.truncation if self.truncation is not None else max(per_order, default=0)
        orders = range(1, min(top, event_count) + 1)
        counts = [per_order.get(k, 0) for k in orders]
        return tuple(zip(orders, counts, itertools.accumulate(counts)))

    def sets_of_order(self, order: int) -> tuple[CutSet, ...]:
        return tuple(c for c in self.cut_sets if c.order == order)

    def to_csv(self) -> str:
        rows = ([cs.order, " ".join(cs.sorted_events()), "yes" if cs.contains_ccf else "no"]
                for cs in self.cut_sets)
        return _csv_text(["order", "events", "contains_ccf"], rows)


def _collect(ft: FaultTree, masks: Iterable[int], index_to_id: Sequence[str],
             truncation: int | None) -> CutSetCollection:
    """The cut sets of ``masks`` sorted by order, then names.

    ``index_to_id`` is sorted, so walking a mask's set bits upwards gives its
    names already sorted.
    """
    ccf_mask = 0
    events = ft.events
    for i, eid in enumerate(index_to_id):
        if events[eid].kind in CCF_KINDS:
            ccf_mask |= 1 << i
    rows = []
    for mask in masks:
        names = []
        remaining = mask
        while remaining:
            low = remaining & -remaining
            names.append(index_to_id[low.bit_length() - 1])
            remaining ^= low
        rows.append((len(names), tuple(names), mask))
    rows.sort()
    return CutSetCollection(
        cut_sets=tuple(
            CutSet(events=frozenset(names), contains_ccf=bool(mask & ccf_mask))
            for _, names, mask in rows
        ),
        truncation=truncation,
        exchange=to_exchange_json(ft),
    )


# ---------------------------------------------------------------------------
# Zero-suppressed decision diagrams of antichains
# ---------------------------------------------------------------------------


# The variable of the two terminals: larger than any event's.
_LEAF = sys.maxsize


class _Full(Exception):
    """The diagram store holds as many entries as its budget allows."""


def _diagram(max_entries: int) -> tuple:
    """A new node store and the memoized operations on it: (nodes, node,
    union, product, trunc).

    A family of event sets is a node id. 0 is the empty family and 1 is
    {∅}; any other id indexes ``nodes``, whose entry (var, lo, hi, least,
    most) holds the sets without the event numbered ``var`` (lo), the sets
    with it, each without it (hi), and the smallest and largest set size.
    Every variable under a node is larger than its own, and no node has hi 0.

    Every family an operation takes and returns is an antichain: no set
    contains another. The store raises ``_Full`` once its unique table and
    operation caches together would hold more than ``max_entries`` entries.
    """
    nodes = [(_LEAF, 0, 0, _LEAF, 0), (_LEAF, 0, 0, 0, 0)]
    unique: dict[tuple[int, int, int], int] = {}
    unions: dict[tuple[int, int], int] = {}
    withouts: dict[tuple[int, int], int] = {}
    products: dict[tuple[int, int, int], int] = {}
    truncs: dict[tuple[int, int], int] = {}
    entries = 0

    def store(table: dict, key: tuple, value: int) -> int:
        nonlocal entries
        entries += 1
        if entries > max_entries:
            raise _Full
        table[key] = value
        return value

    def node(var: int, lo: int, hi: int) -> int:
        if hi == 0:
            return lo
        key = (var, lo, hi)
        f = unique.get(key)
        if f is None:
            _, _, _, lo_least, lo_most = nodes[lo]
            _, _, _, hi_least, hi_most = nodes[hi]
            f = store(unique, key, len(nodes))
            nodes.append((var, lo, hi, lo_least if lo_least <= hi_least else hi_least + 1,
                          lo_most if lo_most > hi_most else hi_most + 1))
        return f

    def union(f: int, g: int) -> int:
        """The minimal sets of f and g together."""
        if f == g or g == 0:
            return f
        if f == 0:
            return g
        if f == 1 or g == 1:
            return 1
        if f > g:
            f, g = g, f
        r = unions.get((f, g))
        if r is None:
            fv, f0, f1, _, _ = nodes[f]
            gv, g0, g1, _, _ = nodes[g]
            # A set with the top variable is absorbed only by a set without it.
            if fv < gv:
                r = node(fv, union(f0, g), without(f1, g))
            elif gv < fv:
                r = node(gv, union(f, g0), without(g1, f))
            else:
                lo = union(f0, g0)
                r = node(fv, lo, without(union(f1, g1), lo))
            store(unions, (f, g), r)
        return r

    def without(f: int, g: int) -> int:
        """The sets of f that contain no set of g."""
        if f == 0 or g == 0:
            return f
        if g == 1 or f == g:
            return 0
        if f == 1:
            return 1
        fv, f0, f1, _, f_most = nodes[f]
        gv, g0, g1, g_least, _ = nodes[g]
        if g_least > f_most:
            return f
        r = withouts.get((f, g))
        if r is None:
            if fv < gv:
                r = node(fv, without(f0, g), without(f1, g))
            elif gv < fv:
                # No set of f holds gv, so no set of g with it is a subset.
                r = without(f, g0)
            else:
                r = node(fv, without(f0, g0), without(without(f1, g0), g1))
            store(withouts, (f, g), r)
        return r

    def product(f: int, g: int, k: int) -> int:
        """The minimal sets of at most k events that join a set of f and one of g."""
        if f == 0 or g == 0:
            return 0
        if f == 1:
            return trunc(g, k)
        if g == 1 or f == g:
            return trunc(f, k)
        if f > g:
            f, g = g, f
        fv, f0, f1, f_least, _ = nodes[f]
        gv, g0, g1, g_least, _ = nodes[g]
        if f_least > k or g_least > k:
            return 0
        r = products.get((f, g, k))
        if r is None:
            if fv < gv:
                var, lo, hi = fv, product(f0, g, k), product(f1, g, k - 1)
            elif gv < fv:
                var, lo, hi = gv, product(f, g0, k), product(f, g1, k - 1)
            else:
                var, lo = fv, product(f0, g0, k)
                hi = union(product(f1, g1, k - 1),
                           union(product(f1, g0, k - 1), product(f0, g1, k - 1)))
            r = store(products, (f, g, k), node(var, lo, without(hi, lo)))
        return r

    def trunc(f: int, k: int) -> int:
        """The sets of f with at most k events."""
        var, f0, f1, least, most = nodes[f]
        if most <= k:
            return f
        if least > k:
            return 0
        r = truncs.get((f, k))
        if r is None:
            r = store(truncs, (f, k), node(var, trunc(f0, k), trunc(f1, k - 1)))
        return r

    return nodes, node, union, product, trunc


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def solve_minimal_cut_sets(
    ft: FaultTree,
    max_order: int | None = None,
    *,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> CutSetCollection:
    """Exact minimal cut sets of a coherent tree, optionally order-truncated.

    With truncation the result equals the subset of the untruncated minimal
    cut sets whose order does not exceed ``max_order``. ``max_nodes`` bounds
    the entries of the diagram store: unique nodes and cached operations.
    """
    if max_order is not None and max_order < 1:
        raise CutSetError("max_order must be >= 1 when given")

    gates, events = ft.gates, ft.events
    event_ids = sorted(events)
    index_of = {eid: i for i, eid in enumerate(event_ids)}
    if ft.top in events:
        return _collect(ft, [1 << index_of[ft.top]], event_ids, max_order)

    # No cut set has more events than the tree, so this limit truncates nothing.
    limit = len(event_ids) if max_order is None else max_order
    gate_ids = ft.gate_order
    supp, shared, lo = _supports_and_bounds(ft, index_of)
    var_of = _variables(ft)
    budgets = _order_budgets(ft, supp, shared, lo, limit)
    nodes, node, union, product, trunc = _diagram(max_nodes)
    # A gate of budget 1 holds the mask of its one-event cut sets; any other
    # gate with a budget holds its diagram. Gates of budget 0 hold nothing.
    families: dict[str, int] = {}

    def singletons(f: int) -> int:
        mask = 0
        while f > 1:
            var, f, hi, _, _ = nodes[f]
            if hi == 1:
                mask |= 1 << var
        return mask

    def read_mask(child: str) -> int:
        if child in events:
            return 1 << var_of[child]
        f = families.get(child, 0)
        return f if budgets[child] == 1 else singletons(f)

    def read_diagram(child: str, budget: int) -> int:
        if child in events:
            return node(var_of[child], 0, 1)
        f = families.get(child, 0)
        if budgets[child] != 1:
            return trunc(f, budget) if budgets[child] > budget else f
        out = 0
        for var in reversed(_bits(f)):
            out = node(var, out, 1)
        return out

    try:
        for done, gate_id in enumerate(gate_ids):
            budget = budgets[gate_id]
            if budget == 0:
                continue
            gate = gates[gate_id]
            k = gate.threshold
            if budget == 1:
                # An event fails the gate alone when it fails k children alone.
                failed = [0] * k
                for child in gate.children:
                    mask = read_mask(child)
                    for j in range(k - 1, 0, -1):
                        failed[j] |= failed[j - 1] & mask
                    failed[0] |= mask
                families[gate_id] = failed[-1]
                continue
            # Folding from the last child keeps the accumulated family below
            # the child it adds when the children are numbered in order.
            kids = [read_diagram(child, budget) for child in reversed(gate.children)]
            if k == 1:
                family = 0
                for f in kids:
                    family = union(f, family)
            elif k == len(kids):
                family = 1
                for f in kids:
                    family = product(f, family, budget)
            else:
                # votes[j]: the sets that fail j of the children folded so far.
                votes = [1] + [0] * k
                for f in kids:
                    for j in range(k, 0, -1):
                        votes[j] = union(product(f, votes[j - 1], budget), votes[j])
                family = votes[k]
            families[gate_id] = family
        top = read_diagram(ft.top, limit)
    except (_Full, RecursionError) as exc:
        # A tree whose events the walk numbers below much of the family they
        # join (an event one gate under a long chain, listed after it) makes
        # the operations recurse that deep.
        exceeded = f"budget of {max_nodes} nodes" if isinstance(exc, _Full) else "the recursion limit"
        largest_gate, largest_sets = _largest(families, budgets, nodes)
        raise ResourceLimitError(
            f"cut set expansion exceeded {exceeded} at gate {gate_id!r}",
            gates_done=done,
            gates_total=len(gate_ids),
            largest_gate=largest_gate,
            largest_sets=largest_sets,
        ) from None

    index_bit = [0] * len(var_of)
    for eid, var in var_of.items():
        index_bit[var] = 1 << index_of[eid]
    masks = []
    stack = [(top, 0)]
    while stack:
        f, mask = stack.pop()
        while f > 1:
            var, f, hi, _, _ = nodes[f]
            stack.append((hi, mask | index_bit[var]))
        if f == 1:
            masks.append(mask)
    return _collect(ft, masks, event_ids, max_order)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _largest(families: Mapping[str, int], budgets: Mapping[str, int],
             nodes: Sequence[tuple[int, int, int, int, int]]) -> tuple[str | None, int]:
    """The first finished gate whose family holds the most sets, and how many;
    (None, 0) when no finished gate holds a set."""
    counts = [0, 1]
    for _, lo, hi, _, _ in itertools.islice(nodes, 2, None):
        counts.append(counts[lo] + counts[hi])
    largest: tuple[str | None, int] = (None, 0)
    for gate_id, f in families.items():
        size = f.bit_count() if budgets[gate_id] == 1 else counts[f]
        if size > largest[1]:
            largest = (gate_id, size)
    return largest


def _variables(ft: FaultTree) -> dict[str, int]:
    """Each event's variable: its rank of first appearance in a depth-first
    walk from the top that numbers each gate's events, in child order,
    before it descends into the gate's child gates, also in child order."""
    var_of: dict[str, int] = {}
    expanded: set[str] = set()
    stack = [ft.top]
    while stack:
        gate_id = stack.pop()
        if gate_id in expanded:
            continue
        expanded.add(gate_id)
        children = ft.gates[gate_id].children
        for child in children:
            if child in ft.events and child not in var_of:
                var_of[child] = len(var_of)
        stack.extend(reversed([child for child in children if child in ft.gates]))
    return var_of


def _supports_and_bounds(
    ft: FaultTree, index_of: Mapping[str, int]
) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """One children-first pass giving every node's event support, every
    gate's shared mask (the events under two or more of its children; 0 when
    the children's supports are pairwise disjoint) and a lower bound on the
    order of every cut set of each node.

    An empty OR has support 0, which is disjoint from every sibling. A k-of-n
    gate (OR: k = 1, AND: k = n) needs k failed children: when the children's
    supports are pairwise disjoint their cut sets cannot share events, so the
    k smallest bounds add up; otherwise only the k-th smallest bound is
    certain. An empty OR never fails; its bound exceeds the order of any cut
    set of the tree.
    """
    supp = {eid: 1 << i for eid, i in index_of.items()}
    shared: dict[str, int] = {}
    never = len(ft.events) + 1
    lo = dict.fromkeys(ft.events, 1)
    gates = ft.gates
    for gate_id in ft.gate_order:
        gate = gates[gate_id]
        once = twice = 0
        for child in gate.children:
            twice |= once & supp[child]
            once |= supp[child]
        supp[gate_id] = once
        shared[gate_id] = twice
        k = gate.threshold
        if k > len(gate.children):
            lo[gate_id] = never
        elif k == 1:
            lo[gate_id] = min([lo[child] for child in gate.children])
        else:
            los = sorted([lo[child] for child in gate.children])
            lo[gate_id] = los[k - 1] if twice else sum(los[:k])
    return supp, shared, lo


def _order_budgets(
    ft: FaultTree, supp: Mapping[str, int], shared: Mapping[str, int], lo: Mapping[str, int],
    max_order: int,
) -> dict[str, int]:
    """The largest cut-set order each gate must deliver for a solve truncated
    at ``max_order``.

    Why a child may get less than its parent's budget b: every minimal cut set
    M of a k-of-n gate with |M| <= b is the union of one minimal cut set from
    each of k failed children. When none of child c's events is under a
    sibling, its part is disjoint from the rest of M, which is a cut set of
    the other k - 1 children; hence c's part has order <= b minus their least
    order: the sum of the k - 1 smallest bounds among them when all the
    children's supports are disjoint, and otherwise the (k - 1)-th smallest.
    Every other child keeps b, and a gate shared by several parents takes
    the largest budget any of them asks for. A gate keeps only sets within
    its budget; a non-minimal set within budget is absorbed by a minimal set
    that is also within budget, so each gate still yields exactly its
    minimal cut sets of order <= its budget. Budget 0 marks a gate with no
    cut set that small.
    """
    gates = ft.gates
    budgets = dict.fromkeys(ft.gate_order, 0)
    budgets[ft.top] = max_order
    for gate_id in reversed(ft.gate_order):
        gate = gates[gate_id]
        b = budgets[gate_id]
        if lo[gate_id] > b:
            budgets[gate_id] = 0
            continue
        k = gate.threshold
        children = gate.children
        if k == 1:
            # One failed child fails the gate; no sibling adds to its order.
            for child in children:
                if child in gates:
                    budgets[child] = max(budgets[child], b)
            continue
        common = shared[gate_id]
        los = sorted([lo[child] for child in children])
        least_k = sum(los[:k])
        for child in children:
            if child not in gates:
                continue
            taken = 0
            if not common:
                # Sum of the k - 1 smallest bounds once the child is removed.
                taken = max(least_k - lo[child], least_k - los[k - 1])
            elif not supp[child] & common:
                # (k - 1)-th smallest bound once the child is removed.
                taken = los[k - 1] if lo[child] <= los[k - 2] else los[k - 2]
            budgets[child] = max(budgets[child], b - taken)
    return budgets


# ---------------------------------------------------------------------------
# Bit-parallel evaluation: the oracle, the structure function, the witness
# ---------------------------------------------------------------------------


def _top_truth(ft: FaultTree, columns: Mapping[str, int]) -> int:
    """The top event's truth column, given every event's column.

    Bit ``a`` of a column is the node's value in assignment ``a``, so one
    children-first pass over the gates evaluates every assignment at once.
    Shares no code with the solver it checks.
    """
    value = dict(columns)
    gates = ft.gates
    for gate_id in ft.gate_order:
        gate = gates[gate_id]
        kids = [value[c] for c in gate.children]
        if gate.kind is GateKind.OR:
            out = 0
            for v in kids:
                out |= v
        elif gate.kind is GateKind.AND:
            out = kids[0]
            for v in kids[1:]:
                out &= v
        else:
            # failed[j]: assignments where more than j of the children seen so far fail.
            failed = [0] * gate.k
            for v in kids:
                for j in range(gate.k - 1, 0, -1):
                    failed[j] |= failed[j - 1] & v
                failed[0] |= v
            out = failed[-1]
        value[gate_id] = out
    return value[ft.top]


def brute_force_cut_sets(ft: FaultTree) -> CutSetCollection:
    """All minimal cut sets by exhaustive truth-table enumeration.

    Evaluates the structure function over every assignment of the tree's
    events and returns the minimal true points (the prime implicants of the
    monotone function). Independent of the expansion solver; serves as its
    oracle on small trees.
    """
    event_ids = sorted(ft.events)
    n = len(event_ids)
    if n > DEFAULT_BRUTE_FORCE_LIMIT:
        raise CutSetError(
            f"brute force limited to {DEFAULT_BRUTE_FORCE_LIMIT} events, tree has {n}"
        )
    size = 1 << n
    columns = {}
    for i, eid in enumerate(event_ids):
        # Bit a is bit i of a: runs of 2**i clear bits, then 2**i set bits.
        run = 1 << i
        col = ((1 << run) - 1) << run
        width = 2 * run
        while width < size:
            col |= col << width
            width *= 2
        columns[eid] = col
    top = _top_truth(ft, columns)
    # A true point of a monotone function is minimal when clearing any one of
    # its set bits gives a false point: bit a of top << 2**i is top at a - 2**i.
    covered = 0
    for i, eid in enumerate(event_ids):
        covered |= (top << (1 << i)) & columns[eid]
    minimal = top & ~covered
    # Scan bytes, not set bits: clearing the lowest bit of a 2**n-bit int
    # once per cut set is quadratic.
    masks = [
        8 * pos + bit
        for pos, byte in enumerate(minimal.to_bytes((size + 7) // 8, "little"))
        if byte
        for bit in range(8)
        if byte >> bit & 1
    ]
    return _collect(ft, masks, event_ids, truncation=None)


def evaluate_structure_function(ft: FaultTree, assignment: Mapping[str, bool]) -> bool:
    """Evaluate the top event under a total event assignment."""
    missing = set(ft.events) - set(assignment)
    if missing:
        raise EvaluationError(f"assignment missing events: {sorted(missing)[:3]}")
    return bool(_top_truth(ft, {eid: 1 if assignment[eid] else 0 for eid in ft.events}))


def witness_check(ft: FaultTree, cut_set: CutSet) -> bool:
    """Minimality witness: members-true fails the top; dropping any one member un-fails it."""
    # Assignment 0 fails every member; assignment i + 1 fails all but member i.
    every = (2 << len(cut_set.events)) - 1
    columns = dict.fromkeys(ft.events, 0)
    for i, eid in enumerate(cut_set.events):
        columns[eid] = every ^ (2 << i)
    return _top_truth(ft, columns) == 1


# ---------------------------------------------------------------------------
# SPOFs
# ---------------------------------------------------------------------------


class SpofReport(NamedTuple):
    """First-order cut sets; falls back to the lowest populated order when none exist."""

    spofs: tuple[CutSet, ...]
    fallback_sets: tuple[CutSet, ...]

    @property
    def fallback_order(self) -> int | None:
        return self.fallback_sets[0].order if self.fallback_sets else None


def extract_spofs(css: CutSetCollection) -> SpofReport:
    """Single points of failure: all order-1 sets, CCF-only sets included.

    ``css.cut_sets`` is sorted by order, so its first set has the lowest.
    """
    spofs = css.sets_of_order(1)
    if spofs or not css.cut_sets:
        return SpofReport(spofs=spofs, fallback_sets=())
    return SpofReport(spofs=(), fallback_sets=css.sets_of_order(css.cut_sets[0].order))


# ---------------------------------------------------------------------------
# Random coherent trees (oracle fodder)
# ---------------------------------------------------------------------------


def random_coherent_tree(
    rng: random.Random,
    *,
    max_events: int = 12,
    max_gates: int = 8,
) -> FaultTree:
    """Random coherent DAG tree with shared events and nested VOTE gates."""
    n_events = rng.randint(2, max(2, max_events))
    n_gates = rng.randint(1, max(1, max_gates))
    events = {}
    for i in range(n_events):
        eid = f"E{i + 1:02d}"
        if i >= 2 and rng.random() < 0.15:
            event = BasicEvent(
                id=eid,
                kind=EventKind.HW_CCF,
                subjects=(NodeId("XA", 0, 0, i + 1), NodeId("XB", 0, 0, i + 1)),
            )
        else:
            event = BasicEvent(
                id=eid, kind=EventKind.HW_INDEP, subjects=(NodeId("XA", 0, 0, i + 1),)
            )
        events[eid] = event

    gates: dict[str, Gate] = {}
    event_ids = sorted(events)
    for idx in range(n_gates, 0, -1):
        gate_id = f"G{idx}"
        pool = list(event_ids)
        if idx < n_gates:
            pool += [f"G{j}" for j in range(idx + 1, n_gates + 1)]
        width = rng.randint(1 if idx > 1 else 2, min(4, len(pool)))
        children = tuple(rng.sample(pool, width))
        kind = rng.choice([GateKind.AND, GateKind.OR, GateKind.VOTE])
        k = rng.randint(1, len(children)) if kind is GateKind.VOTE else None
        gates[gate_id] = Gate(id=gate_id, kind=kind, children=children, k=k)

    # Keep only what the top reaches; the constructor enforces the rest.
    return _reachable_tree("G1", gates, events)
