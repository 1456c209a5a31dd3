"""Minimal cut set solving for coherent fault trees.

The solver performs top-down gate expansion (OR branches rows, AND merges
rows, VOTE(k, n) branches over its k-combinations) evaluated gate-wise with
memoization so shared subtrees expand once. Rows are bitmasks over interned
event indices. Absorption minimization runs at each gate whose children
share events; a gate whose children's event supports are pairwise disjoint
skips it, because its rows are already minimal (see ``_combine``). Order
truncation prunes rows as soon as they exceed the budget, which is sound
because expansion of a coherent tree never shrinks a row. An untruncated
solve is truncated at the tree's event count, which no cut set exceeds, so
every solve runs the same code.

Each gate gets its own order budget, not the global one: a lower bound on
every gate's cut-set order is computed bottom-up, and a child of an AND or
VOTE gate whose events appear under no sibling only needs the parent's
budget minus the least order its co-failing siblings add. A gate whose lower
bound exceeds its budget yields no rows at all.

Replicated gates are solved once. Every gate has a shape, a hash of its
subtree with event names erased (``FaultTree.gate_shapes``). A top-down plan
(``_plan``) visits only the gates a solve needs; a gate that has an earlier
representative of its shape with at least its budget, and whose subtree a
parallel walk pairs node for node with the representative's (``_match``),
takes the representative's rows of at most its own budget with every bit
renamed, and nothing under it is visited. Why this is sound: a gate's rows
are exactly its minimal cut sets of order <= its budget, which depend only
on its subtree and its budget. The walk's bijection turns the
representative's structure function into the copy's, and a bijection
preserves popcount and containment, so the renamed rows within the copy's
budget are exactly the copy's rows.

At an AND or VOTE gate whose children share events, each child's rows are
also capped on their private events, those under no sibling: with gate
budget b, a row of child c with more than b - t_c private events is dropped,
where t_c is the (k - 1)-th smallest lower bound among the other children.
Why this is sound: a minimal cut set M of order <= b is the union of a row x
of c and rows of k - 1 other children. The union Y of those rows has order
at least t_c, and x's private events are under none of those children, so
they miss Y and |M| >= |private part of x| + t_c. So each row that M is
built from passes its own cap and M is still built; a union of kept rows
that is not minimal contains such an M, which absorbs it.

Absorption looks only where a subset of a row can exist. First, only a
strictly smaller row can absorb a row, so ``_minimize`` keeps the rows of
the input's lowest popcount unchecked, and returns an input whose rows all
have one popcount deduplicated. Second, at an OR whose children share events
(``_absorb_across``) each child's rows are an antichain, so a row y of child
j is absorbed only by a row x of another child i, and x lies in supp(i) &
supp(j), inside the gate's shared mask: the events under two or more
children. If x is itself absorbed, its absorber is smaller still, lies
inside the shared mask too and absorbs y. So the rows inside the shared
mask, minimized among themselves, are the only absorbers needed. A row with
an event outside the shared mask contains an absorber exactly when its
shared part does, and it equals none of them. A VOTE gate with 1 < k < n
keeps ``_minimize``, because rows of two of its combinations can come from
the same child.

One bit-parallel evaluator, ``_top_truth``, independent of the solver,
computes the structure function over many assignments in one pass: each
node's value is a Python int whose bit ``a`` is its value in assignment
``a``. It serves three callers: the brute-force oracle
(``brute_force_cut_sets``, all 2^n assignments of a small tree, minimal true
points), ``evaluate_structure_function`` (one assignment) and
``witness_check`` (a cut set and each of its one-member removals).
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import random
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .faulttree import (
    BasicEvent,
    CCF_KINDS,
    EventKind,
    FaultTree,
    Gate,
    GateKind,
    children_first,
    to_exchange_json,
)
from .sysmodel import NodeId

DEFAULT_SET_BUDGET = 5_000_000
DEFAULT_BRUTE_FORCE_LIMIT = 20


class CutSetError(Exception):
    """Raised for solver misuse (bad arguments, malformed assignments)."""


class ResourceLimitError(CutSetError):
    """Raised when expansion exceeds the configured row budget.

    Carries the progress made and the finished gate that kept the most rows
    (``largest_gate`` is None when no gate finished).
    """

    def __init__(self, message: str, gates_done: int, gates_total: int, live_sets: int,
                 largest_gate: str | None, largest_rows: int):
        largest = (
            f"largest gate {largest_gate!r} kept {largest_rows} rows"
            if largest_gate is not None else "no gate finished"
        )
        super().__init__(
            f"{message} (progress: {gates_done}/{gates_total} gates, {live_sets} live sets; "
            f"{largest})"
        )
        self.gates_done = gates_done
        self.gates_total = gates_total
        self.live_sets = live_sets
        self.largest_gate = largest_gate
        self.largest_rows = largest_rows


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
    """Minimal cut sets with truncation provenance and per-order counts."""

    cut_sets: tuple[CutSet, ...]
    truncation: int | None
    fingerprint: str
    per_order: Mapping[int, int] = MappingProxyType({})

    # len() counts cut sets, not fields, so ``_make`` and ``_replace`` do not apply.
    def __len__(self) -> int:
        return len(self.cut_sets)

    def cumulative_count(self, order: int) -> int:
        return sum(c for o, c in self.per_order.items() if o <= order)

    def rows(self) -> tuple[tuple[int, int, int], ...]:
        """(order, count at order, cumulative count) rows, ascending, up to the
        truncation order (untruncated: up to the largest order found)."""
        top = self.truncation if self.truncation is not None else max(self.per_order, default=0)
        return tuple((k, self.per_order.get(k, 0), self.cumulative_count(k)) for k in range(1, top + 1))

    def sets_of_order(self, order: int) -> tuple[CutSet, ...]:
        return tuple(c for c in self.cut_sets if c.order == order)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["order", "events", "contains_ccf"])
        for cs in self.cut_sets:
            writer.writerow([cs.order, " ".join(cs.sorted_events()), "yes" if cs.contains_ccf else "no"])
        return buf.getvalue()


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
    per_order: dict[int, int] = {}
    for mask in masks:
        names = []
        remaining = mask
        while remaining:
            low = remaining & -remaining
            names.append(index_to_id[low.bit_length() - 1])
            remaining ^= low
        order = len(names)
        per_order[order] = per_order.get(order, 0) + 1
        rows.append((order, tuple(names), mask))
    rows.sort()
    return CutSetCollection(
        cut_sets=tuple(
            CutSet(events=frozenset(names), contains_ccf=bool(mask & ccf_mask))
            for _, names, mask in rows
        ),
        truncation=truncation,
        fingerprint=tree_fingerprint(ft),
        per_order=dict(sorted(per_order.items())),
    )


def tree_fingerprint(ft: FaultTree) -> str:
    return hashlib.sha256(to_exchange_json(ft).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Antichain minimization over bitmasks
# ---------------------------------------------------------------------------


# Masks with at most this many bits are checked for absorption by probing
# each proper submask (at most 2**8 - 2) in a hash set of kept masks; wider
# ones scan the kept masks that share their lowest bits.
_PROBE_BITS = 8


def _minimize(masks: Iterable[int]) -> list[int]:
    """Keep only inclusion-minimal masks (absorption law).

    Masks are processed in ascending popcount order, so every minimal subset
    of a mask is kept before the mask comes up. Only a strictly smaller mask
    can absorb one, so the masks of the lowest popcount are kept unchecked,
    and masks that all have one popcount come back deduplicated. Singleton
    masks absorb anything containing their bit (the common case once shared
    common-cause events appear), handled by one OR-accumulated filter. A
    mask of at most ``_PROBE_BITS`` bits is absorbed exactly when one of its
    proper submasks is kept; wider masks use lowest-bit buckets to narrow
    subset candidates. The result is in ascending popcount, then value.
    """
    unique = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    if not unique:
        return unique
    least = unique[0].bit_count()
    if unique[-1].bit_count() == least:
        return unique
    kept: list[int] = []
    kept_set: set[int] = set()
    single_union = 0
    by_lowbit: dict[int, list[int]] = {}
    for mask in unique:
        size = mask.bit_count()
        if size == least:
            pass  # nothing smaller is kept
        elif mask & single_union:
            continue
        elif size <= _PROBE_BITS:
            sub = (mask - 1) & mask
            while sub and sub not in kept_set:
                sub = (sub - 1) & mask
            if sub:
                continue
        else:
            absorbed = False
            remaining = mask
            while remaining:
                low = remaining & -remaining
                for small in by_lowbit.get(low, ()):
                    if small & mask == small:
                        absorbed = True
                        break
                if absorbed:
                    break
                remaining ^= low
            if absorbed:
                continue
        kept.append(mask)
        if size == 1:
            single_union |= mask
        else:
            kept_set.add(mask)
            by_lowbit.setdefault(mask & -mask, []).append(mask)
    return kept


def _absorb_across(rows: list[int], shared: int) -> list[int]:
    """``_minimize(rows)`` for the rows of an OR whose children's rows are antichains.

    ``shared`` holds the events under two or more children. Only a row that
    lies inside ``shared`` can absorb a row of another child (see the module
    docstring), so those rows are minimized among themselves, and a row with
    an event outside ``shared`` is kept unless one of them is a subset of its
    shared part. Rows with the same shared part get the same verdict. The
    result is the list ``_minimize(rows)`` returns, in the same order.
    """
    absorbers = _minimize([m for m in rows if m & shared == m])
    kept = list(absorbers)
    absorber_set = set(absorbers)
    verdicts: dict[int, bool] = {}
    for mask in rows:
        key = mask & shared
        if key == mask:
            continue
        absorbed = verdicts.get(key)
        if absorbed is None:
            if key.bit_count() <= _PROBE_BITS:
                sub = key
                while sub and sub not in absorber_set:
                    sub = (sub - 1) & key
                absorbed = sub != 0
            else:
                absorbed = any(a & key == a for a in absorbers)
            verdicts[key] = absorbed
        if not absorbed:
            kept.append(mask)
    kept.sort(key=lambda m: (m.bit_count(), m))
    return kept


def _bit_subsets(mask: int, k: int) -> Iterable[int]:
    """All k-bit submasks of ``mask``; a mask of exactly k bits is its own only one."""
    if k == mask.bit_count():
        return (mask,)
    bits = []
    remaining = mask
    while remaining:
        low = remaining & -remaining
        bits.append(low)
        remaining ^= low
    # Distinct powers of two: their sum is their union.
    return map(sum, itertools.combinations(bits, k))


def _and_combine(a: list[int], b: list[int], order: int, max_rows: int,
                 disjoint: bool) -> list[int]:
    """Minimized pairwise unions, skipping pairs that cannot fit the order budget.

    A pair (x, y) survives only when |x| + |y| - |shared| stays within
    ``order``; pairs short on popcount are taken whole, and the rest are
    found by joining on shared ``need``-bit submasks, so pairs with too
    little overlap are never enumerated. A row of exactly ``need`` bits is
    its own only key, so when both rows are that size the join is an
    equality join on whole masks and no submask is enumerated. When ``a``
    and ``b`` draw on disjoint events no pair shares a bit, so only pairs
    short on popcount fit, and their unions are already minimal.
    """
    if not a or not b:
        return []
    out: list[int] = []
    buckets_a: dict[int, list[int]] = {}
    buckets_b: dict[int, list[int]] = {}
    for x in a:
        buckets_a.setdefault(x.bit_count(), []).append(x)
    for y in b:
        buckets_b.setdefault(y.bit_count(), []).append(y)

    for pa, xs in buckets_a.items():
        for pb, ys in buckets_b.items():
            need = pa + pb - order
            if need <= 0:
                if len(out) + len(xs) * len(ys) > max_rows:
                    raise _BudgetExceeded()
                out.extend(x | y for x in xs for y in ys)
                continue
            if disjoint or need > min(pa, pb):
                continue
            index: dict[int, list[int]] = {}
            for y in ys:
                for key in _bit_subsets(y, need):
                    index.setdefault(key, []).append(y)
            for x in xs:
                for key in _bit_subsets(x, need):
                    for y in index.get(key, ()):
                        merged = x | y
                        if merged.bit_count() <= order:
                            out.append(merged)
                if len(out) > max_rows:
                    raise _BudgetExceeded()
    return out if disjoint else _minimize(out)


def _and_all(parts: Sequence[list[int]], order: int, max_rows: int, disjoint: bool) -> list[int]:
    """Minimal masks of order <= ``order`` in which every part has a row."""
    # A part is an antichain; dropping its rows over the order keeps it one.
    acc = [m for m in parts[0] if m.bit_count() <= order]
    for p in parts[1:]:
        if not acc:
            break
        acc = _and_combine(acc, p, order, max_rows, disjoint)
    return acc


class _BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def solve_minimal_cut_sets(
    ft: FaultTree,
    max_order: int | None = None,
    *,
    max_sets: int = DEFAULT_SET_BUDGET,
) -> CutSetCollection:
    """Exact minimal cut sets of a coherent tree, optionally order-truncated.

    With truncation the result equals the subset of the untruncated minimal
    cut sets whose order does not exceed ``max_order``.
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
    caps: dict[str, list[tuple[int, int] | None]] = {}
    budgets = _order_budgets(ft, supp, shared, lo, limit, caps)
    plan = _plan(ft, budgets, index_of)
    results: dict[str, list[int]] = {}
    largest_gate: str | None = None
    largest_rows = 0

    # What each planned gate reads: its child gates, or its representative.
    # Free a result once every reader has consumed it; only the top's sets
    # must survive to the end.
    reads: dict[str, tuple[str, ...]] = {}
    consumers: dict[str, int] = {}
    for gate_id, source in plan.items():
        if source is not None:
            reads[gate_id] = (source.rep,)
        elif budgets.get(gate_id, 0):
            reads[gate_id] = tuple(c for c in gates[gate_id].children if c in gates)
        else:
            reads[gate_id] = ()
        for child in reads[gate_id]:
            consumers[child] = consumers.get(child, 0) + 1

    for done, gate_id in enumerate(gate_ids):
        if gate_id not in plan:
            continue
        gate = gates[gate_id]
        budget = budgets.get(gate_id, 0)
        source = plan[gate_id]
        if budget == 0:
            results[gate_id] = []
        elif source is not None:
            results[gate_id] = _rename(results[source.rep], budget, source)
        else:
            parts = [
                [1 << index_of[child]] if child in events else results[child]
                for child in gate.children
            ]
            if gate_id in caps:
                parts = [
                    p if cap is None else [m for m in p if (m & cap[0]).bit_count() <= cap[1]]
                    for p, cap in zip(parts, caps[gate_id])
                ]
            try:
                results[gate_id] = _combine(gate, parts, budget, max_sets, shared[gate_id])
            except _BudgetExceeded:
                live = sum(len(r) for r in results.values())
                raise ResourceLimitError(
                    f"cut set expansion exceeded budget of {max_sets} rows at gate {gate_id!r}",
                    gates_done=done,
                    gates_total=len(gate_ids),
                    live_sets=live,
                    largest_gate=largest_gate,
                    largest_rows=largest_rows,
                ) from None
        if len(results[gate_id]) > largest_rows:
            largest_gate, largest_rows = gate_id, len(results[gate_id])
        for child in reads[gate_id]:
            consumers[child] -= 1
            if consumers[child] == 0 and child != ft.top:
                del results[child]

    return _collect(ft, results[ft.top], event_ids, max_order)


class _Copy(NamedTuple):
    """How a mapped gate gets its rows: its representative's, renamed."""

    rep: str
    fixed: int  # the events that pair with themselves
    moves: dict[int, int]  # every other representative bit -> the copy's bit


def _plan(
    ft: FaultTree, budgets: Mapping[str, int], index_of: Mapping[str, int]
) -> dict[str, _Copy | None]:
    """The gates a solve must build: None for a gate solved from its children,
    a ``_Copy`` for one that takes a representative's rows.

    A depth-first walk from the top, in child order, visits only the gates
    some visited parent reads. A visited gate with a budget tries the
    representatives kept so far that share its shape, come earlier in
    ``gate_order`` and have at least its budget. The first whose subtree
    ``_match`` pairs with its own makes it a copy, and its children are not
    visited. Otherwise it is solved and becomes a representative itself.
    """
    gates = ft.gates
    shapes = ft.gate_shapes
    position = {g: i for i, g in enumerate(ft.gate_order)}
    plan: dict[str, _Copy | None] = {}
    kept: dict[int, list[str]] = {}
    stack = [ft.top]
    while stack:
        gate_id = stack.pop()
        if gate_id in plan:
            continue
        plan[gate_id] = None
        budget = budgets.get(gate_id, 0)
        if budget == 0:
            continue
        reps = kept.setdefault(shapes[gate_id], [])
        for rep in reps:
            if position[rep] < position[gate_id] and budgets[rep] >= budget:
                pairs = _match(gates, gate_id, rep)
                if pairs is not None:
                    plan[gate_id] = _copy_of(rep, pairs, index_of)
                    break
        else:
            reps.append(gate_id)
            stack.extend(c for c in reversed(gates[gate_id].children) if c in gates)
    return plan


def _match(gates: Mapping[str, Gate], gate_id: str, rep: str) -> dict[str, str] | None:
    """Each event of ``gate_id``'s subtree -> its partner in ``rep``'s, or None.

    Walks both subtrees in parallel. Paired gates must agree in kind, k and
    arity, and paired children must both be events or both be gates. The
    pairing must stay a bijection: a node met again must pair with the same
    node, and no two nodes may pair with one.
    """
    ours_of = {rep: gate_id}
    theirs_of = {gate_id: rep}
    stack = [(gate_id, rep)]
    while stack:
        ours, theirs = stack.pop()
        a, b = gates[ours], gates[theirs]
        if a.kind is not b.kind or a.k != b.k or len(a.children) != len(b.children):
            return None
        for x, y in zip(a.children, b.children):
            paired = theirs_of.get(x)
            if paired is None:
                if y in ours_of or (x in gates) is not (y in gates):
                    return None
                theirs_of[x] = y
                ours_of[y] = x
                if x in gates:
                    stack.append((x, y))
            elif paired != y:
                return None
    return {x: y for x, y in theirs_of.items() if x not in gates}


def _copy_of(rep: str, pairs: Mapping[str, str], index_of: Mapping[str, int]) -> _Copy:
    fixed = 0
    moves = {}
    for ours, theirs in pairs.items():
        if ours == theirs:
            fixed |= 1 << index_of[ours]
        else:
            moves[1 << index_of[theirs]] = 1 << index_of[ours]
    return _Copy(rep, fixed, moves)


def _rename(rows: list[int], order: int, copy: _Copy) -> list[int]:
    """The representative's rows of at most ``order`` bits, renamed for the copy."""
    fixed, moves = copy.fixed, copy.moves
    out = []
    for row in rows:
        if row.bit_count() > order:
            continue
        renamed = row & fixed
        row ^= renamed
        while row:
            low = row & -row
            renamed |= moves[low]
            row ^= low
        out.append(renamed)
    return out


def _threshold(gate: Gate) -> int:
    """How many children must fail for the gate to fail."""
    if gate.kind is GateKind.OR:
        return 1
    if gate.kind is GateKind.AND:
        return len(gate.children)
    assert gate.k is not None
    return gate.k


def _supports_and_bounds(
    ft: FaultTree, index_of: Mapping[str, int]
) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """One children-first pass giving every node's event support, every
    gate's shared mask (the events under two or more of its children; 0 when
    the children's supports are pairwise disjoint), and a lower bound on the
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
        k = _threshold(gate)
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
    max_order: int, caps: dict[str, list[tuple[int, int] | None]] | None = None,
) -> dict[str, int]:
    """The largest cut-set order each gate must deliver for a solve truncated at ``max_order``.

    Why a child may get less than its parent's budget b: every minimal cut set
    M of a k-of-n gate with |M| <= b is the union of one minimal cut set from
    each of k failed children. When child c's support is disjoint from all
    its siblings' supports, its part is disjoint from the rest of M, which is
    a cut set of the other k - 1 children and so has order at least their
    (k - 1)-of-(n - 1) lower bound; hence c's part has order <= b minus that
    bound. Every other child keeps b, and a gate shared by several parents
    takes the largest budget any of them asks for. A gate keeps only rows
    within its budget; a non-minimal row within budget is absorbed by a
    minimal row that is also within budget, so each gate still yields
    exactly its minimal cut sets of order <= its budget. Budget 0 marks a
    gate with no cut set that small.

    When ``caps`` is given, the same pass fills it for every AND or VOTE gate
    whose children share events: one (private mask, cap) per child, or None
    where the cap cannot bite. A child's private events are those under no
    sibling, and a row of that child with more than ``cap`` of them is
    in no minimal cut set of the gate within its budget (see the module
    docstring).
    """
    gates = ft.gates
    budgets = {ft.top: max_order}
    for gate_id in reversed(ft.gate_order):
        gate = gates[gate_id]
        b = budgets.get(gate_id, 0)
        if lo[gate_id] > b:
            budgets[gate_id] = 0
            continue
        k = _threshold(gate)
        children = gate.children
        if k == 1:
            # One failed child fails the gate; no sibling adds to its order.
            for child in children:
                if child in gates:
                    budgets[child] = max(budgets.get(child, 0), b)
            continue
        # A child is alone when none of its events is under two or more children.
        common = shared[gate_id]
        los = sorted([lo[child] for child in children])
        least_k = sum(los[:k])
        apart = not common
        gate_caps: list[tuple[int, int] | None] | None = None if apart or caps is None else []
        for child in children:
            # (k - 1)-th smallest bound once the child is removed.
            others = los[k - 1] if lo[child] <= los[k - 2] else los[k - 2]
            if gate_caps is not None:
                private = supp[child] & ~common
                cap = b - others
                gate_caps.append((private, cap) if private.bit_count() > cap else None)
            if child not in gates:
                continue
            alone = not supp[child] & common
            taken = 0
            if alone and apart:
                # Sum of the k - 1 smallest bounds once the child is removed.
                taken = max(least_k - lo[child], least_k - los[k - 1])
            elif alone:
                taken = others
            budgets[child] = max(budgets.get(child, 0), b - taken)
        if gate_caps is not None and any(gate_caps):
            caps[gate_id] = gate_caps
    return budgets


def _combine(gate: Gate, parts: list[list[int]], order: int, max_rows: int,
             shared: int) -> list[int]:
    """Minimal masks of one gate of order <= ``order`` from its children's masks.

    Every gate is a k-of-n vote (OR: k = 1, AND: k = n): its rows are the
    minimized unions of one row from each child of some k-combination. With
    k = n there is a single combination, which ``_and_all`` already minimizes.
    ``shared`` holds the events under two or more children. When it is 0 the
    children's supports are pairwise disjoint and the rows need no
    absorption. Each child result is an antichain of nonempty masks within
    its child's support. Unions of antichains over disjoint supports (OR) are
    an antichain without duplicates, and so are the pairwise unions of two of
    them (AND): x | y contains x' | y' only when x contains x' and y contains
    y'. Rows from two different VOTE combinations cannot contain one another,
    because each row meets exactly the supports of its own combination's
    children. Dropping rows over the order budget keeps an antichain an
    antichain. An OR whose children share events absorbs only through the
    rows inside ``shared`` (``_absorb_across``); a VOTE keeps ``_minimize``,
    because rows of two combinations can share children.
    """
    k = _threshold(gate)
    if k == len(parts):
        return _and_all(parts, order, max_rows, not shared)
    rows: list[int] = []
    for combo in itertools.combinations(parts, k):
        rows.extend(_and_all(combo, order, max_rows, not shared))
        if len(rows) > max_rows:
            raise _BudgetExceeded()
    if not shared:
        return rows
    return _absorb_across(rows, shared) if k == 1 else _minimize(rows)


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
    fallback_order: int | None
    fallback_sets: tuple[CutSet, ...]

    @property
    def has_spofs(self) -> bool:
        return bool(self.spofs)


def extract_spofs(css: CutSetCollection) -> SpofReport:
    """Single points of failure: all order-1 sets, CCF-only sets included."""
    spofs = css.sets_of_order(1)
    if spofs:
        return SpofReport(spofs=spofs, fallback_order=None, fallback_sets=())
    populated = sorted(css.per_order)
    if not populated:
        return SpofReport(spofs=(), fallback_order=None, fallback_sets=())
    lowest = populated[0]
    return SpofReport(
        spofs=(),
        fallback_order=lowest,
        fallback_sets=css.sets_of_order(lowest),
    )


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
    reachable = set(children_first(gates, "G1"))
    reachable |= {c for g in reachable for c in gates[g].children}
    return FaultTree(
        top="G1",
        gates={g: gates[g] for g in gates if g in reachable},
        events={e: events[e] for e in events if e in reachable},
    )
