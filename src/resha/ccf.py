"""Common-cause failure events: catalog enumeration from redundancy groups
and shared-event injection into an integrated fault tree.

A CCF event injected at n attachment points is one basic event with one ID,
so any cut set containing it counts it once. Hardware CCFs land under each
member's hardware OR; software CCFs land under each member's software ORs,
one event per enabled category.
"""

from __future__ import annotations

import itertools
import logging
from typing import Iterable, Iterator, NamedTuple, Sequence

from .faulttree import BasicEvent, EventKind, FaultTree, FaultTreeError, Gate, ccf_event_id, hw_gate_id
from .sysmodel import CcfPolicy, GroupScope, NodeId, RedundancyGroup, _csv_text, _shown

logger = logging.getLogger(__name__)


class CcfEvent(NamedTuple):
    """A catalog entry; ``injected`` candidates become shared basic events.

    ``members`` are the ``group`` members in ``division_subset``, or all of
    them when it is None.
    """

    name: str
    kind: EventKind
    group: RedundancyGroup
    members: tuple[NodeId, ...]
    division_subset: tuple[str, ...] | None = None
    category: str | None = None
    description: str = ""

    def to_basic_event(self) -> BasicEvent:
        return BasicEvent(
            id=self.name,
            kind=self.kind,
            subjects=self.members,
            description=self.description,
            category=self.category,
        )


def _ccf_event(group: RedundancyGroup, subset: tuple[str, ...] | None = None,
               category: str | None = None) -> CcfEvent:
    """The group's CCF over its own span, or over a partial division ``subset``.

    A software CCF when ``category`` is given, else a hardware one.
    """
    if subset is None:
        members = group.members
        where = f" within division {group.division}" if group.division is not None else ""
    else:
        members = tuple(m for m in group.members if m.division in subset)
        where = f" across divisions {'-'.join(subset)}"
    if category is None:
        kind, what = EventKind.HW_CCF, "hardware CCF"
    else:
        kind, what = EventKind.SW_CCF, f"software CCF type {category.upper()}"
    return CcfEvent(
        name=ccf_event_id(group.equipment.prefix, hardware=category is None, division=group.division,
                          division_subset=subset, category=category),
        kind=kind,
        group=group,
        members=members,
        division_subset=subset,
        category=category,
        description=f"{group.equipment.display} {what}{where}.",
    )


def _partial_subsets(group: RedundancyGroup) -> list[tuple[str, ...]]:
    """Division subsets of size >= 2 short of the full span."""
    divisions = sorted({m.division for m in group.members})
    return [
        subset
        for size in range(2, len(divisions))
        for subset in itertools.combinations(divisions, size)
    ]


def _covers_own_span(group: RedundancyGroup, policy: CcfPolicy) -> bool:
    """True when the policy instantiates CCFs over the group's own span."""
    if group.scope is GroupScope.INTRA_DIVISION:
        return policy.include_intra_division
    return policy.include_cross_all_divisions


def _candidates(groups: Sequence[RedundancyGroup], policy: CcfPolicy) -> Iterator[CcfEvent]:
    """Every CCF event the policy instantiates, group by group.

    Division tags are joined without a separator, so two spans can build one
    name (the subsets A, BC and AB, C both give ``DIVABC``); that raises
    ``FaultTreeError`` rather than merging two events into one.
    """
    names: set[str] = set()
    for group in groups:
        spans: list[tuple[str, ...] | None] = [None] if _covers_own_span(group, policy) else []
        if group.scope is GroupScope.CROSS_DIVISION and policy.include_partial_interdivision:
            spans += _partial_subsets(group)
        categories = policy.software_categories if group.software_capable else ()
        for subset in spans:
            for category in (None, *categories):
                event = _ccf_event(group, subset, category)
                if event.name in names:
                    raise FaultTreeError(f"two CCF events are named {_shown(event.name)}")
                names.add(event.name)
                yield event


def enumerate_ccf_catalog(
    groups: Sequence[RedundancyGroup], policy: CcfPolicy
) -> tuple[CcfEvent, ...]:
    """Complete CCF catalog for design guidance.

    The catalog covers every group at both declared scopes regardless of the
    policy's include flags, and software categories a/b/c plus any category
    the policy names, so a restrictive injection policy still yields the full
    picture. Partial inter-division combinations appear only when the policy
    enables them.
    """
    widened = policy._replace(
        include_intra_division=True,
        include_cross_all_divisions=True,
        software_categories=tuple(sorted(set("abc") | set(policy.software_categories))),
    )
    return tuple(
        sorted(
            _candidates(groups, widened),
            key=lambda e: (e.group.equipment.tag, e.group.scope.value, e.group.division or "", e.name),
        )
    )


def inject_ccfs(
    ft: FaultTree, groups: Sequence[RedundancyGroup], policy: CcfPolicy
) -> FaultTree:
    """Attach CCF basic events to every member failure node present in the tree.

    Hardware CCFs attach under members' hardware ORs; software CCFs attach
    under members' software ORs (all of them, for components acting through
    several control actions). A group whose members have no software subtree
    is skipped with a warning. Members absent from this tree's scope are
    ignored; an event attaches only when at least two members are present.

    A member's gates are found from the tree's structure, as the tree builder
    and ``integrate_ucas`` make it: its hardware OR is ``hw_gate_id(member)``,
    the parents of that gate are its failure ORs, and the other gates under
    those are its software ORs. No gate id is parsed, so a tree read back
    from its exchange document injects like the one that was written.
    """
    if policy.software_categories:
        for group in groups:
            if not group.software_capable and _covers_own_span(group, policy):
                logger.warning(
                    "skipping software CCFs for %s (%s): members have no software subtree",
                    group.equipment.tag,
                    group.scope.value,
                )
    parents: dict[str, list[str]] = {}
    for gate in ft.gates.values():
        for child in gate.children:
            parents.setdefault(child, []).append(gate.id)
    events = dict(ft.events)
    # Gate id -> the CCF events it gains, in candidate order.
    attached: dict[str, dict[str, None]] = {}

    for candidate in sorted(_candidates(groups, policy), key=lambda e: e.name):
        points: list[str] = []
        present = 0
        for member in candidate.members:
            hw_id = hw_gate_id(member)
            if candidate.kind is EventKind.HW_CCF:
                member_points = [hw_id] if hw_id in ft.gates else []
            else:
                fail_ids = parents.get(hw_id, ())
                member_points = [c for f in fail_ids for c in ft.gates[f].children
                                 if c != hw_id and c in ft.gates]
                if fail_ids and not member_points:
                    logger.warning(
                        "skipping software CCF %s for %s: no software subtree",
                        candidate.name,
                        member.text,
                    )
            points.extend(member_points)
            present += bool(member_points)
        if present < 2:
            continue
        if candidate.name not in events:
            events[candidate.name] = candidate.to_basic_event()
        for gate_id in points:
            attached.setdefault(gate_id, {})[candidate.name] = None

    gates = dict(ft.gates)
    for gate_id, names in attached.items():
        gate = gates[gate_id]
        added = tuple(name for name in names if name not in gate.children)
        gates[gate_id] = Gate(*gate._replace(children=gate.children + added))
    return FaultTree(top=ft.top, gates=gates, events=events)


def catalog_to_csv(catalog: Iterable[CcfEvent]) -> str:
    return _csv_text(
        ["name", "class", "scope", "kind", "category", "members"],
        (
            [
                event.name,
                event.group.equipment.tag,
                event.group.scope.value if event.division_subset is None else "partial-interdivision",
                event.kind.value,
                event.category or "",
                " ".join(m.text for m in event.members),
            ]
            for event in catalog
        ),
    )
