"""Coherent fault trees: hardware tree construction from gate declarations,
software/human failure integration, subtree extraction, and event filtering.

Trees are immutable DAGs of AND/OR/VOTE(k, n) gates over basic events; shared
children are allowed, negation is not. Every operation returns a new tree.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .stpa import UcaRecord
from .sysmodel import (
    _REQUIRED, UCA_CATEGORIES, GateKind, ModelIssue, NodeId, NodeIdError, SystemModel, Technology,
    _entries, _enum, _integer, _node_ids, _object, _read, _shown, _shown_name, _text, _texts,
    parse_node_id,
)


class FaultTreeError(Exception):
    """Raised for structural problems: cycles, missing references, bad votes."""


class IntegrationError(FaultTreeError):
    """Raised when a UCA cannot be attached to the tree."""


class EventKind(str, Enum):
    HW_INDEP = "HW_INDEP"
    HW_CCF = "HW_CCF"
    SW_UCA = "SW_UCA"
    SW_CCF = "SW_CCF"
    HUMAN_UCA = "HUMAN_UCA"


HARDWARE_KINDS = frozenset({EventKind.HW_INDEP, EventKind.HW_CCF})
SOFTWARE_KINDS = frozenset({EventKind.SW_UCA, EventKind.SW_CCF, EventKind.HUMAN_UCA})
CCF_KINDS = frozenset({EventKind.HW_CCF, EventKind.SW_CCF})


class _BasicEventFields(NamedTuple):
    id: str
    kind: EventKind
    subjects: tuple[NodeId, ...]
    description: str = ""
    category: str | None = None
    uca_id: str | None = None


class BasicEvent(_BasicEventFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> BasicEvent:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind in CCF_KINDS and len(self.subjects) < 2:
            raise FaultTreeError(f"CCF event {_shown_name(self.id)} must reference >= 2 subjects")
        if self.kind is EventKind.SW_UCA and self.uca_id is None:
            raise FaultTreeError(f"software UCA event {_shown_name(self.id)} must reference its UCA")
        return self


class _GateFields(NamedTuple):
    id: str
    kind: GateKind
    children: tuple[str, ...]
    k: int | None = None
    description: str | None = None


class Gate(_GateFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Gate:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind is GateKind.VOTE:
            if self.k is None or not 1 <= self.k <= len(self.children):
                raise FaultTreeError(
                    f"vote gate {_shown_name(self.id)} needs 1 <= k <= {len(self.children)}, got {_shown(self.k)}"
                )
        elif self.k is not None:
            raise FaultTreeError(f"gate {_shown_name(self.id)}: k only applies to vote gates")
        # Empty OR is a never-fails placeholder; an empty AND has no sound reading.
        if self.kind is GateKind.AND and not self.children:
            raise FaultTreeError(f"AND gate {_shown_name(self.id)} must have children")
        return self

    @property
    def threshold(self) -> int:
        """How many children must fail for the gate to fail: 1 for OR, n for AND, k for VOTE."""
        if self.kind is GateKind.OR:
            return 1
        if self.kind is GateKind.AND:
            return len(self.children)
        return self.k


class _FaultTreeFields(NamedTuple):
    top: str
    gates: Mapping[str, Gate]
    events: Mapping[str, BasicEvent]


class FaultTree(_FaultTreeFields):
    """Immutable coherent fault tree rooted at ``top``."""

    def __new__(cls, *args, **kwargs) -> FaultTree:
        self = super().__new__(cls, *args, **kwargs)
        validate_tree(self)
        return self

    @cached_property
    def gate_order(self) -> tuple[str, ...]:
        """Gates reachable from the top, each after all its child gates; walked once."""
        return children_first(self.gates, self.top)


def validate_tree(ft: FaultTree) -> None:
    """Check reference integrity, vote arity, reachability, and acyclicity."""
    overlap = set(ft.gates) & set(ft.events)
    if overlap:
        raise FaultTreeError(f"ids used as both gate and event: {_first_ids(overlap)}")
    if ft.top not in ft.gates and ft.top not in ft.events:
        raise FaultTreeError(f"top reference {_shown(ft.top)} does not exist")
    for gate in ft.gates.values():
        for child in gate.children:
            if child not in ft.gates and child not in ft.events:
                raise FaultTreeError(f"gate {_shown_name(gate.id)} references unknown child {_shown(child)}")
    reached = set(ft.gate_order)
    unreachable = set(ft.gates) - reached
    if unreachable:
        raise FaultTreeError(f"gates unreachable from top: {_first_ids(unreachable)}")
    unreferenced = set(ft.events) - _events_under(ft.gates, reached) - {ft.top}
    if unreferenced:
        raise FaultTreeError(f"events unreachable from top: {_first_ids(unreferenced)}")


def _first_ids(ids: Iterable[str]) -> str:
    """The first three ``ids`` in sorted order as a list text, each id cut short."""
    return "[" + ", ".join(_shown(i) for i in sorted(ids)[:3]) + "]"


def children_first(gates: Mapping[str, Gate], root: str) -> tuple[str, ...]:
    """Ids of the gates reachable from ``root``, each after all its child gates.

    An iterative depth-first post-order that visits children in declaration
    order, so any depth of nesting works and equal trees give equal orders.
    Children that are not in ``gates`` (events) are skipped.
    """
    if root not in gates:
        return ()
    order: list[str] = []
    finished: set[str] = set()
    on_path = {root}
    stack: list[tuple[str, Iterator[str]]] = [(root, iter(gates[root].children))]
    while stack:
        gate_id, pending = stack[-1]
        for child in pending:
            if child in on_path:
                raise FaultTreeError(f"cycle detected through gate {_shown(child)}")
            if child in gates and child not in finished:
                on_path.add(child)
                stack.append((child, iter(gates[child].children)))
                break
        else:
            stack.pop()
            on_path.discard(gate_id)
            finished.add(gate_id)
            order.append(gate_id)
    return tuple(order)


def _events_under(gates: Mapping[str, Gate], gate_ids: Iterable[str]) -> set[str]:
    """Children of the given gates that are not gates themselves."""
    return {c for g in gate_ids for c in gates[g].children if c not in gates}


def _reachable_tree(top: str, gates: Mapping[str, Gate], events: Mapping[str, BasicEvent]) -> FaultTree:
    """The tree rooted at the gate ``top``, keeping only the gates and events it reaches."""
    gate_ids = children_first(gates, top)
    return FaultTree(
        top=top,
        gates={g: gates[g] for g in gate_ids},
        events={e: events[e] for e in sorted(_events_under(gates, gate_ids))},
    )


# ---------------------------------------------------------------------------
# Canonical naming
# ---------------------------------------------------------------------------

# Ids are only built from these functions, never parsed back: which node a
# gate belongs to is the tree's structure (see ``ccf.inject_ccfs``).


def fail_gate_id(node: NodeId, ca_target: NodeId | None = None) -> str:
    if ca_target is None:
        return f"FAIL::{node.text}"
    return f"FAIL::{node.text}::{ca_target.text}"


def hw_gate_id(node: NodeId) -> str:
    return f"HW::{node.text}"


def sw_gate_id(node: NodeId, ca_target: NodeId | None = None) -> str:
    if ca_target is None:
        return f"SW::{node.text}"
    return f"SW::{node.text}::{ca_target.text}"


def independent_event_id(prefix: str, node: NodeId) -> str:
    return f"{prefix}-HD-{node.text}"


def uca_event_id(prefix: str, uca_id: str, human: bool) -> str:
    mode = "HF" if human else "SF"
    return f"{prefix}-{mode}-{uca_id.upper()}"


def ccf_event_id(
    prefix: str,
    hardware: bool,
    division: str | None = None,
    category: str | None = None,
    division_subset: Sequence[str] | None = None,
) -> str:
    parts = [prefix]
    if division is not None:
        parts.append(f"DIV{division}")
    elif division_subset is not None:
        parts.append("DIV" + "".join(division_subset))
    parts.append("HD" if hardware else "SF")
    parts.append("CCF")
    if category is not None:
        parts.append(f"T{category.upper()}")
    return "-".join(parts)


# ---------------------------------------------------------------------------
# Hardware tree construction
# ---------------------------------------------------------------------------


def build_hardware_fault_tree(m: SystemModel, top: str) -> FaultTree:
    """Build the hardware-failure tree rooted at a declared gate.

    ``top`` may also name a node, in which case the tree is that node's
    failure gate alone. Component-failure references expand to an OR holding
    the node's independent hardware event (none for human controllers);
    common-cause and software events are attached by later pipeline stages.
    """
    gates: dict[str, Gate] = {}
    events: dict[str, BasicEvent] = {}

    def fail_gate(node_text: str, ca_to: str | None) -> str:
        node = m.nodes[node_text]
        hw_id = hw_gate_id(node.id)
        if hw_id not in gates:
            children: tuple[str, ...] = ()
            if node.technology is not Technology.HUMAN:
                event = BasicEvent(
                    id=independent_event_id(m.class_prefix(node.equipment_class), node.id),
                    kind=EventKind.HW_INDEP,
                    subjects=(node.id,),
                    description=f"{node.name} hardware failure.",
                )
                events[event.id] = event
                children = (event.id,)
            gates[hw_id] = Gate(id=hw_id, kind=GateKind.OR, children=children)
        fid = fail_gate_id(node.id, m.nodes[ca_to].id if ca_to is not None else None)
        if fid not in gates:
            gates[fid] = Gate(
                id=fid,
                kind=GateKind.OR,
                children=(hw_id,),
                description=f"{node.name} fails" + (f" (action toward {ca_to})" if ca_to else ""),
            )
        return fid

    declared = m.resolved_gates
    if top not in declared:
        try:
            node_id = parse_node_id(top)
        except NodeIdError:
            raise FaultTreeError(f"unknown top event {_shown(top)}") from None
        if node_id.text not in m.nodes:
            raise FaultTreeError(f"unknown top event {_shown(top)}")
        return FaultTree(top=fail_gate(node_id.text, None), gates=gates, events=events)

    # A worklist, so declarations may nest deeper than Python's recursion
    # limit; ``FaultTree`` orders the gates itself.
    pending = [top]
    while pending:
        spec = declared[pending.pop()]
        if spec.id in gates:
            continue
        gates[spec.id] = Gate(
            id=spec.id,
            kind=spec.kind,
            children=tuple(c.gate or fail_gate(c.fail, c.ca_to) for c in spec.children),
            k=spec.k,
            description=spec.description,
        )
        pending.extend(c.gate for c in spec.children if c.gate is not None)
    return FaultTree(top=top, gates=gates, events=events)


# ---------------------------------------------------------------------------
# UCA integration
# ---------------------------------------------------------------------------


def integrate_ucas(ft: FaultTree, selected: Sequence[UcaRecord]) -> FaultTree:
    """Attach selected UCAs as basic events under their sources' failure gates.

    A UCA attaches under the failure gate of its own action
    (``FAIL::source::target``) when the tree has one, else under its source's
    whole-node failure gate (``FAIL::source``); with neither, its action is
    outside this tree and it is skipped. A UCA of an analog source is an error
    only where it would attach. Each affected failure gate becomes
    OR(hardware subtree, software subtree); the software subtree is an OR of
    that action's UCA events, one basic event per UCA, and later receives
    common-cause events. Human-controller UCAs are attached exactly like
    software ones.
    """
    if not selected:
        return ft
    gates = dict(ft.gates)
    events = dict(ft.events)

    for record in selected:
        if not record.applicable:
            raise IntegrationError(f"{record.uca_id} is not applicable; cannot integrate")
        ca = record.action
        exact = fail_gate_id(ca.source, ca.target)
        whole = fail_gate_id(ca.source)
        if exact in gates:
            fail_id = exact
            sw_id = sw_gate_id(ca.source, ca.target)
        elif whole in gates:
            fail_id = whole
            sw_id = sw_gate_id(ca.source)
        else:
            continue
        if ca.source_technology is Technology.ANALOG:
            raise IntegrationError(
                f"{record.uca_id}: source {ca.source.text} is analog and carries no software"
            )
        human = ca.source_technology is Technology.HUMAN
        event = BasicEvent(
            id=uca_event_id(ca.source_class_prefix, record.uca_id, human),
            kind=EventKind.HUMAN_UCA if human else EventKind.SW_UCA,
            subjects=(ca.source,),
            description=record.text,
            category=record.category,
            uca_id=record.uca_id,
        )
        if event.id in events:
            raise IntegrationError(f"duplicate UCA event id {event.id}")
        events[event.id] = event
        sw_gate = gates.get(sw_id)
        if sw_gate is None:
            gates[sw_id] = Gate(id=sw_id, kind=GateKind.OR, children=(event.id,))
            parent = gates[fail_id]
            gates[fail_id] = Gate(*parent._replace(children=parent.children + (sw_id,)))
        else:
            gates[sw_id] = Gate(id=sw_id, kind=GateKind.OR, children=sw_gate.children + (event.id,))

    return FaultTree(top=ft.top, gates=gates, events=events)


# ---------------------------------------------------------------------------
# Subtrees and filtering
# ---------------------------------------------------------------------------


def extract_subtree(ft: FaultTree, gate_id: str) -> FaultTree:
    """New tree rooted at an existing gate; reachable ids are preserved."""
    if gate_id not in ft.gates:
        raise FaultTreeError(f"unknown gate {_shown(gate_id)}")
    return _reachable_tree(gate_id, ft.gates, ft.events)


def filter_events(ft: FaultTree, keep_kinds: Iterable[EventKind]) -> FaultTree:
    """Fix events outside ``keep_kinds`` to FALSE and simplify.

    FALSE children vanish under OR, kill AND branches, and shrink VOTE gates
    (a vote needing more children than remain is FALSE). A top simplified to
    FALSE yields a tree whose root is an empty OR: no cut sets, reported as a
    vacuous top rather than an error.
    """
    wanted = set(keep_kinds)
    if wanted >= {e.kind for e in ft.events.values()}:
        return ft
    # Whether each node survives, decided children first.
    alive = {eid: e.kind in wanted for eid, e in ft.events.items()}
    gates: dict[str, Gate] = {}
    for gate_id in ft.gate_order:
        gate = ft.gates[gate_id]
        kept = tuple(c for c in gate.children if alive[c])
        alive[gate_id] = len(kept) >= gate.threshold
        if alive[gate_id]:
            gates[gate_id] = Gate(*gate._replace(children=kept))

    if not alive[ft.top]:
        # A single-event tree has an event top, which becomes the empty OR.
        top = ft.gates.get(ft.top) or ft.events[ft.top]
        return FaultTree(
            top=ft.top,
            gates={ft.top: Gate(id=ft.top, kind=GateKind.OR, children=(),
                                description=top.description)},
            events={},
        )
    # Drop gates and events no longer reachable (children of killed branches).
    return _reachable_tree(ft.top, gates, ft.events)


# ---------------------------------------------------------------------------
# Exchange formats
# ---------------------------------------------------------------------------


def to_exchange_json(ft: FaultTree) -> str:
    doc = {
        "top": ft.top,
        "gates": [
            {
                "id": g.id,
                "kind": g.kind.value,
                **({"k": g.k} if g.k is not None else {}),
                "children": list(g.children),
                **({"description": g.description} if g.description else {}),
            }
            for _, g in sorted(ft.gates.items())
        ],
        "events": [
            {
                "id": e.id,
                "kind": e.kind.value,
                "subjects": [s.text for s in e.subjects],
                **({"category": e.category} if e.category else {}),
                **({"uca": e.uca_id} if e.uca_id else {}),
                **({"description": e.description} if e.description else {}),
            }
            for _, e in sorted(ft.events.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# How each key of an exchange-document gate or event is read, in the record's field order.
_EXCHANGE_RECORDS = {
    "gates": (Gate, {"id": (_text, _REQUIRED), "kind": (_enum("gate kind", GateKind), _REQUIRED),
                     "children": (_texts, ()), "k": (_integer, None), "description": (_text, None)}),
    "events": (BasicEvent, {"id": (_text, _REQUIRED),
                            "kind": (_enum("event kind", EventKind), _REQUIRED),
                            "subjects": (_node_ids, ()), "description": (_text, ""),
                            "category": (_enum("UCA category", UCA_CATEGORIES), None),
                            "uca": (_text, None)}),
}


def from_exchange_json(data: str | bytes) -> FaultTree:
    """Decode an exchange document; ``bytes`` must be UTF-8. It is read like a model
    (``sysmodel._read``), and the first issue found is raised, located at its path."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    # Not UTF-8, not JSON, an integer too long to convert, or nesting too deep to decode.
    except (ValueError, RecursionError) as exc:
        raise FaultTreeError(f"exchange document is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FaultTreeError("exchange document must be a JSON object")
    issues: list[ModelIssue] = []
    _object(doc, "", ("top", *_EXCHANGE_RECORDS), issues)
    top = _read(doc, {"top": (_text, _REQUIRED)}, "", issues)["top"]
    declared: dict[str, str] = {}  # id -> path of the entry that declares it
    records: dict[str, dict] = {}
    for name, (record, fields) in _EXCHANGE_RECORDS.items():
        records[name] = {}
        for where, entry in _entries(doc.get(name, []), name, fields, issues):
            values = _read(entry, fields, where, issues)
            if values is not None and declared.setdefault(values["id"], where) != where:
                message = f"id {_shown(values['id'])} is already declared at {declared[values['id']]}"
                issues.append(ModelIssue(f"{where}.id", message))
            if not issues:
                records[name][values["id"]] = record(*values.values())
    if issues:
        raise FaultTreeError(str(issues[0]))
    return FaultTree(top=top, **records)

