"""Declarative system model: hierarchical nodes, links, losses/hazards,
control-action declarations, gate declarations, and redundancy groups.

The model is parsed from a versioned JSON document (``resha_model_version``)
and is immutable after validation. Node IDs follow the ``XXnn.nn.nn`` scheme:
a 1-2 character division tag followed by two-digit unit, module, and
component fields.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import reprlib
from collections.abc import Callable, Iterable, Iterator, Mapping, Sized
from enum import Enum
from functools import cached_property, lru_cache
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Any, NamedTuple

MODEL_VERSION = 1

_NODE_ID_RE = re.compile(r"([A-Z][A-Z0-9]?)(\d{2})\.(\d{2})\.(\d{2})")

# Each UCA category letter, and the ``contexts`` key of the phrase that renders it.
UCA_CATEGORIES = {"a": "needed", "b": "unneeded", "c": "timing", "d": "duration"}


class ModelError(Exception):
    """Base class for model parsing and validation failures."""


# Records are named tuples, not dataclasses. Defining one generates a single
# method where a dataclass generates about six, and no record needs the
# ``dataclasses`` module or the ``inspect`` it imports: together these were
# a fifth of CLI start-up. Building a record is one tuple allocation, and
# comparisons and hashes are C tuple operations in field order. Records are
# read-only and compare equal to plain tuples of their fields. A record that
# validates is a named-tuple base plus a subclass whose ``__new__`` runs the
# checks; ``_replace`` skips them, so such records are built by calling the
# class. A record that caches a derived value declares no ``__slots__``, so
# ``cached_property`` has an instance dict to keep it in.
class ModelIssue(NamedTuple):
    """A single validation finding, located by a JSON-path-like string."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class ModelValidationError(ModelError):
    """Raised when a document fails validation; carries every issue found, once."""

    def __init__(self, issues: Iterable[ModelIssue]):
        self.issues = tuple(dict.fromkeys(issues))
        summary = "; ".join(str(i) for i in self.issues[:5])
        extra = f" (+{len(self.issues) - 5} more)" if len(self.issues) > 5 else ""
        super().__init__(f"invalid model: {summary}{extra}")


class NodeIdError(ModelError):
    """Raised for malformed node-ID text."""


class _NodeIdFields(NamedTuple):
    division: str
    unit: int
    module: int
    component: int


class NodeId(_NodeIdFields):
    """Hierarchical node identifier ordered by (division, unit, module, component)."""

    def __str__(self) -> str:
        return self.text

    @cached_property
    def text(self) -> str:
        """Canonical text, validated and rendered on first use only."""
        return format_node_id(self)

    @property
    def structural_depth(self) -> int:
        """1 for a division node, one more per populated lower field."""
        return 1 + bool(self.unit) + bool(self.module) + bool(self.component)

    def parent(self) -> "NodeId | None":
        """Nearest ancestor, obtained by zeroing the lowest populated field."""
        if self.component:
            return NodeId(self.division, self.unit, self.module, 0)
        if self.module:
            return NodeId(self.division, self.unit, 0, 0)
        if self.unit:
            return NodeId(self.division, 0, 0, 0)
        return None


def parse_node_id(text: str) -> NodeId:
    """Parse canonical ``XXnn.nn.nn`` text into a NodeId; the whole text must match."""
    if not isinstance(text, str):
        raise NodeIdError(f"node id must be a string, got {type(text).__name__}")
    return _parse_node_text(text)


@lru_cache(maxsize=4096)
def _parse_node_text(text: str) -> NodeId:
    # A model names each node many times; a failed parse raises and caches nothing.
    # ``\d`` also takes non-ASCII digits, so ``.text`` is rendered from the ints.
    match = _NODE_ID_RE.fullmatch(text)
    if match is None:
        raise NodeIdError(
            f"malformed node id {_shown(text)}: expected a leading 1-2 character division "
            "tag (uppercase letter first) followed by three dot-separated two-digit fields"
        )
    tag, unit, module, component = match.groups()
    return NodeId(tag, int(unit), int(module), int(component))


def format_node_id(node_id: NodeId) -> str:
    """Render a NodeId in canonical zero-padded form, e.g. ``B01.00.00``."""
    for name in ("unit", "module", "component"):
        value = getattr(node_id, name)
        if not 0 <= value <= 99:
            raise NodeIdError(f"{name} field {value} outside 0..99")
    if not _NODE_ID_RE.fullmatch(f"{node_id.division}00.00.00"):
        raise NodeIdError(f"invalid division tag {node_id.division!r}")
    return (
        f"{node_id.division}{node_id.unit:02d}.{node_id.module:02d}.{node_id.component:02d}"
    )


class NodeKind(str, Enum):
    DIVISION = "division"
    UNIT = "unit"
    MODULE = "module"
    COMPONENT = "component"


class Technology(str, Enum):
    DIGITAL = "digital"
    ANALOG = "analog"
    HUMAN = "human"


class LinkType(str, Enum):
    CONTROL = "control"
    FEEDBACK = "feedback"
    PHYSICAL_SPLIT = "physical-split"


def expected_kind(node_id: NodeId) -> NodeKind:
    """Kind implied by which ID fields are populated."""
    if node_id.component:
        return NodeKind.COMPONENT
    if node_id.module:
        return NodeKind.MODULE
    if node_id.unit:
        return NodeKind.UNIT
    return NodeKind.DIVISION


class Node(NamedTuple):
    id: NodeId
    name: str
    kind: NodeKind
    technology: Technology
    role: str = ""
    equipment_class: str | None = None


class Link(NamedTuple):
    source: NodeId
    target: NodeId
    type: LinkType
    layer: int | None = None


class Loss(NamedTuple):
    id: str
    description: str

    @property
    def number(self) -> int:
        return int(self.id[1:])


class Hazard(NamedTuple):
    id: str
    description: str
    losses: tuple[str, ...]

    @property
    def number(self) -> int:
        return int(self.id[1:])


class EquipmentClass(NamedTuple):
    """Metadata for an equipment-class tag used in naming and reporting."""

    tag: str
    prefix: str
    display: str


class ActionSpec(NamedTuple):
    """A declared control action, prior to numbering.

    ``contexts`` holds the phrase fragments used to render each unsafe-variant
    category; ``hazards`` maps category letter to linked hazard IDs;
    ``not_applicable`` maps category letter to a justification overriding the
    default applicability rules. ``layer`` overrides the redundancy layer
    derived from the source node's structural depth.
    """

    source: NodeId
    target: NodeId
    verb: str
    source_label: str
    action_phrase: str
    continuous: bool = False
    split: bool = False
    layer: int | None = None
    contexts: Mapping[str, str | None] = MappingProxyType({})
    hazards: Mapping[str, tuple[str, ...]] = MappingProxyType({})
    not_applicable: Mapping[str, str] = MappingProxyType({})

    def applies(self, category: str) -> bool:
        """Whether UCA ``category`` applies: it is not justified away in
        ``not_applicable``, and ``d`` applies only to a continuous action."""
        return category not in self.not_applicable and (category != "d" or self.continuous)


class GateKind(str, Enum):
    AND = "and"
    OR = "or"
    VOTE = "vote"


class GateChildSpec(NamedTuple):
    """One child reference inside a gate declaration."""

    gate: str | None = None
    fail: str | None = None
    ca_to: str | None = None


class GateSpec(NamedTuple):
    """A declared fault-tree gate, possibly a replication template.

    Templates carry ``replicate`` (``per-division`` or ``per-unit``) and use
    ``$D`` (division tag) and ``$U`` (two-digit unit) tokens in their id and
    child references.
    """

    id: str
    kind: GateKind
    children: tuple[GateChildSpec, ...]
    k: int | None = None
    replicate: str | None = None
    description: str | None = None


class CcfPolicy(NamedTuple):
    """Which common-cause failure scopes and software categories to instantiate."""

    include_intra_division: bool = True
    include_cross_all_divisions: bool = True
    include_partial_interdivision: bool = False
    software_categories: tuple[str, ...] = ("a", "c")

    def changed(self, changes: Mapping[str, Any]) -> CcfPolicy:
        """This policy with the fields ``changes`` names set, read by the
        rules of a model's ``ccf_policy``; ``ModelValidationError`` on any issue."""
        issues: list[ModelIssue] = []
        policy = _parse_policy({**self._asdict(), **changes}, issues)
        if issues:
            raise ModelValidationError(issues)
        return policy


class GroupScope(str, Enum):
    INTRA_DIVISION = "intra-division"
    CROSS_DIVISION = "cross-division"


class RedundancyGroup(NamedTuple):
    """A set of functionally identical nodes sharing an equipment class."""

    equipment: EquipmentClass
    scope: GroupScope
    members: tuple[NodeId, ...]
    division: str | None = None
    software_capable: bool = False


class SystemModel(NamedTuple):
    """Validated, immutable system description."""

    version: int
    nodes: Mapping[str, Node]
    links: tuple[Link, ...]
    losses: tuple[Loss, ...]
    hazards: tuple[Hazard, ...]
    actions: tuple[ActionSpec, ...]
    gates: tuple[GateSpec, ...]
    ccf_policy: CcfPolicy
    classes: Mapping[str, EquipmentClass]
    # The concrete gates ``gates`` declares, by id: templates expanded, node
    # references in canonical text, every reference known to exist, no cycles.
    resolved_gates: Mapping[str, GateSpec]

    def node(self, node_id: NodeId | str) -> Node:
        key = node_id if isinstance(node_id, str) else node_id.text
        return self.nodes[key]

    def division_tags(self) -> tuple[str, ...]:
        return tuple(
            sorted({n.id.division for n in self.nodes.values() if n.kind is NodeKind.DIVISION})
        )

    def class_prefix(self, tag: str | None) -> str:
        if tag is None:
            return "NODE"
        return self.classes[tag].prefix

    def feedback_links(self) -> tuple[Link, ...]:
        return tuple(l for l in self.links if l.type is LinkType.FEEDBACK)

    def to_document(self) -> dict[str, Any]:
        """Canonical document form: arrays sorted by ID, stable key order."""
        doc = {}
        for name, value in zip(self._fields, self):
            if name == "resolved_gates":
                continue
            if isinstance(value, Mapping):  # nodes and classes, by id
                value = [value[key] for key in sorted(value)]
            elif name in _ARRAY_ORDER:
                value = sorted(value, key=_ARRAY_ORDER[name])
            doc[_DOCUMENT_NAMES.get(name, name)] = _document(value)
        return doc

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_document(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Every record's JSON keys are its field names; only these SystemModel fields
# take another name in the document.
_DOCUMENT_NAMES = {
    "version": "resha_model_version",
    "actions": "control_actions",
    "classes": "equipment_classes",
}
_TOP_LEVEL_KEYS = {_DOCUMENT_NAMES.get(f, f) for f in SystemModel._fields if f != "resolved_gates"}

_SHOWN_LIMIT = 100
_REPR = reprlib.Repr()
_REPR.maxstring = _REPR.maxother = _SHOWN_LIMIT


def _shown(value: Any) -> str:
    """``repr(value)`` in at most ``_SHOWN_LIMIT`` characters, for an issue text.

    Six levels of nesting and six items of an array are shown, and long
    strings are cut in the middle, so an issue stays one short line however
    large the offending value in the input is.
    """
    text = _REPR.repr(value)
    return text if len(text) <= _SHOWN_LIMIT else text[: _SHOWN_LIMIT - 3] + "..."


def _shown_name(name: Any) -> str:
    """A key or an id as written, or through ``_shown`` when it is too long."""
    text = str(name)
    return text if len(text) <= _SHOWN_LIMIT else _shown(name)


def _csv_text(header: Iterable[Any], rows: Iterable[Iterable[Any]]) -> str:
    """The CSV text of every artifact table: ``header``, then ``rows``, each ended by LF."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class _Invalid(Exception):
    """A value of the wrong type or range for its field, which keeps its default."""


class _Unknown(Exception):
    """A value outside a field's choices; the entry is rejected."""


def _text(value: Any) -> str:
    if not isinstance(value, str):
        raise _Invalid("must be a string")
    return value


def _flag(value: Any) -> bool:
    if not isinstance(value, bool):
        raise _Invalid("must be true or false")
    return value


def _layer(value: Any) -> int:
    if type(value) is not int or value < 1:  # JSON true is not the integer 1
        raise _Invalid("layer must be an integer >= 1")
    return value


def _integer(value: Any) -> int:
    if type(value) is not int:
        raise _Invalid("must be an integer")
    return value


def _texts(value: Any) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise _Invalid("must be an array of strings")
    return tuple(value)


def _node_id(value: Any) -> NodeId:
    return parse_node_id("" if value is None else value)  # an absent id is the empty text


def _node_ids(value: Any) -> tuple[NodeId, ...]:
    if not isinstance(value, list):
        raise _Invalid("must be an array of node ids")
    return tuple(map(parse_node_id, value))


def _enum(label: str, choices: Iterable[Any]) -> Callable[[Any], Any]:
    """A reader that takes one of ``choices``, enum members or strings, by its text."""
    by_text = {getattr(choice, "value", choice): choice for choice in choices}

    def read(value: Any) -> Any:
        try:
            return by_text[value]
        except (KeyError, TypeError):  # an array or an object is unhashable
            message = f"missing {label}" if value is None else f"unknown {label} {_shown(value)}"
            raise _Unknown(message) from None

    return read


# How each field of a record is read: its reader and the value an absent or
# null field takes. A _REQUIRED field goes to its reader as None. Fields not
# listed are read by the record's own rules below.
_REQUIRED = object()
_NODE_FIELDS = {
    "id": (_node_id, _REQUIRED),
    "name": (_text, None),  # None: the node id
    "kind": (_enum("kind", NodeKind), _REQUIRED),
    "technology": (_enum("technology", Technology), Technology.DIGITAL),
    "role": (_text, ""),
    "equipment_class": (_text, None),
}
_ENDS = {"source": (_node_id, _REQUIRED), "target": (_node_id, _REQUIRED)}  # of an edge
_LINK_FIELDS = {
    **_ENDS,
    "type": (_enum("link type", LinkType), _REQUIRED),
    "layer": (_layer, None),
}
_DESCRIPTION_FIELDS = {"description": (_text, "")}  # losses and hazards
_ACTION_FIELDS = {
    **_ENDS,
    "verb": (_text, ""),
    "source_label": (_text, None),  # None: the source node id
    "action_phrase": (_text, ""),
    "continuous": (_flag, False),
    "split": (_flag, False),
    "layer": (_layer, None),
}
_CONTEXT_FIELDS = {key: (_text, None) for key in sorted(UCA_CATEGORIES.values())}
_CATEGORY_TEXTS = {category: (_text, None) for category in UCA_CATEGORIES}
_GATE_FIELDS = {
    "kind": (_enum("gate kind", GateKind), _REQUIRED),
    "replicate": (_enum("macro", ("per-division", "per-unit")), None),
    "description": (_text, None),
}
_POLICY_FLAGS = {
    name: (_flag, default)
    for name, default in CcfPolicy._field_defaults.items()
    if name != "software_categories"
}


def _read(
    entry: Mapping[str, Any],
    fields: Mapping[str, tuple[Callable[[Any], Any], Any]],
    where: str,
    issues: list[ModelIssue],
) -> dict[str, Any] | None:
    """Each of ``fields`` read from ``entry``, or None when the entry is rejected.

    A value of the wrong type or range (``_Invalid``) is one issue, and the
    field takes its default. The first choice or node id that its reader
    refuses is one issue and rejects the entry, which is not read further.
    The two ends of a link or an action name one edge, so their issue is
    located at the entry.
    """
    values: dict[str, Any] = {}
    for key, (read, default) in fields.items():
        value = entry.get(key)
        if value is None and default is not _REQUIRED:
            values[key] = default
            continue
        try:
            values[key] = read(value)
        except _Invalid as exc:
            issues.append(ModelIssue(_at(where, key), str(exc)))
            values[key] = default
        except (_Unknown, NodeIdError) as exc:
            issues.append(ModelIssue(where if key in _ENDS else _at(where, key), str(exc)))
            return None
    return values


def _at(where: str, key: str) -> str:
    """The path of ``key`` in the object at ``where``; ``""`` is the document itself."""
    return f"{where}.{key}" if where else key


def parse_system_model(source: str | Path | Mapping[str, Any]) -> SystemModel:
    """Parse and fully validate a model document.

    Accepts a path to a JSON file or an already-decoded mapping. Collects all
    validation issues before raising, so one run reports every problem.
    """
    if isinstance(source, Mapping):
        doc: Any = source
    else:
        path = Path(source)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ModelValidationError(
                [ModelIssue(f"{path}:{exc.lineno}:{exc.colno}", f"syntax error: {exc.msg}")]
            ) from exc
        # Bytes that are not UTF-8, an integer too long to convert, nesting too deep to decode.
        except (ValueError, RecursionError) as exc:
            raise ModelValidationError([ModelIssue(str(path), f"cannot decode: {exc}")]) from None

    if not isinstance(doc, Mapping):
        raise ModelValidationError([ModelIssue("$", "document must be a JSON object")])

    issues: list[ModelIssue] = []
    _object(doc, "", _TOP_LEVEL_KEYS, issues)
    version = doc.get("resha_model_version")
    if type(version) is not int or version != MODEL_VERSION:  # JSON true and 1.0 are not 1
        issues.append(
            ModelIssue("resha_model_version", f"expected {MODEL_VERSION}, got {_shown(version)}")
        )

    classes = _parse_classes(doc.get("equipment_classes", []), issues)
    raw_nodes, raw_gates = doc.get("nodes", []), doc.get("gates", [])
    nodes = _parse_nodes(raw_nodes, classes, issues)
    # A rejected entry or a missing parent is one fault, so the references
    # to it go unchecked rather than each reporting it again.
    declared = nodes if _all_accepted(raw_nodes, nodes) and _nested(raw_nodes, nodes, issues) else None
    links = _parse_links(doc.get("links", []), declared, issues)
    losses = _parse_losses(doc.get("losses", []), issues)
    hazards = _parse_hazards(doc.get("hazards", []), losses, issues)
    actions = _parse_actions(doc.get("control_actions", []), declared, links, hazards, issues)
    gates = _parse_gates(raw_gates, issues)
    resolved = (
        _resolve_gates(gates, declared, issues)
        if declared is not None and _all_accepted(raw_gates, gates)
        else {}
    )
    policy = _parse_policy(doc.get("ccf_policy", {}), issues)

    if issues:
        raise ModelValidationError(issues)

    return SystemModel(
        version=MODEL_VERSION,
        nodes=nodes,
        links=links,
        losses=losses,
        hazards=hazards,
        actions=actions,
        gates=gates,
        ccf_policy=policy,
        classes=classes,
        resolved_gates=resolved,
    )


def _all_accepted(raw: Any, parsed: Sized) -> bool:
    """Whether every entry of the array ``raw`` made it into ``parsed``."""
    return isinstance(raw, list) and len(parsed) == len(raw)


def _object(
    raw: Any, where: str, keys: Iterable[str], issues: list[ModelIssue], unknown: str = "unknown field"
) -> Mapping[str, Any] | None:
    """``raw`` if it is an object, each key outside ``keys`` reported as
    ``unknown``; otherwise one issue and None. ``where`` is ``""`` for the
    document itself."""
    if not isinstance(raw, Mapping):
        issues.append(ModelIssue(where, "must be an object"))
        return None
    for key in raw:
        if key not in keys:
            issues.append(ModelIssue(_at(where, _shown_name(key)), unknown))
    return raw


def _entries(
    raw: Any, name: str, keys: Iterable[str], issues: list[ModelIssue]
) -> Iterator[tuple[str, Mapping[str, Any]]]:
    """``(path, entry)`` for each object entry of the array ``raw`` at ``name``.

    A non-array is one issue and yields nothing; an entry that is not an
    object is one issue and is skipped; unknown keys are reported.
    """
    if not isinstance(raw, list):
        issues.append(ModelIssue(name, "must be an array"))
        return
    keys = frozenset(keys)
    for i, entry in enumerate(raw):
        where = f"{name}[{i}]"
        if _object(entry, where, keys, issues) is not None:
            yield where, entry


def _ends_declared(fields: Mapping[str, Any], nodes: Mapping[str, Node] | None, where: str,
                   message: str, issues: list[ModelIssue]) -> bool:
    """Whether both ends of a link or an action are declared nodes; each
    that is not is one issue. Always true while ``nodes`` is unchecked."""
    declared = True
    for end in ("source", "target"):
        node_id = fields[end]
        if nodes is not None and node_id.text not in nodes:
            issues.append(ModelIssue(f"{where}.{end}", f"{message} {node_id.text}"))
            declared = False
    return declared


def _parse_classes(raw: Any, issues: list[ModelIssue]) -> dict[str, EquipmentClass]:
    classes: dict[str, EquipmentClass] = {}
    holders: dict[str, str] = {}  # prefix -> tag of the first class with it
    for where, entry in _entries(raw, "equipment_classes", EquipmentClass._fields, issues):
        tag = entry.get("tag")
        if not isinstance(tag, str) or not tag:
            issues.append(ModelIssue(where, "missing class tag"))
            continue
        if tag in classes:
            issues.append(ModelIssue(where, f"duplicate equipment class {_shown(tag)}"))
            continue
        fields = {"prefix": (_text, tag.upper()), "display": (_text, tag)}  # defaults from the tag
        classes[tag] = EquipmentClass(tag, **_read(entry, fields, where, issues))
        prefix = classes[tag].prefix
        # Every event name is ``<prefix>-<rest>``, where ``<rest>`` starts with HD-, SF-, HF- or
        # DIV. So two classes build one name only when their prefixes are equal, or when one
        # is the other followed by ``-DIV``: there the other puts its division tags.
        holder = holders.setdefault(prefix, tag)
        if holder != tag:
            message = f"prefix {_shown(prefix)} is already used by class {_shown(holder)}"
            issues.append(ModelIssue(f"{where}.prefix", message))
        for other, other_tag in holders.items():
            if prefix.startswith(f"{other}-DIV") or other.startswith(f"{prefix}-DIV"):
                message = f"prefix {_shown(prefix)} can build the CCF names of class {_shown(other_tag)}"
                issues.append(ModelIssue(f"{where}.prefix", f"{message} (prefix {_shown(other)})"))
    return classes


def _parse_nodes(
    raw: Any, classes: Mapping[str, EquipmentClass], issues: list[ModelIssue]
) -> dict[str, Node]:
    nodes: dict[str, Node] = {}
    members: dict[str, dict[str, str]] = {}  # class -> division tag -> path of its first member
    for where, entry in _entries(raw, "nodes", Node._fields, issues):
        fields = _read(entry, _NODE_FIELDS, where, issues)
        if fields is None:
            continue
        node = Node(**fields)
        implied = expected_kind(node.id)
        if node.kind is not implied:
            issues.append(
                ModelIssue(
                    f"{where}.kind",
                    f"kind {_shown(node.kind.value)} inconsistent with id {node.id.text} "
                    f"(id implies {_shown(implied.value)})",
                )
            )
        # Whether a class is given at all; one that is not a string is already reported.
        has_class = entry.get("equipment_class") is not None
        if node.kind is NodeKind.COMPONENT and not has_class:
            issues.append(ModelIssue(f"{where}.equipment_class", "components require an equipment class"))
        if node.kind in (NodeKind.DIVISION, NodeKind.UNIT) and has_class:
            message = f"{node.kind.value} nodes may not carry an equipment class"
            issues.append(ModelIssue(f"{where}.equipment_class", message))
        if node.equipment_class is not None and node.equipment_class not in classes:
            message = f"undeclared equipment class {_shown(node.equipment_class)}"
            issues.append(ModelIssue(f"{where}.equipment_class", message))
        if node.id.text in nodes:
            issues.append(ModelIssue(f"{where}.id", f"duplicate node id {node.id.text}"))
            continue
        nodes[node.id.text] = node if node.name is not None else node._replace(name=node.id.text)
        if node.equipment_class is not None:
            members.setdefault(node.equipment_class, {}).setdefault(node.id.division, where)
    # Partial CCF names join a class's division tags without a separator, so they decode
    # one way only while no tag starts another: with A, AB, BC and C, {A, BC} and {AB, C}
    # are both DIVABC. The rule is per class, as each class builds its own names. A tag
    # has one or two characters, so the one tag that can start ``division`` is its first.
    for tag, divisions in members.items():
        for division, where in divisions.items():
            if division[:-1] in divisions:
                message = (f"division {division} starts with division {division[:-1]}, which "
                           f"also holds class {_shown(tag)}: their CCF names can collide")
                issues.append(ModelIssue(f"{where}.equipment_class", message))
    return dict(sorted(nodes.items()))


def _nested(raw: list[Any], nodes: Mapping[str, Node], issues: list[ModelIssue]) -> bool:
    """Report each missing parent once, at the id of its first child; whether
    none is missing. Expects every entry of ``raw`` accepted into ``nodes``."""
    missing: dict[str, str] = {}  # parent text -> first child text
    ids = {node.id for node in nodes.values()}  # no parent's text is rendered unless missing
    for node in nodes.values():
        parent = node.id.parent()
        if parent is not None and parent not in ids:
            missing.setdefault(parent.text, node.id.text)
    if missing:
        index = {parse_node_id(entry["id"]).text: i for i, entry in enumerate(raw)}
        for parent, child in missing.items():
            message = f"missing parent node {parent} (hierarchy must nest)"
            issues.append(ModelIssue(f"nodes[{index[child]}].id", message))
    return not missing


def _link_order(link: Link) -> tuple[str, NodeId, NodeId]:
    return link.type.value, link.source, link.target


def _parse_links(
    raw: Any, nodes: Mapping[str, Node] | None, issues: list[ModelIssue]
) -> tuple[Link, ...]:
    links: list[Link] = []
    for where, entry in _entries(raw, "links", Link._fields, issues):
        fields = _read(entry, _LINK_FIELDS, where, issues)
        # A link whose layer is refused still counts for the actions declared on it.
        if fields is not None and _ends_declared(fields, nodes, where, "dangling link: no node", issues):
            links.append(Link(**fields))
    links.sort(key=_link_order)
    return tuple(links)


def _numbered(
    raw: Any, name: str, what: str, keys: Iterable[str], issues: list[ModelIssue]
) -> Iterator[tuple[str, Mapping[str, Any], str]]:
    """``(path, entry, id)`` for each entry of the losses or hazards ``raw``
    whose id is well formed (``L1``, ``H1``, ...) and not seen before."""
    letter = what[0].upper()
    seen: set[str] = set()
    for where, entry in _entries(raw, name, keys, issues):
        entry_id = entry.get("id", "")
        if not isinstance(entry_id, str) or not re.fullmatch(rf"{letter}[1-9]\d*", entry_id):
            message = f"{what} id must look like {letter}1, got {_shown(entry_id)}"
            issues.append(ModelIssue(f"{where}.id", message))
        elif entry_id in seen:
            issues.append(ModelIssue(f"{where}.id", f"duplicate {what} id {entry_id}"))
        else:
            seen.add(entry_id)
            yield where, entry, entry_id


def _parse_losses(raw: Any, issues: list[ModelIssue]) -> tuple[Loss, ...]:
    losses = [
        Loss(loss_id, **_read(entry, _DESCRIPTION_FIELDS, where, issues))
        for where, entry, loss_id in _numbered(raw, "losses", "loss", Loss._fields, issues)
    ]
    losses.sort(key=lambda l: l.number)
    if [l.number for l in losses] != list(range(1, len(losses) + 1)):
        issues.append(ModelIssue("losses", "loss ids must be contiguous from L1"))
    return tuple(losses)


def _parse_hazards(
    raw: Any, losses: tuple[Loss, ...], issues: list[ModelIssue]
) -> tuple[Hazard, ...]:
    hazards: list[Hazard] = []
    loss_ids = {l.id for l in losses}
    for where, entry, hazard_id in _numbered(raw, "hazards", "hazard", Hazard._fields, issues):
        linked = entry.get("losses", [])
        if not isinstance(linked, list) or not linked:
            issues.append(ModelIssue(f"{where}.losses", "hazards must link at least one loss"))
            linked = []
        for loss_id in linked:
            if not isinstance(loss_id, str) or loss_id not in loss_ids:
                issues.append(ModelIssue(f"{where}.losses", f"unknown loss {_shown(loss_id)}"))
        fields = _read(entry, _DESCRIPTION_FIELDS, where, issues)
        hazards.append(Hazard(hazard_id, fields["description"], tuple(linked)))
    hazards.sort(key=lambda h: h.number)
    return tuple(hazards)


def _categories(raw: Any, where: str, issues: list[ModelIssue]) -> Mapping[str, Any]:
    """``raw`` if it is an object, else empty; each key that is no UCA category is reported."""
    return _object(raw, where, UCA_CATEGORIES, issues, "unknown category") or {}


def _parse_actions(
    raw: Any,
    nodes: Mapping[str, Node] | None,
    links: tuple[Link, ...],
    hazards: tuple[Hazard, ...],
    issues: list[ModelIssue],
) -> tuple[ActionSpec, ...]:
    actions: list[ActionSpec] = []
    control_edges = {(l.source, l.target) for l in links if l.type is LinkType.CONTROL}
    hazard_ids = {h.id for h in hazards}
    for where, entry in _entries(raw, "control_actions", ActionSpec._fields, issues):
        fields = _read(entry, _ACTION_FIELDS, where, issues)
        if fields is None:
            continue
        source, target = fields["source"], fields["target"]
        if fields["source_label"] is None:
            fields["source_label"] = source.text
        if _ends_declared(fields, nodes, where, "no node", issues) and (source, target) not in control_edges:
            issues.append(ModelIssue(where, f"no control link {source.text} -> {target.text} declared"))
        given = _object(entry.get("contexts", {}), f"{where}.contexts", _CONTEXT_FIELDS, issues)
        contexts = _read(given or {}, _CONTEXT_FIELDS, f"{where}.contexts", issues)
        hazard_map: dict[str, tuple[str, ...]] = {}
        raw_hazards = entry.get("hazards", {})
        by_category = _categories(raw_hazards, f"{where}.hazards", issues)
        for category, linked in by_category.items():
            if category not in UCA_CATEGORIES:
                continue
            if not isinstance(linked, list):
                issues.append(ModelIssue(f"{where}.hazards.{category}", "must be an array"))
                continue
            for h in linked:
                if not isinstance(h, str) or h not in hazard_ids:
                    issues.append(ModelIssue(f"{where}.hazards.{category}", f"unknown hazard {_shown(h)}"))
            hazard_map[category] = tuple(linked)
        justified = _categories(entry.get("not_applicable", {}), f"{where}.not_applicable", issues)
        texts = _read(justified, _CATEGORY_TEXTS, f"{where}.not_applicable", issues)
        action = ActionSpec(
            **fields,
            contexts=contexts,
            hazards=hazard_map,
            not_applicable={c: text for c, text in texts.items() if text is not None},
        )
        # A ``hazards`` that is not an object, or an entry that is not an array, is already reported.
        if isinstance(raw_hazards, Mapping):
            for category in UCA_CATEGORIES:
                if action.applies(category) and by_category.get(category, []) == []:
                    message = "category is applicable but links no hazards"
                    issues.append(ModelIssue(f"{where}.hazards.{category}", message))
        actions.append(action)
    return tuple(actions)


def _parse_gates(raw: Any, issues: list[ModelIssue]) -> tuple[GateSpec, ...]:
    gates: list[GateSpec] = []
    seen: set[str] = set()
    for where, entry in _entries(raw, "gates", GateSpec._fields, issues):
        # An unknown key may be a misspelt known one, so the entry is not read further.
        if entry.keys() - GateSpec._fields:
            continue
        gate_id = entry.get("id")
        if not isinstance(gate_id, str) or not gate_id:
            issues.append(ModelIssue(f"{where}.id", "missing gate id"))
            continue
        if gate_id in seen:
            issues.append(ModelIssue(f"{where}.id", f"duplicate gate id {_shown(gate_id)}"))
            continue
        seen.add(gate_id)
        fields = _read(entry, _GATE_FIELDS, where, issues)
        if fields is None:
            continue
        k = entry.get("k")
        if fields["kind"] is GateKind.VOTE:
            if type(k) is not int or k < 1:
                issues.append(ModelIssue(f"{where}.k", "vote gates need integer k >= 1"))
                continue
        elif k is not None:
            issues.append(ModelIssue(f"{where}.k", "k only applies to vote gates"))
        children_raw = entry.get("children", [])
        if not isinstance(children_raw, list) or not children_raw:
            issues.append(ModelIssue(f"{where}.children", "gates need at least one child"))
            continue
        children: list[GateChildSpec] = []
        for cwhere, child in _entries(children_raw, f"{where}.children", GateChildSpec._fields, issues):
            if child.keys() - GateChildSpec._fields:
                continue
            malformed = [
                key for key in GateChildSpec._fields
                if child.get(key) is not None and not (isinstance(child[key], str) and child[key])
            ]
            for key in malformed:
                issues.append(ModelIssue(f"{cwhere}.{key}", "must be a non-empty string"))
            if malformed:
                continue
            spec = GateChildSpec(**child)
            if (spec.gate is None) == (spec.fail is None):
                issues.append(ModelIssue(cwhere, "child must reference exactly one of gate/fail"))
            elif spec.ca_to is not None and spec.fail is None:
                issues.append(ModelIssue(cwhere, "ca_to only applies to fail references"))
            else:
                children.append(spec)
        if len(children) < len(children_raw):
            continue
        if fields["kind"] is GateKind.VOTE and k > len(children):
            issues.append(ModelIssue(f"{where}.k", f"k={_shown(k)} exceeds {len(children)} children"))
            continue
        gates.append(GateSpec(gate_id, children=tuple(children), k=k, **fields))
    return tuple(gates)


def _resolve_gates(
    gates: tuple[GateSpec, ...], nodes: Mapping[str, Node], issues: list[ModelIssue]
) -> dict[str, GateSpec]:
    """The concrete gate declarations by id, in declaration order.

    Expects every ``gates`` entry accepted, so ``gates[i]`` is the document's
    ``gates[i]``. A template is copied for each division or unit in which
    every node it references exists and every gate it references is kept.
    A bad reference in a plain declaration, a template without copies, an id
    declared twice and a declaration cycle are each reported once.
    """
    # A plain declaration is its own single copy, with nothing to substitute.
    contexts: dict[str | None, list[dict[str, str]]] = {
        None: [{}], "per-division": [], "per-unit": []
    }
    for node in nodes.values():  # in text order
        if node.kind is NodeKind.DIVISION:
            contexts["per-division"].append({"$D": node.id.division})
        elif node.kind is NodeKind.UNIT:
            contexts["per-unit"].append({"$D": node.id.division, "$U": f"{node.id.unit:02d}"})

    by_id: dict[str, tuple[int, GateSpec]] = {}  # id -> (declaration index, declaration)
    for i, spec in enumerate(gates):
        where = f"gates[{i}]" if spec.replicate is None else None
        for context in contexts[spec.replicate]:
            gate = _concrete_gate(spec, context, nodes, where, issues)
            if gate is None:
                continue
            if gate.id in by_id:
                message = f"gate id {_shown(gate.id)} expands more than once"
                issues.append(ModelIssue(f"gates[{i}].id", message))
            else:
                by_id[gate.id] = (i, gate)

    # Children first, so that a copy is kept once every gate it names is; a
    # plain declaration is always kept. Iterative, so any depth of nesting works.
    kept: dict[str, bool] = {}
    for root in by_id:
        if root in kept:
            continue
        path, on_path, stack = [root], {root}, [iter(by_id[root][1].children)]
        while stack:
            for child in stack[-1]:
                if child.gate in on_path:
                    cycle = " -> ".join(path[path.index(child.gate):] + [child.gate])
                    message = f"cycle detected in gate declarations: {cycle}"
                    issues.append(ModelIssue(f"gates[{by_id[child.gate][0]}]", message))
                elif child.gate in by_id and child.gate not in kept:
                    path.append(child.gate)
                    on_path.add(child.gate)
                    stack.append(iter(by_id[child.gate][1].children))
                    break
            else:
                stack.pop()
                on_path.discard(path[-1])
                i, gate = by_id[path.pop()]
                kept[gate.id] = gates[i].replicate is None or all(
                    c.gate is None or kept.get(c.gate, False) for c in gate.children
                )

    # A template left without copies strands every gate that names them, so
    # it is reported once, at the first template of the chain.
    copied = {i for i, gate in by_id.values() if kept[gate.id]}
    empty = [i for i in range(len(gates)) if i not in copied]
    stranded = {gates[i].id for i in empty}
    for i in [i for i in empty if all(c.gate not in stranded for c in gates[i].children)] or empty:
        message = f"replicated gate {_shown(gates[i].id)} instantiates for no division/unit"
        issues.append(ModelIssue(f"gates[{i}]", f"{message}: a node or gate it references is absent"))
    # Only a plain declaration can name an unknown gate (a copy that does is
    # not kept); its unknown names are one line, at the first of them.
    resolved = {gate_id: gate for gate_id, (_, gate) in by_id.items() if kept[gate_id]}
    for gate_id, gate in resolved.items():
        unknown = [
            j for j, c in enumerate(gate.children) if c.gate is not None and c.gate not in resolved
        ]
        if unknown and not empty:
            names = list(dict.fromkeys(_shown(gate.children[j].gate) for j in unknown))
            where = f"gates[{by_id[gate_id][0]}].children[{unknown[0]}].gate"
            message = f"unknown gate{'s' * (len(names) > 1)} {', '.join(names)}"
            issues.append(ModelIssue(where, message))
    return resolved


def _concrete_gate(
    spec: GateSpec,
    context: Mapping[str, str],
    nodes: Mapping[str, Node],
    where: str | None,
    issues: list[ModelIssue],
) -> GateSpec | None:
    """``spec`` with the tokens of ``context`` substituted and node references
    in canonical text. A template copy (no ``where``) that references no node
    is None; a plain declaration reports each such reference and is kept."""

    def sub(text: str) -> str:
        for token, value in context.items():
            text = text.replace(token, value)
        return text

    children: list[GateChildSpec] = []
    for j, child in enumerate(spec.children):
        refs: dict[str, str] = {}
        for key in ("fail", "ca_to"):
            ref = getattr(child, key)
            if ref is None:
                continue
            try:
                node_id = parse_node_id(sub(ref))
            except NodeIdError as exc:
                message = str(exc)
            else:
                if node_id.text in nodes:
                    refs[key] = node_id.text
                    continue
                message = f"no node {node_id.text}"
            if where is None:
                return None
            issues.append(ModelIssue(f"{where}.children[{j}].{key}", message))
        children.append(GateChildSpec(gate=child.gate and sub(child.gate), **refs))
    return GateSpec(
        id=sub(spec.id),
        kind=spec.kind,
        children=tuple(children),
        k=spec.k,
        description=spec.description and sub(spec.description),
    )


def _parse_policy(raw: Any, issues: list[ModelIssue]) -> CcfPolicy:
    if _object(raw, "ccf_policy", CcfPolicy._fields, issues) is None:
        return CcfPolicy()
    categories = raw.get("software_categories", list(CcfPolicy._field_defaults["software_categories"]))
    # Only strings are looked up in the category table; a list or an object there would raise.
    # A tuple comes only from a library caller; JSON gives lists.
    strings = isinstance(categories, (list, tuple)) and all(isinstance(c, str) for c in categories)
    if not strings or any(c not in UCA_CATEGORIES for c in categories):
        message = f"categories must be from {'/'.join(UCA_CATEGORIES)}"
        issues.append(ModelIssue("ccf_policy.software_categories", message))
        categories = CcfPolicy._field_defaults["software_categories"]
    elif len(set(categories)) < len(categories):  # each would name its CCF events twice
        issues.append(ModelIssue("ccf_policy.software_categories", "categories must not repeat"))
    flags = _read(raw, _POLICY_FLAGS, "ccf_policy", issues)
    policy = CcfPolicy(**flags, software_categories=tuple(categories))
    if not any(getattr(policy, flag) for flag in _POLICY_FLAGS):
        issues.append(ModelIssue("ccf_policy", "at least one CCF scope must be enabled"))
    return policy


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

# Fields written even at their record default. Every other field whose value
# equals its record default is left out of the canonical document.
_ALWAYS_WRITTEN = {
    ActionSpec: ("continuous", "split", "contexts", "hazards"),
    CcfPolicy: CcfPolicy._fields,
}
# Sort keys of the SystemModel arrays held as tuples. Losses and hazards are
# held by number; nodes and classes are mappings, written by id.
_ARRAY_ORDER = {
    "links": _link_order,
    "actions": lambda a: (a.layer or 0, a.source, a.target),
    "gates": lambda g: g.id,
}


_WRITTEN = object()  # the default of a field that is written whatever its value


def _texts_by_key(texts: Mapping[str, str | None]) -> dict[str, str]:
    """Contexts and justifications by category; a context without text is left out."""
    return {key: text for key, text in sorted(texts.items()) if text is not None}


def _ids_by_key(ids: Mapping[str, tuple[str, ...]]) -> dict[str, list[str]]:
    return {key: list(linked) for key, linked in sorted(ids.items())}


def _gate_children(children: tuple[GateChildSpec, ...]) -> list[dict[str, str]]:
    return list(map(_writer(GateChildSpec), children))


# ``_value_`` is the member's value without the ``value`` property's descriptor call.
_NODE_TEXT, _ENUM_VALUE = attrgetter("text"), attrgetter("_value_")
# How each field that is not a JSON scalar is written; every other field is
# written as it is held.
_CONVERTERS = {
    Node: {"id": _NODE_TEXT, "kind": _ENUM_VALUE, "technology": _ENUM_VALUE},
    Link: {"source": _NODE_TEXT, "target": _NODE_TEXT, "type": _ENUM_VALUE},
    Hazard: {"losses": list},
    ActionSpec: {"source": _NODE_TEXT, "target": _NODE_TEXT, "contexts": _texts_by_key,
                 "hazards": _ids_by_key, "not_applicable": _texts_by_key},
    GateSpec: {"kind": _ENUM_VALUE, "children": _gate_children},
    CcfPolicy: {"software_categories": list},
}


@lru_cache(maxsize=None)
def _writer(record: type) -> Callable[[Any], dict[str, Any]]:
    """The canonical writer of ``record``, planned once from ``_ALWAYS_WRITTEN``,
    ``_CONVERTERS`` and the record's defaults.

    Its fields are written in field order, each through its converter; a
    value equal to the field's default is left out.
    """
    always, defaults = _ALWAYS_WRITTEN.get(record, ()), record._field_defaults
    converters = _CONVERTERS.get(record, {})
    plan = tuple(
        (key, _WRITTEN if key in always else defaults.get(key, _WRITTEN), converters.get(key))
        for key in record._fields
    )

    def write(value: Any) -> dict[str, Any]:
        return {
            key: item if convert is None else convert(item)
            for (key, default, convert), item in zip(plan, value)
            if default is _WRITTEN or item != default
        }

    return write


def _document(value: Any) -> Any:
    """The canonical JSON form of a SystemModel field: the version, a record or records."""
    if type(value) is int:
        return value
    if hasattr(value, "_fields"):
        return _writer(type(value))(value)
    return [_writer(type(record))(record) for record in value]


# ---------------------------------------------------------------------------
# Redundancy groups
# ---------------------------------------------------------------------------


def derive_redundancy_groups(m: SystemModel) -> tuple[RedundancyGroup, ...]:
    """Derive intra-division and cross-division redundancy groups.

    One intra-division group forms per (division, class) with at least two
    class members; one cross-division group forms per class present in at
    least two divisions, spanning every division that contains the class.
    Output is deterministic: groups sort by (class, scope, division) and
    members by node ID.
    """
    by_class: dict[str, list[Node]] = {}
    for node in m.nodes.values():
        if node.equipment_class is not None and node.kind in (
            NodeKind.COMPONENT,
            NodeKind.MODULE,
        ):
            by_class.setdefault(node.equipment_class, []).append(node)

    groups: list[RedundancyGroup] = []
    for tag in sorted(by_class):
        members = sorted(by_class[tag], key=lambda n: n.id)
        by_division: dict[str, list[Node]] = {}
        for node in members:
            by_division.setdefault(node.id.division, []).append(node)
        scopes = [
            (GroupScope.INTRA_DIVISION, division, local)
            for division, local in sorted(by_division.items())
            if len(local) >= 2
        ]
        if len(by_division) >= 2:
            scopes.append((GroupScope.CROSS_DIVISION, None, members))
        software = all(n.technology is Technology.DIGITAL for n in members)
        for scope, division, group in scopes:
            groups.append(
                RedundancyGroup(
                    equipment=m.classes[tag],
                    scope=scope,
                    division=division,
                    members=tuple(n.id for n in group),
                    software_capable=software,
                )
            )
    groups.sort(key=lambda g: (g.equipment.tag, g.scope.value, g.division or ""))
    return tuple(groups)
