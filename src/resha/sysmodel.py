"""Declarative system model: hierarchical nodes, links, losses/hazards,
control-action declarations, gate declarations, and redundancy groups.

The model is parsed from a versioned JSON document (``resha_model_version``)
and is immutable after validation. Node IDs follow the ``XXnn.nn.nn`` scheme:
a 1-2 character division tag followed by two-digit unit, module, and
component fields.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Iterable, Iterator, Mapping, Sized
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Any, NamedTuple

MODEL_VERSION = 1

_NODE_ID_RE = re.compile(r"([A-Z][A-Z0-9]?)(\d{2})\.(\d{2})\.(\d{2})")

UCA_CATEGORIES = ("a", "b", "c", "d")


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
        if self.component:
            if self.module:
                return 4
            if self.unit:
                return 3
            return 2
        if self.module:
            return 3 if self.unit else 2
        if self.unit:
            return 2
        return 1

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
            f"malformed node id {text!r}: expected a leading 1-2 character division "
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

    def context(self, key: str) -> str | None:
        return self.contexts.get(key)


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
    kind: str
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


class GroupScope(str, Enum):
    INTRA_DIVISION = "intra-division"
    CROSS_DIVISION = "cross-division"


class RedundancyGroup(NamedTuple):
    """A set of functionally identical nodes sharing an equipment class."""

    class_tag: str
    prefix: str
    display: str
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
        return _model_to_document(self)

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_document(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOP_LEVEL_KEYS = {
    "resha_model_version",
    "nodes",
    "links",
    "losses",
    "hazards",
    "control_actions",
    "gates",
    "ccf_policy",
    "equipment_classes",
}

_NODE_KEYS = {"id", "name", "kind", "technology", "role", "equipment_class"}
_LINK_KEYS = {"source", "target", "type", "layer"}
_LOSS_KEYS = {"id", "description"}
_HAZARD_KEYS = {"id", "description", "losses"}
_ACTION_KEYS = {
    "source",
    "target",
    "verb",
    "source_label",
    "action_phrase",
    "continuous",
    "split",
    "layer",
    "contexts",
    "hazards",
    "not_applicable",
}
_GATE_KEYS = {"id", "kind", "k", "children", "replicate", "description"}
_GATE_CHILD_KEYS = {"gate", "fail", "ca_to"}
_POLICY_KEYS = {
    "include_intra_division",
    "include_cross_all_divisions",
    "include_partial_interdivision",
    "software_categories",
}
_CLASS_KEYS = {"tag", "prefix", "display"}
_CONTEXT_KEYS = {"needed", "unneeded", "timing", "duration"}


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

    issues: list[ModelIssue] = []
    if not isinstance(doc, Mapping):
        raise ModelValidationError([ModelIssue("$", "document must be a JSON object")])

    for key in doc:
        if key not in _TOP_LEVEL_KEYS:
            issues.append(ModelIssue(key, "unknown field"))
    version = doc.get("resha_model_version")
    if version != MODEL_VERSION:
        issues.append(
            ModelIssue("resha_model_version", f"expected {MODEL_VERSION}, got {version!r}")
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


def _check_keys(entry: Mapping[str, Any], allowed: set[str], where: str, issues: list[ModelIssue]) -> None:
    """Report each key of ``entry`` outside ``allowed``."""
    for key in entry:
        if key not in allowed:
            issues.append(ModelIssue(f"{where}.{key}", "unknown field"))


def _entries(
    raw: Any, name: str, keys: set[str], issues: list[ModelIssue]
) -> Iterator[tuple[str, Mapping[str, Any]]]:
    """``(path, entry)`` for each object entry of the array ``raw`` at ``name``.

    A non-array is one issue and yields nothing; an entry that is not an
    object is one issue and is skipped; unknown keys are reported.
    """
    if not isinstance(raw, list):
        issues.append(ModelIssue(name, "must be an array"))
        return
    for i, entry in enumerate(raw):
        where = f"{name}[{i}]"
        if not isinstance(entry, Mapping):
            issues.append(ModelIssue(where, "must be an object"))
            continue
        _check_keys(entry, keys, where, issues)
        yield where, entry


def _flag(raw: Mapping[str, Any], key: str, default: bool, where: str, issues: list[ModelIssue]) -> bool:
    """The JSON boolean ``raw[key]``; ``default`` when absent or null, or after an issue."""
    value = raw.get(key)
    if value is None:
        return default
    if not isinstance(value, bool):
        issues.append(ModelIssue(f"{where}.{key}", "must be true or false"))
        return default
    return value


def _text(raw: Mapping[str, Any], key: str, default: str | None, where: str,
          issues: list[ModelIssue]) -> str | None:
    """The JSON string ``raw[key]``; ``default`` when absent or null, or after an issue."""
    value = raw.get(key)
    if value is None:
        return default
    if not isinstance(value, str):
        issues.append(ModelIssue(f"{where}.{key}", "must be a string"))
        return default
    return value


def _parse_classes(
    raw: Any, issues: list[ModelIssue]
) -> dict[str, EquipmentClass]:
    classes: dict[str, EquipmentClass] = {}
    for where, entry in _entries(raw, "equipment_classes", _CLASS_KEYS, issues):
        tag = entry.get("tag")
        if not isinstance(tag, str) or not tag:
            issues.append(ModelIssue(where, "missing class tag"))
            continue
        if tag in classes:
            issues.append(ModelIssue(where, f"duplicate equipment class {tag!r}"))
            continue
        classes[tag] = EquipmentClass(
            tag=tag,
            prefix=_text(entry, "prefix", tag.upper(), where, issues),
            display=_text(entry, "display", tag, where, issues),
        )
    return classes


def _parse_nodes(
    raw: Any, classes: Mapping[str, EquipmentClass], issues: list[ModelIssue]
) -> dict[str, Node]:
    nodes: dict[str, Node] = {}
    for where, entry in _entries(raw, "nodes", _NODE_KEYS, issues):
        try:
            node_id = parse_node_id(entry.get("id", ""))
        except NodeIdError as exc:
            issues.append(ModelIssue(f"{where}.id", str(exc)))
            continue
        try:
            kind = NodeKind(entry.get("kind", ""))
        except ValueError:
            issues.append(ModelIssue(f"{where}.kind", f"unknown kind {entry.get('kind')!r}"))
            continue
        implied = expected_kind(node_id)
        if kind is not implied:
            issues.append(
                ModelIssue(
                    f"{where}.kind",
                    f"kind {kind.value!r} inconsistent with id {node_id.text} "
                    f"(id implies {implied.value!r})",
                )
            )
        tech_raw = entry.get("technology", "digital")
        try:
            technology = Technology(tech_raw)
        except ValueError:
            issues.append(ModelIssue(f"{where}.technology", f"unknown technology {tech_raw!r}"))
            continue
        eq_class = entry.get("equipment_class")
        if kind is NodeKind.COMPONENT and eq_class is None:
            issues.append(ModelIssue(f"{where}.equipment_class", "components require an equipment class"))
        if kind in (NodeKind.DIVISION, NodeKind.UNIT) and eq_class is not None:
            issues.append(
                ModelIssue(f"{where}.equipment_class", f"{kind.value} nodes may not carry an equipment class")
            )
        if eq_class is not None and not isinstance(eq_class, str):
            issues.append(ModelIssue(f"{where}.equipment_class", "must be a string"))
        elif eq_class is not None and eq_class not in classes:
            issues.append(ModelIssue(f"{where}.equipment_class", f"undeclared equipment class {eq_class!r}"))
        if node_id.text in nodes:
            issues.append(ModelIssue(f"{where}.id", f"duplicate node id {node_id.text}"))
            continue
        nodes[node_id.text] = Node(
            id=node_id,
            name=_text(entry, "name", node_id.text, where, issues),
            kind=kind,
            technology=technology,
            role=_text(entry, "role", "", where, issues),
            equipment_class=eq_class,
        )
    return dict(sorted(nodes.items()))


def _nested(raw: list[Any], nodes: Mapping[str, Node], issues: list[ModelIssue]) -> bool:
    """Report each missing parent once, at the id of its first child; whether
    none is missing. Expects every entry of ``raw`` accepted into ``nodes``."""
    missing: dict[str, str] = {}  # parent text -> first child text
    for node in nodes.values():
        parent = node.id.parent()
        if parent is not None and parent.text not in nodes:
            missing.setdefault(parent.text, node.id.text)
    if missing:
        index = {parse_node_id(entry["id"]).text: i for i, entry in enumerate(raw)}
        for parent, child in missing.items():
            message = f"missing parent node {parent} (hierarchy must nest)"
            issues.append(ModelIssue(f"nodes[{index[child]}].id", message))
    return not missing


def _parse_links(
    raw: Any, nodes: Mapping[str, Node] | None, issues: list[ModelIssue]
) -> tuple[Link, ...]:
    links: list[Link] = []
    for where, entry in _entries(raw, "links", _LINK_KEYS, issues):
        try:
            source = parse_node_id(entry.get("source", ""))
            target = parse_node_id(entry.get("target", ""))
        except NodeIdError as exc:
            issues.append(ModelIssue(where, str(exc)))
            continue
        try:
            link_type = LinkType(entry.get("type", ""))
        except ValueError:
            issues.append(ModelIssue(f"{where}.type", f"unknown link type {entry.get('type')!r}"))
            continue
        ok = True
        for end, node_id in (("source", source), ("target", target)):
            if nodes is not None and node_id.text not in nodes:
                issues.append(
                    ModelIssue(f"{where}.{end}", f"dangling link: no node {node_id.text}")
                )
                ok = False
        layer = entry.get("layer")
        if layer is not None and (type(layer) is not int or layer < 1):
            # Reported once; the link still counts for the actions declared on it.
            issues.append(ModelIssue(f"{where}.layer", "layer must be an integer >= 1"))
        if ok:
            links.append(Link(source=source, target=target, type=link_type, layer=layer))
    links.sort(key=lambda l: (l.type.value, l.source, l.target))
    return tuple(links)


def _parse_losses(raw: Any, issues: list[ModelIssue]) -> tuple[Loss, ...]:
    losses: list[Loss] = []
    seen: set[str] = set()
    for where, entry in _entries(raw, "losses", _LOSS_KEYS, issues):
        loss_id = entry.get("id", "")
        if not re.fullmatch(r"L[1-9]\d*", str(loss_id)):
            issues.append(ModelIssue(f"{where}.id", f"loss id must look like L1, got {loss_id!r}"))
            continue
        if loss_id in seen:
            issues.append(ModelIssue(f"{where}.id", f"duplicate loss id {loss_id}"))
            continue
        seen.add(loss_id)
        losses.append(Loss(id=loss_id, description=_text(entry, "description", "", where, issues)))
    losses.sort(key=lambda l: l.number)
    expected = list(range(1, len(losses) + 1))
    if [l.number for l in losses] != expected:
        issues.append(ModelIssue("losses", "loss ids must be contiguous from L1"))
    return tuple(losses)


def _parse_hazards(
    raw: Any, losses: tuple[Loss, ...], issues: list[ModelIssue]
) -> tuple[Hazard, ...]:
    hazards: list[Hazard] = []
    loss_ids = {l.id for l in losses}
    seen: set[str] = set()
    for where, entry in _entries(raw, "hazards", _HAZARD_KEYS, issues):
        hazard_id = entry.get("id", "")
        if not re.fullmatch(r"H[1-9]\d*", str(hazard_id)):
            issues.append(ModelIssue(f"{where}.id", f"hazard id must look like H1, got {hazard_id!r}"))
            continue
        if hazard_id in seen:
            issues.append(ModelIssue(f"{where}.id", f"duplicate hazard id {hazard_id}"))
            continue
        seen.add(hazard_id)
        linked = entry.get("losses", [])
        if not isinstance(linked, list) or not linked:
            issues.append(ModelIssue(f"{where}.losses", "hazards must link at least one loss"))
            linked = []
        for loss_id in linked:
            if not isinstance(loss_id, str) or loss_id not in loss_ids:
                issues.append(ModelIssue(f"{where}.losses", f"unknown loss {loss_id!r}"))
        hazards.append(
            Hazard(
                id=hazard_id,
                description=_text(entry, "description", "", where, issues),
                losses=tuple(linked),
            )
        )
    hazards.sort(key=lambda h: h.number)
    return tuple(hazards)


def _parse_actions(
    raw: Any,
    nodes: Mapping[str, Node] | None,
    links: tuple[Link, ...],
    hazards: tuple[Hazard, ...],
    issues: list[ModelIssue],
) -> tuple[ActionSpec, ...]:
    actions: list[ActionSpec] = []
    control_edges = {
        (l.source.text, l.target.text) for l in links if l.type is LinkType.CONTROL
    }
    hazard_ids = {h.id for h in hazards}
    for where, entry in _entries(raw, "control_actions", _ACTION_KEYS, issues):
        try:
            source = parse_node_id(entry.get("source", ""))
            target = parse_node_id(entry.get("target", ""))
        except NodeIdError as exc:
            issues.append(ModelIssue(where, str(exc)))
            continue
        ok = True
        for end, node_id in (("source", source), ("target", target)):
            if nodes is not None and node_id.text not in nodes:
                issues.append(ModelIssue(f"{where}.{end}", f"no node {node_id.text}"))
                ok = False
        if ok and (source.text, target.text) not in control_edges:
            issues.append(
                ModelIssue(where, f"no control link {source.text} -> {target.text} declared")
            )
            ok = False
        continuous = _flag(entry, "continuous", False, where, issues)
        split = _flag(entry, "split", False, where, issues)
        verb = _text(entry, "verb", "", where, issues)
        source_label = _text(entry, "source_label", source.text, where, issues)
        action_phrase = _text(entry, "action_phrase", "", where, issues)
        layer = entry.get("layer")
        if layer is not None and (type(layer) is not int or layer < 1):
            issues.append(ModelIssue(f"{where}.layer", "layer must be an integer >= 1"))
            ok = False
        contexts_raw = entry.get("contexts", {})
        if not isinstance(contexts_raw, Mapping):
            issues.append(ModelIssue(f"{where}.contexts", "must be an object"))
            contexts_raw = {}
        _check_keys(contexts_raw, _CONTEXT_KEYS, f"{where}.contexts", issues)
        contexts = {
            k: _text(contexts_raw, k, None, f"{where}.contexts", issues) for k in sorted(_CONTEXT_KEYS)
        }
        hazards_raw = entry.get("hazards", {})
        if not isinstance(hazards_raw, Mapping):
            issues.append(ModelIssue(f"{where}.hazards", "must be an object"))
            hazards_raw = {}
        hazard_map: dict[str, tuple[str, ...]] = {}
        for cat, hlist in hazards_raw.items():
            if cat not in UCA_CATEGORIES:
                issues.append(ModelIssue(f"{where}.hazards.{cat}", "unknown category"))
                continue
            if not isinstance(hlist, list):
                issues.append(ModelIssue(f"{where}.hazards.{cat}", "must be an array"))
                continue
            for h in hlist:
                if not isinstance(h, str) or h not in hazard_ids:
                    issues.append(ModelIssue(f"{where}.hazards.{cat}", f"unknown hazard {h!r}"))
            hazard_map[cat] = tuple(hlist)
        na_raw = entry.get("not_applicable", {})
        if not isinstance(na_raw, Mapping):
            issues.append(ModelIssue(f"{where}.not_applicable", "must be an object"))
            na_raw = {}
        not_applicable: dict[str, str] = {}
        for cat in na_raw:
            if cat not in UCA_CATEGORIES:
                issues.append(ModelIssue(f"{where}.not_applicable.{cat}", "unknown category"))
                continue
            justification = _text(na_raw, cat, None, f"{where}.not_applicable", issues)
            if justification is not None:
                not_applicable[cat] = justification
        if not ok:
            continue
        actions.append(
            ActionSpec(
                source=source,
                target=target,
                verb=verb,
                source_label=source_label,
                action_phrase=action_phrase,
                continuous=continuous,
                split=split,
                layer=layer,
                contexts=contexts,
                hazards=hazard_map,
                not_applicable=not_applicable,
            )
        )
    return tuple(actions)


def _parse_gates(raw: Any, issues: list[ModelIssue]) -> tuple[GateSpec, ...]:
    gates: list[GateSpec] = []
    seen: set[str] = set()
    for where, entry in _entries(raw, "gates", _GATE_KEYS, issues):
        # An unknown key may be a misspelt known one, so the entry is not read further.
        if not entry.keys() <= _GATE_KEYS:
            continue
        gate_id = entry.get("id")
        if not isinstance(gate_id, str) or not gate_id:
            issues.append(ModelIssue(f"{where}.id", "missing gate id"))
            continue
        if gate_id in seen:
            issues.append(ModelIssue(f"{where}.id", f"duplicate gate id {gate_id!r}"))
            continue
        seen.add(gate_id)
        kind = entry.get("kind")
        if kind not in ("and", "or", "vote"):
            issues.append(ModelIssue(f"{where}.kind", f"unknown gate kind {kind!r}"))
            continue
        k = entry.get("k")
        if kind == "vote":
            if type(k) is not int or k < 1:
                issues.append(ModelIssue(f"{where}.k", "vote gates need integer k >= 1"))
                continue
        elif k is not None:
            issues.append(ModelIssue(f"{where}.k", "k only applies to vote gates"))
        replicate = entry.get("replicate")
        if replicate not in (None, "per-division", "per-unit"):
            issues.append(ModelIssue(f"{where}.replicate", f"unknown macro {replicate!r}"))
            continue
        description = entry.get("description")
        if description is not None and not isinstance(description, str):
            issues.append(ModelIssue(f"{where}.description", "must be a string"))
            continue
        children_raw = entry.get("children", [])
        if not isinstance(children_raw, list) or not children_raw:
            issues.append(ModelIssue(f"{where}.children", "gates need at least one child"))
            continue
        children: list[GateChildSpec] = []
        for cwhere, child in _entries(children_raw, f"{where}.children", _GATE_CHILD_KEYS, issues):
            if not child.keys() <= _GATE_CHILD_KEYS:
                continue
            malformed = [
                key for key in ("gate", "fail", "ca_to")
                if child.get(key) is not None and not (isinstance(child[key], str) and child[key])
            ]
            for key in malformed:
                issues.append(ModelIssue(f"{cwhere}.{key}", "must be a non-empty string"))
            if malformed:
                continue
            gate_ref = child.get("gate")
            fail_ref = child.get("fail")
            if (gate_ref is None) == (fail_ref is None):
                issues.append(ModelIssue(cwhere, "child must reference exactly one of gate/fail"))
                continue
            if child.get("ca_to") is not None and fail_ref is None:
                issues.append(ModelIssue(cwhere, "ca_to only applies to fail references"))
                continue
            children.append(GateChildSpec(gate=gate_ref, fail=fail_ref, ca_to=child.get("ca_to")))
        if len(children) < len(children_raw):
            continue
        if kind == "vote" and isinstance(k, int) and k > len(children):
            issues.append(ModelIssue(f"{where}.k", f"k={k} exceeds {len(children)} children"))
            continue
        gates.append(
            GateSpec(
                id=gate_id,
                kind=kind,
                children=tuple(children),
                k=k,
                replicate=replicate,
                description=description,
            )
        )
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
                issues.append(ModelIssue(f"gates[{i}].id", f"gate id {gate.id!r} expands more than once"))
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
        message = f"replicated gate {gates[i].id!r} instantiates for no division/unit"
        issues.append(ModelIssue(f"gates[{i}]", f"{message}: a node or gate it references is absent"))
    # Only a plain declaration can name an unknown gate (a copy that does is
    # not kept); its unknown names are one line, at the first of them.
    resolved = {gate_id: gate for gate_id, (_, gate) in by_id.items() if kept[gate_id]}
    for gate_id, gate in resolved.items():
        unknown = [
            j for j, c in enumerate(gate.children) if c.gate is not None and c.gate not in resolved
        ]
        if unknown and not empty:
            names = list(dict.fromkeys(repr(gate.children[j].gate) for j in unknown))
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
    if not isinstance(raw, Mapping):
        issues.append(ModelIssue("ccf_policy", "must be an object"))
        return CcfPolicy()
    _check_keys(raw, _POLICY_KEYS, "ccf_policy", issues)
    cats_raw = raw.get("software_categories", ["a", "c"])
    if not isinstance(cats_raw, list) or any(c not in UCA_CATEGORIES for c in cats_raw):
        issues.append(ModelIssue("ccf_policy.software_categories", "categories must be from a/b/c/d"))
        cats_raw = ["a", "c"]
    policy = CcfPolicy(
        include_intra_division=_flag(raw, "include_intra_division", True, "ccf_policy", issues),
        include_cross_all_divisions=_flag(
            raw, "include_cross_all_divisions", True, "ccf_policy", issues
        ),
        include_partial_interdivision=_flag(
            raw, "include_partial_interdivision", False, "ccf_policy", issues
        ),
        software_categories=tuple(cats_raw),
    )
    if not (
        policy.include_intra_division
        or policy.include_cross_all_divisions
        or policy.include_partial_interdivision
    ):
        issues.append(ModelIssue("ccf_policy", "at least one CCF scope must be enabled"))
    return policy


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _model_to_document(m: SystemModel) -> dict[str, Any]:
    nodes = []
    for key in sorted(m.nodes):
        n = m.nodes[key]
        entry: dict[str, Any] = {
            "id": n.id.text,
            "name": n.name,
            "kind": n.kind.value,
            "technology": n.technology.value,
        }
        if n.role:
            entry["role"] = n.role
        if n.equipment_class is not None:
            entry["equipment_class"] = n.equipment_class
        nodes.append(entry)
    links = []
    for l in sorted(m.links, key=lambda l: (l.type.value, l.source, l.target)):
        entry = {"source": l.source.text, "target": l.target.text, "type": l.type.value}
        if l.layer is not None:
            entry["layer"] = l.layer
        links.append(entry)
    actions = []
    for a in sorted(m.actions, key=lambda a: (a.layer or 0, a.source, a.target)):
        entry = {
            "source": a.source.text,
            "target": a.target.text,
            "verb": a.verb,
            "source_label": a.source_label,
            "action_phrase": a.action_phrase,
            "continuous": a.continuous,
            "split": a.split,
        }
        if a.layer is not None:
            entry["layer"] = a.layer
        entry["contexts"] = {k: v for k, v in sorted(a.contexts.items()) if v is not None}
        entry["hazards"] = {k: list(v) for k, v in sorted(a.hazards.items())}
        if a.not_applicable:
            entry["not_applicable"] = dict(sorted(a.not_applicable.items()))
        actions.append(entry)
    gates = []
    for g in sorted(m.gates, key=lambda g: g.id):
        children = []
        for c in g.children:
            child: dict[str, Any] = {}
            if c.gate is not None:
                child["gate"] = c.gate
            if c.fail is not None:
                child["fail"] = c.fail
            if c.ca_to is not None:
                child["ca_to"] = c.ca_to
            children.append(child)
        entry = {"id": g.id, "kind": g.kind, "children": children}
        if g.k is not None:
            entry["k"] = g.k
        if g.replicate is not None:
            entry["replicate"] = g.replicate
        if g.description is not None:
            entry["description"] = g.description
        gates.append(entry)
    return {
        "resha_model_version": m.version,
        "equipment_classes": [
            {"tag": c.tag, "prefix": c.prefix, "display": c.display}
            for c in sorted(m.classes.values(), key=lambda c: c.tag)
        ],
        "nodes": nodes,
        "links": links,
        "losses": [{"id": l.id, "description": l.description} for l in m.losses],
        "hazards": [
            {"id": h.id, "description": h.description, "losses": list(h.losses)}
            for h in m.hazards
        ],
        "control_actions": actions,
        "gates": gates,
        "ccf_policy": {
            "include_intra_division": m.ccf_policy.include_intra_division,
            "include_cross_all_divisions": m.ccf_policy.include_cross_all_divisions,
            "include_partial_interdivision": m.ccf_policy.include_partial_interdivision,
            "software_categories": list(m.ccf_policy.software_categories),
        },
    }


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
        eq = m.classes[tag]
        software = all(n.technology is Technology.DIGITAL for n in members)
        by_division: dict[str, list[Node]] = {}
        for node in members:
            by_division.setdefault(node.id.division, []).append(node)
        for division in sorted(by_division):
            local = by_division[division]
            if len(local) >= 2:
                groups.append(
                    RedundancyGroup(
                        class_tag=tag,
                        prefix=eq.prefix,
                        display=eq.display,
                        scope=GroupScope.INTRA_DIVISION,
                        division=division,
                        members=tuple(n.id for n in local),
                        software_capable=software,
                    )
                )
        if len(by_division) >= 2:
            groups.append(
                RedundancyGroup(
                    class_tag=tag,
                    prefix=eq.prefix,
                    display=eq.display,
                    scope=GroupScope.CROSS_DIVISION,
                    division=None,
                    members=tuple(n.id for n in members),
                    software_capable=software,
                )
            )
    groups.sort(key=lambda g: (g.class_tag, g.scope.value, g.division or ""))
    return tuple(groups)
