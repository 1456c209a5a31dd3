"""Redundancy-guided control structure and unsafe-control-action enumeration.

Control actions declared in the model are grouped into layers (highest
redundancy level first), numbered deterministically, and expanded into four
unsafe variants per action: not provided (a), provided when unneeded (b),
wrong timing (c), and wrong duration (d, continuous actions only).
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence

from .sysmodel import (
    ActionSpec,
    Link,
    LinkType,
    NodeId,
    SystemModel,
    Technology,
    UCA_CATEGORIES,
    _csv_text,
)


class StpaError(Exception):
    """Raised for control-structure or UCA enumeration failures."""


class ControlAction(NamedTuple):
    """A numbered control action within the layered structure."""

    number: int
    layer: int
    spec: ActionSpec
    source_technology: Technology
    source_class_prefix: str

    @property
    def ca_id(self) -> str:
        return f"CA{self.number}"

    @property
    def source(self) -> NodeId:
        return self.spec.source

    @property
    def target(self) -> NodeId:
        return self.spec.target


class Layer(NamedTuple):
    """One redundancy level: its numbered actions and the model's feedback links."""

    index: int
    controllers: tuple[NodeId, ...]
    actions: tuple[ControlAction, ...]
    feedbacks: tuple[Link, ...]


class ControlStructure(NamedTuple):
    layers: tuple[Layer, ...]

    @property
    def actions(self) -> tuple[ControlAction, ...]:
        return tuple(a for layer in self.layers for a in layer.actions)


class UcaRecord(NamedTuple):
    """One slot of the UCA table: a control action crossed with a category.

    Applicable records carry rendered text and hazard links; inapplicable
    records carry a justification. ``action`` holds the source node, its
    technology and class prefix, so the record attaches to a fault tree
    without further lookups.
    """

    uca_id: str
    action: ControlAction
    category: str  # a letter of UCA_CATEGORIES
    applicable: bool
    text: str
    hazards: tuple[str, ...]
    justification: str | None


def build_layered_control_structure(m: SystemModel) -> ControlStructure:
    """Group declared control actions into redundancy layers and number them.

    A control action's layer defaults to its source node's structural depth
    (division-level actors first) and may be overridden per declaration.
    Numbering is deterministic: by layer, then source ID, then target ID,
    then declaration order. Feedback links are layered and ordered the same
    way.
    """
    if not any(l.type is LinkType.CONTROL for l in m.links):
        raise StpaError("model declares no control links; control structure is empty")
    if not m.actions:
        raise StpaError("model declares no control actions; control structure is empty")

    def declared_layer(item: ActionSpec | Link) -> int:
        return item.layer if item.layer is not None else item.source.structural_depth

    feedback = m.feedback_links()
    raw_layers = sorted({declared_layer(item) for item in (*m.actions, *feedback)})
    compact = {raw: idx + 1 for idx, raw in enumerate(raw_layers)}

    def layer(item: ActionSpec | Link) -> int:
        return compact[declared_layer(item)]

    # A stable sort: equal keys keep declaration order.
    ordered_actions = sorted(m.actions, key=lambda a: (layer(a), a.source, a.target))
    ordered_feedback = sorted(feedback, key=lambda l: (layer(l), l.source, l.target))

    actions_by_layer: dict[int, list[ControlAction]] = {}
    for number, spec in enumerate(ordered_actions, start=1):
        node = m.node(spec.source)
        ca = ControlAction(
            number=number,
            layer=layer(spec),
            spec=spec,
            source_technology=node.technology,
            source_class_prefix=m.class_prefix(node.equipment_class),
        )
        actions_by_layer.setdefault(ca.layer, []).append(ca)

    feedback_by_layer: dict[int, list[Link]] = {}
    for link in ordered_feedback:
        feedback_by_layer.setdefault(layer(link), []).append(link)

    layers = []
    for idx in sorted(set(actions_by_layer) | set(feedback_by_layer)):
        acts = tuple(actions_by_layer.get(idx, ()))
        controllers = tuple(sorted({a.source for a in acts}))
        layers.append(Layer(idx, controllers, acts, tuple(feedback_by_layer.get(idx, ()))))
    return ControlStructure(layers=tuple(layers))


def _render(ca: ControlAction, category: str, hazards: Sequence[str]) -> str:
    spec = ca.spec
    context = spec.contexts.get(UCA_CATEGORIES[category]) or ""
    hazard_part = f" [{', '.join(hazards)}]" if hazards else ""
    if category == "a":  # not provided
        body = f"{spec.source_label} does not provide {spec.action_phrase} {context}"
    else:
        body = f"{spec.source_label} provides {spec.action_phrase} {context}"
    return f"{body.rstrip()}{hazard_part}."


# The justification of category d for a discrete action that gives none.
_NOT_CONTINUOUS = "Not a continuous control action; duration-based unsafe behavior does not arise."


def enumerate_ucas(cs: ControlStructure) -> tuple[UcaRecord, ...]:
    """Produce exactly four UCA slots per control action.

    Which categories apply is ``ActionSpec.applies``. Each applicable slot
    renders its text with its linked hazards, which the model parser has
    checked; each inapplicable slot carries a justification.
    """
    records: list[UcaRecord] = []
    for ca in cs.actions:
        spec = ca.spec
        for category in UCA_CATEGORIES:
            applicable = spec.applies(category)
            justification = None if applicable else spec.not_applicable.get(category, _NOT_CONTINUOUS)
            linked = tuple(spec.hazards.get(category, ()))
            records.append(
                UcaRecord(
                    uca_id=f"UCA{ca.number}{category}",
                    action=ca,
                    category=category,
                    applicable=applicable,
                    text=_render(ca, category, linked) if applicable else "Not applicable.",
                    hazards=linked if applicable else (),
                    justification=justification,
                )
            )
    return tuple(records)


def select_ucas_for_top_event(ucas: Iterable[UcaRecord]) -> tuple[UcaRecord, ...]:
    """Applicable UCAs feeding the failure-to-act fault tree: categories a and c."""
    return tuple(u for u in ucas if u.applicable and u.category in ("a", "c"))


def identified_uca_count(records: Sequence[UcaRecord]) -> int:
    return sum(1 for r in records if r.applicable)


def uca_table_to_csv(records: Sequence[UcaRecord]) -> str:
    """CSV export with one row per UCA slot."""
    return _csv_text(
        ["ca_id", "uca_id", "category", "applicable", "text", "hazards", "justification"],
        (
            [
                r.action.ca_id,
                r.uca_id,
                r.category,
                "yes" if r.applicable else "no",
                r.text,
                " ".join(r.hazards),
                r.justification or "",
            ]
            for r in records
        ),
    )


def _one_line(text: str) -> str:
    """``text`` on one line: each CRLF, CR or LF becomes a space."""
    return re.sub(r"\r\n?|\n", " ", text)


def _table_row(*cells: str) -> str:
    """One markdown table row; each cell's pipes are escaped and its line breaks made spaces."""
    escaped = (_one_line(c.replace("|", "\\|")) for c in cells)
    return f"| {' | '.join(escaped)} |"


def uca_table_to_markdown(cs: ControlStructure, records: Sequence[UcaRecord]) -> str:
    """Markdown table mirroring the four-category UCA layout."""
    by_ca: dict[str, dict[str, UcaRecord]] = {}
    for r in records:
        by_ca.setdefault(r.action.ca_id, {})[r.category] = r
    lines = [
        "| Control Action (CA) | UCAa: CA is needed, but not given | "
        "UCAb: CA is given, but not needed | UCAc: CA is given too early, too late, wrong order | "
        "UCAd: CA is applied too long or stopped too soon |",
        "| --- | --- | --- | --- | --- |",
    ]
    for ca in cs.actions:
        row = by_ca.get(ca.ca_id, {})

        def cell(letter: str) -> str:
            record = row.get(letter)
            if record is None:
                return ""
            if not record.applicable:
                return f"{record.uca_id}: Not applicable."
            return f"{record.uca_id}: {record.text}"

        header = f"{ca.ca_id}: {ca.spec.source_label} {ca.spec.verb}"
        lines.append(_table_row(header, cell("a"), cell("b"), cell("c"), cell("d")))
    return "\n".join(lines) + "\n"
