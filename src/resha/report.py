"""Causal-factor worksheets and the end-to-end Markdown analysis report.

Worksheets scaffold the final analysis stage: for each basic event surviving
into the selected cut sets, prompts from a reusable guidance bank cover the
two causal categories (unsafe controller behavior; inadequate feedback or
other inputs). The report renders every pipeline stage deterministically so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Any, Mapping, NamedTuple, Sequence

from .ccf import CcfEvent
from .cutset import CutSet, CutSetCollection, SpofReport
from .faulttree import (
    BasicEvent,
    EventKind,
    FaultTree,
    HARDWARE_KINDS,
)
from .stpa import ControlStructure, UcaRecord, _one_line, _table_row, identified_uca_count
from .sysmodel import (
    _REQUIRED, UCA_CATEGORIES, ModelIssue, SystemModel, _csv_text, _entries, _enum, _object, _read, _text,
    _texts,
)

GUIDANCE_BANK_VERSION = 1

HARDWARE_HISTORICAL_NOTE = (
    "Hardware failure causes are assessed from historical failure-rate data "
    "and industry operating experience."
)

_DEFAULT_CATEGORY1 = (
    "Physical failure of the controller itself.",
    "Inadequate control algorithm: the decision logic is wrong for this context.",
    "Inadequate process model: the controller's view of the process is incorrect.",
)
_DEFAULT_CATEGORY2 = (
    "Required feedback or input is not received by the controller.",
    "Inadequate feedback or input is received by the controller.",
    "Unsafe control input arrives from another controller.",
)


class GuidanceBankError(Exception):
    """Raised when the guidance bank file is malformed."""


class GuidanceEntry(NamedTuple):
    """Prompts and scenario template for one (kind, class, category) key."""

    event_kind: EventKind
    class_tag: str | None = None
    category: str | None = None
    category1: tuple[str, ...] = _DEFAULT_CATEGORY1
    category2: tuple[str, ...] = _DEFAULT_CATEGORY2
    scenario: str = ""
    guidance: str = ""


# How each key of a bank entry is read, in GuidanceEntry field order: ``class`` is ``class_tag``.
_BANK_FIELDS = {
    "event_kind": (_enum("event kind", EventKind), _REQUIRED),
    "class": (_text, None),
    "category": (_enum("UCA category", UCA_CATEGORIES), None),
    "category1": (_texts, _DEFAULT_CATEGORY1),
    "category2": (_texts, _DEFAULT_CATEGORY2),
    "scenario": (_text, ""),
    "guidance": (_text, ""),
}


class GuidanceBank:
    """Editable prompt bank: one entry per (event kind, class prefix, category) key."""

    def __init__(self, entries: Sequence[GuidanceEntry]):
        self.entries = tuple(entries)
        self._by_key: dict[tuple[Any, ...], GuidanceEntry] = {}
        for i, entry in enumerate(self.entries):
            if entry[:3] in self._by_key:
                first = self.entries.index(self._by_key[entry[:3]])
                raise GuidanceBankError(f"guidance bank entries[{i}]: same event_kind, class and category "
                                        f"as entries[{first}]")
            self._by_key[entry[:3]] = entry

    @classmethod
    def from_document(cls, doc: Any) -> "GuidanceBank":
        if not isinstance(doc, Mapping):
            raise GuidanceBankError("guidance bank document must be a JSON object")
        version = doc.get("guidance_bank_version")
        if type(version) is not int or version != GUIDANCE_BANK_VERSION:  # JSON true and 1.0 are not 1
            raise GuidanceBankError(f"expected guidance_bank_version {GUIDANCE_BANK_VERSION}")
        issues: list[ModelIssue] = []
        _object(doc, (), frozenset(("guidance_bank_version", "entries")), issues)
        rows = [
            _read(entry, _BANK_FIELDS, where, issues)
            for where, entry in _entries(doc.get("entries", []), ("entries",), _BANK_FIELDS, issues)
        ]
        if issues:  # a rejected entry, read as None, is always an issue
            raise GuidanceBankError(f"guidance bank {issues[0]}")
        return cls([GuidanceEntry._make(row) for row in rows])

    @classmethod
    def packaged(cls) -> "GuidanceBank":
        text = resources.files("resha.data").joinpath("guidance_bank.json").read_text("utf-8")
        return cls.from_document(json.loads(text))

    def lookup(self, event: BasicEvent, class_prefix: str | None) -> GuidanceEntry:
        """Most specific entry wins: (kind, class, category) > (kind, class) >
        (kind, category) > (kind); with none, the defaults."""
        kind, category = event.kind, event.category
        for key in ((kind, class_prefix, category), (kind, class_prefix, None),
                    (kind, None, category), (kind, None, None)):
            if key in self._by_key:
                return self._by_key[key]
        return GuidanceEntry(event_kind=kind)


class CausalFactorWorksheet(NamedTuple):
    """Analyst worksheet for one basic event found in the selected cut sets."""

    event: BasicEvent
    lowest_order: int
    category1_prompts: tuple[str, ...]
    category2_prompts: tuple[str, ...] | None
    scenario: str
    guidance: str
    historical_note: str | None


def generate_worksheets(
    model: SystemModel,
    cut_sets: Sequence[CutSet],
    tree: FaultTree,
) -> tuple[CausalFactorWorksheet, ...]:
    """One worksheet per distinct basic event in the selected cut sets.

    Ordered by the lowest order of a containing set, then event ID. Guidance
    is looked up by the equipment class of the event's first subject in
    ``model``. Hardware events carry category-1 physical prompts plus the
    historical-data note; software and human events carry both causal
    categories.
    """
    bank = GuidanceBank.packaged()

    lowest: dict[str, int] = {}
    for cs in cut_sets:
        for eid in cs.events:
            if eid not in lowest or cs.order < lowest[eid]:
                lowest[eid] = cs.order

    sheets = []
    for eid in sorted(lowest, key=lambda e: (lowest[e], e)):
        event = tree.events[eid]
        subject = model.node(event.subjects[0])
        entry = bank.lookup(event, model.class_prefix(subject.equipment_class))
        hardware = event.kind in HARDWARE_KINDS
        sheets.append(
            CausalFactorWorksheet(
                event=event,
                lowest_order=lowest[eid],
                category1_prompts=entry.category1,
                category2_prompts=None if hardware else entry.category2,
                scenario=entry.scenario,
                guidance=entry.guidance,
                historical_note=HARDWARE_HISTORICAL_NOTE if hardware else None,
            )
        )
    return tuple(sheets)


# ---------------------------------------------------------------------------
# Markdown report
# ---------------------------------------------------------------------------


def render_analysis_report(
    model: SystemModel,
    cs: ControlStructure,
    ucas: Sequence[UcaRecord],
    tree: FaultTree,
    root: str,
    collection: CutSetCollection,
    spofs: SpofReport,
    worksheets: Sequence[CausalFactorWorksheet],
    catalog: Sequence[CcfEvent] = (),
    notes: Sequence[str] = (),
) -> str:
    """Single deterministic Markdown document covering every analysis stage.

    Model text goes into the document on one line (``_one_line``), so a line
    break in a name, an id or a description cannot start a line of its own.
    """
    event_descriptions = {e.id: e.description for e in tree.events.values()}
    lines: list[str] = []
    out = lines.append

    out("# Redundancy-guided hazard analysis report")
    out("")
    out(f"Model fingerprint: `{model.fingerprint()}`")
    out("")
    for note in notes:
        out(f"> {_one_line(note)}")
    if notes:
        out("")

    out("## Stage 1: System representation")
    out("")
    divisions = model.division_tags()
    out(f"- Nodes: {len(model.nodes)} across divisions {_one_line(', '.join(divisions))}")
    out(f"- Links: {len(model.links)}")
    out(f"- Equipment classes: {len(model.classes)}")
    out("")

    out("## Stage 2: Losses and hazards")
    out("")
    out("| Loss | Description |")
    out("| --- | --- |")
    for loss in model.losses:
        out(_table_row(loss.id, loss.description))
    out("")
    out("| Hazard | Description | Losses |")
    out("| --- | --- | --- |")
    for hazard in model.hazards:
        out(_table_row(hazard.id, hazard.description, ", ".join(hazard.losses)))
    out("")

    out("## Stage 3: Layered control structure and unsafe control actions")
    out("")
    for layer in cs.layers:
        out(
            f"- Layer {layer.index}: {len(layer.actions)} control actions, "
            f"{len(layer.feedbacks)} feedback edges, "
            f"{len(layer.controllers)} controllers"
        )
    out("")
    out(f"- Potential UCA slots: {len(ucas)}")
    out(f"- Identified (applicable) UCAs: {identified_uca_count(ucas)}")
    out("")

    out("## Stage 4: Integrated fault tree")
    out("")
    kind_counts: dict[str, int] = {}
    for event in tree.events.values():
        kind_counts[event.kind.value] = kind_counts.get(event.kind.value, 0) + 1
    out(f"- Top event: `{_one_line(tree.top)}`")
    out(f"- Gates: {len(tree.gates)}; basic events: {len(tree.events)}")
    for kind in sorted(kind_counts):
        out(f"  - {kind}: {kind_counts[kind]}")
    out("")

    if catalog:
        out("## Stage 5: Common-cause failure catalog")
        out("")
        out(f"- Catalog entries: {len(catalog)}")
        injected = sum(1 for c in catalog if c.name in tree.events)
        out(f"- Present in this tree: {injected}")
        out("")

    out("## Stage 6: Minimal cut sets")
    out("")
    out(f"### Scope: {_one_line(root)}")
    out("")
    trunc = collection.truncation if collection.truncation is not None else "none"
    out(f"- Truncation order: {trunc}")
    out(f"- Cut sets: {len(collection.cut_sets)}")
    out("")
    out("| Truncation (order) | Cut sets (cumulative) |")
    out("| --- | --- |")
    for order, _, cumulative in reversed(collection.rows(len(tree.events))):
        out(f"| {order} | {cumulative} |")
    out("")
    lines.extend(_spof_section(spofs, event_descriptions))

    out("## Stage 7: Causal-factor worksheets")
    out("")
    if not worksheets:
        out("No worksheets: the selected cut sets contain no basic events.")
        out("")
    for sheet in worksheets:
        out(f"### {_one_line(sheet.event.id)}")
        out("")
        out(f"- Kind: {sheet.event.kind.value}")
        out(f"- Description: {_one_line(sheet.event.description)}")
        out(f"- Lowest cut-set order: {sheet.lowest_order}")
        out("- Category 1 (unsafe controller behavior):")
        for prompt in sheet.category1_prompts:
            out(f"  - {_one_line(prompt)}")
        if sheet.category2_prompts is not None:
            out("- Category 2 (inadequate feedback or other inputs):")
            for prompt in sheet.category2_prompts:
                out(f"  - {_one_line(prompt)}")
        if sheet.historical_note:
            out(f"- {sheet.historical_note}")
        if sheet.scenario:
            out(f"- Scenario: {_one_line(sheet.scenario)}")
        if sheet.guidance:
            out(f"- Guidance: {_one_line(sheet.guidance)}")
        out("- Disposition: (analyst to complete)")
        out("")

    return "\n".join(lines).rstrip() + "\n"


def _describe_cut(cut, descriptions: Mapping[str, str]) -> str:
    parts = [descriptions.get(e, "") for e in cut.sorted_events()]
    return " ".join(p for p in parts if p)


def _spof_section(report: SpofReport, descriptions: Mapping[str, str]) -> list[str]:
    lines: list[str] = []
    if report.spofs:
        lines.append(f"Single points of failure: {len(report.spofs)}")
        lines.append("")
        lines.append("| Number | Cut set | Description |")
        lines.append("| --- | --- | --- |")
        for i, cut in enumerate(report.spofs, start=1):
            lines.append(_table_row(str(i), ", ".join(cut.sorted_events()), _describe_cut(cut, descriptions)))
        lines.append("")
    elif report.fallback_order is not None:
        lines.append(
            f"No single points of failure; lowest populated order is "
            f"{report.fallback_order} with {len(report.fallback_sets)} sets."
        )
        lines.append("")
    else:
        lines.append("No cut sets within the solved truncation.")
        lines.append("")
    return lines


def spof_table_to_csv(report: SpofReport, descriptions: Mapping[str, str]) -> str:
    """CSV of the SPOF table: number, cut set, description."""
    return _csv_text(
        ["number", "cut_set", "description"],
        ([i, " ".join(cut.sorted_events()), _describe_cut(cut, descriptions)]
         for i, cut in enumerate(report.spofs, start=1)),
    )
