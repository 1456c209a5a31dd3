"""Reference model: a four-division digital reactor trip system.

The RTS has four diverse trip paths: manual trip from the main control room
(MCR) and from the remote shutdown room (RSR), an automatic diverse
protection system (DPS) acting on the reactor trip breakers' shunt (ST)
mechanisms, and the automatic four-division reactor protection system (RPS)
acting on the undervoltage (UV) mechanisms. Each RPS division contains a
sensor group (aggregated to one basic event), a logic cabinet with four
bistable processors (BP), four logic processors (LP) doing 2-of-4 parameter
voting, and four digital output modules (DOM), plus two selective processors
(SP) in separate racks that actuate the UV trip. Breakers are analog and sit
in a two-by-two network: power is interrupted when both breakers of either
series pair open.

Reconstruction choices that the published reference analysis leaves open
(exact BP/LP counts, breaker network, manual-trip routing) are documented in
``docs/fixture_notes.md``; the expected first-order results and two worked
UCA rows are reproduced verbatim as golden data.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Any

from .sysmodel import SystemModel, parse_system_model

RPS_DIVISIONS = ("A", "B", "C", "D")

TRIP_CONTEXTS = {
    "needed": "during AOO",
    "unneeded": "when there is NO AOO",
    "timing": "after AOO has existed for some time",
}
TRIP_HAZARDS = {"a": ["H1", "H2", "H3"], "b": ["H4"], "c": ["H1", "H2", "H3"]}
CASE_D_JUSTIFICATION = (
    "A trip command cannot be stopped too soon as it is not a continuous controlling action."
)
ABSTRACT_JUSTIFICATION = (
    "Realized by lower-layer control actions; unsafe behaviors are captured where the "
    "command is enacted."
)

LOSSES = [
    ("L1", "Human injury or loss of life"),
    ("L2", "Environmental contamination"),
    ("L3", "Equipment damage"),
    ("L4", "Power generation"),
    ("L5", "Public perception"),
]

HAZARDS = [
    ("H1", "Reactor temperature too high", ["L1", "L2", "L3", "L4", "L5"]),
    ("H2", "Equipment beyond limits", ["L1", "L2", "L3", "L4", "L5"]),
    ("H3", "Release of radioactive materials", ["L1", "L2", "L5"]),
    ("H4", "Reactor shutdown", ["L4", "L5"]),
]

# First-order cut sets of the RPS undervoltage scope, exactly as published
# (name, description); note two description quirks kept verbatim.
EXPECTED_RPS_SPOFS = [
    ("SP-HD-CCF", "Selective processor hardware CCF."),
    ("LC-DOM-HD-CCF", "Logic cabinet digital output module hardware CCF."),
    ("RTB-UV-HD-CCF", "Reactor trip breaker undervoltage hardware CCF."),
    ("LC-BP-HD-CCF", "Logic bistable processor hardware CCF."),
    ("LC-LP-HD-CCF", "Logic cabinet logic processor hardware CCF"),
    ("LC-LP-SF-CCF-TA", "Logic cabinet logic processor software CCF type A."),
    ("LC-LP-SF-CCF-TC", "Logic cabinet logic processor software CCF type C."),
    ("LC-DOM-SF-CCF-TA", "Logic cabinet digital output module software CCF type A."),
    ("LC-DOM-SF-CCF-TC", "Logic cabinet digital output module software CCF type C."),
    ("SP-SF-CCF-TA", "Selective processor software CCF type A."),
    ("SP-SF-CCF-TC", "Selective processor software CCF type C."),
    ("LC-BP-SF-CCF-TA", "Logic cabinet bistable processor software CCF type A."),
    ("LC-BP-SF-CCF-TC", "Logic cabinet bistable processor software CCF type C."),
]

EXPECTED_HARDWARE_SPOFS = [name for name, _ in EXPECTED_RPS_SPOFS if "-HD-" in name]

# Worked UCA rows reproduced verbatim (CA id -> category -> text).
EXPECTED_UCA_TEXTS = {
    "CA18": {
        "a": "DOM-1 does not provide trip command to SP1 during AOO [H1, H2, H3].",
        "b": "DOM-1 provides trip command to SP1 when there is NO AOO [H4].",
        "c": "DOM-1 provides trip command to SP1 after AOO has existed for some time [H1, H2, H3].",
        "d": "Not applicable.",
    },
    "CA20": {
        "a": "DOM-3 does not provide trip command to SP1 during AOO [H1, H2, H3].",
        "b": "DOM-3 provides trip command to SP1 when there is NO AOO [H4].",
        "c": "DOM-3 provides trip command to SP1 after AOO has existed for some time [H1, H2, H3].",
        "d": "Not applicable.",
    },
}

# Cut-set counts reported by the published reference analysis, kept for
# side-by-side reporting; the order-4 full-model count is the only number
# gated (to within an order of magnitude) by the acceptance suite.
PUBLISHED_COUNTS: dict[str, Any] = {
    "full": {6: 1_184_652, 5: 85_788, 4: 468, 3: 0, 2: 0, 1: 0},
    "hardware_only_untruncated": 15_234,
    "automatic": {6: 4_583_568, 5: 1_038_956, 3: 9_532, 2: 52, 1: 0},
    "automatic_order_4_as_printed": "13,1628",
    "rps": {5: 328_355, 4: 54_899, 3: 15_283, 2: 1_203, 1: 13},
    "identified_ucas": 196,
}

TOP_FULL = "RTS"
TOP_RPS = "RPS"
TOP_AUTOMATIC = "AUTO"


def _equipment_classes() -> list[dict[str, str]]:
    classes = [
        {"tag": "lc-bistable-processor", "prefix": "LC-BP", "display": "Logic cabinet bistable processor"},
        {"tag": "lc-logic-processor", "prefix": "LC-LP", "display": "Logic cabinet logic processor"},
        {"tag": "lc-digital-output-module", "prefix": "LC-DOM", "display": "Logic cabinet digital output module"},
        {"tag": "selective-processor", "prefix": "SP", "display": "Selective processor"},
        {"tag": "rtb-undervoltage", "prefix": "RTB-UV", "display": "Reactor trip breaker undervoltage"},
        {"tag": "rtb-shunt", "prefix": "RTB-ST", "display": "Reactor trip breaker shunt"},
        {"tag": "rtb-manual-mcr", "prefix": "RTB-MT-MCR", "display": "Reactor trip breaker MCR manual trip"},
        {"tag": "rtb-manual-rsr", "prefix": "RTB-MT-RSR", "display": "Reactor trip breaker RSR manual trip"},
        {"tag": "dps-processor", "prefix": "DPS", "display": "Diverse protection system processing"},
        {"tag": "mcr-operator", "prefix": "MCR-OP", "display": "Main control room operator"},
        {"tag": "rsr-operator", "prefix": "RSR-OP", "display": "Remote shutdown room operator"},
    ]
    for tag in RPS_DIVISIONS:
        classes.append(
            {
                "tag": f"sensors-division-{tag.lower()}",
                "prefix": f"SNS-{tag}",
                "display": f"Division {tag} sensor group",
            }
        )
    return classes


def _label(base: str, division: str) -> str:
    return base if division == "A" else f"{base}{division}"


def _nodes() -> list[dict[str, Any]]:
    nodes: list[dict[str, Any]] = [
        {
            "id": "RX00.00.00",
            "name": "Reactor and control rod drive power",
            "kind": "division",
            "technology": "analog",
            "role": "controlled process",
        },
        {
            "id": "RP00.00.00",
            "name": "Reactor protection system (trip path overview)",
            "kind": "division",
            "technology": "digital",
            "role": "automatic trip path, decomposed into divisions A-D",
        },
        {
            "id": "DP00.00.00",
            "name": "Diverse protection system",
            "kind": "division",
            "technology": "digital",
            "role": "diverse automatic trip path",
        },
        {
            "id": "DP00.00.01",
            "name": "DPS processing unit",
            "kind": "component",
            "technology": "digital",
            "role": "division-level black box driving shunt trip mechanisms",
            "equipment_class": "dps-processor",
        },
        {
            "id": "MC00.00.00",
            "name": "Main control room",
            "kind": "division",
            "technology": "human",
            "role": "manual trip path",
        },
        {
            "id": "MC00.00.01",
            "name": "MCR operator",
            "kind": "component",
            "technology": "human",
            "role": "human controller",
            "equipment_class": "mcr-operator",
        },
        {
            "id": "RS00.00.00",
            "name": "Remote shutdown room",
            "kind": "division",
            "technology": "human",
            "role": "manual trip path",
        },
        {
            "id": "RS00.00.01",
            "name": "RSR operator",
            "kind": "component",
            "technology": "human",
            "role": "human controller",
            "equipment_class": "rsr-operator",
        },
    ]
    for tag in RPS_DIVISIONS:
        nodes.extend(
            [
                {
                    "id": f"{tag}00.00.00",
                    "name": f"RPS division {tag}",
                    "kind": "division",
                    "technology": "digital",
                    "role": "reactor protection system division",
                },
                {
                    "id": f"{tag}00.00.01",
                    "name": f"Division {tag} sensor group",
                    "kind": "component",
                    "technology": "digital",
                    "role": "aggregated process sensors",
                    "equipment_class": f"sensors-division-{tag.lower()}",
                },
                {
                    "id": f"{tag}00.00.02",
                    "name": f"RTB {tag}1 undervoltage trip mechanism",
                    "kind": "component",
                    "technology": "analog",
                    "role": "breaker actuation (RPS path)",
                    "equipment_class": "rtb-undervoltage",
                },
                {
                    "id": f"{tag}00.00.03",
                    "name": f"RTB {tag}1 shunt trip mechanism",
                    "kind": "component",
                    "technology": "analog",
                    "role": "breaker actuation (DPS path)",
                    "equipment_class": "rtb-shunt",
                },
                {
                    "id": f"{tag}00.00.04",
                    "name": f"RTB {tag}1 MCR manual trip mechanism",
                    "kind": "component",
                    "technology": "analog",
                    "role": "breaker actuation (MCR path)",
                    "equipment_class": "rtb-manual-mcr",
                },
                {
                    "id": f"{tag}00.00.05",
                    "name": f"RTB {tag}1 RSR manual trip mechanism",
                    "kind": "component",
                    "technology": "analog",
                    "role": "breaker actuation (RSR path)",
                    "equipment_class": "rtb-manual-rsr",
                },
                {
                    "id": f"{tag}01.00.00",
                    "name": f"Division {tag} logic cabinet",
                    "kind": "unit",
                    "technology": "digital",
                    "role": "bistable/coincidence logic and output modules",
                },
            ]
        )
        for k in range(1, 5):
            nodes.append(
                {
                    "id": f"{tag}01.{k:02d}.00",
                    "name": f"Division {tag} bistable processor BP-{k}",
                    "kind": "module",
                    "technology": "digital",
                    "role": "compares two plant parameters against trip setpoints",
                    "equipment_class": "lc-bistable-processor",
                }
            )
        for k in range(1, 5):
            nodes.append(
                {
                    "id": f"{tag}01.{4 + k:02d}.00",
                    "name": f"Division {tag} logic processor LP-{k}",
                    "kind": "module",
                    "technology": "digital",
                    "role": "2-of-4 local coincidence voting over two parameters",
                    "equipment_class": "lc-logic-processor",
                }
            )
        for k in range(1, 5):
            nodes.append(
                {
                    "id": f"{tag}01.{8 + k:02d}.00",
                    "name": f"Division {tag} digital output module DOM-{k}",
                    "kind": "module",
                    "technology": "digital",
                    "role": "drives selective processor trip demand",
                    "equipment_class": "lc-digital-output-module",
                }
            )
        for rack, sp in ((2, 1), (3, 2)):
            nodes.append(
                {
                    "id": f"{tag}{rack:02d}.00.00",
                    "name": f"Division {tag} selective processor rack {sp}",
                    "kind": "unit",
                    "technology": "digital",
                    "role": "redundant trip actuation rack",
                }
            )
            nodes.append(
                {
                    "id": f"{tag}{rack:02d}.01.00",
                    "name": f"Division {tag} selective processor SP{sp}",
                    "kind": "module",
                    "technology": "digital",
                    "role": "selects among DOM demands and actuates the UV trip",
                    "equipment_class": "selective-processor",
                }
            )
    return nodes


def _bp_output_map() -> list[tuple[int, int, int]]:
    """(parameter, owning BP index, voting LP index) for one division."""
    table = []
    for p in range(1, 9):
        bp = (p - 1) % 4 + 1
        lp = (p + 1) // 2
        table.append((p, bp, lp))
    return table


def _trip_action(
    source: str,
    target: str,
    verb: str,
    source_label: str,
    action_phrase: str,
    layer: int,
    split: bool,
) -> dict[str, Any]:
    return {
        "source": source,
        "target": target,
        "verb": verb,
        "source_label": source_label,
        "action_phrase": action_phrase,
        "continuous": False,
        "split": split,
        "layer": layer,
        "contexts": dict(TRIP_CONTEXTS),
        "hazards": {k: list(v) for k, v in TRIP_HAZARDS.items()},
        "not_applicable": {"d": CASE_D_JUSTIFICATION},
    }


def _abstract_action(source: str, verb: str, source_label: str, phrase: str) -> dict[str, Any]:
    return {
        "source": source,
        "target": "RX00.00.00",
        "verb": verb,
        "source_label": source_label,
        "action_phrase": phrase,
        "continuous": False,
        "split": False,
        "layer": 1,
        "contexts": {},
        "hazards": {},
        "not_applicable": {c: ABSTRACT_JUSTIFICATION for c in ("a", "b", "c", "d")},
    }


def _control_actions() -> list[dict[str, Any]]:
    actions: list[dict[str, Any]] = []
    # Layer 1: the four trip paths over the controlled process.
    actions.append(
        _abstract_action(
            "DP00.00.01",
            "trips the reactor via the shunt trip path",
            "DPS",
            "automatic reactor trip via the shunt path",
        )
    )
    actions.append(
        _trip_action(
            "MC00.00.01",
            "A00.00.04",
            "trips the reactor manually",
            "MCR operator",
            "manual reactor trip command",
            layer=1,
            split=True,
        )
    )
    actions.append(
        _abstract_action(
            "RP00.00.00",
            "trips the reactor automatically",
            "RPS",
            "automatic reactor trip via the undervoltage path",
        )
    )
    actions.append(
        _trip_action(
            "RS00.00.01",
            "A00.00.05",
            "trips the reactor manually",
            "RSR operator",
            "manual reactor trip command",
            layer=1,
            split=True,
        )
    )
    # Layer 2: the DPS black box enacts its trip on the shunt mechanisms.
    actions.append(
        _trip_action(
            "DP00.00.01",
            "A00.00.03",
            "demands the RTB shunt trip mechanisms to open",
            "DPS",
            "shunt trip command to the RTBs",
            layer=2,
            split=True,
        )
    )
    # Layer 3: module-level actions of each RPS division.
    for tag in RPS_DIVISIONS:
        for p, bp, lp in sorted(_bp_output_map(), key=lambda row: (row[1], row[2])):
            actions.append(
                _trip_action(
                    f"{tag}01.{bp:02d}.00",
                    f"{tag}01.{4 + lp:02d}.00",
                    f"sends trip signal for parameter {p} to {_label(f'LP-{lp}', tag)}",
                    _label(f"BP-{bp}", tag),
                    f"trip signal for parameter {p} to {_label(f'LP-{lp}', tag)}",
                    layer=3,
                    split=True,
                )
            )
        for k in range(1, 5):
            actions.append(
                _trip_action(
                    f"{tag}01.{4 + k:02d}.00",
                    f"{tag}01.{8 + k:02d}.00",
                    f"demands {_label(f'DOM-{k}', tag)} to pass the trip demand",
                    _label(f"LP-{k}", tag),
                    f"trip demand to {_label(f'DOM-{k}', tag)}",
                    layer=3,
                    split=False,
                )
            )
        for k, sp in ((1, 1), (2, 2), (3, 1), (4, 2)):
            actions.append(
                _trip_action(
                    f"{tag}01.{8 + k:02d}.00",
                    f"{tag}{1 + sp:02d}.01.00",
                    f"demands {_label(f'SP{sp}', tag)} to trip the reactor",
                    _label(f"DOM-{k}", tag),
                    f"trip command to {_label(f'SP{sp}', tag)}",
                    layer=3,
                    split=False,
                )
            )
        for sp in (1, 2):
            actions.append(
                _trip_action(
                    f"{tag}{1 + sp:02d}.01.00",
                    f"{tag}00.00.02",
                    f"actuates the undervoltage trip of RTB {tag}1",
                    _label(f"SP{sp}", tag),
                    f"undervoltage trip actuation to RTB {tag}1",
                    layer=3,
                    split=False,
                )
            )
    return actions


def _links(actions: list[dict[str, Any]]) -> list[dict[str, Any]]:
    links: list[dict[str, Any]] = []
    for action in actions:
        links.append(
            {"source": action["source"], "target": action["target"], "type": "control"}
        )
    # Physical distribution of split commands to replica destinations.
    for tag in RPS_DIVISIONS[1:]:
        links.append({"source": "MC00.00.01", "target": f"{tag}00.00.04", "type": "physical-split"})
        links.append({"source": "RS00.00.01", "target": f"{tag}00.00.05", "type": "physical-split"})
        links.append({"source": "DP00.00.01", "target": f"{tag}00.00.03", "type": "physical-split"})
    for tag in RPS_DIVISIONS:
        for p, bp, lp in _bp_output_map():
            for other in RPS_DIVISIONS:
                if other == tag:
                    continue
                links.append(
                    {
                        "source": f"{tag}01.{bp:02d}.00",
                        "target": f"{other}01.{4 + lp:02d}.00",
                        "type": "physical-split",
                    }
                )
    # Feedback: plant state to sensors and to the division-level controllers,
    # sensor measurements to each bistable processor.
    for tag in RPS_DIVISIONS:
        links.append({"source": "RX00.00.00", "target": f"{tag}00.00.01", "type": "feedback"})
        for k in range(1, 5):
            links.append(
                {"source": f"{tag}00.00.01", "target": f"{tag}01.{k:02d}.00", "type": "feedback"}
            )
    links.append({"source": "RX00.00.00", "target": "DP00.00.01", "type": "feedback"})
    links.append({"source": "RX00.00.00", "target": "MC00.00.01", "type": "feedback"})
    links.append({"source": "RX00.00.00", "target": "RS00.00.01", "type": "feedback"})
    return links


def _gates() -> list[dict[str, Any]]:
    def g(gate_id: str, kind: str, children: list[dict[str, Any]], **extra: Any) -> dict[str, Any]:
        entry: dict[str, Any] = {"id": gate_id, "kind": kind, "children": children}
        entry.update(extra)
        return entry

    def ref(gate_id: str) -> dict[str, Any]:
        return {"gate": gate_id}

    def fail(node_id: str, ca_to: str | None = None) -> dict[str, Any]:
        child: dict[str, Any] = {"fail": node_id}
        if ca_to is not None:
            child["ca_to"] = ca_to
        return child

    gates: list[dict[str, Any]] = [
        g(
            "RTS",
            "or",
            [ref("RTS-PATH-AB"), ref("RTS-PATH-CD")],
            description="RTS fails to trip the reactor during an AOO",
        ),
        g("RTS-PATH-AB", "and", [ref("RTB-A-FAILS-TO-OPEN"), ref("RTB-B-FAILS-TO-OPEN")],
          description="Power path through RTB A1 and RTB B1 stays closed"),
        g("RTS-PATH-CD", "and", [ref("RTB-C-FAILS-TO-OPEN"), ref("RTB-D-FAILS-TO-OPEN")],
          description="Power path through RTB C1 and RTB D1 stays closed"),
        g(
            "RPS",
            "or",
            [ref("RPS-PATH-AB"), ref("RPS-PATH-CD")],
            description="RPS fails to trip the reactor via the undervoltage path during an AOO",
        ),
        g("RPS-PATH-AB", "and", [ref("UV-A-FAILS"), ref("UV-B-FAILS")],
          description="Undervoltage trip lost on both breakers of the A-B pair"),
        g("RPS-PATH-CD", "and", [ref("UV-C-FAILS"), ref("UV-D-FAILS")],
          description="Undervoltage trip lost on both breakers of the C-D pair"),
        g(
            "AUTO",
            "or",
            [ref("AUTO-PATH-AB"), ref("AUTO-PATH-CD")],
            description="Automatic trip (RPS and DPS) fails during an AOO",
        ),
        g("AUTO-PATH-AB", "and", [ref("AUTO-RTB-A-FAILS"), ref("AUTO-RTB-B-FAILS")]),
        g("AUTO-PATH-CD", "and", [ref("AUTO-RTB-C-FAILS"), ref("AUTO-RTB-D-FAILS")]),
    ]

    # Per-division breaker and actuation-path failure logic.
    gates.extend(
        [
            g(
                "RTB-$D-FAILS-TO-OPEN",
                "and",
                [
                    ref("UV-$D-FAILS"),
                    ref("ST-$D-FAILS"),
                    ref("MANUAL-MCR-$D-FAILS"),
                    ref("MANUAL-RSR-$D-FAILS"),
                ],
                replicate="per-division",
                description="RTB $D1 fails to open",
            ),
            g(
                "AUTO-RTB-$D-FAILS",
                "and",
                [ref("UV-$D-FAILS"), ref("ST-$D-FAILS")],
                replicate="per-division",
                description="Both automatic trip paths of RTB $D1 fail",
            ),
            g(
                "UV-$D-FAILS",
                "or",
                [fail("$D00.00.02"), ref("UV-SIGNAL-$D-ABSENT")],
                replicate="per-division",
                description="Undervoltage trip of RTB $D1 fails",
            ),
            g(
                "UV-SIGNAL-$D-ABSENT",
                "and",
                [ref("SP1-$D-NO-TRIP"), ref("SP2-$D-NO-TRIP")],
                replicate="per-division",
                description="Neither selective processor of division $D actuates the UV trip",
            ),
            g(
                "SP1-$D-NO-TRIP",
                "or",
                [fail("$D02.01.00"), ref("SP1-$D-NO-DEMAND")],
                replicate="per-division",
            ),
            g(
                "SP2-$D-NO-TRIP",
                "or",
                [fail("$D03.01.00"), ref("SP2-$D-NO-DEMAND")],
                replicate="per-division",
            ),
            g(
                "SP1-$D-NO-DEMAND",
                "and",
                [ref("DOM1-$D-SILENT"), ref("DOM3-$D-SILENT")],
                replicate="per-division",
            ),
            g(
                "SP2-$D-NO-DEMAND",
                "and",
                [ref("DOM2-$D-SILENT"), ref("DOM4-$D-SILENT")],
                replicate="per-division",
            ),
            g(
                "ST-$D-FAILS",
                "or",
                [fail("$D00.00.03"), fail("DP00.00.01")],
                replicate="per-division",
                description="Shunt trip of RTB $D1 fails",
            ),
            g(
                "MANUAL-MCR-$D-FAILS",
                "or",
                [fail("$D00.00.04"), fail("MC00.00.01")],
                replicate="per-division",
                description="MCR manual trip of RTB $D1 fails",
            ),
            g(
                "MANUAL-RSR-$D-FAILS",
                "or",
                [fail("$D00.00.05"), fail("RS00.00.01")],
                replicate="per-division",
                description="RSR manual trip of RTB $D1 fails",
            ),
        ]
    )
    for k in range(1, 5):
        gates.append(
            g(
                f"DOM{k}-$D-SILENT",
                "or",
                [fail(f"$D01.{8 + k:02d}.00"), ref(f"LP{k}-$D-NO-TRIP")],
                replicate="per-division",
            )
        )
        gates.append(
            g(
                f"LP{k}-$D-NO-TRIP",
                "or",
                [fail(f"$D01.{4 + k:02d}.00"), ref(f"LP{k}-VOTES-SHORT")],
                replicate="per-division",
            )
        )
    for k in range(1, 5):
        p, q = 2 * k - 1, 2 * k
        gates.append(
            g(
                f"LP{k}-VOTES-SHORT",
                "and",
                [ref(f"PARAM-{p}-UNDERVOTED"), ref(f"PARAM-{q}-UNDERVOTED")],
                description=f"LP-{k} coincidence voting cannot reach a trip decision",
            )
        )
    for p, bp, lp in _bp_output_map():
        gates.append(
            g(
                f"PARAM-{p}-UNDERVOTED",
                "vote",
                [ref(f"BP-SIG-{p}-{tag}-LOST") for tag in RPS_DIVISIONS],
                k=3,
                description=f"Fewer than 2 of 4 divisions supply trip parameter {p}",
            )
        )
        gates.append(
            g(
                f"BP-SIG-{p}-$D-LOST",
                "or",
                [
                    fail(f"$D01.{bp:02d}.00", ca_to=f"$D01.{4 + lp:02d}.00"),
                    fail("$D00.00.01"),
                ],
                replicate="per-division",
                description=f"Trip signal for parameter {p} from division $D is lost",
            )
        )
    return gates


def build_rts_document() -> dict[str, Any]:
    """Construct the reference model document programmatically."""
    actions = _control_actions()
    return {
        "resha_model_version": 1,
        "equipment_classes": _equipment_classes(),
        "nodes": _nodes(),
        "links": _links(actions),
        "losses": [{"id": i, "description": d} for i, d in LOSSES],
        "hazards": [
            {"id": i, "description": d, "losses": ls} for i, d, ls in HAZARDS
        ],
        "control_actions": actions,
        "gates": _gates(),
        "ccf_policy": {
            "include_intra_division": True,
            "include_cross_all_divisions": True,
            "include_partial_interdivision": False,
            "software_categories": ["a", "c"],
        },
    }


def build_rts_reference_model() -> SystemModel:
    """Parse the packaged reference model file."""
    text = resources.files("resha.data").joinpath("rts_model.json").read_text("utf-8")
    return parse_system_model(json.loads(text))


def write_reference_model(path: str | Path) -> Path:
    """Regenerate the packaged model file from the programmatic builder."""
    path = Path(path)
    path.write_text(json.dumps(build_rts_document(), indent=2) + "\n", encoding="utf-8")
    return path
