"""Golden data from the published reference analysis of the reactor trip system.

The losses, hazards, first-order cut sets of the RPS scope and two worked UCA
rows are reproduced verbatim; ``docs/fixture_notes.md`` records how the
packaged model ``resha/data/rts_model.json`` reconstructs them.
"""

from __future__ import annotations

from typing import Any

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
