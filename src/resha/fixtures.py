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

The model is the packaged file ``resha/data/rts_model.json``, edited by
hand in the format of ``docs/model_format.md``. Reconstruction choices that
the published reference analysis leaves open (exact BP/LP counts, breaker
network, manual-trip routing) are recorded in ``docs/fixture_notes.md``; the
published first-order results and two worked UCA rows, reproduced verbatim,
are the golden data in ``tests/golden.py``.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Any

from .sysmodel import SystemModel, parse_system_model


def build_rts_document() -> dict[str, Any]:
    """A fresh copy of the packaged reference model document, free to mutate."""
    text = resources.files("resha.data").joinpath("rts_model.json").read_text("utf-8")
    return json.loads(text)


def build_rts_reference_model() -> SystemModel:
    """Parse the packaged reference model file."""
    return parse_system_model(build_rts_document())
