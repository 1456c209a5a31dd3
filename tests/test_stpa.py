from __future__ import annotations

import pytest

from resha.stpa import (
    StpaError,
    build_layered_control_structure,
    enumerate_ucas,
    identified_uca_count,
    select_ucas_for_top_event,
    uca_table_to_csv,
    uca_table_to_markdown,
)
from resha.sysmodel import LinkType, parse_system_model

TRIP_CONTEXTS = {
    "needed": "during AOO",
    "unneeded": "when there is NO AOO",
    "timing": "after AOO has existed for some time",
}
TRIP_HAZARDS = {"a": ["H1"], "b": ["H1"], "c": ["H1"]}


def small_doc(divisions=("A",), units_per_division=1):
    doc = {
        "resha_model_version": 1,
        "equipment_classes": [
            {"tag": "ctrl", "prefix": "CTL", "display": "Controller"},
            {"tag": "plant", "prefix": "PLT", "display": "Plant"},
        ],
        "nodes": [
            {"id": "RX00.00.00", "name": "Plant", "kind": "division", "technology": "analog"},
        ],
        "links": [],
        "losses": [{"id": "L1", "description": "loss"}],
        "hazards": [{"id": "H1", "description": "hazard", "losses": ["L1"]}],
        "control_actions": [],
        "gates": [],
        "ccf_policy": {},
    }
    for tag in divisions:
        doc["nodes"].append(
            {"id": f"{tag}00.00.00", "name": f"Division {tag}", "kind": "division", "technology": "digital"}
        )
        doc["control_actions"].append(
            {
                "source": f"{tag}00.00.00",
                "target": "RX00.00.00",
                "verb": "acts on the plant",
                "source_label": f"Division {tag}",
                "action_phrase": "plant command",
                "contexts": dict(TRIP_CONTEXTS),
                "hazards": {k: list(v) for k, v in TRIP_HAZARDS.items()},
                "not_applicable": {"d": "Not a continuous action."},
            }
        )
        doc["links"].append(
            {"source": f"{tag}00.00.00", "target": "RX00.00.00", "type": "control"}
        )
        for u in range(1, units_per_division + 1):
            doc["nodes"].append(
                {"id": f"{tag}{u:02d}.00.00", "name": f"{tag} unit {u}", "kind": "unit", "technology": "digital"}
            )
            doc["control_actions"].append(
                {
                    "source": f"{tag}{u:02d}.00.00",
                    "target": "RX00.00.00",
                    "verb": "acts on the plant",
                    "source_label": f"{tag}-U{u}",
                    "action_phrase": f"unit {u} command",
                    "contexts": dict(TRIP_CONTEXTS),
                    "hazards": {k: list(v) for k, v in TRIP_HAZARDS.items()},
                    "not_applicable": {"d": "Not a continuous action."},
                }
            )
            doc["links"].append(
                {"source": f"{tag}{u:02d}.00.00", "target": "RX00.00.00", "type": "control"}
            )
    return doc


def test_single_controller_single_layer():
    model = parse_system_model(small_doc(divisions=("A",), units_per_division=0))
    cs = build_layered_control_structure(model)
    assert len(cs.layers) == 1
    assert len(cs.layers[0].actions) == 1


def test_two_divisions_two_units_two_layers():
    model = parse_system_model(small_doc(divisions=("A", "B"), units_per_division=2))
    cs = build_layered_control_structure(model)
    assert len(cs.layers) == 2
    layer2 = cs.layers[1]
    sources = {a.source.division for a in layer2.actions}
    assert sources == {"A", "B"}
    assert len(layer2.actions) == 4


def test_numbering_by_layer_then_source_then_target():
    model = parse_system_model(small_doc(divisions=("B", "A"), units_per_division=1))
    cs = build_layered_control_structure(model)
    ordered = [(a.ca_id, a.source.text) for a in cs.actions]
    assert ordered == [
        ("CA1", "A00.00.00"),
        ("CA2", "B00.00.00"),
        ("CA3", "A01.00.00"),
        ("CA4", "B01.00.00"),
    ]


def test_no_control_links_is_error():
    doc = small_doc()
    doc["control_actions"] = []
    doc["links"] = []
    model = parse_system_model(doc)
    with pytest.raises(StpaError):
        build_layered_control_structure(model)


def test_control_links_without_control_actions_is_error():
    doc = small_doc()
    doc["control_actions"] = []
    model = parse_system_model(doc)
    with pytest.raises(StpaError, match="declares no control actions"):
        build_layered_control_structure(model)


def test_four_slots_per_action():
    model = parse_system_model(small_doc(divisions=("A", "B")))
    cs = build_layered_control_structure(model)
    records = enumerate_ucas(cs)
    assert len(records) == 4 * len(cs.actions)
    applicable = [r for r in records if r.applicable]
    not_applicable = [r for r in records if not r.applicable]
    assert len(applicable) + len(not_applicable) == len(records)
    assert all(r.justification for r in not_applicable)
    assert all(r.hazards for r in applicable)


def test_discrete_action_case_d_not_applicable():
    model = parse_system_model(small_doc())
    cs = build_layered_control_structure(model)
    records = enumerate_ucas(cs)
    case_d = [r for r in records if r.category == "d"]
    assert all(not r.applicable for r in case_d)
    assert all(r.text == "Not applicable." for r in case_d)


def test_discrete_action_without_justification_gets_the_default_for_d():
    doc = small_doc(units_per_division=0)
    del doc["control_actions"][0]["not_applicable"]
    records = enumerate_ucas(build_layered_control_structure(parse_system_model(doc)))
    (case_d,) = [r for r in records if r.category == "d"]
    assert not case_d.applicable and case_d.hazards == ()
    assert case_d.justification == (
        "Not a continuous control action; duration-based unsafe behavior does not arise."
    )


def test_continuous_action_all_categories_applicable():
    doc = small_doc()
    doc["control_actions"][0]["continuous"] = True
    doc["control_actions"][0]["not_applicable"] = {}
    doc["control_actions"][0]["hazards"]["d"] = ["H1"]
    doc["control_actions"][0]["contexts"]["duration"] = "while the action is demanded"
    model = parse_system_model(doc)
    cs = build_layered_control_structure(model)
    records = enumerate_ucas(cs)
    by_cat = {r.category: r for r in records if r.action.ca_id == "CA1"}
    assert all(r.applicable for r in by_cat.values())


def test_selection_failure_to_act_takes_a_and_c(rts_ucas):
    selected = select_ucas_for_top_event(rts_ucas)
    assert {r.category for r in selected} == {"a", "c"}
    assert all(r.applicable for r in selected)


def test_selection_empty_table():
    assert select_ucas_for_top_event(()) == ()


def test_rendering_injective(rts_ucas):
    texts = [r.text for r in rts_ucas if r.applicable]
    assert len(texts) == len(set(texts))


def test_enumeration_deterministic(rts_model):
    cs1 = build_layered_control_structure(rts_model)
    cs2 = build_layered_control_structure(rts_model)
    r1 = enumerate_ucas(cs1)
    r2 = enumerate_ucas(cs2)
    assert [(r.uca_id, r.text) for r in r1] == [(r.uca_id, r.text) for r in r2]


def test_csv_export_columns(rts_ucas):
    text = uca_table_to_csv(rts_ucas[:8])
    header = text.splitlines()[0]
    assert header == "ca_id,uca_id,category,applicable,text,hazards,justification"
    assert len(text.splitlines()) == 9


def test_markdown_four_column_layout(rts_cs, rts_ucas):
    text = uca_table_to_markdown(rts_cs, rts_ucas)
    assert text.splitlines()[0].count("|") == 6
    assert "UCA18a" in text


def test_markdown_cell_of_a_missing_category_is_empty():
    cs = build_layered_control_structure(parse_system_model(small_doc()))
    records = [r for r in enumerate_ucas(cs) if r.category != "b"]
    row = uca_table_to_markdown(cs, records).splitlines()[2]
    assert row == (
        "| CA1: Division A acts on the plant | UCA1a: Division A does not provide plant command during AOO [H1]. |  "
        "| UCA1c: Division A provides plant command after AOO has existed for some time [H1]. "
        "| UCA1d: Not applicable. |"
    )


def test_rts_layer1_holds_four_trip_paths(rts_cs):
    layer1 = rts_cs.layers[0]
    labels = sorted(a.spec.source_label for a in layer1.actions)
    assert labels == ["DPS", "MCR operator", "RPS", "RSR operator"]


def test_action_numbering_dense_and_ordered(rts_cs):
    table = [(a.ca_id, a.layer, a.source.text, a.target.text, a.spec.verb) for a in rts_cs.actions]
    assert [row[0] for row in table] == [f"CA{i}" for i in range(1, len(table) + 1)]
    assert table[17][0] == "CA18"
    assert table[17][4] == "demands SP1 to trip the reactor"


def _destinations(model, action):
    """Per-destination actions a declaration stands for: a split action also
    stands for each physical-split link from its source to a target at the
    declared target's unit/module/component position."""
    if not action.spec.split:
        return 1
    position = (action.target.unit, action.target.module, action.target.component)
    return 1 + sum(
        1
        for l in model.links
        if l.type is LinkType.PHYSICAL_SPLIT and l.source == action.source
        and (l.target.unit, l.target.module, l.target.component) == position
    )


def test_rts_split_simplification_arithmetic(rts_model, rts_cs):
    bp_actions = [
        a for a in rts_cs.actions
        if rts_model.node(a.source).equipment_class == "lc-bistable-processor"
    ]
    assert len(bp_actions) == 32
    split_slots = 4 * len(bp_actions)
    assert split_slots == 128
    assert sum(4 * _destinations(rts_model, a) for a in bp_actions) == 512


def test_rts_unsplit_total_includes_bp_expansion(rts_model, rts_cs):
    unsplit = sum(4 * _destinations(rts_model, a) for a in rts_cs.actions)
    assert unsplit - len(
        enumerate_ucas(rts_cs)
    ) == (512 - 128) + 3 * 4 * 3  # BP fan-out plus MCR/RSR/DPS three-way splits


def test_rts_uca_counts(rts_ucas):
    assert len(rts_ucas) == 308
    assert identified_uca_count(rts_ucas) == 225
