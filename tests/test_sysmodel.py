from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resha import sysmodel
from resha.fixtures import build_rts_document
from resha.sysmodel import (
    GroupScope,
    ModelIssue,
    ModelValidationError,
    NodeId,
    NodeIdError,
    derive_redundancy_groups,
    format_node_id,
    parse_node_id,
    parse_system_model,
)

MINIMAL_DOC = {
    "resha_model_version": 1,
    "equipment_classes": [{"tag": "pump", "prefix": "PMP", "display": "Pump"}],
    "nodes": [
        {"id": "A00.00.00", "name": "Division A", "kind": "division", "technology": "digital"},
        {
            "id": "A00.00.01",
            "name": "Pump 1",
            "kind": "component",
            "technology": "digital",
            "equipment_class": "pump",
        },
    ],
    "links": [],
    "losses": [{"id": "L1", "description": "loss"}],
    "hazards": [{"id": "H1", "description": "hazard", "losses": ["L1"]}],
    "control_actions": [],
    "gates": [],
    "ccf_policy": {},
}


def doc_with(**changes):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc.update(changes)
    return doc


def test_parse_node_id_basic():
    assert parse_node_id("A01.02.03") == NodeId("A", 1, 2, 3)


def test_format_zero_padding():
    assert format_node_id(NodeId("B", 1, 0, 0)) == "B01.00.00"


def test_parse_rejects_leading_digit():
    with pytest.raises(NodeIdError):
        parse_node_id("1A.2")


@pytest.mark.parametrize(
    "bad", ["", "A1.02.03", "A01.2.03", "a01.02.03", "A01.02.03.04", "A01.02.03\n"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(NodeIdError):
        parse_node_id(bad)


@given(
    st.from_regex(r"[A-Z][A-Z0-9]?", fullmatch=True),
    st.integers(0, 99),
    st.integers(0, 99),
    st.integers(0, 99),
)
def test_node_id_round_trip(tag, unit, module, component):
    node_id = NodeId(tag, unit, module, component)
    assert parse_node_id(format_node_id(node_id)) == node_id


def test_node_id_text_is_rendered_once_and_still_validated(monkeypatch):
    for bad in (NodeId("B", 100, 0, 0), NodeId("b", 1, 0, 0)):
        for _ in range(2):  # a failed render caches nothing
            with pytest.raises(NodeIdError):
                bad.text
            with pytest.raises(NodeIdError):
                str(bad)
    node = NodeId("B", 1, 2, 3)
    assert node.text == str(node) == "B01.02.03"
    assert node.text is node.text
    fresh = NodeId("B", 1, 2, 3)
    assert node == fresh and hash(node) == hash(fresh)
    assert not node < fresh and not fresh < node
    later = NodeId("B", 1, 2, 4)
    assert node < later and sorted([later, fresh, node]) == [node, fresh, later]
    assert {node: 1}[fresh] == 1

    # Parsed ids come from a cache, so each distinct id is rendered at most once.
    sysmodel._parse_node_text.cache_clear()
    rendered = []
    render = sysmodel.format_node_id
    monkeypatch.setattr(sysmodel, "format_node_id", lambda n: rendered.append(n) or render(n))
    for _ in range(2):  # a miss, then a hit
        parsed = parse_node_id("B01.02.03")
        assert parsed == fresh and hash(parsed) == hash(fresh)
        assert parsed.text == str(parsed) == "B01.02.03"
    assert rendered == [fresh]
    monkeypatch.undo()
    for bad in ("B01.02.3", "B01.02.03\n", None, [], {}):
        for _ in range(2):  # a failed parse caches nothing
            with pytest.raises(NodeIdError):
                parse_node_id(bad)
    doc = build_rts_document()
    sysmodel._parse_node_text.cache_clear()
    cold = parse_system_model(doc).fingerprint()
    assert parse_system_model(doc).fingerprint() == cold


def test_parse_renders_non_ascii_digits_canonically():
    # ``\d`` matches any Unicode decimal digit; the text is rebuilt from the ints.
    for text in ("A\u0660\u0661.\u0660\u0662.\u0660\u0663", "A\uff10\uff11.\uff10\uff12.\uff10\uff13"):
        for _ in range(2):  # a miss, then a hit
            parsed = parse_node_id(text)
            assert parsed == NodeId("A", 1, 2, 3)
            assert parsed.text == str(parsed) == "A01.02.03"


def test_text_order_matches_structural_order():
    ids = [
        NodeId("A", 1, 2, 3),
        NodeId("A", 0, 0, 1),
        NodeId("B", 0, 0, 0),
        NodeId("A", 2, 0, 0),
        NodeId("AB", 0, 1, 0),
    ]
    structural = sorted(ids)
    textual = sorted(ids, key=format_node_id)
    assert structural == textual
    # Not when a tag is another tag plus a digit: sorting by text would reorder output.
    assert NodeId("A", 99, 0, 0) < NodeId("A0", 0, 0, 0)
    assert format_node_id(NodeId("A0", 0, 0, 0)) < format_node_id(NodeId("A", 99, 0, 0))


def test_minimal_model_parses():
    model = parse_system_model(MINIMAL_DOC)
    assert len(model.nodes) == 2


def test_dangling_link_names_node():
    doc = doc_with(
        links=[{"source": "A00.00.01", "target": "Z99.00.00", "type": "control"}]
    )
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert any("Z99.00.00" in str(issue) for issue in exc.value.issues)


def test_duplicate_node_id_rejected():
    doc = doc_with()
    doc["nodes"].append(dict(doc["nodes"][1]))
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert any("duplicate" in str(issue) for issue in exc.value.issues)


def test_unknown_field_rejected():
    doc = doc_with()
    doc["nodes"][0]["colour"] = "red"
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert any("unknown field" in str(issue) for issue in exc.value.issues)


def test_component_requires_equipment_class():
    doc = doc_with()
    del doc["nodes"][1]["equipment_class"]
    with pytest.raises(ModelValidationError):
        parse_system_model(doc)


def test_kind_must_match_id_shape():
    doc = doc_with()
    doc["nodes"][1]["kind"] = "module"
    with pytest.raises(ModelValidationError):
        parse_system_model(doc)


def test_missing_parent_rejected():
    doc = doc_with()
    doc["nodes"].append(
        {
            "id": "A01.01.00",
            "name": "orphan module",
            "kind": "module",
            "technology": "digital",
        }
    )
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert exc.value.issues == (
        ModelIssue("nodes[2].id", "missing parent node A01.00.00 (hierarchy must nest)"),
    )


_ARRAYS = ("equipment_classes", "nodes", "links", "losses", "hazards", "control_actions", "gates")


@pytest.mark.parametrize("name", _ARRAYS)
def test_array_shape_issues(name):
    """Each top-level array reports a non-array, and a non-object entry, at its path."""
    doc = build_rts_document()
    doc[name] = {}
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert exc.value.issues[0] == ModelIssue(name, "must be an array")
    doc = build_rts_document()
    doc[name][0] = 5
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert exc.value.issues[0] == ModelIssue(f"{name}[0]", "must be an object")


def test_gate_with_rejected_child_is_not_checked_further():
    """Counting only the accepted children would add ``k=3 exceeds 2 children``."""
    doc = build_rts_document()
    doc["gates"][32]["children"][:2] = [5, 5]  # PARAM-1-UNDERVOTED, a 3-of-4 vote
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert [str(issue) for issue in exc.value.issues] == [
        "gates[32].children[0]: must be an object",
        "gates[32].children[1]: must be an object",
    ]


def test_losses_must_be_contiguous():
    doc = doc_with(losses=[{"id": "L2", "description": "loss"}], hazards=[])
    with pytest.raises(ModelValidationError):
        parse_system_model(doc)


def test_syntax_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(path)
    assert "syntax error" in str(exc.value)


def _two_division_three_module_doc():
    doc = doc_with(
        nodes=[
            {"id": "A00.00.00", "name": "A", "kind": "division", "technology": "digital"},
            {"id": "B00.00.00", "name": "B", "kind": "division", "technology": "digital"},
        ],
        equipment_classes=[{"tag": "proc", "prefix": "PRC", "display": "Processor"}],
    )
    for tag in ("A", "B"):
        doc["nodes"].append(
            {"id": f"{tag}01.00.00", "name": f"{tag} unit", "kind": "unit", "technology": "digital"}
        )
        for k in (1, 2, 3):
            doc["nodes"].append(
                {
                    "id": f"{tag}01.{k:02d}.00",
                    "name": f"{tag} module {k}",
                    "kind": "module",
                    "technology": "digital",
                    "equipment_class": "proc",
                }
            )
    return doc


def test_group_counts_two_divisions_three_modules():
    model = parse_system_model(_two_division_three_module_doc())
    groups = derive_redundancy_groups(model)
    intra = [g for g in groups if g.scope is GroupScope.INTRA_DIVISION]
    cross = [g for g in groups if g.scope is GroupScope.CROSS_DIVISION]
    assert len(intra) == 2
    assert all(len(g.members) == 3 for g in intra)
    assert len(cross) == 1
    assert len(cross[0].members) == 6


def test_singleton_classes_produce_no_groups():
    model = parse_system_model(MINIMAL_DOC)
    assert derive_redundancy_groups(model) == ()


def test_group_derivation_deterministic():
    model_a = parse_system_model(_two_division_three_module_doc())
    model_b = parse_system_model(_two_division_three_module_doc())
    assert derive_redundancy_groups(model_a) == derive_redundancy_groups(model_b)


def test_group_members_sorted():
    model = parse_system_model(_two_division_three_module_doc())
    for group in derive_redundancy_groups(model):
        assert list(group.members) == sorted(group.members)


def test_group_coverage(rts_model):
    groups = derive_redundancy_groups(rts_model)
    grouped_nodes = {m for g in groups for m in g.members}
    by_class = {}
    for node in rts_model.nodes.values():
        if node.equipment_class:
            by_class.setdefault(node.equipment_class, []).append(node.id)
    for tag, members in by_class.items():
        for member in members:
            if len(members) >= 2:
                assert member in grouped_nodes
            else:
                assert member not in grouped_nodes


def test_rts_selective_processor_cross_group(rts_model):
    groups = derive_redundancy_groups(rts_model)
    cross = [
        g
        for g in groups
        if g.equipment.tag == "selective-processor" and g.scope is GroupScope.CROSS_DIVISION
    ]
    assert len(cross) == 1
    assert len(cross[0].members) == 8


def test_canonical_serialization_round_trips(rts_model):
    doc = rts_model.to_document()
    again = parse_system_model(doc)
    assert again.fingerprint() == rts_model.fingerprint()


def test_reference_model_gate_declarations_resolved(rts_model):
    # A copy stays only if every node and gate it names exists, repeated until
    # stable: the DP-division breaker copies name gates no DP copy defines.
    resolved = rts_model.resolved_gates
    assert len(rts_model.gates) == 48 and len(resolved) == 129
    assert "RTB-A-FAILS-TO-OPEN" in resolved and "RTB-DP-FAILS-TO-OPEN" not in resolved
    bp = resolved["BP-SIG-1-A-LOST"]
    assert bp.replicate is None and (bp.children[0].fail, bp.children[0].ca_to) == (
        "A01.01.00", "A01.05.00")


def _divisions_doc(tags, gates):
    doc = doc_with(gates=gates)
    doc["nodes"] = []
    for tag in tags:
        doc["nodes"] += [
            {"id": f"{tag}00.00.00", "name": tag, "kind": "division", "technology": "digital"},
            dict(MINIMAL_DOC["nodes"][1], id=f"{tag}00.00.01"),
        ]
    return doc


def test_template_copies_drop_until_stable():
    # C-B lacks its node, so B-B, which names it, goes too, and then A-B.
    doc = _divisions_doc("AB", [
        {"id": "A-$D", "kind": "or", "children": [{"gate": "B-$D"}], "replicate": "per-division"},
        {"id": "B-$D", "kind": "or", "children": [{"gate": "C-$D"}], "replicate": "per-division"},
        {"id": "C-$D", "kind": "or", "children": [{"fail": "$D00.00.01"}, {"fail": "A00.00.01"}],
         "replicate": "per-division"},
    ])
    doc["nodes"].pop()  # B00.00.01
    assert list(parse_system_model(doc).resolved_gates) == ["A-A", "B-A", "C-A"]


def test_gate_id_produced_twice_is_one_issue():
    doc = _divisions_doc("ABC", [
        {"id": "G-A", "kind": "or", "children": [{"fail": "A00.00.01"}]},
        {"id": "G-$D", "kind": "or", "children": [{"fail": "$D00.00.01"}], "replicate": "per-division"},
        {"id": "H", "kind": "or", "children": [{"fail": "A00.00.01"}], "replicate": "per-division"},
    ])
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert [str(i) for i in exc.value.issues] == [
        "gates[1].id: gate id 'G-A' expands more than once",
        "gates[2].id: gate id 'H' expands more than once",
    ]


def test_template_without_copies_is_one_issue_not_one_per_stranded_gate():
    doc = build_rts_document()
    doc["gates"][13]["children"][0] = {"fail": "garbage"}  # SP1-$D-NO-TRIP
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    (issue,) = exc.value.issues
    assert issue.path == "gates[13]" and "'SP1-$D-NO-TRIP' instantiates for no" in issue.message


_DELETE = object()

# A small model that parses, with one of each kind of entry, so that each
# mutation below is one fault.
_PIN_DOC = {
    "resha_model_version": 1,
    "equipment_classes": [{"tag": "pump", "prefix": "PMP", "display": "Pump"}, {"tag": "valve"}],
    "nodes": [
        {"id": "A00.00.00", "name": "Division A", "kind": "division", "technology": "digital"},
        {"id": "A01.00.00", "name": "Unit", "kind": "unit", "technology": "digital"},
        {"id": "A01.01.00", "name": "Module", "kind": "module", "technology": "analog"},
        {"id": "A00.00.01", "name": "Pump", "kind": "component", "technology": "digital",
         "equipment_class": "pump"},
        {"id": "B00.00.00", "name": "Division B", "kind": "division", "technology": "digital"},
        {"id": "B00.00.01", "name": "Pump", "kind": "component", "technology": "digital",
         "equipment_class": "pump"},
    ],
    "links": [
        {"source": "A01.00.00", "target": "A00.00.01", "type": "control"},
        {"source": "A00.00.01", "target": "A01.00.00", "type": "feedback"},
    ],
    "losses": [{"id": "L1", "description": "loss"}, {"id": "L2", "description": "other"}],
    "hazards": [{"id": "H1", "description": "hazard", "losses": ["L1"]},
                {"id": "H2", "description": "other", "losses": ["L1"]}],
    "control_actions": [
        {"source": "A01.00.00", "target": "A00.00.01", "verb": "starts", "source_label": "U",
         "action_phrase": "start", "contexts": {"needed": "on demand"},
         "hazards": {"a": ["H1"], "b": ["H1"], "c": ["H1"]}, "not_applicable": {"d": "not continuous"}},
    ],
    "gates": [
        {"id": "TOP", "kind": "or", "children": [{"fail": "A00.00.01"}, {"gate": "G-A"}]},
        {"id": "G-$D", "kind": "or", "replicate": "per-division",
         "children": [{"fail": "$D00.00.01"}]},
        {"id": "V", "kind": "vote", "k": 1, "children": [{"fail": "A01.00.00", "ca_to": "A00.00.01"}]},
    ],
    "ccf_policy": {},
}

_MALFORMED = ("expected a leading 1-2 character division tag (uppercase letter first) "
              "followed by three dot-separated two-digit fields")

# (document path, new value or _DELETE, the one issue it gives). An index one
# past the end of an array appends.
_ONE_FAULT_ISSUES = [
    (("colour",), "red", "colour: unknown field"),
    (("resha_model_version",), 2, "resha_model_version: expected 1, got 2"),
    # JSON true and 1.0 compare equal to 1 in Python; neither is the integer 1.
    (("resha_model_version",), True, "resha_model_version: expected 1, got True"),
    (("resha_model_version",), 1.0, "resha_model_version: expected 1, got 1.0"),
    (("nodes",), {}, "nodes: must be an array"),
    (("nodes", 0), 5, "nodes[0]: must be an object"),
    (("equipment_classes", 1, "tag"), 5, "equipment_classes[1]: missing class tag"),
    (("equipment_classes", 1, "tag"), "pump", "equipment_classes[1]: duplicate equipment class 'pump'"),
    (("equipment_classes", 0, "prefix"), [1], "equipment_classes[0].prefix: must be a string"),
    (("equipment_classes", 0, "size"), 1, "equipment_classes[0].size: unknown field"),
    (("equipment_classes", 1, "prefix"), "PMP",
     "equipment_classes[1].prefix: prefix 'PMP' is already used by class 'pump'"),
    (("equipment_classes", 1, "prefix"), "PMP-DIVA",
     "equipment_classes[1].prefix: prefix 'PMP-DIVA' can build the CCF names of class 'pump' (prefix 'PMP')"),
    (("nodes", 3, "id"), "garbage", f"nodes[3].id: malformed node id 'garbage': {_MALFORMED}"),
    (("nodes", 3, "id"), 5, "nodes[3].id: node id must be a string, got int"),
    (("nodes", 3, "id"), _DELETE, f"nodes[3].id: malformed node id '': {_MALFORMED}"),
    (("nodes", 0, "kind"), "gizmo", "nodes[0].kind: unknown kind 'gizmo'"),
    (("nodes", 3, "kind"), "module",
     "nodes[3].kind: kind 'module' inconsistent with id A00.00.01 (id implies 'component')"),
    (("nodes", 0, "technology"), "quantum", "nodes[0].technology: unknown technology 'quantum'"),
    (("nodes", 3, "equipment_class"), _DELETE,
     "nodes[3].equipment_class: components require an equipment class"),
    (("nodes", 1, "equipment_class"), "pump",
     "nodes[1].equipment_class: unit nodes may not carry an equipment class"),
    (("nodes", 3, "equipment_class"), 5, "nodes[3].equipment_class: must be a string"),
    (("nodes", 3, "equipment_class"), "gear", "nodes[3].equipment_class: undeclared equipment class 'gear'"),
    (("nodes", 6), dict(_PIN_DOC["nodes"][3], name="Twin"), "nodes[6].id: duplicate node id A00.00.01"),
    (("nodes", 0, "name"), 5, "nodes[0].name: must be a string"),
    (("nodes", 6), dict(_PIN_DOC["nodes"][2], id="A02.01.00"),
     "nodes[6].id: missing parent node A02.00.00 (hierarchy must nest)"),
    (("links", 1, "source"), "garbage", f"links[1]: malformed node id 'garbage': {_MALFORMED}"),
    (("links", 1, "type"), "wire", "links[1].type: unknown link type 'wire'"),
    (("links", 1, "target"), "Z01.00.00", "links[1].target: dangling link: no node Z01.00.00"),
    (("links", 1, "layer"), 0, "links[1].layer: layer must be an integer >= 1"),
    (("links", 0, "layer"), True, "links[0].layer: layer must be an integer >= 1"),
    (("losses", 1, "id"), "X2", "losses[1].id: loss id must look like L1, got 'X2'"),
    (("losses", 1, "id"), "L1", "losses[1].id: duplicate loss id L1"),
    (("losses", 1, "id"), "L3", "losses: loss ids must be contiguous from L1"),
    (("losses", 1, "description"), 5, "losses[1].description: must be a string"),
    (("hazards", 1, "id"), "X", "hazards[1].id: hazard id must look like H1, got 'X'"),
    (("hazards", 1, "id"), "H1", "hazards[1].id: duplicate hazard id H1"),
    (("hazards", 1, "losses"), [], "hazards[1].losses: hazards must link at least one loss"),
    (("hazards", 1, "losses"), ["L9"], "hazards[1].losses: unknown loss 'L9'"),
    (("control_actions", 0, "source"), "garbage",
     f"control_actions[0]: malformed node id 'garbage': {_MALFORMED}"),
    (("control_actions", 0, "source"), "Z01.00.00", "control_actions[0].source: no node Z01.00.00"),
    (("control_actions", 0, "target"), "A01.01.00",
     "control_actions[0]: no control link A01.00.00 -> A01.01.00 declared"),
    (("control_actions", 0, "continuous"), "false", "control_actions[0].continuous: must be true or false"),
    (("control_actions", 0, "verb"), 3, "control_actions[0].verb: must be a string"),
    (("control_actions", 0, "layer"), 0, "control_actions[0].layer: layer must be an integer >= 1"),
    (("control_actions", 0, "contexts"), [], "control_actions[0].contexts: must be an object"),
    (("control_actions", 0, "contexts", "when"), "x", "control_actions[0].contexts.when: unknown field"),
    (("control_actions", 0, "contexts", "needed"), 1, "control_actions[0].contexts.needed: must be a string"),
    (("control_actions", 0, "hazards"), [], "control_actions[0].hazards: must be an object"),
    (("control_actions", 0, "hazards", "e"), [], "control_actions[0].hazards.e: unknown category"),
    (("control_actions", 0, "hazards", "a"), "H1", "control_actions[0].hazards.a: must be an array"),
    (("control_actions", 0, "hazards", "a"), ["H9"], "control_actions[0].hazards.a: unknown hazard 'H9'"),
    (("control_actions", 0, "hazards", "a"), _DELETE,
     "control_actions[0].hazards.a: category is applicable but links no hazards"),
    (("control_actions", 0, "not_applicable"), [], "control_actions[0].not_applicable: must be an object"),
    (("control_actions", 0, "not_applicable", "e"), "x",
     "control_actions[0].not_applicable.e: unknown category"),
    (("control_actions", 0, "not_applicable", "d"), 5,
     "control_actions[0].not_applicable.d: must be a string"),
    (("gates", 0, "id"), "", "gates[0].id: missing gate id"),
    (("gates", 2, "id"), "TOP", "gates[2].id: duplicate gate id 'TOP'"),
    (("gates", 0, "kind"), "xor", "gates[0].kind: unknown gate kind 'xor'"),
    (("gates", 2, "k"), 0, "gates[2].k: vote gates need integer k >= 1"),
    (("gates", 0, "k"), 1, "gates[0].k: k only applies to vote gates"),
    (("gates", 1, "replicate"), "per-module", "gates[1].replicate: unknown macro 'per-module'"),
    (("gates", 0, "description"), 5, "gates[0].description: must be a string"),
    (("gates", 0, "children"), [], "gates[0].children: gates need at least one child"),
    (("gates", 0, "colour"), "red", "gates[0].colour: unknown field"),
    (("gates", 0, "children", 0), 5, "gates[0].children[0]: must be an object"),
    (("gates", 0, "children", 0, "x"), 1, "gates[0].children[0].x: unknown field"),
    (("gates", 0, "children", 0, "fail"), "", "gates[0].children[0].fail: must be a non-empty string"),
    (("gates", 0, "children", 0), {}, "gates[0].children[0]: child must reference exactly one of gate/fail"),
    (("gates", 0, "children", 1, "ca_to"), "A00.00.01",
     "gates[0].children[1]: ca_to only applies to fail references"),
    (("gates", 2, "k"), 3, "gates[2].k: k=3 exceeds 1 children"),
    (("gates", 2, "k"), int("9" * 4000), f"gates[2].k: k={'9' * 18}...{'9' * 19} exceeds 1 children"),
    (("gates", 0, "id"), "G-B", "gates[1].id: gate id 'G-B' expands more than once"),
    (("gates", 0, "children", 1, "gate"), "TOP", "gates[0]: cycle detected in gate declarations: TOP -> TOP"),
    (("gates", 1, "children", 0, "fail"), "$D00.00.09",
     "gates[1]: replicated gate 'G-$D' instantiates for no division/unit: "
     "a node or gate it references is absent"),
    (("gates", 0, "children", 0, "fail"), "Z00.00.01", "gates[0].children[0].fail: no node Z00.00.01"),
    (("gates", 2, "children", 0, "ca_to"), "garbage",
     f"gates[2].children[0].ca_to: malformed node id 'garbage': {_MALFORMED}"),
    (("gates", 0, "children", 1, "gate"), "NOPE", "gates[0].children[1].gate: unknown gate 'NOPE'"),
    (("gates", 0, "children"), [{"gate": "X"}, {"gate": "Y"}],
     "gates[0].children[0].gate: unknown gates 'X', 'Y'"),
    (("ccf_policy",), [], "ccf_policy: must be an object"),
    (("ccf_policy", "colour"), 1, "ccf_policy.colour: unknown field"),
    (("ccf_policy", "software_categories"), ["e"],
     "ccf_policy.software_categories: categories must be from a/b/c/d"),
    (("ccf_policy", "software_categories"), ["a", "a"],
     "ccf_policy.software_categories: categories must not repeat"),
    (("ccf_policy", "include_intra_division"), "yes", "ccf_policy.include_intra_division: must be true or false"),
    (("ccf_policy",), {"include_intra_division": False, "include_cross_all_divisions": False},
     "ccf_policy: at least one CCF scope must be enabled"),
]


def test_pin_document_parses():
    assert list(parse_system_model(_PIN_DOC).resolved_gates) == ["TOP", "G-A", "G-B", "V"]


def test_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(path)
    assert [str(i) for i in exc.value.issues] == ["$: document must be a JSON object"]


@pytest.mark.parametrize(("path", "value", "issue"), _ONE_FAULT_ISSUES,
                         ids=[line for _, _, line in _ONE_FAULT_ISSUES])
def test_one_fault_issue_text(path, value, issue):
    """Each one-fault document gives exactly this issue text."""
    doc = json.loads(json.dumps(_PIN_DOC))
    *parents, key = path
    entry = doc
    for step in parents:
        entry = entry[step]
    if value is _DELETE:
        del entry[key]
    elif isinstance(entry, list) and key == len(entry):
        entry.append(value)
    else:
        entry[key] = value
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert [str(i) for i in exc.value.issues] == [issue]


def test_one_fault_in_every_section_reported_in_document_order():
    """Each fault alone leaves every other section checked, so one document
    pins the order of the issues across sections."""
    doc = json.loads(json.dumps(_PIN_DOC))
    doc["equipment_classes"][0]["display"] = 5
    doc["nodes"][1]["role"] = 5
    doc["links"][1]["layer"] = 0
    doc["losses"][1]["description"] = 5
    doc["hazards"][1]["losses"] = ["L9"]
    action = doc["control_actions"][0]
    action["verb"] = 3
    action["contexts"]["needed"] = 1
    action["hazards"]["a"] = ["H9"]
    action["not_applicable"]["d"] = 5
    doc["gates"][2]["children"][0]["ca_to"] = "garbage"  # V, a plain declaration
    doc["gates"][1]["children"][0]["fail"] = "$D00.00.09"  # G-$D, a template
    doc["ccf_policy"]["include_intra_division"] = "yes"
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert [str(i) for i in exc.value.issues] == [
        "equipment_classes[0].display: must be a string",
        "nodes[1].role: must be a string",
        "links[1].layer: layer must be an integer >= 1",
        "losses[1].description: must be a string",
        "hazards[1].losses: unknown loss 'L9'",
        "control_actions[0].verb: must be a string",
        "control_actions[0].contexts.needed: must be a string",
        "control_actions[0].hazards.a: unknown hazard 'H9'",
        "control_actions[0].not_applicable.d: must be a string",
        f"gates[2].children[0].ca_to: malformed node id 'garbage': {_MALFORMED}",
        "gates[1]: replicated gate 'G-$D' instantiates for no division/unit: "
        "a node or gate it references is absent",
        "ccf_policy.include_intra_division: must be true or false",
    ]


def test_gate_references_in_non_ascii_digits_resolve_to_canonical_text():
    """A reference that is no declared text is parsed: ``\\d`` takes any digit."""
    doc = json.loads(json.dumps(_PIN_DOC))
    doc["gates"][1]["children"][0].update(fail="$D٠٠.٠٠.٠١", ca_to="$D٠٠.٠٠.٠٠")  # G-$D, a template
    doc["gates"][2]["children"][0].update(fail="A٠١.٠٠.٠٠", ca_to="A٠٠.٠٠.٠١")  # V
    resolved = parse_system_model(doc).resolved_gates
    assert resolved["G-A"].children == (sysmodel.GateChildSpec(fail="A00.00.01", ca_to="A00.00.00"),)
    assert resolved["G-B"].children == (sysmodel.GateChildSpec(fail="B00.00.01", ca_to="B00.00.00"),)
    assert resolved["V"].children == (sysmodel.GateChildSpec(fail="A01.00.00", ca_to="A00.00.01"),)


def _units_doc(gates: list[dict]) -> dict:
    """Division A with units 01, 02 and 10; units 01 and 10 each hold module 01."""
    doc = doc_with(gates=gates)
    doc["nodes"] = [{"id": "A00.00.00", "kind": "division"}] + [
        {"id": node_id, "kind": kind}
        for node_id, kind in (("A01.00.00", "unit"), ("A02.00.00", "unit"), ("A10.00.00", "unit"),
                              ("A01.01.00", "module"), ("A10.01.00", "module"))
    ]
    return doc


def test_per_unit_template_copies_each_unit_that_holds_its_nodes():
    doc = _units_doc([
        {"id": "TOP", "kind": "and", "children": [{"gate": "U-A-01"}, {"gate": "U-A-10"}]},
        {"id": "U-$D-$U", "kind": "or", "replicate": "per-unit", "description": "unit $U of $D",
         "children": [{"fail": "$D$U.01.00", "ca_to": "$D$U.00.00"}]},
    ])
    resolved = parse_system_model(doc).resolved_gates
    # $U is the unit in two digits; unit 02 holds no module 01, so it has no copy.
    assert list(resolved) == ["TOP", "U-A-01", "U-A-10"]
    assert resolved["U-A-10"].description == "unit 10 of A"
    assert resolved["U-A-10"].children == (
        sysmodel.GateChildSpec(fail="A10.01.00", ca_to="A10.00.00"),)


def test_per_unit_template_without_copies_is_one_issue():
    doc = _units_doc([
        {"id": "TOP", "kind": "or", "children": [{"gate": "U-A-01"}]},
        {"id": "U-$D-$U", "kind": "or", "replicate": "per-unit", "children": [{"fail": "$D$U.09.00"}]},
    ])
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert [str(i) for i in exc.value.issues] == [
        "gates[1]: replicated gate 'U-$D-$U' instantiates for no division/unit: "
        "a node or gate it references is absent"]


def test_software_category_that_is_not_a_string():
    doc = json.loads(json.dumps(_PIN_DOC))
    doc["ccf_policy"]["software_categories"] = ["a", ["b"], {"c": 1}]
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    assert [str(i) for i in exc.value.issues] == ["ccf_policy.software_categories: categories must be from a/b/c/d"]


def _with_division_ab(pump_class: str) -> dict:
    """``_PIN_DOC`` with a division AB and a component of ``pump_class`` in it."""
    doc = json.loads(json.dumps(_PIN_DOC))
    doc["nodes"] += [
        {"id": "AB00.00.00", "name": "Division AB", "kind": "division"},
        {"id": "AB00.00.01", "name": "Pump", "kind": "component", "equipment_class": pump_class},
    ]
    return doc


def test_division_tag_that_starts_another_in_one_class():
    """Partial CCF names join division tags: with A, AB, BC and C the spans
    {A, BC} and {AB, C} of one class would both be DIVABC."""
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(_with_division_ab("pump"))
    assert [str(i) for i in exc.value.issues] == [
        "nodes[7].equipment_class: division AB starts with division A, which also holds "
        "class 'pump': their CCF names can collide"]
    # The rule is per class: division A holds no valve.
    parse_system_model(_with_division_ab("valve"))


def test_reference_model_fingerprint(rts_model):
    assert rts_model.fingerprint() == (
        "89fa09b75b4ecc91a6291f7121ffe13b9ada25a6b237a1dec634edf0fcd732a3")


# Every optional field set away from its default, and entries out of canonical order.
_EVERY_FIELD_SET = {
    "resha_model_version": 1,
    "equipment_classes": [{"tag": "pump", "prefix": "PMP", "display": "Pump"}],
    "nodes": [
        {"id": "A01.00.00", "name": "Unit", "kind": "unit", "technology": "human", "role": "operator"},
        {"id": "A00.00.00", "name": "Division A", "kind": "division", "technology": "digital"},
        {"id": "A01.01.00", "name": "Module", "kind": "module", "technology": "analog",
         "equipment_class": "pump"},
    ],
    "links": [
        {"source": "A01.01.00", "target": "A01.00.00", "type": "feedback", "layer": 2},
        {"source": "A01.00.00", "target": "A01.01.00", "type": "control"},
    ],
    "losses": [{"id": "L1", "description": "loss"}],
    "hazards": [{"id": "H1", "description": "hazard", "losses": ["L1"]}],
    "control_actions": [
        {"source": "A01.00.00", "target": "A01.01.00", "verb": "runs", "source_label": "U",
         "action_phrase": "run", "continuous": True, "split": True, "layer": 2,
         "contexts": {"timing": "late", "needed": "on demand", "unneeded": "idle", "duration": "long"},
         "hazards": {"d": ["H1"], "a": ["H1"]}, "not_applicable": {"c": "no", "b": "never"}},
    ],
    "gates": [
        {"id": "V-$D", "kind": "vote", "k": 1, "replicate": "per-division", "description": "vote",
         "children": [{"fail": "$D01.00.00", "ca_to": "$D01.01.00"}]},
        {"id": "TOP", "kind": "or", "children": [{"gate": "V-A"}, {"fail": "A01.01.00"}]},
    ],
    "ccf_policy": {"include_intra_division": False, "include_cross_all_divisions": False,
                   "include_partial_interdivision": True, "software_categories": ["d", "b"]},
}


def test_canonical_document_with_every_field_set():
    assert parse_system_model(_EVERY_FIELD_SET).to_document() == {
        "resha_model_version": 1,
        "equipment_classes": [{"tag": "pump", "prefix": "PMP", "display": "Pump"}],
        "nodes": [
            {"id": "A00.00.00", "name": "Division A", "kind": "division", "technology": "digital"},
            {"id": "A01.00.00", "name": "Unit", "kind": "unit", "technology": "human",
             "role": "operator"},
            {"id": "A01.01.00", "name": "Module", "kind": "module", "technology": "analog",
             "equipment_class": "pump"},
        ],
        "links": [
            {"source": "A01.00.00", "target": "A01.01.00", "type": "control"},
            {"source": "A01.01.00", "target": "A01.00.00", "type": "feedback", "layer": 2},
        ],
        "losses": [{"id": "L1", "description": "loss"}],
        "hazards": [{"id": "H1", "description": "hazard", "losses": ["L1"]}],
        "control_actions": [
            {"source": "A01.00.00", "target": "A01.01.00", "verb": "runs", "source_label": "U",
             "action_phrase": "run", "continuous": True, "split": True, "layer": 2,
             "contexts": {"duration": "long", "needed": "on demand", "timing": "late",
                          "unneeded": "idle"},
             "hazards": {"a": ["H1"], "d": ["H1"]}, "not_applicable": {"b": "never", "c": "no"}},
        ],
        "gates": [
            {"id": "TOP", "kind": "or", "children": [{"gate": "V-A"}, {"fail": "A01.01.00"}]},
            {"id": "V-$D", "kind": "vote", "children": [{"fail": "$D01.00.00", "ca_to": "$D01.01.00"}],
             "k": 1, "replicate": "per-division", "description": "vote"},
        ],
        "ccf_policy": {"include_intra_division": False, "include_cross_all_divisions": False,
                       "include_partial_interdivision": True, "software_categories": ["d", "b"]},
    }


def test_canonical_document_holds_only_json_types():
    def types(value):
        yield type(value)
        if type(value) in (dict, list):
            for item in value.values() if type(value) is dict else value:
                yield from types(item)

    found = set(types(parse_system_model(_EVERY_FIELD_SET).to_document()))
    assert found == {dict, list, str, int, bool}


def test_canonical_document_with_every_optional_field_absent():
    """A field at its default is left out, except the action fields and the policy."""
    doc = {
        "resha_model_version": 1,
        "nodes": [{"id": "A00.00.00", "kind": "division"}, {"id": "A01.00.00", "kind": "unit"},
                  {"id": "A01.01.00", "kind": "module"}],
        "links": [{"source": "A01.00.00", "target": "A01.01.00", "type": "control"}],
        "losses": [{"id": "L1"}],
        "hazards": [{"id": "H1", "losses": ["L1"]}],
        "control_actions": [{"source": "A01.00.00", "target": "A01.01.00",
                             "hazards": {"a": ["H1"], "b": ["H1"], "c": ["H1"]}}],
        "gates": [{"id": "TOP", "kind": "and", "children": [{"fail": "A01.01.00"}]}],
    }
    assert parse_system_model(doc).to_document() == {
        "resha_model_version": 1,
        "equipment_classes": [],
        "nodes": [
            {"id": "A00.00.00", "name": "A00.00.00", "kind": "division", "technology": "digital"},
            {"id": "A01.00.00", "name": "A01.00.00", "kind": "unit", "technology": "digital"},
            {"id": "A01.01.00", "name": "A01.01.00", "kind": "module", "technology": "digital"},
        ],
        "links": [{"source": "A01.00.00", "target": "A01.01.00", "type": "control"}],
        "losses": [{"id": "L1", "description": ""}],
        "hazards": [{"id": "H1", "description": "", "losses": ["L1"]}],
        "control_actions": [
            {"source": "A01.00.00", "target": "A01.01.00", "verb": "", "source_label": "A01.00.00",
             "action_phrase": "", "continuous": False, "split": False, "contexts": {},
             "hazards": {"a": ["H1"], "b": ["H1"], "c": ["H1"]}},
        ],
        "gates": [{"id": "TOP", "kind": "and", "children": [{"fail": "A01.01.00"}]}],
        "ccf_policy": {"include_intra_division": True, "include_cross_all_divisions": True,
                       "include_partial_interdivision": False, "software_categories": ["a", "c"]},
    }
