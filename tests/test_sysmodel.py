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
        if g.class_tag == "selective-processor" and g.scope is GroupScope.CROSS_DIVISION
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
