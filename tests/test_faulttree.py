from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from resha.cutset import (
    CutSet,
    CutSetError,
    brute_force_cut_sets,
    evaluate_structure_function,
    random_coherent_tree,
    solve_minimal_cut_sets,
)
from resha.faulttree import (
    BasicEvent,
    EventKind,
    FaultTree,
    FaultTreeError,
    Gate,
    GateKind,
    HARDWARE_KINDS,
    IntegrationError,
    build_hardware_fault_tree,
    extract_subtree,
    filter_events,
    from_exchange_json,
    integrate_ucas,
    to_exchange_json,
)
from resha.sysmodel import ModelValidationError, NodeId, parse_system_model

from conftest import integrated_tree
from golden import TOP_FULL, TOP_RPS


def event(eid: str, kind=EventKind.HW_INDEP) -> BasicEvent:
    from resha.sysmodel import NodeId

    subjects = (NodeId("XA", 0, 0, 1),)
    if kind in (EventKind.HW_CCF, EventKind.SW_CCF):
        subjects = (NodeId("XA", 0, 0, 1), NodeId("XB", 0, 0, 1))
    return BasicEvent(id=eid, kind=kind, subjects=subjects, uca_id="UCA1a" if kind is EventKind.SW_UCA else None)


def tree_of(top: str, gates: dict[str, Gate], events: dict[str, BasicEvent]) -> FaultTree:
    return FaultTree(top=top, gates=gates, events=events)


def test_vote_gate_arity_enforced():
    with pytest.raises(FaultTreeError):
        Gate(id="G", kind=GateKind.VOTE, children=("a", "b"), k=3)


_ONE = (NodeId("XA", 0, 0, 1),)


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: BasicEvent("C", EventKind.HW_CCF, _ONE), "CCF event C must reference >= 2 subjects"),
        (lambda: BasicEvent("C", EventKind.SW_CCF, _ONE), "CCF event C must reference >= 2 subjects"),
        (lambda: BasicEvent("S", EventKind.SW_UCA, _ONE), "software UCA event S must reference its UCA"),
        (lambda: Gate("V", GateKind.VOTE, ("a", "b"), k=3), "vote gate V needs 1 <= k <= 2, got 3"),
        (lambda: Gate("V", GateKind.VOTE, ("a", "b"), k=0), "vote gate V needs 1 <= k <= 2, got 0"),
        (lambda: Gate("V", GateKind.VOTE, ("a", "b")), "vote gate V needs 1 <= k <= 2, got None"),
        (
            lambda: Gate("V", GateKind.VOTE, ("a", "b"), k=int("9" * 4000)),
            "vote gate V needs 1 <= k <= 2, got " + "9" * 18 + "..." + "9" * 19,
        ),
        (lambda: Gate("O", GateKind.OR, ("a",), k=1), "gate O: k only applies to vote gates"),
        (lambda: Gate("A", GateKind.AND, ()), "AND gate A must have children"),
        (
            lambda: FaultTree("G", {"G": Gate("G", GateKind.OR, ("E1", "X"))}, {"E1": event("E1")}),
            "gate G references unknown child 'X'",
        ),
        (lambda: FaultTree("T", {}, {}), "top reference 'T' does not exist"),
        (
            lambda: FaultTree("E1", {"E1": Gate("E1", GateKind.OR, ())}, {"E1": event("E1")}),
            "ids used as both gate and event: ['E1']",
        ),
        (
            lambda: FaultTree("G", {"G": Gate("G", GateKind.OR, ()), "U": Gate("U", GateKind.OR, ())}, {}),
            "gates unreachable from top: ['U']",
        ),
        (
            lambda: FaultTree("G", {"G": Gate("G", GateKind.OR, ("E1",))}, {"E1": event("E1"), "E2": event("E2")}),
            "events unreachable from top: ['E2']",
        ),
        (lambda: CutSet(frozenset(), contains_ccf=False), "cut sets must be non-empty"),
    ],
    ids=["hw-ccf-one-subject", "sw-ccf-one-subject", "sw-uca-no-uca", "vote-k-above",
         "vote-k-zero", "vote-no-k", "vote-long-k", "k-on-or", "empty-and", "unknown-child", "missing-top",
         "gate-and-event", "unreachable-gate", "unreachable-event", "empty-cut-set"],
)
def test_validating_records_keep_their_messages(build, message):
    with pytest.raises((FaultTreeError, CutSetError)) as exc:
        build()
    assert str(exc.value) == message


_LONG = "X" * 5000


@pytest.mark.parametrize(
    "build",
    [
        lambda: BasicEvent(_LONG, EventKind.HW_CCF, _ONE),
        lambda: Gate(_LONG, GateKind.AND, ()),
        lambda: FaultTree(_LONG, {}, {}),
        lambda: FaultTree("G", {"G": Gate("G", GateKind.OR, (_LONG,))}, {}),
        lambda: FaultTree(_LONG, {_LONG: Gate(_LONG, GateKind.OR, ())}, {_LONG: event(_LONG)}),
        lambda: FaultTree("G", {"G": Gate("G", GateKind.OR, ()), _LONG: Gate(_LONG, GateKind.OR, ())}, {}),
        lambda: FaultTree("G", {"G": Gate("G", GateKind.OR, ())}, {_LONG: event(_LONG)}),
        lambda: FaultTree(_LONG, {_LONG: Gate(_LONG, GateKind.OR, (_LONG,))}, {}),
        lambda: extract_subtree(FaultTree("G", {"G": Gate("G", GateKind.OR, ())}, {}), _LONG),
    ],
    ids=["ccf-event", "empty-and", "missing-top", "unknown-child", "gate-and-event",
         "unreachable-gate", "unreachable-event", "cycle", "unknown-subtree-root"],
)
def test_long_ids_are_cut_short(build):
    with pytest.raises(FaultTreeError) as exc:
        build()
    assert len(str(exc.value)) < 200 and "X...X" in str(exc.value)


def test_cycle_detected():
    gates = {
        "G1": Gate(id="G1", kind=GateKind.OR, children=("G2",)),
        "G2": Gate(id="G2", kind=GateKind.OR, children=("G1",)),
    }
    with pytest.raises(FaultTreeError, match="cycle detected through gate 'G1'"):
        tree_of("G1", gates, {})


def test_unreachable_gate_rejected():
    gates = {
        "G1": Gate(id="G1", kind=GateKind.OR, children=("E1",)),
        "G2": Gate(id="G2", kind=GateKind.OR, children=("E1",)),
    }
    with pytest.raises(FaultTreeError):
        tree_of("G1", gates, {"E1": event("E1")})


def test_failure_side_vote_complements_two_of_four_success():
    # Trip succeeds when at least 2 of 4 divisions demand it, so the failure
    # side is at least 4 - 2 + 1 = 3 of 4 division failures: checked over all 16 states.
    gates = {
        "TOP": Gate(id="TOP", kind=GateKind.VOTE, k=3, children=("D1", "D2", "D3", "D4")),
    }
    events = {f"D{i}": event(f"D{i}") for i in range(1, 5)}
    ft = tree_of("TOP", gates, events)
    for states in itertools.product([False, True], repeat=4):
        assignment = {f"D{i+1}": states[i] for i in range(4)}
        divisions_ok = sum(1 for failed in states if not failed)
        success = divisions_ok >= 2
        assert evaluate_structure_function(ft, assignment) == (not success)


def test_build_single_component_top(rts_model):
    ft = build_hardware_fault_tree(rts_model, "A00.00.02")
    assert len(ft.events) == 1
    only = next(iter(ft.events.values()))
    assert only.kind is EventKind.HW_INDEP
    assert only.id == "RTB-UV-HD-A00.00.02"


def test_build_unknown_top(rts_model):
    with pytest.raises(FaultTreeError):
        build_hardware_fault_tree(rts_model, "NOPE")


def test_hardware_tree_has_only_hardware_events(rts_model):
    ft = build_hardware_fault_tree(rts_model, TOP_FULL)
    assert {e.kind for e in ft.events.values()} <= HARDWARE_KINDS


def test_replication_covers_rps_divisions(rts_model):
    ft = build_hardware_fault_tree(rts_model, TOP_FULL)
    for tag in "ABCD":
        assert f"UV-{tag}-FAILS" in ft.gates
        assert f"RTB-{tag}-FAILS-TO-OPEN" in ft.gates


def test_integrate_adds_exactly_selected(rts_model, rts_selected):
    base = build_hardware_fault_tree(rts_model, TOP_FULL)
    ft = integrate_ucas(base, rts_selected)
    assert len(ft.events) == len(base.events) + len(rts_selected)
    assert set(base.events) <= set(ft.events)
    for eid, original in base.events.items():
        assert ft.events[eid] == original


def test_integrate_empty_selection_is_identity(full_tree):
    assert integrate_ucas(full_tree, ()) is full_tree


def test_integrate_rejects_an_inapplicable_uca(rts_model, rts_ucas):
    record = next(u for u in rts_ucas if not u.applicable)
    with pytest.raises(IntegrationError, match=f"^{record.uca_id} is not applicable; cannot integrate$"):
        integrate_ucas(build_hardware_fault_tree(rts_model, TOP_FULL), [record])


def test_integrate_rejects_one_uca_twice(rts_model, rts_selected):
    record = next(u for u in rts_selected if u.uca_id == "UCA18a")
    with pytest.raises(IntegrationError, match="^duplicate UCA event id LC-DOM-SF-UCA18A$"):
        integrate_ucas(build_hardware_fault_tree(rts_model, TOP_FULL), [record, record])


def test_dom1_gains_uca18_events(rts_model, rts_selected):
    ft = integrate_ucas(build_hardware_fault_tree(rts_model, TOP_FULL), rts_selected)
    assert "LC-DOM-SF-UCA18A" in ft.events
    assert "LC-DOM-SF-UCA18C" in ft.events
    sw_gate = ft.gates["SW::A01.09.00"]
    assert "LC-DOM-SF-UCA18A" in sw_gate.children
    assert "LC-DOM-SF-UCA18C" in sw_gate.children


def test_mcr_operator_events_are_human_kind(full_tree):
    human = [e for e in full_tree.events.values() if e.kind is EventKind.HUMAN_UCA]
    assert {e.subjects[0].division for e in human} == {"MC", "RS"}
    mcr = [e for e in human if e.subjects[0].division == "MC"]
    assert {e.category for e in mcr} == {"a", "c"}
    for e in mcr:
        assert e.id.startswith("MCR-OP-HF-")


def test_ucas_without_a_failure_gate_are_skipped(rts_model, rts_selected):
    rps_only = build_hardware_fault_tree(rts_model, TOP_RPS)
    mcr_ucas = [u for u in rts_selected if u.action.source.division == "MC"]
    assert mcr_ucas
    assert integrate_ucas(rps_only, mcr_ucas).events == rps_only.events


def test_every_reference_root_analyses_at_order_1(rts_model, rts_selected, rts_groups):
    # Per-action scopes such as BP-SIG-1-A-LOST hold FAIL::source::target
    # gates only; the UCAs of the source's other actions stay outside them.
    for root in [*rts_model.resolved_gates, *rts_model.nodes]:
        solve_minimal_cut_sets(integrated_tree(rts_model, rts_selected, rts_groups, root), 1)


def test_extract_subtree_identity(full_tree):
    again = extract_subtree(full_tree, full_tree.top)
    assert set(again.gates) == set(full_tree.gates)
    assert set(again.events) == set(full_tree.events)


def test_extract_subtree_unknown_gate(full_tree):
    with pytest.raises(FaultTreeError):
        extract_subtree(full_tree, "NOPE")


def test_extract_subtree_preserves_ids(full_tree):
    sub = extract_subtree(full_tree, "UV-A-FAILS")
    assert sub.top == "UV-A-FAILS"
    for gate_id, gate in sub.gates.items():
        assert full_tree.gates[gate_id] == gate


def test_extract_basic_event_only_gate(full_tree):
    # A hardware OR holds only basic events; extraction yields a one-gate tree.
    sub = extract_subtree(full_tree, "HW::A00.00.02")
    assert len(sub.gates) == 1
    assert set(sub.events) == {"RTB-UV-HD-A00.00.02", "RTB-UV-HD-CCF"}


def test_per_unit_replication_macro():
    doc = {
        "resha_model_version": 1,
        "equipment_classes": [{"tag": "proc", "prefix": "PRC", "display": "Processor"}],
        "nodes": [
            {"id": "A00.00.00", "name": "A", "kind": "division", "technology": "digital"},
            {"id": "A01.00.00", "name": "A1", "kind": "unit", "technology": "digital"},
            {"id": "A02.00.00", "name": "A2", "kind": "unit", "technology": "digital"},
            {"id": "A01.00.01", "name": "P11", "kind": "component", "technology": "digital",
             "equipment_class": "proc"},
            {"id": "A02.00.01", "name": "P21", "kind": "component", "technology": "digital",
             "equipment_class": "proc"},
        ],
        "links": [],
        "losses": [{"id": "L1", "description": "loss"}],
        "hazards": [{"id": "H1", "description": "hazard", "losses": ["L1"]}],
        "control_actions": [],
        "gates": [
            {
                "id": "TOP",
                "kind": "and",
                "children": [{"gate": "UNIT-A-01-DOWN"}, {"gate": "UNIT-A-02-DOWN"}],
            },
            {
                "id": "UNIT-$D-$U-DOWN",
                "kind": "or",
                "children": [{"fail": "$D$U.00.01"}],
                "replicate": "per-unit",
            },
        ],
        "ccf_policy": {},
    }
    model = parse_system_model(doc)
    ft = build_hardware_fault_tree(model, "TOP")
    assert "UNIT-A-01-DOWN" in ft.gates
    assert "UNIT-A-02-DOWN" in ft.gates
    sets = {c.events for c in brute_force_cut_sets(ft).cut_sets}
    assert sets == {frozenset({"PRC-HD-A01.00.01", "PRC-HD-A02.00.01"})}


def test_cycle_in_declarations_detected():
    doc = {
        "resha_model_version": 1,
        "equipment_classes": [{"tag": "proc", "prefix": "PRC", "display": "Processor"}],
        "nodes": [
            {"id": "A00.00.00", "name": "A", "kind": "division", "technology": "digital"},
            {"id": "A00.00.01", "name": "P", "kind": "component", "technology": "digital",
             "equipment_class": "proc"},
        ],
        "links": [],
        "losses": [{"id": "L1", "description": "loss"}],
        "hazards": [{"id": "H1", "description": "hazard", "losses": ["L1"]}],
        "control_actions": [],
        "gates": [
            {"id": "G1", "kind": "or", "children": [{"gate": "G2"}]},
            {"id": "G2", "kind": "or", "children": [{"gate": "G1"}, {"fail": "A00.00.01"}]},
        ],
        "ccf_policy": {},
    }
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    (issue,) = exc.value.issues
    assert str(issue) == "gates[0]: cycle detected in gate declarations: G1 -> G2 -> G1"


def test_replication_macro_with_no_instantiations_is_error():
    doc = {
        "resha_model_version": 1,
        "equipment_classes": [{"tag": "proc", "prefix": "PRC", "display": "Processor"}],
        "nodes": [
            {"id": "A00.00.00", "name": "A", "kind": "division", "technology": "digital"},
            {"id": "A00.00.01", "name": "P", "kind": "component", "technology": "digital",
             "equipment_class": "proc"},
        ],
        "links": [],
        "losses": [{"id": "L1", "description": "loss"}],
        "hazards": [{"id": "H1", "description": "hazard", "losses": ["L1"]}],
        "control_actions": [],
        "gates": [
            {
                "id": "G-$D",
                "kind": "or",
                "children": [{"fail": "$D99.00.01"}],
                "replicate": "per-division",
            },
        ],
        "ccf_policy": {},
    }
    with pytest.raises(ModelValidationError) as exc:
        parse_system_model(doc)
    (issue,) = exc.value.issues
    assert issue.path == "gates[0]" and "instantiates for no division/unit" in issue.message


def test_filter_keep_all_is_identity(full_tree):
    ft = filter_events(full_tree, EventKind)
    assert set(ft.events) == set(full_tree.events)
    assert set(ft.gates) == set(full_tree.gates)


def test_filter_hardware_removes_software(full_tree):
    ft = filter_events(full_tree, HARDWARE_KINDS)
    kinds = {e.kind for e in ft.events.values()}
    assert kinds <= HARDWARE_KINDS
    assert ft.gates[ft.top].children  # the top did not simplify away


def test_filter_false_kills_and_branch():
    gates = {
        "TOP": Gate(id="TOP", kind=GateKind.OR, children=("G1", "E3")),
        "G1": Gate(id="G1", kind=GateKind.AND, children=("E1", "E2")),
    }
    events = {
        "E1": event("E1"),
        "E2": event("E2", EventKind.SW_UCA),
        "E3": event("E3"),
    }
    ft = tree_of("TOP", gates, events)
    filtered = filter_events(ft, HARDWARE_KINDS)
    assert "G1" not in filtered.gates
    assert "E1" not in filtered.events
    assert set(filtered.events) == {"E3"}


def test_filter_empty_top_reported_vacuous():
    gates = {"TOP": Gate(id="TOP", kind=GateKind.OR, children=("E1",))}
    events = {"E1": event("E1", EventKind.SW_UCA)}
    ft = tree_of("TOP", gates, events)
    filtered = filter_events(ft, HARDWARE_KINDS)
    assert not filtered.gates[filtered.top].children  # vacuous: no failure can occur
    assert len(solve_minimal_cut_sets(filtered).cut_sets) == 0


def test_filter_single_event_tree():
    ft = tree_of("E1", {}, {"E1": event("E1", EventKind.SW_UCA)})
    assert filter_events(ft, {EventKind.SW_UCA}) is ft
    # A dropped event top becomes an empty OR at its own id, like a killed gate top.
    filtered = filter_events(ft, HARDWARE_KINDS)
    assert filtered.top == "E1"
    assert filtered.gates["E1"].kind is GateKind.OR
    assert not filtered.gates["E1"].children and not filtered.events
    assert len(solve_minimal_cut_sets(filtered).cut_sets) == 0


def test_filter_rewrites_vote_over_remaining():
    gates = {
        "TOP": Gate(id="TOP", kind=GateKind.VOTE, k=2, children=("E1", "E2", "E3")),
    }
    events = {
        "E1": event("E1"),
        "E2": event("E2"),
        "E3": event("E3", EventKind.SW_UCA),
    }
    ft = tree_of("TOP", gates, events)
    filtered = filter_events(ft, HARDWARE_KINDS)
    top = filtered.gates["TOP"]
    assert top.children == ("E1", "E2")
    assert top.k == 2
    sets = {c.events for c in solve_minimal_cut_sets(filtered).cut_sets}
    assert sets == {frozenset({"E1", "E2"})}


@pytest.mark.parametrize(("fixture", "order", "total", "kept"),
                         [("rps_tree", 3, 829, 509), ("auto_tree", 4, 3542, 1244)],
                         ids=["RPS@3", "AUTO@4"])
def test_filter_keeps_the_cut_sets_of_kept_kinds(fixture, order, total, kept, request):
    """The other events fixed FALSE, the solve keeps exactly the cut sets whose
    events all have kept kinds, at the same truncation: a relation that holds
    where no oracle reaches."""
    tree = request.getfixturevalue(fixture)
    kinds = {EventKind.HW_INDEP, EventKind.HW_CCF, EventKind.SW_CCF}
    every = solve_minimal_cut_sets(tree, order).cut_sets
    expected = {c.events for c in every if all(tree.events[e].kind in kinds for e in c.events)}
    filtered = solve_minimal_cut_sets(filter_events(tree, kinds), order).cut_sets
    assert (len(every), len(expected)) == (total, kept)
    assert {c.events for c in filtered} == expected


def test_filter_commutes_with_extract_small_scope_via_oracle(full_tree):
    # ST-A-FAILS is small enough for exhaustive enumeration.
    scope = "ST-A-FAILS"
    a = filter_events(extract_subtree(full_tree, scope), HARDWARE_KINDS)
    b = extract_subtree(filter_events(full_tree, HARDWARE_KINDS), scope)
    sets_a = {c.events for c in brute_force_cut_sets(a).cut_sets}
    sets_b = {c.events for c in brute_force_cut_sets(b).cut_sets}
    assert sets_a == sets_b


def test_filter_commutes_with_extract_wider_scope_via_solver(full_tree):
    scope = "UV-A-FAILS"
    a = filter_events(extract_subtree(full_tree, scope), HARDWARE_KINDS)
    b = extract_subtree(filter_events(full_tree, HARDWARE_KINDS), scope)
    sets_a = {c.events for c in solve_minimal_cut_sets(a).cut_sets}
    sets_b = {c.events for c in solve_minimal_cut_sets(b).cut_sets}
    assert sets_a == sets_b


def test_coherence_monotone_under_random_flips(full_tree):
    rng = random.Random(7)
    ids = sorted(full_tree.events)
    for _ in range(25):
        assignment = {eid: rng.random() < 0.3 for eid in ids}
        before = evaluate_structure_function(full_tree, assignment)
        flipped = dict(assignment)
        off = [eid for eid in ids if not assignment[eid]]
        if not off:
            continue
        flipped[rng.choice(off)] = True
        after = evaluate_structure_function(full_tree, flipped)
        assert after or not before


def test_operations_preserve_coherence_no_negation(full_tree):
    for ft in (
        full_tree,
        extract_subtree(full_tree, "UV-B-FAILS"),
        filter_events(full_tree, HARDWARE_KINDS),
    ):
        assert all(g.kind in GateKind for g in ft.gates.values())


def test_event_names_unique_across_fixture(full_tree):
    assert len(full_tree.events) == len(set(full_tree.events))
    assert len(full_tree.gates) == len(set(full_tree.gates))
    assert not (set(full_tree.gates) & set(full_tree.events))


def test_exchange_round_trip(full_tree):
    text = to_exchange_json(full_tree)
    again = from_exchange_json(text)
    assert again.top == full_tree.top
    assert set(again.gates) == set(full_tree.gates)
    assert set(again.events) == set(full_tree.events)
    assert to_exchange_json(again) == text


def test_exchange_round_trip_random_trees():
    rng = random.Random(3)
    for _ in range(20):
        ft = random_coherent_tree(rng)
        again = from_exchange_json(to_exchange_json(ft))
        assert {c.events for c in brute_force_cut_sets(ft).cut_sets} == {
            c.events for c in brute_force_cut_sets(again).cut_sets
        }


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_events=st.integers(2, 16), max_gates=st.integers(1, 16))
def test_exchange_round_trip_property(seed, max_events, max_gates):
    ft = random_coherent_tree(random.Random(seed), max_events=max_events, max_gates=max_gates)
    assert from_exchange_json(to_exchange_json(ft)) == ft
