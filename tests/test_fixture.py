from __future__ import annotations

import hashlib
from importlib import resources

from resha.fixtures import build_rts_document, build_rts_reference_model
from resha.sysmodel import parse_system_model

from golden import EXPECTED_RPS_SPOFS, EXPECTED_UCA_TEXTS, HAZARDS, LOSSES


# The packaged model is the one source of the reference system, edited by
# hand; the golden tables and the published anchors all hold for these bytes.
def test_packaged_model_is_pinned():
    data = resources.files("resha.data").joinpath("rts_model.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "a6c9c01f63c2229536421e89414a078e1568498270100610d3fd59bc492842ef"
    )


def test_reference_document_is_a_fresh_copy():
    doc = build_rts_document()
    doc["gates"].clear()
    assert build_rts_document()["gates"]


def test_reference_model_validates():
    model = build_rts_reference_model()
    assert len(model.nodes) == 100
    assert model.division_tags() == ("A", "B", "C", "D", "DP", "MC", "RP", "RS", "RX")


def test_losses_and_hazards_verbatim():
    model = build_rts_reference_model()
    assert [(l.id, l.description) for l in model.losses] == LOSSES
    assert [(h.id, h.description, list(h.losses)) for h in model.hazards] == HAZARDS
    h1 = model.hazards[0]
    assert h1.description == "Reactor temperature too high"
    assert list(h1.losses) == ["L1", "L2", "L3", "L4", "L5"]
    assert model.losses[3].description == "Power generation"


def test_controllers_present():
    model = build_rts_reference_model()
    human = [n for n in model.nodes.values() if n.technology.value == "human"]
    assert {n.id.division for n in human} == {"MC", "RS"}
    assert model.node("DP00.00.01").equipment_class == "dps-processor"
    # Four RPS divisions with analog breakers per breaker-path mechanism.
    for tag in "ABCD":
        for comp in ("02", "03", "04", "05"):
            assert model.node(f"{tag}00.00.{comp}").technology.value == "analog"


def test_sensor_classes_are_division_specific():
    model = build_rts_reference_model()
    tags = {
        model.node(f"{t}00.00.01").equipment_class for t in "ABCD"
    }
    assert len(tags) == 4


def test_expected_spof_table_shape():
    assert len(EXPECTED_RPS_SPOFS) == 13
    hardware = [n for n, _ in EXPECTED_RPS_SPOFS if "-HD-" in n]
    software = [n for n, _ in EXPECTED_RPS_SPOFS if "-SF-" in n]
    assert len(hardware) == 5
    assert len(software) == 8
    assert all(n.endswith(("-TA", "-TC")) for n in software)


def test_expected_uca_rows_cover_both_actions():
    assert set(EXPECTED_UCA_TEXTS) == {"CA18", "CA20"}
    for rows in EXPECTED_UCA_TEXTS.values():
        assert set(rows) == {"a", "b", "c", "d"}
        assert rows["d"] == "Not applicable."


def test_document_round_trips_through_parser():
    doc = build_rts_document()
    model = parse_system_model(doc)
    again = parse_system_model(model.to_document())
    assert model.fingerprint() == again.fingerprint()


def test_golden_uca_table(rts_ucas):
    from resha.stpa import uca_table_to_csv

    golden = resources.files("resha.data").joinpath("expected_ucas.csv").read_text("utf-8")
    assert uca_table_to_csv(rts_ucas) == golden


def test_golden_spof_table(rps_tree):
    from resha.cutset import extract_spofs, solve_minimal_cut_sets
    from resha.report import spof_table_to_csv

    golden = resources.files("resha.data").joinpath("expected_spofs.csv").read_text("utf-8")
    spofs = extract_spofs(solve_minimal_cut_sets(rps_tree, 1))
    descriptions = {e.id: e.description for e in rps_tree.events.values()}
    assert spof_table_to_csv(spofs, descriptions) == golden


def test_golden_spof_names_match_published_table(rps_tree):
    golden = resources.files("resha.data").joinpath("expected_spofs.csv").read_text("utf-8")
    golden_names = {line.split(",")[1] for line in golden.splitlines()[1:]}
    assert golden_names == {name for name, _ in EXPECTED_RPS_SPOFS}
