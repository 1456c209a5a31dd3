from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from resha import cutset as cutsetmod
from resha.cli import RunConfig, main, run_analysis, write_artifacts
from resha.faulttree import FaultTreeError, from_exchange_json, to_exchange_json
from resha.fixtures import build_rts_document
from resha.report import GuidanceBank
from resha.sysmodel import ModelIssue, derive_redundancy_groups, parse_system_model


@pytest.fixture(scope="module")
def model_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("model") / "rts.json"
    path.write_text(json.dumps(build_rts_document()), encoding="utf-8")
    return path


def test_validate_ok(model_path, capsys):
    assert main(["validate", str(model_path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_dangling_link_exit_1(tmp_path, capsys):
    doc = build_rts_document()
    doc["links"].append({"source": "A00.00.01", "target": "Z99.00.00", "type": "control"})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Z99.00.00" in err


def test_validate_missing_file_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_analyze_rps_truncate_1(model_path, tmp_path, capsys):
    rc = main(
        [
            "analyze",
            "--model", str(model_path),
            "--scope", "RPS",
            "--truncate", "1",
            "--out", str(tmp_path / "out"),
            "--deterministic",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "13 first-order cut sets" in out
    out_dir = tmp_path / "out"
    for name in ("report.md", "ucas.csv", "cutsets.csv", "spofs.csv", "ccf_catalog.csv", "tree.json"):
        assert (out_dir / name).exists()


def test_analyze_full_truncate_4_reports_zero_low_orders(model_path, tmp_path, capsys):
    rc = main(
        [
            "analyze",
            "--model", str(model_path),
            "--truncate", "4",
            "--out", str(tmp_path / "out"),
            "--deterministic",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "order 1: 0 cut sets (0 cumulative)" in out
    assert "order 2: 0 cut sets (0 cumulative)" in out
    assert "order 3: 0 cut sets (0 cumulative)" in out
    assert "order 4: 468 cut sets (468 cumulative)" in out


_ARTIFACTS = ("report.md", "ucas.csv", "tree.json", "cutsets.csv", "spofs.csv", "ccf_catalog.csv")


def _analyze_digests(model_path, out, capsys, *args) -> dict[str, str]:
    assert main(["analyze", "--model", str(model_path), *args,
                 "--out", str(out), "--deterministic"]) == 0
    capsys.readouterr()
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in _ARTIFACTS}


def test_analyze_full_truncate_4_output_bytes_pinned(model_path, tmp_path, capsys):
    """The front end and the output build write the same bytes as ever."""
    assert _analyze_digests(model_path, tmp_path / "out", capsys, "--truncate", "4") == {
        "report.md": "3cf395bce5eee09e25fdb0e8b76e525c68d2253a8698993d17b69f4bb73c17f8",
        "ucas.csv": "6b01280cbbfa170e43d16726d139c40f38a7fa5fdd806fcd70b1d74c65a252de",
        "tree.json": "5e07d058ea11bf77b191bcc91f870a7eb1d5f3f38f3d21773c1aeb2754ea0a2f",
        "cutsets.csv": "fe12313cff9ce129b141b0ea5189c53f12d9ec54c02aba31b90420c8f2bb61b1",
        "spofs.csv": "2b8780d55c4a9987ebcf54e02c567b08521d9a83d99547c6d20057270ac7c11b",
        "ccf_catalog.csv": "817ca3ea626e6ce744f425c393aa8b2618f9143643b1fa03aad8423a3b1a25f2",
    }


@pytest.mark.parametrize(
    ("args", "digests"),
    [
        (("--scope", "RPS", "--truncate", "1"), {
            "report.md": "32a58eb7692bfcfe13ceb6876e5545cf60e517817f6032064df277c4434c0a67",
            "ucas.csv": "6b01280cbbfa170e43d16726d139c40f38a7fa5fdd806fcd70b1d74c65a252de",
            "tree.json": "af6bcac630383a615b05c92479c8438a90b5fff8f4acc887311a2debdfcae377",
            "cutsets.csv": "792e77ebe5c04565db4d010338e20390d4fb436b61c946e0ded5fed013513cd0",
            "spofs.csv": "ea93774d0d4ed266e5142dab36a57ba7d2e62f79734ebffc42de216c8eb591d5",
            "ccf_catalog.csv": "817ca3ea626e6ce744f425c393aa8b2618f9143643b1fa03aad8423a3b1a25f2",
        }),
        (("--scope", "AUTO", "--truncate", "2"), {
            "report.md": "1b843d8d5b7fcdaeeccebe961a30f6514a491edbe59f1e78b57cf8975fcfca34",
            "ucas.csv": "6b01280cbbfa170e43d16726d139c40f38a7fa5fdd806fcd70b1d74c65a252de",
            "tree.json": "54d180c1497ab2f4f0bbdb29b21993bec4369c5fc190ba499e9881e66e35b094",
            "cutsets.csv": "b5d5443dc3409f179266d89da9af836304bc3fa29314b2b93d48bbfe96370906",
            "spofs.csv": "2b8780d55c4a9987ebcf54e02c567b08521d9a83d99547c6d20057270ac7c11b",
            "ccf_catalog.csv": "817ca3ea626e6ce744f425c393aa8b2618f9143643b1fa03aad8423a3b1a25f2",
        }),
    ],
    ids=["RPS-1", "AUTO-2"],
)
def test_analyze_scope_output_bytes_pinned(args, digests, model_path, tmp_path, capsys):
    assert _analyze_digests(model_path, tmp_path / "out", capsys, *args) == digests


def test_python_dash_m_resha_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "resha", "analyze", "--help"],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: resha analyze")


def test_analyze_hardware_filter_excludes_software(model_path, tmp_path):
    rc = main(
        [
            "analyze",
            "--model", str(model_path),
            "--scope", "RPS",
            "--truncate", "1",
            "--filter", "hardware",
            "--out", str(tmp_path / "out"),
            "--deterministic",
        ]
    )
    assert rc == 0
    tree = json.loads((tmp_path / "out" / "tree.json").read_text())
    kinds = {e["kind"] for e in tree["events"]}
    assert kinds <= {"HW_INDEP", "HW_CCF"}


def test_filter_kind_list_matches_its_alias(model_path, tmp_path, capsys):
    args = ("--scope", "RPS", "--truncate", "1", "--filter")
    assert _analyze_digests(model_path, tmp_path / "alias", capsys, *args, "hardware") == (
        _analyze_digests(model_path, tmp_path / "list", capsys, *args, "HW_INDEP,HW_CCF")
    )


def test_filter_unknown_kind_is_a_usage_error(model_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--model", str(model_path), "--filter", "HW_INDEP,bogus",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "resha analyze: error: argument --filter: unknown event kind 'bogus'; "
        "use hardware/software/all or kind names"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("args", "notes"),
    [
        (("--top", "A00.00.02", "--truncate", "2"), 0),
        (("--scope", "RPS", "--truncate", "1", "--filter", "hardware"), 1),
    ],
    ids=["analog-breaker-unfiltered", "RPS-hardware"],
)
def test_report_names_the_filter_only_when_one_ran(args, notes, model_path, tmp_path, capsys):
    # A00.00.02 has no software events, yet no filter ran.
    _analyze_digests(model_path, tmp_path, capsys, *args)
    report = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert report.lower().count("excluded by filter") == notes


@pytest.mark.parametrize(
    "command",
    [["ucas", "--format", "markdown"], ["ccf-catalog"], ["cutsets", "--truncate", "2"]],
    ids=["ucas", "ccf-catalog", "cutsets"],
)
def test_out_file_holds_the_printed_bytes(command, model_path, tmp_path, capsys):
    if command[0] == "cutsets":
        _analyze_digests(model_path, tmp_path / "a", capsys, "--scope", "RPS", "--truncate", "1")
        source = ["--tree", str(tmp_path / "a" / "tree.json")]
    else:
        source = ["--model", str(model_path)]
    assert main([*command, *source]) == 0
    printed = capsys.readouterr()
    target = tmp_path / "table.txt"
    assert main([*command, *source, "--out", str(target)]) == 0
    written = capsys.readouterr()
    assert target.read_text(encoding="utf-8") == printed.out
    assert written.out == f"wrote {target}\n"
    assert written.err == printed.err


def test_oracle_check_reports_a_mismatch(monkeypatch, capsys):
    oracle = cutsetmod.brute_force_cut_sets
    dropped = []

    def drop_one_set_once(tree):
        found = oracle(tree)
        if dropped or not found.cut_sets:
            return found
        dropped.append(tree)
        return cutsetmod.CutSetCollection(found.cut_sets[1:], None, found.fingerprint)

    monkeypatch.setattr(cutsetmod, "brute_force_cut_sets", drop_one_set_once)
    assert main(["oracle-check", "--trees", "3", "--seed", "7"]) == 1
    captured = capsys.readouterr()
    assert len(dropped) == 1
    assert len(captured.err.splitlines()) == 1
    assert "MISMATCH" in captured.err
    assert captured.out == "oracle check FAILED on 1/3 trees\n"


def test_analyze_without_deterministic_writes_one_stamped_run(model_path, tmp_path, capsys):
    assert main(["analyze", "--model", str(model_path), "--scope", "RPS", "--truncate", "1",
                 "--out", str(tmp_path)]) == 0
    (run_dir,) = tmp_path.iterdir()
    assert re.fullmatch(r"run-\d{8}-\d{6}", run_dir.name)
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(_ARTIFACTS)
    assert capsys.readouterr().out.endswith(f"artifacts written to {run_dir}\n")


def test_analyze_unknown_scope_exit_1(model_path, tmp_path, capsys):
    rc = main(
        [
            "analyze",
            "--model", str(model_path),
            "--scope", "NOPE",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "[stage: fault-tree]" in capsys.readouterr().err


def test_analyze_per_action_scope_exit_0(model_path, tmp_path, capsys):
    """A scope that holds some of a source's actions leaves out the UCAs of the others."""
    rc = main(
        [
            "analyze",
            "--model", str(model_path),
            "--scope", "BP-SIG-1-A-LOST",
            "--truncate", "2",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize(("scope", "rc"), [("RPS", 0), ("RTS", 1)])
def test_analog_source_fails_only_scopes_that_hold_it(scope, rc, tmp_path, capsys):
    doc = build_rts_document()
    next(n for n in doc["nodes"] if n["id"] == "DP00.00.01")["technology"] = "analog"
    path = tmp_path / "analog-dps.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["analyze", "--model", str(path), "--scope", scope, "--truncate", "1",
            "--out", str(tmp_path / "out"), "--deterministic"]
    assert main(argv) == rc
    err = capsys.readouterr().err
    assert ("is analog and carries no software" in err) == bool(rc)


def test_analyze_missing_model_exit_2(tmp_path, capsys):
    rc = main(["analyze", "--model", str(tmp_path / "none.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_ucas_csv_stdout(model_path, capsys):
    assert main(["ucas", "--model", str(model_path)]) == 0
    captured = capsys.readouterr()
    assert "UCA18a" in captured.out
    assert "identified: 225" in captured.err


def test_ccf_catalog(model_path, capsys):
    assert main(["ccf-catalog", "--model", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "LC-BP-SF-CCF-TC" in out


def test_cutsets_subcommand_roundtrip(model_path, tmp_path, capsys):
    rc = main(
        [
            "analyze",
            "--model", str(model_path),
            "--scope", "RPS",
            "--truncate", "1",
            "--out", str(tmp_path / "a"),
            "--deterministic",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(
        [
            "cutsets",
            "--tree", str(tmp_path / "a" / "tree.json"),
            "--truncate", "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "SP-HD-CCF" in out


def test_oracle_check_subcommand(capsys):
    assert main(["oracle-check", "--trees", "50", "--seed", "7"]) == 0
    assert "passed" in capsys.readouterr().out


@pytest.mark.parametrize(("value", "token"), [("z", "z"), ("a,,c", ""), ("b,e", "e"), ("", "")])
def test_analyze_unknown_ccf_category_is_a_usage_error(value, token, model_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--model", str(model_path), "--ccf-categories", value,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "resha analyze: error: argument --ccf-categories: unknown UCA category "
        f"{token!r}; use a comma-separated subset of a,b,c,d"
    )
    assert not (tmp_path / "out").exists()


def test_analyze_ccf_categories_choose_the_software_ccfs(model_path, tmp_path, capsys):
    assert main(["analyze", "--model", str(model_path), "--scope", "RPS", "--truncate", "1",
                 "--ccf-categories", "b, d", "--out", str(tmp_path), "--deterministic"]) == 0
    capsys.readouterr()
    tree = json.loads((tmp_path / "tree.json").read_text(encoding="utf-8"))
    assert {e["category"] for e in tree["events"] if e["kind"] == "SW_CCF"} == {"b", "d"}


@pytest.mark.parametrize("flag", ["--trees", "--max-events", "--max-gates"])
@pytest.mark.parametrize("value", ["0", "-2", "x", "1.5"])
def test_oracle_check_counts_must_be_positive(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"resha oracle-check: error: argument {flag}: must be an integer >= 1, got {value!r}"
    )


def test_oracle_check_events_above_the_oracle_limit_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--trees", "1", "--max-events", "21"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "resha oracle-check: error: argument --max-events: must be at most 20, "
        "the brute-force oracle's event limit, got '21'"
    )
    assert main(["oracle-check", "--trees", "1", "--max-events", "20"]) == 0


@pytest.mark.parametrize("command", ["analyze", "cutsets"])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_truncate_below_one_is_a_usage_error(command, value, model_path, tmp_path, capsys):
    # Rejected while parsing, before the model or tree is read.
    source = ["--model", str(model_path)] if command == "analyze" else ["--tree", str(model_path)]
    with pytest.raises(SystemExit) as exc:
        main([command, *source, "--truncate", value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"resha {command}: error: argument --truncate: must be an integer >= 1, got {value!r}"
    )
    assert not (tmp_path / "out").exists()


def test_records_are_read_only_tuples(model_path):
    config = RunConfig(model_path=model_path, top="RPS", truncate=1, deterministic=True)
    artifacts = run_analysis(config)
    model, cs, tree = artifacts["model"], artifacts["control_structure"], artifacts["tree"]
    collection = artifacts["collection"]
    node = next(iter(model.nodes.values()))
    # One of each record type the pipeline makes.
    records = [
        config, model, node, node.id, model.links[0], model.losses[0], model.hazards[0],
        model.actions[0], model.gates[0], model.gates[0].children[0], model.ccf_policy,
        next(iter(model.classes.values())), derive_redundancy_groups(model)[0],
        ModelIssue("$", "unknown field"), cs, cs.layers[0], cs.actions[0], cs.feedbacks[0],
        artifacts["ucas"][0], tree, next(iter(tree.gates.values())),
        next(iter(tree.events.values())), collection, collection.cut_sets[0],
        artifacts["spofs"], artifacts["worksheets"][0], artifacts["catalog"][0],
        GuidanceBank.packaged().entries[0],
    ]
    for record in records:
        assert record == tuple(record), type(record).__name__
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    # Derived values are computed once, and a collection's length counts its cut sets.
    assert node.id.text is node.id.text
    assert tree.gate_order is tree.gate_order
    assert len(collection) == len(collection.cut_sets) == 13


def test_run_config_reads_resha_out_when_writing(model_path, tmp_path, monkeypatch):
    config = RunConfig(model_path=model_path, top="RPS", truncate=1, deterministic=True)
    monkeypatch.setenv("RESHA_OUT", str(tmp_path / "env"))
    assert write_artifacts(config, run_analysis(config)) == tmp_path / "env"
    assert (tmp_path / "env" / "report.md").is_file()


def test_deterministic_runs_are_byte_identical(model_path, tmp_path, capsys):
    for sub in ("one", "two"):
        rc = main(
            [
                "analyze",
                "--model", str(model_path),
                "--scope", "RPS",
                "--truncate", "1",
                "--out", str(tmp_path / sub),
                "--deterministic",
            ]
        )
        assert rc == 0
    capsys.readouterr()
    names = ["report.md", "ucas.csv", "cutsets.csv", "spofs.csv", "ccf_catalog.csv", "tree.json"]
    for name in names:
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{dir}"],
        ["analyze", "--model", "{dir}", "--out", "{dir}/out"],
        ["ucas", "--model", "{dir}"],
        ["ccf-catalog", "--model", "{dir}"],
        ["cutsets", "--tree", "{dir}"],
    ],
    ids=["validate", "analyze", "ucas", "ccf-catalog", "cutsets"],
)
def test_directory_input_exit_2_without_traceback(argv, tmp_path, capsys):
    rc = main([arg.format(dir=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    ("document", "named"),
    [
        ({"top": "G", "gates": [{"id": "G", "kind": "or", "children": "AB"}],
          "events": [{"id": "A", "kind": "HW_INDEP"}, {"id": "B", "kind": "HW_INDEP"}]},
         "children must be a list"),
        ([{"top": "A"}], "must be a JSON object"),
        ({"top": "G", "gates": [{"id": "G", "kind": "vote", "k": "2", "children": ["A", "B"]}],
          "events": [{"id": "A", "kind": "HW_INDEP"}, {"id": "B", "kind": "HW_INDEP"}]},
         "k must be an integer"),
        ({"top": "A", "gates": 5}, "'gates' must be a list"),
        ({"top": "A", "events": 7}, "'events' must be a list"),
        ({"top": "A", "gates": [5]}, "gates[0] must be an object"),
        ({"top": "G", "gates": [{"id": "G", "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_INDEP"}]}, "gates[0] ('G') is missing 'kind'"),
        ({"top": "G", "gates": [{"id": "G", "kind": "or", "children": ["A"]}],
          "events": [{"id": "A"}]}, "events[0] ('A') is missing 'kind'"),
        ({"gates": []}, "missing 'top'"),
        ({"top": "G", "gates": [{"id": "G", "kind": "or", "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_INDEP", "subjects": 5}]},
         "event 'A': 'subjects' must be a list"),
        ({"top": "G", "gates": [{"id": ["G"], "kind": "or", "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_INDEP"}]}, "gates[0]: 'id' must be a string"),
        ({"top": "G", "gates": [{"id": "G", "kind": "or", "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_INDEP", "subjects": ["bad"]}]},
         "event 'A': 'subjects': malformed node id 'bad'"),
        ({"top": ["G"], "gates": [{"id": "G", "kind": "or", "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_INDEP"}]}, "'top' must be a string"),
        ({"top": "G", "gates": [{"id": "G", "kind": "or", "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_INDEP", "description": 7}]},
         "event 'A': 'description' must be a string"),
        ({"top": "G", "gates": [{"id": "G", "kind": "or", "children": ["A"], "description": 7}],
          "events": [{"id": "A", "kind": "HW_INDEP"}]}, "gate 'G': 'description' must be a string"),
        ({"top": "G", "gates": [{"id": "G", "kind": "or", "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_INDEP", "category": [1]}]},
         "event 'A': 'category' must be a string"),
        ({"top": "G", "gates": [{"id": "G", "kind": "or", "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_INDEP", "uca": {}}]}, "event 'A': 'uca' must be a string"),
        ({"top": "G", "gates": [{"id": "G", "kind": "xor", "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_INDEP"}]}, "gate 'G': 'kind' must be one of"),
        ({"top": "G", "gates": [{"id": "G", "kind": ["or"], "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_INDEP"}]}, "gate 'G': 'kind' must be one of"),
        ({"top": "G", "gates": [{"id": "G", "kind": "or", "children": ["A"]}],
          "events": [{"id": "A", "kind": "HW_X"}]}, "event 'A': 'kind' must be one of"),
    ],
    ids=["children-string", "array-document", "k-string", "gates-int", "events-int",
         "gate-not-object", "gate-without-kind", "event-without-kind", "no-top",
         "subjects-int", "gate-id-list", "subject-malformed", "top-list",
         "event-description-int", "gate-description-int", "category-list", "uca-object",
         "gate-kind-xor", "gate-kind-list", "event-kind-unknown"],
)
def test_cutsets_malformed_exchange_document_exit_1(document, named, tmp_path, capsys):
    with pytest.raises(FaultTreeError):
        from_exchange_json(json.dumps(document))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    rc = main(["cutsets", "--tree", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("flags", [[], ["--filter", "hardware"]], ids=["all", "hardware"])
def test_analyze_deeply_nested_declarations(flags, tmp_path, capsys):
    # 1,500 nested ORs: deeper than Python's recursion limit.
    doc = build_rts_document()
    depth = 1500
    for i in range(depth):
        child = {"gate": f"DEEP{i + 1}"} if i + 1 < depth else {"gate": "RTS"}
        doc["gates"].append({"id": f"DEEP{i}", "kind": "or", "children": [child]})
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    rc = main(["analyze", "--model", str(path), "--top", "DEEP0", "--truncate", "1",
               *flags, "--out", str(tmp_path / "out"), "--deterministic"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "Traceback" not in captured.err
    assert "scope: DEEP0" in captured.out
    tree = json.loads((tmp_path / "out" / "tree.json").read_text())
    assert sum(g["id"].startswith("DEEP") for g in tree["gates"]) == depth



_DELETE = object()


def _mutate(doc, path: tuple, value) -> None:
    """Set the value at ``path`` in a model document, or delete it for ``_DELETE``."""
    *parents, key = path
    for step in parents:
        doc = doc[step]
    if value is _DELETE:
        del doc[key]
    else:
        doc[key] = value


@pytest.mark.parametrize(
    ("path", "value"),
    [
        (("control_actions", 1, "hazards", "a"), [["H1"]]),
        (("hazards", 0, "losses"), [["L1"]]),
        (("nodes", 3, "equipment_class"), {"a": 1}),
        # gates[11] is UV-$D-FAILS, gates[9] RTB-$D-FAILS-TO-OPEN.
        (("gates", 11, "children", 0, "fail"), 2.5),
        (("gates", 9, "children", 0, "gate"), ["x"]),
        (("gates", 33, "children", 0, "ca_to"), ["x"]),
        (("gates", 9, "description"), ["x"]),
        # JSON true is not the integer 1; gates[32] is the 3-of-n PARAM-1-UNDERVOTED.
        (("gates", 32, "k"), True),
        (("links", 77, "layer"), True),  # a physical split no action uses
        (("control_actions", 0, "layer"), True),
        # links[0] carries control_actions[0]; a bad layer still declares the link.
        (("links", 0, "layer"), 0),
    ],
    ids=["action-hazard-list", "hazard-loss-list", "equipment-class-object", "child-fail-float",
         "child-gate-list", "child-ca-to-list", "gate-description-list", "vote-k-true",
         "link-layer-true", "action-layer-true", "control-link-layer-zero"],
)
def test_malformed_model_value_exit_1(path, value, tmp_path, capsys):
    doc = build_rts_document()
    _mutate(doc, path, value)
    named = path[0] + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path[1:])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(model)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {named}: ") and err.count("\n") == 1
    assert main(["analyze", "--model", str(model), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and named in err and err.count("\n") == 1


@pytest.mark.parametrize(
    ("child", "key"),
    [
        ({"fail": "garbage"}, "fail"),
        ({"fail": "Z00.00.01"}, "fail"),
        ({"fail": "A00.00.01", "ca_to": "garbage"}, "ca_to"),
        ({"fail": "A00.00.01", "ca_to": "Z09.09.09"}, "ca_to"),
        ({"gate": "NOPE"}, "gate"),
    ],
    ids=["fail-malformed", "fail-no-node", "ca-to-malformed", "ca-to-no-node", "gate-unknown"],
)
def test_gate_reference_fault_exit_1(child, key, tmp_path, capsys):
    doc = build_rts_document()
    doc["gates"][0]["children"].append(child)  # gates[0] is RTS, not a template
    named = f"gates[0].children[2].{key}"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and err.count("\n") == 1
    assert main(["analyze", "--model", str(model), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and named in err and err.count("\n") == 1


@pytest.mark.parametrize(
    ("path", "value", "line"),
    [
        # gates[42] is the plain vote PARAM-6-UNDERVOTED.
        (("gates", 42, "children", 2), {"a": 1}, "gates[42].children[2].a: unknown field"),
        (("gates", 42), {"fail": "garbage"}, "gates[42].fail: unknown field"),
        # gates[41] is the template BP-SIG-5-$D-LOST, named once a division by gates[40].
        (("gates", 41, "id"), "BP-SIG-5-$D-GONE",
         "gates[40].children[0].gate: unknown gates 'BP-SIG-5-A-LOST', 'BP-SIG-5-B-LOST', "
         "'BP-SIG-5-C-LOST', 'BP-SIG-5-D-LOST'"),
        # nodes[54] is division C00.00.00, the parent of eight nodes; its first
        # child C00.00.01 moves up to nodes[54].
        (("nodes", 54), _DELETE,
         "nodes[54].id: missing parent node C00.00.00 (hierarchy must nest)"),
    ],
    ids=["child-unknown-key", "gate-unknown-key", "renamed-template", "deleted-division"],
)
def test_one_model_fault_one_line(path, value, line, tmp_path, capsys):
    doc = build_rts_document()
    _mutate(doc, path, value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert main(["analyze", "--model", str(model), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and line in err and err.count("\n") == 1


def _named(path: tuple) -> str:
    """The issue path of a document path: ``("nodes", 0, "name")`` is ``nodes[0].name``."""
    return path[0] + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path[1:])


@pytest.mark.parametrize(
    ("path", "value"),
    [
        (("control_actions", 0, "continuous"), "false"),
        (("control_actions", 0, "split"), "no"),
        (("ccf_policy", "include_intra_division"), 1),
        (("ccf_policy", "include_cross_all_divisions"), "true"),
        (("ccf_policy", "include_partial_interdivision"), "false"),
    ],
    ids=["continuous", "split", "include-intra", "include-cross", "include-partial"],
)
def test_boolean_field_rejects_other_values(path, value, tmp_path, capsys):
    """A string or number is not read as a flag: ``"false"`` would be truthy."""
    doc = build_rts_document()
    _mutate(doc, path, value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr().err == f"error: {_named(path)}: must be true or false\n"


_TEXT_FIELDS = [
    (("equipment_classes", 0, "prefix"), [1]),
    (("equipment_classes", 0, "display"), 5),
    (("nodes", 0, "name"), {"a": 1}),
    (("nodes", 0, "role"), 7),
    (("losses", 0, "description"), ["x"]),
    (("hazards", 0, "description"), 1.5),
    (("control_actions", 1, "verb"), 3),
    (("control_actions", 1, "source_label"), ["MCR"]),
    (("control_actions", 1, "action_phrase"), True),
    (("control_actions", 1, "contexts", "needed"), 1),
    (("control_actions", 1, "not_applicable", "d"), False),
]


@pytest.mark.parametrize(("path", "value"), _TEXT_FIELDS, ids=[_named(p) for p, _ in _TEXT_FIELDS])
def test_text_field_rejects_other_values(path, value, tmp_path, capsys):
    """A list or number is not rendered with ``str``: ``[1]`` would name events ``[1]-HD-CCF``."""
    doc = build_rts_document()
    _mutate(doc, path, value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr().err == f"error: {_named(path)}: must be a string\n"


def test_null_text_field_keeps_default(tmp_path, capsys):
    doc = build_rts_document()
    for path, _ in _TEXT_FIELDS:
        _mutate(doc, path, None)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(model)]) == 0
    parsed = parse_system_model(doc)
    assert parsed.classes[doc["equipment_classes"][0]["tag"]].prefix == doc["equipment_classes"][0]["tag"].upper()
    assert parsed.nodes[doc["nodes"][0]["id"]].name == doc["nodes"][0]["id"]
    action = parsed.actions[1]
    assert action.verb == "" and action.source_label == action.source.text
    assert action.context("needed") is None and "d" not in action.not_applicable


def _value_paths(node, prefix=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _value_paths(child, prefix + (key,))


_REFERENCE_DOCUMENT = json.dumps(build_rts_document())
_MUTATED_PATHS = st.sampled_from(list(_value_paths(json.loads(_REFERENCE_DOCUMENT))))
_MUTATED_VALUES = st.sampled_from(
    [None, 0, -1, 2.5, "", "x", [], {}, [1], {"a": 1}, True, _DELETE])
# A document path: ``$``, or names joined by dots, each followed by any number
# of ``[n]`` array indexes (so a node id inside brackets does not match).
_ISSUE_PATH = re.compile(r"\$|\w+(\[\d+\])*(\.\w+(\[\d+\])*)*")


def test_node_id_with_trailing_newline_rejected(tmp_path, capsys):
    """``$`` also matches before a final newline; the whole id must match."""
    doc = build_rts_document()
    _mutate(doc, ("nodes", 0, "id"), "RX00.00.00\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(model)]) == 1
    # One fault, one line: the references to the rejected node are not reported again.
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: nodes[0].id: malformed node id 'RX00.00.00\\n'")
    assert main(["analyze", "--model", str(model), "--out", str(tmp_path / "out")]) == 1
    assert "nodes[0].id" in capsys.readouterr().err


def test_node_id_in_non_ascii_digits_is_a_duplicate(tmp_path, capsys):
    """An id written in Arabic-Indic digits names the same node as its ASCII form."""
    doc = build_rts_document()
    doc["nodes"].append(dict(doc["nodes"][0], id="RX\u0660\u0660.\u0660\u0660.\u0660\u0660"))
    where = f"nodes[{len(doc['nodes']) - 1}].id"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr().err == f"error: {where}: duplicate node id RX00.00.00\n"


def test_issue_path_grammar():
    assert all(_ISSUE_PATH.fullmatch(p) for p in ("$", "gates", "nodes[54].id", "ccf_policy",
                                                   "gates[3].children[0].fail"))
    assert not any(_ISSUE_PATH.fullmatch(p) for p in ("nodes[C00.00.01]", "nodes[].id", "a..b"))


# Each example rewrites the one file and reads its own captured output.
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=_MUTATED_PATHS, value=_MUTATED_VALUES)
def test_validate_mutated_model_exits_cleanly(path, value, tmp_path, capsys):
    doc = json.loads(_REFERENCE_DOCUMENT)
    _mutate(doc, path, value)
    model = tmp_path / "mutated.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(model)]) in (0, 1, 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for line in err.splitlines():
        assert line.startswith("error: ") and _ISSUE_PATH.fullmatch(line[7:].split(": ")[0]), line


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=_MUTATED_PATHS, value=_MUTATED_VALUES)
def test_analyze_mutated_model_exits_cleanly(path, value, tmp_path, capsys):
    doc = json.loads(_REFERENCE_DOCUMENT)
    _mutate(doc, path, value)
    model = tmp_path / "mutated.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", "--model", str(model), "--scope", "RPS", "--truncate", "1",
                 "--out", str(tmp_path / "out"), "--deterministic"]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cutsets_mutated_exchange_document_exits_cleanly(auto_tree, data, tmp_path, capsys):
    doc = json.loads(to_exchange_json(auto_tree))
    _mutate(doc, data.draw(st.sampled_from(list(_value_paths(doc)))), data.draw(_MUTATED_VALUES))
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["cutsets", "--tree", str(tree), "--truncate", "2"]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
