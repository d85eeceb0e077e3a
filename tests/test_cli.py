from __future__ import annotations

import json
import random
import time

import pytest

import ultranorm
from ultranorm import FieldSpec, ProbeMap, UltranormError
from ultranorm.cli import main
from ultranorm.sampling import probe_grid, random_axial_isometry

Q3 = FieldSpec.parse("padic:3")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_norm_subcommand_byte_exact(capsys):
    code, out = run(capsys, "norm", "--field", "padic:3", "--norm", "one",
                    "--vec", "9,1/3")
    assert code == 0
    assert out == '{"value":"28/9"}'


def test_output_is_deterministic(capsys):
    argv = ("minimize", "--field", "padic:3", "--a", "0,0", "--c", "9,1/3")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_distance_subcommand(capsys):
    code, payload = run_json(capsys, "distance", "--field", "padic:3",
                             "--norm", "one", "--x", "1,0", "--y", "0,1")
    assert code == 0 and payload == {"value": "2"}


def test_between_subcommand(capsys):
    code, payload = run_json(capsys, "between", "--field", "gf:3",
                             "--x", "0,0", "--z", "0,1", "--y", "1,1")
    assert code == 0 and payload == {"between": True}
    code, payload = run_json(capsys, "between", "--field", "gf:3",
                             "--x", "0,0", "--z", "2,2", "--y", "1,1")
    assert code == 0 and payload == {"between": False}


def test_segment_subcommand(capsys):
    code, payload = run_json(capsys, "segment", "--field", "padic:3",
                             "--x", "1,0", "--y", "0,1")
    assert code == 0
    assert payload["k"] == 2
    assert sorted(map(tuple, payload["segment"])) == [
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


def test_minimize_subcommand(capsys):
    code, payload = run_json(capsys, "minimize", "--field", "padic:3",
                             "--a", "0,0", "--c", "9,1/3")
    assert code == 0
    assert payload["minimum"] == "28/9"
    assert len(payload["witnesses"]) == 4


def test_enumerate_subcommand(capsys):
    code, payload = run_json(capsys, "enumerate", "--q", "2", "--n", "2",
                             "--norm", "one")
    assert code == 0
    for key, value in {"isometries": 8, "axial": 8, "formula": 8,
                       "match": True}.items():
        assert payload[key] == value
    assert "duration_s" not in payload  # timing only on request
    code, payload = run_json(capsys, "enumerate", "--q", "2", "--n", "2",
                             "--timing")
    assert code == 0 and "duration_s" in payload


def test_check_betweenness_subcommand(capsys):
    code, payload = run_json(capsys, "check-betweenness", "--q", "2", "--n", "3")
    assert code == 0
    assert payload["triples"] == 512 and payload["mismatches"] == 0


def test_check_axioms_subcommand(capsys):
    code, payload = run_json(capsys, "check-axioms", "--field", "padic:5",
                             "--norm", "one", "--dim", "2",
                             "--samples", "100", "--seed", "3")
    assert code == 0
    assert payload["valuation"]["ok"] is True
    assert payload["norm"]["ok"] is True


def test_verify_and_decompose_from_file(tmp_path, capsys):
    rng = random.Random(41)
    iso = random_axial_isometry(Q3, 2, rng)
    pm = ProbeMap.from_isometry(iso, probe_grid(Q3, 2, 24))
    path = tmp_path / "probes.json"
    path.write_text(json.dumps(pm.to_json_dict()), encoding="utf-8")

    code, payload = run_json(capsys, "verify", "--norm", "one",
                             "--probes", str(path))
    assert code == 0 and payload["ok"] is True

    code, payload = run_json(capsys, "decompose", "--probes", str(path))
    assert code == 0
    assert sorted(payload["sigma"]) == [0, 1]
    assert len(payload["taus"]) == 2


def test_probes_from_stdin(capsys, monkeypatch):
    import io

    rng = random.Random(42)
    iso = random_axial_isometry(Q3, 2, rng)
    pm = ProbeMap.from_isometry(iso, probe_grid(Q3, 2, 16))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(pm.to_json_dict())))
    code, payload = run_json(capsys, "verify", "--norm", "one", "--probes", "-")
    assert code == 0 and payload["ok"] is True


def test_counterexample_pipeline(capsys):
    code, payload = run_json(
        capsys, "counterexample", "--field", "padic:3",
        "--e0", "1,0", "--v0", "1/3,0", "--values", "0,1,1/3,2/3,3,4/3")
    assert code == 0
    assert payload["complete"] is False
    moved = [pair for pair in payload["pairs"] if pair[0] != pair[1]]
    assert moved  # the critical sphere is hit


def test_counterexample_grid_is_capped(capsys):
    t0 = time.perf_counter()
    code, payload = run_json(capsys, "counterexample", "--field", "padic:3",
                             "--e0", ",".join(["1"] + ["0"] * 13),
                             "--v0", ",".join(["1/3"] + ["0"] * 13), "--values", "0,1,2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and payload["error"]["type"] == "enumeration-too-large"
    assert payload["error"]["size"] == 4782969


def test_counterexample_needs_probe_source(capsys):
    code, payload = run_json(capsys, "counterexample", "--field", "padic:3",
                             "--e0", "1,0", "--v0", "1/3,0")
    assert code == 1 and payload["error"]["type"] == "parse"


def test_domain_errors_exit_one_with_structured_json(capsys):
    code, payload = run_json(capsys, "norm", "--field", "padic:4",
                             "--norm", "one", "--vec", "1")
    assert code == 1
    assert payload["error"]["type"] == "parse"
    assert "4" in payload["error"]["message"]

    code, payload = run_json(capsys, "norm", "--field", "padic:3",
                             "--norm", "one", "--vec", "9,x/3")
    assert code == 1
    assert "x/3" in payload["error"]["message"]  # names the offending token

    code, payload = run_json(capsys, "segment", "--field", "padic:3",
                             "--x", "1,0,1", "--y", "0,1,0", "--cap", "2")
    assert code == 1
    assert payload["error"]["type"] == "enumeration-too-large"
    assert payload["error"]["size"] == 8


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["norm", "--field", "padic:3"])  # missing required flags
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["norm", "--unknown-flag", "1"])
    assert err.value.code == 2


def test_environment_sets_no_cap(capsys, monkeypatch):
    monkeypatch.setenv("ULTRANORM_MAX_ENUM", "2")
    code, payload = run_json(capsys, "segment", "--field", "padic:3",
                             "--x", "1,0", "--y", "0,1")
    assert code == 0 and payload["k"] == 2


def test_error_kinds_are_distinct():
    exported = [getattr(ultranorm, name) for name in ultranorm.__all__]
    kinds = [obj.kind for obj in exported
             if isinstance(obj, type) and issubclass(obj, UltranormError)]
    assert len(kinds) == 9
    assert len(set(kinds)) == len(kinds)
    assert "internal" not in kinds


def test_bug_exits_three_as_internal(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("ultranorm.cli._cmd_norm", boom)
    code = main(["norm", "--field", "padic:3", "--norm", "one", "--vec", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {
        "error": {"type": "internal", "message": "RuntimeError: boom"}}
    assert "Traceback" in captured.err


@pytest.mark.parametrize("argv, kind, named", [
    (["enumerate", "--q", "2", "--n", "-1"], "invalid-input", "got -1"),
    (["check-betweenness", "--q", "2", "--n", "0"], "invalid-input", "got 0"),
    (["enumerate", "--q", "2", "--n", "300000000"], "enumeration-too-large",
     "2^300000000"),
    (["check-betweenness", "--q", "2", "--n", "20000"], "enumeration-too-large",
     "2^60000"),
    (["segment", "--field", "padic:3", "--x", ",".join(["0"] * 15000),
      "--y", ",".join(["1"] * 15000)], "enumeration-too-large", "k=15000"),
    (["norm", "--field", "padic:1000000000000000003", "--norm", "one", "--vec", "1"],
     "parse", "2^32"),
    (["enumerate", "--q", "1000000000000000003", "--n", "0"], "invalid-input", "2^32"),
], ids=["enumerate-n-negative", "betweenness-n-zero", "enumerate-n-huge",
        "betweenness-n-huge", "segment-k-huge", "field-modulus-huge",
        "enumerate-q-huge"])
def test_hostile_inputs_get_typed_errors_fast(capsys, argv, kind, named):
    t0 = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert payload["error"]["type"] == kind
    assert named in payload["error"]["message"]
    if kind == "enumeration-too-large":
        assert payload["error"]["size"] is None


@pytest.mark.parametrize("change, named", [
    ({"pairs": None}, "None"),
    ({"pairs": [[1, 2]]}, "[1, 2]"),
    ({"pairs": [[["1"], 5]]}, "5"),
    ({"complete": "false"}, "'false'"),
    ({"n": 1.7}, "1.7"),
    ({"pairs": [[[12345678901234567890.0], ["2"]]]}, "1.2345678901234567e+19"),
], ids=["pairs-null", "pair-of-numbers", "image-a-number", "complete-a-string",
        "n-a-float", "coordinate-a-float"])
def test_malformed_probe_files_are_parse_errors(capsys, monkeypatch, change, named):
    import io

    probes = {"field": "padic:3", "n": 1, "pairs": [[["1"], ["2"]]], **change}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(probes)))
    code, payload = run_json(capsys, "verify", "--norm", "one", "--probes", "-")
    assert code == 1 and payload["error"]["type"] == "parse"
    assert named in payload["error"]["message"]


def test_probe_integer_past_digit_limit_is_parse_error(capsys, monkeypatch):
    import io

    text = '{"field":"padic:3","n":1,"pairs":[[[' + "1" * 5000 + '],["1"]]]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, payload = run_json(capsys, "verify", "--norm", "one", "--probes", "-")
    assert code == 1 and payload["error"]["type"] == "parse"
    assert "4300 digits" in payload["error"]["message"]


def test_text_format(capsys):
    code, out = run(capsys, "norm", "--field", "padic:3", "--norm", "one",
                    "--vec", "9,1/3", "--format", "text")
    assert code == 0
    assert out.startswith("value: 28/9")
    assert "3.11111" in out  # decimal rendering is display-only
    code, out = run(capsys, "norm", "--field", "padic:3", "--norm",
                    "wsup:1" + "0" * 400 + "/7", "--vec", "1", "--format", "text")
    assert code == 0
    assert out == "value: 1" + "0" * 400 + "/7"  # beyond float range: exact only


def test_missing_probe_file_is_domain_error(capsys):
    code, payload = run_json(capsys, "verify", "--norm", "one",
                             "--probes", "/nonexistent/probes.json")
    assert code == 1 and payload["error"]["type"] == "parse"
