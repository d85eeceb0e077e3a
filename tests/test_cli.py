from __future__ import annotations

import json
import random
import re
import time

import pytest

import ultranorm
from ultranorm import FieldSpec, ProbeMap, UltranormError
from ultranorm.cli import build_parser, main

from gen import probe_grid, random_axial_isometry

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


@pytest.mark.parametrize("argv", [("enumerate", "--q", "2", "--n", "2"),
                                  ("check-betweenness", "--q", "2", "--n", "2")],
                         ids=["enumerate", "check-betweenness"])
def test_timing_appends_duration_as_the_last_key(capsys, argv):
    code, plain = run_json(capsys, *argv)
    timed_code, timed = run_json(capsys, *argv, "--timing")
    assert code == timed_code == 0 and "duration_s" not in plain
    assert list(timed)[-1] == "duration_s" and timed.pop("duration_s") >= 0
    assert list(timed.items()) == list(plain.items())


def test_decompose_names_at_most_ten_missing_residues(capsys, tmp_path):
    # the origin and one axis probe over gf:1000003: 1000001 residues are missing
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps(
        {"field": "gf:1000003", "n": 1, "pairs": [[["0"], ["0"]], [["1"], ["1"]]]}))
    t0 = time.perf_counter()
    code, out = run(capsys, "decompose", "--probes", str(probes))
    assert time.perf_counter() - t0 < 1
    assert code == 1 and len(out.encode()) < 1024
    error = json.loads(out)["error"]
    assert error["type"] == "under-determined" and error["axis"] == 0
    assert error["message"].endswith("'9'] and 999991 more")


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


@pytest.mark.parametrize("command", ["enumerate", "check-betweenness"])
def test_a_huge_cap_does_not_lift_the_space_cap(capsys, command):
    code, payload = run_json(capsys, command, "--q", "2", "--n", "20", "--cap", str(10 ** 30))
    assert code == 1 and payload["error"]["type"] == "enumeration-too-large"
    assert (payload["error"]["size"], payload["error"]["cap"]) == (2 ** 20, 2 ** 16)


@pytest.mark.parametrize("command, n, cap", [
    ("enumerate", 16, 2 ** 16),
    ("check-betweenness", 11, 10 ** 30),
])
def test_the_oracle_distance_table_is_capped(capsys, command, n, cap):
    code, payload = run_json(capsys, command, "--q", "2", "--n", str(n), "--cap", str(cap))
    assert code == 1 and payload["error"]["type"] == "enumeration-too-large"
    assert (payload["error"]["size"], payload["error"]["cap"]) == (2 ** (2 * n), 2 ** 20)


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
    (["norm", "--field", "padic:3", "--norm", "wsup:1" + "0" * 3000,
      "--vec", f"1/{3 ** 6000}"], "invalid-input", "4300-digit limit"),
    (["check-axioms", "--field", "padic:3", "--samples", "1" + "0" * 1300],
     "enumeration-too-large", "0 samples x 1 coordinates"),
    (["check-axioms", "--field", "padic:3", "--norm", "one", "--dim", "1" + "0" * 1300],
     "enumeration-too-large", "500 samples x 1000"),
    (["check-axioms", "--field", "padic:3", "--norm", "one", "--samples", "-5"],
     "invalid-input", "--samples"),
    (["check-axioms", "--field", "padic:3", "--norm", "one", "--dim", "0"],
     "invalid-input", "--dim must be at least 1, got 0"),
    (["check-axioms", "--field", "padic:3", "--norm", "one", "--dim", "-3"],
     "invalid-input", "--dim must be at least 1, got -3"),
], ids=["enumerate-n-negative", "betweenness-n-zero", "enumerate-n-huge",
        "betweenness-n-huge", "segment-k-huge", "field-modulus-huge",
        "enumerate-q-huge", "result-past-digit-limit", "axioms-samples-huge",
        "axioms-dim-huge", "axioms-samples-negative", "axioms-dim-zero",
        "axioms-dim-negative"])
def test_hostile_inputs_get_typed_errors_fast(capsys, argv, kind, named):
    t0 = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert payload["error"]["type"] == kind
    assert named in payload["error"]["message"]
    if kind == "enumeration-too-large":
        assert payload["error"]["size"] is None


@pytest.mark.parametrize("extra, size, named", [
    (["--samples", "100000000"], 100000000, "100000000 samples x 1 coordinates"),
    (["--norm", "one", "--dim", "1000000000"], 500000000000,
     "500 samples x 1000000000 coordinates"),
    (["--norm", "sup", "--samples", "20000", "--dim", "4"], 80000,
     "20000 samples x 4 coordinates"),
])
def test_check_axioms_work_is_capped(capsys, extra, size, named):
    t0 = time.perf_counter()
    code, payload = run_json(capsys, "check-axioms", "--field", "padic:3", *extra)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert payload["error"]["type"] == "enumeration-too-large"
    assert named in payload["error"]["message"]
    assert (payload["error"]["size"], payload["error"]["cap"]) == (size, 2 ** 16)


@pytest.mark.parametrize("probes", [1025, 2000])
def test_verify_work_is_capped(capsys, monkeypatch, probes):
    import io

    pairs = [[[str(i)], [str(i)]] for i in range(probes)]
    text = json.dumps({"field": "padic:3", "n": 1, "pairs": pairs})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    t0 = time.perf_counter()
    code, payload = run_json(capsys, "verify", "--norm", "one", "--probes", "-")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert payload["error"] == {
        "type": "enumeration-too-large",
        "message": f"enumeration of {probes ** 2} elements exceeds cap 1048576 "
                   f"({probes} probes, squared)",
        "size": probes ** 2, "cap": 2 ** 20}


@pytest.mark.parametrize("probes", [1025, 2000])
def test_decompose_work_is_capped(capsys, tmp_path, probes):
    # axis probes shifting one residue class by 9 fit no affine map, so
    # without the cap TableMap would compare every pair of them
    pairs = [[["0"], ["0"]]] + [[[str(i)], [str(i + 9 if i % 3 == 1 else i)]]
                                for i in range(1, probes)]
    path = tmp_path / "probes.json"
    path.write_text(json.dumps({"field": "padic:3", "n": 1, "pairs": pairs}))
    t0 = time.perf_counter()
    code, payload = run_json(capsys, "decompose", "--probes", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert payload["error"] == {
        "type": "enumeration-too-large",
        "message": f"enumeration of {probes ** 2} elements exceeds cap 1048576 "
                   f"({probes} probes, squared)",
        "size": probes ** 2, "cap": 2 ** 20}


def test_sup_enumeration_past_its_cap_is_refused_fast(capsys):
    t0 = time.perf_counter()
    code, payload = run_json(capsys, "enumerate", "--q", "3", "--n", "2", "--norm", "sup")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert payload["error"] == {
        "type": "enumeration-too-large",
        "message": "enumeration of 9 elements exceeds cap 7 (F_3^2)",
        "size": 9, "cap": 7}


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


@pytest.mark.parametrize("argv", [["verify", "--norm", "one"], ["decompose"]],
                         ids=["verify", "decompose"])
@pytest.mark.parametrize("change", [
    {"pairs": [[[1]] * 200002]},
    {"n": [0] * 300000},
    {"pairs": [[[[0] * 100000], ["1"]]]},
    {"field": "x" * 500000},
    {"field": "gf:5", "pairs": [[["1" * 500000], ["1"]]]},
], ids=["long-pair", "n-a-long-list", "coordinate-a-long-list", "long-field-tag",
        "long-residue"])
def test_huge_malformed_probe_input_gets_a_short_parse_error(capsys, monkeypatch,
                                                             argv, change):
    import io

    probes = {"field": "padic:3", "n": 1, "pairs": [[["1"], ["2"]]], **change}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(probes)))
    code = main([*argv, "--probes", "-"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["error"]["type"] == "parse"
    assert len(out.encode()) < 1024


@pytest.mark.parametrize("argv", [
    ["verify", "--norm", "one"],
    ["decompose"],
    ["counterexample", "--field", "padic:3", "--e0", "1,0", "--v0", "1/3,0"],
], ids=["verify", "decompose", "counterexample"])
def test_deeply_nested_probe_input_is_parse_error(capsys, monkeypatch, argv):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000 + "]" * 100000))
    code, payload = run_json(capsys, *argv, "--probes", "-")
    assert code == 1
    assert payload["error"] == {
        "type": "parse", "message": "probe input nests too deeply to parse"}


@pytest.mark.parametrize("field, pairs, kind", [
    ("gf:2", [[["0", "0"], ["0", "0"]], [["1", "0"], ["1", "0"]]], "field-mismatch"),
    ("padic:3", [[["0", "0", "0"], ["0", "0", "0"]], [["1", "0", "0"], ["1", "0", "0"]]],
     "dimension-mismatch"),
], ids=["gf2-probes", "3-dim-probes"])
def test_counterexample_rejects_probes_from_another_space(capsys, monkeypatch,
                                                          field, pairs, kind):
    import io

    text = json.dumps({"field": field, "n": len(pairs[0][0]), "pairs": pairs})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, payload = run_json(capsys, "counterexample", "--field", "padic:3",
                             "--e0", "1,0", "--v0", "1/3,0", "--probes", "-")
    assert code == 1 and payload["error"]["type"] == kind


def test_format_is_a_usage_error_on_every_subcommand(capsys, tmp_path):
    # JSON is the only output: each argv runs as given, and adding --format text
    # makes it a usage error
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"field": "gf:2", "n": 1, "pairs": [
        [["0"], ["0"]], [["1"], ["1"]]]}), encoding="utf-8")
    argvs = [
        ["norm", "--field", "gf:2", "--norm", "one", "--vec", "1"],
        ["distance", "--field", "gf:2", "--norm", "one", "--x", "1", "--y", "0"],
        ["between", "--field", "gf:2", "--x", "0", "--z", "1", "--y", "1"],
        ["segment", "--field", "gf:2", "--x", "0", "--y", "1"],
        ["minimize", "--field", "gf:2", "--a", "0", "--c", "1"],
        ["verify", "--norm", "one", "--probes", str(probes)],
        ["decompose", "--probes", str(probes)],
        ["counterexample", "--field", "padic:3", "--e0", "3", "--v0", "1", "--values", "0,1"],
        ["enumerate", "--q", "2", "--n", "1"],
        ["check-betweenness", "--q", "2", "--n", "1"],
        ["check-axioms", "--field", "gf:2", "--samples", "1"],
    ]
    listed = re.search(r"\{([\w,-]+)\}", build_parser().format_usage())[1]
    assert sorted(argv[0] for argv in argvs) == sorted(listed.split(","))
    for argv in argvs:
        assert main(argv) == 0, argv
        with pytest.raises(SystemExit) as err:
            main(argv + ["--format", "text"])
        assert err.value.code == 2, argv


def test_missing_probe_file_is_domain_error(capsys):
    code, payload = run_json(capsys, "verify", "--norm", "one",
                             "--probes", "/nonexistent/probes.json")
    assert code == 1 and payload["error"]["type"] == "parse"


def test_long_probe_path_gets_a_short_parse_error(capsys):
    code = main(["decompose", "--probes", "p" * 100000])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["error"]["type"] == "parse"
    assert len(out.encode()) < 1024


def test_trivially_valued_decompose_of_a_full_cap_of_probes_is_fast(capsys, tmp_path):
    # 1024 probes, the most decompose takes; the fitted table used to check every
    # pair of its entries, though injectivity alone decides it here
    swap = {1: 2, 2: 1}
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"field": "trivial:q", "n": 1, "pairs": [
        [[str(x)], [str(swap.get(x, x))]] for x in range(1024)]}))
    t0 = time.perf_counter()
    code, payload = run_json(capsys, "decompose", "--probes", str(probes))
    assert time.perf_counter() - t0 < 1
    assert code == 0
    table = [[str(x), str(swap.get(x, x))] for x in range(1, 1024)] + [["0", "0"]]
    assert payload == {"field": "trivial:q", "sigma": [0], "taus": [{"table": table}],
                       "translation": ["0"]}
    probes.write_text(json.dumps({"field": "trivial:q", "n": 1, "pairs": [
        [[str(x)], [str(min(x, 1022))]] for x in range(1024)]}))
    t0 = time.perf_counter()
    code, out = run(capsys, "decompose", "--probes", str(probes))
    assert time.perf_counter() - t0 < 1
    assert code == 1
    assert out == ('{"error":{"type":"decomposition-failure","message":"axis 0 data fits no '
                   'scalar isometry: table not injective: 1022 and 1023 both map to 1022",'
                   '"witness":{"point":"1","image":"1"}}}')


@pytest.mark.parametrize("command, cap", [
    ("segment", "DEFAULT_ENUM_CAP"),
    ("minimize", "DEFAULT_ENUM_CAP"),
    ("enumerate", "DEFAULT_SPACE_CAP"),
    ("enumerate", "DEFAULT_ULTRAMETRIC_SPACE_CAP"),
    ("check-betweenness", "DEFAULT_TRIPLE_CAP"),
    ("check-axioms", "DEFAULT_ENUM_CAP"),
])
def test_cap_help_shows_the_constants_value(capsys, command, cap):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f" {getattr(ultranorm.errors, cap)}" in capsys.readouterr().out
