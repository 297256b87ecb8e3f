"""CLI contract: reports, exit codes, determinism, output formats."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import matsuo
from matsuo import autos, linalg, verify
from matsuo.algebra import MatsuoAlgebra, NotSemisimple
from matsuo.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, SUITE_NAMES, main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, capsys):
    code, out, _ = run(argv + ["--json"], capsys)
    return code, json.loads(out)


def test_build_s5(capsys):
    code, doc = run_json(["build", "S5"], capsys)
    assert code == EXIT_OK
    assert doc["schema"] == 1
    assert doc["results"]["points"] == 10
    assert doc["results"]["lines"] == 10


def test_build_affine_reports_vertical_lines(capsys):
    code, doc = run_json(["build", "3W:A3", "--field", "Q"], capsys)
    assert code == EXIT_OK
    assert doc["results"]["points"] == 18
    assert doc["results"]["vertical_lines"] == 6


def test_build_moufang_over_f7(capsys):
    code, doc = run_json(["build", "M3:3", "--field", "F7"], capsys)
    assert code == EXIT_OK
    assert doc["results"] == {
        "points": 27, "lines": 117, "family": "moufang", "connected": True
    }


def test_build_products_export(capsys):
    code, doc = run_json(["build", "S3", "--products"], capsys)
    assert code == EXIT_OK
    alg = doc["results"]["algebra"]
    assert alg["eta"] == "1/2"
    assert len(alg["basis"]) == 3


@pytest.mark.parametrize(
    "group,dim", [("W:D4", 0), ("3W:A3", 3), ("S5", 6)]
)
def test_derive_dimensions(capsys, group, dim):
    code, doc = run_json(["derive", group], capsys)
    assert code == EXIT_OK
    assert doc["results"]["dimension"] == {"leibniz": dim, "r": dim}
    assert doc["results"]["systems_agree"] is (True if dim >= 0 else False)
    assert len(doc["results"]["basis"]) == dim


def test_classify_lines(capsys):
    code, doc = run_json(["classify-lines", "3W:A3"], capsys)
    assert code == EXIT_OK
    r = doc["results"]
    assert r["near_solid"] == 6
    assert r["vertical_near_solid"] == 6
    assert r["near_solid_lines_form_spread"] is True
    code, doc = run_json(["classify", "W:D4"], capsys)  # alias
    assert doc["results"]["near_solid"] == 0


def test_verify_suites(capsys):
    code, doc = run_json(
        ["verify", "model", "--type", "A2", "--field", "Q(sqrt:3)"], capsys
    )
    assert code == EXIT_OK
    assert doc["passed"] is True
    code, doc = run_json(
        ["verify", "equivalence", "--group", "M3:3", "--field", "F7"], capsys
    )
    assert code == EXIT_OK
    code, doc = run_json(
        ["verify", "torus", "--type", "A2", "--field", "F13", "--trials", "3"], capsys
    )
    assert code == EXIT_OK


def test_verify_all_small_field(capsys):
    code, doc = run_json(
        ["verify", "all", "--field", "F13", "--trials", "2"], capsys
    )
    assert code == EXIT_OK
    assert doc["results"]["failed"] == 0
    checks = {c["check"] for c in doc["results"]["checks"]}
    assert any(c.startswith("fusion") for c in checks)
    assert any(c.startswith("section") for c in checks)


@pytest.mark.parametrize(
    "argv",
    [
        # section draws its parameters as torus does: at seed 0 it skips t = 4/7 and
        # 3/2 (1 + t^2 = 0 in F13); over F37 the draws miss t = +-6, and
        # test_verify.py::test_param_skips_points_not_on_the_circle covers that skip
        ["section", "--type", "D4", "--field", "F13"],
        ["section", "--type", "D5", "--field", "F37"],
        # the seeded draws t = a/b include b = 11, which has no inverse in F11
        ["torus", "--type", "A2", "--field", "F11", "--trials", "3"],
        # the first draw at seed 0, t = 4/7, has no image in characteristic 7
        ["section", "--type", "A2", "--field", "F7(sqrt:3)"],
    ],
)
def test_verify_skips_parameters_with_no_circle_point(capsys, argv):
    code, doc = run_json(["verify", *argv], capsys)
    assert code == EXIT_OK
    (entry,) = doc["results"]["checks"]
    assert entry["passed"]


def test_section_report_does_not_depend_on_the_seed(capsys):
    argv = ["verify", "section", "--type", "A3", "--field", "F13", "--seed"]
    docs = [run_json([*argv, str(seed)], capsys)[1] for seed in range(4)]
    assert docs[0]["passed"] and all(d["results"] == docs[0]["results"] for d in docs)


def test_verify_failed_check_exits_1(monkeypatch, capsys):
    def one_violation(self, a):
        return [{"axis": a, "law": "0*0", "pair": (0, 0)}] if a == 0 else []

    monkeypatch.setattr(MatsuoAlgebra, "check_fusion", one_violation)
    code, doc = run_json(["verify", "fusion", "--group", "S3"], capsys)
    assert code == EXIT_FAIL
    assert doc["passed"] is False and doc["results"]["failed"] == 1
    code, out, _ = run(["verify", "fusion", "--group", "S3"], capsys)
    assert code == EXIT_FAIL
    assert "  [FAIL] fusion S3\n" in out


def _raise(exc):
    def raiser(*args):
        raise exc

    return raiser


@pytest.mark.parametrize(
    "owner,attr,exc,argv",
    [
        (autos, "model_b_iso", autos.VerificationFailure("not multiplicative"),
         ["model", "--type", "A2", "--field", "F13"]),
        (MatsuoAlgebra, "check_fusion", NotSemisimple("axis 0"), ["fusion", "--group", "S3"]),
    ],
)
def test_verify_raised_error_is_a_failed_entry(monkeypatch, capsys, owner, attr, exc, argv):
    monkeypatch.setattr(owner, attr, _raise(exc))
    code, out, err = run(["verify", *argv, "--json"], capsys)
    assert code == EXIT_FAIL and err == ""
    (entry,) = json.loads(out)["results"]["checks"]
    assert entry["passed"] is False
    assert entry["detail"] == {"error": str(exc)}


def test_fusion_solves_no_nullspace(monkeypatch, capsys):
    """Each axis's eigenbasis is read off the lines through it, not solved for."""
    monkeypatch.setattr(linalg, "nullspace", _raise(AssertionError("nullspace called")))
    assert run(["verify", "fusion", "--group", "3W:D4"], capsys)[0] == EXIT_OK


def test_usage_errors_exit_2(capsys):
    assert run(["build", "NOPE"], capsys)[0] == EXIT_USAGE
    assert run(["build", "S4", "--field", "Fp:4"], capsys)[0] == EXIT_USAGE
    assert run(["build", "S4", "--eta", "x"], capsys)[0] == EXIT_USAGE
    assert run(["build", "S4", "--eta", "1"], capsys)[0] == EXIT_USAGE
    assert run(["verify", "model", "--field", "Q"], capsys)[0] == EXIT_USAGE
    assert run(["verify", "bogus-suite"], capsys)[0] == EXIT_USAGE
    assert run(["no-such-command"], capsys)[0] == EXIT_USAGE
    # two report formats are refused before the command runs, not settled silently
    assert run(["build", "S3", "--json", "--csv"], capsys) == (
        EXIT_USAGE, "", "error: --json and --csv cannot be given together\n"
    )
    # a number over the digit limit of int() is a bad descriptor, not a traceback
    long = "1" * (sys.get_int_max_str_digits() + 1)
    for field in (f"F{long}", f"Q(sqrt:{long})"):
        code, out, err = run(["build", "S4", "--field", field], capsys)
        assert (code, out) == (EXIT_USAGE, "") and err.count("\n") == 1
    # an exponent is refused before Fraction builds 10^400
    code, out, err = run(["build", "S3", "--eta", "1e400"], capsys)
    assert (code, out) == (EXIT_USAGE, "") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "S4", "--eta", "2"],  # --system both needs eta = 1/2 for (R1)-(R7)
        ["derive", "S4", "--eta", "1/3", "--system", "r"],
        ["build", "S4", "--field", "F3", "--eta", "1/3"],  # 1/3 has no image in F3
        ["build", "S4", "--field", "F318665857834031151167461"],  # composite, above 2^64
        ["verify", "all", "--trials", "-1", "--group", "S3", "--field", "F13"],
        ["verify", "fusion", "--group", "NOPE"],  # descriptors are checked before any suite runs
        ["verify", "model", "--type", "X9", "--field", "F13"],
        ["verify", "all", "--group", "S1"],
        ["verify", "torus", "--type", "E9", "--field", "F13"],
        ["verify", "fusion", "--group", "S3", "--eta", "1/3", "--json"],  # suites run at eta = 1/2
        ["verify", "fusion", "--group", "S3", "--eta", "1/0"],
        ["verify", "fusion", "--group", "S3", "--eta", "x"],
        ["classify-lines", "S3", "--field", "garbage", "--eta", "x", "--json"],
        ["classify-lines", "S3", "--eta", "x"],
        ["classify-lines", "S3", "--eta", "1/7", "--field", "F7"],
        ["classify-lines", "S3", "--field", "Fp:4"],
        ["build", "S3", "--field", "Q(sqrt:1/0)"],
        ["build", "S3", "--field", "F5(sqrt:1/5)"],  # 1/5 has no image in F5
        ["build", "S4", "--out", "/dev/null/x"],  # the report cannot be written
        ["verify", "fusion", "--group", "", "--field", "F13"],  # not the whole catalog
        ["verify", "torus", "--type", "", "--field", "F13"],
    ],
)
def test_bad_inputs_give_one_line_and_exit_2(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("system", ["both", "leibniz"])
def test_derive_refuses_the_leibniz_rows_of_3w_e8(capsys, system):
    """23.4 M Leibniz rows at most would not fit: exit 2, naming --system r, in seconds."""
    t0 = time.perf_counter()
    code, out, err = run(["derive", "3W:E8", "--system", system], capsys)
    assert time.perf_counter() - t0 < 10
    assert (code, out) == (EXIT_USAGE, "")
    assert err.count("\n") == 1 and "23,392,800" in err and "--system r" in err


GROUPS = ["S2", "S3", "S4", "W:A2", "3W:A1", "M3:1", "M3:2", "S1", "S", "W:X2", "3W:E9", "M3:x", "NOPE"]
FIELDS = ["Q", "F5", "F7", "F13", "F3", "F91", "Q(sqrt:3)", "F5(sqrt:3)", "F7(sqrt:3)", "R", "Q(sqrt:4)"]
ETAS = ["1/2", "1/3", "2", "3", "0", "1", "1/0", "1/5", "x"]


@settings(max_examples=600, deadline=None)
@given(
    command=st.one_of(
        st.tuples(st.sampled_from(["build", "classify-lines"]), st.sampled_from(GROUPS)),
        st.tuples(
            st.just("derive"), st.sampled_from(GROUPS),
            st.just("--system"), st.sampled_from(["leibniz", "r", "both"]),
        ),
        st.tuples(
            st.just("verify"), st.sampled_from(["all", "fusion", "equivalence", "model", "torus", "section"]),
            st.just("--group"), st.sampled_from(GROUPS),
            st.just("--type"), st.sampled_from(["A1", "A2", "X9", "E9", "D3"]),
            st.just("--trials"), st.sampled_from(["-1", "0", "1"]),
        ),
    ),
    field=st.sampled_from(FIELDS),
    eta=st.sampled_from(ETAS),
)
def test_fuzzed_inputs_exit_cleanly(command, field, eta):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--field", field, "--eta", eta, "--json"])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code != EXIT_USAGE:
        assert (code == EXIT_FAIL) == (json.loads(out.getvalue())["passed"] is False)


def test_reports_byte_identical_across_runs(capsys):
    argv = ["verify", "torus", "--type", "A2", "--field", "F13", "--seed", "3", "--trials", "2", "--json"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_csv_output(capsys):
    code, out, _ = run(["classify-lines", "3W:A2", "--csv"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert "near_solid" in header and "orbit" in header
    assert len(lines) == 1 + 12  # 12 lines in AG(2,3)


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(["build", "S4", "--json", "--out", str(path)], capsys)
    assert code == EXIT_OK and out == ""
    doc = json.loads(path.read_text())
    assert doc["results"]["points"] == 6


def test_timing_flag_adds_duration(monkeypatch, capsys):
    code, doc = run_json(["build", "S4", "--timing"], capsys)
    assert code == EXIT_OK
    assert "duration_s" in doc
    # the duration is not read off the wall clock, which may step back mid-run
    clock = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(time, "time", lambda: next(clock))
    code, doc = run_json(["build", "S4", "--timing"], capsys)
    assert code == EXIT_OK and doc["duration_s"] >= 0


def test_exact_scalars_serialized_as_strings(capsys):
    code, doc = run_json(["derive", "S3", "--field", "F7"], capsys)
    assert code == EXIT_OK
    for entry_list in doc["results"]["basis"]:
        for a, b, coeff in entry_list:
            assert isinstance(coeff, str)


# sha256 of `derive <group> --field <field> --json`, recorded before the
# eliminator was rewritten: the emitted basis must stay byte-identical
DERIVE_GOLDEN = {
    ("S4", "Q"): "df542251e442d2dc7dc4e259bd9340834324ad8d18c90ce0199dd9e30216e58e",
    ("S4", "F13"): "5573227bb2ab8bfae9d8e608a5e05d7f654fc0a7efc4a533d13dee936e5f4509",
    ("W:A3", "Q"): "14f6ebc59ff47fbcc6c6f680b2a2915d926c1c0ed12a402378ef36d0456238fe",
    ("W:A3", "F13"): "96f0b8d3daf6398084ebd814b29c5910650624eaa9782b24230b52e256caa7fd",
    ("3W:A2", "Q"): "dc548896f9d796518f1d3c1101a185bc132d4a087323d4b0255b2be6b743d33e",
    ("3W:A2", "F13"): "f9170119de10c10b2760dc2cf00d2ef26232da4874bc410487b9d1ccdd421a4c",
    ("3W:D4", "Q"): "999e354f5753228cebbc16c03f8ded848ebd30b7cc14dd47ec77a4ae36c70f58",
    ("3W:D4", "F13"): "448fa0b953ddfa0adad63245069244b6a16c89e537c26cd38c0333ffc52a2350",
    ("M3:2", "Q"): "3ddb07d5021a99242afb0b21ff95c0444f72ac92578041235f6340a6d4be3b11",
    ("M3:2", "F13"): "a90684c2ed84512c21361aa57c335fdc0e2d2343be7881d1ec74db58994b3efe",
    # recorded while derive still solved the rational rows over the extension field
    ("3W:A2", "Q(sqrt:3)"): "6db64064601b2e7ce3a7eb4f2bff41b480eb50db2dc6c8320e57ab39b9c93f5e",
    ("3W:A3", "F13(sqrt:2)"): "db5ac175370b0b7e4174edd5e1cdb6ae3b793d873c2c22f993f48785e85b083e",
    # recorded the same way; a field followed by more options is split into argv
    ("S5", "F5(sqrt:2)"): "b7b5a7ecda6f288ede55ee7bccc82d6942a8c1d75cfed264c72c849a6dffaf05",
    ("3W:D4", "Q(sqrt:3)"): "93eee2e39affa33e2d29b2d2a2987f5bb39a7087e72ed481708a6a0d22e6a260",
    ("M3:2", "F7(sqrt:3) --system r"): (
        "3afb212c8b4743d7dc13536b61f2d4fc22cf72e9af656a2034b112040092bff9"
    ),
    ("S4", "Q(sqrt:-1) --eta 1/3 --system leibniz"): (
        "89d52856855ea738246aacfc660a0ca0947247e9c0d0f2acc2f538a148bf4a92"
    ),
}


@pytest.mark.parametrize("group,field", sorted(DERIVE_GOLDEN))
def test_derive_report_bytes_are_pinned(capsys, group, field):
    code, out, _ = run(["derive", group, "--field", *field.split(), "--json"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_GOLDEN[(group, field)]


# sha256 of `build <group> --products --field <field> --json`, recorded while
# the product table still went through a JSON string and back
BUILD_GOLDEN = {
    ("S3", "Q(sqrt:3)"): "6c4a109bb9e92491ae19456220762a1fb60e7773ba51c5cf97573a47e596732d",
    ("3W:A2", "Q"): "987bf9bdac330eb48bf870e012e8bb0e77da0cf45a0afb0f64765c30e2b0eb6a",
}


@pytest.mark.parametrize("group,field", sorted(BUILD_GOLDEN))
def test_build_products_report_bytes_are_pinned(capsys, group, field):
    code, out, _ = run(["build", group, "--field", field, "--products", "--json"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_GOLDEN[(group, field)]


# sha256 of `classify-lines <group> --json` and `--csv`, recorded while every
# line was still tested on its own: the orbit route must not move a byte
CLASSIFY_GOLDEN = {
    ("3W:A3", "--json"): "8b56967dbdef8b6a5f473d401a488049c0e7c885023d5c700e9723ea9f6f1a67",
    ("3W:A3", "--csv"): "a86e8ebc955efbd5031bc8d185d2e42273a4722717da7343e65707eb0717bc2c",
    ("3W:D4", "--json"): "206ad09270c02838c5c54cef98e2293107952c4ef60b55ed6296e1f584ec9da0",
    ("3W:D4", "--csv"): "4aca1a5a428bb925a7fe84a97f06dec1c375f203389179b86acd385844e8d6fb",
    ("M3:3", "--json"): "fc4a4bcc7f18443638ceb532c1de60e4ba3ef9ed6cdf128513c225d9adfd16f9",
    ("M3:3", "--csv"): "8ed15eb3ddd8e690b9783a768d34f39195870641aa86026104d9ce3d3072772a",
    ("M3:4", "--json"): "a51e06e9999a82e92f774ac374f6d08315d73158069af8acbe983b15a615723e",
    ("M3:4", "--csv"): "2ca75b430c5fc5185a23a7a9b52aa5b57addaeab75416ce0070deb5e1d0eef67",
    ("W:E7", "--json"): "8a63c262313f0c4b472faadde63e719be9cd5838f0fbdd5dbdcb8476d326ef1a",
    ("W:E7", "--csv"): "80d934a1cfbbbccd78cbc75bba6e478d147d24015e25ecc6c5b5fa876d97f6f1",
    # recorded while line orbits still ran every point map and the reflection table
    # still paired roots by dot products
    ("3W:E8", "--json"): "4e8763b0b6bbc59bdf10207c47905ca3ab96f2bfe299c3c9ea249331f8a62539",
    ("3W:E8", "--csv"): "8b34c98d081a01f521355ecf3de2a7067f2df07322d683afc74ca9cdf412c211",
    ("M3:5", "--json"): "d3b59011fe0cf7ffb33fcef82f6e49bae8e0aab230f47b8be60d2d19d6ace90c",
    ("M3:5", "--csv"): "fc801a9bbf57c9a95b3cd55425af44de78273ddd7c3c55cd8e7fc13fe7da4c56",
    # recorded while M3:n lines were still tested once per point-map orbit (4 for
    # M3:2): the all-near-solid case of the family
    ("M3:2", "--json"): "076ee5729983ab11df47026d61ef81f232742d5a70d164ad98d605686cc758d4",
    ("M3:2", "--csv"): "50ba7a094126cb28cd31c7cad4835ab59635c8a565ee72a1a9d1ab31df67c8f4",
}


@pytest.mark.parametrize("group,fmt", sorted(CLASSIFY_GOLDEN))
def test_classify_report_bytes_are_pinned(capsys, group, fmt):
    code, out, _ = run(["classify-lines", group, fmt], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_GOLDEN[(group, fmt)]


# sha256 of `verify <argv> --json`, recorded while the suites still lived in
# the CLI: moving them into matsuo.verify must not move a byte
VERIFY_GOLDEN = {
    "all --field F13 --trials 2": "bce2e4a8df48f8455b6468b967bf9d28c8c51dadaa753ca1903f5ff2cd2bed08",
    "torus --type A2 --field F13 --trials 3 --seed 3": "b2184462e8ade70645849d470860edad3526682a37839e575570fc6017938df7",
    "section --type A3 --field F13": "67ba1aced2abea2fa33b1ec070ed9700f13199445a15df7f84f7d491634a8085",
    "equivalence --group M3:3 --field F7": "c3a1ff0cd78c2e75b28e01d06ddbf84cd8bcef76b843c0bce6663bc20f8c6f27",
    "fusion --group S5": "5c2eb860ed0c94fd451172f13b086eea88828a68ae87d5a00d6406982bf6b5ce",
    # recorded while every algebra was still built over the extension field:
    # running the rational suites over the base field must not move a byte
    "all --trials 2 --group 3W:A2 --field Q(sqrt:3)": "64cc7d8c37b3b2e788ed0bffa5451f6160889a881c84ebde76456f0ecd94c00b",
    "model --type D4 --field Q(sqrt:3)": "f44f3c265c38ca9a51474d6b29822237c7517e3d5efa28cc48ab8473dcfdd13f",
    "all --trials 1 --group S4 --field F5(sqrt:3)": "133de7142a26d39940c43fc48f6c02fdc09e03c4dbf255b93aa5992ff1b4ba13",
    # recorded while fusion still checked every axis, not one axis per orbit
    "fusion --group 3W:D4": "0501aa41088a375fd9ce0d1a6c0963357c3fa4c043b4c875b03ae5ccea301d2a",
    "fusion --group M3:3": "6a56f0d15218511afb2bdd5c8207ecb3ead2c3802105235980a38f6c1e83dd1c",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_GOLDEN))
def test_verify_report_bytes_are_pinned(capsys, argv):
    code, out, _ = run(["verify", *argv.split(), "--json"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GOLDEN[argv]


@pytest.mark.parametrize("group,near", [("3W:E6", 36), ("3W:E7", 63)])
def test_classify_large_affine_weyl_near_solid_lines_are_a_vertical_spread(capsys, group, near):
    code, doc = run_json(["classify-lines", group], capsys)
    assert code == EXIT_OK
    r = doc["results"]
    assert r["near_solid"] == near and r["vertical_near_solid"] == near
    assert r["near_solid_lines_form_spread"] is True


# sha256 of stdout and stderr, and the exit code, recorded before the parser
# stopped importing `matsuo.verify` for the suite names
HELP_GOLDEN = {
    "--help": (
        EXIT_OK,
        "f6be1431200eb8c7f42dd053fd6311b8d736128bbd63ba8f443f1e7a7562cf1b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --help": (
        EXIT_OK,
        "9fdb10f5fa789f0feaae84e675963e00d5e964c9501da466fdefffd9225b6357",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify bogus": (
        EXIT_USAGE,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a9a8d371ec4997551817b4407cc73540a4fbeedf563c19f4c9aa22a1c67f77ae",
    ),
}


@pytest.mark.parametrize("argv", sorted(HELP_GOLDEN))
def test_help_and_usage_text_is_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    code, out, err = run(argv.split(), capsys)
    out, err = (hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
    assert (code, out, err) == HELP_GOLDEN[argv]


def test_parser_suite_names_are_the_verify_suites():
    assert SUITE_NAMES == tuple(verify.SUITES)


def _modules_after(argv):
    """The modules a fresh interpreter holds after `main(argv)`: pytest itself
    has loaded `dataclasses` and the package, so this takes a subprocess."""
    script = "\n".join([
        "import sys",
        "from matsuo.cli import main",
        "main(sys.argv[1:])",
        "print(*sys.modules, file=sys.stderr)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.realpath(matsuo.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stderr.split())


LAYERS = {"matsuo.algebra", "matsuo.linalg", "matsuo.deriv", "matsuo.autos", "matsuo.verify"}


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["classify-lines", "S4"], LAYERS | {"dataclasses", "json", "csv"}),
        (["build", "S4"],
         {"matsuo.deriv", "matsuo.autos", "matsuo.verify", "dataclasses", "json", "csv"}),
        (["derive", "S4"], {"matsuo.autos", "matsuo.verify", "json", "csv"}),
        (["verify", "fusion", "--group", "S3"], {"matsuo.autos", "json", "csv"}),
    ],
)
def test_each_command_imports_only_its_layers(argv, absent):
    loaded = _modules_after(argv)
    assert "matsuo.fischer" in loaded
    assert loaded.isdisjoint(absent), sorted(loaded & absent)
