"""CLI contract: reports, exit codes, determinism, output formats."""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from matsuo import autos
from matsuo.algebra import MatsuoAlgebra, NotSemisimple
from matsuo.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main


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
        # the fixed parameters t = k/7 include a root of 1 + t^2 in these fields
        ["section", "--type", "D4", "--field", "F13"],
        ["section", "--type", "D5", "--field", "F37"],
        # the seeded draws t = a/b include b = 11, which has no inverse in F11
        ["torus", "--type", "A2", "--field", "F11", "--trials", "3"],
    ],
)
def test_verify_skips_parameters_with_no_circle_point(capsys, argv):
    code, doc = run_json(["verify", *argv], capsys)
    assert code == EXIT_OK
    (entry,) = doc["results"]["checks"]
    assert entry["passed"]


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


def test_usage_errors_exit_2(capsys):
    assert run(["build", "NOPE"], capsys)[0] == EXIT_USAGE
    assert run(["build", "S4", "--field", "Fp:4"], capsys)[0] == EXIT_USAGE
    assert run(["build", "S4", "--eta", "x"], capsys)[0] == EXIT_USAGE
    assert run(["build", "S4", "--eta", "1"], capsys)[0] == EXIT_USAGE
    assert run(["verify", "model", "--field", "Q"], capsys)[0] == EXIT_USAGE
    assert run(["verify", "bogus-suite"], capsys)[0] == EXIT_USAGE
    assert run(["no-such-command"], capsys)[0] == EXIT_USAGE


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
    ],
)
def test_bad_inputs_give_one_line_and_exit_2(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


GROUPS = ["S2", "S3", "S4", "W:A2", "3W:A1", "M3:1", "M3:2", "S1", "S", "W:X2", "3W:E9", "M3:x", "NOPE"]
FIELDS = ["Q", "F5", "F7", "F13", "F3", "F91", "Q(sqrt:3)", "R", "Q(sqrt:4)"]
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


def test_timing_flag_adds_duration(capsys):
    code, doc = run_json(["build", "S4", "--timing"], capsys)
    assert code == EXIT_OK
    assert "duration_s" in doc


def test_exact_scalars_serialized_as_strings(capsys):
    code, doc = run_json(["derive", "S3", "--field", "F7"], capsys)
    assert code == EXIT_OK
    for entry_list in doc["results"]["basis"]:
        for a, b, coeff in entry_list:
            assert isinstance(coeff, str)


def test_threads_env_validated(monkeypatch, capsys):
    monkeypatch.setenv("MATSUO_THREADS", "0")
    assert run(["build", "S3"], capsys)[0] == EXIT_USAGE
    monkeypatch.setenv("MATSUO_THREADS", "4")
    assert run(["build", "S3"], capsys)[0] == EXIT_OK


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
}


@pytest.mark.parametrize("group,field", sorted(DERIVE_GOLDEN))
def test_derive_report_bytes_are_pinned(capsys, group, field):
    code, out, _ = run(["derive", group, "--field", field, "--json"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_GOLDEN[(group, field)]


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
