"""CLI contract: JSON shapes, key order, exit codes, JSONL streaming."""

import json

import pytest

from torsionfields import cli
from torsionfields.classify3 import ClassificationDefect
from torsionfields.generators import TheoremReport
from torsionfields.torsion import TorsionConstructionError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage_error(capsys, *argv):
    """Usage failures may exit via argparse (SystemExit) or a return code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify3_output(capsys):
    code, out, _ = run_cli(capsys, "classify3", "--a", "0", "--b", "1")
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[0] == "schema"
    assert doc["schema"] == "1"
    assert doc["degree"] == 6
    assert doc["group"] == "S3"
    assert list(doc) == [
        "schema", "A", "B", "delta", "branch", "flags", "degree", "group", "confidence",
    ]


def test_classify4_negative_rational_value(capsys):
    # "-481/3" must parse as a value, not be mistaken for an option name
    code, out, _ = run_cli(capsys, "classify4", "--a", "-481/3", "--b", "9758/27")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 2
    assert doc["flags"] == {
        "alpha_beta": False, "alpha_gamma": False, "beta_gamma": False, "minus_one": True,
    }
    assert list(doc) == [
        "schema", "A", "B", "dprime", "flags", "degree", "structure", "confidence",
    ]


def test_oracle_output(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--a", "-22", "--b", "-15", "--m", "4",
        "--primes", "40", "--window", "10",
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "schema", "A", "B", "m", "budget", "window",
        "primes", "orders", "lcm", "estimate", "stabilized", "method",
    ]
    assert doc["estimate"] == 32
    assert doc["stabilized"] is True
    assert len(doc["primes"]) == 40


def test_image_output(capsys):
    code, out, _ = run_cli(
        capsys, "image", "--a", "0", "--b", "-1", "--p", "7", "--samples", "40",
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["schema", "A", "B", "p", "samples", "used", "verdict"]
    assert doc["verdict"] == "Undecided"

    code, out, _ = run_cli(
        capsys, "image", "--a", "1", "--b", "1", "--p", "5", "--samples", "30",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "Full"


def test_image_large_prime_exits_0(capsys):
    code, out, _ = run_cli(
        capsys, "image", "--a", "1", "--b", "1", "--p", "1000000007", "--samples", "2",
    )
    assert code == 0
    assert json.loads(out)["used"] == 2


def test_pairing_prime_field(capsys):
    code, out, _ = run_cli(
        capsys, "pairing", "--p", "7", "--k", "1", "--a", "1", "--b", "1", "--m", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "schema", "p", "k", "a", "b", "m", "n", "frobenius", "zeta", "primitive",
    ]
    assert doc["n"] == 4
    assert doc["frobenius"] == [1, 2, 2, 2]
    assert doc["zeta"] == [4, 0, 0, 0]
    assert doc["primitive"] is True


def test_pairing_extension_is_frobenius_power(capsys):
    code, out, _ = run_cli(
        capsys, "pairing", "--p", "7", "--k", "2", "--a", "1", "--b", "1", "--m", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["frobenius"] == [2, 0, 0, 2]
    assert doc["n"] == 2


def test_pairing_composite_level_with_a_lopsided_three_part(capsys):
    # the 3-part of E(F_19^6) is Z/3^4 x Z/3; the second generator must
    # still be found
    code, out, _ = run_cli(
        capsys, "pairing", "--p", "19", "--k", "1", "--a", "12", "--b", "8", "--m", "12",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    assert doc["primitive"] is True


def test_verify_stream(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "zetam",
        "--trials", "4", "--seed", "0", "--m-list", "3,5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    summary = json.loads(lines[-1])
    assert header == {
        "schema": "1", "mode": "verify", "theorem": "zetam",
        "trials": 4, "seed": 0, "m_list": [3, 5],
    }
    assert summary == {"schema": "1", "reports": 8, "failures": 0, "verdict": "pass"}
    assert len(lines) == 2 + summary["reports"]
    for line in lines[1:-1]:
        rep = json.loads(line)
        assert rep["theorem"] == "zetam"
        assert rep["verdict"] == "pass"
        assert list(rep) == ["theorem", "q", "A", "B", "m", "degrees", "verdict"]


def test_verify_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--theorem", "dihedral",
                          "--trials", "3", "--seed", "11", "--m-list", "3")
    _, second, _ = run_cli(capsys, "verify", "--theorem", "dihedral",
                           "--trials", "3", "--seed", "11", "--m-list", "3")
    assert first == second


def test_verify_failure_exits_2(capsys, monkeypatch):
    bad = TheoremReport(theorem="zetam", q=5, A=1, B=1, m=3,
                        degrees={}, verdict="fail", note="forced")
    monkeypatch.setattr(cli, "run_suite", lambda **kw: [bad])
    code, out, _ = run_cli(capsys, "verify", "--theorem", "zetam",
                           "--trials", "1", "--seed", "0")
    assert code == 2
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["failures"] == 1
    assert summary["verdict"] == "fail"


def test_classification_defect_exits_2(capsys, monkeypatch):
    def boom(a, b):
        raise ClassificationDefect("forced")
    monkeypatch.setattr(cli, "classify3", boom)
    code, out, _ = run_cli(capsys, "classify3", "--a", "0", "--b", "1")
    assert code == 2
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["error"] == "classification-defect"


@pytest.mark.parametrize("command", ["classify3", "classify4"])
@pytest.mark.parametrize("A,B", [(-15, 22), (1, 1)])
def test_classify_high_twist_matches_base(capsys, command, A, B):
    # the twist (u^4 A, u^6 B) with u = 10^30 + 57 is isomorphic to (A, B)
    u = 10**30 + 57
    _, out, _ = run_cli(capsys, command, "--a", str(A), "--b", str(B))
    base = json.loads(out)
    code, out, _ = run_cli(capsys, command, "--a", str(A * u**4),
                           "--b", str(B * u**6))
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == base["degree"]
    assert doc.get("group") == base.get("group")
    assert doc.get("structure") == base.get("structure")
    assert doc["confidence"] == "exact"


def test_pairing_construction_failure_exits_2(capsys, monkeypatch):
    def boom(q, a, b, m):
        raise TorsionConstructionError("forced")
    monkeypatch.setattr(cli, "torsion_data", boom)
    code, out, _ = run_cli(capsys, "pairing", "--p", "7", "--k", "1",
                           "--a", "1", "--b", "1", "--m", "3")
    assert code == 2
    assert json.loads(out)["error"] == "construction-failed"


def test_pairing_refuses_prime_above_the_int64_bound(capsys):
    # 331363937 is the first prime above torsion.MAX_Q
    code, out, _ = run_cli(capsys, "pairing", "--p", "331363937", "--k", "1",
                           "--a", "1", "--b", "1", "--m", "5")
    assert code == 2
    assert json.loads(out)["error"] == "construction-failed"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify4", "--a", "nope", "--b", "1"),
        ("classify4", "--a", "1"),
        ("verify", "--theorem", "nope", "--trials", "2", "--seed", "0"),
        ("verify", "--theorem", "zetam", "--trials", "2", "--seed", "0", "--m-list", "6"),
        ("pairing", "--p", "7", "--k", "1", "--a", "1,0", "--b", "1", "--m", "3"),
        ("pairing", "--p", "8", "--k", "1", "--a", "1", "--b", "1", "--m", "3"),
        ("pairing", "--p", "7", "--k", "0", "--a", "1", "--b", "1", "--m", "3"),
        ("pairing", "--p", "7", "--k", "1", "--a", "1", "--b", "1", "--m", "14"),
        ("classify4", "--a", "0", "--b", "0"),
        ("oracle", "--a", "1", "--b", "1", "--m", "1", "--primes", "10", "--window", "5"),
        ("image", "--a", "1", "--b", "1", "--p", "6", "--samples", "10"),
        ("verify", "--theorem", "zetam", "--trials", "0", "--seed", "0"),
        ("verify", "--theorem", "zetam", "--trials", "-1", "--seed", "0"),
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, _ = run_usage_error(capsys, *argv)
    assert code == 1
    assert out == ""
