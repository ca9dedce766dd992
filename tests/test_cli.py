import json

import pytest

from reductions.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pair_square_sl3(capsys):
    code, out = run_cli(capsys, "pair", "--square", "sl3")
    assert code == 0
    data = json.loads(out)
    assert data["dim_p"] == 8
    assert data["rank"] == 2
    assert data["dim_reduction_variety"] == 6
    assert data["root_type"] == "A2"


def test_pair_transpose(capsys):
    code, out = run_cli(capsys, "pair", "--transpose", "3")
    assert code == 0
    data = json.loads(out)
    assert data["dim_p"] == 5 and data["rank"] == 2
    assert data["dim_reduction_variety"] == 3


def test_pair_square_g2(capsys):
    code, out = run_cli(capsys, "pair", "--square", "g2")
    assert code == 0
    data = json.loads(out)
    assert data["dim_p"] == 14 and data["dim_reduction_variety"] == 12


def test_pair_usage_error(capsys):
    code = main(["pair"])
    assert code == 2


def test_degenerate_sl2_canonical(capsys):
    code, out = run_cli(
        capsys,
        "degenerate",
        "--square",
        "sl2",
        "--curve",
        '[{"kind": "exp", "generator": {"L.e12": 1, "R.e12": 1}, "exponent": -1}]',
        "--plane",
        "cartan",
    )
    assert code == 0
    data = json.loads(out)
    assert data["limit_special"] is True
    assert data["rigidity"]["cj_closed"] is True
    assert data["omegas"] == [-1]


def test_degenerate_identity_curve(capsys):
    code, out = run_cli(
        capsys, "degenerate", "--square", "sl3", "--curve", "[]", "--plane", "cartan"
    )
    assert code == 0
    data = json.loads(out)
    assert data["flag_jumps"] == [0]
    assert data["limit_special"] is False


@pytest.mark.parametrize("pair_args", [("--square", "sl3"), ("--transpose", "3")])
def test_degenerate_pair_without_curve_is_a_usage_error(capsys, pair_args):
    code = main(["degenerate", *pair_args])
    assert code == 2
    assert "--curve" in capsys.readouterr().err


def test_degenerate_toy(capsys):
    code, out = run_cli(
        capsys,
        "degenerate",
        "--toy",
        "[0,1,2]",
        "--plane",
        '[["1","1","0"],["0","1","1"]]',
    )
    assert code == 0
    data = json.loads(out)
    assert data["limit"] == [["1", "0", "0"], ["0", "1", "0"]]
    assert data["wedge_valuation"] == 1


def test_roots_table1(capsys):
    code, out = run_cli(capsys, "roots", "--table1")
    assert code == 0
    data = json.loads(out)
    assert data["table1"]["G2"] == [6, 6, 7]
    assert data["table1"]["E8"] == [120, 30, 37]
    assert "E7" in data["notes"]


def test_roots_malcev_g2(capsys):
    code, out = run_cli(capsys, "roots", "--malcev", "G2")
    assert code == 0
    data = json.loads(out)
    assert data["malcev"]["max_size"] == 3
    assert data["malcev"]["classes"] == 3


def test_roots_survivors(capsys):
    code, out = run_cli(capsys, "roots", "--survivors")
    assert code == 0
    assert json.loads(out)["survivors"] == ["A1", "A2", "A3", "B2", "G2"]


def test_determinism_same_seed_byte_identical(capsys):
    _, out1 = run_cli(capsys, "pair", "--square", "sl2")
    _, out2 = run_cli(capsys, "pair", "--square", "sl2")
    assert out1 == out2


def test_exit_code_contract_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("plane", ["[[0,0,1,9]]", "[[1]]"])
def test_degenerate_rejects_plane_rows_of_the_wrong_length(capsys, plane):
    # p of square(sl2) has dimension 3: a fourth coordinate must not be
    # dropped, nor a short row padded with zeros
    code = main([
        "degenerate",
        "--square",
        "sl2",
        "--curve",
        '[{"kind": "exp", "generator": {"L.e12": 1, "R.e12": 1}, "exponent": -1}]',
        "--plane",
        plane,
    ])
    assert code == 2
    assert "3 coordinates" in capsys.readouterr().err


TOY = ["degenerate", "--toy"]
EXP = '[{"kind": "exp", "generator": {"L.e12": 1, "R.e12": 1}, "exponent": %s}]'


@pytest.mark.parametrize("argv", [
    # floats, NaN and infinity are not exact numbers, nor is a bad string
    TOY + ["[0,1]", "--plane", "[[0.1, 1]]"],
    TOY + ["[0,1]", "--plane", '[["abc", 1]]'],
    TOY + ["[0,1]", "--plane", "[[NaN, 1]]"],
    TOY + ["[0,1]", "--plane", "[[1e400, 1]]"],
    TOY + ["[0,1]", "--plane", '[["1/0", 1]]'],
    # weights and exponents are integers, never cut to one
    TOY + ["[0,1.5]", "--plane", "[[1, 1]]"],
    ["degenerate", "--square", "sl2", "--curve", EXP % "-1.5"],
    ["degenerate", "--square", "sl2", "--curve", EXP % '"-3/2"'],
    ["degenerate", "--square", "sl2", "--curve", '[{"kind": "torus", "weights": [1.7, 0]}]'],
    ["degenerate", "--square", "sl2", "--curve", EXP % "-1", "--plane", "[[0.5, 0, 0]]"],
    ["degenerate", "--square", "sl2", "--curve", EXP % "-1", "--plane", '[{"L.h1": 0.5, "R.h1": -0.5}]'],
])
def test_inexact_numbers_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


def test_rational_strings_are_accepted(capsys):
    code, out = run_cli(capsys, *TOY, "[0,1]", "--plane", '[["1/10", 1]]')
    assert code == 0
    assert json.loads(out)["weights"] == [0, 1]
    code, _ = run_cli(capsys, *TOY, '[0,"1"]', "--plane", "[[1, 1]]")
    assert code == 0
    code, _ = run_cli(capsys, "degenerate", "--square", "sl2", "--curve", EXP % "-1",
                      "--plane", '[{"L.h1": "1/2", "R.h1": "-1/2"}]')
    assert code == 0
