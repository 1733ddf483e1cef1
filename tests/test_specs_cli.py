"""Distribution grammar, atom formatting, and the command-line surface."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from lorenzkit import (
    discrete,
    estimate_gini,
    extremal_bimodal,
    midpoint_atom_mixture,
    gini_mean_difference,
    reconstruct,
    scenario_sequence,
    sequence_diagnostics,
    standard_battery,
    uniform,
    w1,
)
from lorenzkit.cli import main
from lorenzkit.specs import format_mixture_of_atoms, parse_distribution


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, d", standard_battery(), ids=[n for n, _ in standard_battery()])
def test_battery_law_is_the_law_its_name_parses_to(name, d):
    # The battery wrote each law twice, as a name and as constructor calls;
    # the 0.4/0.3/0.2/0.1 law's hand-built weights were not the parser's.
    parsed = parse_distribution(name)
    block, rest = d._atomic
    parsed_block, parsed_rest = parsed._atomic
    for field in ("loc", "mass", "cum", "cum_xm", "tail"):
        assert getattr(block, field).tobytes() == getattr(parsed_block, field).tobytes()
    assert rest == parsed_rest
    assert d.mean == parsed.mean


def test_parse_golden_expressions():
    assert parse_distribution("atom(2)").mean == 2.0
    assert parse_distribution("uniform(0,1)").mean == pytest.approx(0.5)
    assert parse_distribution("exp(1)").mean == pytest.approx(1.0)
    assert parse_distribution("gamma(2,0.5)").mean == pytest.approx(1.0)
    assert parse_distribution("lognormal(0,0.5)").mean == pytest.approx(
        np.exp(0.125)
    )
    nested = parse_distribution("mix(0.25*atom(0),0.75*mix(0.5*atom(1),0.5*atom(3)))")
    assert nested.mean == pytest.approx(1.5)
    spaced = parse_distribution("  mix( 0.5*atom(0) , 0.5*atom(1) ) ")
    assert w1(spaced, discrete([0.0, 1.0])) < 1e-12


@pytest.mark.parametrize("expr,message", [
    ("atom(2) trailing", "char 8: unexpected trailing input 'trailing'"),
    ("norm(0,1)", "char 0: unknown distribution 'norm'; expected one of "
                  "atom, uniform, lognormal, gamma, exp, mix"),
    ("mix(0.7*atom(1),0.5*atom(2))", "char 0: mixture weights must sum to 1, got 1.2"),
    ("atom(abc)", "char 5: expected a number"),
    ("", "empty distribution expression"),
    ("atom(-1)", "char 0: atom location must be >= 0, got -1.0"),
    ("mix()", "char 4: expected a number"),
    ("uniform(3,1)", "char 0: uniform support needs 0 <= a < b, got [3.0, 1.0]"),
    ("file:", "file: reference needs a path"),
])
def test_parse_error_messages(expr, message):
    with pytest.raises(ValueError) as exc:
        parse_distribution(expr)
    assert str(exc.value) == message


def test_mixture_weight_tolerance_boundary():
    ok = parse_distribution("mix(0.5000000001*atom(0),0.5*atom(1))")
    assert ok.mean == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError, match="weights must sum to 1"):
        parse_distribution("mix(0.500001*atom(0),0.5*atom(1))")


def test_file_reference_parses_sample(tmp_path):
    p = tmp_path / "vals.csv"
    p.write_text("0\n0\n1\n3\n")
    d = parse_distribution(f"file:{p}")
    locs, masses = d.support_atoms()
    np.testing.assert_allclose(locs, [0.0, 1.0, 3.0])
    np.testing.assert_allclose(masses, [0.5, 0.25, 0.25])


def test_format_mixture_of_atoms():
    assert format_mixture_of_atoms(parse_distribution("atom(2)")) == "atom(2)"
    assert format_mixture_of_atoms(discrete([0.0, 2.0])) == "mix(0.5*atom(0),0.5*atom(2))"
    assert format_mixture_of_atoms(extremal_bimodal(0.5)) == "mix(0.5*atom(0),0.5*atom(2))"
    d = discrete([1.0, 2.0, 7.0], [0.25, 0.5, 0.25])
    assert w1(parse_distribution(format_mixture_of_atoms(d)), d) < 1e-12
    with pytest.raises(ValueError, match="finite-discrete"):
        format_mixture_of_atoms(uniform(0.0, 1.0))


# ---------------------------------------------------------------------------
# CLI: index
# ---------------------------------------------------------------------------


def test_index_json_golden(capsys):
    assert main(["index", "mix(0.5*uniform(0,1),0.5*atom(0.5))"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gini_mean_difference"] == pytest.approx(5.0 / 24.0, abs=1e-10)
    assert payload["hoover_mean_deviation"] == pytest.approx(0.125, abs=1e-10)
    assert payload["max_cross_route_residual"] < 1e-8
    assert set(payload["residuals"]) == {"gini", "hoover", "r_minus_p"}


def test_index_tsv_flattens_residuals(capsys):
    assert main(["index", "atom(7)", "--tsv"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split("\t") for line in out.strip().splitlines())
    assert float(values["gini_mean_difference"]) == 0.0
    assert float(values["hoover_max"]) == 0.0
    assert float(values["residual_gini"]) == 0.0
    assert float(values["residual_r_minus_p"]) == 0.0


def test_index_exit_codes(capsys):
    assert main(["index", "atom(0)"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["index", "norm(0,1)"]) == 1
    assert "unknown distribution 'norm'" in capsys.readouterr().err
    assert main(["index"]) == 1  # missing operand is a usage error


def test_overflowing_mean_exits_two(capsys):
    # lognormal(0, 40)'s mean exp(800) overflows a float; it ended in an
    # OverflowError traceback instead of the divergent-mean exit.
    for argv in (
        ["index", "lognormal(0,40)"],
        ["index", "mix(0.5*lognormal(0,40),0.5*exp(1))"],
        ["w1", "lognormal(0,40)", "exp(1)"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: mean diverges\n"


def test_index_heavy_tail_exits_zero(capsys):
    assert main(["index", "lognormal(0,2.5)"]) == 0
    assert capsys.readouterr().err == ""


def test_index_sigma_four_tail_exits_zero(capsys):
    assert main(["index", "lognormal(0,4)"]) == 0
    assert capsys.readouterr().err == ""


def test_index_reads_sample_files(tmp_path, capsys):
    p = tmp_path / "s.csv"
    p.write_text("0\n0\n1\n3\n")
    assert main(["index", f"file:{p}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hoover_mean_deviation"] == pytest.approx(0.5, abs=1e-12)
    assert main(["index", f"file:{tmp_path / 'gone.csv'}"]) == 1


def test_index_reads_a_sample_file_of_10_5_points(tmp_path, capsys):
    # Its 10^5 weights 1/n summed to 1 - 1.9e-12, which the law rejected,
    # and the command exited 1.
    xs = np.random.default_rng(8).lognormal(0.0, 1.0, size=10**5)
    p = tmp_path / "big.csv"
    p.write_text("\n".join(map(repr, xs.tolist())) + "\n")
    assert main(["index", f"file:{p}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gini_mean_difference"] == pytest.approx(estimate_gini(xs), rel=1e-9)


# ---------------------------------------------------------------------------
# CLI: lorenz
# ---------------------------------------------------------------------------


def test_lorenz_table_golden(capsys):
    assert main(["lorenz", "mix(0.5*uniform(0,1),0.5*atom(0.5))", "--res", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# mean 0.5"
    assert lines[1].split("\t") == ["p", "lorenz", "pseudo_lorenz"]
    rows = {r.split("\t")[0]: r.split("\t") for r in lines[2:]}
    assert float(rows["0.25"][1]) == pytest.approx(0.125, abs=1e-10)
    assert float(rows["0.25"][2]) == pytest.approx(0.625, abs=1e-10)
    assert float(rows["1"][1]) == 1.0


def test_lorenz_kendall_block(capsys):
    assert main(["lorenz", "uniform(0,1)", "--res", "4", "--kendall"]) == 0
    out = capsys.readouterr().out
    assert "# kendall points" in out
    tail = out.split("# kendall points")[1].strip().splitlines()
    assert tail[0].split("\t") == ["F", "share"]
    pairs = [tuple(map(float, r.split("\t"))) for r in tail[1:]]
    assert (0.5, 0.25) in [(round(a, 10), round(b, 10)) for a, b in pairs]


def test_lorenz_res_validation(capsys):
    assert main(["lorenz", "atom(1)", "--res", "1"]) == 1
    assert "--res must be at least 2" in capsys.readouterr().err


def test_lorenz_out_file(tmp_path, capsys):
    target = tmp_path / "curve.tsv"
    assert main(["lorenz", "atom(1)", "--res", "2", "--out", str(target)]) == 0
    text = target.read_text()
    assert "# mean 1" in text
    assert capsys.readouterr().out == ""


def test_lorenz_round_trip_through_reconstruct(capsys):
    # dyadic resolution keeps the 12-digit table values exactly re-readable
    expr = "mix(0.75*atom(1),0.25*atom(2))"
    assert main(["lorenz", expr, "--res", "512"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    mean = float(lines[0].split()[-1])
    ps, ells = [], []
    for row in lines[2:]:
        p, ell, _ = row.split("\t")
        ps.append(float(p))
        ells.append(float(ell))
    rebuilt = reconstruct(np.array(ells), mean, np.array(ps))
    original = parse_distribution(expr)
    assert w1(rebuilt, original) < 1e-9
    assert gini_mean_difference(rebuilt) == pytest.approx(
        gini_mean_difference(original), abs=1e-9
    )


# ---------------------------------------------------------------------------
# CLI: w1
# ---------------------------------------------------------------------------


def _first_number(captured: str) -> float:
    return float(captured.strip().splitlines()[0])


def test_w1_goldens(capsys):
    assert main(["w1", "atom(1)", "atom(4)"]) == 0
    assert _first_number(capsys.readouterr().out) == pytest.approx(3.0, abs=1e-12)
    assert main(["w1", "mix(0.5*atom(0),0.5*atom(1))", "atom(1)"]) == 0
    assert _first_number(capsys.readouterr().out) == pytest.approx(0.5, abs=1e-12)
    assert main(["w1", "uniform(0,1)", "exp(1)"]) == 0
    assert _first_number(capsys.readouterr().out) == pytest.approx(0.5, abs=1e-8)


def test_w1_verbose_routes(capsys):
    assert main(["w1", "uniform(0,1)", "atom(0.5)", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "quantile_route" in out and "cdf_route" in out


def test_w1_route_gap_tolerance(capsys):
    assert main(["w1", "uniform(0,1)", "exp(1)", "--tol", "1e-30"]) == 2
    err = capsys.readouterr().err
    assert "W1 routes differ by" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["index", "lognormal(0,4)", "--tol", "nan"], ">= 0"),
        (["index", "exp(1)", "--tol=-1e-4"], ">= 0"),
        (["w1", "uniform(0,1)", "exp(1)", "--tol", "nan"], ">= 0"),
        (["w1", "uniform(0,1)", "exp(1)", "--tol", "-1"], ">= 0"),
        (["w1", "uniform(0,1)", "exp(1)", "--tol", "tiny"], "invalid"),
        (["converge", "counterexample1", "--tol", "nan"], "finite and > 0"),
        (["converge", "counterexample1", "--tol", "inf"], "finite and > 0"),
        (["converge", "counterexample1", "--tol=-inf"], "finite and > 0"),
        (["converge", "counterexample1", "--tol", "0"], "finite and > 0"),
        (["converge", "counterexample1", "--tol", "-0.05"], "finite and > 0"),
    ],
)
def test_tol_that_would_switch_a_check_off_is_a_usage_error(argv, message, capsys):
    # every comparison against a NaN bound is False, so the check never failed
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "argument --tol" in err and message in err


# ---------------------------------------------------------------------------
# CLI: converge
# ---------------------------------------------------------------------------


def test_converge_scenario_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["converge", "counterexample2", "--out", "ce2"]) == 0
    out = capsys.readouterr().out
    assert "verdict: weak_only" in out
    assert (tmp_path / "ce2.json").exists()
    assert (tmp_path / "ce2.tsv").exists()
    payload = json.loads((tmp_path / "ce2.json").read_text())
    assert payload["verdict"] == "weak_only"
    assert payload["scheffe_verdict"] == "weak_only"
    rows = (tmp_path / "ce2.tsv").read_text().strip().splitlines()
    assert rows[0].split("\t")[0] == "index"
    assert len(rows) == 1 + len(payload["steps"])


def test_convergence_script_tsv_matches_cli(tmp_path, monkeypatch):
    path = pathlib.Path(__file__).parents[1] / "scripts" / "run_convergence.py"
    spec = importlib.util.spec_from_file_location("run_convergence", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    seq, limit = scenario_sequence("counterexample1", 4)
    script.write_tsv(sequence_diagnostics(seq, limit), tmp_path / "script.tsv")
    monkeypatch.chdir(tmp_path)
    assert main(["converge", "counterexample1", "--steps", "4", "--tsv", "--out", "cli"]) == 0
    assert (tmp_path / "script.tsv").read_bytes() == (tmp_path / "cli.tsv").read_bytes()


def test_converge_experiment_file(tmp_path, capsys):
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({
        "scheme": "noise",
        "source": "uniform(0,1)",
        "steps": 4,
        "sample_size": 1000,
        "seed": 5,
    }))
    base = tmp_path / "noise_report"
    assert main(["converge", str(spec_path), "--out", str(base)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verdict: ")
    assert (tmp_path / "noise_report.json").exists()


def test_converge_experiment_file_rejects_fractional_seed(tmp_path, capsys):
    # The spec was built, and numpy's default_rng raised a TypeError that
    # the command line printed as a traceback.
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({"scheme": "noise", "source": "uniform(0,1)", "steps": 2, "seed": 2.5}))
    assert main(["converge", str(spec_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_converge_experiment_file_takes_integral_float_steps(tmp_path, capsys):
    # The spec kept steps as 2.0, and range() raised a TypeError that the
    # command line printed as a traceback.
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({"scheme": "sampling", "source": "uniform(0,1)", "steps": 2.0}))
    assert main(["converge", str(spec_path), "--out", str(tmp_path / "report")]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("verdict: ") and "Traceback" not in captured.err


def test_converge_experiment_file_rejects_unpaired_schedules(tmp_path, capsys, monkeypatch):
    # The spec was built with eight default sample sizes against two
    # bandwidths, and only run_experiment refused it; it is refused when built.
    from lorenzkit import cli

    monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("an unpaired spec was run"))
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({"scheme": "kde", "source": "uniform(0,1)", "bandwidths": [0.2, 0.02]}))
    assert main(["converge", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert "sample_sizes and bandwidths must pair up" in err and "Traceback" not in err


def test_converge_rejects_unknown_source(capsys):
    assert main(["converge", "no_such_thing"]) == 1
    err = capsys.readouterr().err
    assert "neither a built-in scenario" in err


# ---------------------------------------------------------------------------
# CLI: extremal
# ---------------------------------------------------------------------------


def test_extremal_range_line(capsys):
    assert main(["extremal", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "[0.5, 0.75)" in out
    assert "# upper bound open" in out


def test_extremal_with_alpha_prints_witness(capsys):
    assert main(["extremal", "0.5", "--alpha", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "mix(0.5*atom(0),0.5*atom(2))" in out
    assert "G = " in out and "H = " in out


def test_extremal_domain_error(capsys):
    assert main(["extremal", "1.5"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "exp(1)", "--seed", "1"],
        ["lorenz", "exp(1)", "--seed", "1"],
        ["w1", "exp(1)", "atom(1)", "--seed", "1"],
        ["extremal", "0.5", "--seed", "1"],
        ["lorenz", "exp(1)", "--tol", "0.1"],
        ["extremal", "0.5", "--tol", "0.1"],
        ["extremal", "0.5", "--tsv"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(capsys):
    main(["index", "mix(0.3*atom(0),0.7*exp(1))"])
    first = capsys.readouterr().out
    main(["index", "mix(0.3*atom(0),0.7*exp(1))"])
    assert capsys.readouterr().out == first
