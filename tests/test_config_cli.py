"""Design-file schema and command-line behaviour."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trialsize import cli
from trialsize.config import ConfigError, load_design, parse_design
from trialsize.tables import fixture_path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_design(tmp_path, doc, name="design.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


BASE_TWO_SAMPLE = {
    "family": "two_sample",
    "objective": "superiority",
    "alpha": 0.05,
    "target_power": 0.80,
    "design": {
        "mu0": 0.0,
        "mu1": 0.5,
        "sigma0_sq": 1.0,
        "sigma1_sq": 1.0,
        "equal_variance": True,
        "gamma0": 0.5,
    },
}


class TestSchema:
    def test_missing_field_names_path(self, tmp_path):
        doc = json.loads(json.dumps(BASE_TWO_SAMPLE))
        del doc["design"]["mu1"]
        with pytest.raises(ConfigError, match="design.mu1"):
            load_design(write_design(tmp_path, doc))

    def test_bad_family(self):
        with pytest.raises(ConfigError, match="family"):
            parse_design({"family": "anova", "design": {}})

    def test_bad_alpha(self):
        doc = json.loads(json.dumps(BASE_TWO_SAMPLE))
        doc["alpha"] = 1.5
        with pytest.raises(ConfigError, match="alpha"):
            parse_design(doc)

    def test_wrong_type(self):
        doc = json.loads(json.dumps(BASE_TWO_SAMPLE))
        doc["design"]["sigma0_sq"] = "one"
        with pytest.raises(ConfigError, match="design.sigma0_sq"):
            parse_design(doc)

    def test_equivalence_needs_margins(self):
        doc = json.loads(json.dumps(BASE_TWO_SAMPLE))
        doc["objective"] = "equivalence"
        with pytest.raises(ConfigError, match="margins"):
            parse_design(doc)

    def test_noninferiority_margin(self):
        doc = json.loads(json.dumps(BASE_TWO_SAMPLE))
        doc["objective"] = "noninferiority"
        doc["margin"] = -1.0
        cfg = parse_design(doc)
        assert (cfg.margins.lower, cfg.margins.upper) == (-1.0, math.inf)
        assert cfg.kernel().tau0 == -1.0
        assert cfg.kernel().df_at(10.0) == 8.0  # the pooled kernel the design asks for

    def test_bioequivalence_defaults(self):
        doc = {
            "family": "crossover",
            "objective": "bioequivalence",
            "design": {"mu_star_a": 0.0, "mu_star_b": 0.0, "sigma_d_sq": 0.05},
        }
        cfg = parse_design(doc)
        assert cfg.alpha == 0.1
        assert abs(cfg.margins.upper - 0.22314355) < 1e-6

    def test_bioequivalence_margins_block(self):
        doc = {
            "family": "crossover",
            "objective": "bioequivalence",
            "design": {"mu_star_a": 0.0, "mu_star_b": 0.0, "sigma_d_sq": 0.05},
            "margins": {"lower": -0.3, "upper": 0.25},
        }
        margins = parse_design(doc).margins
        assert (margins.lower, margins.upper, margins.kind) == (-0.3, 0.25, "equivalence")
        for block in ({"lower": 1.0, "upper": 0.0}, "nonsense", {"lower": -0.2}):
            with pytest.raises(ConfigError, match="^margins"):
                parse_design({**doc, "margins": block})

    def test_mmrm_covariance_not_positive_definite(self):
        doc = json.loads(fixture_path("table3_cs_q1_m04").read_text())
        doc["design"]["covariance"] = {"structure": "cs", "size": 4, "variance": 1, "covariance": 2}
        with pytest.raises(ConfigError, match="^design.covariance: leading minor of order 2"):
            parse_design(doc)
        doc["design"]["covariance"]["size"] = 0
        with pytest.raises(ConfigError, match="^design.covariance.size"):
            parse_design(doc)

    def test_gamma0_whose_variance_factor_overflows(self, tmp_path, capsys):
        # 1/(gamma0 (1 - gamma0)) is 1e158, whose square overflows
        doc = json.loads(fixture_path("table3_un_q1_m12").read_text())
        doc["design"]["gamma0"] = 1e-158
        code, _, err = run_cli(capsys, "power", "--design", write_design(tmp_path, doc), "--n", "40")
        assert code == 2
        assert err.startswith("error: design.gamma0: 1e-158 is so close to 0 or 1")
        doc["design"]["gamma0"] = 1e-150
        parse_design(doc)

    def test_effect_whose_square_underflows(self, tmp_path, capsys):
        doc = json.loads(fixture_path("table1_equal_100").read_text())
        doc["design"]["mu1"] = 1e-164
        code, _, err = run_cli(capsys, "size", "--design", write_design(tmp_path, doc))
        assert code == 2
        assert err.startswith("error: design.mu1: the effect 1e-164 is so small")
        for mu1 in (1e-160, -1e-160):  # a subnormal square
            doc["design"]["mu1"] = mu1
            with pytest.raises(ConfigError, match="^design.mu1"):
                parse_design(doc)
        doc["design"]["mu1"] = 0.0  # a null design stays valid
        parse_design(doc)

    def test_equal_variance_with_unequal_variances(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_TWO_SAMPLE))
        doc["design"]["sigma1_sq"] = 2.0
        with pytest.raises(ConfigError, match="^design.equal_variance: the pooled t test"):
            parse_design(doc)
        path = write_design(tmp_path, doc)
        for command in (["size"], ["power", "--n", "40"], ["simulate", "--n", "40"]):
            code, out, err = run_cli(capsys, *command, "--design", path)
            assert (code, out) == (2, "")
            assert err.startswith("error: design.equal_variance")

    def test_mmrm_structures(self):
        for cov in (
            {"structure": "cs", "size": 3, "variance": 2.0, "covariance": 0.5},
            {"structure": "ar1", "size": 3, "variance": 2.0, "corr": 0.4},
            {"structure": "toeplitz", "first_row": [2.0, 0.8, 0.3]},
            [[2.0, 0.5, 0.2], [0.5, 2.0, 0.5], [0.2, 0.5, 2.0]],
        ):
            doc = {
                "family": "mmrm",
                "design": {
                    "covariance": cov,
                    "retention": [[1.0, 0.9, 0.8], [1.0, 0.9, 0.8]],
                    "q": 0,
                    "tau_p1": -1.0,
                },
            }
            cfg = parse_design(doc)
            assert cfg.design.p == 3

    def test_all_fixtures_parse(self):
        import trialsize

        fixture_dir = fixture_path("x").parent
        names = sorted(p.stem for p in fixture_dir.glob("*.json"))
        assert len(names) == 75
        for name in names:
            cfg = load_design(fixture_path(name))
            assert cfg.family in ("two_sample", "ancova", "mmrm", "crossover")


class TestCli:
    def test_size_reference_sequence(self, capsys):
        code, out, err = run_cli(
            capsys, "size", "--design", str(fixture_path("table1_equal_050"))
        )
        assert code == 0
        values = [line.split()[1] for line in out.strip().splitlines()[1:]]
        assert values == ["125.58", "127.50", "127.53", "127.59", "127.53"]

    def test_power_unequal_variance_equivalence_exits_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "power", "--design", str(fixture_path("table5_m_10")), "--n", "80"
        )
        assert code == 0, err
        assert out.splitlines()[1].split() == ["exact", "58.80"]

    def test_power_null_emits_alpha(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BASE_TWO_SAMPLE))
        doc["design"]["mu1"] = 0.0
        path = write_design(tmp_path, doc)
        code, out, _ = run_cli(capsys, "power", "--design", path, "--n", "40")
        assert code == 0
        assert "5.00" in out

    def test_csv_bit_stable(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "size", "--design", str(fixture_path("table1_equal_100")), "--format", "csv"
        )
        code2, out2, _ = run_cli(
            capsys, "size", "--design", str(fixture_path("table1_equal_100")), "--format", "csv"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_round_flag(self, capsys):
        _, up, _ = run_cli(
            capsys, "size", "--design", str(fixture_path("table1_equal_125")),
            "--format", "csv", "--round", "up",
        )
        _, nearest, _ = run_cli(
            capsys, "size", "--design", str(fixture_path("table1_equal_125")),
            "--format", "csv", "--round", "nearest",
        )
        assert "22.19,23," in up or "22.18,23" in up  # inversion row ceils to 23
        assert ",22," in nearest  # nearest rounds 22.19 down to 22
        _, none_out, _ = run_cli(
            capsys, "size", "--design", str(fixture_path("table1_equal_125")),
            "--format", "csv", "--round", "none",
        )
        assert "rounded_total" not in none_out

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "size", "--design", "/nonexistent/x.json")
        assert code == 2
        assert "not found" in err

    def test_schema_error_exit_two(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BASE_TWO_SAMPLE))
        del doc["design"]["sigma1_sq"]
        path = write_design(tmp_path, doc)
        code, _, err = run_cli(capsys, "size", "--design", path)
        assert code == 2
        assert "design.sigma1_sq" in err

    def test_numerical_error_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "power", "--design", str(fixture_path("table1_equal_050")), "--n", "2"
        )
        assert code == 1
        assert "DomainError" in err

    def test_simulation_failure_cap_exit_one(self, capsys, tmp_path):
        doc = {
            "family": "mmrm",
            "objective": "superiority",
            "alpha": 0.05,
            "target_power": 0.9,
            "design": {
                "covariance": {"structure": "cs", "size": 2, "variance": 1.0, "covariance": 0.5},
                "retention": [[1.0, 0.3], [1.0, 0.3]],
                "gamma0": 0.5,
                "q": 0,
                "tau_p1": 1.0,
            },
            "simulation": {"replicates": 200, "seed": 5},
        }
        path = write_design(tmp_path, doc)
        code, out, err = run_cli(capsys, "simulate", "--design", path, "--n", "8")
        assert code == 1
        assert out == ""
        assert "SimulationFailureError" in err

    def test_simulate_smoke(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BASE_TWO_SAMPLE))
        doc["simulation"] = {"replicates": 2000, "seed": 5}
        path = write_design(tmp_path, doc)
        code, out, _ = run_cli(
            capsys, "simulate", "--design", path, "--n", "128", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("per_group,replicates,rejections,power_pct")
        assert row.startswith("64/64,2000,")

    def test_reproduce_table_csv_stable(self, capsys):
        code1, out1, _ = run_cli(capsys, "reproduce-table", "4")
        code2, out2, _ = run_cli(capsys, "reproduce-table", "4")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_reproduce_table_4_values(self, capsys):
        from reference_values import TABLE4

        code, out, _ = run_cli(capsys, "reproduce-table", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        for line, ref in zip(lines[1:], TABLE4):
            row = dict(zip(header, line.split(",")))
            for col, want in (
                ("exact", ref[1]),
                ("normal", ref[2]),
                ("two_step", ref[3]),
                ("g1", ref[4]),
                ("g2", ref[5]),
            ):
                assert abs(float(row[col]) - float(want)) <= 0.01


# One out-of-domain value per case, as a flag and in a design file.  A design
# file is checked by the schema, which names the field: exit 2.  A flag value
# reaches the library unchecked, and its DomainError is a numeric failure:
# exit 1.  The README's exit-status paragraph states this rule.
DOMAIN_CASES = {
    "alpha": (
        ["size"],
        ["--alpha", "1.5"],
        lambda doc: doc.update(alpha=1.5),
        "DomainError: alpha must lie in (0, 1)",
        "alpha: must lie in (0, 1)",
    ),
    "reps": (
        ["simulate", "--n", "40"],
        ["--reps", "0"],
        lambda doc: doc["simulation"].update(replicates=-1),
        "DomainError: replicate count must be >= 1",
        "simulation: replicate count must be nonnegative",
    ),
    "margins": (
        ["size"],
        ["--margins", "1,0"],
        lambda doc: doc["margins"].update(lower=1.0, upper=0.0),
        "DomainError: margins must satisfy lower < upper",
        "margins: margins must satisfy lower < upper",
    ),
    "seed": (
        ["simulate", "--n", "40", "--reps", "10"],
        ["--seed", "-1"],
        lambda doc: doc["simulation"].update(seed=-5),
        "DomainError: seed must lie in [0, 2**128)",
        "simulation: seed must lie in [0, 2**128)",
    ),
    "seed_beyond_philox_key": (
        ["simulate", "--n", "40", "--reps", "10"],
        ["--seed", str(2**128)],
        lambda doc: doc["simulation"].update(seed=2**128),
        "DomainError: seed must lie in [0, 2**128)",
        "simulation: seed must lie in [0, 2**128)",
    ),
    # an alpha whose level 1 - alpha/2 rounds to 1 has infinite critical values
    "alpha_level_rounding_to_one": (
        ["size"],
        ["--alpha", "1e-300"],
        lambda doc: doc.update(alpha=1e-300),
        "DomainError: alpha must lie in (0, 1) with 1 - alpha/2 below 1",
        "alpha: must lie in (0, 1) with 1 - alpha/2 below 1",
    ),
    "alpha_level_rounding_to_one_power": (
        ["power", "--n", "40"],
        ["--alpha", "1e-300"],
        lambda doc: doc.update(alpha=1e-300),
        "DomainError: alpha must lie in (0, 1) with 1 - alpha/2 below 1",
        "alpha: must lie in (0, 1) with 1 - alpha/2 below 1",
    ),
    "alpha_level_rounding_to_one_simulate": (
        ["simulate", "--n", "100", "--reps", "20"],
        ["--alpha", "1e-300"],
        lambda doc: doc.update(alpha=1e-300),
        "DomainError: alpha must lie in (0, 1) with 1 - alpha/2 below 1",
        "alpha: must lie in (0, 1) with 1 - alpha/2 below 1",
    ),
}
DOMAIN_FIXTURE = "table5_m_10"  # two-sample equivalence: has alpha, margins and simulation


@pytest.mark.parametrize("case", DOMAIN_CASES)
def test_out_of_domain_flag_exits_one(capsys, case):
    command, flag, _, flag_error, _ = DOMAIN_CASES[case]
    path = str(fixture_path(DOMAIN_FIXTURE))
    code, out, err = run_cli(capsys, command[0], "--design", path, *command[1:], *flag)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag_error}")
    assert "Traceback" not in err


def test_target_power_whose_level_rounds_to_one_exits_one(capsys):
    # equivalence sizes each one-sided test at (1 + power)/2, which is 1.0 here
    path = str(fixture_path("table5_m_05"))
    code, out, err = run_cli(capsys, "size", "--design", path, "--power", "0.9999999999999999")
    assert code == 1
    assert out == ""
    assert err.startswith(
        "error: DomainError: target power 0.9999999999999999 must lie in (0, 1), its level below 1"
    )


@pytest.mark.parametrize(
    "name,margins,message",
    [
        # the half-width's square is inf
        ("table1_equal_050", "-1e300,1e300", "the effect 1e+300 is too large to size for"),
        ("table5_m_05", "-1e300,1e300", "the effect 1e+300 is too large to size for"),
        # the half-width's square is 0
        ("table5_m_05", "-1e-200,1e-200", "the effect 1e-200 is too close to the null value"),
    ],
)
def test_margins_whose_square_leaves_the_float_range_exit_one(capsys, name, margins, message):
    path = str(fixture_path(name))
    code, out, err = run_cli(capsys, "size", "--design", path, f"--margins={margins}")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: DomainError: {message}")
    assert "OverflowError" not in err and "ZeroDivisionError" not in err


def test_exact_equivalence_power_at_huge_margins():
    # the Phillips integral's positivity cutoff used to overflow when squared
    from trialsize.equivalence import Margins, ts_unequal_equiv_power

    cfg = load_design(fixture_path("table5_m_05"))
    with np.errstate(all="raise"):
        est = ts_unequal_equiv_power(cfg.design, Margins.equivalence(-1e300, 1e300), 20, cfg.alpha)
    assert 0.99999 < est.value <= 1.0


# scipy's noncentral t tail is NaN once |noncentrality| reaches about 1e10;
# these powers printed 0.00 or nan and exited 0
NONCENTRALITY_CASES = {
    "pooled_tiny_variance": (
        "table1_equal_050", {"sigma0_sq": 1e-20, "sigma1_sq": 1e-20}, ["--n", "40"], "1.58114e+10"
    ),
    "ancova_tiny_variance": ("table2_q3_100", {"sigma_sq": 1e-20}, ["--n", "40"], "3.16228e+10"),
    "mmrm_huge_effect": ("table3_un_q1_m12", {"tau_p1": -1e12}, ["--n", "40"], "4.27646e+11"),
    "equivalence_huge_margins": (
        "table5_m_05", {}, ["--n", "20", "--margins=-1e20,1e20"], "-1.41421e+20"
    ),
    # the exact row, whose positivity cutoff used to overflow, is computed first
    "equivalence_margins_whose_square_overflows": (
        "table5_m_05", {}, ["--n", "20", "--margins=-1e300,1e300"], "-1.41421e+300"
    ),
}


@pytest.mark.parametrize("case", NONCENTRALITY_CASES)
def test_noncentrality_beyond_scipy_range_exits_one(capsys, tmp_path, case):
    name, design, flags, lam = NONCENTRALITY_CASES[case]
    doc = json.loads(fixture_path(name).read_text())
    doc["design"].update(design)
    code, out, err = run_cli(capsys, "power", "--design", write_design(tmp_path, doc), *flags)
    assert code == 1
    assert out == ""
    assert err.startswith(
        f"error: DomainError: the noncentral t tail is undefined at noncentrality {lam} "
    )


# name -> (design document, design changes, the size, effect and variance
# scale named); the ANCOVA sizes overflowed in its quadratic row before the
# cap was checked
NORMAL_SIZE_CASES = {
    "two_sample_not_finite": (
        BASE_TWO_SAMPLE, {"sigma0_sq": 1e300, "sigma1_sq": 1e300, "mu1": 1e-140},
        "inf", "1e-140", "4e+300",
    ),
    "ancova_variance": (
        json.loads(fixture_path("table2_q3_100").read_text()), {"sigma_sq": 1e150},
        "3.13955e+151", "1", "4e+150",
    ),
    "ancova_effect": (
        json.loads(fixture_path("table2_q3_100").read_text()), {"tau1": 1e-150},
        "3.13955e+301", "1e-150", "4",
    ),
}


@pytest.mark.parametrize("case", NORMAL_SIZE_CASES)
def test_normal_size_that_is_not_finite_names_the_effect(capsys, tmp_path, case):
    base, design, size, effect, scale = NORMAL_SIZE_CASES[case]
    doc = json.loads(json.dumps(base))
    doc["design"].update(design)
    code, out, err = run_cli(capsys, "size", "--design", write_design(tmp_path, doc))
    assert code == 1
    assert out == ""
    assert err.startswith(
        f"error: DomainError: normal-approximation size {size} is above the size cap 1e+07: "
        f"the effect {effect} is too small for the variance scale {scale}"
    )
    assert "OverflowError" not in err


# The Welch d.f.'s information fraction squares each variance and cubes each
# allocation fraction.  Out of float range it ended every command in an error
# that named no input (exit 1): OverflowError for a variance of 1e300 (also in
# the Welch equivalence design), ZeroDivisionError for variances of 1e-200 or
# an allocation of 1e-110, and a BracketError on a NaN size at a variance of
# 1e154 with an effect to match.
WELCH_OUT_OF_RANGE = {
    "variance_1e300": ("table1_unequal_050", {"sigma0_sq": 1e300}, "(1e+300, 4) at allocation 0.5"),
    "variance_1e154": (
        "table1_unequal_050", {"sigma0_sq": 1e154, "mu1": 1e76}, "(1e+154, 4) at allocation 0.5"
    ),
    "variances_1e-200": (
        "table1_unequal_050", {"sigma0_sq": 1e-200, "sigma1_sq": 1e-200},
        "(1e-200, 1e-200) at allocation 0.5",
    ),
    "allocation_1e-110": ("table1_unequal_050", {"gamma0": 1e-110}, "(1, 4) at allocation 1e-110"),
    "equivalence_variance_1e300": (
        "table5_m_05", {"sigma1_sq": 1e300}, "(1, 1e+300) at allocation 0.5"
    ),
}
WELCH_COMMANDS = {
    "size": ["size"], "power": ["power", "--n", "40"],
    "simulate": ["simulate", "--n", "40", "--reps", "200"],
}


@pytest.mark.parametrize("command", WELCH_COMMANDS)
@pytest.mark.parametrize("case", WELCH_OUT_OF_RANGE)
def test_welch_information_fraction_out_of_float_range_exits_two(capsys, tmp_path, case, command):
    name, design, named = WELCH_OUT_OF_RANGE[case]
    doc = json.loads(fixture_path(name).read_text())
    doc["design"].update(design)
    argv = WELCH_COMMANDS[command]
    code, out, err = run_cli(capsys, argv[0], "--design", write_design(tmp_path, doc), *argv[1:])
    assert (code, out) == (2, "")
    assert err == (
        f"error: design: group variances {named} put the Welch d.f.'s information "
        "fraction out of float range\n"
    )


# A square out of float range: a repeated-measures effect's over the variance
# scale, an ANCOVA variance scale's, an effect's.  Past the size chain's own
# check they ended power and simulate in a FloatingPointError or OverflowError
# that named no input (exit 1): the square in the two-sided power and the
# simulator's Gram matmul, and its Satterthwaite d.f.'s kr0**2; the ANCOVA
# power printed 5.00.  size named the effect's square in a DomainError (exit 1).
SCALE_OUT_OF_RANGE = {
    "mmrm_effect_1e200": (
        "table3_un_q1_m12", {"tau_p1": 1e200},
        "design: the effect tau_p1 - tau_p0 = 1e+200 squared over the variance scale 208.801 "
        "is out of float range",
    ),
    "ancova_variance_1e300": (
        "table2_q3_100", {"sigma_sq": 1e300},
        "design: sigma_sq 1e+300 at allocation 0.5 puts the variance scale's square out of "
        "float range",
    ),
    "ancova_variance_1e154_allocation": (
        "table2_q3_100", {"sigma_sq": 1e154, "gamma0": 0.1},
        "design: sigma_sq 1e+154 at allocation 0.1 puts the variance scale's square out of "
        "float range",
    ),
    "two_sample_effect_1e160": (
        "table1_equal_050", {"mu1": 1e160},
        "design.mu1: the effect 1e+160 is so large that its square overflows",
    ),
    "two_sample_effect_1e200": (
        "table1_equal_050", {"mu1": 1e200},
        "design.mu1: the effect 1e+200 is so large that its square overflows",
    ),
    "crossover_equivalence_effect_1e200": (
        "table4_s2_0250", {"mu_star_b": 1e200},
        "design.mu_star_b: the effect 1e+200 is so large that its square overflows",
    ),
    "ancova_effect_1e200": (
        "table2_q3_100", {"tau1": 1e200},
        "design.tau1: the effect 1e+200 is so large that its square overflows",
    ),
}


@pytest.mark.parametrize("command", WELCH_COMMANDS)
@pytest.mark.parametrize("case", SCALE_OUT_OF_RANGE)
def test_design_scale_out_of_float_range_exits_two(capsys, tmp_path, case, command):
    name, design, message = SCALE_OUT_OF_RANGE[case]
    doc = json.loads(fixture_path(name).read_text())
    doc["design"].update(design)
    argv = WELCH_COMMANDS[command]
    code, out, err = run_cli(capsys, argv[0], "--design", write_design(tmp_path, doc), *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("tau_p1", [1e9, 1e20])
def test_variance_lost_to_cancellation_exits_one(capsys, tmp_path, tau_p1):
    # a negative small-sample variance ended simulate in an unnamed
    # FloatingPointError in the se's square root; it fails its replicate
    doc = json.loads(fixture_path("table3_un_q1_m12").read_text())
    doc["design"]["tau_p1"] = tau_p1
    path = write_design(tmp_path, doc)
    code, out, err = run_cli(capsys, "simulate", "--design", path, "--n", "40", "--reps", "2000")
    assert (code, out) == (1, "")
    assert err.startswith("error: SimulationFailureError: ")
    assert "replicates failed analysis" in err


# One fixture per design family (and the Welch and equivalence powers).  A
# power's total size must be finite and at most the size cap that the size
# inversion never passes; beyond it the powers read NaN or drift.
SIZE_CAP_FIXTURES = (
    "table1_equal_050", "table1_unequal_050", "table2_q1_100", "table3_cs_q1_m04",
    "table4_s2_0125", "table5_m_10",
)


@pytest.mark.parametrize("name", SIZE_CAP_FIXTURES)
@pytest.mark.parametrize("n", ["inf", "1e300", "1e13"])
def test_power_beyond_the_size_cap_exits_one(capsys, name, n):
    code, out, err = run_cli(capsys, "power", "--design", str(fixture_path(name)), "--n", n)
    assert code == 1
    assert out == ""
    assert err.startswith("error: DomainError: n must be finite and at most the size cap 1e+07")


@pytest.mark.parametrize("name", SIZE_CAP_FIXTURES)
def test_power_at_the_size_cap_exits_zero(capsys, name):
    code, out, err = run_cli(capsys, "power", "--design", str(fixture_path(name)), "--n", "1e7")
    assert code == 0, err
    assert "nan" not in out


@pytest.mark.parametrize("case", DOMAIN_CASES)
def test_out_of_domain_design_field_exits_two(capsys, tmp_path, case):
    command, _, edit, _, file_error = DOMAIN_CASES[case]
    doc = json.loads(fixture_path(DOMAIN_FIXTURE).read_text())
    edit(doc)
    path = write_design(tmp_path, doc)
    code, out, err = run_cli(capsys, command[0], "--design", path, *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {file_error}")
    assert "Traceback" not in err


# A key the schema does not read, at each level of the document: a typo used
# to leave its field at the default, and the file was sized as if it were right.
UNKNOWN_KEYS = {
    "design.gama0": ("table2_q3_100", lambda doc: doc["design"].update(gama0=0.3)),
    "target_powr": ("table2_q3_100", lambda doc: doc.update(target_powr=0.9)),
    "alhpa": ("table1_equal_050", lambda doc: doc.update(alhpa=0.01)),
    # a margin without the noninferiority objective: sized as superiority
    "margin": ("table1_equal_050", lambda doc: doc.update(margin=-0.2)),
    "margins.kind": ("table5_m_10", lambda doc: doc["margins"].update(kind="equivalence")),
    "simulation.replicate": ("table2_q3_100", lambda doc: doc["simulation"].update(replicate=9)),
    "simulation.generator.intercpt": (
        "table2_q3_100", lambda doc: doc["simulation"]["generator"].update(intercpt=1.0)
    ),
    "simulation.generator.visit_effect": (
        "table6_ar1_q1_m4", lambda doc: doc["simulation"]["generator"].update(visit_effect=[1.0])
    ),
    # generator keys of another family: ANCOVA has no period, MMRM no single intercept
    "simulation.generator.period_effect": (
        "table2_q3_100", lambda doc: doc["simulation"]["generator"].update(period_effect=0.1)
    ),
    "simulation.generator.intercept": (
        "table6_ar1_q1_m4", lambda doc: doc["simulation"]["generator"].update(intercept=1.0)
    ),
    "simulation.generator.factor.levels": (
        "table2_q3_100",
        lambda doc: doc["simulation"]["generator"]["factor"].update(levels=3),
    ),
    "design.covariance.covariance": (
        "table6_ar1_q1_m4", lambda doc: doc["design"]["covariance"].update(covariance=20.0)
    ),
}


@pytest.mark.parametrize("field", UNKNOWN_KEYS)
def test_unknown_key_is_named(capsys, tmp_path, field):
    name, edit = UNKNOWN_KEYS[field]
    doc = json.loads(fixture_path(name).read_text())
    edit(doc)
    code, out, err = run_cli(capsys, "size", "--design", write_design(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err == f"error: {field}: unknown field\n"


# A DomainError raised while an object of the file is read is named by that
# object's path: the design block, the generator's factor, the simulation block.
SCHEMA_DOMAIN_ERRORS = {
    "design": (
        lambda doc: doc["design"].update(sigma_sq=-1), "design: sigma_sq must be positive"
    ),
    "factor": (
        lambda doc: doc["simulation"]["generator"]["factor"].update(probs=[0.5, 0.4, 0.2]),
        "simulation.generator.factor: factor probabilities must be positive and sum to 1",
    ),
    "simulation": (
        lambda doc: doc["simulation"]["generator"].pop("baseline_effect"),
        "simulation: generator implies q=2 covariates but the design has q=3",
    ),
}


@pytest.mark.parametrize("case", SCHEMA_DOMAIN_ERRORS)
def test_domain_error_is_named_by_its_object(capsys, tmp_path, case):
    edit, message = SCHEMA_DOMAIN_ERRORS[case]
    doc = json.loads(fixture_path("table2_q3_100").read_text())
    edit(doc)
    code, out, err = run_cli(capsys, "size", "--design", write_design(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def put(doc: dict, field: str, value) -> bool:
    """Set the dotted ``field`` of ``doc``; False where a parent is not an object."""
    *parents, key = field.split(".")
    for parent in parents:
        doc = doc.get(parent)
        if not isinstance(doc, dict):
            return False
    doc[key] = value
    return True


# A name key must be one of its allowed names: a list or an object family
# raised TypeError (unhashable) from the membership test, with a traceback.
@pytest.mark.parametrize("value", [["two_sample"], {"two_sample": 1}, 3, None],
                         ids=["list", "object", "number", "null"])
@pytest.mark.parametrize("field", ["family", "objective", "design.covariance.structure"])
def test_name_key_of_another_json_type_is_named(capsys, tmp_path, field, value):
    doc = json.loads(fixture_path("table6_ar1_q1_m4").read_text())
    assert put(doc, field, value)
    code, out, err = run_cli(capsys, "size", "--design", write_design(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: must be one of (")
    assert err.endswith(f", got {value!r}\n")


# A covariance structure's order is checked against the retention length
# before its matrix is built: a size of 3,000 peaked at 326 MB before exiting.
@pytest.mark.parametrize(
    "name, key, value",
    [
        ("table6_ar1_q1_m4", "size", 5),
        ("table6_cs_q1_m4", "size", 3),
        ("table6_ar1_q1_m4", "size", 10**9),
        ("table6_toep_q1_m4", "first_row", [40.0, 34.0, 28.0, 22.0, 16.0]),
    ],
)
def test_covariance_order_is_checked_before_the_matrix(capsys, tmp_path, monkeypatch, name,
                                                       key, value):
    def unbuilt(*args):
        raise AssertionError("the matrix was built")

    for builder in ("compound_symmetry", "ar1", "toeplitz"):
        monkeypatch.setattr(f"trialsize.mmrm.{builder}", unbuilt)
    doc = json.loads(fixture_path(name).read_text())
    doc["design"]["covariance"][key] = value
    code, out, err = run_cli(capsys, "power", "--design", write_design(tmp_path, doc), "--n", "40")
    order = value if key == "size" else len(value)
    assert (code, out) == (2, "")
    assert err == (
        f"error: design.covariance.{key}: order {order} differs from the retention length 4\n"
    )


# A full matrix is held to the same order; one of order 5 read "design: arm 0
# retention has 4 visits, covariance has 5".
@pytest.mark.parametrize(
    "matrix", [np.eye(5).tolist(), np.eye(3).tolist(), [[1.0] * 4] * 3 + [[1.0] * 3], []],
    ids=["order_5", "order_3", "ragged", "empty"],
)
def test_covariance_matrix_of_another_order_is_named(capsys, tmp_path, matrix):
    doc = json.loads(fixture_path("table6_un_q1_m4").read_text())
    doc["design"]["covariance"] = matrix
    code, out, err = run_cli(capsys, "power", "--design", write_design(tmp_path, doc), "--n", "40")
    assert (code, out) == (2, "")
    assert err == "error: design.covariance: expected a square matrix of order 4\n"


# json.loads reads the NaN, Infinity and -Infinity literals: power printed nan
# rows and simulate a rate for them, and exited 0.  It reads a long integer
# literal exactly, and float() of one beyond the float range overflowed.
NON_FINITE_FIELDS = {
    "design.tau1": ("table2_q3_100", ["power", "--n", "40"], lambda d: d["design"], "tau1"),
    "design.tau0": ("table2_q3_100", ["power", "--n", "40"], lambda d: d["design"], "tau0"),
    "design.tau_p1": ("table3_un_q1_m12", ["power", "--n", "40"], lambda d: d["design"], "tau_p1"),
    "design.covariance[1][0]": (
        "table3_un_q1_m12", ["power", "--n", "40"], lambda d: d["design"]["covariance"][1], 0
    ),
    "simulation.generator.factor.probs[0]": (
        "table2_q3_100", ["simulate", "--n", "40", "--reps", "50"],
        lambda d: d["simulation"]["generator"]["factor"]["probs"], 0,
    ),
}


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="integer_1e400")]
)
@pytest.mark.parametrize("field", NON_FINITE_FIELDS)
def test_non_finite_number_is_named(capsys, tmp_path, field, value):
    name, command, container, key = NON_FINITE_FIELDS[field]
    doc = json.loads(fixture_path(name).read_text())
    container(doc)[key] = value
    path = write_design(tmp_path, doc)
    code, out, err = run_cli(capsys, command[0], "--design", path, *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {field}: expected a finite number, got {value!r}\n"


def test_integer_literal_too_long_to_read_is_invalid_json(capsys, tmp_path):
    # json.loads refuses an integer literal of more than 4300 digits with a
    # ValueError that is not a JSONDecodeError, which ended in a traceback
    text = fixture_path("table2_q3_100").read_text()
    path = tmp_path / "design.json"
    path.write_text(text.replace('"tau1": 1.0', '"tau1": 1' + "0" * 5000))
    code, out, err = run_cli(capsys, "power", "--design", str(path), "--n", "40")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: invalid JSON (Exceeds the limit (4300 digits)")


# Design-file fuzzing: each example takes a shipped fixture, applies one
# mutation and runs one command on it.
FUZZ_FIXTURES = (
    "table1_unequal_100",  # two-sample Welch, superiority
    "table2_q3_100",  # ANCOVA
    "table3_cs_q1_m04",  # MMRM, superiority
    "table4_s2_0125",  # crossover, bioequivalence
    "table5_m_10",  # two-sample, equivalence
    "table6_ar1_q1_m4",  # MMRM, equivalence
)
ODD_NUMBERS = st.one_of(
    st.sampled_from([0, -1, 2, 0.0, -0.5, 1.0, 1.5, 1e-9, 1e6, -1e6]),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | ODD_NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
MARGIN_BLOCKS = st.one_of(
    st.fixed_dictionaries({"lower": ODD_NUMBERS, "upper": ODD_NUMBERS}),
    st.dictionaries(st.sampled_from(["lower", "upper", "kind"]), JSON_VALUES, max_size=3),
    JSON_VALUES,
)
COVARIANCES = st.one_of(
    st.fixed_dictionaries(
        {
            "structure": st.just("cs"),
            "variance": st.floats(0.5, 50.0),
            "covariance": st.floats(-60.0, 60.0),
        }
    ),
    st.fixed_dictionaries(
        {
            "structure": st.sampled_from(["cs", "ar1", "toeplitz", "banded"]),
            "size": st.integers(-1, 5),
            "variance": ODD_NUMBERS,
            "covariance": ODD_NUMBERS,
            "corr": ODD_NUMBERS,
            "first_row": st.lists(ODD_NUMBERS, max_size=5),
        }
    ),
    st.lists(st.lists(ODD_NUMBERS, max_size=4), max_size=4),
    JSON_VALUES,
)
NAME_KEYS = {
    "family": ("one_sample", "two_sample", "crossover", "ancova", "mmrm"),
    "objective": ("superiority", "noninferiority", "equivalence", "bioequivalence"),
    "design.covariance.structure": ("cs", "ar1", "toeplitz"),
}
MUTATIONS = st.one_of(
    st.tuples(st.just("margins"), MARGIN_BLOCKS),
    st.tuples(st.just("name"), st.tuples(st.sampled_from(sorted(NAME_KEYS)), JSON_VALUES)),
    st.tuples(st.just("covariance"), COVARIANCES),
    st.tuples(st.just("number"), st.tuples(st.integers(0, 20), ODD_NUMBERS)),
)
COMMANDS = st.one_of(
    st.just(["size"]),
    st.builds(lambda n: ["power", "--n", str(n)], st.integers(2, 80)),
    st.builds(lambda n: ["simulate", "--n", str(n), "--reps", "40"], st.integers(2, 80)),
)


def mutate(doc: dict, kind: str, value):
    """Apply one mutation; return what the schema must say about it: the
    field an exit-2 message names, or None when any outcome is allowed."""
    if kind == "margins":
        doc["margins"] = value
        if doc.get("objective") not in ("equivalence", "bioequivalence"):
            return None
        numbers = isinstance(value, dict) and all(
            isinstance(value.get(k), (int, float)) and not isinstance(value.get(k), bool)
            for k in ("lower", "upper")
        )
        if numbers and value["lower"] < 0.0 < value["upper"]:
            return None
        return "margins"
    if kind == "covariance":
        if doc["family"] != "mmrm":
            return None
        named = None
        if isinstance(value, dict) and value.get("structure") == "cs" and "size" not in value:
            # a compound-symmetry matrix of the fixture's size: its eigenvalues
            # are variance - covariance and variance + (p - 1) * covariance
            p = len(doc["design"]["retention"][0])
            value = {**value, "size": p}
            variance, covariance = value["variance"], value["covariance"]
            if min(variance - covariance, variance + (p - 1) * covariance) < -1e-6 * variance:
                named = "design.covariance"
        doc["design"]["covariance"] = value
        return named
    if kind == "name":
        field, name = value
        if not put(doc, field, name):  # a fixture without a covariance structure
            return None
        return None if name in NAME_KEYS[field] else field
    index, number = value
    fields = [(doc, k) for k in ("alpha", "target_power") if k in doc]
    fields += [
        (doc["design"], k) for k, v in sorted(doc["design"].items()) if isinstance(v, (int, float))
    ]
    target, key = fields[index % len(fields)]
    target[key] = number
    return None


@given(
    fixture=st.sampled_from(FUZZ_FIXTURES),
    mutation=MUTATIONS,
    command=COMMANDS,
)
@example("table4_s2_0125", ("margins", "nonsense"), ["size"])
@example("table4_s2_0125", ("margins", {"lower": 1.0, "upper": 0.0}), ["power", "--n", "20"])
@example(
    "table3_cs_q1_m04",
    ("covariance", {"structure": "cs", "variance": 1.0, "covariance": 2.0}),
    ["size"],
)
@example("table3_cs_q1_m04", ("number", (5, 1e-9)), ["size"])  # tau_p1: size beyond the cap
@example("table1_unequal_100", ("name", ("family", ["two_sample"])), ["size"])  # unhashable
@example("table6_ar1_q1_m4", ("name", ("design.covariance.structure", {})), ["size"])
@example("table6_ar1_q1_m4", ("number", (2, 1e-158)), ["power", "--n", "14"])  # gamma0: overflow
@example("table3_un_q1_m12", ("number", (5, 1e200)), ["power", "--n", "40"])  # tau_p1: overflow
@example("table2_q3_100", ("number", (4, 1e300)), ["simulate", "--n", "40", "--reps", "40"])  # sigma_sq
@settings(max_examples=60, deadline=None)
def test_mutated_design_files_end_in_an_exit_status(fixture, mutation, command):
    doc = json.loads(fixture_path(fixture).read_text())
    named = mutate(doc, *mutation)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "design.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command[0], "--design", str(path), *command[1:]])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ")
    assert "nan" not in out.getvalue()
    if named is not None:
        assert code == 2
        assert err.getvalue().startswith(f"error: {named}")


# Command-line fuzzing: each example runs one subcommand on a cheap fixture
# with flags drawn from edge values.  A flag is passed as --flag=value, so that
# a negative value reaches the program instead of argparse's option matching.
# simulate keeps --n <= 2000 and --reps <= 50: its engines draw up to 4096
# replicates of n values at once, and run every replicate asked for.
FLAG_FIXTURES = ("table1_equal_050", "table2_q1_100", "table5_m_10", "table6_ar1_q1_m4")
EDGE_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", str(2**128), "x", ""]


def flag_values(*usual: str):
    return st.none() | st.sampled_from([*EDGE_NUMBERS, *usual])


MARGIN_VALUES = st.none() | st.sampled_from(
    ["-0.5,0.5", "-inf,inf", "nan,1", "1,-1", "0,1", "-1e-300,1e-300", "-1e300,1e300", "x", ","]
)
FORMATS = st.none() | st.sampled_from(["text", "csv", "x"])
FLAGS = {
    "power": {
        "n": st.sampled_from([*EDGE_NUMBERS, "12.5", "40"]),
        "alpha": flag_values("0.05"),
        "margins": MARGIN_VALUES,
        "format": FORMATS,
    },
    "size": {
        "alpha": flag_values("0.05"),
        "power": flag_values("0.8"),
        "margins": MARGIN_VALUES,
        "round": st.none() | st.sampled_from(["up", "nearest", "none", "x"]),
        "format": FORMATS,
    },
    "simulate": {
        "n": st.sampled_from(["0", "-1", "nan", "inf", "1e300", "x", "", "2", "40", "2000"]),
        "reps": st.sampled_from(["0", "-1", "nan", "inf", "1e300", "x", "1", "50"]),
        "seed": st.none() | st.sampled_from(
            ["0", "-1", str(2**128 - 1), str(2**128), "nan", "1e300", "x", "20240801"]
        ),
        "alpha": flag_values("0.05"),
        "margins": MARGIN_VALUES,
        "format": FORMATS,
    },
}
FLAG_ARGVS = st.sampled_from(sorted(FLAGS)).flatmap(
    lambda command: st.tuples(
        st.just(command), st.sampled_from(FLAG_FIXTURES), st.fixed_dictionaries(FLAGS[command])
    )
).map(
    lambda drawn: [
        drawn[0], "--design", str(fixture_path(drawn[1])),
        *(f"--{flag}={value}" for flag, value in drawn[2].items() if value is not None),
    ]
)


@given(argv=FLAG_ARGVS)
@example(["simulate", "--design", str(fixture_path("table1_equal_050")), "--n=10",
          "--reps=10", "--seed=-1"])
@example(["simulate", "--design", str(fixture_path("table5_m_10")), "--n=10",
          "--reps=10", f"--seed={2**128}"])
@example(["simulate", "--design", str(fixture_path("table6_ar1_q1_m4")), "--n=-1",
          "--reps=50"])
@settings(max_examples=80, deadline=None)
def test_edge_flag_values_end_in_an_exit_status(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert code in (0, 1, 2)
    if code:
        assert "error: " in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "nan" not in out.getvalue()


# Whole-document fuzzing: each example builds a design document from the
# schema (every family and objective, each optional field present or absent,
# numbers drawn from edge values) and runs one command on it.
EDGE_VALUES = st.sampled_from(
    [0.0, -1.0, 0.5, 1.0, 2.0, -8.0, 1e-9, -1e-9, 1e-300, 1e9, 1e300, -1e300,
     math.nan, math.inf, -math.inf]
)
# mostly valid, so that most documents reach the formulas
VARIANCES = st.sampled_from([1.0, 0.5, 45.0, 1e-9, 1e-300, 1e9, 1e300, 0.0, -1.0])
PROBABILITIES = st.sampled_from(
    [0.05, 0.3, 0.5, 0.8, 1e-300, 0.9999999999999999, 0.0, 1.0]
)
GAMMAS = st.sampled_from([0.5, 0.3, 0.8, 1e-9, 1e-300, 0.0])


def optional(**fields):
    """A block with each of ``fields`` (name: strategy) present or absent."""
    return st.fixed_dictionaries({}, optional=fields)


def covariance_blocks(p: int):
    return st.one_of(
        st.builds(
            lambda v, c: {"structure": "cs", "size": p, "variance": v, "covariance": c},
            VARIANCES, EDGE_VALUES,
        ),
        st.builds(
            lambda v, r: {"structure": "ar1", "size": p, "variance": v, "corr": r},
            VARIANCES, st.sampled_from([-0.5, 0.0, 0.8, 1.0]),
        ),
        st.builds(
            lambda row: {"structure": "toeplitz", "first_row": row},
            st.lists(VARIANCES, min_size=p, max_size=p),
        ),
        st.lists(st.lists(EDGE_VALUES, min_size=p, max_size=p), min_size=p, max_size=p),
    )


def retention(p: int):
    arm = st.lists(st.sampled_from([1.0, 0.9, 0.5, 0.1, 0.0]), min_size=p - 1, max_size=p - 1)
    return st.lists(arm.map(lambda rest: [1.0, *sorted(rest, reverse=True)]), min_size=2,
                    max_size=2)


FACTORS = st.builds(lambda effects: {"probs": [0.2, 0.3, 0.5], "effects": effects},
                    st.lists(EDGE_VALUES, min_size=3, max_size=3))
QS = st.sampled_from([0, 1, 2, 3, 40])


def family_documents(family: str):
    """(design block, generator block) of one family."""
    if family == "one_sample":
        design = st.fixed_dictionaries(
            {"mu": EDGE_VALUES, "sigma_sq": VARIANCES}, optional={"tau0": EDGE_VALUES}
        )
        return st.tuples(design, st.just({}))
    if family == "two_sample":
        design = st.fixed_dictionaries(
            {"mu0": EDGE_VALUES, "mu1": EDGE_VALUES, "sigma0_sq": VARIANCES,
             "sigma1_sq": VARIANCES},
            optional={"gamma0": GAMMAS, "equal_variance": st.booleans()},
        )
        return st.tuples(design, st.just({}))
    if family == "crossover":
        design = st.fixed_dictionaries(
            {"mu_star_a": EDGE_VALUES, "mu_star_b": EDGE_VALUES, "sigma_d_sq": VARIANCES},
            optional={"gamma0": GAMMAS, "period_effect_in_analysis": st.booleans()},
        )
        return st.tuples(design, optional(period_effect=EDGE_VALUES))
    if family == "ancova":
        design = st.fixed_dictionaries(
            {"tau1": EDGE_VALUES, "sigma_sq": VARIANCES, "q": QS},
            optional={"tau0": EDGE_VALUES, "gamma0": GAMMAS},
        )
        generator = optional(intercept=EDGE_VALUES, baseline_effect=EDGE_VALUES, factor=FACTORS)
        return st.tuples(design, generator)
    return st.integers(1, 4).flatmap(
        lambda p: st.tuples(
            st.fixed_dictionaries(
                {"covariance": covariance_blocks(p), "retention": retention(p), "q": QS,
                 "tau_p1": EDGE_VALUES},
                optional={"tau_p0": EDGE_VALUES, "gamma0": GAMMAS},
            ),
            optional(
                visit_intercepts=st.lists(EDGE_VALUES, min_size=p, max_size=p),
                visit_baseline_effects=st.lists(EDGE_VALUES, min_size=p, max_size=p),
                visit_effects=st.lists(EDGE_VALUES, min_size=p - 1, max_size=p - 1),
                factor=FACTORS,
            ),
        )
    )


def document(family: str, objective: str, blocks, top: dict, simulation: dict, margins):
    design, generator = blocks
    doc = {"family": family, "objective": objective, "design": design, **top}
    if generator:
        simulation = {**simulation, "generator": generator}
    if simulation:
        doc["simulation"] = simulation
    if objective == "noninferiority":
        doc["margin"] = margins[0]
    elif objective == "equivalence" or (objective == "bioequivalence" and margins[2]):
        doc["margins"] = {"lower": margins[0], "upper": margins[1]}
    return doc


DOCUMENTS = st.sampled_from(["one_sample", "two_sample", "crossover", "ancova", "mmrm"]).flatmap(
    lambda family: st.builds(
        document,
        st.just(family),
        st.sampled_from(["superiority", "noninferiority", "equivalence", "bioequivalence"]),
        family_documents(family),
        optional(alpha=PROBABILITIES, target_power=PROBABILITIES),
        optional(replicates=st.sampled_from([0, 1, 50]), seed=st.sampled_from([0, 7, 2**128 - 1])),
        st.tuples(
            st.sampled_from([-1.0, -0.5, -8.0, -1e-9, -1e300, 0.5]),
            st.sampled_from([1.0, 0.5, 8.0, 1e-9, 1e300, -0.5]),
            st.booleans(),
        ),
    )
)
DOCUMENT_COMMANDS = st.one_of(
    st.just(["size"]),
    st.builds(lambda n: ["power", "--n", n], st.sampled_from(["3", "12.5", "40", "1000"])),
    st.builds(
        lambda n, reps: ["simulate", "--n", n, "--reps", reps],
        st.sampled_from(["3", "12", "40", "200"]),
        st.sampled_from(["1", "20", "50"]),
    ),
)


@given(doc=DOCUMENTS, command=DOCUMENT_COMMANDS)
@settings(max_examples=150, deadline=None)
def test_schema_documents_end_in_an_exit_status(doc, command):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "design.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command[0], "--design", str(path), *command[1:]])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
    assert "nan" not in out.getvalue()
