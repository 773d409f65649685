"""The family x objective cells that no shipped fixture reaches.

Each cell is a design document written here.  ``size``, ``power --n`` and
``simulate --reps 1000`` print CSV that is pinned byte for byte in
``EXPECTED``, and for the cells with an unequal allocation (gamma0 = 0.3)
so does ``size --round nearest``; ``n`` is the cell's inversion total (40 for
ANCOVA noninferiority, the total at which its formula and simulation are
compared).  The cells of equivalence margins off centre are shipped fixtures
with ``--margins``; only their ``size`` chains are pinned.
For every cell and one fixture of each shipped family and objective, the
``size`` inversion must solve the family's exact power for the target.
"""

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import pytest

from trialsize import cli, core, equivalence, mmrm
from trialsize.ancova import adjusted_power, ancova_power_exact
from trialsize.config import load_design, parse_design
from trialsize.designs import OneSampleSpec, moser_exact_power, welch_power
from trialsize.equivalence import Margins, equiv_power_exact, ts_unequal_equiv_power
from trialsize.errors import DomainError
from trialsize.families import family_of
from trialsize.simulate import simulate_power
from trialsize.tables import fixture_path

_ANCOVA_GENERATOR = {"intercept": 0.5, "baseline_effect": 0.5}


def _fixture(name: str) -> dict:
    return json.loads(
        (Path(__file__).parents[1] / f"src/trialsize/fixtures/{name}.json").read_text()
    )


_MMRM = _fixture("table3_un_q1_m12")

# name -> (design document, total n for power and simulate, extra flags)
CELLS = {
    "one_sample_superiority_tau0": (
        {"family": "one_sample", "design": {"mu": 0.6, "tau0": 0.2, "sigma_sq": 1.0}},
        52,
        [],
    ),
    "one_sample_equivalence": (
        {
            "family": "one_sample",
            "objective": "equivalence",
            "design": {"mu": 0.0, "sigma_sq": 0.25},
            "margins": {"lower": -0.3, "upper": 0.3},
        },
        32,
        [],
    ),
    "one_sample_noninferiority": (
        {
            "family": "one_sample",
            "objective": "noninferiority",
            "design": {"mu": 0.1, "sigma_sq": 1.0},
            "margin": -0.3,
        },
        52,
        [],
    ),
    "crossover_superiority_period": (
        {"family": "crossover", "design": {"mu_star_a": 0.0, "mu_star_b": 0.3, "sigma_d_sq": 0.2}},
        20,
        [],
    ),
    "crossover_superiority_no_period": (
        {
            "family": "crossover",
            "design": {
                "mu_star_a": 0.0,
                "mu_star_b": 0.3,
                "sigma_d_sq": 0.2,
                "period_effect_in_analysis": False,
            },
        },
        20,
        [],
    ),
    "crossover_noninferiority": (
        {
            "family": "crossover",
            "objective": "noninferiority",
            "design": {"mu_star_a": 0.0, "mu_star_b": 0.05, "sigma_d_sq": 0.1},
            "margin": -0.2,
        },
        15,
        [],
    ),
    "two_sample_equal_equivalence": (
        {
            "family": "two_sample",
            "objective": "equivalence",
            "design": {
                "mu0": 0.0, "mu1": 0.0, "sigma0_sq": 1.0, "sigma1_sq": 1.0, "equal_variance": True,
            },
            "margins": {"lower": -0.6, "upper": 0.6},
        },
        119,
        [],
    ),
    "two_sample_equal_noninferiority": (
        {
            "family": "two_sample",
            "objective": "noninferiority",
            "design": {
                "mu0": 0.0, "mu1": 0.2, "sigma0_sq": 1.0, "sigma1_sq": 1.0, "equal_variance": True,
            },
            "margin": -0.4,
        },
        90,
        [],
    ),
    "ancova_equivalence_q3": (
        {
            "family": "ancova",
            "objective": "equivalence",
            "design": {"tau1": 0.0, "sigma_sq": 1.0, "q": 3},
            "margins": {"lower": -0.5, "upper": 0.5},
            "simulation": {
                "generator": {
                    **_ANCOVA_GENERATOR,
                    "factor": {"probs": [0.3, 0.3, 0.4], "effects": [0.0, 0.5, -0.5]},
                }
            },
        },
        171,
        [],
    ),
    "ancova_noninferiority": (
        {
            "family": "ancova",
            "objective": "noninferiority",
            "design": {"tau1": 1.0, "sigma_sq": 1.0, "q": 1},
            "margin": -0.3,
            "simulation": {"generator": _ANCOVA_GENERATOR},
        },
        40,
        [],
    ),
    "mmrm_noninferiority": (
        {**_MMRM, "objective": "noninferiority", "margin": 3.0},
        21,
        [],
    ),
    "two_sample_welch_superiority_margins_flag": (
        {
            "family": "two_sample",
            "design": {"mu0": 0.0, "mu1": 0.0, "sigma0_sq": 1.0, "sigma1_sq": 2.0},
        },
        101,
        ["--margins=-0.8,0.8"],
    ),
    "two_sample_welch_superiority_unequal_allocation": (
        {
            "family": "two_sample",
            "design": {"mu0": 0.0, "mu1": 0.5, "sigma0_sq": 1.0, "sigma1_sq": 2.0, "gamma0": 0.3},
        },
        197,
        [],
    ),
    "mmrm_superiority_unequal_allocation": (
        {**_MMRM, "design": {**_MMRM["design"], "gamma0": 0.3}},
        23,
        [],
    ),
    # equivalence margins off centre, sized at the nearer margin: Welch, crossover
    # (bioequivalence's alpha), ANCOVA (tau1 = 1) and repeated measures
    "table5_m_05_margins_off_centre": (_fixture("table5_m_05"), 882, ["--margins=-0.3,0.5"]),
    "table5_m_05_margins_near_centre": (_fixture("table5_m_05"), 474, ["--margins=-0.45,0.5"]),
    "table4_s2_0250_margins_off_centre": (
        _fixture("table4_s2_0250"), 31, ["--margins=-0.15,0.223"]
    ),
    "table2_q3_100_margins_off_centre": (_fixture("table2_q3_100"), 131, ["--margins=-1,1.5"]),
    "table6_cs_q1_m8_margins_off_centre": (_fixture("table6_cs_q1_m8"), 74, ["--margins=-6,8"]),
}
COMMANDS = ("size", "power", "simulate")


def run_cell(name: str, command: str, path: str) -> tuple[int, str]:
    doc, n, extra = CELLS[name]
    argv = {
        "size": ["size"],
        "size_nearest": ["size", "--round", "nearest"],
        "power": ["power", "--n", str(n)],
        "simulate": ["simulate", "--n", str(n), "--reps", "1000"],
    }[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--design", path, *extra, "--format", "csv"])
    return code, out.getvalue()


# recorded with the CLI; a change of output changes these strings
EXPECTED = {
    ("one_sample_superiority_tau0", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,49.06,50,50\n"
        "g1,50.98,51,51\n"
        "g2,51.05,52,52\n"
        "two_step,51.11,52,52\n"
        "inversion,51.01,52,52\n"
    ),
    ("one_sample_superiority_tau0", "power"): (
        "method,power_pct\n"
        "two_sided,80.78\n"
        "one_sided_approx,80.78\n"
    ),
    ("one_sample_superiority_tau0", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "52,1000,807,80.70,1.25,0,20240801\n"
    ),
    ("one_sample_equivalence", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,29.19,30,30\n"
        "g1,31.11,32,32\n"
        "g2,31.23,32,32\n"
        "two_step,31.36,32,32\n"
        "inversion,31.17,32,32\n"
    ),
    ("one_sample_equivalence", "power"): (
        "method,power_pct\n"
        "exact,81.56\n"
        "approx,81.56\n"
    ),
    ("one_sample_equivalence", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "32,1000,827,82.70,1.20,0,20240801\n"
    ),
    ("one_sample_noninferiority", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,49.06,50,50\n"
        "g1,50.98,51,51\n"
        "g2,51.05,52,52\n"
        "two_step,51.11,52,52\n"
        "inversion,51.01,52,52\n"
    ),
    ("one_sample_noninferiority", "power"): (
        "method,power_pct\n"
        "two_sided,80.78\n"
        "one_sided_approx,80.78\n"
    ),
    ("one_sample_noninferiority", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "52,1000,807,80.70,1.25,0,20240801\n"
    ),
    ("crossover_superiority_period", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,17.44,18,9/9\n"
        "g1,19.36,20,10/10\n"
        "g2,19.55,20,10/10\n"
        "two_step,19.89,20,10/10\n"
        "inversion,19.56,20,10/10\n"
    ),
    ("crossover_superiority_period", "power"): (
        "method,power_pct\n"
        "two_sided,80.97\n"
        "one_sided_approx,80.97\n"
    ),
    ("crossover_superiority_period", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "10/10,1000,803,80.30,1.26,0,20240801\n"
    ),
    ("crossover_superiority_no_period", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,17.44,18,9/9\n"
        "g1,19.36,20,10/10\n"
        "g2,19.55,20,10/10\n"
        "two_step,19.73,20,10/10\n"
        "inversion,19.45,20,10/10\n"
    ),
    ("crossover_superiority_no_period", "power"): (
        "method,power_pct\n"
        "two_sided,81.21\n"
        "one_sided_approx,81.21\n"
    ),
    ("crossover_superiority_no_period", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "10/10,1000,808,80.80,1.25,0,20240801\n"
    ),
    ("crossover_noninferiority", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,12.56,13,7/6\n"
        "g1,14.48,15,8/7\n"
        "g2,14.73,15,8/7\n"
        "two_step,15.27,16,8/8\n"
        "inversion,14.75,15,8/7\n"
    ),
    ("crossover_noninferiority", "power"): (
        "method,power_pct\n"
        "two_sided,80.78\n"
        "one_sided_approx,80.78\n"
    ),
    ("crossover_noninferiority", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "8/7,1000,809,80.90,1.24,0,20240801\n"
    ),
    ("two_sample_equal_equivalence", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,116.75,117,59/58\n"
        "g1,118.67,119,60/59\n"
        "g2,118.70,119,60/59\n"
        "two_step,118.80,119,60/59\n"
        "inversion,118.70,119,60/59\n"
    ),
    ("two_sample_equal_equivalence", "power"): (
        "method,power_pct\n"
        "exact,80.14\n"
        "approx,80.14\n"
    ),
    ("two_sample_equal_equivalence", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "60/59,1000,797,79.70,1.27,0,20240801\n"
    ),
    ("two_sample_equal_noninferiority", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,87.21,88,44/44\n"
        "g1,89.13,90,45/45\n"
        "g2,89.17,90,45/45\n"
        "two_step,89.24,90,45/45\n"
        "inversion,89.17,90,45/45\n"
    ),
    ("two_sample_equal_noninferiority", "power"): (
        "method,power_pct\n"
        "two_sided,80.37\n"
        "one_sided_approx,80.37\n"
    ),
    ("two_sample_equal_noninferiority", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "45/45,1000,815,81.50,1.23,0,20240801\n"
    ),
    ("ancova_equivalence_q3", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal_asymptotic,168.12,169,85/84\n"
        "normal,171.15,172,86/86\n"
        "normal_quadratic,171.17,172,86/86\n"
        "g1,173.08,174,87/87\n"
        "g2,173.10,174,87/87\n"
        "two_step,173.18,174,87/87\n"
        "inversion,173.12,174,87/87\n"
    ),
    ("ancova_equivalence_q3", "power"): (
        "method,power_pct\n"
        "exact,79.27\n"
        "approx,79.27\n"
    ),
    ("ancova_equivalence_q3", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "86/85,1000,770,77.00,1.33,0,20240801\n"
    ),
    ("ancova_noninferiority", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal_asymptotic,18.58,19,10/9\n"
        "normal,19.70,20,10/10\n"
        "normal_quadratic,19.76,20,10/10\n"
        "g1,21.62,22,11/11\n"
        "g2,21.79,22,11/11\n"
        "two_step,22.07,23,12/11\n"
        "inversion,21.80,22,11/11\n"
    ),
    ("ancova_noninferiority", "power"): (
        "method,power_pct\n"
        "exact,97.64\n"
        "approx,97.66\n"
        "asymptotic_t,97.94\n"
    ),
    ("ancova_noninferiority", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "20/20,1000,974,97.40,0.50,0,20240801\n"
    ),
    ("mmrm_noninferiority", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal_asymptotic,9.75,10,5/5\n"
        "normal,12.06,13,7/6\n"
        "g1,15.78,16,8/8\n"
        "g2,16.66,17,9/8\n"
        "two_step,17.65,18,9/9\n"
        "inversion,15.58,16,8/8\n"
    ),
    ("mmrm_noninferiority", "power"): (
        "method,power_pct\n"
        "main,98.55\n"
        "simple_approx,98.85\n"
    ),
    ("mmrm_noninferiority", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "11/10,1000,983,98.30,0.41,0,20240826\n"
    ),
    ("two_sample_welch_superiority_margins_flag", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,98.51,99,50/49\n"
        "g1,100.64,101,51/50\n"
        "g2,100.69,101,51/50\n"
        "two_step,100.80,101,51/50\n"
        "inversion,100.71,101,51/50\n"
    ),
    ("two_sample_welch_superiority_margins_flag", "power"): (
        "method,power_pct\n"
        "exact,80.17\n"
        "approx,80.17\n"
        "generic_approx,80.18\n"
    ),
    ("two_sample_welch_superiority_margins_flag", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "51/50,1000,795,79.50,1.28,0,20240801\n"
    ),
    ("two_sample_welch_superiority_unequal_allocation", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,194.35,195,59/136\n"
        "g1,196.79,197,60/137\n"
        "g2,196.82,197,60/137\n"
        "two_step,196.90,197,60/137\n"
        "inversion,196.86,197,60/137\n"
    ),
    ("two_sample_welch_superiority_unequal_allocation", "size_nearest"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,194.35,194,59/135\n"
        "g1,196.79,197,60/137\n"
        "g2,196.82,197,60/137\n"
        "two_step,196.90,197,60/137\n"
        "inversion,196.86,197,60/137\n"
    ),
    ("two_sample_welch_superiority_unequal_allocation", "power"): (
        "method,power_pct\n"
        "two_sided,80.03\n"
        "one_sided_approx,80.03\n"
        "exact,80.03\n"
    ),
    ("two_sample_welch_superiority_unequal_allocation", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "60/137,1000,796,79.60,1.27,0,20240801\n"
    ),
    ("mmrm_superiority_unequal_allocation", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal_asymptotic,18.19,19,6/13\n"
        "normal,20.03,21,7/14\n"
        "g1,22.70,23,7/16\n"
        "g2,23.01,24,8/16\n"
        "two_step,23.33,24,8/16\n"
        "inversion,23.00,23,7/16\n"
    ),
    ("mmrm_superiority_unequal_allocation", "size_nearest"): (
        "method,fractional,rounded_total,per_group\n"
        "normal_asymptotic,18.19,18,6/12\n"
        "normal,20.03,20,6/14\n"
        "g1,22.70,23,7/16\n"
        "g2,23.01,23,7/16\n"
        "two_step,23.33,23,7/16\n"
        "inversion,23.00,23,7/16\n"
    ),
    ("mmrm_superiority_unequal_allocation", "power"): (
        "method,power_pct\n"
        "main,90.01\n"
        "simple_approx,90.81\n"
    ),
    ("mmrm_superiority_unequal_allocation", "simulate"): (
        "per_group,replicates,rejections,power_pct,std_error_pct,failures,seed\n"
        "7/16,1000,894,89.40,0.97,0,20240826\n"
    ),
    ("table5_m_05_margins_off_centre", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,879.22,880,440/440\n"
        "g1,881.84,882,441/441\n"
        "g2,881.84,882,441/441\n"
        "two_step,881.89,882,441/441\n"
        "inversion,881.84,882,441/441\n"
    ),
    ("table5_m_05_margins_near_centre", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,471.14,472,236/236\n"
        "g1,473.75,474,237/237\n"
        "g2,473.76,474,237/237\n"
        "two_step,473.81,474,237/237\n"
        "inversion,473.76,474,237/237\n"
    ),
    ("table4_s2_0250_margins_off_centre", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal,28.80,29,15/14\n"
        "g1,30.16,31,16/15\n"
        "g2,30.22,31,16/15\n"
        "two_step,30.51,31,16/15\n"
        "inversion,30.26,31,16/15\n"
    ),
    ("table2_q3_100_margins_off_centre", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal_asymptotic,125.58,126,63/63\n"
        "normal,128.63,129,65/64\n"
        "normal_quadratic,128.65,129,65/64\n"
        "g1,130.55,131,66/65\n"
        "g2,130.58,131,66/65\n"
        "two_step,130.64,131,66/65\n"
        "inversion,130.59,131,66/65\n"
    ),
    ("table6_cs_q1_m8_margins_off_centre", "size"): (
        "method,fractional,rounded_total,per_group\n"
        "normal_asymptotic,68.95,69,35/34\n"
        "normal,71.00,72,36/36\n"
        "g1,73.46,74,37/37\n"
        "g2,73.54,74,37/37\n"
        "two_step,73.67,74,37/37\n"
        "inversion,73.59,74,37/37\n"
    ),
}


@pytest.mark.parametrize("name,command", list(EXPECTED), ids=[f"{c}-{m}" for c, m in EXPECTED])
def test_cell_output_is_pinned(tmp_path, name, command):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(CELLS[name][0]))
    assert run_cell(name, command, str(path)) == (0, EXPECTED[name, command])


def _cell_config(name: str):
    doc, _, extra = CELLS[name]
    cfg = parse_design(json.loads(json.dumps(doc)))
    if extra:  # --margins=LO,HI on a superiority file
        lo, hi = (float(v) for v in extra[0].split("=")[1].split(","))
        cfg = dataclasses.replace(cfg, margins=Margins.equivalence(lo, hi))
    return cfg


def family_exact_power(cfg, n: float) -> float:
    """The exact power of the design's family and objective, written out from
    the library's power functions and conditional powers, not its power rows:
    the power ``size`` must invert.  Under noninferiority it is the family's
    one-sided power at the margin, the rejection region of the simulator's
    decision."""
    d, m, a = cfg.design, cfg.margins, cfg.alpha
    if m is None:
        if cfg.family == "mmrm":
            return mmrm._last_visit_power(d, core.two_tailed(d.effect), n, a).value
        if cfg.family == "ancova":
            return ancova_power_exact(d, n, a).value
        if cfg.family == "two_sample" and not d.equal_variance:
            return welch_power(d, core.two_tailed(d.mu1 - d.mu0), n, a).value
        return core.power_two_sided(cfg.kernel(), n, a).value
    if m.kind == "equivalence":
        if cfg.family == "mmrm":
            approx, _ = equivalence._conditional(m, d.tau_p1, False)
            return mmrm._last_visit_power(d, approx, n, a).value
        if cfg.family == "ancova":
            return adjusted_power(d, equivalence._conditional(m, d.tau1, True)[0], n, a).value
        if cfg.family == "two_sample" and not d.equal_variance:
            return ts_unequal_equiv_power(d, m, n, a, exact=True).value
        return equiv_power_exact(cfg.kernel(), m, n, a).value
    margin = m.lower if math.isfinite(m.lower) else m.upper
    if cfg.family == "mmrm":
        one_sided = core.one_sided_tests(abs(d.tau_p1 - margin))
        return mmrm._last_visit_power(d, one_sided, n, a).value
    if cfg.family == "ancova":
        return adjusted_power(d, core.one_sided_tests(abs(d.tau1 - margin)), n, a).value
    if cfg.family == "two_sample" and not d.equal_variance:
        return moser_exact_power(d, margin, n, a).value
    k = cfg.kernel()
    return k.power(core.one_sided_tests(abs(k.effect)), n, a, "approx").value


# one fixture of each family and objective the shipped tables cover
FIXTURES = (
    "table1_equal_100",
    "table1_unequal_100",
    "table2_q3_100",
    "table3_un_q1_m12",
    "table4_s2_0125",
    "table5_m_10",
    "table6_ar1_q1_m4",
)


@pytest.mark.parametrize("name", [*CELLS, *FIXTURES])
def test_inversion_solves_the_family_exact_power(name):
    cfg = _cell_config(name) if name in CELLS else load_design(fixture_path(name))
    root = cfg.size_rows(cfg.alpha, cfg.target_power)["inversion"]
    tol = 2.0 * core._SIZE_TOL
    below, above = (family_exact_power(cfg, root + s * tol) for s in (-1.0, 1.0))
    assert below <= cfg.target_power <= above
    assert cfg.exact_power(root, cfg.alpha) == family_exact_power(cfg, root)


def test_ancova_noninferiority_power_matches_simulation():
    # the null moves to the margin: at n = 40 the exact power is 97.64%, not
    # the superiority test's 85.93%
    cfg = _cell_config("ancova_noninferiority")
    exact = cfg.exact_power(40, cfg.alpha)
    superiority = dataclasses.replace(cfg, margins=None)
    assert exact - superiority.exact_power(40, cfg.alpha) > 0.1
    report = simulate_power(cfg.scenario, (20, 20), cfg.alpha, cfg.margins, replicates=20_000)
    assert abs(report.power_hat - exact) <= 3.0 * report.std_error


# A noninferiority margin on the wrong side of tau1 leaves no effect for the
# one-sided test to detect: the simulator rejected 0 of 20,000 replicates
# while the power rows read 50.82% at n = 100 and the inversion 198.15.
@pytest.mark.parametrize("margins", [Margins(0.2, math.inf), Margins(-math.inf, -0.2)],
                         ids=["lower", "upper"])
def test_noninferiority_margin_on_the_wrong_side_raises(margins):
    d = OneSampleSpec(mu=0.0, tau0=0.0, sigma_sq=1.0)
    family = family_of(d)
    with pytest.raises(DomainError, match="strictly inside the margins"):
        family.powers(d, margins)[1]["two_sided"](100, 0.05)
    with pytest.raises(DomainError, match="strictly inside the margins"):
        family.size_rows(d, margins, 0.05, 0.8)
