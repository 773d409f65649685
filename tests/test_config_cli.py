"""Design-file schema and command-line behaviour."""

import json

import pytest

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
        assert cfg.margins.margin() == -1.0
        assert cfg.kernel().tau0 == -1.0
        assert cfg.kernel().one_tailed

    def test_bioequivalence_defaults(self):
        doc = {
            "family": "crossover",
            "objective": "bioequivalence",
            "design": {"mu_star_a": 0.0, "mu_star_b": 0.0, "sigma_d_sq": 0.05},
        }
        cfg = parse_design(doc)
        assert cfg.alpha == 0.1
        assert abs(cfg.margins.upper - 0.22314355) < 1e-6

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
