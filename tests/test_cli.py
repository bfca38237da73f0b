"""End-to-end CLI runs, in process: exit codes, report files, determinism."""

import csv
import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bundlelab import cli
from bundlelab.cli import main
from bundlelab.bundles import section_lp_norm
from bundlelab.duality import holder_maximizer, integrated_pairing, operator_norm
from bundlelab.generators import instance_rng, random_section, recipe_from_config
from bundlelab.measure import conjugate_exponent
from bundlelab.norms import InnerProductNorm
from bundlelab.serialize import budget_from_config, bundle_from_config, section_from_config

SMALL_BUDGET = {"restarts": 16, "iterations": 80}


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestModulus:
    def test_euclid_default_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "norm": {"kind": "inner_product", "gram": [[1.0, 0.0], [0.0, 1.0]]},
                "budget": SMALL_BUDGET,
            },
        )
        out = tmp_path / "reports"
        assert main(["modulus", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "modulus_curve.csv")
        assert rows[0] == ["instance", "seed", "epsilon", "delta", "raw_delta"]
        assert len(rows) == 21  # header + default 20-point grid
        table = {float(r[2]): float(r[3]) for r in rows[1:]}
        assert table[1.0] == pytest.approx(0.1339745962155614, abs=1e-3)
        deltas = [float(r[3]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))
        assert (out / "summary.md").exists()
        assert (out / "modulus_curve.dat").exists()

    def test_flat_norm_all_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"norm": {"kind": "weighted_lp", "r": 1, "weights": [1.0, 1.0]},
             "budget": SMALL_BUDGET},
        )
        out = tmp_path / "reports"
        code = main(
            ["modulus", "--config", cfg, "--out", str(out), "--grid", "0.5:2.0:0.5"]
        )
        assert code == 0
        rows = read_csv(out / "modulus_curve.csv")
        assert len(rows) == 5
        assert all(r[3] == "0.0" for r in rows[1:])

    def test_section_space_modulus(self, tmp_path):
        bundle = {
            "space": {"atoms": ["a", "b"], "weights": [1.0, 2.0]},
            "fibers": [
                {"dimension": 2, "norm": {"kind": "inner_product",
                                          "gram": [[1.0, 0.0], [0.0, 1.0]]}},
                {"dimension": 2, "norm": {"kind": "inner_product",
                                          "gram": [[1.0, 0.0], [0.0, 1.0]]}},
            ],
        }
        cfg = write_config(
            tmp_path,
            {"bundle": bundle, "p": 2, "grid": [1.0],
             "budget": {"restarts": 4, "iterations": 20}},
        )
        out = tmp_path / "reports"
        assert main(["modulus", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "modulus_curve.csv")
        # constant Euclidean fibers: the section space is Euclidean again
        assert float(rows[1][3]) == pytest.approx(0.1339745962155614, abs=2e-3)

    def test_missing_fiber_dimension(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"bundle": {"space": {"atoms": ["a"], "weights": [1.0]}, "fibers": [{}]}},
        )
        assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "config error: fiber dimension required (fiber at atom index 0)" in err

    @pytest.mark.parametrize("grid", ["0:1:0.1", "1.0:0.5:0.1", "0.5:2.5:0.5", "abc",
                                      "0.5:1:0", "nan:1:0.1"])
    def test_bad_grid_is_config_error(self, tmp_path, grid):
        cfg = write_config(
            tmp_path,
            {"norm": {"kind": "inner_product", "gram": [[1.0]]}},
        )
        code = main(
            ["modulus", "--config", cfg, "--out", str(tmp_path / "r"), "--grid", grid]
        )
        assert code == 2

    def test_one_seed_for_search_and_report(self, tmp_path):
        """--seed 9, a top-level seed 9 and a budget seed 9 search with the
        same seed and report it: the three curves are byte-identical."""
        base = {"norm": {"kind": "weighted_lp", "r": 3, "weights": [1.0, 2.0]},
                "grid": [1.0, 2.0], "budget": {"restarts": 4, "iterations": 20}}
        runs = [(base, ["--seed", "9"]), (dict(base, seed=9), []),
                (dict(base, budget=dict(base["budget"], seed=9)), [])]
        tables = []
        for k, (payload, extra) in enumerate(runs):
            cfg = write_config(tmp_path, payload, name=f"run{k}.json")
            out = tmp_path / f"r{k}"
            assert main(["modulus", "--config", cfg, "--out", str(out), *extra]) == 0
            tables.append((out / "modulus_curve.csv").read_bytes())
        assert tables[0] == tables[1] == tables[2]
        assert read_csv(tmp_path / "r0" / "modulus_curve.csv")[1][1] == "9"


class TestSuite:
    CONFIG = {
        "suites": ["uc-upper"],
        "recipes": {
            "uc-upper": {
                "seed": 23,
                "instance_count": 1,
                "atom_range": [2, 2],
                "dim_range": [2, 2],
                "exponents": [2],
            }
        },
        "grid": [0.5, 1.0],
        "budget": {"restarts": 8, "iterations": 40},
    }

    def test_exit_zero_and_reports(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "reports"
        assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "suite_reports.csv")
        assert rows[0] == [
            "suite", "tag", "instance", "seed", "check", "residual",
            "threshold", "passed", "verdict", "expected", "witness",
        ]
        assert len(rows) > 1
        assert (out / "summary.md").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["suite", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["suite", "--config", cfg, "--out", str(out2)]) == 0
        a = (out1 / "suite_reports.csv").read_bytes()
        b = (out2 / "suite_reports.csv").read_bytes()
        assert a == b

    def test_unknown_tag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suites": ["nope"]})
        assert main(["suite", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "valid tags" in capsys.readouterr().err

    def test_config_seed_reseeds_recipes_like_the_flag(self, tmp_path):
        """A top-level seed and --seed pick the same instances."""
        base = {"suites": ["hilbert"], "recipes": {"hilbert": {
            "instance_count": 1, "atom_range": [2, 2], "dim_range": [2, 2]}}}
        runs = [(dict(base, seed=5), []), (base, ["--seed", "5"])]
        tables = []
        for k, (payload, extra) in enumerate(runs):
            cfg = write_config(tmp_path, payload, name=f"run{k}.json")
            out = tmp_path / f"r{k}"
            assert main(["suite", "--config", cfg, "--out", str(out), *extra]) == 0
            tables.append((out / "suite_reports.csv").read_bytes())
        assert tables[0] == tables[1]
        assert read_csv(tmp_path / "r0" / "suite_reports.csv")[1][2] == "01c80470cc82"

    def test_unknown_recipe_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"suites": ["uc-upper"], "recipes": {"bogus": {"seed": 1}}}
        )
        assert main(["suite", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "recipe for unknown suite" in capsys.readouterr().err

    def test_a_criterion_recipe_is_refused(self, tmp_path, capsys):
        """The criterion suite reads only the run seed, so a recipe for it
        would be validated and then dropped: it is a configuration error."""
        cfg = write_config(tmp_path, {"suites": ["criterion"], "recipes": {"criterion": {
            "seed": 5, "instance_count": 1, "atom_range": [7, 7]}}})
        out = tmp_path / "r"
        assert main(["suite", "--config", cfg, "--out", str(out)]) == 2
        assert "suite 'criterion' takes no recipe" in capsys.readouterr().err
        assert not out.exists()


class TestDualCheck:
    BUNDLE = {
        "space": {"atoms": ["a", "b"], "weights": [1.0, 1.0]},
        "fibers": [
            {"dimension": 1, "norm": {"kind": "inner_product", "gram": [[1.0]]}},
            {"dimension": 1, "norm": {"kind": "inner_product", "gram": [[1.0]]}},
        ],
    }

    def test_explicit_covector_operator_norm(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"bundle": self.BUNDLE, "p": 2, "samples": 5,
             "dual_section": [[3.0], [4.0]], "section": [[3.0], [4.0]]},
        )
        out = tmp_path / "reports"
        assert main(["dual-check", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "dual_residuals.csv")
        explicit = [r for r in rows[1:] if r[2] == "explicit"]
        quantities = {r[3] for r in explicit}
        assert {
            "operator-norm-vs-dual-lq",
            "holder-attainment",
            "swapped-operator-norm-vs-lp",
            "holder-inequality-slack",
        } <= quantities
        opnorm = [r for r in explicit if r[3] == "operator-norm-vs-dual-lq"][0]
        assert float(opnorm[4]) == pytest.approx(5.0, abs=1e-9)
        assert all(r[8] == "true" for r in rows[1:])

    @pytest.mark.parametrize("field", ["section", "dual_section"])
    def test_section_entries_must_be_numbers(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, {"bundle": self.BUNDLE, "samples": 0,
                                      field: [[True], ["2"]]})
        assert main(["dual-check", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "not booleans or strings" in err

    def _attainment_row(self, tmp_path, dual_section, exit_code):
        cfg = write_config(tmp_path, {"bundle": self.BUNDLE, "p": 2, "samples": 0,
                                      "dual_section": dual_section})
        out = tmp_path / "reports"
        assert main(["dual-check", "--config", cfg, "--out", str(out)]) == exit_code
        rows = read_csv(out / "dual_residuals.csv")
        return [r for r in rows[1:] if r[3] == "holder-attainment"][0]

    def test_holder_attainment_fails_off_the_unit_sphere(self, tmp_path, monkeypatch):
        """A fiber maximizer 1% off the unit sphere gives a maximizing section
        of norm 1.01, which the explicit attainment row must report."""
        exact = InnerProductNorm.linear_maximizer_batch

        def scaled(self, C):
            values, U = exact(self, C)
            return values, 1.01 * U

        monkeypatch.setattr(InnerProductNorm, "linear_maximizer_batch", scaled)
        row = self._attainment_row(tmp_path, [[3.0], [4.0]], 1)
        assert (row[2], float(row[5]), row[8]) == ("explicit", 1.0, "false")
        assert float(row[6]) == pytest.approx(0.01, rel=1e-9)

    def test_holder_attainment_of_the_zero_functional(self, tmp_path):
        row = self._attainment_row(tmp_path, [[0.0], [0.0]], 0)
        assert (float(row[4]), float(row[5]), row[8]) == (0.0, 0.0, "true")

    def test_sampled_rows_equal_the_one_section_operator_norms(self, tmp_path):
        """Each sampled row's value is, bit for bit, ``operator_norm`` of the
        section drawn for it by one ``random_section`` call per covector
        field and per section."""
        payload = {"bundle": PINNED_BUNDLE, "p": 3, "samples": 7, "seed": 4}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "reports"
        assert main(["dual-check", "--config", cfg, "--out", str(out)]) == 0
        rows = {(r[2], r[3]): float(r[4]) for r in read_csv(out / "dual_residuals.csv")[1:]}
        bundle = bundle_from_config(PINNED_BUNDLE)
        rng = instance_rng(4, 0, stream=5)
        for s in range(7):
            omega = random_section(bundle.dual(), rng)
            v = random_section(bundle, rng)
            assert rows[f"s{s}", "operator-norm-vs-dual-lq"] == operator_norm(omega, 3)
            assert rows[f"s{s}", "swapped-operator-norm-vs-lp"] == operator_norm(v, 1.5)

    @pytest.mark.parametrize("given", ["both", "dual_section", "section"])
    def test_explicit_rows_equal_the_one_row_functions(self, tmp_path, given):
        """Each explicit row's value and reference are, bit for bit, those of
        the public one-row functions on the configured sections, and the
        explicit rows are the same with 50 samples drawn beside them as with
        none."""
        dual_section = [[1.0, -0.5], [0.25, 2.0], [1.5]]
        section = [[0.5, 1.0], [-1.0, 0.75], [2.0]]
        p, q = 3, conjugate_exponent(3)
        bundle = bundle_from_config(PINNED_BUNDLE)
        omega = section_from_config(bundle, {"vectors": dual_section}, dual=True)
        v = section_from_config(bundle, {"vectors": section})
        vstar = holder_maximizer(omega, p)
        opn = integrated_pairing(omega, vstar)
        payload, want = {"bundle": PINNED_BUNDLE, "p": p}, {}
        if given != "section":
            payload["dual_section"] = dual_section
            want["operator-norm-vs-dual-lq"] = (opn, section_lp_norm(omega, q))
            want["holder-attainment"] = (section_lp_norm(vstar, p), 1.0)
        if given != "dual_section":
            payload["section"] = section
            want["swapped-operator-norm-vs-lp"] = (operator_norm(v, q), section_lp_norm(v, p))
        if given == "both":
            want["holder-inequality-slack"] = (integrated_pairing(omega, v),
                                               opn * section_lp_norm(v, p))
        tables = []
        for samples in (0, 50):
            cfg = write_config(tmp_path, dict(payload, samples=samples))
            out = tmp_path / f"reports{samples}"
            assert main(["dual-check", "--config", cfg, "--out", str(out)]) == 0
            explicit = [r for r in read_csv(out / "dual_residuals.csv")[1:] if r[2] == "explicit"]
            assert {r[3]: (float(r[4]), float(r[5])) for r in explicit} == want
            tables.append(explicit)
        assert tables[0] == tables[1]

    def test_exponent_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bundle": self.BUNDLE, "p": 1})
        assert main(["dual-check", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "exponent must lie in (1, inf)" in capsys.readouterr().err

    def test_rational_string_exponent(self, tmp_path):
        cfg = write_config(tmp_path, {"bundle": self.BUNDLE, "p": "3/2", "samples": 4,
                                      "dual_section": [[3.0], [4.0]]})
        out = tmp_path / "reports"
        assert main(["dual-check", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "dual_residuals.csv")
        assert len(rows) > 1 and all(r[8] == "true" for r in rows[1:])

    def test_degenerate_bundle_diagram_only(self, tmp_path):
        bundle = {
            "space": {"atoms": ["a"], "weights": [1.0]},
            "fibers": [{"dimension": 0}],
        }
        cfg = write_config(tmp_path, {"bundle": bundle, "p": 2, "samples": 3})
        out = tmp_path / "reports"
        assert main(["dual-check", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "dual_residuals.csv")
        assert {r[2] for r in rows[1:]} == {"diagram"}


class TestCriterion:
    BUNDLE = {
        "space": {"atoms": ["a", "b"], "weights": [1.0, 2.0]},
        "fibers": [
            {"dimension": 2, "norm": {"kind": "inner_product",
                                      "gram": [[1.0, 0.0], [0.0, 1.0]]}},
            {"dimension": 2, "norm": {"kind": "weighted_lp", "r": 3,
                                      "weights": [1.0, 1.5]}},
        ],
    }

    def test_default_catalogue_verdicts(self, tmp_path):
        cfg = write_config(tmp_path, {"bundle": self.BUNDLE, "probes": 4})
        out = tmp_path / "reports"
        assert main(["criterion", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "criterion_rows.csv")
        additivity = {r[2]: (r[8], r[9]) for r in rows[1:]
                      if r[4] == "restriction-additivity"}
        assert additivity["induced-p2"] == ("PASS", "PASS")
        assert additivity["sup-over-atoms"] == ("FAIL", "FAIL")
        checks = {r[4] for r in rows[1:]}
        assert "reconstruction-refusal" in checks
        assert "pointwise-reconstruction" in checks
        assert "weak-star-continuity" in checks

    def test_mismatched_exponent_is_reportable(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"bundle": self.BUNDLE,
             "norms": [{"tag": "induced", "p": 2, "p_check": 3, "expect": "FAIL"}],
             "probes": 4},
        )
        out = tmp_path / "reports"
        assert main(["criterion", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "criterion_rows.csv")
        add = [r for r in rows[1:] if r[4] == "restriction-additivity"][0]
        assert add[8] == "FAIL" and add[9] == "FAIL"
        assert add[6] != ""  # witness subset recorded

    def test_unknown_norm_tag(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"bundle": self.BUNDLE, "norms": [{"tag": "bogus"}]}
        )
        assert main(["criterion", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "unknown norm tag" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["criterion", "dual-check"])
def test_grid_only_where_a_grid_is_used(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"bundle": TestCriterion.BUNDLE})
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", cfg, "--out", str(tmp_path / "r"), "--grid", "0.5:1:0.5"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --grid" in capsys.readouterr().err


#: fibers of three kinds, among them a polytope gauge and a polyhedral max-norm
PINNED_BUNDLE = {
    "space": {"atoms": ["a", "b", "c"], "weights": [1.0, 2.0, 0.5]},
    "fibers": [
        {"dimension": 2, "norm": {"kind": "polytope_gauge", "vertices":
                                  [[1.0, 0.2], [0.3, 1.1], [-1.0, -0.2], [-0.3, -1.1]]}},
        {"dimension": 2, "norm": {"kind": "polyhedral_max", "functionals":
                                  [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}},
        {"dimension": 1, "norm": {"kind": "weighted_lp", "r": 3, "weights": [2.0]}},
    ],
}


@pytest.mark.parametrize(
    "command, payload, table, sha256",
    [
        ("criterion", {"bundle": PINNED_BUNDLE, "probes": 4, "seed": 5}, "criterion_rows.csv",
         "1b7ee2944593d0350f60c5027aa0b3ad935314eeaea91a6037398e388db37ba8"),
        ("dual-check", {"bundle": PINNED_BUNDLE, "p": 3, "samples": 6, "seed": 2,
                        "dual_section": [[1.0, -0.5], [0.25, 2.0], [1.5]],
                        "section": [[0.5, 1.0], [-1.0, 0.75], [2.0]]}, "dual_residuals.csv",
         # retaken when dual-check's rows moved onto batches of flat rows:
         # values within 2e-16 relative, references unchanged, residuals
         # within 4.5e-16 absolute, every verdict unchanged
         "46dfe25d026a5e7eddc81ad23ca140386ead8e8ca3c7328fadd4f5c535dc2a24"),
    ],
    ids=["criterion", "dual-check"],
)
def test_report_bytes_are_pinned(tmp_path, command, payload, table, sha256):
    """The report tables of two small gauge and polyhedral runs keep their
    bytes: any change to a residual, a verdict or a witness moves the digest."""
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "reports"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256((out / table).read_bytes()).hexdigest() == sha256


def test_low_dimensional_suite_run_bytes_are_pinned(tmp_path):
    """Every report file but the timestamped summary of a run of all six
    suites keeps its bytes, on recipes that draw 1-D and zero-dimensional
    fibers: a degenerate bundle, one of total dimension 1 beside a zero
    fiber, and one of two 1-D fibers and a zero fiber."""
    suites = ["hilbert", "uc-upper", "uc-lower", "pointwise", "duality", "criterion"]
    recipe = {"seed": 9, "instance_count": 5, "atom_range": [1, 3], "dim_range": [1, 2],
              "zero_fiber_fraction": 0.4, "exponents": [1.5, 2]}
    # criterion takes no recipe (it reads only the run seed)
    cfg = write_config(tmp_path, {"suites": suites,
                                  "recipes": {s: recipe for s in suites if s != "criterion"}})
    out = tmp_path / "reports"
    assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "summary.md":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    # pinned at the commit before lines went through the search kernel;
    # retaken when the separation repair went, which had lowered five
    # eps = 2 estimates (and the gap residuals read off them) by up to 2.5e-8
    assert h.hexdigest() == "a159b99ae752815dec56f5320fa1317d0b679b0ac3bf52894a1077a560158cbf"


def test_a_gauge_run_never_imports_scipy(tmp_path):
    """scipy is only the tests' LP oracle: a fresh interpreter that imports
    the CLI and runs a criterion config with gauge and polyhedral fibers
    has not loaded it."""
    bundle = {
        "space": {"atoms": ["a", "b"], "weights": [1.0, 2.0]},
        "fibers": [
            {"dimension": 2, "norm": {"kind": "polytope_gauge", "vertices":
                                      [[1.0, 0.2], [0.3, 1.1], [-1.0, -0.2], [-0.3, -1.1]]}},
            {"dimension": 2, "norm": {"kind": "polyhedral_max", "functionals":
                                      [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}},
        ],
    }
    cfg = write_config(tmp_path, {"bundle": bundle, "probes": 1})
    script = (
        "import sys\n"
        "from bundlelab import cli\n"
        f"assert cli.main(['criterion', '--config', {cfg!r}, '--out', {str(tmp_path / 'r')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestConfigLoading:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"norm": \n  [unclosed', encoding="utf-8")
        assert main(["modulus", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "malformed JSON at line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["modulus", "--config", missing, "--out", str(tmp_path / "r")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_non_object_root(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["modulus", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "config root must be a JSON object" in capsys.readouterr().err


class TestExitCodes:
    NORM = {"kind": "inner_product", "gram": [[1.0, 0.0], [0.0, 1.0]]}
    BUNDLE = {"space": {"atoms": ["a"], "weights": [1.0]},
              "fibers": [{"dimension": 2, "norm": NORM}]}

    def test_internal_value_error_exits_three(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("broken invariant")

        monkeypatch.setattr(cli, "modulus_curve", broken)
        cfg = write_config(tmp_path, {"norm": self.NORM, "grid": [1.0]})
        assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert "internal error" in err and "broken invariant" in err
        assert "config error" not in err

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("modulus", {"bundle": {"space": {"atoms": ["a"], "weights": [1.0]},
                                    "fibers": [{"dimension": 0}]}}),
            ("modulus", {"bundle": BUNDLE, "p": 0.5}),
            ("modulus", {"norm": {"kind": "weighted_lp", "r": 0.5, "weights": [1.0]}}),
            ("modulus", {"norm": NORM, "grid": [1.0, 0.5]}),
            ("modulus", {"norm": NORM, "seed": "abc"}),
            ("suite", {"suites": ["uc-upper"], "recipes": {"uc-upper": {"exponents": [0.5]}}}),
            ("suite", {"suites": ["uc-upper"], "recipes": {"uc-upper": {"kinds": ["nope"]}}}),
            ("suite", {"suites": ["uc-upper"], "recipes": {"uc-upper": {"exponents": []}}}),
            ("dual-check", {"bundle": BUNDLE, "p": 2, "samples": "many"}),
            ("dual-check", {"bundle": BUNDLE, "p": 2, "samples": 2.7}),
            ("dual-check", {"bundle": BUNDLE, "p": 2, "samples": -5}),
            ("criterion", {"bundle": BUNDLE, "probes": 0}),
            ("criterion", {"bundle": BUNDLE, "probes": True}),
            ("suite", {"suites": 5}),
            ("criterion", {"bundle": BUNDLE, "norms": [{"tag": "induced", "p": 0.5}]}),
            ("modulus", {"norm": {"kind": "polytope_gauge",
                                  "vertices": np.vstack([np.eye(20), -np.eye(20)]).tolist()}}),
            # its dual gauge is built only when dual-check reaches it
            ("dual-check", {"p": 2, "bundle": {
                "space": {"atoms": ["a"], "weights": [1.0]},
                "fibers": [{"dimension": 20, "norm": {"kind": "polyhedral_max",
                                                      "functionals": np.eye(20).tolist()}}]}}),
            ("suite", {"suites": ["uc-upper"], "recipes": {"uc-upper": {"dim_range": [11, 11]}}}),
            ("suite", {"suites": ["hilbert"], "budget": []}),
            ("suite", {"suites": ["hilbert"], "budget": 0}),
        ],
        ids=["degenerate-bundle", "bad-p", "bad-norm", "bad-grid", "bad-seed",
             "bad-recipe-exponent", "bad-recipe-kind", "no-recipe-exponents", "bad-samples",
             "fractional-samples", "negative-samples", "zero-probes", "bool-probes",
             "suites-not-a-list", "bad-entry-p",
             "gauge-too-large", "polyhedral-max-too-large", "recipe-too-large",
             "suite-budget-list", "suite-budget-zero"],
    )
    def test_config_value_errors_exit_two(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_recipe_field_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suites": ["hilbert"],
                                      "recipes": {"hilbert": {"instance_cout": 1}}})
        assert main(["suite", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "instance_cout" in err

    def test_recipe_for_unselected_suite_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suites": ["hilbert"], "recipes": {
            "hilbert": {"instance_count": 1, "atom_range": [2, 2], "dim_range": [2, 2]},
            "uc-lower": {"instance_count": 500}}})
        assert main(["suite", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'uc-lower'" in err and "['hilbert']" in err
        assert not (tmp_path / "r").exists()

    def test_reports_leave_out_search_counters(self, tmp_path):
        cfg = write_config(tmp_path, {"norm": self.NORM, "grid": [1.0],
                                      "budget": {"restarts": 4, "iterations": 5}})
        out = tmp_path / "r"
        assert main(["modulus", "--config", cfg, "--out", str(out)]) == 0
        for path in out.iterdir():
            text = path.read_text()
            assert not any(name in text for name in ("iterations", "lanes", "rows"))

    @pytest.mark.parametrize(
        "field, recipe",
        [
            ("instance_count", {"instance_count": 2.5}),
            ("instance_count", {"instance_count": "7"}),
            ("seed", {"seed": True}),
            ("seed", {"seed": 1.9}),
            ("atom_range", {"atom_range": [2.5, 3]}),
            ("dim_range", {"dim_range": [2, 2.5]}),
        ],
        ids=["fractional-count", "string-count", "bool-seed", "fractional-seed",
             "fractional-atom-bound", "fractional-dim-bound"],
    )
    def test_recipe_integers_are_not_truncated(self, tmp_path, capsys, field, recipe):
        cfg = write_config(tmp_path, {"suites": ["hilbert"], "recipes": {"hilbert": recipe}})
        assert main(["suite", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and "must be an integer" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("dimension", [2.5, True, "1"], ids=["fractional", "bool", "string"])
    def test_fiber_dimension_is_not_truncated(self, tmp_path, capsys, dimension):
        bundle = {"space": {"atoms": ["a"], "weights": [1.0]},
                  "fibers": [{"dimension": dimension, "norm": self.NORM}]}
        cfg = write_config(tmp_path, {"bundle": bundle, "grid": [1.0]})
        assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "config error: fiber dimension (fiber at atom index 0) must be an integer" in err

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("modulus", {"norm": NORM, "grdi": [1.0]}, "grdi"),
            ("suite", {"suite": ["pointwise"]}, "suite"),
            ("dual-check", {"bundle": BUNDLE, "sample": 3}, "sample"),
            ("criterion", {"bundle": BUNDLE, "probe": 2}, "probe"),
        ],
        ids=["modulus", "suite", "dual-check", "criterion"],
    )
    def test_unknown_top_level_field_is_named(self, tmp_path, capsys, command, payload, field):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {command} config has unknown fields: [{field!r}]" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "norms, message",
        [
            ([{"tag": "induced", "p": "inf"}], "norms entry p_check (or p) invalid"),
            ([{"tag": "sup-over-atoms", "p_check": "inf"}],
             "norms entry p_check (or p) invalid"),
            ([{"tag": "induced", "p": 2, "p_chek": 3}],
             "norms entry has unknown fields: ['p_chek']"),
            ([], "norms must be a non-empty list"),
        ],
        ids=["induced-sup-exponent", "sup-exponent-check", "unknown-entry-field", "empty"],
    )
    def test_bad_criterion_norms_are_config_errors(self, tmp_path, capsys, norms, message):
        cfg = write_config(tmp_path, {"bundle": self.BUNDLE, "norms": norms})
        assert main(["criterion", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert not (tmp_path / "r").exists()

    TWO_ATOMS = {"space": {"atoms": ["a", "b"], "weights": [1, 1]},
                 "fibers": [{"dimension": 0},
                            {"dimension": 1, "norm": {"kind": "inner_product", "gram": [[1.0]]}}]}

    @pytest.mark.parametrize(
        "path, key, value, message",
        [
            (("space",), "weigths", [5, 5], "measure space config has unknown fields: ['weigths']"),
            (("fibers", 1, "norm"), "weights", [3.0],
             "fiber at atom index 1 invalid: "
             "norm config for kind 'inner_product' has unknown fields: ['weights']"),
            (("fibers", 1), "dimesion", 2, "fiber at atom index 1 has unknown fields: ['dimesion']"),
            (("fibers", 0), "norm", {"kind": "inner_product", "gram": [[1.0]]},
             "zero-dimensional fibers carry no norm (fiber at atom index 0)"),
            ((), "fibres", [], "bundle config has unknown fields: ['fibres']"),
        ],
        ids=["space", "norm", "fiber", "zero-fiber-norm", "bundle"],
    )
    def test_bundle_schema_mistakes_are_config_errors(self, tmp_path, capsys, path, key, value,
                                                      message):
        bundle = json.loads(json.dumps(self.TWO_ATOMS))
        entry = bundle
        for step in path:
            entry = entry[step]
        entry[key] = value
        cfg = write_config(tmp_path, {"bundle": bundle, "samples": 2})
        assert main(["dual-check", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("field, value", [("constant_fraction", True),
                                              ("zero_fiber_fraction", 7),
                                              ("weight_range", ["0.3", 2])],
                             ids=["bool-fraction", "fraction-above-one", "string-weight"])
    def test_recipe_number_mistakes_are_config_errors(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, {"suites": ["uc-upper"],
                                      "recipes": {"uc-upper": {field: value}}})
        assert main(["suite", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert f"config error: recipe config invalid: {field}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_configs_pass_the_strict_readers():
    """The configs the benchmark builds, at seeds 0-1 over one full cycle of
    each workload, name only fields that the readers take."""
    workloads = _load_workloads().WORKLOADS.values()
    for workload, seed in itertools.product(workloads, (0, 1)):
        for index in range(workload.cycle):
            cfg = workload.config(seed, index)
            if "bundle" in cfg:
                bundle_from_config(cfg["bundle"])
            for recipe in cfg.get("recipes", {}).values():
                recipe_from_config(recipe)
            budget_from_config(cfg.get("budget"))


def test_report_digests_keeps_each_configs_reports(tmp_path, capsys):
    path = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["criterion-enum", "--keep", str(tmp_path)]) == 0
    name, seed, index, code, digest = capsys.readouterr().out.split()
    kept = tmp_path / "criterion-enum-0-0"
    assert (name, seed, index, code) == ("criterion-enum", "0", "0", "0")
    assert (kept / "criterion_rows.csv").is_file()
    assert digest == tool._load_workloads().output_digest(kept)


def test_report_digests_runs_a_config_file(tmp_path, capsys):
    path = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    config = tmp_path / "dual.json"
    config.write_text(json.dumps({"bundle": TestDualCheck.BUNDLE, "p": 2, "samples": 2,
                                  "dual_section": [[3.0], [4.0]]}))
    name = f"file:dual-check:{config}"
    assert tool.main([name, "--keep", str(tmp_path / "keep")]) == 0
    line = capsys.readouterr().out.split()
    assert line[:4] == [name, "-", "-", "0"]
    kept = tmp_path / "keep" / f"{name}-{'-'}-{'-'}".replace("/", "_")
    assert (kept / "dual_residuals.csv").is_file()
    assert line[4] == tool._load_workloads().output_digest(kept)


def test_layer_bench_times_every_layer(tmp_path):
    """One repeat of the per-layer harness on this checkout loaded twice, in
    its own interpreter so that it can pin the BLAS pools before numpy
    loads."""
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "layers.json"
    subprocess.run([sys.executable, str(root / "tools" / "layer_bench.py"), "--checkout", str(root),
                    "--checkout", str(root), "--repeats", "1", "--out", str(out)],
                   check=True, capture_output=True, timeout=300)
    report = json.loads(out.read_text())
    layers = report["layers"]
    kinds = ("inner_product", "weighted_lp", "polyhedral_max", "polytope_gauge")
    assert set(layers) == {f"norm_batch.{k}.rows_{m}" for k in kinds for m in (2, 64, 1024)} | {
        f"{layer}.{k}" for layer in ("norm", "linear_maximizer") for k in kinds} | {
        "section_evaluator", "section_evaluator_constant", "search_batch", "fiber_search",
        "dual_check"} | {
        f"gauge_build.{size}" for size in ("2x4", "3x5", "3x40", "2x256")}
    for timing in layers.values():
        assert timing["repeats"] == 1 and len(timing["seconds_per_call"]) == 2
        for stats in timing["seconds_per_call"]:
            assert 0.0 < stats["q1"] == stats["median"] == stats["q3"] and stats["iqr"] == 0.0
        [ratio] = timing["ratio_to_first"]
        assert ratio["median"] > 0.0
    assert report["checkouts"] == [str(root)] * 2
    assert report["machine"]["blas_threads"] == "1" and report["machine"]["usable_cpus"] >= 1
