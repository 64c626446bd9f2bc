import csv
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path
from textwrap import dedent

import tomllib

import numpy as np
import pytest
import scipy.sparse.linalg

import splitstep
import splitstep.cli as cli
from splitstep import (
    BlockDims,
    BlockOperator,
    BlockVector,
    example_coupled_spec,
    manufactured_problem,
    weighted_norm,
    write_block_operator,
    write_block_vector,
)
from splitstep.cli import ConfigError, _parse_number, _parse_numbers, _parse_table, main
from splitstep.linsolve import NotPositiveDefiniteError

from helpers import random_block_diag_spd, random_spd, random_vector


def write_config(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(dedent(text))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


MANUFACTURED_RUN = """\
    [problem]
    kind = manufactured
    p = 2
    m = 9

    [scheme]
    kind = weighted
    sigma = 0.5
    tau = 1/64
    T = 1.0
"""


SHIPPED_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _failing_factor(matrix, context="matrix"):
    raise NotPositiveDefiniteError(f"{context}: not positive definite, leading minor 7 is not positive", pivot=7)


class TestParsing:
    def test_numbers_and_fractions(self):
        assert _parse_number("1/16", "x") == 0.0625
        assert _parse_number(" 2.5 ", "x") == 2.5
        assert _parse_numbers("1/4, 0.5 1", "x") == [0.25, 0.5, 1.0]
        with pytest.raises(ConfigError, match="cannot parse"):
            _parse_number("sixteen", "x")
        with pytest.raises(ConfigError, match="cannot parse"):
            _parse_number("1/0", "x")
        with pytest.raises(ConfigError, match="at least one"):
            _parse_numbers("  ", "x")

    def test_tables(self):
        np.testing.assert_array_equal(
            _parse_table("1 0.2; 0.2 1.5", "x"), [[1.0, 0.2], [0.2, 1.5]]
        )
        with pytest.raises(ConfigError, match="differing lengths"):
            _parse_table("1 2; 3", "x")


class TestRunCommand:
    def test_manufactured_weighted(self, tmp_path, capsys):
        config = write_config(tmp_path, MANUFACTURED_RUN)
        code = main(["run", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "run.csv")
        assert header == ["step", "t", "norm_A", "energy_E", "thm_slack"]
        assert len(rows) == 65
        assert rows[0][0] == "0" and rows[-1][0] == "64"
        assert rows[1][1] == "0.015625"
        # weighted scheme: no energy column values, slack from level 1 on
        assert all(row[3] == "" for row in rows)
        assert rows[0][4] == "" and all(row[4] != "" for row in rows[1:])
        # cells are written with 17 significant digits and parse back exactly
        norm = float(rows[-1][2])
        assert f"{norm:.17g}" == rows[-1][2]
        out = capsys.readouterr().out
        assert "min slack=" in out and "ok" in out

    def test_zero_forcing_norm_decays(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = coupled_diffusion
            p = 2
            m = 9

            [scheme]
            kind = weighted
            sigma = 0.5
            tau = 0.1
            T = 1.0
            """,
        )
        assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
        _, rows = read_csv(tmp_path / "run.csv")
        norms = [float(row[2]) for row in rows]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_three_level_energy_column(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = double_porosity
            p = 2
            m = 9

            [scheme]
            kind = three_level
            sigma = 1.0
            epsilon = 1.0
            tau = 0.1
            T = 1.0
            """,
        )
        assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
        _, rows = read_csv(tmp_path / "run.csv")
        assert len(rows) == 11
        assert rows[0][3] == ""
        assert rows[1][3] != "" and rows[1][4] == ""
        assert all(row[3] != "" and row[4] != "" for row in rows[2:])
        energies = [float(row[3]) for row in rows[1:]]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(energies, energies[1:]))

    def test_one_three_level_step_certifies_nothing(self, tmp_path, capsys):
        # the startup transition has no energy bound, so no slack is reported
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = double_porosity
            p = 2
            m = 9

            [scheme]
            kind = three_level
            sigma = 1.0
            tau = 1.0
            T = 1.0
            """,
        )
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
        assert "min slack=n/a" in capsys.readouterr().out.splitlines()

    def test_step_adjustment_is_logged(self, tmp_path, caplog):
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = manufactured
            p = 2
            m = 5

            [scheme]
            kind = weighted
            sigma = 0.5
            tau = 0.3
            T = 1.0
            """,
        )
        with caplog.at_level(logging.WARNING, logger="splitstep.cli"):
            code = main(["run", "--config", config, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert any("does not divide" in rec.message for rec in caplog.records)
        _, rows = read_csv(tmp_path / "run.csv")
        assert len(rows) == 5
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-15)

    def test_checks_none_disables_slack(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = manufactured
            p = 2
            m = 9

            [scheme]
            kind = weighted
            sigma = 0.5
            tau = 1/64
            T = 1.0

            [output]
            checks = none
            csv = custom.csv
            """,
        )
        code = main(["run", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        assert "min slack=n/a" in capsys.readouterr().out
        _, rows = read_csv(tmp_path / "custom.csv")
        assert all(row[4] == "" for row in rows)

    def test_slack_violation_wiring(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "SLACK_REL_TOL", -1e6)
        config = write_config(tmp_path, MANUFACTURED_RUN)
        code = main(["run", "--config", config, "--out", str(tmp_path)])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        config = write_config(tmp_path, MANUFACTURED_RUN)
        assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_sigma_out_of_range(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            MANUFACTURED_RUN.replace("sigma = 0.5", "sigma = 1.5"),
        )
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
        assert "[0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            (lambda s: s.replace("tau = 1/64", "tau_unset = 1"), "tau"),
            (lambda s: s.replace("kind = weighted", "kind = simplectic"), "unknown"),
            (lambda s: s.replace("kind = manufactured", "kind = mystery"), "unknown"),
            (lambda s: s.replace("[scheme]", "[schema]"), "missing"),
        ],
    )
    def test_config_errors(self, tmp_path, capsys, mutation, fragment):
        config = write_config(tmp_path, mutation(MANUFACTURED_RUN))
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
        assert fragment in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_overflowing_norm_stops_the_run(self, tmp_path, capsys):
        # the guard fires on the first level whose A-norm overflows, before
        # any numpy overflow warning can reach stderr
        config = write_config(tmp_path, DIVERGING_LADDER.replace("taus = 1 1/2", "tau = 1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err == "error: transition 45 -> 46 produced a non-finite level (A-norm inf)\n"

    def test_overflowing_energy_stops_the_run(self, tmp_path, capsys):
        # at eps = 1e200, eps^2 overflows to inf: the infinite energy of level 1
        # stops the run with one error line
        text = STABILITY_THREE_LEVEL.replace("sigmas = 0.5 1.0", "sigma = 1.0").replace("taus = 0.01 0.1", "tau = 0.1")
        config = write_config(tmp_path, text.replace("epsilon = 1.0", "epsilon = 1e200"))
        assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: the estimate energy of level 1 is not finite (inf)\n"

    def test_factorized_estimate_certifies_past_the_assembled_weight(self, tmp_path, capsys):
        # assembled, the factorized W is past 1/eps at this size and step and
        # its band Cholesky met a non-positive pivot; in factored form, solved
        # by CG, the estimate certifies the run
        config = write_config(
            tmp_path,
            MANUFACTURED_RUN.replace("m = 9", "m = 32767")
            .replace("kind = weighted", "kind = factorized")
            .replace("sigma = 0.5", "sigma = 1")
            .replace("tau = 1/64", "tau = 1"),
        )
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
        assert "(ok)" in capsys.readouterr().out


class TestProblemKind:
    # coupled_diffusion and double_porosity share one builder; the kind only
    # states which b table the config is meant to have
    def test_coupled_requires_diagonal_b(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            MANUFACTURED_RUN.replace("kind = manufactured", "kind = coupled_diffusion\n    b = 1 0.2; 0.2 1"),
        )
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
        assert "diagonal b" in capsys.readouterr().err

    def test_porosity_requires_coupled_b(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            MANUFACTURED_RUN.replace("kind = manufactured", "kind = double_porosity\n    b = 1 0; 0 0.5"),
        )
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
        assert "off-diagonal b" in capsys.readouterr().err

    def test_coupled_diffusion_above_n2000(self, tmp_path):
        # N = 2046: certify has no size limit
        config = write_config(
            tmp_path,
            MANUFACTURED_RUN.replace("kind = manufactured", "kind = coupled_diffusion")
            .replace("m = 9", "m = 1023")
            .replace("tau = 1/64", "tau = 1/8"),
        )
        assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
        _, rows = read_csv(tmp_path / "run.csv")
        assert len(rows) == 9 and all(row[4] != "" for row in rows[1:])


CONVERGE_BASE = """\
    [problem]
    kind = manufactured
    p = 2
    m = 9

    [scheme]
    kind = weighted
    sigma = 0.5
    taus = 1/4 1/8 1/16
    T = 1.0
"""


# explicit stepping far past its stability limit: the level from transition
# 45 -> 46 has finite entries but an A-norm that overflows
DIVERGING_LADDER = """\
    [problem]
    kind = manufactured
    p = 2
    m = 31

    [scheme]
    kind = weighted
    sigma = 0
    taus = 1 1/2
    T = 200
"""


class TestConvergeCommand:
    def test_second_order_window(self, tmp_path, capsys):
        config = write_config(tmp_path, CONVERGE_BASE)
        assert main(["converge", "--config", config, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "converge.csv")
        assert header == ["tau", "error_A", "observed_order"]
        assert len(rows) == 3
        assert rows[0][2] == "" and rows[1][2] != ""
        errors = [float(row[1]) for row in rows]
        assert errors[0] > errors[1] > errors[2]
        assert "within" in capsys.readouterr().out

    def test_implicit_weight_first_order_window(self, tmp_path):
        config = write_config(tmp_path, CONVERGE_BASE.replace("sigma = 0.5", "sigma = 1.0"))
        assert main(["converge", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0

    def test_preasymptotic_ladder_fails_honestly(self, tmp_path, capsys):
        # coarse three-level ladder over-converges: observed order far above 1
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = manufactured
            p = 2
            m = 9
            b = 1 0.2; 0.2 1.25

            [scheme]
            kind = three_level
            sigma = 1.0
            taus = 1/2 1/4
            T = 1.0
            """,
        )
        assert main(["converge", "--config", config, "--out", str(tmp_path)]) == 1
        assert "OUTSIDE" in capsys.readouterr().out

    def test_single_tau_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, CONVERGE_BASE.replace("taus = 1/4 1/8 1/16", "taus = 1/4"))
        assert main(["converge", "--config", config, "--out", str(tmp_path)]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_nondivisor_tau_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, CONVERGE_BASE.replace("taus = 1/4 1/8 1/16", "taus = 0.3 0.15"))
        assert main(["converge", "--config", config, "--out", str(tmp_path)]) == 2
        assert "does not divide" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "taus, message",
        [
            # a repeated step gives no order (log 1 = 0) and no gap ratio
            ("1/4 0.25 1/8", "a step size is repeated"),
            ("1/4 0", "tau=0.0 must be positive"),
        ],
    )
    @pytest.mark.parametrize("command", ["converge", "compare"])
    def test_bad_ladder_is_config_error(self, tmp_path, capsys, command, taus, message):
        config = write_config(tmp_path, CONVERGE_BASE.replace("taus = 1/4 1/8 1/16", f"taus = {taus}"))
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: [scheme] taus: {message}\n"

    def test_sub_threshold_sigma_warns_once(self, tmp_path, caplog):
        # one warning per command, not one per step size of the ladder
        text = CONVERGE_BASE.replace("sigma = 0.5", "sigma = 0.25")
        text = text.replace("taus = 1/4 1/8 1/16", "taus = 1/256 1/512 1/1024").replace("T = 1.0", "T = 1/16")
        config = write_config(tmp_path, text)
        with caplog.at_level(logging.WARNING, logger="splitstep"):
            assert main(["converge", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
        warned = [rec for rec in caplog.records if "below the stability threshold" in rec.message]
        assert len(warned) == 1 and "sigma=0.25" in warned[0].message

    def test_zero_errors_leave_the_finest_order_undefined(self, tmp_path, capsys):
        # c = 0 0: the exact solution is 0 and every error exactly 0.0, so no order exists
        config = write_config(tmp_path, CONVERGE_BASE.replace("m = 9", "m = 9\n    c = 0 0"))
        assert main(["converge", "--config", config, "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert "finest order n/a OUTSIDE [1.8, 2.2]" in out.splitlines()
        _, rows = read_csv(tmp_path / "converge.csv")
        assert [(row[1], row[2]) for row in rows] == [("0", "")] * 3

    def test_diverging_ladder_is_one_error_line(self, tmp_path, capsys):
        config = write_config(tmp_path, DIVERGING_LADDER)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["converge", "--config", config, "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: transition 45 -> 46 produced a non-finite level") and err.count("\n") == 1
        assert not (tmp_path / "converge.csv").exists()

    def test_failed_factorization_is_a_run_error(self, tmp_path, monkeypatch, capsys):
        # the ladder is valid, so a factorization that fails inside the
        # study is a run breakdown (exit 1), not a config error
        monkeypatch.setattr(splitstep.schemes, "factor_spd", _failing_factor)
        config = str(SHIPPED_CONFIGS / "converge_weighted.ini")
        assert main(["converge", "--config", config, "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == "error: B + sigma*tau*A: not positive definite, leading minor 7 is not positive\n"


STABILITY_WEIGHTED = """\
    [problem]
    kind = coupled_diffusion
    p = 2
    m = 9

    [scheme]
    kind = weighted
    sigmas = 0 0.25 0.5 1
    taus = 0.01 0.1
    n_steps = 20
    T = 1.0
"""


STABILITY_THREE_LEVEL = """\
    [problem]
    kind = double_porosity
    p = 2
    m = 9

    [scheme]
    kind = three_level
    sigmas = 0.5 1.0
    taus = 0.01 0.1
    n_steps = 20
    epsilon = 1.0
    T = 1.0
"""


class TestStabilityCommand:
    def test_weighted_sweep(self, tmp_path, capsys):
        config = write_config(tmp_path, STABILITY_WEIGHTED)
        assert main(["stability", "--config", config, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "stability.csv")
        assert header == ["sigma", "tau", "scheme", "min_slack", "r_min_eig"]
        assert len(rows) == 8
        for row in rows:
            sigma = float(row[0])
            assert row[2] == "weighted"
            assert row[4] == ""
            if sigma < 0.5:
                assert row[3] == "n/a(hypothesis)"
            else:
                assert float(row[3]) >= -1e-10
        out = capsys.readouterr().out
        assert "status=n/a(hypothesis)" in out and "status=ok" in out

    def test_factorized_sweep(self, tmp_path):
        # the problem of configs/compare_schemes.ini; below sigma = 1/4 the
        # factorized W can be indefinite, and out of hypothesis the CG may stop
        # on its curvature or its budget: those cells are marked, not failed
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = manufactured
            p = 2
            M = 31

            [scheme]
            kind = factorized
            sigmas = 0 0.25 0.5 1
            taus = 1/16 1/64
            n_steps = 20
            T = 1.0
            """,
        )
        assert main(["stability", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
        _, rows = read_csv(tmp_path / "stability.csv")
        assert len(rows) == 8
        problem = manufactured_problem(example_coupled_spec(p=2, m=31)).problem
        scale = weighted_norm(problem.A, problem.v0) ** 2
        for row in rows:
            assert row[2] == "factorized"
            if float(row[0]) < 0.5:
                assert row[3] == "n/a(hypothesis)"
            else:
                assert float(row[3]) >= -1e-10 * scale

    def test_three_level_sweep_reports_diff_weight(self, tmp_path):
        config = write_config(tmp_path, STABILITY_THREE_LEVEL)
        assert main(["stability", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
        _, rows = read_csv(tmp_path / "stability.csv")
        assert len(rows) == 4
        for row in rows:
            assert row[2] == "three_level"
            assert row[4] != ""
            if float(row[0]) >= 1.0:
                assert float(row[4]) > 0.0
                assert float(row[3]) >= -1e-10

    def test_three_level_sweep_at_m16383(self, tmp_path, capsys):
        # the shipped problem at M = 16383: the energy read off the step's own
        # operators certifies every cell, where the assembled R gave a min
        # slack of -1061 at tau = 1; R's margin, read off the same operators,
        # is a positive number in every cell
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = double_porosity
            p = 2
            M = 16383
            b = 1 0.2; 0.2 0.5

            [scheme]
            kind = three_level
            epsilon = 1.0
            sigmas = 1.0
            taus = 0.01 0.1 1.0
            n_steps = 20
            T = 1.0
            """,
        )
        assert main(["stability", "--config", config, "--out", str(tmp_path)]) == 0
        statuses = [line.split()[-1] for line in capsys.readouterr().out.splitlines() if "status=" in line]
        assert statuses == ["status=ok"] * 3
        _, rows = read_csv(tmp_path / "stability.csv")
        assert all(float(row[4]) > 0.0 for row in rows)

    def test_three_level_estimate_built_once_per_cell(self, tmp_path, monkeypatch):
        # the r_min_eig column reads the observer's weights, not a second set
        built = []
        real_assemble = splitstep.verify.EnergyObserver.assemble

        def counting_assemble(self, problem, cfg, workspace):
            built.append((cfg.sigma, cfg.tau))
            real_assemble(self, problem, cfg, workspace)

        monkeypatch.setattr(splitstep.verify.EnergyObserver, "assemble", counting_assemble)
        config = write_config(tmp_path, STABILITY_THREE_LEVEL)
        assert main(["stability", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
        assert sorted(built) == [(0.5, 0.01), (0.5, 0.1), (1.0, 0.01), (1.0, 0.1)]
        _, rows = read_csv(tmp_path / "stability.csv")
        assert all(row[4] != "" for row in rows)

    def test_overflow_fails_or_leaves_r_unresolved(self, tmp_path, capsys):
        # eps^2 (in the energy) and tau^2 (in M = (tau/2) C + (tau^2/4) A) overflow at
        # 1e200: a certified cell whose energy is infinite fails, and a margin whose M
        # is not finite is unresolved.  At eps = 1e200, G = C1 + eps E and M stay
        # finite, G^{-1} M G^{-T} underflows to 0, and the margin is tau/(2 eps)
        config = write_config(tmp_path, STABILITY_THREE_LEVEL.replace("epsilon = 1.0", "epsilon = 1e200"))
        assert main(["stability", "--config", config, "--out", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr().err == ""
        _, rows = read_csv(tmp_path / "stability.csv")
        certified = [row for row in rows if float(row[0]) >= 1.0]
        assert certified and all(row[3] == "" for row in certified)
        assert [float(row[4]) for row in rows] == pytest.approx([float(row[1]) / 2e200 for row in rows], rel=1e-15)
        config = write_config(tmp_path, STABILITY_THREE_LEVEL.replace("taus = 0.01 0.1", "taus = 0.01 1e200"))
        main(["stability", "--config", config, "--out", str(tmp_path), "--quiet"])
        assert capsys.readouterr().err == ""
        _, rows = read_csv(tmp_path / "stability.csv")
        assert [row[4] == "unresolved" for row in rows] == [False, True, False, True]

    def test_unconverged_margin_is_unresolved_and_the_sweep_goes_on(self, tmp_path, monkeypatch, capsys):
        # N = 254 takes the Lanczos branch; an iteration that does not converge
        # leaves its cell unresolved, and neither stops the sweep nor changes the verdict
        config = write_config(tmp_path, STABILITY_THREE_LEVEL.replace("m = 9", "m = 127"))
        code = main(["stability", "--config", config, "--out", str(tmp_path), "--quiet"])
        _, want = read_csv(tmp_path / "stability.csv")
        calls, real_eigsh = [], scipy.sparse.linalg.eigsh

        def second_fails(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) == 2:
                raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", second_fails)
        assert main(["stability", "--config", config, "--out", str(tmp_path), "--quiet"]) == code == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(tmp_path / "stability.csv")
        assert len(calls) == len(rows) == len(want) == 4
        assert [row[:4] for row in rows] == [row[:4] for row in want]
        assert rows[1][4] == "unresolved"
        # the Lanczos start is seeded, so every other cell gives the same digits again
        assert rows[:1] + rows[2:] == want[:1] + want[2:]

    def test_three_level_sweep_needs_two_steps(self, tmp_path, capsys):
        # one step runs only the uncertified startup transition
        config = write_config(tmp_path, STABILITY_THREE_LEVEL.replace("n_steps = 20", "n_steps = 1"))
        assert main(["stability", "--config", config, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n_steps" in err

    def test_sigma_range_validated_up_front(self, tmp_path, capsys):
        config = write_config(tmp_path, STABILITY_WEIGHTED.replace("sigmas = 0 0.25 0.5 1", "sigmas = 0.5 2"))
        assert main(["stability", "--config", config, "--out", str(tmp_path)]) == 2
        assert "[0, 1]" in capsys.readouterr().err

    def test_sweep_logs_no_threshold_warning(self, tmp_path, caplog):
        # sub-threshold cells are marked n/a(hypothesis) in the table instead
        config = write_config(tmp_path, STABILITY_WEIGHTED)
        with caplog.at_level(logging.WARNING, logger="splitstep"):
            assert main(["stability", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
        assert not [rec for rec in caplog.records if "stability threshold" in rec.message]

    def test_failure_wiring(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "SLACK_REL_TOL", -1e6)
        config = write_config(tmp_path, STABILITY_WEIGHTED)
        assert main(["stability", "--config", config, "--out", str(tmp_path), "--quiet"]) == 1


COMPARE_BASE = """\
    [problem]
    kind = manufactured
    p = 2
    m = 9

    [scheme]
    sigma = 1.0
    taus = 1/4 1/8 1/16
    T = 1.0
"""


class TestCompareCommand:
    def test_ratio_window(self, tmp_path, capsys):
        config = write_config(tmp_path, COMPARE_BASE)
        assert main(["compare", "--config", config, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "compare.csv")
        assert header == ["tau", "n_steps", "max_diff_a", "final_diff_a", "ratio"]
        assert len(rows) == 3
        assert rows[0][4] == ""
        assert 3.5 <= float(rows[-1][4]) <= 4.5
        assert "within" in capsys.readouterr().out

    def test_explicit_weight_coincidence(self, tmp_path, capsys):
        # explicit stepping must stay stable for the coincidence check to be
        # meaningful, so the grid is mild and the steps well inside tau*lam < 2
        config = write_config(
            tmp_path,
            COMPARE_BASE.replace("sigma = 1.0", "sigma = 0")
            .replace("m = 9", "m = 5")
            .replace("taus = 1/4 1/8 1/16", "taus = 1/128 1/256"),
        )
        assert main(["compare", "--config", config, "--out", str(tmp_path)]) == 0
        assert "schemes coincide" in capsys.readouterr().out

    def test_coupled_mass_is_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            COMPARE_BASE.replace("kind = manufactured", "kind = double_porosity"),
        )
        assert main(["compare", "--config", config, "--out", str(tmp_path)]) == 2
        assert "three-level" in capsys.readouterr().err

    def test_single_tau_rejected(self, tmp_path):
        config = write_config(tmp_path, COMPARE_BASE.replace("taus = 1/4 1/8 1/16", "taus = 1/4"))
        assert main(["compare", "--config", config, "--out", str(tmp_path), "--quiet"]) == 2

    def test_diverging_ladder_is_one_error_line(self, tmp_path, capsys):
        config = write_config(tmp_path, DIVERGING_LADDER)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["compare", "--config", config, "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: transition 45 -> 46 produced a non-finite level") and err.count("\n") == 1
        assert not (tmp_path / "compare.csv").exists()

    def test_failed_factorization_is_a_run_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(splitstep.schemes, "factor_spd", _failing_factor)
        config = str(SHIPPED_CONFIGS / "compare_schemes.ini")
        assert main(["compare", "--config", config, "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == "error: B + sigma*tau*A: not positive definite, leading minor 7 is not positive\n"


MATRIX_FILES_RUN = """\
    [problem]
    kind = matrix_files
    a_manifest = a.manifest
    b_manifest = b.manifest
    v0_file = v0.txt

    [scheme]
    kind = weighted
    sigma = 0.5
    tau = 0.25
    T = 1.0
"""

STABILITY_RUN = STABILITY_WEIGHTED.replace("sigmas = 0 0.25 0.5 1", "sigmas = 0.5")


@pytest.mark.parametrize(
    "command, text, v0, fragment",
    [
        ("run", MANUFACTURED_RUN.replace("p = 2", "p = 0"), None, ""),
        ("run", MANUFACTURED_RUN.replace("m = 9", "M = 0"), None, ""),
        ("run", MANUFACTURED_RUN.replace("p = 2", "p = two"), None, ""),
        ("run", MANUFACTURED_RUN.replace("tau = 1/64", "tau = nan"), None, ""),
        ("run", MANUFACTURED_RUN.replace("T = 1.0", "T = nan"), None, ""),
        ("stability", STABILITY_RUN.replace("n_steps = 20", "n_steps = ten"), None, ""),
        ("stability", STABILITY_RUN.replace("n_steps = 20", "n_steps = 2.5"), None, ""),
        ("stability", STABILITY_RUN.replace("n_steps = 20", "n_steps = 0"), None, ""),
        ("stability", STABILITY_RUN.replace("taus = 0.01 0.1", "taus = -0.1"), None, ""),
        ("run", MATRIX_FILES_RUN, "1\n2\n", "v0.txt"),
        ("run", MATRIX_FILES_RUN, "1\nnan\n3\n", "v0.txt"),
        ("run", MATRIX_FILES_RUN, "1\nabc\n3\n", "v0.txt"),
        # ValueErrors raised by the builders and the problem itself, not by the config readers
        ("run", MANUFACTURED_RUN.replace("m = 9", "m = 9\n    c = 1 2 3"), None,
         "config error: [problem]: need 2 amplitudes, got 3\n"),
        ("run", MATRIX_FILES_RUN.replace("b.manifest", "b2.manifest"), "1\n2\n3\n",
         "config error: [problem]: B dims (2,) != A dims (3,)\n"),
        ("run", MANUFACTURED_RUN.replace("T = 1.0", "T = 0"), None, "config error: [scheme] T=0.0 must be positive\n"),
        ("run", MANUFACTURED_RUN.replace("tau = 1/64", "tau = -1/64"), None,
         "config error: [scheme] tau=-0.015625 must be positive\n"),
        ("run", MANUFACTURED_RUN + "\n    [output]\n    checks = maybe\n", None,
         "config error: [output] checks='maybe' unknown; expected auto or none\n"),
        # 10**300 steps: past 2**63 - 1, rejected before any integer is made of it
        ("run", MANUFACTURED_RUN.replace("tau = 1/64", "tau = 1e-300"), None,
         "config error: [scheme] the step count T/tau=1e+300 of tau=1e-300 must be finite and at most 2**63 - 1\n"),
        # T/tau overflows to inf, which no integer conversion takes
        ("run", MANUFACTURED_RUN.replace("T = 1.0", "T = 1e308"), None,
         "config error: [scheme] the step count T/tau=inf of tau=0.015625 must be finite and at most 2**63 - 1\n"),
        ("converge", CONVERGE_BASE.replace("T = 1.0", "T = 1e308"), None,
         "config error: [scheme] taus: the step count T/tau=inf of tau=0.25 must be finite and at most 2**63 - 1\n"),
        ("compare", COMPARE_BASE.replace("T = 1.0", "T = 1e308"), None,
         "config error: [scheme] taus: the step count T/tau=inf of tau=0.25 must be finite and at most 2**63 - 1\n"),
        ("converge", CONVERGE_BASE.replace("T = 1.0", "T = 1e20"), None,
         "config error: [scheme] taus: the step count T/tau=4e+20 of tau=0.25 must be finite and at most 2**63 - 1\n"),
    ],
    ids=[
        "p_zero", "m_zero", "p_not_integer", "tau_nan", "T_nan", "n_steps_word", "n_steps_fraction",
        "n_steps_zero", "tau_negative", "v0_wrong_length", "v0_nan", "v0_not_a_number",
        "amplitudes_wrong_count", "b_dims_differ_from_a", "T_zero", "tau_negative_run", "checks_unknown",
        "steps_past_int64", "T_overflow_run", "T_overflow_converge", "T_overflow_compare", "ladder_past_int64",
    ],
)
def test_malformed_config_is_one_config_error_line(tmp_path, capsys, command, text, v0, fragment):
    if v0 is not None:
        rng = np.random.default_rng(55)
        dims = BlockDims((3,))
        write_block_operator(random_spd(rng, dims), str(tmp_path / "a.manifest"))
        write_block_operator(random_block_diag_spd(rng, dims), str(tmp_path / "b.manifest"))
        write_block_operator(random_block_diag_spd(rng, BlockDims((2,))), str(tmp_path / "b2.manifest"))
        (tmp_path / "v0.txt").write_text(v0)
    config = write_config(tmp_path, text)
    assert main([command, "--config", config, "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert fragment in err, err


@pytest.mark.parametrize("command", ["converge", "compare"])
def test_inapplicable_scheme_prints_runs_line(tmp_path, capsys, command):
    # main alone maps SchemeInapplicableError, so every subcommand prints run's line
    def factorized_porosity(text):
        text = text.replace("kind = manufactured", "kind = double_porosity")
        return text.replace("kind = weighted", "kind = factorized")

    run_config = write_config(tmp_path, factorized_porosity(MANUFACTURED_RUN), name="run.ini")
    assert main(["run", "--config", run_config, "--out", str(tmp_path), "--quiet"]) == 2
    want = capsys.readouterr().err
    assert want.startswith("config error: factorized scheme needs a block-diagonal B") and want.count("\n") == 1
    config = write_config(tmp_path, factorized_porosity(CONVERGE_BASE))
    assert main([command, "--config", config, "--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err == want


@pytest.mark.parametrize(
    "command, config, work",
    [
        ("run", "run_manufactured.ini", "run"),
        ("converge", "converge_weighted.ini", "convergence_study"),
        ("stability", "stability_three_level.ini", "run"),
        ("compare", "compare_schemes.ini", "compare_schemes"),
    ],
    ids=["run", "converge", "stability", "compare"],
)
def test_unusable_out_is_a_config_error_before_any_run(tmp_path, monkeypatch, capsys, command, config, work):
    def unreached(*args, **kwargs):
        raise AssertionError(f"{work} called before --out was checked")

    monkeypatch.setattr(cli, work, unreached)
    out = tmp_path / "taken"
    out.write_text("a regular file")
    assert main([command, "--config", str(SHIPPED_CONFIGS / config), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and str(out) in err, err


def test_epsilon_config_reproduces_the_epsilon_table(tmp_path, capsys):
    # epsilon = 0.5 at m = 31, tau = 1/64: the row of the former epsilon table,
    # error and order from converge, r_min_eig and min slack from stability
    text = (SHIPPED_CONFIGS / "epsilon_three_level.ini").read_text()
    assert text.count("\nepsilon = 1\n") == 1
    config = write_config(tmp_path, text.replace("\nepsilon = 1\n", "\nepsilon = 0.5\n"))
    # an order of 0.766 is outside [0.8, 1.2]: exit 1, and the CSV is still written
    assert main(["converge", "--config", config, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "tau=0.015625 error_a=8.336392e-03 order=0.766" in out
    assert "finest order 0.766 OUTSIDE [0.8, 1.2]" in out
    assert len(read_csv(tmp_path / "converge.csv")[1]) == 2
    assert main(["stability", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
    _, rows = read_csv(tmp_path / "stability.csv")
    assert [(row[0], row[1], row[2]) for row in rows] == [("1", "0.03125", "three_level"), ("1", "0.015625", "three_level")]
    min_slack, r_min_eig = (float(cell) for cell in rows[-1][3:])
    assert f"{r_min_eig:.4e} {min_slack:.4e}" == "6.7158e-03 1.6375e+01"


@pytest.mark.parametrize(
    "command, config, header, rows",
    [
        ("run", "run_manufactured.ini", "step,t,norm_A,energy_E,thm_slack", 65),
        ("converge", "converge_weighted.ini", "tau,error_A,observed_order", 5),
        ("stability", "stability_three_level.ini", "sigma,tau,scheme,min_slack,r_min_eig", 9),
        ("compare", "compare_schemes.ini", "tau,n_steps,max_diff_a,final_diff_a,ratio", 3),
    ],
    ids=["run", "converge", "stability", "compare"],
)
def test_shipped_config_runs_under_its_command(tmp_path, command, config, header, rows):
    # the four Quickstart commands of the README
    assert main([command, "--config", str(SHIPPED_CONFIGS / config), "--out", str(tmp_path), "--quiet"]) == 0
    (csv_path,) = tmp_path.glob("*.csv")
    got_header, got_rows = read_csv(csv_path)
    assert ",".join(got_header) == header
    assert len(got_rows) == rows


class TestMatrixFilesProblem:
    def _write_operators(self, tmp_path, rng, dims):
        A = random_spd(rng, dims)
        B = random_block_diag_spd(rng, dims)
        write_block_operator(A, str(tmp_path / "a.manifest"))
        write_block_operator(B, str(tmp_path / "b.manifest"))
        return A, B

    def test_run_from_files(self, tmp_path):
        rng = np.random.default_rng(51)
        dims = BlockDims((3, 2))
        A, _ = self._write_operators(tmp_path, rng, dims)
        write_block_vector(str(tmp_path / "v0.txt"), random_vector(rng, dims))
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = matrix_files
            a_manifest = a.manifest
            b_manifest = b.manifest
            v0_file = v0.txt

            [scheme]
            kind = weighted
            sigma = 0.5
            tau = 0.25
            T = 1.0
            """,
        )
        assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
        _, rows = read_csv(tmp_path / "run.csv")
        assert len(rows) == 5

    def test_default_initial_data_and_constant_forcing(self, tmp_path):
        rng = np.random.default_rng(52)
        dims = BlockDims((2, 2))
        self._write_operators(tmp_path, rng, dims)
        write_block_vector(str(tmp_path / "f.txt"), random_vector(rng, dims))
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = matrix_files
            a_manifest = a.manifest
            b_manifest = b.manifest
            forcing = constant
            f_file = f.txt

            [scheme]
            kind = factorized
            sigma = 0.5
            tau = 0.2
            T = 1.0
            """,
        )
        assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0

    def test_indefinite_operator_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(53)
        dims = BlockDims((2,))
        bad = BlockOperator(dims, {(0, 0): np.diag([1.0, -1.0])})
        write_block_operator(bad, str(tmp_path / "a.manifest"))
        write_block_operator(
            BlockOperator.identity(dims), str(tmp_path / "b.manifest")
        )
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = matrix_files
            a_manifest = a.manifest
            b_manifest = b.manifest

            [scheme]
            kind = weighted
            sigma = 0.5
            tau = 0.25
            T = 1.0
            """,
        )
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "[problem] operator A from manifest: not positive definite, leading minor 2 " in err

    def test_missing_manifest_file(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = matrix_files
            a_manifest = missing.manifest
            b_manifest = missing.manifest

            [scheme]
            kind = weighted
            sigma = 0.5
            tau = 0.25
            T = 1.0
            """,
        )
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_forcing(self, tmp_path, capsys):
        rng = np.random.default_rng(54)
        dims = BlockDims((2,))
        self._write_operators(tmp_path, rng, dims)
        config = write_config(
            tmp_path,
            """\
            [problem]
            kind = matrix_files
            a_manifest = a.manifest
            b_manifest = b.manifest
            forcing = sinusoid

            [scheme]
            kind = weighted
            sigma = 0.5
            tau = 0.25
            T = 1.0
            """,
        )
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
        assert "forcing" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    # the console script and ``python -m splitstep`` must reach the same main
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["splitstep"] == "splitstep.cli:main"

    # run the package this test imported, installed or not
    package_root = str(Path(splitstep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    config = write_config(tmp_path, MANUFACTURED_RUN)
    result = subprocess.run(
        [sys.executable, "-m", "splitstep", "run", "--config", config, "--out", str(tmp_path), "--quiet"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "run.csv").exists()


def test_shipped_commands_import_no_sparse_solvers(tmp_path):
    # scipy.sparse.linalg (about 0.26 s to import) and scipy.sparse.csgraph are
    # imported only by orders from SPARSE_MIN_ORDER up; none of the shipped configs has one
    package_root = str(Path(splitstep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    commands = [
        [command, "--config", str(SHIPPED_CONFIGS / config), "--out", str(tmp_path), "--quiet"]
        for command, config in [
            ("run", "run_manufactured.ini"),
            ("converge", "converge_weighted.ini"),
            ("stability", "stability_three_level.ini"),
            ("compare", "compare_schemes.ini"),
        ]
    ]
    script = dedent(
        f"""\
        import sys
        from splitstep.cli import main
        for argv in {commands!r}:
            assert main(argv) == 0, argv
        print(sorted(name for name in ("scipy.sparse.linalg", "scipy.sparse.csgraph") if name in sys.modules))
        """
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_spaced_table_row_separator_is_not_a_comment(tmp_path):
    # " ;" once started an inline comment, so the second row of b was lost and
    # the spaced table failed as "b must be 2x2, got shape (1, 2)"
    shipped = SHIPPED_CONFIGS / "stability_three_level.ini"
    text = shipped.read_text(encoding="utf-8")
    assert "b = 1 0.2; 0.2 0.5" in text
    spaced = tmp_path / "spaced.ini"
    spaced.write_text(text.replace("b = 1 0.2; 0.2 0.5", "b = 1 0.2 ; 0.2 0.5"), encoding="utf-8")
    want = cli.build_problem(cli._load_ini(str(shipped)), str(shipped.parent))
    got = cli.build_problem(cli._load_ini(str(spaced)), str(tmp_path))
    for name in ("A", "B"):
        np.testing.assert_array_equal(getattr(got, name).to_dense(), getattr(want, name).to_dense())
    np.testing.assert_array_equal(got.v0.to_flat(), want.v0.to_flat())
