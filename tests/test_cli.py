import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgrg
from sgrg.cli import (
    EXIT_CHECK_FAILED, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, build_parser, main, parse_torus,
)
from sgrg.flow import z_derivative_check, z_invariance_check


def run_cli(args):
    return main(args)


@pytest.fixture(scope="module")
def uv_flow_dir(tmp_path_factory):
    """The files of one small UV flow: trajectory CSV and JSON, manifest."""
    out = tmp_path_factory.mktemp("uv_flow")
    assert main(["flow-uv", "--beta", "12.0", "--L", "2", "--N", "2", "--zeta", "0.01",
                 "--out", str(out)]) == EXIT_OK
    return out


def exit_code(args):
    """The code main returns, or the one argparse exits with."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestParsing:
    def test_torus_text(self):
        t = parse_torus("3x3")
        assert t.side == 3
        t4 = parse_torus("4x4")
        assert t4.side == 4 and t4.L == 2

    def test_bad_torus(self):
        with pytest.raises(ValueError):
            parse_torus("3x4")

    def test_missing_seed_on_oracle_names_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["oracle"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--seed" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 10.0, "bogus_key": 1}))
        code = run_cli(["covariance", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, size", [("ir", "--M"), ("uv", "--N")], ids=["ir", "uv"])
    def test_flow_options_are_pinned(self, mode, size):
        # a new flow flag shows up in this set, as a new knob does in KNOBS_MAX
        flow = build_parser()._subparsers_action.choices[f"flow-{mode}"]
        options = {o for a in flow._actions for o in a.option_strings}
        assert options == {"-h", "--help", "--config", "--beta", "--zeta", "--L", size,
                           "--steps", "--out"}

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 0.05, "L": 2, "M": 3}))
        code = run_cli([
            "covariance", "--config", str(cfg), "--kind", "continuum",
            "--sigma", "0.1", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "sigma=0.1" in out


    @pytest.mark.parametrize("config, flags", [
        ({"L": 2.5}, ["--L", "2.5"]),
        ({"grid": 2.5}, ["--grid", "2.5"]),
    ], ids=["L", "grid"])
    def test_config_value_is_typed_as_its_flag(self, tmp_path, capsys, config, flags):
        # a file value passes its flag's own type check, so a float for an
        # int option exits 2 with the flag's message, before any output
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert exit_code(["covariance", *flags, "--out", str(out)]) == EXIT_USAGE
        want = capsys.readouterr().err
        assert exit_code(["covariance", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == want
        assert "invalid int value: '2.5'" in want
        assert not out.exists()

    def test_null_config_value_fails_before_any_output(self, tmp_path, monkeypatch, capsys):
        # null is no flag value; passed on as the text None, {"out": null}
        # would name an output folder None
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SGRG_OUTDIR", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 2, "out": None}))
        assert exit_code(["covariance", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err == "configuration error: config key 'out' is null\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_config_file_satisfies_a_required_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 7, "steps": 1}))
        out = tmp_path / "out"
        code = run_cli(["flow-ir", "--beta", repr(12 * math.pi), "--zeta", "1e-3", "--L", "8",
                        "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        config = json.loads((out / "flow_ir_trajectory.json").read_text())["config"]
        assert (config["M"], config["steps"]) == (7, 1)

    def test_flag_overrides_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "continuum", "L": 3, "x": [0.5, -1.0]}))
        for flags, want in [([], [0.5, -1.0]), (["--x", "0.25", "0"], [0.25, 0.0])]:
            out = tmp_path / f"out{len(flags)}"
            code = run_cli(["covariance", "--config", str(cfg), *flags, "--out", str(out)])
            assert code == EXIT_OK
            config = json.loads((out / "covariance_manifest.json").read_text())["config"]
            assert (config["kind"], config["L"], config["x"]) == ("continuum", 3, want)


class TestCovariance:
    def test_continuum_value_and_manifest(self, tmp_path, capsys):
        code = run_cli([
            "covariance", "--kind", "continuum", "--L", "2", "--sigma", "0",
            "--x", "0", "0", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "closed form" in out
        # printed agreement within 1e-6 of log 2 / (2 pi)
        value = float(out.split("value=")[1].split()[0])
        assert abs(value - math.log(2) / (2 * math.pi)) < 1e-6
        manifest = json.loads((tmp_path / "covariance_manifest.json").read_text())
        assert manifest["command"] == "covariance"
        assert (tmp_path / "covariance.csv").exists()

    def test_torus_value_near_closed_form(self, tmp_path, capsys):
        code = run_cli([
            "covariance", "--kind", "slice", "--L", "2", "--M", "4",
            "--sigma", "0", "--x", "0", "0", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK


class TestIdentities:
    def test_identities_pass(self, tmp_path, capsys):
        code = run_cli([
            "identities", "--seed", "42", "--torus", "3x3", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("PASS") >= 6
        manifest = json.loads((tmp_path / "identities_manifest.json").read_text())
        assert len(manifest["report"]) >= 6

    def test_side_two_is_a_usage_error(self, tmp_path, capsys):
        # the extraction suite's activities sit on blocks outside a side-2 torus
        out = tmp_path / "out"
        code = run_cli(["identities", "--seed", "1", "--torus", "2x2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "side 2" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestFlows:
    def test_uv_flow_row_count_and_determinism(self, tmp_path, capsys):
        args = [
            "flow-uv", "--beta", "12.566", "--L", "2", "--N", "3",
            "--zeta", "0.01", "--out", str(tmp_path),
        ]
        assert run_cli(args) == EXIT_OK
        first = (tmp_path / "flow_uv_trajectory.csv").read_bytes()
        assert run_cli(args) == EXIT_OK
        second = (tmp_path / "flow_uv_trajectory.csv").read_bytes()
        assert first == second  # the flow is deterministic: identical bytes
        rows = first.decode().strip().splitlines()
        assert len(rows) == 1 + 4  # header + N+1 states

    def test_overridden_hypotheses_are_reported(self, tmp_path, capsys):
        code = run_cli([
            "flow-uv", "--beta", "12.566", "--L", "2", "--N", "1", "--steps", "1",
            "--zeta", "0.01", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK  # overridden, so the run still passes
        err = capsys.readouterr().err
        assert "warning: step -1: hypotheses failed (overridden): h1_norm_small" in err
        manifest = json.loads((tmp_path / "flow_uv_manifest.json").read_text())
        assert manifest["hypothesis_overrides"] == {"h1_norm_small": 1}

    @pytest.mark.parametrize("args", [
        ["flow-uv", "--beta", "12.566", "--L", "2", "--N", "1", "--steps", "1",
         "--zeta", "0.01"],
        ["flow-ir", "--beta", "37.699", "--L", "2", "--M", "2", "--steps", "1",
         "--zeta", "1e-3"],
    ], ids=["uv", "ir"])
    def test_hypothesis_margin_sign_matches_ok(self, tmp_path, capsys, args):
        assert run_cli([*args, "--out", str(tmp_path)]) == EXIT_OK
        (path,) = tmp_path.glob("flow_*_trajectory.json")
        checks = json.loads(path.read_text())["diagnostics"][0]["hypotheses"]
        names = [name for name in checks if name != "failed"]
        assert len(names) == 4
        for name in names:
            assert (checks[name]["margin"] >= 0) == checks[name]["ok"], name
        err = capsys.readouterr().err
        for name in checks["failed"]:
            assert f"{name} (margin {checks[name]['margin']:.3f})" in err

    def test_ir_step_reads_the_torus_only_through_the_volume(self, tmp_path, capsys):
        # one step on the tori of side 512 and 4096 writes the same trajectory
        # but for the energy, dE times the volume, and the configured M
        texts = []
        for M in (3, 4):
            out = tmp_path / f"M{M}"
            assert run_cli(["flow-ir", "--beta", str(12 * math.pi), "--zeta", "1e-3", "--L", "8",
                            "--M", str(M), "--steps", "1", "--out", str(out)]) == EXIT_OK
            payload = json.loads((out / "flow_ir_trajectory.json").read_text())
            assert payload["config"].pop("M") == M
            energies = [row.pop("energy") for row in payload["rows"]]
            assert energies[0] == 0.0 and energies[1] != 0.0
            texts.append(json.dumps(payload, sort_keys=True))
        assert texts[0] == texts[1]

    def test_plotdata_zeta_schedule(self, tmp_path, capsys):
        run_cli([
            "flow-uv", "--beta", str(4 * math.pi), "--L", "2", "--N", "3",
            "--zeta", "0.01", "--out", str(tmp_path),
        ])
        code = run_cli([
            "plotdata", "--trajectory", str(tmp_path / "flow_uv_trajectory.json"),
            "--kind", "zeta-schedule", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        lines = (tmp_path / "plot_zeta-schedule.csv").read_text().strip().splitlines()
        assert lines[0].startswith("j,")
        assert len(lines) == 1 + 4

    def test_plotdata_unknown_kind(self, tmp_path, capsys):
        run_cli([
            "flow-uv", "--beta", "12.0", "--L", "2", "--N", "2",
            "--zeta", "0.01", "--out", str(tmp_path),
        ])
        code = run_cli([
            "plotdata", "--trajectory", str(tmp_path / "flow_uv_trajectory.json"),
            "--kind", "nonsense", "--out", str(tmp_path),
        ])
        assert code == EXIT_USAGE
        assert "contraction" in capsys.readouterr().err

    def test_plotdata_missing_trajectory(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        out = tmp_path / "out"
        code = run_cli(["plotdata", "--trajectory", str(missing), "--kind", "contraction",
                        "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"cannot read --trajectory {missing}: No such file or directory\n"
        assert not out.exists()

    @staticmethod
    def edited_trajectory(uv_flow_dir, tmp_path, edit):
        """The UV trajectory JSON with ``edit`` applied to its payload."""
        payload = json.loads((uv_flow_dir / "flow_uv_trajectory.json").read_text())
        edit(payload)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("stem, edit, kind, message", [
        ("flow_uv_manifest.json", None, "contraction",
         "cannot read --trajectory {path}: not a flow trajectory JSON\n"),
        ("flow_uv_trajectory.csv", None, "contraction",
         "cannot read --trajectory {path}: not a flow trajectory JSON\n"),
        ("flow_uv_trajectory.json", None, "bogus",
         "unknown plot kind 'bogus'; choose from ('contraction', 'zeta-schedule')\n"),
        (None, lambda p: p.update(rows=[]), "contraction",
         "cannot read --trajectory {path}: not a flow trajectory JSON\n"),
        (None, lambda p: p.update(rows=[{}]), "contraction",
         "cannot read --trajectory {path}: not a flow trajectory JSON\n"),
        (None, lambda p: p["config"].update(mode="ir"), "zeta-schedule",
         "zeta-schedule plots need a UV trajectory\n"),
    ], ids=["manifest", "csv", "unknown_kind", "rows_empty", "row_without_log_norm",
            "ir_zeta_schedule"])
    def test_plotdata_bad_input_writes_nothing(self, uv_flow_dir, tmp_path, capsys,
                                               stem, edit, kind, message):
        # each fails with one line and exit 2 before --out is made
        if edit is None:
            path = uv_flow_dir / stem
        else:
            path = self.edited_trajectory(uv_flow_dir, tmp_path, edit)
        out = tmp_path / "out"
        code = run_cli(["plotdata", "--trajectory", str(path), "--kind", kind,
                        "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == message.format(path=path)
        assert not out.exists()


class TestBadInputs:
    UV = ["flow-uv", "--beta", "12.566", "--L", "2", "--N", "1", "--zeta", "0.01"]
    IR = ["flow-ir", "--beta", "37.699", "--L", "2", "--zeta", "1e-3"]

    # the norm weights, charge cap and quadrature are fixed: their old
    # flags are unknown, and --h does not pass for a prefix of --help
    @pytest.mark.parametrize("args, message", [
        (UV + ["--n-q", "1"], "unrecognized arguments: --n-q 1"),
        (UV + ["--kappa", "1e-3"], "unrecognized arguments: --kappa 1e-3"),
        (UV + ["--q-max", "3"], "unrecognized arguments: --q-max 3"),
        (UV + ["--h", "1.0"], "unrecognized arguments: --h 1.0"),
        (IR + ["--M", "2", "--h-mode", "fixed"], "unrecognized arguments: --h-mode fixed"),
        (UV + ["--steps", "0"], "invalid configuration: steps must be"),
        (IR + ["--M", "0"], "invalid configuration: steps must be"),
        (["covariance", "--kind", "cutoff", "--sigma", "0.05"],
         "invalid configuration: sigma must be"),
        (UV + ["--zeta", "0"], "invalid configuration: UV flow needs zeta != 0"),
        (UV + ["--beta", "0"], "invalid configuration: beta must be > 0, got 0.0"),
        (IR + ["--M", "2", "--beta=-37.699"], "invalid configuration: beta must be > 0"),
        # nan passes every comparison the configurations make, and inf the
        # sign tests: each numeric flag is checked as it is parsed
        (IR + ["--M", "2", "--zeta", "nan"], "argument --zeta: must be a finite number, got 'nan'"),
        (IR + ["--M", "2", "--beta", "nan"], "argument --beta: must be a finite number, got 'nan'"),
        (IR + ["--M", "2", "--beta", "inf"], "argument --beta: must be a finite number, got 'inf'"),
        (UV + ["--zeta", "inf"], "argument --zeta: must be a finite number, got 'inf'"),
        (["covariance", "--sigma", "nan"], "argument --sigma: must be a finite number"),
        (["covariance", "--x", "nan", "0"], "argument --x: must be a finite number, got 'nan'"),
        (["covariance", "--alpha-max", "-1"], "argument --alpha-max: must be >= 0, got '-1'"),
        (["covariance", "--grid", "-1"], "argument --grid: must be >= 0, got '-1'"),
        (["oracle", "--seed", "3", "--zeta", "nan"], "argument --zeta: must be a finite number"),
        (["oracle", "--seed", "-3"], "argument --seed: must be >= 0, got '-3'"),
        (["oracle", "--seed", "3", "--n-g", "-1"], "argument --n-g: must be >= 0, got '-1'"),
        (["oracle", "--seed", "3", "--samples", "4", "--beta", "-1"],
         "invalid configuration: a covariance scale must be >= 0, got -1.0"),
        # finite, but the Mayer start's norm is NaN: the flow stops before its first step
        (UV + ["--beta", "12", "--zeta", "1e300"],
         "invalid configuration: --zeta 1e+300: the initial activity's log norm is nan"),
    ], ids=["n_q", "kappa", "q_max", "h", "h_mode", "steps", "M", "cutoff_sigma", "uv_zeta",
            "uv_beta", "ir_beta", "ir_zeta_nan", "ir_beta_nan", "ir_beta_inf", "uv_zeta_inf",
            "sigma_nan", "x_nan", "alpha_max", "grid", "oracle_zeta_nan", "oracle_seed",
            "oracle_n_g", "oracle_beta", "uv_zeta_huge"])
    def test_bad_flow_input_fails_before_any_work(self, tmp_path, capsys, args, message):
        assert exit_code([*args, "--out", str(tmp_path)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_removed_config_key_fails_before_any_work(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappa": 0.001}))
        out = tmp_path / "out"
        code = run_cli([*self.UV, "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert "unknown config keys: kappa" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_needs_two_samples(self, tmp_path, capsys):
        code = run_cli(["oracle", "--samples", "1", "--seed", "3", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "invalid configuration" in capsys.readouterr().err
        assert not list(tmp_path.glob("oracle_*"))

    # a derivative order above the kernel's certified one, and a torus too
    # large for a direct mode sum: a one-line report and exit 3
    @pytest.mark.parametrize("args", [
        ["covariance", "--alpha-max", "15"],
        ["covariance", "--kind", "full", "--L", "2", "--M", "9"],
        ["covariance", "--kind", "cutoff", "--L", "2", "--M", "9"],
    ], ids=["alpha_max", "full_side", "cutoff_side"])
    def test_resource_cap_exits_3(self, tmp_path, args):
        env = {**os.environ, "PYTHONPATH": str(Path(sgrg.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "sgrg.cli", *args, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stderr.startswith("resource cap:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("check", [
        lambda n: z_invariance_check(beta=10.0, zeta=0.05, L=2, M=1, n_samples=n, seed=11,
                                     n_g=8),
        lambda n: z_derivative_check(beta=10.0, L=2, M=1, n_samples=n, seed=3, n_g=8),
    ], ids=["invariance", "derivative"])
    def test_oracle_checks_need_two_samples(self, check):
        with pytest.raises(ValueError, match="n_samples >= 2"):
            check(1)


class TestOracleSampleCaps:
    """The invariance check caps its samples; the cap is stated and reported."""

    def test_help_states_the_caps(self):
        from sgrg import flow

        oracle = build_parser()._subparsers_action.choices["oracle"]
        (samples,) = [a for a in oracle._actions if "--samples" in a.option_strings]
        assert (f"at most {flow.Z0_SAMPLE_CAP} for Z(j) and {flow.Z1_SAMPLE_CAP} for Z(j+1)"
                in samples.help)

    def test_capped_run_says_so_once(self, tmp_path, capsys, monkeypatch):
        from sgrg import flow

        monkeypatch.setattr(flow, "Z0_SAMPLE_CAP", 6)
        monkeypatch.setattr(flow, "Z1_SAMPLE_CAP", 4)
        assert run_cli(["oracle", "--samples", "10", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert err == ["note: the invariance check caps --samples 10: Z(j) used 6 and "
                       "Z(j+1) 4 samples; dZ/dzeta uses all 10"]
        inv = json.loads((tmp_path / "oracle_manifest.json").read_text())["invariance"]
        assert (inv["z0"]["n_samples"], inv["z1"]["n_samples"]) == (6, 4)

    def test_uncapped_run_is_silent(self, tmp_path, capsys, monkeypatch):
        from sgrg import flow

        monkeypatch.setattr(flow, "Z0_SAMPLE_CAP", 6)
        monkeypatch.setattr(flow, "Z1_SAMPLE_CAP", 4)
        assert run_cli(["oracle", "--samples", "4", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().err == ""


class TestOracleDerivativePull:
    """The oracle prints, and decides with, the pull that z_derivative_check
    returns and the manifest records."""

    @staticmethod
    def printed_pull(out: str) -> str:
        (line,) = [l for l in out.splitlines() if l.startswith("dZ/dzeta:")]
        return line.rsplit("pull=", 1)[1]

    def test_printed_pull_is_the_manifests(self, tmp_path, capsys):
        assert run_cli(["oracle", "--samples", "8", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
        der = json.loads((tmp_path / "oracle_manifest.json").read_text())["derivative"]
        assert self.printed_pull(capsys.readouterr().out) == f"{der['pull']:.2f}"

    def test_stderr_below_the_old_floor(self, tmp_path, capsys, monkeypatch):
        # a standard error under 1e-9 once met a second floor in the command
        from sgrg import flow

        monkeypatch.setattr(flow, "z_derivative_check", lambda **kw: {
            "mc": 4.0 + 2e-11, "stderr": 1e-11, "expected": 4.0, "pull": 2.0})
        assert run_cli(["oracle", "--samples", "8", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
        der = json.loads((tmp_path / "oracle_manifest.json").read_text())["derivative"]
        assert der["pull"] == 2.0
        assert self.printed_pull(capsys.readouterr().out) == "2.00"


class TestThreadIndependence:
    """The output files do not depend on the BLAS thread count: the
    covariance mode sum adds in numpy's order, not in a BLAS product's."""

    CASES = {
        "identities": ["identities", "--torus", "3x3", "--seed", "3"],
        "oracle": ["oracle", "--samples", "20", "--seed", "3"],
        "covariance": ["covariance", "--kind", "continuum"],
        # N = 8 starts on the side-256 torus: most of its mode sums run over 67,572 modes
        "flow_uv": ["flow-uv", "--beta", repr(4 * math.pi), "--zeta", "1e-2", "--L", "2",
                    "--N", "8", "--steps", "1"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_manifest_bytes_at_one_and_two_threads(self, tmp_path, name):
        src = str(Path(sgrg.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "sgrg.cli", *self.CASES[name], "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
            (manifest,) = out.glob("*_manifest.json")
            assert json.loads(manifest.read_text())["config"]["out"] == str(out)
            outputs.append({path.name: path.read_text().replace(json.dumps(str(out)), '"OUT"')
                            for path in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]


class TestBench:
    def test_bench_is_usage_error(self, capsys):
        # the numba-vs-numpy timer is gone; perfbench/run.py is the benchmark
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--M", "2", "--points", "16", "--repeat", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'bench'" in capsys.readouterr().err
