import dataclasses
import math
import os
from pathlib import Path

import pytest

from ris_cvqkd import cli
from ris_cvqkd.cli import emit_csv, main
from ris_cvqkd.config import default_scenario
from ris_cvqkd.experiments import (SweepResult, SweepSpec, SweepVariable,
                                   run_sweep)
from ris_cvqkd.oracle import CheckResult

DATA = Path(__file__).parent / "data"


def test_skr_command_runs(capsys):
    assert main(["skr", "--set", "d_ab=5"]) == 0
    out = capsys.readouterr().out
    assert "case d" in out and "case g" in out and "case f" in out
    assert "branches: 1" in out


def test_skr_command_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("distance_alice_bob_m = 5.0\ntx_antennas = 16\n")
    assert main(["skr", "--config", str(cfg), "--cases", "d"]) == 0
    out = capsys.readouterr().out
    assert "case d" in out and "case g" not in out


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    args = ["sweep", "--variable", "distance", "--grid", "5:20:3",
            "--output", None]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args[-1] = str(first)
    assert main(args) == 0
    args[-1] = str(second)
    assert main(args) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_matches_golden_fixture(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--variable", "distance", "--grid", "5:20:3",
                 "--output", str(out)]) == 0
    golden = (DATA / "golden_sweep.csv").read_bytes()
    assert out.read_bytes() == golden


@pytest.mark.parametrize("fixture, argv", [
    ("stdout_optimize_phase.txt", ["optimize-phase", "--set", "d_ab=50", "--cases", "d,g,f"]),
    ("stdout_max_distance.txt", ["max-distance", "--cases", "d,g,f"]),
    ("stdout_max_distance_eve2.txt",
     ["max-distance", "--cases", "d,g,f", "--set", "eve_variance_snu=2"]),
    ("stdout_phase_sweep.txt", ["sweep", "--variable", "phase", "--grid", "0:6:50"]),
    ("stdout_max_distance_grid.txt",
     ["max-distance", "--cases", "d,g,f", "--grid", "1e12:2e13:5"]),
])
def test_stdout_matches_fixture(fixture, argv, capsysbinary):
    # the searches and the phase sweep print every digit they compute
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == (DATA / fixture).read_bytes()


def test_overflowing_path_loss_is_a_quiet_error_row(capsys):
    # at 1e-157 m the path loss overflows to infinity, and at 1e-300 m its
    # spreading term overflows Python's ** already: each row says so, and no
    # numpy warning or errno tuple reaches the output
    for start in ("1e-157", "1e-300"):
        assert main(["sweep", "--variable", "distance", "--grid", f"{start}:1:3"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == f"{start}: error: h_d contains non-finite entries"
        assert len(out.splitlines()) == 3 and err == ""


@pytest.mark.parametrize("override", ["t_e=1e200", "v_s=1e160", "v_e=1e300"])
def test_extreme_noise_is_a_numeric_error(override, capsys):
    assert main(["skr", "--set", override]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric error: overflow encountered")


def test_emit_csv_header_only_for_empty_result():
    result = SweepResult(variable=SweepVariable.DISTANCE_AB,
                         cases=(cli.AncillaCase.DIRECT,), rows=(),
                         scenario_digest="0" * 16)
    path = "/tmp/ris_cvqkd_empty_test.csv"
    emit_csv(result, path)
    text = open(path).read()
    assert text == "distance,skr_d,holevo_d,warnings\n"
    os.unlink(path)


def test_emit_csv_single_row_has_two_lines(tmp_path):
    spec = SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=(10.0,),
                     base=default_scenario())
    path = tmp_path / "one.csv"
    emit_csv(run_sweep(spec), str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("distance,")


def test_emit_csv_marks_row_errors(tmp_path):
    spec = SweepSpec(variable=SweepVariable.RIS_ELEMENTS, grid=(100.0, 150.0),
                     base=default_scenario())
    path = tmp_path / "err.csv"
    emit_csv(run_sweep(spec), str(path))
    lines = path.read_text().splitlines()
    assert "error:" in lines[2]


def test_sweep_counts_clamps_once_per_row(tmp_path):
    # at 1-2 mm all three transmissivities clamp; every case carries the
    # same three clamps, and the cell adds each case's negativity count
    out = tmp_path / "clamped.csv"
    assert main(["sweep", "--variable", "distance", "--grid", "0.001:0.002:2",
                 "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["3", "3"]
    spec = SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=(0.001,),
                     base=default_scenario())
    reports = run_sweep(spec).rows[0].reports.values()
    assert [r.warnings.beta_clamped for r in reports] == [3, 3, 3]
    assert sum(r.warnings.eigen_negativity for r in reports) == 0


def test_readme_ris_elements_example_has_no_error_rows(tmp_path):
    out = tmp_path / "k.csv"
    assert main(["sweep", "--variable", "ris-elements", "--grid", "196:1156:3",
                 "--cases", "f", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["196", "676", "1156"]
    assert not any("error:" in line for line in lines)


def test_usage_error_exit_code(capsys):
    sweep = ["sweep", "--variable", "distance", "--grid"]
    for argv, message in [
        (sweep + ["bad"], "grid must be start:stop:count"),
        (sweep + ["a:b:3"], "cannot parse grid 'a:b:3'"),
        (sweep + ["1:2:0"], "grid count must be >= 1"),
        (["sweep", "--variable", "nope", "--grid", "1:2:2"], "invalid choice: 'nope'"),
        (["skr", "--cases", "z"], "unknown case 'z'"),
        (["skr", "--cases", "d,d"], "case 'd' given twice"),
        (["skr", "--cases", ","], "at least one case required"),
        (sweep + ["1:2:2", "--cases", "d,f,d"], "case 'd' given twice"),
        (["skr", "--set", "unknown_key=3"], "unknown key 'unknown_key'"),
        (["optimize-phase", "--resolution", "0"], "resolution must be > 0"),
        (["optimize-phase", "--resolution", "nan"], "resolution must be > 0"),
    ]:
        assert main(argv) == 1, argv
        assert message in capsys.readouterr().err, argv
    # a grid of one point is the start alone
    assert main(sweep + ["5:9:1", "--cases", "d"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("5: d=")


def test_infinite_carrier_rejected_by_name(capsys):
    assert main(["skr", "--set", "f_c=inf"]) == 1
    assert "carrier_frequency_hz must be finite" in capsys.readouterr().err
    with pytest.raises(ValueError, match="carrier_frequency must be finite"):
        dataclasses.replace(default_scenario(), carrier_frequency=math.inf)


def test_negative_path_count_rejected_by_name(capsys):
    assert main(["skr", "--set", "extra_paths_d=-1"]) == 1
    assert "extra_paths_d must be >= 0" in capsys.readouterr().err


def test_negative_roughness_rejected_by_name(capsys):
    assert main(["skr", "--set", "roughness=-1"]) == 1
    assert "roughness must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-500", "inf", "nan"])
def test_bad_absorption_rejected_by_name(capsys, value):
    # a negative absorption would turn the path-loss term into a gain
    assert main(["skr", "--set", f"absorption_db_per_km={value}"]) == 1
    assert "absorption_db_per_km must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["antenna_spacing_wavelengths",
                                 "ris_spacing_x_wavelengths",
                                 "ris_spacing_y_wavelengths",
                                 "extra_path_excess_length"])
def test_infinite_length_rejected_by_name(capsys, key):
    # with scattered paths every key reaches the channel build
    assert main(["skr", "--set", "extra_paths_g=2", "--set", f"{key}=inf"]) == 1
    assert f"{key} must be finite and > 0" in capsys.readouterr().err


def test_io_error_exit_code(capsys):
    code = main(["sweep", "--variable", "distance", "--grid", "5:10:2",
                 "--output", "/nonexistent-dir/x.csv"])
    assert code == 3


def test_numeric_error_exit_code(monkeypatch, capsys):
    failed = [CheckResult(name="eigs_unconditional[d]", max_deviation=1.0,
                          tolerance=1e-8, passed=False, draws=5)]
    monkeypatch.setattr(cli.oracle, "run_verification",
                        lambda draws, seed=42: failed)
    assert main(["verify", "--draws", "5"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_zero_draws(capsys):
    assert main(["verify", "--draws", "0"]) == 0
    assert "no checks run" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--draws", "-5"], "error: draws must be >= 0, got -5"),
    (["--seed", "-1"], "usage error: --seed must be >= 0, got -1"),
], ids=["draws", "seed"])
def test_verify_rejects_negative_draws_and_seeds(flags, message, capsys):
    assert main(["verify", *flags]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


def test_verify_small_run(capsys):
    assert main(["verify", "--draws", "25", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "max deviation" in out
    assert "ok" in out


def test_optimize_phase_command(capsys):
    assert main(["optimize-phase", "--set", "d_ab=5", "--cases", "d",
                 "--resolution", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "phi*" in out and "deg" in out


def test_max_distance_command(capsys):
    assert main(["max-distance", "--cases", "d", "--d-max", "40",
                 "--tolerance", "0.5"]) == 0
    assert "max secure distance" in capsys.readouterr().out


def test_max_distance_frequency_table(tmp_path):
    out = tmp_path / "dist.csv"
    assert main(["max-distance", "--cases", "d", "--d-max", "30",
                 "--tolerance", "1.0", "--grid", "1e13:2e13:2",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frequency_hz,max_distance_m_d"
    assert len(lines) == 3


def test_max_distance_output_without_grid_writes_one_row(tmp_path, capsys):
    # the one-row table sits at the scenario's own carrier frequency
    argv = ["max-distance", "--cases", "d,f", "--d-max", "40", "--tolerance", "0.5"]
    assert main(argv) == 0
    printed = [line.split(" = ")[1].removesuffix(" m")
               for line in capsys.readouterr().out.splitlines()]
    out = tmp_path / "reach.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 1 rows to {out}\n"
    assert out.read_text().splitlines() == [
        "frequency_hz,max_distance_m_d,max_distance_m_f", ",".join(["1e+13", *printed])]


FAILING_BASES = {  # override: (exit code and stderr label of the search, the error)
    "d_ab=1e308": (cli.EXIT_USAGE, "error", "path phase overflows at delay 3.33564e+299 s"),
    "v_e=1e300": (cli.EXIT_NUMERIC, "numeric error", "overflow encountered in float_power"),
}


@pytest.mark.parametrize("override", sorted(FAILING_BASES))
def test_phase_drivers_report_a_failing_base(override, capsys):
    code, label, error = FAILING_BASES[override]
    assert main(["optimize-phase", "--cases", "f", "--set", override]) == code
    assert capsys.readouterr() == ("", f"{label}: {error}\n")
    assert main(["sweep", "--variable", "phase", "--grid", "0:1:2", "--set", override]) == 0
    assert capsys.readouterr() == (f"0: error: {error}\n1: error: {error}\n", "")


def test_baseline_command(tmp_path):
    out = tmp_path / "base.csv"
    assert main(["baseline", "--grid", "5:20:3", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "distance,skr_d,holevo_d,warnings"
    assert len(lines) == 4


@pytest.mark.parametrize("argv", [
    ["baseline", "--grid", "5:5:3"],  # not strictly monotone, as for sweep
    ["baseline", "--cases", "g"],  # only the direct case exists without a RIS
])
def test_baseline_rejects_what_it_cannot_rate(argv, capsys):
    assert main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [
    ["--tolerance", "nan"], ["--tolerance", "inf"], ["--tolerance", "0"],
    ["--tolerance", "-1"], ["--d-min", "100", "--d-max", "10"],
])
def test_max_distance_rejects_unsearchable_input(flags, capsys):
    argv = ["max-distance", "--cases", "g", "--set", "v_e=2", *flags]
    assert main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert ("tolerance" if "--tolerance" in flags else "d_min") in err
