"""Command-line behaviour: output schemas, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from aluthge_lab.cli import main
from aluthge_lab.diagrams import build_prop2
from aluthge_lab.sampling import bump_gamma
from aluthge_lab import diagram_to_obj, dumps


@pytest.fixture
def prop2_file(tmp_path):
    path = tmp_path / "prop2.json"
    path.write_text(dumps(diagram_to_obj(build_prop2(0.5, 0.5))))
    return str(path)


@pytest.fixture
def bumped_file(tmp_path):
    # commuting table whose toral candidate does not commute
    W = bump_gamma(build_prop2(0.8, 0.5), 1.4, at=(1, 1), rows=6, cols=6)
    path = tmp_path / "bumped.json"
    path.write_text(dumps(diagram_to_obj(W)))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# transform


def test_transform_spherical_report(capsys, prop2_file):
    obj = run_json(capsys, ["transform", "--kind", "spherical", "--input", prop2_file, "-w", "6"])
    assert obj["transform"] == "spherical"
    assert obj["window"] == 6
    assert obj["input"]["kind"] == "prop2"
    assert obj["commutativity_residual"] <= 1e-12
    assert len(obj["alpha"]) == 7 and len(obj["alpha"][0]) == 7
    assert obj["alpha"][0][0] == pytest.approx(0.6287167148414676, abs=1e-13)


def test_transform_toral_flags_commuting_corner(capsys, prop2_file):
    obj = run_json(capsys, ["transform", "--kind", "toral", "--input", prop2_file, "-w", "6"])
    assert obj["commutes"] is True
    assert obj["alpha"][0][0] == pytest.approx(np.sqrt(0.5), abs=1e-15)


def test_transform_toral_noncommuting_still_reports(capsys, bumped_file):
    obj = run_json(capsys, ["transform", "--kind", "toral", "--input", bumped_file, "-w", "8"])
    assert obj["commutes"] is False
    assert obj["direct_residual"] > 1e-6


def test_transform_toral_refuses_to_write_noncommuting(tmp_path, capsys, bumped_file):
    out = tmp_path / "cand.json"
    code = main(["transform", "--kind", "toral", "--input", bumped_file, "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "refusing" in err
    assert not out.exists()


def test_transform_writes_file_with_out(tmp_path, capsys, prop2_file):
    out = tmp_path / "sph.json"
    code = main(["transform", "--kind", "spherical", "--input", prop2_file, "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["transform"] == "spherical"


# ---------------------------------------------------------------------------
# hypo / khypo


def test_hypo_report_schema(capsys, prop2_file):
    obj = run_json(capsys, ["hypo", "--input", prop2_file, "--kmax", "2", "-N", "8"])
    assert obj["N"] == 8
    assert obj["joint"] is True
    assert obj["componentwise"] == [True, True]
    assert obj["k_hypo"] == {"1": True, "2": True}
    assert obj["levels"]["2"] == 10
    assert "worst_witness" not in obj


def test_hypo_witness_present_on_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(dumps(diagram_to_obj(build_prop2(0.95, 0.6))))
    obj = run_json(capsys, ["hypo", "--input", str(path), "-N", "8"])
    assert obj["joint"] is False
    assert obj["worst_witness"]["k"] == [0, 0]
    assert len(obj["worst_witness"]["matrix"]) == 2


def test_khypo_default_level(capsys, prop2_file):
    obj = run_json(capsys, ["khypo", "--input", prop2_file, "--k", "2"])
    assert obj["N"] == 10
    assert obj["k"] == 2
    assert obj["is_psd"] is True
    assert obj["dim"] > 0


# ---------------------------------------------------------------------------
# quasinormal / stampfli / berger


def test_quasinormal_complete_and_check(tmp_path, capsys):
    om_path = tmp_path / "om.json"
    om_path.write_text(dumps({"stampfli": [1.0, 2.0, 3.0]}))
    obj = run_json(capsys, ["quasinormal", "complete", "--omega", str(om_path),
                            "--constant", "4.0", "-w", "6"])
    assert obj["diagram"]["kind"] == "quasinormal-completion"
    assert obj["alpha"][0][1] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-13)
    assert obj["beta"][0][0] == pytest.approx(np.sqrt(3.0), abs=1e-13)

    diag_path = tmp_path / "completion.json"
    diag_path.write_text(dumps(obj["diagram"]))
    check = run_json(capsys, ["quasinormal", "check", "--input", str(diag_path)])
    assert check["agree"] is True
    assert check["constant_sum"] is True
    assert check["constant"] == pytest.approx(4.0)


def test_quasinormal_check_generic_table_negative(capsys, bumped_file):
    check = run_json(capsys, ["quasinormal", "check", "--input", bumped_file])
    assert check["constant_sum"] is False
    assert check["constant"] is None


def test_stampfli_report(capsys):
    obj = run_json(capsys, ["stampfli", "--triple", "1,2,3", "--count", "4"])
    assert obj["phi0"] == pytest.approx(-2.0)
    assert obj["phi1"] == pytest.approx(4.0)
    assert obj["atoms"]["rho0"] == pytest.approx(0.8535533905932738, abs=1e-13)
    assert len(obj["weights"]) == 4
    assert obj["weights"][0] == pytest.approx(1.0)
    assert obj["omega"] == {"stampfli": [1.0, 2.0, 3.0]}


def test_berger_verify_triple(capsys):
    obj = run_json(capsys, ["berger", "verify", "--triple", "1,2,3"])
    assert obj["pass"] is True
    assert obj["max_rel_error"] <= 1e-10
    assert len(obj["atoms"]) == 2


def test_berger_verify_explicit_pair(tmp_path, capsys, prop2_file):
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(dumps({"atoms": [[0.25, 0.25, 1.0]]}))
    obj = run_json(capsys, ["berger", "verify", "--input", prop2_file,
                            "--measure", str(mu_path), "--maxdeg", "4"])
    assert obj["pass"] is False  # prop2(1/2,1/2) is not this point mass


def test_berger_verify_needs_inputs(capsys):
    code = main(["berger", "verify"])
    assert code == 2
    assert "need either" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# regions and continuity


def test_regions_q(capsys):
    obj = run_json(capsys, ["regions", "q"])
    assert abs(obj["q"] - 0.52138) <= 1e-4


def test_regions_classify(capsys):
    obj = run_json(capsys, ["regions", "classify", "--x", "0.72", "--y", "0.4"])
    assert obj["numeric"] == {"joint": True, "toral": False, "spherical": True}
    assert obj["closed_form"]["toral_by_CA"] is False
    assert set(obj["curves"]) == {"s", "h", "CA", "PA"}


def test_regions_scan_csv(capsys):
    code = main(["regions", "scan", "--grid", "2", "--ladder", "3", "-N", "8"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("y,s,h,CA,PA,x,")
    assert len(lines) == 1 + 2 * 3
    assert all(line.count(",") == lines[0].count(",") for line in lines)


def test_probe_continuity_report(capsys, prop2_file):
    obj = run_json(capsys, ["probe-continuity", "--input", prop2_file, "--n", "100", "-N", "6"])
    assert obj["N"] == 6 and obj["n"] == 100
    assert set(obj["lemma_re4"]) == {"i", "ii", "iii", "iv", "v"}
    assert all(set(v) == {"lhs", "rhs", "slack"} for v in obj["lemma_re4"].values())
    assert obj["all_hold"] is True


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_runs_and_reports(capsys):
    code = main(["reproduce", "thm1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "=> PASS" in out
    assert "[pass]" in out


def test_reproduce_output_is_byte_stable(capsys):
    main(["reproduce", "thm1", "--seed", "11"])
    first = capsys.readouterr().out
    main(["reproduce", "thm1", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second
    # a different seed samples different diagrams
    main(["reproduce", "thm1", "--seed", "12"])
    assert capsys.readouterr().out != first


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_64(capsys):
    assert main([]) == 64
    assert main(["no-such-command"]) == 64
    assert main(["transform", "--kind", "sideways", "--input", "x.json"]) == 64
    assert main(["khypo", "--input", "x.json"]) == 64  # --k is required
    capsys.readouterr()


def test_missing_file_exits_1(capsys):
    assert main(["hypo", "--input", "/definitely/not/here.json"]) == 1
    assert "i/o error" in capsys.readouterr().err


def test_domain_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(dumps({"kind": "spectral"}))
    assert main(["hypo", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    unordered = tmp_path / "om.json"
    unordered.write_text(dumps({"values": [1.0, -2.0]}))
    assert main(["quasinormal", "complete", "--omega", str(unordered), "-C", "2.0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["hypo", "--input", "x.json", "-N", "-3"], 64),
        (["hypo", "--input", "x.json", "--kmax", "-1"], 64),
        (["transform", "--kind", "toral", "--input", "x.json", "-w", "-2"], 64),
        (["stampfli", "--triple", "1,2,3", "--count", "-2"], 64),
        (["berger", "verify", "--triple", "1,2,3", "--maxdeg", "-1"], 64),
        (["regions", "classify", "--x", "0.5", "--y", "0.5", "--kmax", "-1"], 64),
        (["regions", "scan", "--grid", "2", "--ladder", "0"], 2),
    ],
)
def test_bad_integer_flags_exit_cleanly(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_non_finite_atom_mass_exits_2(tmp_path, capsys, prop2_file):
    mu_path = tmp_path / "mu.json"
    mu_path.write_text('{"atoms": [[0.5, 0.5, NaN]]}')
    code = main(["berger", "verify", "--input", prop2_file, "--measure", str(mu_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


def test_overflowing_weights_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    huge = [[1e308, 1e308], [1e308, 1e308]]
    path.write_text(dumps({"kind": "table", "params": {"alpha": huge, "beta": huge}}))
    code = main(["hypo", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "aluthge_lab.cli", "regions", "q"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["q"] - 0.52138) <= 1e-4
