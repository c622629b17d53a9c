"""Command-line interface: outputs, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

import tilelap
from tilelap import catalog
from tilelap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_validate_stdout(capsys):
    code, out = run(capsys, "validate", "--surface", "pillowcase")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["key", "value"]
    data = dict(rows)
    assert data["n_cone_points"] == "4"
    assert data["doubled_edges"] == "4"
    assert data["euler_characteristic"] == "2"
    assert data["gauss_bonnet_defect"] == "0"


def test_validate_surface_file_with_bundle(tmp_path, capsys):
    text = catalog.torus().to_text() + "rank: 1\ntransport: 0 -1\n"
    path = tmp_path / "twisted.surf"
    path.write_text(text)
    code, out = run(capsys, "validate", "--surface", str(path))
    assert code == 0


def test_validate_nonflat_bundle_exits_2(tmp_path, capsys):
    # twisting one fold seam of the pillowcase gives cone monodromy != 1
    text = catalog.pillowcase().to_text() + "rank: 1\ntransport: 2 i\n"
    path = tmp_path / "bad.surf"
    path.write_text(text)
    code, _ = run(capsys, "validate", "--surface", str(path))
    assert code == 2


def test_nonflat_bundle_rejected_outside_validate(tmp_path, capsys):
    # only validate reports a bad bundle; every other command refuses it
    for name, text, message in (
            ("pillow", catalog.pillowcase().to_text()
             + "rank: 1\ntransport: 2 i\n", "nontrivial monodromy"),
            ("torus", catalog.torus().to_text()
             + "rank: 1\ntransport: 0 2\n", "fails unitarity")):
        path = tmp_path / (name + ".surf")
        path.write_text(text)
        for argv in (["spectrum", "--n", "4"],
                     ["converge", "--ns", "2,4,6"],
                     ["harnack", "--ns", "4"]):
            code = main(argv + ["--surface", str(path)])
            captured = capsys.readouterr()
            assert code == 1, argv
            assert captured.out == ""
            assert message in captured.err


def test_unknown_surface_exits_1(capsys):
    code, _ = run(capsys, "spectrum", "--surface", "nosuch", "--n", "4")
    assert code == 1


def test_bad_arguments_exit_1(capsys):
    assert main(["spectrum"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    capsys.readouterr()
    for argv, message in (
            (["green", "--mode", "halfplane", "--source", "1"], "--source"),
            (["green", "--mode", "halfplane", "--source=0,0,1"], "--source"),
            (["green", "--mode", "halfplane", "--source", "a,1"], "--source"),
            (["eigvec", "--surface", "square", "--ns", "8", "--group", "-1"],
             "group index"),
            (["converge", "--surface", "square", "--ns", "4,4,8"],
             "increase"),
            (["harnack", "--surface", "square", "--ns", "8,4"], "increase"),
            (["green", "--radius", "-1"], "--radius"),
            (["green", "--mode", "constant", "--radius", "-1"], "--radius"),
            (["green", "--mode", "halfplane", "--radius", "-3",
              "--source", "0,3"], "--radius"),
            # no lattice point in the fitting annulus 1/4 <= |z| <= 1/2
            (["green", "--mode", "constant", "--radius", "1"], "--radius"),
            (["harnack", "--surface", "lshape", "--ns", "4", "--index",
              "-1"], "--index"),
            (["harnack", "--surface", "lshape", "--ns", "4", "--index",
              "500"], "--index"),
            (["interp-check", "--surface", "square", "--ns", "2",
              "--trials", "0"], "--trials"),
            (["crsf-check", "--count", "0"], "--count"),
            # meshes too small for the eigenpairs the command solves for
            (["interp-check", "--surface", "torus", "--ns", "1",
              "--trials", "1"], "--ns"),
            (["eigvec", "--surface", "square", "--ns", "2", "--group", "3"],
             "--ns")):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "unpack" not in captured.err


def test_jobs_only_on_converge(capsys):
    # only converge runs a parallel sweep; elsewhere --jobs is rejected
    code = main(["spectrum", "--surface", "torus", "--n", "4", "--jobs",
                 "2"])
    assert code == 1
    assert "--jobs" in capsys.readouterr().err


def test_spectrum_values(capsys):
    code, out = run(capsys, "spectrum", "--surface", "torus",
                    "--n", "8", "--k", "3")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["i", "rescaled", "raw"]
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-9)
    # discrete oracle: 64 * (2 - 2 cos(pi/4))
    assert float(rows[1][1]) == pytest.approx(37.49, abs=0.01)


def test_converge_with_reference(capsys):
    code, out = run(capsys, "converge", "--surface", "square",
                    "--ns", "8,16", "--k", "3",
                    "--reference", "rectangle:1,1")
    assert code == 0
    header, rows = read_csv(out)
    assert "error" in header
    errs = {(r[header.index("n")], r[header.index("i")]):
            float(r[header.index("error")]) for r in rows}
    assert errs[("16", "1")] < errs[("8", "1")]


def test_converge_parallel_matches_serial(capsys):
    code1, out1 = run(capsys, "converge", "--surface", "square",
                      "--ns", "4,8", "--k", "3", "--jobs", "1")
    code2, out2 = run(capsys, "converge", "--surface", "square",
                      "--ns", "4,8", "--k", "3", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_eigvec_table(capsys):
    code, out = run(capsys, "eigvec", "--surface", "square", "--ns", "8,16")
    assert code == 0
    header, rows = read_csv(out)
    col = header.index("error")
    errs = [float(r[col]) for r in rows]
    assert errs == sorted(errs, reverse=True)


def test_constant_mode_commands(capsys):
    # k = 1 on a trivial bundle returns only the zero mode
    code, _ = run(capsys, "eigvec", "--surface", "square", "--ns", "8",
                  "--group", "0")
    assert code == 0
    code, _ = run(capsys, "harnack", "--surface", "square", "--ns", "8",
                  "--index", "0")
    assert code == 0
    for surface in ("square", "rectangle2x1", "genus2"):
        code, out = run(capsys, "spectrum", "--surface", surface, "--n", "8",
                        "--k", "1")
        assert code == 0
        header, rows = read_csv(out)
        assert abs(float(rows[0][header.index("rescaled")])) < 1e-9


def test_eigvec_needs_planar_surface(capsys):
    code, _ = run(capsys, "eigvec", "--surface", "pillowcase", "--ns", "8")
    assert code == 1


def test_interp_check(capsys):
    code, out = run(capsys, "interp-check", "--surface", "pillowcase",
                    "--ns", "2,4", "--trials", "3")
    assert code == 0
    header, rows = read_csv(out)
    ratio_col = header.index("pairing_ratio")
    ratios = [float(r[ratio_col]) for r in rows if r[ratio_col]]
    assert len(ratios) == 2


def test_consistency_table(capsys):
    code, out = run(capsys, "consistency", "--surface", "square",
                    "--ns", "8,16")
    assert code == 0
    header, rows = read_csv(out)
    assert "interior" in header


def test_harnack_table(capsys):
    code, out = run(capsys, "harnack", "--surface", "lshape", "--ns", "8,16")
    assert code == 0
    header, rows = read_csv(out)
    col = header.index("max_edge_gap")
    gaps = [float(r[col]) for r in rows]
    assert gaps[1] < gaps[0]


def test_green_modes(capsys):
    for mode, extra in (("ball", ["--radius", "12"]),
                        ("constant", ["--radius", "48"]),
                        ("halfplane", ["--radius", "5", "--source", "0,2"])):
        code, out = run(capsys, "green", "--mode", mode, *extra)
        assert code == 0, mode
        if mode == "constant":
            data = dict(read_csv(out)[1])
            assert abs(float(data["fitted_constant"])
                       - float(data["closed_form_constant"])) <= 1e-5


def test_flow_and_barrier(capsys):
    code, _ = run(capsys, "flow", "--n", "64")
    assert code == 0
    code, _ = run(capsys, "barrier", "--surface", "pillowcase", "--n", "8")
    assert code == 0


def test_crsf_check(capsys):
    code, out = run(capsys, "crsf-check", "--count", "25", "--seed", "5")
    assert code == 0
    header, rows = read_csv(out)
    col = header.index("rel_error")
    assert max(float(r[col]) for r in rows) <= 1e-9


def test_out_files_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code, _ = run(capsys, "spectrum", "--surface", "torus", "--n", "8",
                      "--k", "4", "--out", str(out))
        assert code == 0
    assert out1.with_suffix(".csv").read_bytes() == \
        out2.with_suffix(".csv").read_bytes()
    side1 = json.loads(out1.with_suffix(".json").read_text())
    side2 = json.loads(out2.with_suffix(".json").read_text())
    assert side1["command"] == "spectrum"
    assert side1["params"]["n"] == 8
    assert "out" not in side1["params"]
    assert side1["summary"] == side2["summary"]


def test_interp_check_tolerance_relative_to_energy(capsys):
    # round-off of ~1e-12 on energies of size ~100 failed an absolute
    # 1e-12 tolerance here
    code, out = run(capsys, "interp-check", "--surface", "lshape",
                    "--ns", "16", "--trials", "5", "--seed", "8")
    assert code == 0
    header, rows = read_csv(out)
    trials = [r for r in rows if r[header.index("trial")] != "-1"]
    scale = max(abs(float(r[header.index("graph")])) for r in trials)
    assert max(float(r[header.index("error")]) for r in trials) \
        <= 1e-12 * scale


def test_invalid_input_exits_1(capsys):
    code = main(["converge", "--surface", "square", "--ns", "4",
                 "--reference", "torus:1,1"])
    assert code == 1
    assert "4 parameters" in capsys.readouterr().err
    code = main(["flow", "--n", "0"])
    assert code == 1
    assert "--n" in capsys.readouterr().err


def test_numpy_only_commands_leave_scipy_unloaded():
    # scipy is imported inside the functions that solve, so importing the
    # CLI and running commands that solve nothing must not load it
    script = textwrap.dedent("""
        import contextlib, io, sys
        from tilelap import cli
        for argv in (["validate", "--surface", "genus2"],
                     ["crsf-check", "--count", "20"],
                     ["barrier", "--surface", "lshape", "--n", "8"],
                     ["flow", "--n", "8"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tilelap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
