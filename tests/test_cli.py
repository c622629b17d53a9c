"""Command-line interface: outputs, determinism, exit codes."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import tilelap
from tilelap import catalog
from tilelap.cli import build_parser, main

from conftest import record_routes


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


@pytest.mark.parametrize("entry", ["nan", "nanj", "1+nani", "-inf"])
def test_non_finite_transport_exits_1(tmp_path, capsys, entry):
    # a nan defect once passed validate's tolerance test, and LAPACK
    # failed on it later; the parser names the line and the entry
    text = catalog.pillowcase().to_text() + "rank: 1\n"
    path = tmp_path / "nan.surf"
    path.write_text(text + "transport: 2 %s\n" % entry)
    for argv in (["validate"], ["barrier", "--n", "8"],
                 ["spectrum", "--n", "4"], ["interp-check", "--ns", "4"]):
        code = main(argv + ["--surface", str(path)])
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert ("line %d: complex entry %r is not finite"
                % (text.count("\n") + 1, entry)) in captured.err


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
            # the half-plane N x Z has rows a >= 0 only
            (["green", "--mode", "halfplane", "--source=-2,0"],
             "--source: row a of the source (a, b) must be >= 0"),
            (["eigvec", "--surface", "square", "--ns", "8", "--group", "-1"],
             "--group"),
            (["converge", "--surface", "square", "--ns", "4,4,8"],
             "increase"),
            (["harnack", "--surface", "square", "--ns", "8,4"], "increase"),
            (["green", "--radius", "-1"], "--radius"),
            # green draws no random numbers
            (["green", "--seed", "1"], "--seed"),
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
             "--ns"),
            (["spectrum", "--surface", "torus", "--n", "4", "--k", "0"],
             "--k"),
            (["spectrum", "--surface", "torus", "--n", "2", "--k", "9"],
             "--k"),
            (["converge", "--surface", "torus", "--ns", "4,8", "--k", "0"],
             "--k"),
            (["eigvec", "--surface", "square", "--ns", "8", "--k", "-1",
              "--group", "0"], "--k"),
            (["converge", "--surface", "square", "--ns", "4,8", "--jobs",
              "0"], "--jobs"),
            (["crsf-check", "--tol", "-1"], "--tol"),
            # eigvec and consistency compare against the Neumann modes of a
            # rectangle, which describe no other surface
            (["consistency", "--surface", "lshape", "--ns", "8,16,32"],
             "consistency"),
            (["consistency", "--surface", "torus", "--ns", "8,16"],
             "consistency"),
            (["eigvec", "--surface", "lshape", "--ns", "8,16,32"], "eigvec"),
            (["eigvec", "--surface", "pillowcase", "--ns", "8"], "eigvec"),
            # rectangle sides and torus periods are finite and > 0
            (["converge", "--surface", "square", "--ns", "4,8", "--k", "2",
              "--reference", "rectangle:0,1"], "--reference"),
            (["converge", "--surface", "square", "--ns", "4,8", "--k", "2",
              "--reference", "torus:1,-1,0,0"], "--reference"),
            (["converge", "--surface", "square", "--ns", "4,8", "--k", "2",
              "--reference", "rectangle:inf,1"], "--reference"),
            (["converge", "--surface", "square", "--ns", "4,8",
              "--reference", "rectangle:x,1"], "bad parameters"),
            (["eigvec", "--surface", "square", "--ns", "8", "--group", "5"],
             "--group must be < 5"),
            (["barrier", "--surface", "torus", "--n", "4"],
             "no singular points"),
            (["converge", "--surface", "square", "--ns", "0,4"],
             "must be positive"),
            (["converge", "--surface", "square", "--ns", "4,x"],
             "bad mesh list")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "unpack" not in captured.err


@pytest.mark.parametrize("argv", [
    ["interp-check", "--surface", "square", "--ns", "2,4", "--trials", "2"],
    ["green", "--mode", "ball", "--radius", "8"],
    ["green", "--mode", "halfplane", "--radius", "4", "--source", "0,2"],
    ["flow", "--n", "8"],
    ["crsf-check", "--count", "20"]])
def test_zero_tolerance_exits_2(capsys, argv):
    # round-off alone exceeds a zero tolerance; the table is still written
    code = main(argv + ["--tol", "0"])
    captured = capsys.readouterr()
    assert code == 2
    header, rows = read_csv(captured.out)
    assert header and rows
    assert captured.err.startswith("tolerance failure:")


def test_every_numeric_flag_is_bounded(capsys):
    # every count, index and amount rejects -1, and a float also nan, at
    # parse time, naming the flag; a flag added later cannot skip the rule
    subparsers, = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    valid = {"surface": "square", "ns": "4", "n": "4"}
    checked = 0
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            try:
                kind = type(action.type("2"))
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                continue  # no type, or not a number (--source)
            if kind not in (int, float):
                continue  # --ns
            flag = action.option_strings[0]
            others = []
            for other in sub._actions:
                if other.required and other is not action:
                    others += ["--" + other.dest, valid[other.dest]]
            for value in ("-1", "nan") if kind is float else ("-1",):
                assert main([name, *others, flag, value]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "argument %s:" % flag in captured.err, (name, flag)
                checked += 1
    assert checked >= 30


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


def test_dense_spectrum_keeps_whole_multiplets(capsys):
    # 256 unknowns take the LAPACK route; the 8-fold value 188.935 fills
    # i = 13-20, and the subset eigensolver must return every member
    from tilelap import spectral

    code, out = run(capsys, "spectrum", "--surface", "torus",
                    "--n", "16", "--k", "21", "--seed", "2")
    assert code == 0
    _, rows = read_csv(out)
    vals = np.array([float(row[1]) for row in rows])
    oracle = 256 * spectral.discrete_torus_spectrum(16)[:21]
    assert np.allclose(vals, oracle, rtol=1e-10, atol=1e-9)
    assert np.allclose(vals[13:21], 188.935007387, rtol=1e-11)
    assert vals[12] < 188 and len(vals) == 21


def test_mesh_spectrum_keeps_whole_multiplets(capsys):
    # 32,768 unknowns take the mesh path; the 4-fold value 49.3396 fills
    # i = 7-10 and the pair 78.941 i = 11, 12, as the closed form has it
    from tilelap import spectral

    code, out = run(capsys, "spectrum", "--surface", "pillowcase",
                    "--n", "128", "--k", "13")
    assert code == 0
    _, rows = read_csv(out)
    vals = np.array([float(row[1]) for row in rows])
    oracle = 128 ** 2 * spectral.discrete_pillowcase_spectrum(128)[:13]
    assert np.allclose(vals, oracle, rtol=1e-10, atol=1e-9)
    assert [row[1][:7] for row in rows[7:13]] == ["49.3396"] * 4 + [
        "78.9409"] * 2


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


def test_parallel_sweep_starts_cold_and_matches_serial(monkeypatch):
    # the serial sweep starts each Lanczos mesh from the one below and
    # certifies it; the workers of --jobs 2 start cold; the values agree
    # to 1e-12 relative
    from tilelap import cli, spectral

    certified, count = [], spectral._certified

    def counted(*args):
        certified.append(count(*args))
        return certified[-1]

    monkeypatch.setattr(spectral, "_certified", counted)
    surface, bundle = cli._load("genus2")
    found = []
    for jobs in (1, 2):
        found.append([vals for _, vals, _ in cli._eigen_sweep(
            surface, bundle, [32, 48, 64], 6, 0, "--k", jobs, False)])
    assert certified == [True, True]
    for serial, parallel in zip(*found):
        assert np.all(np.abs(serial - parallel) <= 1e-12 * parallel)


def test_inertia_mismatch_exits_2(capsys, monkeypatch):
    # a warm mesh whose inertia count fails, also after the cold repair,
    # is a tolerance failure
    from tilelap import spectral

    monkeypatch.setattr(spectral, "_certified", lambda *args: False)
    assert main(["converge", "--surface", "genus2", "--ns", "16,24"]) == 2
    assert "n = 24 mesh has eigenvalues below" in capsys.readouterr().err


def test_converge_starts_no_idle_workers(capsys, monkeypatch):
    # --jobs above the number of meshes asks for one worker per mesh
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, items):
            return map(func, items)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    code, out = run(capsys, "converge", "--surface", "square",
                    "--ns", "4,8", "--k", "3", "--jobs", "64")
    assert code == 0
    assert sizes == [2]
    assert out == run(capsys, "converge", "--surface", "square",
                      "--ns", "4,8", "--k", "3")[1]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--surface", "square", "--n", "10000000"],
    ["barrier", "--surface", "lshape", "--n", "10000000"],
    ["flow", "--n", "100000000"],
    ["green", "--mode", "ball", "--radius", "1e7"],
    ["green", "--mode", "halfplane", "--radius", "1e7", "--source", "0,0"]])
def test_oversized_input_exits_1(capsys, argv):
    # each command's first large array is above 2^47 bytes, the whole
    # address space, so its allocation fails at once
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the input needs more memory than is "
                            "available\n")


def test_eigvec_table(capsys):
    code, out = run(capsys, "eigvec", "--surface", "square", "--ns", "8,16")
    assert code == 0
    header, rows = read_csv(out)
    col = header.index("error")
    errs = [float(r[col]) for r in rows]
    assert errs == sorted(errs, reverse=True)


def test_eigvec_takes_the_group_whole(capsys):
    # with --k 7 the 5 pi^2 pair (group 4) starts at the last mode; the
    # command compares the whole pair, as with --k 8
    (code7, out7), (code8, out8) = (
        run(capsys, "eigvec", "--surface", "square", "--ns", "8,16", "--k",
            k, "--group", "4") for k in ("7", "8"))
    assert code7 == code8 == 0
    assert out7 == out8
    header, rows = read_csv(out7)
    assert {r[header.index("size")] for r in rows} == {"2"}


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
    # the n = 1 corner residual (1.5e-31) and the n = 1, 2 interior ones (0)
    # are round-off: the ratios over them are empty, the others printed
    code, out = run(capsys, "consistency", "--surface", "square",
                    "--ns", "1,2,4")
    assert code == 0
    header, rows = read_csv(out)
    ratios = [dict(zip(header, r)) for r in rows]
    assert float(ratios[0]["corner"]) < 1e-30
    assert ratios[1]["corner_ratio"] == ""
    assert ratios[2]["interior_ratio"] == ""
    assert 0 < float(ratios[2]["corner_ratio"]) < 1


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
    # round-off above 1e-12 on energies of size ~100 would fail an
    # absolute 1e-12 tolerance here
    code, out = run(capsys, "interp-check", "--surface", "lshape",
                    "--ns", "32", "--trials", "5", "--seed", "3")
    assert code == 0
    header, rows = read_csv(out)
    trials = [r for r in rows if r[header.index("trial")] != "-1"]
    scale = max(abs(float(r[header.index("graph")])) for r in trials)
    worst = max(float(r[header.index("error")]) for r in trials)
    assert 1e-12 < worst <= 1e-12 * scale


@pytest.mark.parametrize("argv", [
    ["interp-check", "--surface", "lshape", "--ns", "4,8", "--trials", "3"],
    ["crsf-check", "--count", "10"]], ids=["interp-check", "crsf-check"])
def test_seed_draws_the_random_inputs(capsys, argv):
    # the random fields and graphs come from the stream seeded by --seed:
    # one seed repeats its table byte for byte, another seed changes it
    outs = [run(capsys, *argv, "--seed", seed) for seed in ("4", "4", "5")]
    assert [code for code, _ in outs] == [0, 0, 0]
    assert outs[0][1] == outs[1][1] != outs[2][1]


def test_invalid_input_exits_1(capsys):
    code = main(["converge", "--surface", "square", "--ns", "4",
                 "--reference", "torus:1,1"])
    assert code == 1
    assert "4 parameters" in capsys.readouterr().err
    code = main(["flow", "--n", "0"])
    assert code == 1
    assert "--n" in capsys.readouterr().err


def _in_fresh_interpreter(argvs, setup="", report=""):
    """Run the commands in a fresh interpreter, after ``setup``, and
    return what the ``report`` expression prints, followed by the loaded
    scipy modules, the loaded numpy.random modules and the loaded tilelap
    modules (sorted, without "tilelap.")."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        from tilelap import cli
        %s
        for argv in %r:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        print(%s)
        print(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
        print(" ".join(m for m in sys.modules
                       if m.split(".")[:2] == ["numpy", "random"]))
        print(" ".join(sorted(m.split(".", 1)[1] for m in sys.modules
                              if m.startswith("tilelap."))))
    """) % (setup, argvs, report or '""')
    src = os.path.dirname(os.path.dirname(os.path.abspath(tilelap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[:4]


@pytest.mark.parametrize("preset, threads", [(None, 1), ("2", 2)])
def test_cli_starts_openblas_on_one_thread(preset, threads):
    # importing tilelap.cli starts numpy's OpenBLAS on one thread unless
    # the user set OPENBLAS_NUM_THREADS; importing tilelap alone loads no
    # numpy and sets nothing
    script = textwrap.dedent("""
        import os, sys
        import tilelap
        print("numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS"))
        import tilelap.cli
        from tilelap import lapack
        get, _ = lapack._blas_thread_control()
        print(get())
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tilelap.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == [
        "False %s" % preset, str(min(threads, os.cpu_count()))]


def _rank2_torus_file(tmp_path):
    # commuting holonomies V diag(e^{i a}) V*, V diag(e^{i b}) V*: flat
    rng = np.random.default_rng(7)
    v = np.linalg.qr(rng.standard_normal((2, 2))
                     + 1j * rng.standard_normal((2, 2)))[0]
    lines = [catalog.torus().to_text().rstrip("\n"), "rank: 2"]
    for seam, angles in enumerate(rng.uniform(0, 2 * np.pi, (2, 2))):
        mat = v @ np.diag(np.exp(1j * angles)) @ v.conj().T
        lines.append("transport: %d %s" % (seam, " ".join(
            "%.17g%+.17gi" % (z.real, z.imag) for z in mat.ravel())))
    path = tmp_path / "torus-rank2.surf"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_numpy_only_commands_leave_scipy_unloaded(tmp_path):
    # no command loads scipy: eigen systems are solved by LAPACK or by
    # the mesh solver, Green functions by a banded Cholesky; the eigen
    # commands run here on meshes that take either route
    _, modules, _, _ = _in_fresh_interpreter([
        ["validate", "--surface", "genus2"],
        ["crsf-check", "--count", "20"],
        ["barrier", "--surface", "lshape", "--n", "8"],
        ["flow", "--n", "8"],
        ["spectrum", "--surface", "torus", "--n", "8"],
        ["spectrum", "--surface", _rank2_torus_file(tmp_path), "--n", "32"],
        ["converge", "--surface", "genus2", "--ns", "32,48,64"],
        ["eigvec", "--surface", "square", "--ns", "8,16,32"],
        ["eigvec", "--surface", "square", "--ns", "8,16,48"],
        ["interp-check", "--surface", "genus2", "--ns", "4,8,16"],
        ["interp-check", "--surface", "genus2", "--ns", "4,8,24",
         "--trials", "2"],
        ["harnack", "--surface", "lshape", "--ns", "8,16,32,64"],
        ["consistency", "--surface", "square", "--ns", "16,32"],
        ["green", "--mode", "halfplane", "--radius", "6", "--source",
         "0,3"],
        ["green", "--mode", "ball", "--radius", "128"],
        ["green", "--mode", "constant", "--radius", "64"]])
    assert modules == ""


def test_eigen_commands_leave_numpy_random_unloaded(tmp_path):
    # the Lanczos start block and its replacement rows come from
    # stream.SplitMix64, so no eigen command imports numpy.random, on
    # either route: LAPACK (D) or block Lanczos (B), listed per command;
    # the sweeps take LAPACK on their coarse meshes and Lanczos on their
    # fine ones, the rank-2 torus file included
    rank2 = _rank2_torus_file(tmp_path)
    setup = textwrap.dedent("""
        from tilelap import spectral
        routes, main = [], cli.main
        def traced(argv):
            routes.append(set())
            return main(argv)
        def route(name, solve):
            def routed(*args):
                routes[-1].add(name)
                return solve(*args)
            return routed
        cli.main = traced
        spectral.lowest_eigenpairs = route("D", spectral.lowest_eigenpairs)
        spectral._block_lanczos = route("B", spectral._block_lanczos)
    """)
    report, _, modules, _ = _in_fresh_interpreter([
        ["spectrum", "--surface", "torus", "--n", "8"],
        ["spectrum", "--surface", "torus", "--n", "32"],
        ["spectrum", "--surface", rank2, "--n", "8"],
        ["spectrum", "--surface", rank2, "--n", "32"],
        ["converge", "--surface", "genus2", "--ns", "8,16,32"],
        ["converge", "--surface", rank2, "--ns", "8,16,32"],
        ["eigvec", "--surface", "square", "--ns", "8,16,32"],
        ["harnack", "--surface", "pillowcase", "--ns", "4,8,16"]], setup,
        '" ".join("".join(sorted(r)) for r in routes)')
    assert report == "D B D B BD BD BD BD" and modules == ""


# what every eigen command loads, on either route (both take the kernel
# from capacitance.square_kernel)
EIGEN_MODULES = ("bundle capacitance catalog cli discretize lapack operators "
                 "spectral stream surface")


@pytest.mark.parametrize("argv, loaded", [
    ([], "cli"),
    (["validate", "--surface", "genus2"],
     "bundle catalog cli discretize surface"),
    (["spectrum", "--surface", "torus", "--n", "8"], EIGEN_MODULES),
    (["converge", "--surface", "genus2", "--ns", "8,16,32"], EIGEN_MODULES),
    (["eigvec", "--surface", "square", "--ns", "8,16,32"],
     EIGEN_MODULES.replace("discretize", "discretize interp")),
    (["interp-check", "--surface", "genus2", "--ns", "4,8,16"],
     EIGEN_MODULES.replace("discretize", "discretize interp")),
    (["consistency", "--surface", "square", "--ns", "16,32"],
     "bundle catalog cli discretize interp lapack operators spectral stream "
     "surface"),
    (["harnack", "--surface", "lshape", "--ns", "8,16"],
     EIGEN_MODULES.replace("operators", "operators potential")),
    (["green", "--mode", "halfplane", "--radius", "6", "--source", "0,3"],
     "cli lapack potential"),
    (["flow", "--n", "8"], "cli lapack potential"),
    (["barrier", "--surface", "lshape", "--n", "8"],
     "bundle catalog cli discretize lapack potential surface"),
    (["crsf-check", "--count", "20"], "cli crsf operators stream")],
    ids=["import", "validate", "spectrum", "converge", "eigvec",
         "interp-check", "consistency", "harnack", "green", "flow", "barrier",
         "crsf-check"])
def test_each_command_loads_only_what_it_runs(argv, loaded):
    # importing tilelap.cli loads no other tilelap module; each subcommand
    # loads the ones it calls, and none loads scipy or numpy.random (every
    # random input comes from stream.SplitMix64)
    _, scipy, random, modules = _in_fresh_interpreter([argv] if argv else [])
    assert (scipy, random, modules) == ("", "", loaded)


@pytest.mark.parametrize("argv", [
    ["harnack", "--surface", "lshape", "--ns", "8,16,32,64"]],
    ids=["harnack"])
def test_large_systems_take_the_mesh_path(argv):
    # every mesh of the sweep, up to the n = 64 lshape mesh (12,288
    # unknowns), is solved through spectral.mesh_eigenpairs, in a process
    # that never loads scipy
    setup = textwrap.dedent("""
        from tilelap import spectral
        calls = []
        solve = spectral.mesh_eigenpairs
        def counted(disc, *args, **kwargs):
            calls.append(disc.n)
            return solve(disc, *args, **kwargs)
        spectral.mesh_eigenpairs = counted
    """)
    calls, modules, _, _ = _in_fresh_interpreter([argv], setup, "calls")
    assert calls == "[8, 16, 32, 64]" and modules == ""


@pytest.mark.parametrize("surface", ["genus2", "pillowcase", "lshape"])
def test_zero_mode_order_cell(capsys, surface):
    # the kernel is returned as exact zeros, so the i = 0 rows print 0 and
    # the Richardson fit of (0, 0, 0) gives the same order at every run
    code, out = run(capsys, "converge", "--surface", surface,
                    "--ns", "32,48,64")
    assert code == 0
    _, rows = read_csv(out)
    assert [row[1:] for row in rows[:3]] == [
        ["0", "0", "0", "0", "0.500000003869"]] * 3


@pytest.mark.parametrize("argv, routes", [
    (["harnack", "--surface", "lshape", "--ns", "8,16,32,64"], "BBBB"),
    (["eigvec", "--surface", "square", "--ns", "8,16,32"], "DBB"),
    (["converge", "--surface", "square", "--ns", "8,16,48"], "DDB"),
    (["converge", "--surface", "square", "--ns", "8,16,32"], "DDB"),
    (["spectrum", "--surface", "torus", "--n", "32"], "B"),
    (["spectrum", "--surface", "torus", "--n", "33"], "B"),
    (["interp-check", "--surface", "genus2", "--ns", "4,8,16"], "DBB")],
    ids=["harnack", "eigvec", "converge-48", "converge-32", "spectrum-32",
         "spectrum-33", "interp-check"])
def test_solver_route_per_mesh(monkeypatch, capsys, argv, routes):
    # each mesh takes its own route, D for the dense LAPACK solve and B
    # for block Lanczos: LAPACK while the Lanczos basis, k + 6 min(8, k)
    # vectors, would fill 1/8 of the mesh's dimension.  eigvec (k = 3,
    # basis 21) takes LAPACK up to 168 unknowns, so at n = 8 only;
    # converge (k = 6, basis 42) up to 336, at n = 8 and 16
    taken = record_routes(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert "".join("D" if route == "lapack" else "B"
                   for route in taken) == routes
