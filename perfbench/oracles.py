"""Oracle checks for the CSV tables the `tilelap` commands print.

Every check returns a `Verdict`: whether the table matched its oracle, the
largest relative deviation seen among the continuous quantities checked,
and a list of problems in words.  The oracles are independent of the
program:

    rectangle, torus  closed-form spectra of the discrete Laplacian on the
                      grid and on the twisted torus (Fourier), written out
                      here from scratch, and the continuum references
    energy, forest,   identities the command itself states (Dirichlet
    green, barrier,   energy of the extension equals the graph form, the
    validate          determinant equals the forest sum, the Green function
                      solves its equation, the barrier is superharmonic,
                      the bundle is flat and unitary), re-checked from the
                      printed numbers with tolerances relative to their
                      scale
    recorded          values printed by the seed commit for surfaces that
                      have no closed form, stored in seed_values.json

Deviations are relative to the scale of the quantity (the largest
eigenvalue of the table at that n, the largest energy, and so on), never
absolute.
"""

import csv
import io
import math

import numpy as np

# closed forms: printed values carry 12 significant digits
CLOSED_FORM_TOL = 1e-9
# recorded values: allows a change of solver path or arithmetic, whose
# eigenvectors and fitted extrapolations move in the 1e-8 range
RECORDED_TOL = 1e-6
IDENTITY_TOL = 1e-9


class Verdict:
    def __init__(self):
        self.max_err = 0.0
        self.problems = []

    @property
    def ok(self):
        return not self.problems

    def deviation(self, what, value, target, scale, tol):
        if value is None or target is None:
            if value != target:
                self.problems.append("%s: %r, expected %r"
                                     % (what, value, target))
            return
        err = abs(value - target) / scale if scale > 0 else abs(value - target)
        if not math.isfinite(err):
            err = math.inf
        self.max_err = max(self.max_err, err)
        if err > tol:
            self.problems.append("%s: %.12g, expected %.12g (rel. dev. %.2e)"
                                 % (what, value, target, err))

    def require(self, what, condition):
        if not condition:
            self.problems.append(what)


def parse_table(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty output")
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


def num(text):
    if text == "" or text is None:
        return None
    if text in ("True", "False"):
        return text == "True"
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


# ---- closed forms ------------------------------------------------------


def torus_spectrum(n, alpha, beta):
    """All eigenvalues of the n x n torus Laplacian twisted by e^{i alpha},
    e^{i beta}: tensor sum of 2 - 2 cos((2 pi p + angle) / n)."""
    p = np.arange(n)
    lam_x = 2 - 2 * np.cos((2 * np.pi * p + alpha) / n)
    lam_y = 2 - 2 * np.cos((2 * np.pi * p + beta) / n)
    return np.sort((lam_x[:, None] + lam_y[None, :]).ravel())


def rectangle_spectrum(nx, ny):
    """All eigenvalues of the free-boundary nx x ny grid Laplacian."""
    lam_x = 2 - 2 * np.cos(np.pi * np.arange(nx) / nx)
    lam_y = 2 - 2 * np.cos(np.pi * np.arange(ny) / ny)
    return np.sort((lam_x[:, None] + lam_y[None, :]).ravel())


def continuum_torus(alpha, beta, k, cut=12):
    p = np.arange(-cut, cut + 1)
    vals = 4 * np.pi ** 2 * ((p[:, None] + alpha / (2 * np.pi)) ** 2
                             + (p[None, :] + beta / (2 * np.pi)) ** 2)
    return np.sort(vals.ravel())[:k]


def continuum_rectangle(a, b, k, cut=12):
    p = np.arange(cut)
    vals = np.pi ** 2 * (p[:, None] ** 2 / a ** 2 + p[None, :] ** 2 / b ** 2)
    return np.sort(vals.ravel())[:k]


def _discrete_torus(angles, n, k):
    vals = np.concatenate([torus_spectrum(n, a, b) for a, b in angles])
    return n * n * np.sort(vals)[:k]


# ---- checks ------------------------------------------------------------


def _eigen_table(verdict, rows, discrete, continuum=None, value="value"):
    """Check a spectrum or convergence table against closed forms.

    ``discrete(n, k)`` gives the first k rescaled discrete eigenvalues.
    """
    by_n = {}
    for row in rows:
        by_n.setdefault(num(row["n"]), []).append(row)
    for n, group in by_n.items():
        target = discrete(n, len(group))
        scale = float(np.max(np.abs(target)))
        for row in group:
            i = num(row["i"])
            verdict.deviation("n=%d i=%d value" % (n, i), num(row[value]),
                              target[i], scale, CLOSED_FORM_TOL)
            if continuum is not None:
                ref = continuum(len(group))
                verdict.deviation("i=%d reference" % i, num(row["reference"]),
                                  ref[i], float(np.max(np.abs(ref))),
                                  CLOSED_FORM_TOL)
            if "error" in row:
                verdict.deviation(
                    "n=%d i=%d error" % (n, i), num(row["error"]),
                    abs(num(row[value]) - num(row["reference"])), scale,
                    CLOSED_FORM_TOL)


def check_rectangle(verdict, rows, command, recorded):
    a, b = command["check"]["a"], command["check"]["b"]
    _eigen_table(verdict, rows,
                 lambda n, k: n * n * rectangle_spectrum(a * n, b * n)[:k],
                 lambda k: continuum_rectangle(a, b, k))


def check_torus(verdict, rows, command, recorded):
    angles, argv = command["check"]["angles"], command["argv"]
    if argv[0] == "spectrum":
        n = int(argv[argv.index("--n") + 1])
        scale = max(abs(num(row["rescaled"])) for row in rows) / n ** 2
        for row in rows:
            row["n"] = str(n)
            verdict.deviation("i=%s raw" % row["i"], num(row["raw"]),
                              num(row["rescaled"]) / n ** 2, scale,
                              CLOSED_FORM_TOL)
        _eigen_table(verdict, rows, lambda n, k: _discrete_torus(angles, n, k),
                     value="rescaled")
        return
    continuum = None
    if "--reference" in argv:
        (alpha, beta), = angles
        continuum = lambda k: continuum_torus(alpha, beta, k)  # noqa: E731
    _eigen_table(verdict, rows, lambda n, k: _discrete_torus(angles, n, k),
                 continuum)


def check_validate(verdict, rows, command, recorded):
    values = {row["key"]: row["value"] for row in rows}
    verdict.deviation("bundle_defect", num(values["bundle_defect"]), 0.0,
                      1.0, IDENTITY_TOL)
    verdict.deviation("gauss_bonnet_defect",
                      num(values["gauss_bonnet_defect"]), 0.0, 1.0,
                      IDENTITY_TOL)
    # the unit torus at the default subdivision n = 2
    expected = {"n_vertices": 4, "n_edges": 8, "n_cone_points": 0,
                "n_boundary_corners": 0, "euler_characteristic": 0}
    for key, want in expected.items():
        verdict.require("%s = %s, expected %d" % (key, values[key], want),
                        num(values[key]) == want)


def check_energy(verdict, rows, command, recorded):
    """Graph Dirichlet form equals the energy of the extension."""
    trials = [r for r in rows if num(r["trial"]) >= 0]
    verdict.require("no energy trials", trials)
    scale = max(max(abs(num(r["graph"])), abs(num(r["field"])))
                for r in trials) if trials else 1.0
    for r in trials:
        verdict.deviation("n=%s trial=%s energy" % (r["n"], r["trial"]),
                          num(r["field"]), num(r["graph"]), scale,
                          IDENTITY_TOL)
    # n^2 <Lf, Lf> / <f, f> on the first nonzero eigenvector; recorded
    # where that eigenvalue is simple, so the vector is defined up to phase
    if recorded is not None:
        ratios = {r["n"]: num(r["pairing_ratio"]) for r in rows
                  if num(r["trial"]) == -1}
        for r in recorded:
            if num(r["trial"]) == -1:
                verdict.deviation("n=%s pairing_ratio" % r["n"],
                                  ratios.get(r["n"]),
                                  num(r["pairing_ratio"]), 1.0, RECORDED_TOL)


def check_barrier(verdict, rows, command, recorded):
    """lap h <= -1 must hold wherever the command checks it."""
    verdict.require("no singular points", rows)
    for r in rows:
        verdict.require("point %s: %s barrier violations of %s checked"
                        % (r["point"], r["violations"], r["checked"]),
                        num(r["violations"]) == 0)
    geometry = sorted((r["quarters"], r["interior"]) for r in rows)
    want = sorted((r["quarters"], r["interior"]) for r in recorded)
    verdict.require("singular points %s, expected %s" % (geometry, want),
                    geometry == want)


def check_green(verdict, rows, command, recorded):
    argv = command["argv"]
    values = {row["key"]: num(row["value"]) for row in rows}
    scale = abs(values.get("value_at_source") or 1.0)
    verdict.deviation("residual", values["residual"], 0.0, max(scale, 1.0),
                      IDENTITY_TOL)
    if "--mode" in argv and argv[argv.index("--mode") + 1] == "ball":
        r = float(argv[argv.index("--radius") + 1])
        rr = int(math.floor(r))
        p = np.arange(-rr, rr + 1)
        count = int(np.count_nonzero(p[:, None] ** 2 + p[None, :] ** 2
                                     <= r * r))
        verdict.require("points = %s, expected %d" % (values["points"], count),
                        values["points"] == count)
    for row in recorded:
        want = num(row["value"])
        if row["key"] == "residual" or not isinstance(want, float):
            continue
        verdict.deviation(row["key"], values.get(row["key"]), want,
                          abs(want) or 1.0, RECORDED_TOL)


def check_forest(verdict, rows, command, recorded):
    argv = command["argv"]
    count = int(argv[argv.index("--count") + 1])
    verdict.require("%d trials, expected %d" % (len(rows), count),
                    len(rows) == count)
    for r in rows:
        det, forest = num(r["determinant"]), num(r["forest_sum"])
        verdict.deviation("trial %s forest sum" % r["trial"], forest, det,
                          max(1.0, abs(det), abs(forest)), IDENTITY_TOL)


def check_recorded(verdict, rows, command, recorded):
    """Every column matches the seed commit's table, relative to the
    column's scale; integers and flags must match exactly."""
    verdict.require("%d rows, expected %d" % (len(rows), len(recorded)),
                    len(rows) == len(recorded))
    columns = recorded[0].keys() if recorded else ()
    for col in columns:
        want = [num(r[col]) for r in recorded]
        floats = [abs(w) for w in want if isinstance(w, float)]
        scale = max(floats) if floats else 1.0
        for k, (row, w) in enumerate(zip(rows, want)):
            got = num(row.get(col))
            what = "row %d %s" % (k, col)
            if isinstance(w, float) and isinstance(got, (int, float)) \
                    and not isinstance(got, bool):
                verdict.deviation(what, float(got), w, scale or 1.0,
                                  RECORDED_TOL)
            else:
                verdict.require("%s: %r, expected %r" % (what, got, w),
                                got == w)


CHECKS = {"rectangle": check_rectangle, "torus": check_torus,
          "validate": check_validate, "energy": check_energy,
          "barrier": check_barrier, "green": check_green,
          "forest": check_forest, "recorded": check_recorded}


def check(command, text, seed_values):
    """Check one command's CSV output against its oracle."""
    verdict = Verdict()
    try:
        rows = parse_table(text)
    except (ValueError, csv.Error) as exc:
        verdict.require("unreadable output: %s" % exc, False)
        return verdict
    spec = command["check"]
    oracle = CHECKS[spec["kind"]]
    recorded = seed_values[command["name"]] if spec.get("recorded") else None
    try:
        oracle(verdict, rows, command, recorded)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        verdict.require("malformed output: %r" % (exc,), False)
    return verdict
