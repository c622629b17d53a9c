"""The benchmark's workloads: fixed scripts of `tilelap` CLI commands.

Each workload is a closed loop with one client: the commands run one after
another, each in its own process, the next one starting when the previous
one has exited.  A command is a dict with

    name    label used in results and in the list of failing commands
    argv    arguments after `tilelap`
    check   oracle kind (see oracles.py) plus the data it needs

Only `twisted` draws its inputs from the workload seed: a random flat
unitary bundle on the torus, written to description files that the
program reads like any user-supplied surface.  `sweep` and `diagnostics`
are fixed scripts; the commands that fail at the seed commit are kept in
`diagnostics` on purpose and counted as failures.
"""

import os

import numpy as np

# commands that exit non-zero at the seed commit because of known program
# defects; they stay in the workload and are counted in fail_ratio
KNOWN_FAILURES = {
    "barrier-genus2": "barrier check applied beyond its valid radius "
                      "(348 violations at n = 32)",
    "interp-check-genus2": "energy identity judged by an absolute 1e-12 "
                           "tolerance; error 1.05e-12",
    "interp-check-lshape": "energy identity judged by an absolute 1e-12 "
                           "tolerance; error 1.20e-12",
}

# every matrix above the seed's dense cutoff (dimension 2000), so the
# sweep runs the sparse eigensolver only; dimensions 2,048 to 12,288
SWEEP_NS = "32,48,64"


def sweep_commands():
    cmds = []
    for surface in ("genus2", "pillowcase", "lshape"):
        cmds.append({"name": "converge-" + surface,
                     "argv": ["converge", "--surface", surface,
                              "--ns", SWEEP_NS],
                     "check": {"kind": "recorded", "recorded": True}})
    cmds.append({"name": "converge-rectangle2x1",
                 "argv": ["converge", "--surface", "rectangle2x1",
                          "--ns", SWEEP_NS, "--reference", "rectangle:2,1"],
                 "check": {"kind": "rectangle", "a": 2, "b": 1}})
    return cmds


def diagnostics_commands(seed):
    cmds = [
        {"name": "harnack-lshape",
         "argv": ["harnack", "--surface", "lshape", "--ns", "8,16,32,64"],
         "check": {"kind": "recorded", "recorded": True}},
        {"name": "eigvec-square",
         "argv": ["eigvec", "--surface", "square", "--ns", "8,16,32"],
         "check": {"kind": "recorded", "recorded": True}},
    ]
    for surface in ("pillowcase", "genus2", "lshape"):
        # the pairing ratio is probed on eigenvector 1, which is defined up
        # to phase only where eigenvalue 1 is simple (not on pillowcase)
        cmds.append({"name": "interp-check-" + surface,
                     "argv": ["interp-check", "--surface", surface,
                              "--ns", "4,8,16"],
                     "check": {"kind": "energy",
                               "recorded": surface != "pillowcase"}})
    cmds.append({"name": "consistency-square",
                 "argv": ["consistency", "--surface", "square",
                          "--ns", "16,32"],
                 "check": {"kind": "recorded", "recorded": True}})
    for surface in ("pillowcase", "lshape", "genus2"):
        cmds.append({"name": "barrier-" + surface,
                     "argv": ["barrier", "--surface", surface, "--n", "32"],
                     "check": {"kind": "barrier", "recorded": True}})
    cmds.append({"name": "green-ball",
                 "argv": ["green", "--mode", "ball", "--radius", "128"],
                 "check": {"kind": "green", "recorded": True}})
    cmds.append({"name": "green-halfplane",
                 "argv": ["green", "--mode", "halfplane", "--radius", "6",
                          "--source", "0,3"],
                 "check": {"kind": "green", "recorded": True}})
    # the forest identity is its own oracle, so its graphs follow the seed
    cmds.append({"name": "crsf-check",
                 "argv": ["crsf-check", "--count", "200",
                          "--seed", str(seed)],
                 "check": {"kind": "forest"}})
    return cmds


# ---- seeded flat bundles on the torus ----------------------------------

# dimensions 512 and 1,922 take the seed's dense path, 2,048 and 4,608
# the sparse one
TWISTED_RANK2_NS = (16, 31, 32, 48)
TWISTED_K = 12


def _complex_text(z):
    return "%.17g%+.17gi" % (z.real, z.imag)


def torus_description(transports):
    """Description file text of the unit torus with the given transports
    (seam 0 joins E to W, seam 1 joins N to S)."""
    rank = transports[0].shape[0]
    lines = ["squares: 1",
             "glue: (0,E) (0,W) translation",
             "glue: (0,N) (0,S) translation",
             "rank: %d" % rank]
    for seam, mat in enumerate(transports):
        lines.append("transport: %d %s" % (
            seam, " ".join(_complex_text(z) for z in mat.ravel())))
    return "\n".join(lines) + "\n"


def random_unitary(rng, rank):
    mat = (rng.standard_normal((rank, rank))
           + 1j * rng.standard_normal((rank, rank)))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def twisted_inputs(seed, directory):
    """Draw the `twisted` bundles from ``seed`` and write them to files.

    The rank-2 bundle has commuting holonomies V diag(e^{i alpha}) V* and
    V diag(e^{i beta}) V* with V a random unitary, so it splits into two
    rank-1 twisted tori along the columns of V.  Returns the two file
    paths and the oracle: the (alpha, beta) pairs of every eigen-direction.
    """
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2 * np.pi, size=(3, 2))
    v = random_unitary(rng, 2)
    alpha, beta = angles[:2, 0], angles[:2, 1]
    hol_x = v @ np.diag(np.exp(1j * alpha)) @ v.conj().T
    hol_y = v @ np.diag(np.exp(1j * beta)) @ v.conj().T
    rank2 = os.path.join(directory, "torus-rank2.txt")
    with open(rank2, "w") as fh:
        fh.write(torus_description([hol_x, hol_y]))
    a1, b1 = angles[2]
    rank1 = os.path.join(directory, "torus-rank1.txt")
    with open(rank1, "w") as fh:
        fh.write(torus_description([np.array([[np.exp(1j * a1)]]),
                                    np.array([[np.exp(1j * b1)]])]))
    return {"rank2": rank2, "rank1": rank1,
            "rank2_angles": [(float(a), float(b))
                             for a, b in zip(alpha, beta)],
            "rank1_angles": [(float(a1), float(b1))]}


def twisted_commands(inputs):
    rank2, rank1 = inputs["rank2"], inputs["rank1"]
    k = str(TWISTED_K)
    cmds = [
        {"name": "validate-rank1",
         "argv": ["validate", "--surface", rank1],
         "check": {"kind": "validate"}},
        {"name": "validate-rank2",
         "argv": ["validate", "--surface", rank2],
         "check": {"kind": "validate"}},
    ]
    for n in TWISTED_RANK2_NS:
        cmds.append({"name": "spectrum-rank2-n%d" % n,
                     "argv": ["spectrum", "--surface", rank2, "--n", str(n),
                              "--k", k],
                     "check": {"kind": "torus",
                               "angles": inputs["rank2_angles"]}})
    (a1, b1), = inputs["rank1_angles"]
    cmds.append({"name": "converge-rank1",
                 "argv": ["converge", "--surface", rank1,
                          "--ns", "16,32,48", "--k", k, "--reference",
                          "torus:1,1,%r,%r" % (a1, b1)],
                 "check": {"kind": "torus",
                           "angles": inputs["rank1_angles"]}})
    cmds.append({"name": "converge-rank2",
                 "argv": ["converge", "--surface", rank2,
                          "--ns", "12,16,20", "--k", k],
                 "check": {"kind": "torus",
                           "angles": inputs["rank2_angles"]}})
    return cmds
