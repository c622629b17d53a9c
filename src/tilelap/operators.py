"""Bundle-twisted combinatorial operators on a discretized surface.

For a section f (one C^r value per vertex) the Laplacian is

    (Delta f)(v) = sum over edges (v, v') of  f(v) - U_{v' -> v} f(v'),

the gradient assigns to each edge e = (t, h) the tail-frame value
(grad f)(e) = f(t) - U_{h -> t} f(h) (`edge_differences` gives its norms),
and the divergence is its exact adjoint, so Delta = div grad
(`apply_laplacian`).  Self-loops (which occur for subdivision 1)
contribute both orientations.
"""

import numpy as np


class DenseMatrix(np.ndarray):
    """A numpy array that also reports ``nnz``, its number of nonzero
    entries, under the name a sparse matrix uses for it."""

    @property
    def nnz(self):
        return int(np.count_nonzero(self))


def _block_matrix(rows, cols, blocks, shape):
    """Dense `DenseMatrix` from block rows, block columns and a (m, r, r)
    stack of blocks; blocks at the same position add up."""
    rank = blocks.shape[-1]
    idx = np.arange(rank)
    rr = np.broadcast_to(rows[:, None, None] * rank + idx[:, None],
                         blocks.shape)
    cc = np.broadcast_to(cols[:, None, None] * rank + idx, blocks.shape)
    mat = np.zeros((shape[0] * rank, shape[1] * rank), dtype=blocks.dtype)
    np.add.at(mat, (rr, cc), blocks)
    return mat.view(DenseMatrix)


def laplacian_blocks(n_vertices, tails, heads, transports):
    """Block rows, block columns and (m, r, r) blocks of the Laplacian of
    an edge list: the degree blocks, then -U at (tail, head) and -U* at
    (head, tail), with U the transport head -> tail.  A self-loop adds
    both orientations to its degree block, 2I - U - U*."""
    rank = transports.shape[-1]
    v = np.arange(n_vertices)
    degrees = (np.bincount(tails, minlength=n_vertices)
               + np.bincount(heads, minlength=n_vertices))
    diag = degrees[:, None, None] * np.eye(rank, dtype=transports.dtype)
    adjoints = transports.conj().transpose(0, 2, 1)
    return (np.concatenate([v, tails, heads]),
            np.concatenate([v, heads, tails]),
            np.concatenate([diag, -transports, -adjoints]))


def laplacian(disc):
    """Hermitian bundle Laplacian as a dense `DenseMatrix`, (n_vertices *
    rank) square, real when the bundle's transports are.  It is assembled
    only for meshes that ``spectral.mesh_eigenpairs`` sends to LAPACK;
    the others are solved by `capacitance.SeamCapacitance`."""
    return _block_matrix(*laplacian_blocks(disc.n_vertices, disc.tails,
                                           disc.heads, disc.transports),
                         (disc.n_vertices, disc.n_vertices))


def _edge_values(disc, f):
    """Per-edge tail-frame differences f(t) - U_{h->t} f(h), (m, rank)."""
    f = np.asarray(f).reshape(disc.n_vertices, disc.bundle.rank)
    return f[disc.tails] - np.einsum("mij,mj->mi", disc.transports,
                                     f[disc.heads])


def apply_laplacian(disc, f):
    """Laplacian of a section as div grad on the edge arrays, with no
    matrix: each edge's difference f(t) - U f(h) is added at its tail and,
    carried back by U*, subtracted at its head."""
    diff = _edge_values(disc, f)
    out = np.zeros((disc.n_vertices, disc.bundle.rank), dtype=diff.dtype)
    np.add.at(out, disc.tails, diff)
    np.subtract.at(out, disc.heads,
                   np.einsum("mji,mj->mi", disc.transports.conj(), diff))
    return out.ravel()


def edge_differences(disc, f):
    """Per-edge norms |f(t) - U_{h->t} f(h)| of a section."""
    return np.linalg.norm(_edge_values(disc, f), axis=1)


def dirichlet_form(disc, f, g):
    """<grad f, grad g> summed over edges."""
    return complex(np.vdot(_edge_values(disc, g), _edge_values(disc, f)))
