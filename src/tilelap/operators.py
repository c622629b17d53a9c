"""Bundle-twisted combinatorial operators on a discretized surface.

For a section f (one C^r value per vertex) the Laplacian is

    (Delta f)(v) = sum over edges (v, v') of  f(v) - U_{v' -> v} f(v'),

the gradient assigns to each edge e = (t, h) the tail-frame value
(grad f)(e) = f(t) - U_{h -> t} f(h), and the divergence is the exact
adjoint of the gradient, so Delta = div grad holds as a matrix identity.
Self-loops (which occur for subdivision 1) contribute both orientations.
"""

import numpy as np


def _block_matrix(rows, cols, blocks, shape):
    """Sparse matrix from block rows, block columns and a (m, r, r) stack
    of blocks; blocks at the same position add up."""
    import scipy.sparse as sp

    rank = blocks.shape[-1]
    idx = np.arange(rank)
    rr = np.broadcast_to(rows[:, None, None] * rank + idx[:, None],
                         blocks.shape)
    cc = np.broadcast_to(cols[:, None, None] * rank + idx, blocks.shape)
    mat = sp.coo_matrix((blocks.ravel(), (rr.ravel(), cc.ravel())),
                        shape=(shape[0] * rank, shape[1] * rank))
    return mat.tocsr()


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
    """Sparse Hermitian bundle Laplacian, (n_vertices * rank) square, real
    when the bundle's transports are."""
    return _block_matrix(*laplacian_blocks(disc.n_vertices, disc.tails,
                                           disc.heads, disc.transports),
                         (disc.n_vertices, disc.n_vertices))


def gradient(disc):
    """Sparse gradient, mapping sections to edge-indexed (tail-frame) data."""
    t, h, u = disc.tails, disc.heads, disc.transports
    k = np.arange(len(t))
    eye = np.broadcast_to(np.eye(u.shape[-1], dtype=u.dtype), u.shape)
    return _block_matrix(np.concatenate([k, k]), np.concatenate([t, h]),
                         np.concatenate([eye, -u]),
                         (len(t), disc.n_vertices))


def divergence(disc):
    """Adjoint of the gradient (so that laplacian == divergence @ gradient)."""
    return gradient(disc).conj().T.tocsr()


def _edge_values(disc, f):
    """Per-edge tail-frame differences f(t) - U_{h->t} f(h), (m, rank)."""
    f = np.asarray(f).reshape(disc.n_vertices, disc.bundle.rank)
    return f[disc.tails] - np.einsum("mij,mj->mi", disc.transports,
                                     f[disc.heads])


def edge_differences(disc, f):
    """Per-edge norms |f(t) - U_{h->t} f(h)| of a section."""
    return np.linalg.norm(_edge_values(disc, f), axis=1)


def dirichlet_form(disc, f, g=None):
    """<grad f, grad g> summed over edges (g defaults to f)."""
    df = _edge_values(disc, f)
    dg = df if g is None else _edge_values(disc, g)
    return complex(np.vdot(dg, df))
