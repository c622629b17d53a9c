"""Shifted solves with the mesh Laplacian by the seam capacitance matrix.

Every square of a mesh is an n x n grid of cells, and only the n edges of
each seam join cells of different squares or different sides.  So the
Laplacian splits as A = D + W W*: D is the free-boundary grid Laplacian of
each square (times I_r), and W has one column block per seam edge e = (t,
h, U), I at the tail and -U* at the head (U the transport head -> tail).
The orthonormal DCT-II basis Phi diagonalizes D, with eigenvalues
lambda_p + lambda_q, lambda_p = 2 - 2 cos(pi p / n).  With M = D - sigma I
the Woodbury identity gives

    (A - sigma I)^-1 = M^-1 - M^-1 W K^-1 W* M^-1,   K = I + W* M^-1 W,

the capacitance matrix method (Buzbee, Golub & Nielson, SIAM J. Numer.
Anal. 7, 1970).  K has one row block per seam edge; its entries are
Green values of M between side cells of one square, which separate in
the two grid directions.

Vectors live in cosine coordinates, ordered (square, component, q, p) for
the mode Phi[:, q] along rows j and Phi[:, p] along columns i.  There M^-1
is the elementwise factor 1/(lambda_q + lambda_p - sigma), and only side
values need transforms, so one solve costs O(S n^2 + m^2) for S squares
and m = (number of seams) n r.
"""

import numpy as np

from .lapack import lower_inverse, negative_count
from .operators import _block_matrix, laplacian_blocks

# the kernel of the square graph: eigenvalues below this count as zero
KERNEL_TOL = 1e-10


def dct_basis(n):
    """Orthonormal DCT-II basis Phi[i, p] of the n-cell path and the path
    Laplacian eigenvalues 2 - 2 cos(pi p / n)."""
    i = np.arange(n)
    phi = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(i + 0.5, i) / n)
    phi[:, 0] = np.sqrt(1.0 / n)
    return phi, 2 - 2 * np.cos(np.pi * i / n)


def square_kernel(disc):
    """Orthonormal kernel, (squares * rank, size), of the Laplacian of the
    square graph that the seams' transports make.  A section in the
    kernel of the mesh Laplacian is flat, so constant on each square, and
    these are its constants times n, one row per square and component.
    Its edges are the first edge of each seam in the seam table."""
    squares, first = disc.surface.n_squares, slice(None, None, disc.n)
    lap = _block_matrix(*laplacian_blocks(
        squares, disc.seam_tails[first] // (4 * disc.n),
        disc.seam_heads[first] // (4 * disc.n),
        disc.seam_transports[first]), (squares, squares))
    vals, vecs = np.linalg.eigh(np.asarray(lap))
    return vecs[:, vals <= KERNEL_TOL * max(1.0, vals[-1])]


class SeamCapacitance:
    """(A - shift I)^-1 of a discretization's Laplacian in cosine
    coordinates, for a shift below the spectrum, and the exact kernel of A.

    ``apply`` takes and returns (b, dim) blocks of such coordinates, and
    ``shifted`` applies A - shift I itself; ``to_vertices`` converts them
    to the Laplacian's vertex ordering (an orthogonal map, so its
    transpose converts back).  ``count_below`` counts the eigenvalues of
    A below a point.  ``kernel`` is a (dim, kernel size)
    orthonormal basis of the kernel of A, supported on the constant mode
    (q, p) = (0, 0) of each square.
    """

    def __init__(self, disc, shift):
        n, rank = disc.n, disc.bundle.rank
        squares = disc.surface.n_squares
        self.shape = (squares, rank, n, n)
        self.dim = squares * rank * n * n
        self.dtype = disc.transports.dtype
        self.shift = shift
        self.phi, self.lam = dct_basis(n)
        self.inv_m = 1.0 / (self.lam[:, None] + self.lam - shift)
        # rows of Phi at the two ends, cells n - 1 and 0
        self.ends = self.phi[[n - 1, 0]]
        # a flat section with constant c_q on square q has cosine
        # coordinate (0, 0) n c_q there
        null = square_kernel(disc)
        kernel = np.zeros(self.shape + null.shape[1:], null.dtype)
        kernel[:, :, 0, 0] = null.reshape(squares, rank, -1)
        self.kernel = kernel.reshape(self.dim, -1)
        # the seam table's ends, flat indices into (S, 4, n) side slots
        self.tail_slots, self.head_slots = disc.seam_tails, disc.seam_heads
        self.transports = disc.seam_transports
        # K^-1 = L^-* L^-1 from the Cholesky factor L of K: an explicit
        # inverse of K would cost its condition number in accuracy
        self.half_inv = lower_inverse(np.linalg.cholesky(
            self._capacitance(self.inv_m)))

    # ---- setup ---------------------------------------------------------

    def _capacitance(self, h):
        """K = I + W* M^-1 W, (m r) square, for M = D - s I at a shift s
        off the spectrum of D, given as the factors ``h`` = H[q, p] =
        1/(lambda_q + lambda_p - s) of M^-1: for edges e, f and ends x of
        e, y of f, the side Green value G(x, y) times C_x* C_y, with C = I
        at a tail and -U* at a head.  Ends in different squares see 0, and the
        n tails of a seam lie on one side, as do its n heads; so each two
        such end groups in one square add, in place, an n x n block of
        edges, tails before heads at both ends.

        The Green value sum_{q,p} Phi[j,q] Phi[i,p] H[q,p] Phi[j',q]
        Phi[i',p] of two rows (or two columns) is Phi diag(g) Phi^T with g
        summed over the fixed direction; of a row and a column it is
        Phi X Phi^T with X = H scaled by the two fixed rows of Phi.  H is
        symmetric, so columns behave as rows.  Each block of sides a <= b
        is made once; sides a >= b read its transpose."""
        phi = self.phi
        count, rank, n = len(self.tail_slots), self.shape[1], self.shape[2]
        eye = np.broadcast_to(np.eye(rank), self.transports.shape)
        heads = -self.transports.conj().transpose(0, 2, 1)
        ends = [(slots[x], c[x], x) for slots, c in ((self.tail_slots, eye),
                                                    (self.head_slots, heads))
                for x in (slice(i, i + n) for i in range(0, count, n))]
        cap = np.zeros((count, rank, count, rank), self.dtype)
        green = {}
        for sx, cx, x in ends:
            for sy, cy, y in ends:
                if sx[0] // (4 * n) != sy[0] // (4 * n):
                    continue
                a, b = sx[0] // n % 4, sy[0] // n % 4
                side = min(a, b), max(a, b)
                if side not in green:
                    fa, fb = self.ends[side[0] % 2], self.ends[side[1] % 2]
                    green[side] = (
                        (phi * ((fa * fb) @ h)) @ phi.T if a // 2 == b // 2
                        else phi @ (fb[:, None] * h * fa) @ phi.T)
                block = green[side].T if a >= b else green[side]
                cap[x, :, y] += np.einsum(
                    "xy,xca,ycb->xayb", block[sx[:, None] % n, sy % n],
                    cx.conj(), cy)
        cap = cap.reshape(count * rank, count * rank)
        cap[np.diag_indices_from(cap)] += 1
        return cap

    def count_below(self, tau):
        """The number of eigenvalues of A below ``tau``, a point off the
        spectra of A and D, by Haynsworth's inertia additivity (Linear
        Algebra Appl. 1, 1968): [[M, W], [W*, -I]], M = D - tau I, has
        the Schur complements A - tau I and -K_tau, K_tau = I + W* M^-1 W
        (built by the code that builds K), so that neg(A - tau I) =
        neg(M) - neg(K_tau), and neg(M) is S r times the count of
        lambda_q + lambda_p below tau."""
        modes = self.lam[:, None] + self.lam
        below = self.shape[0] * self.shape[1] * np.count_nonzero(modes < tau)
        return below - negative_count(self._capacitance(1.0 / (modes - tau)))

    # ---- coordinates ---------------------------------------------------

    def to_vertices(self, z):
        """Vertex-ordered columns, (dim, b), of cosine coordinates z,
        (b, dim)."""
        grid = self.phi @ z.reshape((-1,) + self.shape) @ self.phi.T
        return grid.transpose(0, 1, 3, 4, 2).reshape(len(z), self.dim).T

    # ---- the solve -----------------------------------------------------

    def _sides(self, y):
        """Values of cosine fields y, (b, S, r, n, n), at the side slots:
        (S * 4 * n, b, r)."""
        rows = self.ends @ y @ self.phi.T  # (b, S, r, 2, n along i)
        cols = (self.phi @ (y @ self.ends.T)).swapaxes(-1, -2)
        sides = np.concatenate([rows, cols], axis=3)  # (b, S, r, 4, n)
        return sides.transpose(1, 3, 4, 0, 2).reshape(-1, len(y),
                                                      self.shape[1])

    def _seam_term(self, y, weigh=None):
        """T(W c) for cosine fields y, (b, S, r, n, n), where c = W* y at
        the seam edges, or ``weigh`` of it, (m r, b) -> (m r, b).  An
        iterator over its b fields, (S, r, n, n) each, so that one full
        field is held at a time; empty when the mesh has no seams."""
        b, count, rank = len(y), len(self.transports), self.shape[1]
        if not count:
            return iter(())
        sides = self._sides(y)
        u = self.transports
        at_tail, at_head = sides[self.tail_slots], sides[self.head_slots]
        coef = at_tail - np.einsum("eij,ebj->ebi", u, at_head)  # W* y
        if weigh is not None:
            coef = weigh(coef.transpose(0, 2, 1).reshape(count * rank, b))
            coef = coef.reshape(count, rank, b).transpose(0, 2, 1)
        field = np.zeros((len(sides), b, rank), coef.dtype)
        field[self.tail_slots] = coef
        field[self.head_slots] = -np.einsum("eji,ebj->ebi", u.conj(), coef)
        return map(self._from_sides, *self._side_modes(field, b))

    def _side_modes(self, sides, b):
        """Cosine modes along the side slots of a field given there as
        (S * 4 * n, b, r): rows (N, S) and columns (E, W), (b, S, r, 2, n)
        each."""
        squares, rank, n, _ = self.shape
        sides = sides.reshape(squares, 4, n, b, rank).transpose(3, 0, 4, 1, 2)
        return sides[:, :, :, :2] @ self.phi, sides[:, :, :, 2:] @ self.phi

    def _from_sides(self, rows, cols):
        """Cosine coordinates (S, r, n, n) of one field that lives on the
        side slots, from its modes ``rows`` and ``cols`` (S, r, 2, n); the
        column term is added into the row term's array."""
        field = self.ends.T @ rows
        field += cols.swapaxes(-1, -2) @ self.ends
        return field

    def _solve_capacitance(self, c):
        """K^-1 c = L^-* (L^-1 c), conjugating the (m r, b) block only."""
        t = self.half_inv @ c
        return (t.conj().T @ self.half_inv).conj().T

    def apply(self, z):
        """(A - shift I)^-1 of each row of z, (b, dim) cosine coordinates:
        H (z - T(W K^-1 W* H z)), with H = M^-1 and T the cosine transform
        of a field on side cells; each row's seam term is scaled by H and
        subtracted in place."""
        y = self.inv_m * z.reshape((len(z),) + self.shape)
        for row, term in zip(y, self._seam_term(y, self._solve_capacitance)):
            term *= self.inv_m
            row -= term
        return y.reshape(len(z), -1)

    def shifted(self, z):
        """(A - shift I) z = M z + T(W W* z) of each row of z, (b, dim)
        cosine coordinates; each row's seam term is added in place."""
        y = z.reshape((len(z),) + self.shape)
        out = np.divide(y, self.inv_m, out=np.empty(
            y.shape, np.result_type(y, self.transports)))
        for row, term in zip(out, self._seam_term(y)):
            row += term
        return out.reshape(len(z), -1)
