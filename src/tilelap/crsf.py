"""Determinants of rank-1 connection Laplacians versus forest sums.

For a multigraph with unitary complex edge weights (a rank-1 unitary
connection), the determinant of the connection Laplacian equals the sum
over cycle-rooted spanning forests (spanning subgraphs in which every
component contains exactly one cycle) of the product over component cycles
of 2 - w(gamma) - w(gamma)^{-1}, where w(gamma) is the cycle monodromy.
Both sides are computed independently here, the determinant numerically
and the forest sum by brute-force enumeration (intended for graphs with at
most a dozen edges).
"""

from itertools import combinations

import numpy as np


class ConnectionGraph:
    """Multigraph with unit-modulus complex weights on directed edges."""

    def __init__(self, n_vertices, edges):
        """``edges`` is a list of (tail, head, weight) with |weight| = 1;
        parallel edges and self-loops are allowed."""
        self.n_vertices = n_vertices
        self.edges = []
        for (u, v, w) in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError("edge endpoint out of range")
            w = complex(w)
            if abs(abs(w) - 1.0) > 1e-12:
                raise ValueError("edge weight must have modulus 1")
            self.edges.append((u, v, w))

    def laplacian(self):
        """Dense connection Laplacian Delta f(v) = deg f(v) - sum w f(v'),
        from the block rule of the mesh Laplacian."""
        from .operators import _block_matrix, laplacian_blocks

        n = self.n_vertices
        # w carries f(u) to v: it is the rule's U for tail v and head u
        heads = np.array([u for (u, _, _) in self.edges], dtype=int)
        tails = np.array([v for (_, v, _) in self.edges], dtype=int)
        weights = np.array([w for (_, _, w) in self.edges], dtype=complex)
        return _block_matrix(*laplacian_blocks(n, tails, heads,
                                               weights.reshape(-1, 1, 1)),
                             (n, n))

    def determinant(self):
        return float(np.linalg.det(self.laplacian()).real)

    def forest_sum(self):
        """Sum over cycle-rooted spanning forests of
        prod over cycles (2 - w(gamma) - conj(w(gamma))).

        One pass per subset of n_vertices edges, with a union-find that
        keeps each vertex's transport to its parent.  n edges on n vertices
        close one cycle per component unless some component closes a
        second, so an edge that would give a component a second cycle ends
        the subset, and one that closes a first cycle contributes.
        """
        n = self.n_vertices

        def find(x):  # root of x and the transport from x to it
            phi = 1.0
            while parent[x] != x:
                phi, x = to_parent[x] * phi, parent[x]
            return x, phi

        total = 0.0
        for subset in combinations(self.edges, n):
            parent, to_parent = list(range(n)), [1.0] * n
            cyclic = [False] * n
            weight = 1.0
            for (u, v, w) in subset:
                (ru, phi_u), (rv, phi_v) = find(u), find(v)
                loop = phi_v * w * phi_u.conjugate()
                if cyclic[ru] and (ru == rv or cyclic[rv]):
                    break
                if ru == rv:
                    cyclic[ru] = True
                    weight *= 2.0 - 2.0 * loop.real
                else:
                    parent[ru], to_parent[ru] = rv, loop
                    cyclic[rv] = cyclic[rv] or cyclic[ru]
            else:
                total += weight
        return total


def random_connection_graph(stream, max_vertices=7, max_edges=12):
    """Random small multigraph with unit weights, for identity testing,
    drawn from ``stream`` (a :class:`~tilelap.stream.SplitMix64`): 1 to
    ``max_vertices`` vertices, 0 to ``max_edges`` edges, each with uniform
    ends and a uniform phase."""
    # each value in [-1, 1) as a fraction u in [0, 1), and floor(u * count)
    # as an integer below count
    (nu, mu), = (stream.rows(1, 2) + 1) / 2
    n, m = 1 + int(nu * max_vertices), int(mu * (max_edges + 1))
    draws = (stream.rows(m, 3) + 1) / 2
    ends = (draws[:, :2] * n).astype(int)
    weights = np.exp(2j * np.pi * draws[:, 2])
    return ConnectionGraph(n, [(int(u), int(v), w)
                               for (u, v), w in zip(ends, weights)])
