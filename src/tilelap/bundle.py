"""Flat unitary vector bundles over a square-tiled surface.

A bundle of rank r assigns one r x r unitary matrix to every seam: the
parallel transport from the seam's first square frame into its second.
Transport inside a square is the identity.  The data defines a flat bundle
on the underlying surface precisely when the monodromy around every
interior vertex class is the identity; in particular the monodromy around
every cone point must be trivial.
"""

import numpy as np

FLAT_TOL = 1e-12


class FlatUnitaryBundle:
    def __init__(self, surface, rank, seam_transports):
        """``seam_transports`` maps seam index -> (rank, rank) unitary.

        Seams without an entry carry the identity.
        """
        self.surface = surface
        self.rank = int(rank)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        eye = np.eye(self.rank, dtype=complex)
        self.transports = []
        for seam in surface.seams:
            mat = seam_transports.get(seam.index)
            if mat is None:
                mat = eye
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (self.rank, self.rank):
                raise ValueError(
                    "transport for seam %d has shape %r, expected %r"
                    % (seam.index, mat.shape, (self.rank, self.rank)))
            self.transports.append(mat)

    # ---- constructors --------------------------------------------------

    @classmethod
    def trivial(cls, surface, rank=1):
        return cls(surface, rank, {})

    @classmethod
    def from_spec(cls, surface, spec):
        """Build from the parser's bundle block; None means trivial rank 1."""
        if spec is None:
            return cls.trivial(surface, 1)
        return cls(surface, spec["rank"], spec["transports"])

    @classmethod
    def twisted_torus(cls, surface, alpha, beta):
        """Rank-1 bundle on the unit torus with holonomies e^{i alpha},
        e^{i beta} around the horizontal and vertical loops."""
        transports = {}
        for seam in surface.seams:
            if seam.first[1] in ("E", "W"):
                transports[seam.index] = np.array([[np.exp(1j * alpha)]])
            else:
                transports[seam.index] = np.array([[np.exp(1j * beta)]])
        return cls(surface, 1, transports)

    # ---- transport algebra --------------------------------------------

    def seam_unitary(self, seam_index, direction=+1):
        """Transport across a seam; direction +1 goes first -> second."""
        mat = self.transports[seam_index]
        if direction == +1:
            return mat
        return mat.conj().T

    def monodromy(self, path):
        """Ordered product of seam crossings.

        ``path`` is a list of (seam_index, direction) pairs, applied left to
        right: the returned matrix maps the starting frame to the final one.
        """
        acc = np.eye(self.rank, dtype=complex)
        for seam_index, direction in path:
            acc = self.seam_unitary(seam_index, direction) @ acc
        return acc

    def unitarity_defect(self):
        """Largest deviation of any seam transport from unitarity; not
        finite when a transport has a non-finite entry."""
        eye = np.eye(self.rank)
        return float(np.max([np.abs(mat.conj().T @ mat - eye).max()
                             for mat in self.transports], initial=0.0))

    def cone_monodromy_defect(self):
        """Largest deviation from identity of the monodromy around any
        interior vertex class (cone points and regular interior points);
        not finite when a transport on the way has a non-finite entry."""
        eye = np.eye(self.rank)
        return float(np.max([
            np.abs(self.monodromy(cycle.seam_steps) - eye).max()
            for cycle in self.surface.vertex_cycles() if cycle.interior],
            initial=0.0))

    def validate(self):
        """Raise ValueError if transports are non-unitary or the monodromy
        around some interior point is nontrivial (tolerance FLAT_TOL); a
        nan defect fails too."""
        defect = self.unitarity_defect()
        if not defect <= FLAT_TOL:
            raise ValueError(
                "seam transport fails unitarity by %.3e" % defect)
        defect = self.cone_monodromy_defect()
        if not defect <= FLAT_TOL:
            raise ValueError(
                "nontrivial monodromy around an interior point: "
                "defect %.3e" % defect)
        return True
