"""LAPACK from the OpenBLAS bundled with numpy, through the LAPACKE C
interface of its 64-bit integer build, opened with ctypes: one function
per routine, each with its fallback where numpy bundles none (a conda
build, for one), and the BLAS thread count; and the C heap's trim."""

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

# LAPACKE routines, without the precision letter, by argument kinds after
# the matrix layout: c char, i 64-bit integer, d double, p array pointer
PROTOTYPES = {"syevr": "cccipiddiidpppip", "heevr": "cccipiddiidpppip",
              "pbsv": "ciiipipi", "trtri": "ccipi", "sytrf": "cipip",
              "hetrf": "cipip"}
KINDS = {"c": ctypes.c_char, "i": ctypes.c_int64, "d": ctypes.c_double,
         "p": ctypes.c_void_p}
COL_MAJOR = 102  # the matrix layout argument for column-major arrays


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, opened with ctypes, and the prefix and
    suffix of its symbol names, read from its file name
    lib<prefix>openblas<suffix>-<hash>.so; None if numpy bundles none."""
    paths = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                   "numpy.libs", "lib*openblas*"))
    if not paths:
        return None
    stem = os.path.basename(paths[0])[3:].split("-")[0]
    prefix, _, suffix = stem.partition("openblas")
    return ctypes.CDLL(paths[0]), prefix, suffix


def _blas_thread_control():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None."""
    if _openblas() is None:
        return None
    lib, prefix, suffix = _openblas()
    for name in (prefix + "openblas_%s_num_threads" + suffix,
                 prefix + "openblas_%s_num_threads"):
        get, put = (getattr(lib, name % op, None) for op in ("get", "set"))
        if get is not None and put is not None:
            return get, put
    return None


def _lapacke(name):
    """The LAPACKE routine ``name``, a precision letter and a PROTOTYPES
    key, of numpy's OpenBLAS, 64-bit integer build, or None when numpy
    does not bundle it; KeyError for a routine not in PROTOTYPES."""
    kinds = PROTOTYPES[name[1:]]
    if _openblas() is None or _openblas()[2] != "64_":
        return None
    lib, prefix, suffix = _openblas()
    func = getattr(lib, "%sLAPACKE_%s%s" % (prefix, name, suffix), None)
    if func is not None:
        func.restype = ctypes.c_int64
        func.argtypes = [ctypes.c_int] + [KINDS[kind] for kind in kinds]
    return func


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None under a C library without it or where
    the process's own symbols cannot be opened."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    return getattr(libc, "malloc_trim", None)


def release_free_heap():
    """Hand the C heap's free pages back to the system (glibc's
    malloc_trim(0)).  Arrays below malloc's mmap threshold, which glibc
    raises to the size of each larger mapped block freed, are freed into
    the heap, whose pages stay resident and add to the peak RSS of
    whatever runs next; nothing happens where the C library has no
    malloc_trim."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread.  A dense eigensolve of these sizes
    makes thousands of short BLAS calls; on two threads, when another BLAS
    process spins on the same cores, a 0.1 s solve at dimension 768 took
    7 s, and on one it took 0.6-0.8 s.  The CLI starts OpenBLAS on one
    thread already (see ``tilelap.cli``); this holds for library callers,
    whose thread count is restored on exit."""
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, put = control
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def syevr(dense, k):
    """The k lowest eigenpairs (values ascending, vectors in columns) of a
    Hermitian array, by ?syevr/?heevr on a column-major copy, pairs of
    index 1..k only, on one BLAS thread; numpy's full ``eigh`` where numpy
    has no OpenBLAS."""
    dim = len(dense)
    dense = np.array(dense, np.result_type(dense.dtype, float), order="F")
    evr = _lapacke("zheevr" if np.iscomplexobj(dense) else "dsyevr")
    vals, vecs = np.empty(dim), np.empty((dim, k), dense.dtype, order="F")
    found, support = np.empty(1, np.int64), np.empty(2 * k, np.int64)
    with one_blas_thread():
        if evr is None:
            vals, vecs = np.linalg.eigh(dense)
        elif evr(COL_MAJOR, b"V", b"I", b"L", dim, dense.ctypes.data, dim, 0,
                 0, 1, k, 0, found.ctypes.data, vals.ctypes.data,
                 vecs.ctypes.data, dim, support.ctypes.data):
            raise RuntimeError("LAPACK ?syevr/?heevr failed")
    # a copy, so that a full dim x dim basis is freed
    return vals[:k], vecs[:, :k].copy()


def pbsv(band, rhs):
    """x with A x = ``rhs``, A positive definite in lower band storage
    (N, width + 1), entry (i, j) at band[j, i - j], which dpbsv reads
    column-major: on one BLAS thread, the factor and x in the place of
    float arrays ``band`` and ``rhs``; scipy's ``solveh_banded`` where
    numpy has no OpenBLAS."""
    band = np.ascontiguousarray(band, float)
    x = np.ascontiguousarray(rhs, float)
    solve = _lapacke("dpbsv")
    with one_blas_thread():
        if solve is None:
            from scipy.linalg import solveh_banded

            return solveh_banded(band.T, x, lower=True)
        if solve(COL_MAJOR, b"L", len(band), band.shape[1] - 1, 1,
                 band.ctypes.data, band.shape[1], x.ctypes.data, len(band)):
            raise RuntimeError("LAPACK dpbsv failed")
    return x


def lower_inverse(lower):
    """L^-1 of a lower triangular L, by ?trtri in ``lower``'s place when
    that is a row-major float or complex array (4-8 times faster than the
    fallback, numpy's ``inv``, at order 384-1536): it inverts the
    column-major reading, L^T, and (L^T)^-1 read back by rows is L^-1."""
    real = not np.iscomplexobj(lower)
    trtri = _lapacke("dtrtri" if real else "ztrtri")
    if trtri is None:
        return np.linalg.inv(lower)
    inv = np.ascontiguousarray(lower, float if real else complex)
    if trtri(COL_MAJOR, b"U", b"N", len(inv), inv.ctypes.data,
             max(1, len(inv))):
        raise RuntimeError("LAPACK ?trtri failed")
    return inv


def negative_count(sym):
    """The number of negative eigenvalues of a real symmetric or complex
    Hermitian array, by Sylvester's law of inertia from the D of its
    Bunch-Kaufman factorization P L D L* P* (?sytrf/?hetrf by dtype, in
    the place of a C-contiguous float or complex ``sym``): its 1 x 1
    blocks and the eigenvalues of its 2 x 2 blocks; numpy's ``eigvalsh``
    where numpy has no OpenBLAS."""
    real = not np.iscomplexobj(sym)
    trf = _lapacke("dsytrf" if real else "zhetrf")
    if trf is None:
        return int(np.count_nonzero(np.linalg.eigvalsh(sym) < 0))
    sym = np.ascontiguousarray(sym, float if real else complex)
    dim = len(sym)
    pivots = np.empty(dim, np.int64)
    # read column-major, sym is conj(sym), of the same inertia: its lower
    # triangle holds L and D, whose (k + 1, k) entry is sym[k, k + 1] here
    with one_blas_thread():
        if trf(COL_MAJOR, b"L", dim, sym.ctypes.data, max(1, dim),
               pivots.ctypes.data):
            raise RuntimeError("LAPACK ?sytrf/?hetrf failed")
    diag, off = sym.diagonal().real.tolist(), np.abs(sym.diagonal(1)) ** 2
    pivots, off, count, k = pivots.tolist(), off.tolist(), 0, 0
    while k < dim:
        if pivots[k] > 0:  # a 1 x 1 block
            count += diag[k] < 0
            k += 1
        else:  # a 2 x 2 block, rows k and k + 1
            det = diag[k] * diag[k + 1] - off[k]
            count += 1 if det < 0 else 2 * (diag[k] < 0)
            k += 2
    return count
