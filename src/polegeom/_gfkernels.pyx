# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled GF(p) scan kernels.

Same API and output as _kernels_py: identical enumeration order of
canonical projective points and identical reduced-echelon kernel basis
convention, so the two backends are interchangeable.
"""

from libc.stdlib cimport free, malloc

BACKEND = "cython"


cdef int _rref(long* m, int nrows, int ncols, long p, long* inv, int* pivots) nogil:
    """In-place reduced row echelon form mod p; fills pivot columns."""
    cdef int r = 0, c, i, j, piv
    cdef long f, piv_inv
    cdef long* tmp = <long*> malloc(ncols * sizeof(long))
    if tmp == NULL:
        return -1
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i * ncols + c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            for j in range(ncols):
                tmp[j] = m[r * ncols + j]
                m[r * ncols + j] = m[piv * ncols + j]
                m[piv * ncols + j] = tmp[j]
        piv_inv = inv[m[r * ncols + c]]
        if piv_inv != 1:
            for j in range(c, ncols):
                m[r * ncols + j] = (m[r * ncols + j] * piv_inv) % p
        for i in range(nrows):
            if i != r and m[i * ncols + c] != 0:
                f = m[i * ncols + c]
                for j in range(c, ncols):
                    m[i * ncols + j] = (m[i * ncols + j] - f * m[r * ncols + j]) % p
                    if m[i * ncols + j] < 0:
                        m[i * ncols + j] += p
        pivots[r] = c
        r += 1
        if r == nrows:
            break
    free(tmp)
    return r


cdef long* _inverse_table(long p):
    cdef long* inv = <long*> malloc(p * sizeof(long))
    cdef long a, acc
    cdef long e
    if inv == NULL:
        return NULL
    inv[0] = 0
    for a in range(1, p):
        acc = 1
        e = p - 2
        b = a
        while e > 0:
            if e & 1:
                acc = (acc * b) % p
            b = (b * b) % p
            e >>= 1
        inv[a] = acc
    return inv


def rank_mod_p(rows, long p):
    cdef int nrows = len(rows)
    if nrows == 0:
        return 0
    cdef int ncols = len(rows[0])
    cdef long* m = <long*> malloc(nrows * ncols * sizeof(long))
    cdef int* pivots = <int*> malloc(nrows * sizeof(int))
    cdef long* inv = _inverse_table(p)
    cdef int i, j, rank
    for i in range(nrows):
        row = rows[i]
        for j in range(ncols):
            m[i * ncols + j] = row[j] % p
    rank = _rref(m, nrows, ncols, p, inv, pivots)
    free(m)
    free(pivots)
    free(inv)
    return rank


cdef list _kernel_from_rref(long* m, int rank, int ncols, long p, int* pivots):
    """Basis tuples per free column (ascending), matching the pure backend."""
    cdef list basis = []
    cdef int f, r, c, is_pivot
    cdef list vec
    for f in range(ncols):
        is_pivot = 0
        for r in range(rank):
            if pivots[r] == f:
                is_pivot = 1
                break
        if is_pivot:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for r in range(rank):
            c = pivots[r]
            vec[c] = (p - m[r * ncols + f]) % p
        basis.append(tuple(vec))
    return basis


def kernel_mod_p(rows, long p):
    cdef int nrows = len(rows)
    if nrows == 0:
        return []
    cdef int ncols = len(rows[0])
    cdef long* m = <long*> malloc(nrows * ncols * sizeof(long))
    cdef int* pivots = <int*> malloc(nrows * sizeof(int))
    cdef long* inv = _inverse_table(p)
    cdef int i, j, rank
    for i in range(nrows):
        row = rows[i]
        for j in range(ncols):
            m[i * ncols + j] = row[j] % p
    rank = _rref(m, nrows, ncols, p, inv, pivots)
    out = _kernel_from_rref(m, rank, ncols, p, pivots)
    free(m)
    free(pivots)
    free(inv)
    return out


def scan(cube, int n, long p, long start, long stop, bint want_kernels):
    """Degrees (and optionally radical bases) of canonical projective points
    with enumeration indices in [start, stop)."""
    cdef long* cube_c = <long*> malloc(n * n * n * sizeof(long))
    cdef long* m = <long*> malloc(n * n * sizeof(long))
    cdef long* work = <long*> malloc(n * n * sizeof(long))
    cdef long* u = <long*> malloc(n * sizeof(long))
    cdef int* pivots = <int*> malloc(n * sizeof(int))
    cdef long* inv = _inverse_table(p)
    cdef long* blocks = <long*> malloc((n + 1) * sizeof(long))
    cdef int i, j, k, rank, kk, pos
    cdef long idx, rem, ui, v
    cdef list points = [], degrees = []
    cdef list kernels = [] if want_kernels else None

    for i in range(n):
        plane = cube[i]
        for j in range(n):
            row = plane[j]
            for k in range(n):
                cube_c[(i * n + j) * n + k] = row[k] % p

    # block sizes of the first-nonzero-at-k groups
    for k in range(n):
        v = 1
        for i in range(n - k - 1):
            v *= p
        blocks[k] = v

    for idx in range(start, stop):
        # decode the canonical point at this enumeration index
        rem = idx
        kk = 0
        while kk < n and rem >= blocks[kk]:
            rem -= blocks[kk]
            kk += 1
        for i in range(n):
            u[i] = 0
        u[kk] = 1
        for pos in range(n - 1, kk, -1):
            u[pos] = rem % p
            rem = rem // p
        # M_u = sum_i u_i * cube[i]
        for j in range(n * n):
            m[j] = 0
        for i in range(n):
            ui = u[i]
            if ui == 0:
                continue
            for j in range(n):
                for k in range(n):
                    v = cube_c[(i * n + j) * n + k]
                    if v != 0:
                        m[j * n + k] = (m[j * n + k] + ui * v) % p
        for j in range(n * n):
            work[j] = m[j]
        rank = _rref(work, n, n, p, inv, pivots)
        if want_kernels:
            kernels.append(_kernel_from_rref(work, rank, n, p, pivots))
        pt = tuple([u[i] for i in range(n)])
        points.append(pt)
        degrees.append(n - 1 - rank)

    free(cube_c)
    free(m)
    free(work)
    free(u)
    free(pivots)
    free(inv)
    free(blocks)
    return points, degrees, kernels
